"""Exact-arithmetic representation theory for the compact groups of the
rank-n hyperbolic setup.

Three weight lattices appear, all in Euclidean coordinates:

* ``B`` of rank n   -- K = Spin(2n+1), weights (k_2, ..., k_{n+1})
* ``D`` of rank n   -- M = Spin(2n),   weights (k_2, ..., k_{n+1})
* ``D`` of rank n+1 -- weights of the ambient group, (k_1, ..., k_{n+1})

Entries are all integers or all half-integers (spinor parity).  Everything
here is exact rational arithmetic (``fractions.Fraction``); floats only enter
when a character is evaluated at a torus element.

Weight multiplicities come from the Freudenthal recursion and back every
dimension, character and branching computation, so the same table is both
the production path and the brute-force oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import GeoflowError

__all__ = [
    "GroupDesc",
    "HighestWeight",
    "Irrep",
    "VirtualRep",
    "group_B",
    "group_D",
    "rho",
    "positive_roots",
    "is_dominant",
    "dominant_rep",
    "weyl_dim",
    "weight_multiplicities",
    "character",
    "character_batch",
    "w0_act",
    "contragredient",
    "casimir_shift",
    "branch_K_to_M",
    "nu_sigma",
    "nu_of_sigma",
    "spin_reps",
    "m_coeffs",
    "lambda_p_nbar",
]


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        f = Fraction(x).limit_denominator(2)
        if f != Fraction(x):
            raise ValueError(f"weight entry {x!r} is not an (half-)integer")
        return f
    raise TypeError(f"cannot interpret weight entry {x!r}")


@dataclass(frozen=True)
class GroupDesc:
    """Root-system descriptor: family 'B' or 'D', Euclidean rank, and the
    ambient n (d = 2n+1).  K -> B_n, M -> D_n, ambient weights -> D_{n+1}."""

    family: str
    rank: int
    n: int

    def __post_init__(self):
        if self.family not in ("B", "D"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.family == "B" and self.rank != self.n:
            raise ValueError("B-type descriptor must have rank n")
        if self.family == "D" and self.rank not in (self.n, self.n + 1):
            raise ValueError("D-type descriptor must have rank n or n+1")


def group_B(n):
    """K = Spin(2n+1)."""
    return GroupDesc("B", n, n)


def group_D(n, ambient=False):
    """M = Spin(2n), or with ambient=True the rank-(n+1) weight lattice."""
    return GroupDesc("D", n + 1 if ambient else n, n)


@dataclass(frozen=True)
class HighestWeight:
    """Dominant weight in Euclidean coordinates, exact rationals.

    Parity: all entries integral or all half-odd-integral.
    Dominance: B: k_1 >= ... >= k_r >= 0;  D: k_1 >= ... >= k_{r-1} >= |k_r|.
    """

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(_frac(c) for c in coords))

    @property
    def half_integral(self):
        return self.coords[0].denominator == 2 if self.coords else False

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def _check_parity(coords):
    dens = {c.denominator for c in coords}
    return dens <= {1} or dens == {2}


def is_dominant(family, coords):
    coords = tuple(_frac(c) for c in coords)
    if not _check_parity(coords):
        return False
    for a, b in zip(coords, coords[1:]):
        if a < b:
            return False
    if family == "B":
        return coords[-1] >= 0
    # D: the chain above already gives k_{r-1} >= k_r; need k_{r-1} >= -k_r
    if len(coords) >= 2 and coords[-2] < -coords[-1]:
        return False
    return True


@dataclass(frozen=True)
class Irrep:
    group: GroupDesc
    weight: HighestWeight

    def __post_init__(self):
        if not isinstance(self.weight, HighestWeight):
            object.__setattr__(self, "weight", HighestWeight(self.weight))
        if len(self.weight) != self.group.rank:
            raise ValueError(
                f"weight length {len(self.weight)} != rank {self.group.rank}"
            )
        if not is_dominant(self.group.family, self.weight.coords):
            raise ValueError(
                f"{self.weight} is not dominant for {self.group.family}_{self.group.rank}"
            )

    def __str__(self):
        return f"{self.group.family}{self.group.rank}{self.weight}"


class VirtualRep:
    """Integer combination of irreps of one group; zero coefficients dropped."""

    def __init__(self, terms=()):
        self.terms = {}
        for rep, coeff in dict(terms).items():
            if coeff:
                self.terms[rep] = int(coeff)
        groups = {rep.group for rep in self.terms}
        if len(groups) > 1:
            raise ValueError("mixed groups in a virtual representation")

    def group(self):
        for rep in self.terms:
            return rep.group
        return None

    def __add__(self, other):
        out = dict(self.terms)
        for rep, c in other.terms.items():
            out[rep] = out.get(rep, 0) + c
        return VirtualRep(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for rep, c in other.terms.items():
            out[rep] = out.get(rep, 0) - c
        return VirtualRep(out)

    def __eq__(self, other):
        return isinstance(other, VirtualRep) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def dim(self):
        return sum(c * weyl_dim(rep) for rep, c in self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for rep, c in sorted(self.terms.items(), key=lambda rc: rc[0].weight.coords, reverse=True):
            bits.append(f"{rep.weight}:{c:+d}")
        return " ".join(bits)


# ---------------------------------------------------------------------------
# root data

def rho(group):
    """Half-sum of positive roots, Euclidean coordinates (exact)."""
    r = group.rank
    if group.family == "B":
        return tuple(Fraction(2 * (r - j) + 1, 2) for j in range(1, r + 1))
    return tuple(Fraction(r - j) for j in range(1, r + 1))


def positive_roots(group):
    """List of positive roots as coordinate tuples of Fractions."""
    r = group.rank
    roots = []
    for i in range(r):
        for j in range(i + 1, r):
            e = [Fraction(0)] * r
            e[i], e[j] = Fraction(1), Fraction(-1)
            roots.append(tuple(e))
            e2 = [Fraction(0)] * r
            e2[i], e2[j] = Fraction(1), Fraction(1)
            roots.append(tuple(e2))
    if group.family == "B":
        for i in range(r):
            e = [Fraction(0)] * r
            e[i] = Fraction(1)
            roots.append(tuple(e))
    return roots


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def dominant_rep(family, coords):
    """Dominant Weyl-chamber representative of a weight.

    B: sort absolute values descending.  D: same, but the sign of the last
    coordinate is the parity of the number of negative entries (any zero
    entry absorbs the sign).
    """
    coords = tuple(_frac(c) for c in coords)
    if family == "B":
        return tuple(sorted((abs(c) for c in coords), reverse=True))
    negs = sum(1 for c in coords if c < 0)
    mags = sorted((abs(c) for c in coords), reverse=True)
    if negs % 2 == 1 and mags[-1] != 0:
        mags[-1] = -mags[-1]
    return tuple(mags)


def weyl_dim(rep):
    """Dimension by the Weyl product formula, exact integer."""
    rh = rho(rep.group)
    lam = rep.weight.coords
    num = Fraction(1)
    den = Fraction(1)
    for alpha in positive_roots(rep.group):
        num *= _dot([a + b for a, b in zip(lam, rh)], alpha)
        den *= _dot(rh, alpha)
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise GeoflowError(f"Weyl dimension {d} not a positive integer")
    return int(d)


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities

def _simple_root_heights(family, v):
    """Coefficients of v in the simple-root basis, or None if v is not a
    nonnegative integer combination (i.e. not in Q+)."""
    r = len(v)
    partial = list(itertools.accumulate(v))
    if family == "B":
        cs = partial
    else:
        if r == 1:
            # D_1 is a torus; only v = 0 lies in its (empty) root lattice
            cs = [Fraction(0)] if v[0] == 0 else [Fraction(1, 2)]
        else:
            head = partial[: r - 2]
            cs = list(head) + [
                (partial[r - 2] - v[r - 1]) / 2,
                (partial[r - 2] + v[r - 1]) / 2,
            ]
    for c in cs:
        if c.denominator != 1 or c < 0:
            return None
    return [int(c) for c in cs]


def _dominant_candidates(group, lam):
    """All dominant weights mu with lam - mu in Q+ (each is a weight of
    V(lam) for these root systems), with their heights."""
    r = group.rank
    top = max((abs(c) for c in lam), default=Fraction(0))
    lo = -top if group.family == "D" else Fraction(0)
    # step 1 along each axis, same parity class as lam
    vals = []
    v = top
    while v >= lo:
        vals.append(v)
        v -= 1
    out = []
    for cand in itertools.product(vals, repeat=r):
        if not is_dominant(group.family, cand):
            continue
        # dominance of tuples from a descending value list still needs the
        # descending chain checked; is_dominant does it
        diff = tuple(a - b for a, b in zip(lam, cand))
        hts = _simple_root_heights(group.family, diff)
        if hts is None:
            continue
        out.append((sum(hts), tuple(_frac(c) for c in cand)))
    out.sort()
    return out


@lru_cache(maxsize=None)
def _weight_table(family, rank, coords):
    """mult dict (dominant AND non-dominant weights) for the irrep with
    highest weight ``coords``; Freudenthal recursion, exact arithmetic."""
    group = GroupDesc(family, rank, rank)
    lam = tuple(_frac(c) for c in coords)
    rh = rho(group)
    roots = positive_roots(group)
    lam_rho = [a + b for a, b in zip(lam, rh)]
    norm_top = _dot(lam_rho, lam_rho)

    dominant = {}
    cands = _dominant_candidates(group, lam)
    cand_set = {c for _, c in cands}
    for height, mu in cands:
        if height == 0:
            dominant[mu] = 1
            continue
        num = Fraction(0)
        for alpha in roots:
            k = 1
            while True:
                up = tuple(a + k * b for a, b in zip(mu, alpha))
                up_dom = dominant_rep(family, up)
                if up_dom not in cand_set:
                    break
                m_up = dominant.get(up_dom)
                if m_up is None:
                    # candidate not yet processed would mean height ordering
                    # is broken; it is not a weight only if mult 0, but all
                    # candidates are weights here
                    raise GeoflowError("Freudenthal processing order broken")
                num += 2 * m_up * _dot(up, alpha)
                k += 1
        mu_rho = [a + b for a, b in zip(mu, rh)]
        den = norm_top - _dot(mu_rho, mu_rho)
        if den <= 0:
            raise GeoflowError("singular denominator in Freudenthal recursion")
        m = num / den
        if m.denominator != 1 or m <= 0:
            raise GeoflowError(f"non-integral multiplicity {m}")
        dominant[mu] = int(m)

    # expand Weyl orbits
    full = {}
    for mu, m in dominant.items():
        for w in _weyl_orbit(family, mu):
            full[w] = m
    return full


def _weyl_orbit(family, mu):
    """Full Weyl orbit of a weight: permutations with sign flips.  For D only
    even flip counts, unless a zero coordinate absorbs the parity."""
    seen = set()
    has_zero = any(c == 0 for c in mu)
    for perm in set(itertools.permutations(mu)):
        nz = [i for i, c in enumerate(perm) if c != 0]
        for flips in itertools.product((1, -1), repeat=len(nz)):
            if family == "D" and not has_zero and flips.count(-1) % 2 == 1:
                continue
            w = list(perm)
            for i, s in zip(nz, flips):
                w[i] = s * w[i]
            seen.add(tuple(w))
    return seen


def weight_multiplicities(rep):
    """Full weight -> multiplicity table of an irrep (exact)."""
    return dict(_weight_table(rep.group.family, rep.group.rank, rep.weight.coords))


@lru_cache(maxsize=None)
def _char_arrays(family, rank, coords):
    table = _weight_table(family, rank, coords)
    W = np.array([[float(c) for c in mu] for mu in table], dtype=np.float64)
    m = np.array([table[mu] for mu in table], dtype=np.float64)
    return W, m


def character(rep, t):
    """Character value at a torus element: sum of mult(mu) * e^{i<mu,theta>}.

    Weight-table evaluation only (never the Weyl quotient), so singular torus
    elements are ordinary inputs.  Accepts Irrep or VirtualRep.
    """
    theta = np.asarray(t, dtype=np.float64)
    if isinstance(rep, VirtualRep):
        return sum(c * character(r, theta) for r, c in rep.items())
    W, m = _char_arrays(rep.group.family, rep.group.rank, rep.weight.coords)
    return complex(np.exp(1j * (W @ theta)) @ m)


def character_batch(rep, thetas):
    """Characters at many torus points at once; thetas is (T, rank)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if isinstance(rep, VirtualRep):
        out = np.zeros(thetas.shape[0], dtype=np.complex128)
        for r, c in rep.items():
            out += c * character_batch(r, thetas)
        return out
    W, m = _char_arrays(rep.group.family, rep.group.rank, rep.weight.coords)
    return np.exp(1j * (thetas @ W.T)) @ m


# ---------------------------------------------------------------------------
# involutions and invariants

def w0_act(sigma):
    """Outer involution on D-type irreps: flip the sign of the last coordinate."""
    if sigma.group.family != "D":
        raise ValueError("w0 action is defined on D-type irreps")
    c = list(sigma.weight.coords)
    c[-1] = -c[-1]
    return Irrep(sigma.group, HighestWeight(c))


def contragredient(sigma):
    """Dual representation: sigma itself for even rank, w0.sigma for odd."""
    if sigma.group.rank % 2 == 0:
        return sigma
    return w0_act(sigma)


def casimir_shift(sigma):
    """Casimir constant c(sigma) = sum (k_j+rho_j)^2 - sum_{j>=1} rho_j^2,
    with rho_j = n+1-j running over the ambient index range j=1..n+1."""
    n = sigma.group.rank
    ks = sigma.weight.coords
    rhos = [Fraction(n + 1 - j) for j in range(2, n + 2)]
    total = sum((k + r) ** 2 for k, r in zip(ks, rhos))
    total -= sum(Fraction(n + 1 - j) ** 2 for j in range(1, n + 2))
    return total


# ---------------------------------------------------------------------------
# branching B_n -> D_n and the spinor constructions

def branch_K_to_M(nu):
    """Restriction of a B_n irrep to D_n: interlacing highest weights, all
    multiplicities 1."""
    if nu.group.family != "B":
        raise ValueError("branching source must be B-type")
    n = nu.group.rank
    ks = nu.weight.coords
    M = GroupDesc("D", n, n)
    ranges = []
    for i in range(n - 1):
        lo, hi = ks[i + 1], ks[i]
        ranges.append(_steps(lo, hi))
    last = ks[n - 1]
    ranges.append(_steps(-last, last))
    out = {}
    for combo in itertools.product(*ranges):
        out[Irrep(M, HighestWeight(combo))] = 1
    return VirtualRep(out)


def _steps(lo, hi):
    vals = []
    v = hi
    while v >= lo:
        vals.append(v)
        v -= 1
    return vals


def nu_sigma(sigma):
    """The distinguished B_n irrep over sigma: last entry replaced by |.|."""
    c = list(sigma.weight.coords)
    c[-1] = abs(c[-1])
    return Irrep(group_B(sigma.group.rank), HighestWeight(c))


def nu_of_sigma(sigma):
    """The B_n weight (k_j - 1/2)_j; only defined for k_{n+1} > 0."""
    if sigma.weight.coords[-1] <= 0:
        raise ValueError("nu(sigma) requires k_{n+1}(sigma) > 0")
    c = [k - Fraction(1, 2) for k in sigma.weight.coords]
    return Irrep(group_B(sigma.group.rank), HighestWeight(c))


def spin_reps(n):
    """(kappa of B_n, kappa+ of D_n, kappa- of D_n); dim kappa = 2^n."""
    half = [Fraction(1, 2)] * n
    kappa = Irrep(group_B(n), HighestWeight(half))
    kp = Irrep(group_D(n), HighestWeight(half))
    minus = half[:-1] + [Fraction(-1, 2)]
    km = Irrep(group_D(n), HighestWeight(minus))
    return kappa, kp, km


def m_coeffs(sigma):
    """Integer coefficients m_nu in {-1,0,1} with
    sum_nu m_nu iota* nu = sigma        (sigma = w0.sigma)
                         = sigma + w0.sigma   (otherwise),
    found by greedy elimination on the lexicographically largest weight.
    """
    K = group_B(sigma.group.rank)
    target = VirtualRep({sigma: 1})
    w0s = w0_act(sigma)
    if w0s != sigma:
        target = target + VirtualRep({w0s: 1})
    out = {}
    while target:
        top = max(target.terms, key=lambda r: r.weight.coords)
        coeff = target.terms[top]
        # the w0-symmetry of every branching image keeps the interim target
        # w0-symmetric, so the lex-max weight has k_last >= 0 and is B-dominant
        nu = Irrep(K, HighestWeight(top.weight.coords))
        out[nu] = out.get(nu, 0) + coeff
        br = branch_K_to_M(nu)
        target = target - VirtualRep({r: coeff * c for r, c in br.items()})
    vr = VirtualRep(out)
    if any(c not in (-1, 0, 1) for c in vr.terms.values()):
        raise GeoflowError(f"m-coefficients escaped {{-1,0,1}}: {vr}")
    return vr


# ---------------------------------------------------------------------------
# exterior powers of the standard 2n-dimensional M-representation

def _decompose_table(group, table):
    """Greedy highest-weight peel of a genuine weight table into irreps."""
    work = {mu: m for mu, m in table.items() if m}
    out = {}
    while work:
        top = max(work)
        if not is_dominant(group.family, top):
            raise GeoflowError(f"lex-max weight {top} not dominant")
        mult = work[top]
        if mult <= 0:
            raise GeoflowError("negative multiplicity during decomposition")
        rep = Irrep(group, HighestWeight(top))
        out[rep] = out.get(rep, 0) + mult
        for mu, m in _weight_table(group.family, group.rank, rep.weight.coords).items():
            new = work.get(mu, 0) - mult * m
            if new:
                work[mu] = new
            else:
                work.pop(mu, None)
        if top in work:
            raise GeoflowError("peel step failed to remove its top weight")
    return VirtualRep(out)


def lambda_p_nbar(n, p):
    """p-th exterior power of the standard 2n-dimensional representation of
    M = Spin(2n), as a nonnegative combination of irreps; the weights are the
    sums of p distinct elements of {+-e_2, ..., +-e_{n+1}}."""
    if not 0 <= p <= 2 * n:
        raise ValueError("need 0 <= p <= 2n")
    M = group_D(n)
    base = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        base.append(tuple(e))
        base.append(tuple(-c for c in e))
    table = {}
    for combo in itertools.combinations(base, p):
        mu = tuple(sum(col) for col in zip(*combo)) if combo else tuple([Fraction(0)] * n)
        table[mu] = table.get(mu, 0) + 1
    vr = _decompose_table(M, table)
    from math import comb
    if vr.dim() != comb(2 * n, p):
        raise GeoflowError("dimension mismatch in exterior power")
    return vr
