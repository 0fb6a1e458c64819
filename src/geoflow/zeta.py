"""Zeta functions of the geodesic flow and their singularity ledger.

Evaluates the twisted Selberg zeta function, its symmetrized and
antisymmetric combinations, and the two dynamical (Ruelle) variants in
their convergence half-planes, always with a certified truncation bound.
A dual evaluation route through the symmetric-power Euler product
cross-checks the log-series.  The module also evaluates the explicit
entire normalizer of the symmetrized function, and turns a spectral model
(Laplace and Dirac eigenvalue data, scattering poles, cusp count) into the
predicted zero/pole ledger of the symmetrized function.

All class sums run over a deterministically ordered stream and reduce with
a fixed-shape compensated tree, so values are bit-identical across runs
and worker counts.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rootdata, specfun
from .errors import (
    ConvergenceRegionError,
    GeoflowError,
    InputError,
    ModelInvariantError,
)
from .rootdata import Irrep, VirtualRep, weyl_dim, w0_act
from .spectrum import class_iterator, det_factor, holonomy_eigenvalues
from .summation import tree_sum

__all__ = [
    "ZetaValue",
    "SpectralModel",
    "Singularity",
    "log_selberg",
    "selberg_Z",
    "selberg_Z_product",
    "symmetrized_S",
    "antisymmetric_Sa",
    "log_ruelle_sigma",
    "log_ruelle_tau",
    "ruelle_selberg_factorization",
    "xi_normalizer",
    "epsilon_sigma",
    "singularity_ledger",
    "ledger_merge",
    "model_from_json",
    "model_to_json",
]


@dataclass(frozen=True)
class ZetaValue:
    """A truncated evaluation: value, certified bound on the omitted tail
    (absolute, on the same scale as the value), and the class-length cutoff
    actually used."""

    value: complex
    tail_bound: float
    cutoff_used: float

    def __post_init__(self):
        if not math.isfinite(self.tail_bound) or self.tail_bound < 0:
            raise InputError(f"bad tail bound {self.tail_bound}")


def _dim_bound(rep):
    if isinstance(rep, VirtualRep):
        return sum(abs(c) * weyl_dim(r) for r, c in rep.terms.items())
    return weyl_dim(rep)


def _require_halfplane(s, abscissa, what, closed=True):
    """Reject evaluation left of the convergence abscissa.  With closed=True
    the boundary itself is allowed; it certifies only when the spectrum is
    declared complete (no unknown-prime bound needed there)."""
    re = complex(s).real
    if re < abscissa or (not closed and re == abscissa):
        rel = ">=" if closed else ">"
        raise ConvergenceRegionError(
            f"{what} certified only for Re(s) {rel} {abscissa}, got {re}"
        )


def _log_series(spectrum, s, decay_rate, term_value, char_bound, tail_target,
                cutoff=None):
    """Shared truncated class-sum engine.

    decay_rate is the real exponential rate of the per-class absolute
    bound; term_value maps a ClassTerm to its full (character-weighted,
    multiplicity-weighted) contribution."""
    stream = class_iterator(
        spectrum, decay_rate, tail_target / char_bound, cutoff=cutoff
    )
    total = tree_sum([term_value(t) for t in stream])
    return ZetaValue(
        value=complex(total),
        tail_bound=stream.tail_bound * char_bound,
        cutoff_used=stream.cutoff,
    )


def _class_character(rep):
    """Character of an M-representation on the power-k class of a prime."""

    def value(term):
        angles = tuple(term.power * a for a in term.prime.angles)
        return rootdata.character(rep, angles)

    return value


def log_selberg(s, sigma, spectrum, tail_target=1e-10, cutoff=None):
    """log Z(s, sigma) as the truncated class sum

        -sum over classes of tr sigma(m) e^{-(s+n) k l0} / (k det(Id - A)),

    certified for Re(s) > 2n.  sigma may be an irreducible or a virtual
    (integer-combination) representation; the tail scales with its total
    dimension."""
    n = spectrum.n
    s = complex(s)
    _require_halfplane(s, 2 * n, "log_selberg")
    chi = _class_character(sigma)

    def term_value(t):
        ell = t.length
        return (
            -chi(t)
            * t.prime.multiplicity
            * cmath.exp(-(s + n) * ell)
            / (t.power * det_factor(t))
        )

    return _log_series(
        spectrum, s, s.real + n, term_value, _dim_bound(sigma), tail_target, cutoff
    )


def _exp_value(logv):
    value = cmath.exp(logv.value)
    return ZetaValue(
        value=value,
        tail_bound=abs(value) * math.expm1(logv.tail_bound),
        cutoff_used=logv.cutoff_used,
    )


def selberg_Z(s, sigma, spectrum, tail_target=1e-10, cutoff=None):
    """Z(s, sigma) = exp(log_selberg), with the bound propagated through
    the exponential."""
    return _exp_value(log_selberg(s, sigma, spectrum, tail_target, cutoff))


def _sym_power_products(evs, k_max):
    """S^k eigenvalue products for k = 0..k_max, one array per degree, built
    by extending one eigenvalue at a time.  Array k holds the products over
    all size-k multisets; sizes grow as C(k + len(evs) - 1, len(evs) - 1)."""
    state = [np.ones(1, dtype=complex)]
    state += [np.empty(0, dtype=complex) for _ in range(k_max)]
    for ev in evs:
        nxt = []
        for k in range(k_max + 1):
            parts = []
            scale = 1.0 + 0j
            for j in range(k + 1):
                if j:
                    scale *= ev
                if state[k - j].size:
                    parts.append(state[k - j] * scale)
            nxt.append(
                np.concatenate(parts) if parts else np.empty(0, dtype=complex)
            )
        state = nxt
    return state


def selberg_Z_product(s, sigma, spectrum, k_max=30, cutoff=None):
    """Direct Euler product over primes and symmetric powers:

        prod_primes prod_{k=0}^{k_max} prod_{a in eig sigma(m)}
            prod_{b in eig S^k(A)} (1 - a b e^{-(s+n) l0}),

    where A is the class action on the negative nilpotent space and S^k
    eigenvalues are k-fold products of its eigenvalues.  Cross-check route
    for the log-series; no certified bound is attached.  The factor count
    per prime grows as C(k_max + 2n, 2n), so keep k_max modest at rank 3+.
    cutoff=None takes every listed prime; a given one must be finite, >= 0."""
    n = spectrum.n
    s = complex(s)
    _require_halfplane(s, 2 * n, "selberg_Z_product")
    if k_max < 0:
        raise InputError(f"k_max must be >= 0, got {k_max}")
    if cutoff is None:
        cutoff = math.inf
    elif not (math.isfinite(cutoff) and cutoff >= 0):
        raise InputError(f"cutoff must be finite and >= 0, got {cutoff}")
    table = rootdata.weight_multiplicities(sigma)
    log_out = 0j
    listed = np.flatnonzero(spectrum.lengths <= cutoff).tolist()
    for g in spectrum._primes(listed):
        sigma_evs = []
        for mu, mult in table.items():
            phase = sum(float(c) * th for c, th in zip(mu, g.angles))
            sigma_evs.append((cmath.exp(1j * phase), mult))
        ad_evs = holonomy_eigenvalues(_unit_term(g))
        w = cmath.exp(-(s + n) * g.length)
        log_factor = 0j
        for arr in _sym_power_products(ad_evs, k_max):
            if not arr.size:
                continue
            for a, mult in sigma_evs:
                log_factor += mult * complex(np.sum(np.log(1.0 - (a * w) * arr)))
        log_out += g.multiplicity * log_factor
    return cmath.exp(log_out)


def _unit_term(g):
    from .spectrum import ClassTerm

    return ClassTerm(g, 1)


def epsilon_sigma(sigma):
    """1 when sigma is its own flip under the long Weyl reflection, else 2."""
    return 1 if w0_act(sigma) == sigma else 2


def symmetrized_S(s, sigma, spectrum, tail_target=1e-10, cutoff=None):
    """S(s, sigma) = Z(s, sigma) Z(s, w0 sigma) for a non-symmetric sigma,
    just Z(s, sigma) otherwise; evaluated through one combined log-series."""
    flipped = w0_act(sigma)
    if flipped == sigma:
        return selberg_Z(s, sigma, spectrum, tail_target, cutoff)
    combined = VirtualRep({sigma: 1, flipped: 1})
    return _exp_value(log_selberg(s, combined, spectrum, tail_target, cutoff))


def antisymmetric_Sa(s, sigma, spectrum, tail_target=1e-10, cutoff=None):
    """S_a(s, sigma) = Z(s, sigma) / Z(s, w0 sigma); identically 1 when
    sigma is symmetric."""
    flipped = w0_act(sigma)
    if flipped == sigma:
        return ZetaValue(value=1.0 + 0j, tail_bound=0.0, cutoff_used=0.0)
    combined = VirtualRep({sigma: 1, flipped: -1})
    return _exp_value(log_selberg(s, combined, spectrum, tail_target, cutoff))


def log_ruelle_sigma(s, sigma, spectrum, tail_target=1e-10, cutoff=None):
    """log R(s, sigma) = -sum over classes of tr sigma(m) e^{-s k l0} / k,
    certified for Re(s) > 2n."""
    n = spectrum.n
    s = complex(s)
    _require_halfplane(s, 2 * n, "log_ruelle_sigma")
    chi = _class_character(sigma)

    def term_value(t):
        return (
            -chi(t) * t.prime.multiplicity * cmath.exp(-s * t.length) / t.power
        )

    return _log_series(
        spectrum, s, s.real, term_value, _dim_bound(sigma), tail_target, cutoff
    )


def _coerce_tau_weights(tau_weights):
    out = {}
    for mu, mult in dict(tau_weights).items():
        coords = tuple(Fraction(c) for c in mu)
        out[coords] = out.get(coords, 0) + int(mult)
    return out


def log_ruelle_tau(s, tau_weights, spectrum, tail_target=1e-10, cutoff=None):
    """log R(s, tau) for an ambient-group weight system tau_weights
    (weight tuple -> multiplicity on the rank n+1 torus).  The trace of the
    power-k class is

        sum over weights of mult * e^{k l0 mu_1} e^{i k <mu_rest, theta>},

    so the convergence abscissa shifts to 2n + max mu_1."""
    n = spectrum.n
    s = complex(s)
    weights = _coerce_tau_weights(tau_weights)
    if not weights:
        raise InputError("empty weight system")
    for mu in weights:
        if len(mu) != n + 1:
            raise InputError(
                f"weight {mu} has {len(mu)} coordinates, expected {n + 1}"
            )
    mu1_max = max(float(mu[0]) for mu in weights)
    _require_halfplane(s, 2 * n + mu1_max, "log_ruelle_tau", closed=False)
    char_bound = sum(abs(m) for m in weights.values())

    def trace(t):
        ell = t.length
        angles = tuple(t.power * a for a in t.prime.angles)
        out = 0j
        for mu, mult in weights.items():
            phase = sum(float(c) * th for c, th in zip(mu[1:], angles))
            out += mult * math.exp(ell * float(mu[0])) * cmath.exp(1j * phase)
        return out

    def term_value(t):
        return -trace(t) * t.prime.multiplicity * cmath.exp(-s * t.length) / t.power

    return _log_series(
        spectrum, s, s.real - mu1_max, term_value, char_bound, tail_target, cutoff
    )


def ruelle_selberg_factorization(s, sigma, spectrum, tail_target=1e-10):
    """Dual-route check of R(s, sigma) against the alternating product of
    shifted Selberg functions twisted by the exterior powers of the class
    action:

        log R(s, sigma) ?= sum_{p=0}^{2n} (-1)^p log Z(s+p-n, sigma (x) Lambda^p).

    The per-class identity behind it is the determinant expansion
    det(Id - A) = sum_p (-1)^p tr Lambda^p A, so both sides agree up to the
    truncation bounds.  Returns (lhs, rhs, discrepancy); needs Re(s) > 3n
    so the worst shifted factor stays in its half-plane."""
    n = spectrum.n
    s = complex(s)
    _require_halfplane(s, 3 * n, "ruelle_selberg_factorization")
    lhs = log_ruelle_sigma(s, sigma, spectrum, tail_target)
    chi_sigma = _class_character(sigma)
    share = tail_target / (2 * n + 1)
    rhs_total = 0j
    rhs_bound = 0.0
    rhs_cut = 0.0
    for p in range(2 * n + 1):
        lam_p = rootdata.lambda_p_nbar(n, p)
        chi_p = _class_character(lam_p)
        sp = s + p - n
        bound = _dim_bound(sigma) * _dim_bound(lam_p)

        def term_value(t, chi_p=chi_p, sp=sp):
            ell = t.length
            return (
                -chi_sigma(t)
                * chi_p(t)
                * t.prime.multiplicity
                * cmath.exp(-(sp + n) * ell)
                / (t.power * det_factor(t))
            )

        part = _log_series(spectrum, sp, sp.real + n, term_value, bound, share)
        sign = -1 if p % 2 else 1
        rhs_total += sign * part.value
        rhs_bound += part.tail_bound
        rhs_cut = max(rhs_cut, part.cutoff_used)
    rhs = ZetaValue(value=rhs_total, tail_bound=rhs_bound, cutoff_used=rhs_cut)
    return lhs, rhs, abs(lhs.value - rhs.value)


# ---------------------------------------------------------------------------
# the explicit normalizer

def xi_normalizer(s, sigma, vol, p, C_Gamma, c_norm=1.0):
    """The entire normalizing factor of the symmetrized function:

        exp(2 pi vol eps int_0^s P_sigma
            - eps (p/2) int_0^s Q(sigma, i r) dr + s c_G)
        * Gamma(1+s)^(-p eps dim sigma),

    with eps = epsilon_sigma(sigma) and
    c_G = eps (dim sigma C_Gamma - dim sigma gamma_Euler p).  Q is the exact
    rational remainder of specfun.extract_Q, rounded once to float, and the
    polynomial integrals are evaluated termwise exactly.  A nonpositive-integer
    1+s raises the underlying log-gamma pole error; a value too large for a
    float raises GeoflowError."""
    s = complex(s)
    eps = epsilon_sigma(sigma)
    dim = weyl_dim(sigma)
    plancherel = specfun.plancherel_poly(sigma, c_norm)
    q = specfun.extract_Q(sigma)
    c_g = eps * (dim * C_Gamma - dim * specfun.EULER_GAMMA * p)
    exponent = (
        2.0 * math.pi * vol * eps * plancherel.integral_to(s)
        - eps * (p / 2.0) * q.integral_of_rotated_to(s)
        + s * c_g
    )
    exponent -= p * eps * dim * specfun.log_gamma(1.0 + s)
    try:
        return cmath.exp(exponent)
    except OverflowError:
        raise GeoflowError(
            f"xi_normalizer overflows at s={s}: Re log xi = {exponent.real:.6g}"
        ) from None


# ---------------------------------------------------------------------------
# spectral model and the singularity ledger

@dataclass
class SpectralModel:
    """Spectral inputs for the zero/pole ledger of the symmetrized function.

    laplace_eigs: (eigenvalue, graded multiplicity) pairs, eigenvalue != 0
    (the zero eigenvalue goes in m_s_zero); dirac_eigs: (mu, multiplicity)
    with real mu != 0, allowed only for non-symmetric sigma; c1 only for
    symmetric sigma, between 0 and p * dim sigma; beta_poles on (0, n];
    eta poles with negative real part."""

    sigma: Irrep
    p: int
    vol: float
    C_Gamma: float = 0.0
    laplace_eigs: list = field(default_factory=list)
    dirac_eigs: list = field(default_factory=list)
    m_s_zero: int = 0
    c1: int | None = None
    beta_poles: list = field(default_factory=list)
    eta_poles_sigma: list = field(default_factory=list)
    eta_poles_w0sigma: list = field(default_factory=list)

    def __post_init__(self):
        self.p = int(self.p)
        self.vol = float(self.vol)
        if self.p < 1:
            raise InputError(f"cusp count p must be >= 1, got {self.p}")
        if self.vol <= 0:
            raise InputError(f"volume must be positive, got {self.vol}")
        n = self.sigma.group.rank
        sym = epsilon_sigma(self.sigma) == 1
        dim = weyl_dim(self.sigma)
        for lam, m in self.laplace_eigs:
            if complex(lam) == 0:
                raise ModelInvariantError(
                    "zero eigenvalue belongs in m_s_zero, not laplace_eigs"
                )
            int(m)
        if sym:
            if self.dirac_eigs:
                raise ModelInvariantError(
                    "dirac_eigs only apply when sigma differs from its flip"
                )
            if self.c1 is None:
                self.c1 = 0
            if not 0 <= self.c1 <= self.p * dim:
                raise ModelInvariantError(
                    f"c1={self.c1} outside [0, p dim sigma] = [0, {self.p * dim}]"
                )
        else:
            if self.c1 is not None:
                raise ModelInvariantError(
                    "c1 only applies when sigma equals its flip"
                )
            for mu, d in self.dirac_eigs:
                if mu == 0 or complex(mu).imag != 0:
                    raise ModelInvariantError(
                        f"dirac eigenvalue must be real nonzero, got {mu}"
                    )
                if int(d) < 1:
                    raise ModelInvariantError("dirac multiplicity must be >= 1")
        for b, m in self.beta_poles:
            if not 0 < float(b) <= n:
                raise ModelInvariantError(f"beta={b} outside (0, n]")
            if int(m) < 1:
                raise ModelInvariantError("beta multiplicity must be >= 1")
        for etas in (self.eta_poles_sigma, self.eta_poles_w0sigma):
            for eta, m in etas:
                if complex(eta).real >= 0:
                    raise ModelInvariantError(
                        f"eta={eta} must have negative real part"
                    )
                if int(m) < 1:
                    raise ModelInvariantError("eta multiplicity must be >= 1")


@dataclass(frozen=True)
class Singularity:
    """Zero (order > 0) or pole (order < 0) of the symmetrized function."""

    location: complex
    order: int

    def __post_init__(self):
        object.__setattr__(self, "location", complex(self.location))
        object.__setattr__(self, "order", int(self.order))


def _canonical_sqrt(lam):
    """Square root with nonnegative imaginary part on the negative axis and
    the principal branch elsewhere; binds spectral and ledger locations."""
    lam = complex(lam)
    if lam.imag == 0:
        lam = complex(lam.real, 0.0)  # normalize -0.0
        if lam.real >= 0:
            return complex(math.sqrt(lam.real), 0.0)
        return complex(0.0, math.sqrt(-lam.real))
    return cmath.sqrt(lam)


def ledger_merge(singularities):
    """Merge coincident locations by adding orders, drop the zeros, sort by
    real then imaginary part.  Locations are matched by exact equality."""
    acc = {}
    for s in singularities:
        key = (s.location.real + 0.0, s.location.imag + 0.0)
        acc[key] = acc.get(key, 0) + s.order
    out = [
        Singularity(complex(re, im), order)
        for (re, im), order in acc.items()
        if order != 0
    ]
    out.sort(key=lambda s: (s.location.real, s.location.imag))
    return out


def _spectral_singularities(model):
    sym = epsilon_sigma(model.sigma) == 1
    out = []
    if sym:
        for lam, m in model.laplace_eigs:
            root = _canonical_sqrt(lam)
            m = int(m)
            out.append(Singularity(1j * root, m))
            out.append(Singularity(-1j * root, m))
        out.append(Singularity(0.0, 2 * model.m_s_zero - model.c1))
        return out
    # non-symmetric: pair the graded Laplace multiplicity at mu^2 with the
    # Dirac asymmetry d(mu) - d(-mu)
    d_of = {}
    for mu, d in model.dirac_eigs:
        d_of[float(mu)] = d_of.get(float(mu), 0) + int(d)
    m_of = {}
    for lam, m in model.laplace_eigs:
        key = _canonical_sqrt(lam)
        m_of[key] = m_of.get(key, 0) + int(m)
    keys = set(m_of)
    keys.update(_canonical_sqrt(mu * mu) for mu in d_of)
    for mu0 in sorted(keys, key=lambda z: (z.real, z.imag)):
        m = m_of.get(mu0, 0)
        if mu0.imag == 0:
            dp = d_of.get(mu0.real, 0)
            dm = d_of.get(-mu0.real, 0)
        else:
            dp = dm = 0
        if (m + dp - dm) % 2:
            raise ModelInvariantError(
                f"odd combined multiplicity {m}+{dp}-{dm} at mu={mu0}"
            )
        out.append(Singularity(1j * mu0, (m + dp - dm) // 2))
        out.append(Singularity(-1j * mu0, (m + dm - dp) // 2))
    out.append(Singularity(0.0, model.m_s_zero))
    return out


def _topological_singularities(model, max_depth):
    sigma = model.sigma
    dim = weyl_dim(sigma)
    ks = sigma.weight.coords
    m0 = abs(ks[-1])
    out = []
    # corrections from the integer residues of the reflected root-products
    for j, l, c in specfun.c_jl(sigma):
        if l > 0 and c != 0:
            out.append(Singularity(complex(-float(l), 0.0), model.p * c))
    # the regularly spaced poles, capped at max_depth locations
    start = max(m0, Fraction(1, 2) if ks[0].denominator == 2 else Fraction(1))
    l = start
    for _ in range(max_depth):
        out.append(Singularity(complex(-float(l), 0.0), -model.p * dim))
        l += 1
    return out


def singularity_ledger(model, max_depth=10):
    """Predicted zeros and poles of the symmetrized function.

    Emits spectral locations (+-i sqrt(eigenvalue) pairs, the point 0), the
    scattering-resolvent poles at -beta with order -m(beta), the eta-pole
    zeros (+m at eta, taken from the sigma list when sigma is symmetric,
    else from the parity-matching list), and the cusp-topological family at
    negative (half-)integers: order -p dim sigma at each, corrected by
    +p c_{j,l}.  The infinite family is capped at max_depth locations.
    Coincident locations merge by adding orders; zero orders drop."""
    n = model.sigma.group.rank
    sym = epsilon_sigma(model.sigma) == 1
    out = _spectral_singularities(model)
    for b, m in model.beta_poles:
        out.append(Singularity(complex(-float(b), 0.0), -int(m)))
    if sym or n % 2 == 0:
        etas = model.eta_poles_sigma
    else:
        etas = model.eta_poles_w0sigma
    for eta, m in etas:
        out.append(Singularity(complex(eta), int(m)))
    out.extend(_topological_singularities(model, max_depth))
    return ledger_merge(out)


# ---------------------------------------------------------------------------
# model (de)serialization

def _pairs_from_json(items, value_key):
    out = []
    for rec in items:
        loc = complex(rec.get("re", 0.0), rec.get("im", 0.0))
        if loc.imag == 0:
            loc = loc.real
        out.append((loc, rec[value_key]))
    return out


def model_from_json(text):
    """Load a spectral model from its JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed model JSON: {e}") from None
    try:
        n = int(doc["n"])
        sigma = Irrep(rootdata.group_D(n), tuple(doc["sigma"]))
        return SpectralModel(
            sigma=sigma,
            p=doc["p"],
            vol=doc["vol"],
            C_Gamma=doc.get("C_Gamma", 0.0),
            laplace_eigs=_pairs_from_json(doc.get("laplace_eigs", ()), "mult"),
            dirac_eigs=[
                (rec["mu"], rec["mult"]) for rec in doc.get("dirac_eigs", ())
            ],
            m_s_zero=doc.get("m_s_zero", 0),
            c1=doc.get("c1"),
            beta_poles=_pairs_from_json(doc.get("beta_poles", ()), "mult"),
            eta_poles_sigma=_pairs_from_json(
                doc.get("eta_poles_sigma", ()), "mult"
            ),
            eta_poles_w0sigma=_pairs_from_json(
                doc.get("eta_poles_w0sigma", ()), "mult"
            ),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad model document: {e}") from None


def _pairs_to_json(pairs):
    out = []
    for loc, mult in pairs:
        loc = complex(loc)
        rec = {"re": loc.real, "im": loc.imag, "mult": mult}
        out.append(rec)
    return out


def _coord_to_json(c):
    return int(c) if c.denominator == 1 else str(c)


def model_to_json(model):
    """Serialize a spectral model to its JSON document."""
    doc = {
        "n": model.sigma.group.rank,
        "sigma": [_coord_to_json(c) for c in model.sigma.weight.coords],
        "p": model.p,
        "vol": model.vol,
        "C_Gamma": model.C_Gamma,
        "laplace_eigs": _pairs_to_json(model.laplace_eigs),
        "dirac_eigs": [
            {"mu": float(mu), "mult": int(d)} for mu, d in model.dirac_eigs
        ],
        "m_s_zero": model.m_s_zero,
        "beta_poles": _pairs_to_json(model.beta_poles),
        "eta_poles_sigma": _pairs_to_json(model.eta_poles_sigma),
        "eta_poles_w0sigma": _pairs_to_json(model.eta_poles_w0sigma),
    }
    if model.c1 is not None:
        doc["c1"] = model.c1
    return json.dumps(doc, indent=2)
