"""Analytic special functions of the principal-series parametrization.

Contents: principal-branch log-gamma and digamma on the complex plane,
the root-product ratio behind the P_j polynomials, the invariant-distribution
transform Omega with its partial-fraction decomposition, the Plancherel
polynomial, the intertwining scalar (c-function), and the partial-fraction
resolvent identity.

Gamma and digamma use upward recurrence into Re(w) >= 16 followed by the
Stirling/Bernoulli asymptotic series; absolute error stays below 1e-12 on
|z| <= 100 (tested against an independent high-precision oracle).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateDenominatorError,
    InputError,
    IntegralityError,
    PoleError,
)
from . import rootdata
from .rootdata import weyl_dim

__all__ = [
    "EULER_GAMMA",
    "ExtendedWeight",
    "EvenPolynomial",
    "log_gamma",
    "digamma",
    "pi_ratio",
    "p_j",
    "p_j_closed",
    "c_jl",
    "omega_direct",
    "omega_decomposed",
    "extract_Q",
    "plancherel_poly",
    "c_function",
    "c_function_logderiv",
    "resolvent_weights",
]

EULER_GAMMA = 0.5772156649015328606065120900824024

# Bernoulli numbers B_2, B_4, ..., B_28 (exact values, stored as floats)
_BERNOULLI = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730, 8553103 / 6, -23749461029 / 870,
]

_SHIFT = 16.0  # recurrence target for the asymptotic series
_LOG_TWO_PI = math.log(2.0 * math.pi)


def _is_nonpositive_int(z):
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real)


def log_gamma(z):
    """Principal branch of log Gamma; pole error at nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError("log_gamma pole", z)
    shift = 0.0 + 0.0j
    w = z
    while w.real < _SHIFT:
        shift += cmath.log(w)
        w += 1.0
    # Stirling series at w
    out = (w - 0.5) * cmath.log(w) - w + 0.5 * _LOG_TWO_PI
    w2 = w * w
    wp = w
    for k, b in enumerate(_BERNOULLI, start=1):
        out += b / (2 * k * (2 * k - 1) * wp)
        wp *= w2
    return out - shift


def digamma(z):
    """Digamma psi(z) on the complex plane; pole error at nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError("digamma pole", z)
    acc = 0.0 + 0.0j
    w = z
    while w.real < _SHIFT:
        acc -= 1.0 / w
        w += 1.0
    out = cmath.log(w) - 0.5 / w
    w2 = w * w
    wp = w2
    for k, b in enumerate(_BERNOULLI, start=1):
        out -= b / (2 * k * wp)
        wp *= w2
    return out + acc


@dataclass(frozen=True)
class ExtendedWeight:
    """Principal-series parameter: e1 slot holds i*lambda (complex), the
    b-slots hold the exact rationals k_j + rho_j."""

    e1_coord: complex
    b_coords: tuple

    def __init__(self, e1_coord, b_coords):
        object.__setattr__(self, "e1_coord", complex(e1_coord))
        object.__setattr__(self, "b_coords", tuple(Fraction(c) for c in b_coords))


class EvenPolynomial:
    """Polynomial in lambda^2: coeffs[m] multiplies lambda^(2m)."""

    def __init__(self, coeffs, degree_bound=None):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(float(c) for c in coeffs)
        self.degree_bound = degree_bound
        if degree_bound is not None and self.degree() > degree_bound:
            raise InputError(
                f"even polynomial degree {self.degree()} exceeds bound {degree_bound}"
            )

    def degree(self):
        return 2 * (len(self.coeffs) - 1) if self.coeffs else -1

    def __call__(self, lam):
        lam2 = complex(lam) ** 2
        out = 0j
        for c in reversed(self.coeffs):
            out = out * lam2 + c
        return out

    def integral_to(self, s):
        """Exact termwise integral_0^s p(r) dr."""
        s = complex(s)
        out = 0j
        for m, c in enumerate(self.coeffs):
            out += c * s ** (2 * m + 1) / (2 * m + 1)
        return out

    def integral_of_rotated_to(self, s):
        """Exact termwise integral_0^s p(i*r) dr."""
        s = complex(s)
        out = 0j
        for m, c in enumerate(self.coeffs):
            out += c * (-1) ** m * s ** (2 * m + 1) / (2 * m + 1)
        return out

    def __eq__(self, other):
        return isinstance(other, EvenPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"EvenPolynomial({self.coeffs})"


# ---------------------------------------------------------------------------
# root-product ratios

def _rho_slots(n):
    """rho_j = n+1-j for the slot range j = 2..n+1."""
    return [Fraction(n + 1 - j) for j in range(2, n + 2)]


def pi_ratio(xi):
    """Product of (xi_i^2 - xi_j^2) over slot pairs i<j, normalized by the
    same product at the slot half-sum (n-1, ..., 0).  Empty product (one
    slot) gives 1.  Works elementwise on exact rationals or complex floats.
    """
    xi = list(xi)
    n = len(xi)
    num = 1
    for i in range(n):
        for j in range(i + 1, n):
            num = num * (xi[i] * xi[i] - xi[j] * xi[j])
    rho = _rho_slots(n)
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            den = den * (rho[i] * rho[i] - rho[j] * rho[j])
    if isinstance(num, Fraction) or isinstance(num, int):
        return Fraction(num) / Fraction(den)
    return complex(num) / float(den)


def _sigma_slots(sigma):
    n = sigma.group.rank
    return [k + r for k, r in zip(sigma.weight.coords, _rho_slots(n))]


def p_j(sigma, j, lam):
    """P_j(sigma, lambda): the slot vector (k_p + rho_p) with slot j replaced
    by -i*lambda (the reflection through e_1 + e_j), run through pi_ratio.
    Even polynomial in lambda of degree 2n-2."""
    n = sigma.group.rank
    if not 2 <= j <= n + 1:
        raise InputError(f"slot index {j} outside 2..{n + 1}")
    slots = _sigma_slots(sigma)
    exact = isinstance(lam, Fraction) or isinstance(lam, int)
    if exact:
        raise InputError("p_j expects a numeric lambda; use c_jl for exact values")
    xi = [complex(s) for s in slots]
    xi[j - 2] = -1j * complex(lam)
    return pi_ratio(xi)


def _p_j_at_il_exact(sigma, j, l):
    """Exact rational P_j(sigma, i*l): slot j becomes -i*(i*l) = l."""
    slots = _sigma_slots(sigma)
    xi = list(slots)
    xi[j - 2] = Fraction(l)
    return pi_ratio(xi)


def p_j_closed(sigma, j, lam):
    """Closed form dim(sigma) * prod_{p != j} (-lam^2 - (k_p+rho_p)^2) /
    ((k_j+rho_j)^2 - (k_p+rho_p)^2).

    The shifted slot values (k_p+rho_p) appear both upstairs and in the
    denominator shifts; that is the only reading consistent with the anchor
    values P_{n+1}(sigma, i*k_{n+1}) = dim(sigma) and P_j(sigma, i*k_{n+1}) = 0
    for j < n+1, and it agrees with p_j exactly (sign +1) on every dominant
    weight.  Dominance makes the slot moduli strictly decreasing, so the
    denominators cannot vanish there; the degenerate-denominator error is a
    guard for non-generic slot collisions only."""
    n = sigma.group.rank
    if not 2 <= j <= n + 1:
        raise InputError(f"slot index {j} outside 2..{n + 1}")
    ks = sigma.weight.coords
    rhos = _rho_slots(n)
    cj = ks[j - 2] + rhos[j - 2]
    out = complex(weyl_dim(sigma))
    lam = complex(lam)
    for p in range(2, n + 2):
        if p == j:
            continue
        cp = ks[p - 2] + rhos[p - 2]
        den = cj * cj - cp * cp
        if den == 0:
            raise DegenerateDenominatorError(
                f"(k_{j}+rho_{j})^2 - (k_{p}+rho_{p})^2 = 0 for sigma={sigma.weight}"
            )
        out *= (-lam * lam - float(cp) ** 2) / float(den)
    return out


def c_jl(sigma):
    """Integer values c_{j,l} = P_j(sigma, i*l) for m0 <= l < |k_j|+rho_j,
    m0 = |k_{n+1}|; returned as a list of (j, l, value).  l steps by 1 from
    m0, so half-integral weights give half-integral l (provisional variant).
    Computed in exact arithmetic; integrality failures raise."""
    n = sigma.group.rank
    ks = sigma.weight.coords
    rhos = _rho_slots(n)
    m0 = abs(ks[-1])
    out = []
    for j in range(2, n + 2):
        bound = abs(ks[j - 2]) + rhos[j - 2]
        l = m0
        while l < bound:
            val = _p_j_at_il_exact(sigma, j, l)
            if val.denominator != 1:
                raise IntegralityError(
                    f"P_{j}(sigma, i*{l}) = {val} is not an integer for sigma={sigma.weight}"
                )
            out.append((j, l, int(val)))
            l += 1
    return out


# ---------------------------------------------------------------------------
# Omega and its decomposition

def _psi_pair_reduced(c, ilam, lam):
    """psi(1-c+x) + psi(1-c-x) with x = i*lambda, using the exact shift
    identity when c is a positive integer so the cancelling pole pair at
    lambda = 0 never materializes:
        psi(1-c+x)+psi(1-c-x) = psi(1+x)+psi(1-x) + sum_{m=1}^{c-1} 2m/(lam^2+m^2).
    """
    if c.denominator == 1 and c >= 1:
        out = digamma(1 + ilam) + digamma(1 - ilam)
        lam2 = lam * lam
        for m in range(1, int(c)):
            den = lam2 + m * m
            if den == 0:
                raise PoleError("omega partial-fraction pole", lam)
            out += 2.0 * m / den
        return out
    return digamma(1 - float(c) + ilam) + digamma(1 - float(c) - ilam)


def omega_direct(sigma, lam):
    """Omega(sigma, lambda) straight from its defining digamma sum

        -2 dim(sigma) gamma - 1/2 sum_j P_j(sigma,lambda) *
            [psi(1+c_j+il)+psi(1+c_j-il)+psi(1-c_j+il)+psi(1-c_j-il)],

    c_j = k_j + rho_j; the reflected root pair e_1 +- e_j shares the factor
    P_j since the slots enter squared."""
    lam = complex(lam)
    ilam = 1j * lam
    dim = weyl_dim(sigma)
    slots = _sigma_slots(sigma)
    total = -2.0 * dim * EULER_GAMMA
    for j, c in enumerate(slots, start=2):
        pj = p_j(sigma, j, lam)
        a = abs(c)  # the bracket is symmetric under c -> -c
        pair_plus = digamma(1 + float(a) + ilam) + digamma(1 + float(a) - ilam)
        pair_minus = _psi_pair_reduced(a, ilam, lam)
        total -= 0.5 * pj * (pair_plus + pair_minus)
    return total


def _omega_explicit_terms(sigma, lam):
    """Everything of the decomposed form except -Q(sigma, lambda)."""
    lam = complex(lam)
    ilam = 1j * lam
    lam2 = lam * lam
    n = sigma.group.rank
    dim = weyl_dim(sigma)
    ks = sigma.weight.coords
    rhos = _rho_slots(n)
    m0 = abs(ks[-1])
    half = ks[0].denominator == 2

    anchor = 0.5 if half else 1.0
    base = 2.0 * EULER_GAMMA + digamma(anchor + ilam) + digamma(anchor - ilam)
    l = m0 - 1
    while l >= anchor:
        den = lam2 + float(l) ** 2
        if den == 0:
            raise PoleError("omega partial-fraction pole", lam)
        base += 2.0 * float(l) / den
        l -= 1
    total = -dim * base

    for j, l, c in c_jl(sigma):
        den = lam2 + float(l) ** 2
        if den == 0:
            raise PoleError("omega partial-fraction pole", lam)
        total -= c * 2.0 * float(l) / den

    for j in range(2, n + 2):
        a = abs(ks[j - 2]) + rhos[j - 2]
        if a == 0:
            continue  # the j = n+1, k = 0 slot contributes nothing
        den = float(a) ** 2 + lam2
        if den == 0:
            raise PoleError("omega pole", lam)
        total -= dim * float(a) / den
    return total


def omega_decomposed(sigma, lam):
    """Omega via its partial-fraction decomposition: digamma anchor terms,
    the integer-coefficient 2l/(lambda^2+l^2) corrections, the
    (|k_j|+rho_j)-fractions, and the residual even polynomial Q."""
    return _omega_explicit_terms(sigma, lam) - extract_Q(sigma)(lam)


def _poly_from_roots(roots):
    """Coefficients of prod_r (x + r), lowest degree first, exact."""
    poly = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for m, a in enumerate(poly):
            nxt[m] += a * r
            nxt[m + 1] += a
        poly = nxt
    return poly


def extract_Q(sigma):
    """Residual even polynomial Q(sigma, .) of degree <= 2n-4, exact.

    In x = lambda^2, P_j(x) = dim(sigma) prod_{p != j} (x + c_p^2) /
    (c_p^2 - c_j^2), a Lagrange basis, so sum_j P_j = dim(sigma).  The
    digamma shift identities turn half the slot-j bracket of omega_direct
    into psi(A+il) + psi(A-il) + sum_{A <= l < a_j} 2l/(x+l^2) + a_j/(x+a_j^2),
    a_j = |c_j|, anchor A = 1 (integral sigma) or 1/2.  The explicit terms are
    the pole parts of P_j times those fractions; Q is the sum of their
    polynomial parts, by synthetic division in Fractions, rounded once."""
    n = sigma.group.rank
    dim = weyl_dim(sigma)
    cs = _sigma_slots(sigma)
    sq = [c * c for c in cs]
    anchor = Fraction(1, 2) if sigma.weight.half_integral else Fraction(1)
    q = [Fraction(0)] * (n - 1)
    for j, c in enumerate(cs):
        a = abs(c)
        others = sq[:j] + sq[j + 1:]
        p_j_coeffs = _poly_from_roots(others)
        scale = Fraction(dim, math.prod(s2 - sq[j] for s2 in others))
        ladder = (anchor + m for m in range(int(a - anchor)))  # A <= l < a_j
        for w, r in [(a, a * a), *((2 * l, l * l) for l in ladder)]:
            # quotient of P_j by (x + r), highest coefficient first
            carry = Fraction(0)
            for m in range(len(p_j_coeffs) - 1, 0, -1):
                carry = p_j_coeffs[m] - r * carry
                q[m - 1] += scale * w * carry
    return EvenPolynomial(q, degree_bound=max(2 * n - 4, 0))


# ---------------------------------------------------------------------------
# Plancherel polynomial

def plancherel_poly(sigma, c_norm=1.0):
    """Principal-series density polynomial: the product of <lambda_sigma, a>
    over positive roots of the ambient rank-(n+1) D system, normalized by the
    same product at the ambient half-sum, times the configurable c_norm.
    Even of degree 2n, invariant under the sign flip of k_{n+1}."""
    n = sigma.group.rank
    cs = _sigma_slots(sigma)  # c_j = k_j + rho_j, j = 2..n+1
    rho_g = [Fraction(n + 1 - j) for j in range(1, n + 2)]

    const = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            const *= cs[i] * cs[i] - cs[j] * cs[j]
    den = Fraction(1)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            den *= (rho_g[i] - rho_g[j]) * (rho_g[i] + rho_g[j])
    const *= (-1) ** n / den

    # prod_j (-x - c_j^2) = (-1)^n prod_j (x + c_j^2) in x = lambda^2
    poly = _poly_from_roots([c * c for c in cs])
    coeffs = [float(c_norm) * float(const * a) for a in poly]
    return EvenPolynomial(coeffs, degree_bound=2 * n)


# ---------------------------------------------------------------------------
# intertwining scalar

def _branching_multiplicity(nu, sigma):
    return rootdata.branch_K_to_M(nu).terms.get(sigma, 0)


def c_function(sigma, nu, lam, alpha_n=1.0):
    """Intertwining scalar on the K-type nu over sigma:

        alpha(n) * prod_j Gamma(il - c_j(sigma)) Gamma(il + c_j(sigma))
                 / prod_j Gamma(il - c_j(nu)) Gamma(il + c_j(nu) + 1),

    c_j = k_j + rho_j, evaluated through log-gamma differences.  A pole of a
    denominator factor yields an exact zero; a numerator pole raises."""
    if _branching_multiplicity(nu, sigma) == 0:
        raise InputError(f"nu={nu.weight} does not contain sigma={sigma.weight}")
    ilam = 1j * complex(lam)
    cs_s = _sigma_slots(sigma)
    cs_n = _sigma_slots(nu)
    log_num = 0j
    for c in cs_s:
        for arg in (ilam - float(c), ilam + float(c)):
            log_num += log_gamma(arg)  # PoleError propagates: genuine pole
    zero = False
    log_den = 0j
    for c in cs_n:
        for arg in (ilam - float(c), ilam + float(c) + 1.0):
            try:
                log_den += log_gamma(arg)
            except PoleError:
                zero = True
    if zero:
        return 0j
    return complex(alpha_n) * cmath.exp(log_num - log_den)


def c_function_logderiv(sigma, nu, lam):
    """d/dlambda log c_nu(sigma:lambda) as a digamma sum; independent of the
    alpha(n) normalization."""
    if _branching_multiplicity(nu, sigma) == 0:
        raise InputError(f"nu={nu.weight} does not contain sigma={sigma.weight}")
    ilam = 1j * complex(lam)
    out = 0j
    for c in _sigma_slots(sigma):
        out += digamma(ilam - float(c)) + digamma(ilam + float(c))
    for c in _sigma_slots(nu):
        out -= digamma(ilam - float(c)) + digamma(ilam + float(c) + 1.0)
    return 1j * out


# ---------------------------------------------------------------------------
# resolvent identity

def resolvent_weights(s_list, z):
    """Both sides of the partial-fraction identity

        sum_i 1/(s_i^2+z) prod_{i'!=i} 1/(s_{i'}^2 - s_i^2)
            = prod_i 1/(s_i^2 + z).

    Returns (lhs, rhs).  Coincident squares or z on a pole raise."""
    s2 = [complex(s) ** 2 for s in s_list]
    for i in range(len(s2)):
        for j in range(i + 1, len(s2)):
            if s2[i] == s2[j]:
                raise DegenerateDenominatorError(
                    f"coincident squares s_{i}^2 = s_{j}^2 = {s2[i]}"
                )
    z = complex(z)
    for v in s2:
        if v + z == 0:
            raise PoleError("resolvent pole", z)
    lhs = 0j
    for i, v in enumerate(s2):
        term = 1.0 / (v + z)
        for j, w in enumerate(s2):
            if j != i:
                term /= w - v
        lhs += term
    rhs = 1.0 + 0j
    for v in s2:
        rhs /= v + z
    return lhs, rhs
