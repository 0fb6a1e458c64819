import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoflow.rootdata as rd
import geoflow.specfun as sf
from geoflow.errors import (
    DegenerateDenominatorError,
    InputError,
    PoleError,
    ResidualError,
)

H = F(1, 2)


def D(n, coords):
    return rd.Irrep(rd.group_D(n), coords)


def B(n, coords):
    return rd.Irrep(rd.group_B(n), coords)


# ---------------------------------------------------------------------------
# gamma-family oracles (reference values computed once with mpmath at 40
# digits and frozen here)

LOGGAMMA_ORACLE = {
    (0.5, 0.0): (0.57236494292470009, 0.0),
    (1.0, 0.0): (0.0, 0.0),
    (3.25, 0.0): (0.93580193110872536, 0.0),
    (16.5, 0.0): (29.277754515040815, 0.0),
    (0.25, 1.5): (-1.5348225075120492, -1.277469867236725),
    (2.0, -3.0): (-2.0928517530927333, -2.3023965434668676),
    (-2.5, 0.5): (-0.93508562129827748, -8.8709628852474592),
    (-7.3, -2.1): (-13.616221658326499, 20.16459046666588),
    (0.001, 0.0): (6.9071788853838537, 0.0),
    (30.0, 40.0): (49.232808494070299, 143.83479582266482),
    (-0.5, 80.0): (-129.12681377592948, 268.98560536657468),
}

DIGAMMA_ORACLE = {
    (0.5, 0.0): (-1.9635100260214235, 0.0),
    (1.0, 0.0): (-0.57721566490153286, 0.0),
    (3.25, 0.0): (1.016990911068179, 0.0),
    (16.5, 0.0): (2.7727513716226235, 0.0),
    (0.25, 1.5): (0.40048582610900268, 1.7430641613659601),
    (2.0, -3.0): (1.2079807107101509, -1.1041296805875762),
    (-2.5, 0.5): (1.1165080219699073, 2.7175825969005915),
    (-7.3, -2.1): (2.0896755439496183, -2.8789134419687826),
    (0.001, 0.0): (-1000.5755719318103, 0.0),
    (30.0, 40.0): (3.9060323376370217, 0.93532721871824478),
    (-0.5, 80.0): (4.3820982460275425, 1.5832958385327194),
}


@pytest.mark.parametrize("z,ref", sorted(LOGGAMMA_ORACLE.items()))
def test_log_gamma_against_frozen_oracle(z, ref):
    got = sf.log_gamma(complex(*z))
    scale = max(1.0, abs(complex(*ref)))
    assert abs(got - complex(*ref)) <= 1e-13 * scale


@pytest.mark.parametrize("z,ref", sorted(DIGAMMA_ORACLE.items()))
def test_digamma_against_frozen_oracle(z, ref):
    got = sf.digamma(complex(*z))
    scale = max(1.0, abs(complex(*ref)))
    assert abs(got - complex(*ref)) <= 1e-13 * scale


def test_classic_special_values():
    assert abs(sf.digamma(1.0) + sf.EULER_GAMMA) < 1e-14
    assert abs(sf.digamma(0.5) + sf.EULER_GAMMA + 2 * math.log(2)) < 1e-14
    assert abs(sf.log_gamma(5.0) - math.log(24)) < 1e-14
    assert abs(sf.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, 0j, complex(-3, 0)])
def test_gamma_family_pole_errors(z):
    with pytest.raises(PoleError):
        sf.log_gamma(z)
    with pytest.raises(PoleError):
        sf.digamma(z)


def test_digamma_recurrence():
    # psi(z+1) = psi(z) + 1/z on a generic complex point
    z = complex(0.37, -2.2)
    assert abs(sf.digamma(z + 1) - sf.digamma(z) - 1 / z) < 1e-13


def test_log_gamma_recurrence():
    z = complex(0.8, 1.1)
    assert abs(sf.log_gamma(z + 1) - sf.log_gamma(z) - cmath.log(z)) < 1e-13


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.05, max_value=50), st.floats(min_value=-50, max_value=50))
def test_digamma_reflection(x, y):
    # psi(1-z) - psi(z) = pi cot(pi z), away from the real axis poles
    z = complex(x, y)
    if abs(y) < 0.05 and abs(x - round(x)) < 0.05:
        return
    lhs = sf.digamma(1 - z) - sf.digamma(z)
    rhs = math.pi / cmath.tan(math.pi * z)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# root-product ratios

def test_pi_ratio_exact_on_rationals():
    out = sf.pi_ratio([F(3), F(1)])
    assert isinstance(out, F)
    assert out == F(8)  # (9-1)/(1-0) with rho slots (1,0)


def test_pi_ratio_single_slot_is_one():
    assert sf.pi_ratio([F(5)]) == F(1)


def test_pi_ratio_complex_route_matches_exact():
    exact = sf.pi_ratio([F(3), F(1), F(0)])
    approx = sf.pi_ratio([3 + 0j, 1 + 0j, 0j])
    assert approx == pytest.approx(complex(exact), rel=1e-14)


# ---------------------------------------------------------------------------
# the even polynomials P_j

def test_p2_frozen_for_vector_weight():
    s = D(2, (1, 0))
    for lam in (0.3, 1.7, 2 + 1j):
        assert sf.p_j(s, 2, lam) == pytest.approx(-complex(lam) ** 2, abs=1e-12)
        assert sf.p_j(s, 3, lam) == pytest.approx(complex(lam) ** 2 + 4, abs=1e-12)


def test_p2_frozen_for_deeper_weight():
    s = D(2, (2, 1))
    for lam in (0.4, 1.1):
        assert sf.p_j(s, 2, lam) == pytest.approx(-lam * lam - 1, abs=1e-12)


def test_p_j_rejects_exact_lambda():
    with pytest.raises(InputError, match="c_jl"):
        sf.p_j(D(2, (1, 0)), 2, F(1))


def test_p_j_rejects_bad_slot():
    with pytest.raises(InputError):
        sf.p_j(D(2, (1, 0)), 4, 0.5)


def test_p_j_closed_matches_exactly():
    rng = random.Random(314)
    for coords in [(1, 0), (2, 1), (F(3, 2), H)]:
        s = D(2, coords)
        for j in (2, 3):
            for _ in range(10):
                lam = complex(rng.uniform(0.2, 3), rng.uniform(-1, 1))
                a = sf.p_j(s, j, lam)
                b = sf.p_j_closed(s, j, lam)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_p_j_closed_anchor_values():
    # the slot-product definition forces P_{n+1}(sigma, i*k_{n+1}) to be the
    # dimension and kills the other slots there; the closed form must agree
    for coords in [(2, 1), (3, 2), (F(5, 2), F(3, 2))]:
        s = D(2, coords)
        k_last = float(coords[-1])
        assert sf.p_j_closed(s, 3, 1j * k_last) == pytest.approx(
            complex(rd.weyl_dim(s)), abs=1e-9)
        assert sf.p_j_closed(s, 2, 1j * k_last) == pytest.approx(0, abs=1e-9)


def test_p_j_is_even_in_lambda():
    s = D(3, (2, 1, 0))
    for j in (2, 3, 4):
        assert sf.p_j(s, j, 1.3) == pytest.approx(sf.p_j(s, j, -1.3), abs=1e-12)


# ---------------------------------------------------------------------------
# integer corrections c_{j,l}

def test_c_jl_frozen_tables():
    assert sf.c_jl(D(2, (1, 0))) == [(2, F(0), 0), (2, F(1), 1)]
    assert sf.c_jl(D(2, (2, 1))) == [(2, F(1), 0), (2, F(2), 3)]


def test_c_jl_trivial_weight_is_empty_or_zero():
    rows = sf.c_jl(D(2, (0, 0)))
    assert all(c == 0 for _, _, c in rows)


def test_c_jl_half_integral_levels():
    rows = sf.c_jl(D(2, (F(3, 2), H)))
    assert [(j, l) for j, l, _ in rows] == [(2, H), (2, F(3, 2))]
    assert all(isinstance(c, int) for _, _, c in rows)


def test_c_jl_values_match_p_j_limit():
    # c_{j,l} is the exact value of P_j at lambda = i*l
    s = D(2, (2, 1))
    for j, l, c in sf.c_jl(s):
        approx = sf.p_j(s, j, complex(0, float(l)) + 1e-9)
        assert approx == pytest.approx(c, abs=1e-6)


# ---------------------------------------------------------------------------
# Omega and its decomposition

GENERIC_WEIGHTS = {
    1: [(0,), (1,), (-2,), (H,)],
    2: [(1, 0), (2, 1), (1, -1), (F(3, 2), H), (H, -H)],
    3: [(1, 0, 0), (2, 1, 0), (1, 1, -1), (F(3, 2), H, H)],
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_decomposition_matches_direct(n):
    rng = random.Random(1000 + n)
    for coords in GENERIC_WEIGHTS[n]:
        s = D(n, coords)
        for _ in range(8):
            lam = rng.uniform(0.1, 4.0)
            a = sf.omega_direct(s, lam)
            b = sf.omega_decomposed(s, lam)
            assert abs(a - b) < 1e-8, (coords, lam)


def test_omega_frozen_anchor():
    s = D(1, (1,))
    assert sf.omega_direct(s, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert sf.omega_decomposed(s, 0.0) == pytest.approx(-1.0, abs=1e-12)


def test_omega_invariant_under_last_sign_flip():
    for n, coords in [(2, (2, 1)), (3, (2, 1, 1)), (2, (F(3, 2), H))]:
        s = D(n, coords)
        flip = rd.w0_act(s)
        for lam in (0.3, 1.9):
            assert sf.omega_direct(s, lam) == pytest.approx(
                sf.omega_direct(flip, lam), abs=1e-10)


def test_omega_even_in_lambda():
    s = D(2, (2, 1))
    assert sf.omega_direct(s, 1.1) == pytest.approx(
        sf.omega_direct(s, -1.1), abs=1e-11)


def test_q_frozen_constants():
    # rank-2 residual polynomials are constants; rank-3 are degree <= 2.
    # The rank-2 values were derived by hand from the partial-fraction
    # bookkeeping and double-checked against the numeric fit.
    cases = {
        (2, (1, 0)): (-4.0,),
        (2, (2, 1)): (-8.0,),
        (2, (F(3, 2), H)): (-6.0,),
        (2, (H, -H)): (-2.0,),
    }
    for (n, coords), expect in cases.items():
        q = sf.extract_Q(D(n, coords))
        assert len(q.coeffs) <= 1
        got = q.coeffs[0] if q.coeffs else 0.0
        assert got == pytest.approx(expect[0], abs=1e-8)


def test_q_rank_three_leading_constants():
    for coords, c0 in [((2, 1, 0), -96.0), ((F(5, 2), F(3, 2), H), -210.0),
                       ((3, 1, -1), -189.0)]:
        q = sf.extract_Q(D(3, coords))
        assert q.coeffs[0] == pytest.approx(c0, abs=1e-6)
        assert q.degree() <= 2


def test_q_rank_one_is_zero():
    q = sf.extract_Q(D(1, (2,)))
    assert q.coeffs == ()


def test_q_degree_bound():
    for n, coords in [(2, (2, 1)), (3, (2, 1, 0))]:
        assert sf.extract_Q(D(n, coords)).degree() <= 2 * n - 4


def test_q_is_exact_rational_rounded_once():
    # the polynomial part of the partial fractions, with no fit residue
    assert sf.extract_Q(D(4, (3, 2, 1, 1))).coeffs == (float(F(-15400, 3)),)
    assert sf.extract_Q(D(5, (6, 4, 3, 2, 1))).coeffs == (-116688000.0,)
    for n, coords, c0 in [(2, (1, 0), -4.0), (2, (2, 1), -8.0),
                          (2, (F(3, 2), H), -6.0), (2, (H, -H), -2.0),
                          (3, (2, 1, 0), -96.0), (3, (F(5, 2), F(3, 2), H), -210.0),
                          (3, (3, 1, -1), -189.0)]:
        assert sf.extract_Q(D(n, coords)).coeffs == (c0,)


@st.composite
def dominant_d_weights(draw):
    n = draw(st.integers(1, 4))
    tops = sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                  reverse=True)
    shift = H if draw(st.booleans()) else 0
    coords = [F(t) + shift for t in tops]
    if draw(st.booleans()):
        coords[-1] = -coords[-1]
    return D(n, coords)


@settings(max_examples=40, deadline=None)
@given(dominant_d_weights(), st.floats(0.1, 4.0))
def test_q_rebuilds_omega(sigma, lam):
    direct = sf.omega_direct(sigma, lam)
    rebuilt = sf.omega_decomposed(sigma, lam)
    assert abs(direct - rebuilt) <= 1e-12 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# even polynomial helper

def test_even_polynomial_eval_and_integrals():
    p = sf.EvenPolynomial([3.0, 2.0])  # 3 + 2 lambda^2
    assert p(2.0) == pytest.approx(11.0)
    # integral_0^s (3 + 2 r^2) dr = 3 s + (2/3) s^3
    assert p.integral_to(3.0) == pytest.approx(9 + 18.0)
    # rotated: integral_0^s (3 - 2 r^2) dr
    assert p.integral_of_rotated_to(3.0) == pytest.approx(9 - 18.0)


def test_even_polynomial_trims_and_bounds():
    p = sf.EvenPolynomial([1.0, 0.0, 0.0])
    assert p.coeffs == (1.0,)
    assert p.degree() == 0
    with pytest.raises(InputError):
        sf.EvenPolynomial([1.0, 1.0], degree_bound=0)


# ---------------------------------------------------------------------------
# Plancherel density polynomial

def test_plancherel_frozen_rank_one():
    p = sf.plancherel_poly(D(1, (0,)))
    assert p.coeffs == pytest.approx((0.0, -1.0), abs=1e-15)


def test_plancherel_frozen_rank_two():
    p = sf.plancherel_poly(D(2, (1, 0)))
    assert p.coeffs == pytest.approx((0.0, 4.0 / 3.0, 1.0 / 3.0), abs=1e-14)


def test_plancherel_c_norm_scales_linearly():
    a = sf.plancherel_poly(D(2, (2, 1)), c_norm=1.0)
    b = sf.plancherel_poly(D(2, (2, 1)), c_norm=2.5)
    assert b.coeffs == pytest.approx(tuple(2.5 * c for c in a.coeffs), rel=1e-14)


def test_plancherel_flip_invariant():
    s = D(2, (2, 1))
    assert sf.plancherel_poly(s).coeffs == pytest.approx(
        sf.plancherel_poly(rd.w0_act(s)).coeffs, rel=1e-14)


def test_plancherel_degree():
    for n, coords in [(1, (1,)), (2, (1, 0)), (3, (1, 1, 0))]:
        assert sf.plancherel_poly(D(n, coords)).degree() <= 2 * n


# ---------------------------------------------------------------------------
# intertwining scalar

def test_c_function_rank_one_closed_form():
    # single-slot ratio collapses to Gamma(il+k)/Gamma(il+k+1) = 1/(il+k)
    s, nu = D(1, (2,)), B(1, (2,))
    for lam in (0.5, 1.0, 3.3, 1 + 1j):
        expect = 1.0 / (1j * complex(lam) + 2)
        assert sf.c_function(s, nu, lam) == pytest.approx(expect, abs=1e-12)
        assert sf.c_function_logderiv(s, nu, lam) == pytest.approx(
            -1j / (1j * complex(lam) + 2), abs=1e-12)


def test_c_function_alpha_scales():
    s, nu = D(1, (1,)), B(1, (1,))
    base = sf.c_function(s, nu, 0.7)
    assert sf.c_function(s, nu, 0.7, alpha_n=3.0) == pytest.approx(3 * base)


def test_c_function_requires_branching():
    with pytest.raises(InputError):
        sf.c_function(D(1, (3,)), B(1, (1,)), 0.5)


def test_c_function_denominator_pole_gives_zero():
    # ilam = 2 hits Gamma(ilam - 2) downstairs while upstairs stays finite
    assert sf.c_function(D(1, (1,)), B(1, (2,)), -2j) == 0j


def test_c_function_numerator_pole_raises():
    with pytest.raises(PoleError):
        sf.c_function(D(1, (1,)), B(1, (2,)), -1j)


def test_c_function_simultaneous_pole_raises():
    # ilam = -1: upstairs Gamma(ilam+1) and downstairs Gamma(ilam-2) both
    # blow up; the numerator wins and the point is flagged as a pole
    with pytest.raises(PoleError):
        sf.c_function(D(1, (1,)), B(1, (2,)), 1j)


def test_c_function_logderiv_matches_finite_difference():
    rng = random.Random(271828)
    s, nu = D(2, (1, 0)), B(2, (1, 0))
    h = 1e-6
    for _ in range(20):
        lam = rng.uniform(0.3, 3.0)
        c0 = sf.c_function(s, nu, lam)
        fd = (sf.c_function(s, nu, lam + h) - sf.c_function(s, nu, lam - h)) / (2 * h)
        assert sf.c_function_logderiv(s, nu, lam) == pytest.approx(
            fd / c0, abs=1e-6)


# ---------------------------------------------------------------------------
# resolvent identity

def test_resolvent_weights_identity():
    rng = random.Random(55)
    for _ in range(100):
        k = rng.randint(1, 6)
        ss = [complex(rng.uniform(0.5, 4), rng.uniform(-1, 1)) for _ in range(k)]
        z = complex(rng.uniform(0.1, 2), rng.uniform(-0.5, 0.5))
        lhs, rhs = sf.resolvent_weights(ss, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_resolvent_rejects_coincident_squares():
    with pytest.raises(DegenerateDenominatorError):
        sf.resolvent_weights([2.0, -2.0], 1.0)


def test_resolvent_rejects_pole():
    with pytest.raises(PoleError):
        sf.resolvent_weights([2.0, 3.0], -4.0)
