import cmath
import math
import random
from fractions import Fraction as F

import pytest

import geoflow.rootdata as rd
import geoflow.spectrum as sp
import geoflow.zeta as zt
from geoflow.errors import (
    ConvergenceRegionError,
    InputError,
    ModelInvariantError,
)

H = F(1, 2)


def D(n, coords):
    return rd.Irrep(rd.group_D(n), coords)


TRIV1 = D(1, (0,))


def one_prime(length=1.0, theta=0.0, n=1):
    g = sp.PrimeGeodesic(length, (theta,) * n)
    return sp.LengthSpectrum(n=n, entries=[g], completeness_cutoff=math.inf)


@pytest.fixture(scope="module")
def synthetic():
    spec = sp.synthesize(1, 80, seed=17)
    spec.completeness_cutoff = math.inf
    return spec


# ---------------------------------------------------------------------------
# log series basics

def test_log_selberg_frozen_single_geodesic():
    # one unit geodesic, trivial twist, s = 3: the class sum collapses to
    # sum_k -e^{-4k} / (k (1-e^{-k})^2), summed here independently
    v = zt.log_selberg(3.0, TRIV1, one_prime(), tail_target=1e-14)
    manual = sum(
        -math.exp(-4 * k) / (k * (1 - math.exp(-k)) ** 2)
        for k in range(1, 60)
    )
    assert v.value.real == pytest.approx(manual, abs=1e-14)
    assert v.value.real == pytest.approx(-0.0460642832878005, abs=1e-13)
    assert abs(v.value.imag) < 1e-15
    assert v.tail_bound <= 1e-14


def test_selberg_exp_consistency():
    spec = one_prime()
    logv = zt.log_selberg(3.0, TRIV1, spec, 1e-12)
    v = zt.selberg_Z(3.0, TRIV1, spec, 1e-12)
    assert v.value == pytest.approx(cmath.exp(logv.value), rel=1e-15)
    assert v.tail_bound >= logv.tail_bound * abs(v.value) * 0.9


def test_half_plane_rejection():
    spec = one_prime()
    with pytest.raises(ConvergenceRegionError):
        zt.log_selberg(1.99, TRIV1, spec)
    with pytest.raises(ConvergenceRegionError):
        zt.log_ruelle_sigma(1.5, TRIV1, spec)
    with pytest.raises(ConvergenceRegionError):
        zt.selberg_Z_product(1.0, TRIV1, spec)
    # the boundary itself is allowed for the class-sum routes
    zt.log_selberg(2.0, TRIV1, spec, 1e-8)
    zt.log_ruelle_sigma(2.0, TRIV1, spec, 1e-8)


def test_ruelle_closed_form_single_geodesic():
    # theta = 0, trivial sigma: log R(s) = log(1 - e^{-s}) exactly
    spec = one_prime()
    for s in (2.0, 3.0, 5 + 2j):
        v = zt.log_ruelle_sigma(s, TRIV1, spec, 1e-13)
        expect = 1.0 - cmath.exp(-complex(s))
        assert cmath.exp(v.value) == pytest.approx(expect, abs=1e-12)


def test_ruelle_nontrivial_twist_single_geodesic():
    # sigma = (k): the class trace is e^{ik k_power theta}
    theta = 0.7
    spec = one_prime(theta=theta)
    s = 4.0
    sigma = D(1, (2,))
    v = zt.log_ruelle_sigma(s, sigma, spec, 1e-13)
    expect = sum(
        -cmath.exp(2j * k * theta) * math.exp(-s * k) / k
        for k in range(1, 200)
    )
    assert v.value == pytest.approx(expect, abs=1e-12)


def test_log_series_deterministic(synthetic):
    a = zt.log_selberg(4.0, TRIV1, synthetic, 1e-10)
    b = zt.log_selberg(4.0, TRIV1, synthetic, 1e-10)
    assert a.value == b.value
    assert a.tail_bound == b.tail_bound


# ---------------------------------------------------------------------------
# dual-route agreement

def test_selberg_series_vs_product(synthetic):
    series = zt.selberg_Z(4.0, TRIV1, synthetic, 1e-10)
    product = zt.selberg_Z_product(4.0, TRIV1, synthetic, k_max=40,
                                   cutoff=series.cutoff_used)
    assert abs(series.value - product) <= series.tail_bound + 1e-10


def test_selberg_series_vs_product_twisted(synthetic):
    sigma = D(1, (1,))
    series = zt.selberg_Z(4.5, sigma, synthetic, 1e-9)
    product = zt.selberg_Z_product(4.5, sigma, synthetic, k_max=40,
                                   cutoff=series.cutoff_used)
    assert abs(series.value - product) <= series.tail_bound + 1e-9


@pytest.mark.parametrize("kwargs", [
    dict(cutoff=-1.0),
    dict(cutoff=math.nan),
    dict(cutoff=math.inf),
    dict(k_max=-1),
], ids=["cutoff-negative", "cutoff-nan", "cutoff-inf", "k-max-negative"])
def test_selberg_product_rejects_bad_cutoff_and_k_max(kwargs):
    with pytest.raises(InputError):
        zt.selberg_Z_product(4.0, TRIV1, one_prime(), **kwargs)


def test_selberg_product_accepts_zero_cutoff_and_k_max():
    # cutoff 0 leaves an empty product; k_max 0 keeps only S^0 = 1
    assert zt.selberg_Z_product(4.0, TRIV1, one_prime(), cutoff=0.0) == 1.0
    assert zt.selberg_Z_product(4.0, TRIV1, one_prime(), k_max=0) == \
        pytest.approx(1 - math.exp(-5), rel=1e-14)


# ---------------------------------------------------------------------------
# symmetrized and antisymmetric combinations

def test_symmetrized_is_plain_z_for_symmetric_sigma(synthetic):
    a = zt.symmetrized_S(4.0, TRIV1, synthetic, 1e-10)
    b = zt.selberg_Z(4.0, TRIV1, synthetic, 1e-10)
    assert a.value == b.value


def test_antisymmetric_is_unit_for_symmetric_sigma(synthetic):
    v = zt.antisymmetric_Sa(4.0, TRIV1, synthetic)
    assert v.value == 1.0 + 0j
    assert v.tail_bound == 0.0


def test_symmetrized_factors_into_flip_pair(synthetic):
    sigma = D(1, (1,))
    flip = rd.w0_act(sigma)
    s = 4.0
    combined = zt.symmetrized_S(s, sigma, synthetic, 1e-11)
    za = zt.log_selberg(s, sigma, synthetic, 1e-11)
    zb = zt.log_selberg(s, flip, synthetic, 1e-11)
    assert combined.value == pytest.approx(
        cmath.exp(za.value + zb.value), rel=1e-9)


def test_symmetrized_times_antisymmetric_is_z_squared(synthetic):
    sigma = D(1, (2,))
    s = 4.0
    sv = zt.symmetrized_S(s, sigma, synthetic, 1e-11)
    av = zt.antisymmetric_Sa(s, sigma, synthetic, 1e-11)
    zz = zt.selberg_Z(s, sigma, synthetic, 1e-11)
    assert sv.value * av.value == pytest.approx(zz.value ** 2, rel=1e-8)


def test_symmetrized_real_on_real_axis(synthetic):
    # chi_sigma + chi_{w0 sigma} is real, so S is real for real s
    v = zt.symmetrized_S(3.5, D(1, (1,)), synthetic, 1e-10)
    assert abs(v.value.imag) < 1e-12


# ---------------------------------------------------------------------------
# epsilon

@pytest.mark.parametrize("n,coords,eps", [
    (1, (0,), 1), (1, (1,), 2), (2, (1, 0), 1), (2, (1, 1), 2),
    (2, (H, -H), 2), (3, (1, 1, 0), 1),
])
def test_epsilon_sigma(n, coords, eps):
    assert zt.epsilon_sigma(D(n, coords)) == eps


# ---------------------------------------------------------------------------
# ambient-weight system route

AMBIENT_VECTOR_1 = {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}


def test_ruelle_tau_single_term_trace():
    theta = 0.9
    spec = one_prime(theta=theta)
    s = 6.0
    v = zt.log_ruelle_tau(s, AMBIENT_VECTOR_1, spec, 1e-13)
    expect = sum(
        -(math.exp(k) + math.exp(-k) + 2 * math.cos(k * theta))
        * math.exp(-s * k) / k
        for k in range(1, 400)
    )
    assert v.value == pytest.approx(expect, abs=1e-12)


def test_ruelle_tau_abscissa_is_open():
    spec = one_prime()
    with pytest.raises(ConvergenceRegionError):
        zt.log_ruelle_tau(3.0, AMBIENT_VECTOR_1, spec, 1e-8)
    zt.log_ruelle_tau(3.0 + 1e-9, AMBIENT_VECTOR_1, spec, 1e-6)


def test_ruelle_tau_validates_weights():
    spec = one_prime()
    with pytest.raises(InputError):
        zt.log_ruelle_tau(5.0, {}, spec)
    with pytest.raises(InputError):
        zt.log_ruelle_tau(5.0, {(1, 0, 0): 1}, spec)


def test_ruelle_tau_matches_sigma_route_for_flat_weights():
    # a weight system with mu_1 = 0 everywhere reduces to the sigma route
    spec = one_prime(theta=1.1)
    tau = {(0, 2): 1}
    a = zt.log_ruelle_tau(4.0, tau, spec, 1e-12)
    b = zt.log_ruelle_sigma(4.0, D(1, (2,)), spec, 1e-12)
    assert a.value == pytest.approx(b.value, abs=1e-12)


# ---------------------------------------------------------------------------
# factorization

def test_factorization_identity_rank_one(synthetic):
    lhs, rhs, disc = zt.ruelle_selberg_factorization(
        5.0, D(1, (1,)), synthetic, 1e-10)
    assert disc < 1e-9
    assert disc <= lhs.tail_bound + rhs.tail_bound + 1e-10


def test_factorization_per_class_identity():
    # with a single class the identity is the determinant expansion itself,
    # so the discrepancy collapses to numerical error
    spec = one_prime(theta=0.4)
    lhs, rhs, disc = zt.ruelle_selberg_factorization(4.0, TRIV1, spec, 1e-12)
    assert disc < 1e-11


def test_factorization_requires_deep_half_plane():
    spec = one_prime()
    with pytest.raises(ConvergenceRegionError):
        zt.ruelle_selberg_factorization(2.5, TRIV1, spec)


# ---------------------------------------------------------------------------
# normalizer

def test_xi_normalizer_at_zero_is_one():
    assert zt.xi_normalizer(0.0, TRIV1, vol=2.0, p=3, C_Gamma=1.5) == 1.0


def test_xi_normalizer_rank_one_closed_form():
    # density (0, -1), empty Q, dim 1, eps 1: everything reduces to
    # exp(-2 pi vol s^3/3 + s (C - gamma p)) / Gamma(1+s)^p
    vol, p, c_g = 1.7, 2, 0.3
    for s in (0.5, 1.25, 2 + 1j):
        expect = cmath.exp(
            -2 * math.pi * vol * complex(s) ** 3 / 3
            + complex(s) * (c_g - 0.5772156649015328606 * p)
            - p * zt.specfun.log_gamma(1 + complex(s))
        )
        got = zt.xi_normalizer(s, TRIV1, vol, p, c_g)
        assert got == pytest.approx(expect, rel=1e-12)


def test_xi_normalizer_epsilon_doubles_exponent():
    sym = D(2, (1, 0))   # eps 1
    vol, p, c_g, s = 1.0, 1, 0.0, 0.8
    one = zt.xi_normalizer(s, sym, vol, p, c_g)
    # doubling vol doubles the polynomial part only; use the log to compare
    two = zt.xi_normalizer(s, sym, 2 * vol, p, c_g)
    poly = zt.specfun.plancherel_poly(sym).integral_to(s)
    assert cmath.log(two / one) == pytest.approx(
        2 * math.pi * vol * poly, rel=1e-10)


# ---------------------------------------------------------------------------
# spectral model validation

def test_model_defaults_and_coercion():
    m = zt.SpectralModel(sigma=TRIV1, p=1, vol=1.0)
    assert m.c1 == 0
    assert m.laplace_eigs == []


@pytest.mark.parametrize("kwargs", [
    dict(p=0),
    dict(vol=0.0),
    dict(vol=-2.0),
])
def test_model_input_errors(kwargs):
    base = dict(sigma=TRIV1, p=1, vol=1.0)
    base.update(kwargs)
    with pytest.raises(InputError):
        zt.SpectralModel(**base)


@pytest.mark.parametrize("kwargs", [
    dict(laplace_eigs=[(0.0, 1)]),
    dict(dirac_eigs=[(1.0, 1)]),          # symmetric sigma forbids these
    dict(c1=-1),
    dict(c1=99),                           # beyond p * dim sigma
    dict(beta_poles=[(0.0, 1)]),
    dict(beta_poles=[(1.5, 1)]),           # n = 1 caps beta at 1
    dict(eta_poles_sigma=[(0.5, 1)]),
])
def test_model_invariant_errors_symmetric(kwargs):
    base = dict(sigma=TRIV1, p=1, vol=1.0)
    base.update(kwargs)
    with pytest.raises(ModelInvariantError):
        zt.SpectralModel(**base)


@pytest.mark.parametrize("kwargs", [
    dict(c1=0),                            # c1 needs a symmetric sigma
    dict(dirac_eigs=[(0.0, 1)]),
    dict(dirac_eigs=[(1j, 1)]),
    dict(dirac_eigs=[(1.0, 0)]),
])
def test_model_invariant_errors_non_symmetric(kwargs):
    base = dict(sigma=D(1, (1,)), p=1, vol=1.0)
    base.update(kwargs)
    with pytest.raises(ModelInvariantError):
        zt.SpectralModel(**base)


# ---------------------------------------------------------------------------
# singularity ledger

def ledger_dict(model, max_depth=10):
    return {s.location: s.order
            for s in zt.singularity_ledger(model, max_depth)}


def test_ledger_symmetric_pairs_and_zero_point():
    m = zt.SpectralModel(sigma=TRIV1, p=1, vol=1.0,
                         laplace_eigs=[(4.0, 2)], m_s_zero=1, c1=1)
    led = ledger_dict(m, max_depth=2)
    assert led[2j] == 2
    assert led[-2j] == 2
    assert led[0] == 2 * 1 - 1
    assert led[complex(-1, 0)] == -1
    assert led[complex(-2, 0)] == -1


def test_ledger_negative_eigenvalue_lands_on_real_axis():
    m = zt.SpectralModel(sigma=TRIV1, p=1, vol=1.0,
                         laplace_eigs=[(-0.75, 1)])
    led = ledger_dict(m, max_depth=1)
    r = math.sqrt(0.75)
    assert led[complex(-r, 0)] == 1
    assert led[complex(r, 0)] == 1


def test_ledger_dirac_asymmetry_splits_orders():
    m = zt.SpectralModel(sigma=D(1, (1,)), p=1, vol=1.0,
                         laplace_eigs=[(9.0, 4)], dirac_eigs=[(3.0, 3), (-3.0, 1)])
    led = ledger_dict(m, max_depth=1)
    assert led[3j] == (4 + 3 - 1) // 2
    assert led[-3j] == (4 + 1 - 3) // 2


def test_ledger_parity_violation_raises():
    m = zt.SpectralModel(sigma=D(1, (1,)), p=1, vol=1.0,
                         laplace_eigs=[(2.25, 3)], dirac_eigs=[(1.5, 2)])
    with pytest.raises(ModelInvariantError, match="odd"):
        zt.singularity_ledger(m)


def test_ledger_dirac_only_point_still_appears():
    m = zt.SpectralModel(sigma=D(1, (1,)), p=1, vol=1.0,
                         dirac_eigs=[(2.0, 2)])
    led = ledger_dict(m, max_depth=1)
    assert led[2j] == 1
    assert led[-2j] == -1


def test_ledger_topological_family_integer_weight():
    m = zt.SpectralModel(sigma=D(1, (2,)), p=1, vol=1.0)
    led = ledger_dict(m, max_depth=3)
    # the regular family starts at the last-coordinate magnitude
    assert led[complex(-2, 0)] == -1
    assert led[complex(-3, 0)] == -1
    assert led[complex(-4, 0)] == -1
    assert complex(-1, 0) not in led


def test_ledger_topological_family_half_integral():
    m = zt.SpectralModel(sigma=D(1, (H,)), p=1, vol=1.0)
    led = ledger_dict(m, max_depth=3)
    assert led[complex(-0.5, 0)] == -1
    assert led[complex(-1.5, 0)] == -1
    assert led[complex(-2.5, 0)] == -1


def test_ledger_correction_merges_with_family():
    # c_{2,2} = 3 for the rank-2 weight (2,1) partially cancels the family
    # order -p dim = -8 at s = -2
    m = zt.SpectralModel(sigma=D(2, (2, 1)), p=1, vol=1.0)
    led = ledger_dict(m, max_depth=4)
    assert led[complex(-2, 0)] == 3 - 8
    assert led[complex(-1, 0)] == -8


def test_ledger_beta_and_eta_terms():
    m = zt.SpectralModel(
        sigma=TRIV1, p=1, vol=1.0,
        beta_poles=[(0.5, 2)],
        eta_poles_sigma=[(complex(-0.25, 1.0), 3)],
        eta_poles_w0sigma=[(complex(-0.75, 1.0), 5)],
    )
    led = ledger_dict(m, max_depth=1)
    assert led[complex(-0.5, 0)] == -2
    assert led[complex(-0.25, 1.0)] == 3   # symmetric sigma reads eta_sigma
    assert complex(-0.75, 1.0) not in led


def test_ledger_eta_list_choice_odd_rank_non_symmetric():
    m = zt.SpectralModel(
        sigma=D(1, (1,)), p=1, vol=1.0,
        eta_poles_sigma=[(complex(-0.25, 1.0), 3)],
        eta_poles_w0sigma=[(complex(-0.75, 1.0), 5)],
    )
    led = ledger_dict(m, max_depth=1)
    assert led[complex(-0.75, 1.0)] == 5
    assert complex(-0.25, 1.0) not in led


def test_ledger_merge_cancels_exact_opposites():
    merged = zt.ledger_merge([
        zt.Singularity(1j, 2), zt.Singularity(1j, -2), zt.Singularity(0, 1),
    ])
    assert [(s.location, s.order) for s in merged] == [(0j, 1)]


def test_ledger_sorted_by_real_then_imag():
    m = zt.SpectralModel(sigma=TRIV1, p=1, vol=1.0,
                         laplace_eigs=[(4.0, 2), (1.0, 1)])
    locs = [s.location for s in zt.singularity_ledger(m, max_depth=2)]
    assert locs == sorted(locs, key=lambda z: (z.real, z.imag))


def test_ledger_spectral_order_sum_rule():
    # at each paired location the orders add to the graded Laplace
    # multiplicity and differ by the Dirac asymmetry
    rng = random.Random(2024)
    for _ in range(30):
        mu = rng.uniform(0.5, 4.0)
        dp = rng.randint(0, 4)
        dm = rng.randint(0, 4)
        m = rng.randint(0, 3) * 2 + ((dp + dm) % 2)
        if m == 0 and dp == 0 and dm == 0:
            continue
        model = zt.SpectralModel(
            sigma=D(1, (1,)), p=1, vol=1.0,
            laplace_eigs=[(mu * mu, m)] if m else [],
            dirac_eigs=([(mu, dp)] if dp else []) + ([(-mu, dm)] if dm else []),
        )
        raw = zt._spectral_singularities(model)
        plus = sum(s.order for s in raw if s.location == 1j * mu)
        minus = sum(s.order for s in raw if s.location == -1j * mu)
        assert plus + minus == m
        assert plus - minus == dp - dm


# ---------------------------------------------------------------------------
# model JSON round trip

def test_model_json_round_trip():
    m = zt.SpectralModel(
        sigma=D(2, (F(3, 2), H)), p=2, vol=3.5, C_Gamma=0.25,
        laplace_eigs=[(4.0, 2), (complex(1, 1), 1)],
        dirac_eigs=[(1.5, 2)],
        m_s_zero=1,
        beta_poles=[(0.5, 1)],
        eta_poles_w0sigma=[(complex(-0.5, 2.0), 1)],
    )
    back = zt.model_from_json(zt.model_to_json(m))
    assert back == m


def test_model_json_symmetric_round_trip_keeps_c1():
    m = zt.SpectralModel(sigma=D(1, (0,)), p=2, vol=1.0, m_s_zero=2, c1=1)
    back = zt.model_from_json(zt.model_to_json(m))
    assert back.c1 == 1
    assert ledger_dict(back)[0] == 3


def test_model_json_rejects_garbage():
    with pytest.raises(InputError):
        zt.model_from_json("{not json")
    with pytest.raises(InputError):
        zt.model_from_json('{"n": 1}')


def test_model_json_half_integral_coordinates():
    m = zt.SpectralModel(sigma=D(2, (F(3, 2), H)), p=1, vol=1.0)
    text = zt.model_to_json(m)
    assert '"3/2"' in text
    assert zt.model_from_json(text).sigma == m.sigma
