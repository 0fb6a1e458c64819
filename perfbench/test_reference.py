"""Tests of the benchmark's own reference code and input generator.

    python3 -m pytest perfbench
"""

import cmath
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import reference as ref  # noqa: E402

RNG = np.random.default_rng(7)


def test_characters_match_weight_sums():
    th = RNG.uniform(0, 2 * math.pi, (6, 3))
    t1, t2, t3 = th[:, 0], th[:, 1], th[:, 2]
    e = lambda x: np.exp(1j * x)  # noqa: E731
    cases = [
        ((3,), th[:, :1], e(3 * t1)),
        ((-3 / 2,), th[:, :1], e(-1.5 * t1)),
        ((1, 0), th[:, :2], 2 * np.cos(t1) + 2 * np.cos(t2)),
        ((0.5, 0.5), th[:, :2], e((t1 + t2) / 2) + e(-(t1 + t2) / 2)),
        ((0.5, -0.5), th[:, :2], e((t1 - t2) / 2) + e(-(t1 - t2) / 2)),
        ((1, 1), th[:, :2], e(t1 + t2) + e(-t1 - t2) + 1),
        ((1, 0, 0), th, 2 * (np.cos(t1) + np.cos(t2) + np.cos(t3))),
    ]
    for w, pts, expect in cases:
        assert np.allclose(ref.character_D(w, pts), expect, atol=1e-12), w


def test_weyl_dimensions():
    dims = {(0,): 1, (5,): 1, (1, 0): 4, (1, 1): 3, (2, 1): 8, (0.5, 0.5): 2,
            (1, 0, 0): 6, (1, 1, 0): 15, (1, 1, 1): 10, (0.5, 0.5, 0.5): 4}
    for w, d in dims.items():
        assert ref.weyl_dim_D(w) == d, w


def test_det_factor_is_matrix_determinant():
    n, length = 3, 0.7
    angles = RNG.uniform(0, 2 * math.pi, n)
    a = np.zeros((2 * n, 2 * n))
    for j, t in enumerate(angles):
        a[2 * j:2 * j + 2, 2 * j:2 * j + 2] = math.exp(-length) * np.array(
            [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    expect = np.linalg.det(np.eye(2 * n) - a)
    got = ref.det_factor(np.array([length]), angles[None, :])[0]
    assert abs(got - expect) < 1e-14


# Exterior powers of the standard representation of D_n, as twists.
LAMBDA = {
    1: [[(1, (0,))], [(1, (1,)), (1, (-1,))], [(1, (0,))]],
    2: [[(1, (0, 0))], [(1, (1, 0))], [(1, (1, 1)), (1, (1, -1))], [(1, (1, 0))],
        [(1, (0, 0))]],
}


@pytest.mark.parametrize("n", [1, 2])
def test_one_geodesic_law(n):
    """log R(s) = sum_p (-1)^p log Z(s+p-n, Lambda^p) and, for one prime
    geodesic of length l, R(s) = 1 - e^{-s l} whatever its holonomy."""
    length, s = 1.0, 3.0 + 0.5j
    spec = ref.Spectrum(n, [length], [RNG.uniform(0, 2 * math.pi, n)])
    log_r = 0j
    for p, twist in enumerate(LAMBDA[n]):
        lengths, terms = ref.selberg_terms(spec, s + p - n, twist, 80.0)
        log_r += (-1) ** p * complex(math.fsum(terms.real), math.fsum(terms.imag))
    assert abs(cmath.exp(log_r) - (1 - cmath.exp(-s * length))) < 1e-13


def test_classes_and_omitted_mass():
    spec = ref.Spectrum(1, [0.5, 0.8], [[0.3], [1.1]])
    lengths, idx, ks = spec.classes(1.6)
    assert lengths.tolist() == [0.5, 0.8, 1.0, 1.5, 1.6]
    assert idx.tolist() == [0, 1, 0, 0, 1] and ks.tolist() == [1, 1, 2, 3, 2]
    decay, cutoff = 3.0, 1.6
    expect = 0.0
    for i, (l0, th) in enumerate(zip(spec.lengths, spec.angles[:, 0])):
        for k in range(int(cutoff // l0) + 1, 200):
            det = abs(ref.det_factor(np.array([k * l0]), np.array([[k * th]]))[0])
            expect += 2.0 * math.exp(-decay * k * l0) / (k * det)
    assert math.isclose(ref.omitted_mass(spec, decay, 2.0, cutoff), expect, rel_tol=1e-12)
    assert ref.boundary_prefixes(np.array([0.5, 0.5, 0.7])).tolist() == [0, 2, 3]


def test_pgt_lengths():
    for n in (1, 2, 3):
        assert gen.pgt_length(1, n) == gen.pgt_length(2, n) == 1 / (2 * n)
        for k in (3, 10, 1000, 20000):
            r = gen.pgt_length(k, n)
            assert r > 1 / (2 * n)
            assert math.isclose(math.exp(2 * n * r) / (2 * n * r), k, rel_tol=1e-12)


def test_inputs_follow_the_seed():
    a = gen.pgt_entries(2, 50, gen.rng_for(5, "x"))
    assert a == gen.pgt_entries(2, 50, gen.rng_for(5, "x"))
    assert a != gen.pgt_entries(2, 50, gen.rng_for(6, "x"))
    assert [e[0] for e in a] == sorted(gen.pgt_length(k, 2) for k in range(1, 51))
