"""Seeded inputs for the geoflow benchmark.

Everything the program sees is made here from the workload seed: spectrum
files whose prime count grows as the prime geodesic theorem (PGT) says,
spectral-model files for the ledger, and the s-sets of every op.  Nothing
in this file imports geoflow.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from reference import weyl_dim_D


def pgt_length(k, n):
    """The R solving e^{2nR}/(2nR) = k on the increasing branch, clamped to
    R = 1/(2n) (where that function is smallest, e) while k < e."""
    if k < math.e:
        return 1.0 / (2 * n)
    log_k = math.log(k)
    # from this start Newton lands right of the root and then descends
    # monotonically, since u - ln u is convex and increasing for u > 1
    u = log_k + math.log(log_k)
    for _ in range(60):
        step = (u - math.log(u) - log_k) / (1.0 - 1.0 / u)
        u -= step
        if abs(step) <= 1e-15 * u:
            break
    return u / (2 * n)


def pgt_entries(n, count, rng):
    """(length, angles) of `count` primes, the k-th at pgt_length(k, n),
    angles uniform in [0, 2*pi), sorted by (length, angles)."""
    out = []
    for k in range(1, count + 1):
        angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
        out.append((pgt_length(k, n), angles))
    out.sort()
    return out


def spectrum_jsonl(n, entries, cutoff):
    """geoflow-spectrum JSONL text without a `growth` field; `cutoff` is the
    declared completeness cutoff (math.inf for a complete spectrum)."""
    header = {"format": "geoflow-spectrum", "version": 1, "n": n, "cutoff": cutoff}
    lines = [json.dumps(header)]
    for length, angles in entries:
        lines.append(json.dumps({"length": length, "angles": angles, "mult": 1}))
    return "\n".join(lines) + "\n"


def distinct_uniform(rng, lo, hi, count):
    """`count` distinct draws, one from each of `count` equal strata of
    [lo, hi), in shuffled order, so every run sees the same spread."""
    width = (hi - lo) / count
    vals = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(vals)
    return vals


# ---------------------------------------------------------------------------
# twists for the exact workload

def _dominant_D(n, top, half):
    """Dominant D_n weights with entries of absolute value <= top, all
    integral or all half-odd-integral: k_1 >= ... >= k_{n-1} >= |k_n|."""
    start = Fraction(1, 2) if half else Fraction(0)
    mags = [start + i for i in range(int(top - start), -1, -1)]
    out = []
    for w in itertools.combinations_with_replacement(mags, n):
        out.append(w)
        if w[-1] != 0:
            out.append(w[:-1] + (-w[-1],))
    return out


# Largest |entry| per rank: keeps a cold n=3 twist near tens of
# milliseconds and every xi value at the op's s-set finite.
TWIST_TOP = {1: Fraction(7), 2: Fraction(7, 2), 3: Fraction(5, 2)}


def twist_list():
    """The fixed list of twists, as (n, weight) with Fraction entries."""
    out = []
    for n in (1, 2, 3):
        for half in (False, True):
            out.extend((n, w) for w in _dominant_D(n, TWIST_TOP[n], half))
    return out


def weight_text(w):
    return ",".join(str(c) for c in w)


def spectral_model(n, w, rng):
    """A spectral-model document for twist w, with Laplace eigenvalues of
    known multiplicity (and Dirac eigenvalues when w differs from its flip),
    one scattering pole and one eta pole.  Returns (doc, expected), where
    expected maps sqrt(lambda) to the predicted orders at +i and -i."""
    symmetric = w[-1] == 0
    dim = weyl_dim_D(w)
    p = rng.randint(1, 3)
    doc = {
        "n": n,
        "sigma": [int(c) if c.denominator == 1 else str(c) for c in w],
        "p": p,
        "vol": round(rng.uniform(0.5, 3.0), 6),
        "C_Gamma": round(rng.uniform(-0.5, 0.5), 6),
        "m_s_zero": rng.randint(0, 2),
        "beta_poles": [{"re": round(rng.uniform(0.05, n), 6), "mult": 1}],
        "eta_poles_sigma": [{"re": -round(rng.uniform(0.1, 2.0), 6),
                             "im": round(rng.uniform(-2.0, 2.0), 6), "mult": 1}],
        "eta_poles_w0sigma": [{"re": -round(rng.uniform(0.1, 2.0), 6),
                               "im": round(rng.uniform(-2.0, 2.0), 6), "mult": 1}],
    }
    roots = sorted(set(round(x, 6) for x in distinct_uniform(rng, 0.3, 6.0, 4)))
    laplace, dirac, expected = [], [], {}
    for mu in roots:
        if symmetric:
            m = rng.randint(1, 4)
            expected[mu] = (m, m)
        else:
            d_plus, d_minus = rng.randint(0, 2), rng.randint(0, 2)
            half = rng.randint(1, 3) + abs(d_plus - d_minus)
            m = 2 * half - (d_plus - d_minus)
            expected[mu] = ((m + d_plus - d_minus) // 2, (m + d_minus - d_plus) // 2)
            for sign, d in ((1, d_plus), (-1, d_minus)):
                if d:
                    dirac.append({"mu": sign * mu, "mult": d})
        laplace.append({"re": mu * mu, "mult": m})
    doc["laplace_eigs"] = laplace
    if dirac:
        doc["dirac_eigs"] = dirac
    if symmetric:
        doc["c1"] = rng.randint(0, p * dim)
    return doc, expected


def rng_for(seed, salt):
    return random.Random(f"{seed}:{salt}")
