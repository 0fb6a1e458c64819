"""Independent reference computations for the benchmark's output checks.

Nothing here imports geoflow.  Characters come from the Weyl character
formula (geoflow uses Freudenthal weight tables), determinants from the
2n eigenvalue factors, dimensions from the Weyl product, and class sums
are plain numpy sums over the listed classes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np


def weyl_dim_D(w):
    """Weyl dimension product for D_n, rho = (n-1, ..., 0); an exact
    Fraction (an integer for a dominant weight)."""
    n = len(w)
    lr = [Fraction(c) + (n - 1 - i) for i, c in enumerate(w)]
    rho = [Fraction(n - 1 - i) for i in range(n)]
    num = Fraction(1)
    den = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= lr[i] * lr[i] - lr[j] * lr[j]
            den *= rho[i] * rho[i] - rho[j] * rho[j]
    return num / den


def _alternant_D(mu, thetas):
    """sum over the D_n Weyl group of sgn(w) e^{i<w mu, theta>}, for each row
    of thetas (T, n): half the sum of det(2cos(mu_j theta_k)) and
    det(2i sin(mu_j theta_k)), the even-sign-change average."""
    mu = np.asarray([float(c) for c in mu])
    arg = thetas[:, None, :] * mu[None, :, None]  # (T, j, k) = mu_j theta_k
    return 0.5 * (np.linalg.det(2.0 * np.cos(arg).astype(complex))
                  + np.linalg.det(2j * np.sin(arg)))


def character_D(w, thetas):
    """Character of the D_n irrep with highest weight w at the torus points
    thetas (T, n), by the Weyl character formula A_{w+rho} / A_rho."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[1]
    rho = [n - 1 - i for i in range(n)]
    lam_rho = [Fraction(c) + r for c, r in zip(w, rho)]
    return _alternant_D(lam_rho, thetas) / _alternant_D(rho, thetas)


def det_factor(lengths, angles):
    """det(Id - A) for classes of length l (T,) and angles theta (T, n): the
    product over the 2n eigenvalues e^{-l +- i theta_j} of (1 - eigenvalue)."""
    r = np.exp(-lengths)[:, None]
    out = (1.0 - r * np.exp(1j * angles)) * (1.0 - r * np.exp(-1j * angles))
    return np.prod(out, axis=1)


class Spectrum:
    """A listed length spectrum as numpy columns, one row per prime."""

    def __init__(self, n, lengths, angles, mults=None):
        self.n = n
        self.lengths = np.asarray(lengths, dtype=float)
        self.angles = np.asarray(angles, dtype=float).reshape(len(self.lengths), n)
        self.mults = (np.ones(len(self.lengths)) if mults is None
                      else np.asarray(mults, dtype=float))

    def classes(self, max_length):
        """Prime powers with k*l <= max_length, sorted by (k*l, prime, k) as
        the program streams them: (class lengths, prime index, power)."""
        idx, ks = [], []
        k = 1
        while True:
            sel = np.nonzero(k * self.lengths <= max_length)[0]
            if not sel.size:
                break
            idx.append(sel)
            ks.append(np.full(sel.size, k))
            k += 1
        if not idx:
            return np.empty(0), np.empty(0, dtype=int), np.empty(0, dtype=int)
        idx = np.concatenate(idx)
        ks = np.concatenate(ks)
        lengths = ks * self.lengths[idx]
        order = np.lexsort((ks, idx, lengths))
        return lengths[order], idx[order], ks[order]


def selberg_terms(spec, s, twist, max_length):
    """Sorted class lengths and terms of log Z(s, twist) up to max_length:

        -chi(k theta) mult e^{-(s+n) k l} / (k det(Id - A^k)),

    twist being a list of (coefficient, D_n weight)."""
    lengths, idx, ks = spec.classes(max_length)
    kth = ks[:, None] * spec.angles[idx]
    chi = np.zeros(lengths.size, dtype=complex)
    for coeff, w in twist:
        chi += coeff * character_D(w, kth)
    det = det_factor(lengths, kth)
    terms = -chi * spec.mults[idx] * np.exp(-(s + spec.n) * lengths) / (ks * det)
    return lengths, terms


def omitted_mass(spec, decay, char_bound, cutoff):
    """Sum over listed classes with k*l > cutoff of
    char_bound * mult * e^{-decay k l} / (k |det(Id - A^k)|): the listed part
    of the mass the program's tail bound must cover.  A prime leaves the sum
    once its term falls below 1e-18 of the total; |det| moves by a bounded
    factor from one power to the next, so what it drops is negligible."""
    lengths, angles, mults = spec.lengths, spec.angles, spec.mults
    k = np.floor(cutoff / lengths) + 1.0
    total = 0.0
    while k.size:
        class_lengths = k * lengths
        det = np.abs(det_factor(class_lengths, k[:, None] * angles))
        part = char_bound * mults * np.exp(-decay * class_lengths) / (k * det)
        total += math.fsum(part)
        keep = part > 1e-18 * total
        k, lengths, angles, mults = k[keep] + 1.0, lengths[keep], angles[keep], mults[keep]
    return total


def boundary_prefixes(lengths):
    """Every prefix size that ends between two distinct class lengths."""
    ends = np.nonzero(np.diff(lengths) > 0)[0] + 1
    return np.concatenate([[0], ends, [lengths.size]])


def exp_sum(terms, size):
    """exp of the compensated sum of the first `size` terms."""
    part = terms[:size]
    return cmath.exp(complex(math.fsum(part.real), math.fsum(part.imag)))
