"""Geodesic length spectra with torus holonomy.

A spectrum is a list of prime geodesics, each carrying its length, the
torus angles of a chosen spin lift of its holonomy class, and a
multiplicity.  The module handles JSONL and CSV ingestion with lossless
round-trips, report-based validation with a fitted exponential growth
constant, deterministic synthesis for testing, per-class determinant
factors, and enumeration of prime powers up to a certified tail bound.

Holonomy is stored as angles of a spin lift rather than a rotation matrix
so that half-integer characters are well defined.  The lift ambiguity
(theta versus theta + 2*pi) is the data producer's responsibility.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceRegionError, InputError, InsufficientSpectrumError

__all__ = [
    "PrimeGeodesic",
    "LengthSpectrum",
    "ClassTerm",
    "ClassStream",
    "ValidationReport",
    "parse",
    "serialize",
    "from_complex_lengths",
    "validate",
    "synthesize",
    "holonomy_eigenvalues",
    "det_factor",
    "class_iterator",
]


@dataclass(frozen=True)
class PrimeGeodesic:
    """A primitive closed geodesic: length, holonomy angles, multiplicity."""

    length: float
    angles: tuple
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "length", float(self.length))
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "multiplicity", int(self.multiplicity))
        if not (self.length > 0 and math.isfinite(self.length)):
            raise InputError(f"geodesic length must be positive, got {self.length}")
        if not all(math.isfinite(a) for a in self.angles):
            raise InputError("holonomy angles must be finite")
        if self.multiplicity < 1:
            raise InputError(f"multiplicity must be >= 1, got {self.multiplicity}")


@dataclass
class LengthSpectrum:
    """Prime geodesics of one quotient, complete up to completeness_cutoff.

    growth_constant is the C with N(R) <= C * exp(2nR), from the file
    header or recorded by validate(); while it is None, evaluations use the
    fitted C without recording it."""

    n: int
    entries: tuple = ()
    completeness_cutoff: float = 0.0
    growth_constant: float | None = None

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        self.entries = tuple(self.entries)
        self.completeness_cutoff = float(self.completeness_cutoff)
        if self.completeness_cutoff < 0:
            raise InputError("completeness_cutoff must be >= 0")
        for g in self.entries:
            if len(g.angles) != self.n:
                raise InputError(
                    f"entry with {len(g.angles)} angles in a spectrum with n={self.n}"
                )

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class ClassTerm:
    """The k-th power of a prime geodesic; its length is power * length."""

    prime: PrimeGeodesic
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise InputError(f"power must be >= 1, got {self.power}")

    @property
    def length(self):
        return self.power * self.prime.length


# ---------------------------------------------------------------------------
# serialization

_HEADER_FORMAT = "geoflow-spectrum"
_VERSION = 1


def _read_text(stream):
    if hasattr(stream, "read"):
        return stream.read()
    return stream


def parse(stream, format="jsonl"):
    """Parse a spectrum from text or a file-like object."""
    text = _read_text(stream)
    if format == "jsonl":
        return _parse_jsonl(text)
    if format == "csv":
        return _parse_csv(text)
    raise InputError(f"unknown spectrum format {format!r}")


def serialize(spectrum, format="jsonl"):
    """Serialize a spectrum to text; floats keep round-trip precision."""
    if format == "jsonl":
        return _serialize_jsonl(spectrum)
    if format == "csv":
        return _serialize_csv(spectrum)
    raise InputError(f"unknown spectrum format {format!r}")


def _parse_jsonl(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty stream: missing spectrum header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise InputError(f"line 1: malformed header: {e}") from None
    if header.get("format") != _HEADER_FORMAT:
        raise InputError(f"line 1: expected format {_HEADER_FORMAT!r}")
    if header.get("version") != _VERSION:
        raise InputError(f"line 1: unsupported version {header.get('version')!r}")
    n = header.get("n")
    entries = []
    for no, ln in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(ln)
            entries.append(
                PrimeGeodesic(rec["length"], rec["angles"], rec.get("mult", 1))
            )
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise InputError(f"line {no}: malformed record: {e}") from None
        except InputError as e:
            raise InputError(f"line {no}: {e}") from None
        if len(entries[-1].angles) != n:
            raise InputError(
                f"line {no}: {len(entries[-1].angles)} angles, expected {n}"
            )
    return LengthSpectrum(
        n=n,
        entries=entries,
        completeness_cutoff=header.get("cutoff", 0.0),
        growth_constant=header.get("growth"),
    )


def _serialize_jsonl(spectrum):
    header = {
        "format": _HEADER_FORMAT,
        "version": _VERSION,
        "n": spectrum.n,
        "cutoff": spectrum.completeness_cutoff,
    }
    if spectrum.growth_constant is not None:
        header["growth"] = spectrum.growth_constant
    out = [json.dumps(header)]
    for g in spectrum.entries:
        out.append(
            json.dumps(
                {"length": g.length, "angles": list(g.angles), "mult": g.multiplicity}
            )
        )
    return "\n".join(out) + "\n"


def _parse_csv(text):
    meta = {}
    header_cols = None
    entries = []
    for no, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
            continue
        cols = [c.strip() for c in ln.split(",")]
        if header_cols is None:
            if cols[0] != "length" or cols[-1] != "mult":
                raise InputError(f"line {no}: expected header length,...,mult")
            header_cols = cols
            continue
        if len(cols) != len(header_cols):
            raise InputError(
                f"line {no}: {len(cols)} fields, expected {len(header_cols)}"
            )
        try:
            entries.append(
                PrimeGeodesic(float(cols[0]), [float(c) for c in cols[1:-1]],
                              int(cols[-1]))
            )
        except ValueError as e:
            raise InputError(f"line {no}: malformed record: {e}") from None
        except InputError as e:
            raise InputError(f"line {no}: {e}") from None
    if header_cols is None:
        raise InputError("missing CSV column header")
    n = int(meta.get("n", len(header_cols) - 2))
    if len(header_cols) - 2 != n:
        raise InputError(f"{len(header_cols) - 2} angle columns, expected {n}")
    growth = meta.get("growth")
    return LengthSpectrum(
        n=n,
        entries=entries,
        completeness_cutoff=float(meta.get("cutoff", 0.0)),
        growth_constant=None if growth is None else float(growth),
    )


def _serialize_csv(spectrum):
    meta = (
        f"# {_HEADER_FORMAT} version={_VERSION} n={spectrum.n}"
        f" cutoff={spectrum.completeness_cutoff!r}"
    )
    if spectrum.growth_constant is not None:
        meta += f" growth={spectrum.growth_constant!r}"
    cols = ["length"] + [f"angle_{j}" for j in range(2, spectrum.n + 2)] + ["mult"]
    out = [meta, ",".join(cols)]
    for g in spectrum.entries:
        out.append(
            ",".join([repr(g.length)] + [repr(a) for a in g.angles]
                     + [str(g.multiplicity)])
        )
    return "\n".join(out) + "\n"


def from_complex_lengths(values, cutoff=0.0):
    """Build an n=1 spectrum from complex lengths l + i*theta, the export
    convention of hyperbolic-3-manifold software."""
    entries = sorted(
        (PrimeGeodesic(z.real, (z.imag,)) for z in map(complex, values)),
        key=lambda g: (g.length, g.angles),
    )
    return LengthSpectrum(n=1, entries=entries, completeness_cutoff=cutoff)


# ---------------------------------------------------------------------------
# validation and synthesis

@dataclass
class ValidationReport:
    entry_count: int
    sorted_ok: bool
    fitted_growth: float
    warnings: list = field(default_factory=list)

    def ok(self):
        return self.sorted_ok and not self.warnings


def validate(spectrum, growth_bound=None):
    """Check sortedness and fit the counting-growth constant

        C := max over entry lengths R of N(R) / exp(2nR),

    N counting primes (with multiplicity) of length <= R.  The fitted C is
    recorded on the spectrum.  Report-based: never raises on violations."""
    c = _columns(spectrum).growth
    report = ValidationReport(
        entry_count=sum(g.multiplicity for g in spectrum.entries),
        sorted_ok=True,
        fitted_growth=c,
    )
    keys = [(g.length, g.angles) for g in spectrum.entries]
    if keys != sorted(keys):
        report.sorted_ok = False
        report.warnings.append("entries are not sorted by (length, angles)")
    spectrum.growth_constant = c
    if growth_bound is not None and c > growth_bound:
        report.warnings.append(
            f"fitted growth constant {c:.6g} exceeds bound {growth_bound:.6g}"
        )
    return report


def synthesize(n, count, seed, mean_gap=0.25):
    """Deterministic pseudo-random spectrum: lengths increase by exponential
    gaps above a floor of 0.5, angles uniform in [0, 2*pi), multiplicity 1.
    The same seed always gives the same spectrum."""
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    entries = []
    length = 0.5
    for _ in range(count):
        length += rng.expovariate(1.0 / mean_gap)
        angles = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
        entries.append(PrimeGeodesic(length, angles))
    cutoff = entries[-1].length if entries else 0.0
    spectrum = LengthSpectrum(n=n, entries=entries, completeness_cutoff=cutoff)
    validate(spectrum)
    return spectrum


# ---------------------------------------------------------------------------
# per-class quantities

def holonomy_eigenvalues(term):
    """Eigenvalues of the k-th power class acting on the negative nilpotent
    space: e^{-k*l0 +- i*k*theta_j} for each angle, 2n values in total."""
    k = term.power
    r = math.exp(-k * term.prime.length)
    out = []
    for th in term.prime.angles:
        out.append(r * cmath.exp(1j * k * th))
        out.append(r * cmath.exp(-1j * k * th))
    return out


def det_factor(term):
    """det(Id - A) for the class action A: product of (1 - eigenvalue)."""
    out = 1.0 + 0j
    for ev in holonomy_eigenvalues(term):
        out *= 1.0 - ev
    return out


# ---------------------------------------------------------------------------
# class iteration with certified tails

@dataclass(frozen=True)
class ClassStream:
    """All prime powers up to a length cutoff plus the certified bound on
    everything omitted (absolute value, before any character factor)."""

    terms: tuple
    tail_bound: float
    cutoff: float

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


class _TailColumns:
    """One spectrum's entries as numpy columns for the tail search: lengths,
    weights mult * (1 - e^{-l})^{-2n} (the safe determinant bound), and the
    fitted growth constant.  Also holds the last ClassStream built from
    them and the key it was built for."""

    def __init__(self, spectrum):
        entries = spectrum.entries
        two_n = 2 * spectrum.n
        self.entries = entries
        self.n = spectrum.n
        self.lengths = np.fromiter((g.length for g in entries), float, len(entries))
        mult = np.fromiter((g.multiplicity for g in entries), float, len(entries))
        with np.errstate(divide="ignore"):
            self.weights = mult * (1.0 - np.exp(-self.lengths)) ** (-two_n)
        order = np.argsort(self.lengths, kind="stable")
        counts = np.cumsum(mult[order])
        self.growth = float(
            np.max(counts * np.exp(-two_n * self.lengths[order]), initial=0.0)
        )
        self.stream_key = None
        self.stream = None


def _columns(spectrum):
    """The spectrum's tail columns, rebuilt when its entries or n change."""
    cols = getattr(spectrum, "_tail_columns", None)
    if cols is None or cols.entries is not spectrum.entries or cols.n != spectrum.n:
        cols = _TailColumns(spectrum)
        spectrum._tail_columns = cols
    return cols


def _unknown_tail(spectrum, x, growth):
    """Bound on the class sum over primes missing from the spectrum, all of
    which have length > completeness_cutoff.  Zero when the spectrum is
    declared complete to infinity or certifies zero growth; infinite when
    the decay rate does not beat the 2n counting growth."""
    rc = spectrum.completeness_cutoff
    if growth == 0.0 or math.isinf(rc):
        return 0.0
    two_n = 2 * spectrum.n
    if rc <= 0.0 or x <= two_n:
        return math.inf
    try:
        head = (-math.expm1(-rc)) ** (-two_n)
    except OverflowError:
        return math.inf  # a cutoff this close to zero bounds nothing
    return (
        head
        / -math.expm1(-x * rc)
        * growth
        * x
        * math.exp(-(x - two_n) * rc)
        / (x - two_n)
    )


def _total_tail(cols, x, unknown):
    """The certified bound on everything omitted, as a function of the
    cutoff: `unknown` plus, over listed primes, the geometric tail

        w / k0 * e^{-x l k0} / (1 - e^{-x l}),  k0 = floor(cutoff / l) + 1,

    of the powers past the cutoff."""
    lengths = cols.lengths
    xl = x * lengths
    with np.errstate(divide="ignore"):
        scale = cols.weights / (1.0 - np.exp(-xl))
    if not np.isfinite(scale).all():
        # a prime whose powers do not decay in floating point
        return lambda cutoff: math.inf

    def total(cutoff):
        k0 = np.floor(cutoff / lengths) + 1.0
        return unknown + float(np.sum(scale / k0 * np.exp(-xl * k0)))

    return total


def class_iterator(spectrum, s_real, tail_target, cutoff=None):
    """Enumerate prime powers with k * l0 <= cutoff, the cutoff chosen (or
    given) so that the certified bound on all omitted classes is at most
    tail_target.  The bound combines per-prime geometric tails, the safe
    determinant bound (1 - e^{-l})^{-2n}, and the growth constant for primes
    beyond the completeness cutoff.  Terms stream in order of total length.

    The last stream is kept on the spectrum and returned again for the same
    entries, n, completeness cutoff, growth constant, decay rate, target
    and explicit cutoff, so evaluations that differ only in Im(s) search
    once."""
    x = float(s_real)
    if not math.isfinite(x):
        raise InputError(f"decay rate must be finite, got {x}")
    if x <= 0:
        raise ConvergenceRegionError(
            f"class sums require a positive decay rate, got {x}"
        )
    if not (math.isfinite(tail_target) and tail_target > 0):
        raise InputError(
            f"tail_target must be positive and finite, got {tail_target}"
        )
    if cutoff is not None:
        cutoff = float(cutoff)
        if not (math.isfinite(cutoff) and cutoff >= 0):
            raise InputError(f"cutoff must be finite and >= 0, got {cutoff}")
    cols = _columns(spectrum)
    key = (spectrum.completeness_cutoff, spectrum.growth_constant, x,
           tail_target, cutoff)
    if cols.stream_key == key:
        return cols.stream
    growth = spectrum.growth_constant
    if growth is None:
        growth = cols.growth
    two_n = 2 * spectrum.n
    unknown = _unknown_tail(spectrum, x, growth)
    if math.isinf(unknown):
        # unlisted primes beyond the completeness cutoff cannot be bounded
        if x <= two_n:
            raise ConvergenceRegionError(
                f"class sums over an incomplete spectrum certified only for "
                f"s_real > {two_n}, got {x}"
            )
        raise InsufficientSpectrumError(
            f"completeness cutoff {spectrum.completeness_cutoff} admits no "
            "tail bound"
        )
    if unknown > tail_target:
        raise InsufficientSpectrumError(
            f"spectrum complete to {spectrum.completeness_cutoff} certifies "
            f"at best {unknown:.3e} > target {tail_target:.3e}"
        )
    total_tail = _total_tail(cols, x, unknown)
    if cutoff is None:
        lo = 0.0
        hi = max(1.0, float(cols.lengths.max(initial=1.0)))
        for _ in range(200):
            if total_tail(hi) <= tail_target:
                break
            hi *= 2.0
        else:
            raise InsufficientSpectrumError("could not reach the tail target")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if total_tail(mid) <= tail_target:
                hi = mid
            else:
                lo = mid
        cutoff = hi
    bound = total_tail(cutoff)
    if bound > tail_target:
        raise InsufficientSpectrumError(
            f"cutoff {cutoff} certifies {bound:.3e} > target {tail_target:.3e}"
        )
    terms = []
    for idx in np.flatnonzero(cols.lengths <= cutoff).tolist():
        g = spectrum.entries[idx]
        k = 1
        while k * g.length <= cutoff:
            terms.append((k * g.length, idx, k, ClassTerm(g, k)))
            k += 1
    terms.sort(key=lambda t: t[:3])
    cols.stream = ClassStream(
        terms=tuple(t[3] for t in terms), tail_bound=bound, cutoff=cutoff
    )
    cols.stream_key = key
    return cols.stream
