"""Geodesic length spectra with torus holonomy.

A spectrum is a list of prime geodesics, each carrying its length, the
torus angles of a chosen spin lift of its holonomy class, and a
multiplicity, held as numpy columns.  The module handles JSONL and CSV
ingestion with lossless round-trips, report-based validation with a fitted
exponential growth constant, deterministic synthesis for testing,
per-class determinant factors, and enumeration of prime powers up to a
certified tail bound.

Holonomy is stored as angles of a spin lift rather than a rotation matrix
so that half-integer characters are well defined.  The lift ambiguity
(theta versus theta + 2*pi) is the data producer's responsibility.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
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
        if self.multiplicity >= 2**63:
            raise InputError(f"multiplicity must be < 2**63, got {self.multiplicity}")


class LengthSpectrum:
    """Prime geodesics of one quotient, complete up to completeness_cutoff.

    The primes are three read-only numpy columns: `lengths` (P,), `angles`
    (P, n) and `mult` (P,).  `entries` shows them as a tuple of
    PrimeGeodesic built on first read, and class_iterator builds objects
    only for the primes it enumerates; assigning a sequence of
    PrimeGeodesic to `entries` replaces the columns.  A pickle carries the
    columns and the two fields below, nothing built from them.

    growth_constant is the C with N(R) <= C * exp(2nR), from the file
    header or recorded by validate(); while it is None, evaluations use the
    fitted C without recording it."""

    def __init__(self, n, entries=(), completeness_cutoff=0.0,
                 growth_constant=None):
        n = _checked_n(n)
        self.completeness_cutoff = _checked_cutoff(completeness_cutoff)
        self.growth_constant = _checked_growth(growth_constant)
        entries = tuple(entries)
        self._set_columns(*_entry_columns(entries, n), entries)

    @classmethod
    def _from_columns(cls, lengths, angles, mult, completeness_cutoff,
                      growth_constant):
        """A spectrum over checked columns and fields, taken without a copy."""
        spectrum = cls.__new__(cls)
        spectrum.completeness_cutoff = completeness_cutoff
        spectrum.growth_constant = growth_constant
        spectrum._set_columns(lengths, angles, mult)
        return spectrum

    def __reduce__(self):
        return LengthSpectrum._from_columns, (
            self.lengths, self.angles, self.mult,
            self.completeness_cutoff, self.growth_constant,
        )

    def _set_columns(self, lengths, angles, mult, entries=None):
        for column in (lengths, angles, mult):
            column.flags.writeable = False
        self.lengths, self.angles, self.mult = lengths, angles, mult
        # derived data, dropped whenever the columns change
        self._entries = entries
        self._built = list(entries) if entries is not None else [None] * len(lengths)
        self._tail = None
        self._stream_key = self._stream = None

    @property
    def n(self):
        return self.angles.shape[1]

    @property
    def entries(self):
        """The primes as a tuple of PrimeGeodesic, built on first request."""
        if self._entries is None:
            self._entries = tuple(self._primes(range(len(self))))
        return self._entries

    @entries.setter
    def entries(self, value):
        value = tuple(value)
        self._set_columns(*_entry_columns(value, self.n), value)

    def _primes(self, indices):
        """The PrimeGeodesic objects at `indices`, each built once."""
        built = self._built
        for i in indices:
            if built[i] is None:
                built[i] = PrimeGeodesic(self.lengths[i], self.angles[i], self.mult[i])
        return [built[i] for i in indices]

    def __len__(self):
        return len(self.lengths)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, LengthSpectrum):
            return NotImplemented
        return (
            self.completeness_cutoff == other.completeness_cutoff
            and self.growth_constant == other.growth_constant
            and self.angles.shape == other.angles.shape
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.angles, other.angles)
            and np.array_equal(self.mult, other.mult)
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"LengthSpectrum(n={self.n}, primes={len(self)}, "
            f"completeness_cutoff={self.completeness_cutoff!r}, "
            f"growth_constant={self.growth_constant!r})"
        )


def _checked_n(n):
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise InputError(f"n must be an integer >= 1, got {n!r}")
    return int(n)


def _number(value, name):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a number, got {value!r}") from None


def _checked_cutoff(cutoff):
    cutoff = _number(cutoff, "completeness_cutoff")
    if not cutoff >= 0:
        raise InputError(f"completeness_cutoff must be >= 0, got {cutoff}")
    return cutoff


def _checked_growth(growth):
    if growth is None:
        return None
    growth = _number(growth, "growth constant")
    if not (math.isfinite(growth) and growth >= 0):
        raise InputError(f"growth constant must be finite and >= 0, got {growth}")
    return growth


def _entry_columns(entries, n):
    """(lengths, angles, mult) of a sequence of PrimeGeodesic with n angles."""
    for g in entries:
        if len(g.angles) != n:
            raise InputError(
                f"entry with {len(g.angles)} angles in a spectrum with n={n}"
            )
    return (
        np.array([g.length for g in entries], dtype=float),
        np.array([g.angles for g in entries], dtype=float).reshape(len(entries), n),
        np.array([g.multiplicity for g in entries], dtype=np.int64),
    )


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
    lines = text.splitlines()
    top = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if top is None:
        raise InputError("empty stream: missing spectrum header")
    where = f"line {top + 1}"
    try:
        header = json.loads(lines[top])
    except ValueError as e:
        raise InputError(f"{where}: malformed header: {e}") from None
    if not isinstance(header, dict) or header.get("format") != _HEADER_FORMAT:
        raise InputError(f"{where}: expected format {_HEADER_FORMAT!r}")
    if header.get("version") != _VERSION:
        raise InputError(f"{where}: unsupported version {header.get('version')!r}")
    try:
        n = _checked_n(header.get("n"))
        cutoff = _checked_cutoff(header.get("cutoff", 0.0))
        growth = _checked_growth(header.get("growth"))
    except InputError as e:
        raise InputError(f"{where}: {e}") from None
    chunks = [_jsonl_chunk(lines, lo, n)
              for lo in range(top + 1, len(lines), _JSONL_CHUNK)]
    return LengthSpectrum._from_columns(*_joined(chunks, n), cutoff, growth)


# JSONL records decoded before their columns are built: the dicts of every
# record of a large file held at once cost a few MB more than chunks.
_JSONL_CHUNK = 2048

_decode = json.JSONDecoder().raw_decode


def _jsonl_chunk(lines, lo, n):
    """Columns of the records on lines[lo:lo + _JSONL_CHUNK] (0-based lo).
    Each line is decoded by itself and must be one JSON value from its first
    character to its last; plain numeric records then take numpy checks.
    Anything else (a blank line, surrounding spaces, a bad value) is read
    again line by line, which names the first bad line."""
    chunk = lines[lo:lo + _JSONL_CHUNK]
    records = []
    try:
        for ln in chunk:
            record, end = _decode(ln)
            if end != len(ln):
                break
            records.append(record)
    except ValueError:
        pass
    if len(records) == len(chunk):
        columns = _record_columns(records, n)
        if columns is not None:
            return columns
    entries = [
        _located(no, n, _json_entry, ln)
        for no, ln in enumerate(chunk, start=lo + 1)
        if ln.strip()
    ]
    return _entry_columns(entries, n)


def _record_columns(records, n):
    """Columns of decoded JSONL records if each is a {length, angles, mult}
    object of JSON numbers, with n angles and values a PrimeGeodesic
    accepts; None otherwise."""
    try:
        lengths = np.array([r["length"] for r in records])
        angles = np.array([r["angles"] for r in records])
        mult = np.array([r.get("mult", 1) for r in records])
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
        return None
    size = len(records)
    if not (lengths.shape == mult.shape == (size,) and angles.shape == (size, n)
            and lengths.dtype.kind in "if" and angles.dtype.kind in "if"
            and mult.dtype.kind == "i"):
        return None
    lengths, angles = lengths.astype(float), angles.astype(float)
    if not (np.all((lengths > 0) & np.isfinite(lengths))
            and np.isfinite(angles).all() and np.all(mult >= 1)):
        return None
    return lengths, angles, mult.astype(np.int64)


def _json_entry(line):
    rec = json.loads(line)
    return PrimeGeodesic(rec["length"], rec["angles"], rec.get("mult", 1))


def _located(no, n, make, raw):
    """make(raw), a PrimeGeodesic with n angles, or an InputError naming
    line no (1-based, counting every line of the file)."""
    try:
        g = make(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InputError(f"line {no}: malformed record: {e}") from None
    except InputError as e:
        raise InputError(f"line {no}: {e}") from None
    if len(g.angles) != n:
        raise InputError(f"line {no}: {len(g.angles)} angles, expected {n}")
    return g


def _joined(chunks, n):
    """One (lengths, angles, mult) from per-chunk columns."""
    empty = (np.empty(0), np.empty((0, n)), np.empty(0, dtype=np.int64))
    return tuple(np.concatenate(parts) for parts in zip(empty, *chunks))


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
    for length, angles, mult in _rows(spectrum):
        out.append(json.dumps({"length": length, "angles": angles, "mult": mult}))
    return "\n".join(out) + "\n"


def _rows(spectrum):
    """(length, angles list, mult) per prime, as Python floats and ints."""
    return zip(spectrum.lengths.tolist(), spectrum.angles.tolist(),
               spectrum.mult.tolist())


def _parse_csv(text):
    meta, meta_line = {}, {}
    header_cols = header_line = None
    entries = []
    for no, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k], meta_line[k] = v, no
            continue
        cols = [c.strip() for c in ln.split(",")]
        if header_cols is None:
            if cols[0] != "length" or cols[-1] != "mult":
                raise InputError(f"line {no}: expected header length,...,mult")
            header_cols, header_line = cols, no
            continue
        if len(cols) != len(header_cols):
            raise InputError(
                f"line {no}: {len(cols)} fields, expected {len(header_cols)}"
            )
        entries.append(_located(no, len(cols) - 2, _csv_entry, cols))
    if header_cols is None:
        raise InputError("missing CSV column header")

    def meta_field(key, check, default):
        try:
            return check(meta.get(key, default))
        except InputError as e:
            raise InputError(f"line {meta_line.get(key, header_line)}: {e}") from None

    n = meta_field("n", _checked_csv_n, len(header_cols) - 2)
    if len(header_cols) - 2 != n:
        raise InputError(
            f"line {header_line}: {len(header_cols) - 2} angle columns, expected {n}"
        )
    cutoff = meta_field("cutoff", _checked_cutoff, 0.0)
    growth = meta_field("growth", _checked_growth, None)
    return LengthSpectrum._from_columns(*_entry_columns(entries, n), cutoff, growth)


def _checked_csv_n(value):
    try:
        value = int(value)
    except ValueError:
        pass  # _checked_n names the value
    return _checked_n(value)


def _csv_entry(cols):
    return PrimeGeodesic(float(cols[0]), [float(c) for c in cols[1:-1]],
                         int(cols[-1]))


def _serialize_csv(spectrum):
    meta = (
        f"# {_HEADER_FORMAT} version={_VERSION} n={spectrum.n}"
        f" cutoff={spectrum.completeness_cutoff!r}"
    )
    if spectrum.growth_constant is not None:
        meta += f" growth={spectrum.growth_constant!r}"
    cols = ["length"] + [f"angle_{j}" for j in range(2, spectrum.n + 2)] + ["mult"]
    out = [meta, ",".join(cols)]
    for length, angles, mult in _rows(spectrum):
        out.append(",".join([repr(length)] + [repr(a) for a in angles] + [str(mult)]))
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
    c = _tail_columns(spectrum)[1]
    report = ValidationReport(
        entry_count=sum(spectrum.mult.tolist()),
        sorted_ok=_is_sorted(spectrum),
        fitted_growth=c,
    )
    if not report.sorted_ok:
        report.warnings.append("entries are not sorted by (length, angles)")
    spectrum.growth_constant = c
    if growth_bound is not None and c > growth_bound:
        report.warnings.append(
            f"fitted growth constant {c:.6g} exceeds bound {growth_bound:.6g}"
        )
    return report


def _is_sorted(spectrum):
    """Whether the rows ascend in (length, angles) lexicographic order."""
    keys = np.column_stack([spectrum.lengths, spectrum.angles])
    return np.array_equal(keys[np.lexsort(keys.T[::-1])], keys)


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


def _tail_columns(spectrum):
    """(weights, growth) of a spectrum, computed once per set of columns:
    per prime mult * (1 - e^{-l})^{-2n}, the safe determinant bound, and
    the fitted growth constant max over R of N(R) e^{-2nR}."""
    if spectrum._tail is None:
        two_n = 2 * spectrum.n
        lengths = spectrum.lengths
        mult = spectrum.mult.astype(float)
        with np.errstate(divide="ignore"):
            weights = mult * (1.0 - np.exp(-lengths)) ** (-two_n)
        order = np.argsort(lengths, kind="stable")
        counts = np.cumsum(mult[order])
        growth = float(np.max(counts * np.exp(-two_n * lengths[order]), initial=0.0))
        spectrum._tail = weights, growth
    return spectrum._tail


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


def _total_tail(lengths, weights, x, unknown):
    """The certified bound on everything omitted, as a function of the
    cutoff: `unknown` plus, over listed primes, the geometric tail

        w / k0 * e^{-x l k0} / (1 - e^{-x l}),  k0 = floor(cutoff / l) + 1,

    of the powers past the cutoff."""
    xl = x * lengths
    with np.errstate(divide="ignore"):
        scale = weights / (1.0 - np.exp(-xl))
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
    columns, completeness cutoff, growth constant, decay rate, target and
    explicit cutoff, so evaluations that differ only in Im(s) search once.
    PrimeGeodesic objects are built only for primes no longer than the
    cutoff."""
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
    key = (spectrum.completeness_cutoff, spectrum.growth_constant, x,
           tail_target, cutoff)
    if spectrum._stream_key == key:
        return spectrum._stream
    weights, growth = _tail_columns(spectrum)
    if spectrum.growth_constant is not None:
        growth = spectrum.growth_constant
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
    lengths = spectrum.lengths
    total_tail = _total_tail(lengths, weights, x, unknown)
    if cutoff is None:
        lo = 0.0
        hi = max(1.0, float(lengths.max(initial=1.0)))
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
    listed = np.flatnonzero(lengths <= cutoff).tolist()
    terms = []
    for idx, g in zip(listed, spectrum._primes(listed)):
        k = 1
        while k * g.length <= cutoff:
            terms.append((k * g.length, idx, k, ClassTerm(g, k)))
            k += 1
    terms.sort(key=lambda t: t[:3])
    spectrum._stream = ClassStream(
        terms=tuple(t[3] for t in terms), tail_bound=bound, cutoff=cutoff
    )
    spectrum._stream_key = key
    return spectrum._stream
