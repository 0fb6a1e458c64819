import io
import json
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoflow.rootdata as rd
import geoflow.spectrum as sp
import geoflow.zeta as zt
from geoflow.errors import (
    ConvergenceRegionError,
    InputError,
    InsufficientSpectrumError,
)


def one_prime(length=1.0, n=1, cutoff=math.inf, angles=None):
    g = sp.PrimeGeodesic(length, angles if angles is not None else (0.0,) * n)
    return sp.LengthSpectrum(n=n, entries=[g], completeness_cutoff=cutoff)


# ---------------------------------------------------------------------------
# value objects

def test_prime_geodesic_normalizes_fields():
    g = sp.PrimeGeodesic("1.5", [0.25], multiplicity="2")
    assert g.length == 1.5
    assert g.angles == (0.25,)
    assert g.multiplicity == 2


@pytest.mark.parametrize("kwargs", [
    dict(length=0.0, angles=(0.0,)),
    dict(length=-1.0, angles=(0.0,)),
    dict(length=math.inf, angles=(0.0,)),
    dict(length=1.0, angles=(math.nan,)),
    dict(length=1.0, angles=(0.0,), multiplicity=0),
])
def test_prime_geodesic_rejects_bad_input(kwargs):
    with pytest.raises(InputError):
        sp.PrimeGeodesic(**kwargs)


def test_length_spectrum_checks_angle_arity():
    g = sp.PrimeGeodesic(1.0, (0.0, 0.0))
    with pytest.raises(InputError):
        sp.LengthSpectrum(n=1, entries=[g])


def test_class_term_length():
    g = sp.PrimeGeodesic(0.75, (0.0,))
    assert sp.ClassTerm(g, 4).length == 3.0
    with pytest.raises(InputError):
        sp.ClassTerm(g, 0)


# ---------------------------------------------------------------------------
# serialization

def test_jsonl_round_trip_is_bit_exact():
    spec = sp.synthesize(2, 25, seed=3)
    text = sp.serialize(spec, "jsonl")
    back = sp.parse(text, "jsonl")
    assert back == spec


def test_csv_round_trip_is_bit_exact():
    spec = sp.synthesize(3, 25, seed=4)
    text = sp.serialize(spec, "csv")
    back = sp.parse(text, "csv")
    assert back == spec


def test_jsonl_header_shape():
    spec = sp.synthesize(2, 3, seed=9)
    first = sp.serialize(spec, "jsonl").splitlines()[0]
    head = json.loads(first)
    assert head["format"] == "geoflow-spectrum"
    assert head["version"] == 1
    assert head["n"] == 2
    assert head["cutoff"] == spec.completeness_cutoff
    assert head["growth"] == spec.growth_constant


def test_csv_header_shape():
    spec = sp.synthesize(2, 3, seed=9)
    lines = sp.serialize(spec, "csv").splitlines()
    assert lines[0].startswith("# geoflow-spectrum version=1 n=2 cutoff=")
    assert lines[1] == "length,angle_2,angle_3,mult"


def test_infinite_cutoff_round_trips_both_formats():
    spec = one_prime(cutoff=math.inf)
    for fmt in ("jsonl", "csv"):
        back = sp.parse(sp.serialize(spec, fmt), fmt)
        assert math.isinf(back.completeness_cutoff)


def test_parse_accepts_file_objects():
    spec = sp.synthesize(1, 5, seed=1)
    buf = io.StringIO(sp.serialize(spec, "jsonl"))
    assert sp.parse(buf) == spec


def test_parse_reports_line_numbers():
    spec = sp.synthesize(1, 3, seed=1)
    lines = sp.serialize(spec, "jsonl").splitlines()
    lines[2] = '{"length": -3, "angles": [0.0], "mult": 1}'
    with pytest.raises(InputError, match="line 3"):
        sp.parse("\n".join(lines), "jsonl")


HEAD1 = '{"format": "geoflow-spectrum", "version": 1, "n": 1, "cutoff": 3.0}'
GOOD_ROW = '{"length": 1.0, "angles": [0.0], "mult": 1}'
CSV_HEAD1 = "# geoflow-spectrum version=1 n=1 cutoff=3.0\nlength,angle_2,mult"

# one bad record per case, as (JSONL line, CSV line, message fragment)
BAD_ROWS = {
    "length-nonpositive": ('{"length": 0.0, "angles": [0.0], "mult": 1}',
                           "0.0,0.0,1", "geodesic length must be positive"),
    "angle-nan": ('{"length": 1.0, "angles": [NaN], "mult": 1}',
                  "1.0,nan,1", "holonomy angles must be finite"),
    "mult-zero": ('{"length": 1.0, "angles": [0.0], "mult": 0}',
                  "1.0,0.0,0", "multiplicity must be >= 1"),
    "angle-count": ('{"length": 1.0, "angles": [0.0, 0.5], "mult": 1}',
                    "1.0,0.0,0.5,1", "2 angles, expected 1|4 fields, expected 3"),
    "missing-key": ('{"angles": [0.0], "mult": 1}',
                    "1.0,1", "malformed record: 'length'|2 fields, expected 3"),
    "non-numeric": ('{"length": "abc", "angles": [0.0], "mult": 1}',
                    "1.0,abc,1", "malformed record: could not convert"),
}


def good_rows(fmt, count):
    spec = sp.synthesize(1, count, seed=2)
    lines = sp.serialize(spec, fmt).splitlines()
    return lines[1:] if fmt == "jsonl" else lines[2:]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
@pytest.mark.parametrize("before, blanks", [(1, 2), (3000, 0), (3000, 5)],
                         ids=["early", "second-chunk", "second-chunk-blanks"])
def test_parse_names_physical_line_of_bad_row(fmt, case, before, blanks):
    jsonl_row, csv_row, message = BAD_ROWS[case]
    head = HEAD1 if fmt == "jsonl" else CSV_HEAD1
    rows = good_rows(fmt, before + 1)
    lines = (head.splitlines() + [""] * blanks + rows[:before]
             + [jsonl_row if fmt == "jsonl" else csv_row] + rows[before:])
    bad_no = len(head.splitlines()) + blanks + before + 1
    with pytest.raises(InputError, match=rf"^line {bad_no}: ({message})"):
        sp.parse("\n".join(lines) + "\n", fmt)


# records that run over two lines, each paired with a line holding two
# records, so that the file as a whole still has one record per line
SPLIT_RECORDS = {
    "two-then-split": [
        '{"length": 1.0, "angles": [0.0], "mult": 1}, {"length": 2.0',
        '"angles": [0.0], "mult": 1}',
    ],
    "split-then-two": [
        '{"length": 1.0, "angles": [0.0], "mult": 1, "note": [[1',
        '2]]}',
        '{"length": 1.5, "angles": [0.0], "mult": 1}, '
        '{"length": 2.0, "angles": [0.0], "mult": 1}',
    ],
}


@pytest.mark.parametrize("case", sorted(SPLIT_RECORDS))
@pytest.mark.parametrize("before", [1, 3000], ids=["early", "second-chunk"])
def test_parse_refuses_record_split_over_two_lines(case, before):
    rows = good_rows("jsonl", before + 1)
    lines = [HEAD1] + rows[:before] + SPLIT_RECORDS[case] + rows[before:]
    with pytest.raises(InputError, match=rf"^line {before + 2}: malformed record"):
        sp.parse("\n".join(lines) + "\n", "jsonl")


@pytest.mark.parametrize("fields, message", [
    ('"cutoff": 3.0', "n must be an integer >= 1, got None"),
    ('"n": "1", "cutoff": 3.0', "n must be an integer >= 1, got '1'"),
    ('"n": 0, "cutoff": 3.0', "n must be an integer >= 1, got 0"),
    ('"n": 1.0, "cutoff": 3.0', "n must be an integer >= 1, got 1.0"),
    ('"n": true, "cutoff": 3.0', "n must be an integer >= 1, got True"),
    ('"n": 1, "cutoff": NaN', "completeness_cutoff must be >= 0, got nan"),
    ('"n": 1, "cutoff": -1', "completeness_cutoff must be >= 0"),
    ('"n": 1, "cutoff": "x"', "completeness_cutoff must be a number"),
    ('"n": 1, "cutoff": 3.0, "growth": "x"', "growth constant must be a number"),
    ('"n": 1, "cutoff": 3.0, "growth": -1', "growth constant must be finite and >= 0"),
    ('"n": 1, "cutoff": 3.0, "growth": NaN', "growth constant must be finite and >= 0"),
    ('"n": 1, "cutoff": 3.0, "growth": Infinity',
     "growth constant must be finite and >= 0"),
])
def test_jsonl_header_fields_are_checked(fields, message):
    text = ('{"format": "geoflow-spectrum", "version": 1, ' + fields + "}\n"
            + GOOD_ROW + "\n")
    with pytest.raises(InputError, match="^line 1: " + re.escape(message)):
        sp.parse(text, "jsonl")


@pytest.mark.parametrize("meta, message", [
    ("n=x cutoff=3.0", "n must be an integer >= 1, got 'x'"),
    ("n=0 cutoff=3.0", "n must be an integer >= 1, got 0"),
    ("n=1 cutoff=nan", "completeness_cutoff must be >= 0, got nan"),
    ("n=1 cutoff=x", "completeness_cutoff must be a number"),
    ("n=1 cutoff=3.0 growth=x", "growth constant must be a number"),
    ("n=1 cutoff=3.0 growth=-1", "growth constant must be finite and >= 0"),
    ("n=1 cutoff=3.0 growth=nan", "growth constant must be finite and >= 0"),
])
def test_csv_metadata_fields_are_checked(meta, message):
    text = f"# geoflow-spectrum version=1 {meta}\nlength,angle_2,mult\n1.0,0.0,1\n"
    with pytest.raises(InputError, match="^line 1: " + re.escape(message)):
        sp.parse(text, "csv")


def test_header_growth_round_trips_when_valid():
    for growth in (0.0, 2.5):
        spec = one_prime(cutoff=3.0)
        spec.growth_constant = growth
        for fmt in ("jsonl", "csv"):
            assert sp.parse(sp.serialize(spec, fmt), fmt).growth_constant == growth


@pytest.mark.parametrize("kwargs", [
    dict(n="1"),
    dict(n=0),
    dict(n=1, completeness_cutoff=math.nan),
    dict(n=1, growth_constant=-1.0),
    dict(n=1, growth_constant=math.nan),
])
def test_length_spectrum_rejects_bad_fields(kwargs):
    with pytest.raises(InputError):
        sp.LengthSpectrum(**kwargs)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_across_parse_chunks(fmt):
    spec = sp.synthesize(2, 5000, seed=6)
    back = sp.parse(sp.serialize(spec, fmt), fmt)
    assert back == spec
    assert back.entries == spec.entries


def test_parse_rejects_missing_header():
    with pytest.raises(InputError):
        sp.parse('{"length": 1.0, "angles": [0.0], "mult": 1}', "jsonl")
    with pytest.raises(InputError):
        sp.parse("", "jsonl")


def test_parse_rejects_unknown_format():
    with pytest.raises(InputError):
        sp.parse("x", "xml")


def test_from_complex_lengths():
    spec = sp.from_complex_lengths([complex(1.0, 0.5), complex(2.0, -0.25)],
                                   cutoff=2.0)
    assert spec.n == 1
    assert [g.length for g in spec.entries] == [1.0, 2.0]
    assert [g.angles for g in spec.entries] == [(0.5,), (-0.25,)]
    assert spec.completeness_cutoff == 2.0


# ---------------------------------------------------------------------------
# validation

def test_validate_fits_growth_constant():
    report = sp.validate(one_prime())
    # single unit-length prime: N(1) * e^{-2n} with n = 1
    assert report.fitted_growth == pytest.approx(math.exp(-2), abs=1e-16)
    assert report.sorted_ok
    assert report.ok()


def test_validate_records_constant_on_spectrum():
    spec = one_prime()
    spec.growth_constant = None
    sp.validate(spec)
    assert spec.growth_constant == pytest.approx(math.exp(-2))


def test_validate_counts_multiplicity():
    g = sp.PrimeGeodesic(1.0, (0.0,), multiplicity=3)
    spec = sp.LengthSpectrum(n=1, entries=[g], completeness_cutoff=1.0)
    assert sp.validate(spec).entry_count == 3
    assert spec.growth_constant == pytest.approx(3 * math.exp(-2))


def test_validate_flags_unsorted_without_raising():
    gs = [sp.PrimeGeodesic(2.0, (0.0,)), sp.PrimeGeodesic(1.0, (0.0,))]
    spec = sp.LengthSpectrum(n=1, entries=gs, completeness_cutoff=2.0)
    report = sp.validate(spec)
    assert not report.sorted_ok
    assert not report.ok()
    assert any("sorted" in w for w in report.warnings)


def test_validate_growth_bound_warning():
    report = sp.validate(one_prime(), growth_bound=1e-3)
    assert any("exceeds bound" in w for w in report.warnings)
    assert not report.ok()


# ---------------------------------------------------------------------------
# synthesis

def test_synthesize_is_deterministic():
    a = sp.synthesize(2, 30, seed=42)
    b = sp.synthesize(2, 30, seed=42)
    assert a == b
    assert a != sp.synthesize(2, 30, seed=43)


def test_synthesize_shape():
    spec = sp.synthesize(2, 30, seed=42)
    assert spec.n == 2
    assert len(spec) == 30
    lengths = [g.length for g in spec]
    assert lengths == sorted(lengths)
    assert all(l > 0.5 for l in lengths)
    assert all(g.multiplicity == 1 for g in spec)
    assert all(0 <= a < 2 * math.pi for g in spec for a in g.angles)
    assert spec.completeness_cutoff == lengths[-1]
    assert spec.growth_constant is not None


def test_synthesize_empty():
    spec = sp.synthesize(1, 0, seed=0)
    assert len(spec) == 0
    assert spec.completeness_cutoff == 0.0


def test_synthesize_rejects_negative_count():
    with pytest.raises(InputError):
        sp.synthesize(1, -1, seed=0)


# ---------------------------------------------------------------------------
# per-class quantities

def test_holonomy_eigenvalues_shape_and_values():
    g = sp.PrimeGeodesic(1.0, (0.5, 1.25))
    evs = sp.holonomy_eigenvalues(sp.ClassTerm(g, 2))
    assert len(evs) == 4
    r = math.exp(-2.0)
    expected = {
        complex(r * math.cos(1.0), r * math.sin(1.0)),
        complex(r * math.cos(1.0), -r * math.sin(1.0)),
        complex(r * math.cos(2.5), r * math.sin(2.5)),
        complex(r * math.cos(2.5), -r * math.sin(2.5)),
    }
    for ev in evs:
        assert min(abs(ev - e) for e in expected) < 1e-15


def test_det_factor_frozen_value():
    g = sp.PrimeGeodesic(1.0, (0.0,))
    got = sp.det_factor(sp.ClassTerm(g, 1))
    assert got.real == pytest.approx((1 - math.exp(-1)) ** 2, abs=1e-15)
    assert got.imag == 0.0


def test_det_factor_positive_real_for_real_angles():
    g = sp.PrimeGeodesic(0.8, (0.9,))
    v = sp.det_factor(sp.ClassTerm(g, 3))
    assert abs(v.imag) < 1e-15
    assert v.real > 0


# ---------------------------------------------------------------------------
# class iteration

def test_class_iterator_powers_at_explicit_cutoff():
    stream = sp.class_iterator(one_prime(), 4.0, 1e-6, cutoff=3.5)
    assert [t.power for t in stream] == [1, 2, 3]
    assert stream.cutoff == 3.5
    assert stream.tail_bound <= 1e-6


def test_class_iterator_orders_by_total_length():
    ga = sp.PrimeGeodesic(0.9, (0.0,))
    gb = sp.PrimeGeodesic(1.25, (0.0,))
    spec = sp.LengthSpectrum(n=1, entries=[ga, gb],
                             completeness_cutoff=math.inf)
    stream = sp.class_iterator(spec, 3.0, 1e-8)
    lengths = [t.length for t in stream]
    assert lengths == sorted(lengths)
    assert {(round(t.prime.length, 2), t.power) for t in stream} >= {
        (0.9, 1), (1.25, 1), (0.9, 2)}


def test_class_iterator_tail_shrinks_with_target():
    spec = sp.synthesize(1, 50, seed=12)
    spec.completeness_cutoff = math.inf  # treat the list as exhaustive
    loose = sp.class_iterator(spec, 4.0, 1e-4)
    tight = sp.class_iterator(spec, 4.0, 1e-9)
    assert tight.cutoff > loose.cutoff
    assert tight.tail_bound < loose.tail_bound <= 1e-4


def test_class_iterator_complete_spectrum_allows_small_decay():
    # declared complete to infinity: no unlisted-prime bound is needed, so
    # any positive decay rate is certifiable
    stream = sp.class_iterator(one_prime(), 0.5, 1e-8)
    assert stream.tail_bound <= 1e-8


def test_class_iterator_rejects_nonpositive_decay():
    with pytest.raises(ConvergenceRegionError):
        sp.class_iterator(one_prime(), 0.0, 1e-8)
    with pytest.raises(ConvergenceRegionError):
        sp.class_iterator(one_prime(), -1.0, 1e-8)


def test_class_iterator_rejects_bad_target():
    with pytest.raises(InputError):
        sp.class_iterator(one_prime(), 3.0, 0.0)


def test_class_iterator_incomplete_spectrum_at_low_decay():
    spec = sp.synthesize(1, 20, seed=5)
    with pytest.raises(ConvergenceRegionError, match="incomplete"):
        sp.class_iterator(spec, 1.5, 1e-8)


def test_class_iterator_insufficient_spectrum():
    spec = sp.synthesize(1, 20, seed=5)  # complete only to ~5
    with pytest.raises(InsufficientSpectrumError):
        sp.class_iterator(spec, 2.5, 1e-13)


def test_class_iterator_explicit_cutoff_that_cannot_certify():
    with pytest.raises(InsufficientSpectrumError):
        sp.class_iterator(one_prime(), 4.0, 1e-12, cutoff=1.0)


def test_class_iterator_includes_every_listed_prime_power():
    # primes beyond the completeness cutoff still contribute their classes
    g_low = sp.PrimeGeodesic(1.0, (0.0,))
    g_high = sp.PrimeGeodesic(6.0, (0.3,))
    spec = sp.LengthSpectrum(n=1, entries=[g_low, g_high],
                             completeness_cutoff=5.0)
    sp.validate(spec)
    stream = sp.class_iterator(spec, 4.0, 1e-4, cutoff=6.5)
    assert any(t.prime is g_high for t in stream)


def test_class_iterator_minimality_of_chosen_cutoff():
    spec = sp.synthesize(1, 40, seed=8)
    spec.completeness_cutoff = math.inf
    stream = sp.class_iterator(spec, 3.0, 1e-8)
    # nudging the cutoff down by a hair must break the certificate
    with pytest.raises(InsufficientSpectrumError):
        sp.class_iterator(spec, 3.0, 1e-8, cutoff=stream.cutoff * 0.98)


# ---------------------------------------------------------------------------
# properties

angle = st.floats(min_value=0.0, max_value=6.28, allow_nan=False)


@st.composite
def spectra(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=0, max_value=12))
    lengths = sorted(
        draw(st.lists(st.floats(min_value=0.1, max_value=9.0),
                      min_size=count, max_size=count))
    )
    entries = [
        sp.PrimeGeodesic(
            l, tuple(draw(st.lists(angle, min_size=n, max_size=n))),
            draw(st.integers(min_value=1, max_value=3)))
        for l in lengths
    ]
    cutoff = draw(st.sampled_from([0.0, 5.0, math.inf]))
    return sp.LengthSpectrum(n=n, entries=entries, completeness_cutoff=cutoff)


@settings(max_examples=60, deadline=None)
@given(spectra(), st.sampled_from(["jsonl", "csv"]))
def test_round_trip_property(spec, fmt):
    assert sp.parse(sp.serialize(spec, fmt), fmt) == spec


@settings(max_examples=30, deadline=None)
@given(spectra())
def test_validate_never_raises(spec):
    report = sp.validate(spec)
    assert report.fitted_growth >= 0.0


# ---------------------------------------------------------------------------
# the tail engine against a per-prime reference

def reference_bound(spec, x, cutoff):
    """The certified tail bound, one prime at a time in pure Python."""
    two_n = 2 * spec.n
    growth = spec.growth_constant
    if growth is None:
        seen, growth = 0, 0.0
        for g in sorted(spec.entries, key=lambda g: g.length):
            seen += g.multiplicity
            growth = max(growth, seen * math.exp(-two_n * g.length))
    rc = spec.completeness_cutoff
    if growth == 0.0 or math.isinf(rc):
        total = 0.0
    elif x <= two_n:
        total = math.inf
    else:
        total = ((1.0 - math.exp(-rc)) ** (-two_n) / (1.0 - math.exp(-x * rc))
                 * growth * x * math.exp(-(x - two_n) * rc) / (x - two_n))
    for g in spec.entries:
        k0 = int(math.floor(cutoff / g.length)) + 1
        exl = math.exp(-x * g.length)
        total += (g.multiplicity * (1.0 - math.exp(-g.length)) ** (-two_n)
                  / k0 * exl ** k0 / (1.0 - exl))
    return total


def reference_classes(spec, cutoff):
    out = []
    for idx, g in enumerate(spec.entries):
        k = 1
        while k * g.length <= cutoff:
            out.append((k * g.length, idx, k))
            k += 1
    return [(spec.entries[idx], k) for _, idx, k in sorted(out)]


@st.composite
def tail_cases(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    entries = [
        sp.PrimeGeodesic(l, (0.5,) * n, m)
        for l, m in draw(st.lists(
            st.tuples(st.floats(min_value=0.1, max_value=4.0),
                      st.integers(min_value=1, max_value=3)),
            max_size=8))
    ]  # drawn unsorted, repeats allowed
    rc = draw(st.sampled_from([math.inf, 1.0, 3.0, 5.0]))
    spec = sp.LengthSpectrum(n=n, entries=entries, completeness_cutoff=rc)
    low = 0.3 if math.isinf(rc) else 2 * n + 0.5
    x = draw(st.floats(min_value=low, max_value=low + 6.0))
    return spec, x


@settings(max_examples=80, deadline=None)
@given(tail_cases(), st.floats(min_value=0.0, max_value=12.0),
       st.sampled_from([1e-3, 1e-6, 1e-10]))
def test_tail_engine_matches_per_prime_reference(case, cutoff, target):
    spec, x = case
    # explicit cutoff: the bound and the class list at that cutoff
    expect = reference_bound(spec, x, cutoff)
    stream = sp.class_iterator(spec, x, 2.0 * expect + 1e-300, cutoff=cutoff)
    assert stream.tail_bound == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert [(t.prime, t.power) for t in stream] == reference_classes(spec, cutoff)
    # searched cutoff: the reference certifies it and lists the same classes
    try:
        stream = sp.class_iterator(spec, x, target)
    except InsufficientSpectrumError:
        assert reference_bound(spec, x, 1e6) > target * (1 - 1e-12)
        return
    expect = reference_bound(spec, x, stream.cutoff)
    assert expect <= target * (1 + 1e-12)
    assert stream.tail_bound == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert [(t.prime, t.power) for t in stream] == reference_classes(
        spec, stream.cutoff)
    assert spec.growth_constant is None


# ---------------------------------------------------------------------------
# stream reuse

def reuse_spectrum():
    spec = sp.synthesize(1, 40, seed=8)
    spec.completeness_cutoff = 12.0
    spec.growth_constant = None
    return spec


def fresh_stream(spec, x, target):
    """The stream from a spectrum object that has never been searched."""
    copy = sp.LengthSpectrum(n=spec.n, entries=spec.entries,
                             completeness_cutoff=spec.completeness_cutoff,
                             growth_constant=spec.growth_constant)
    return sp.class_iterator(copy, x, target)


def same_stream(a, b):
    return (a.terms == b.terms and a.tail_bound == b.tail_bound
            and a.cutoff == b.cutoff)


def test_class_iterator_reuses_stream_for_identical_call():
    spec = reuse_spectrum()
    first = sp.class_iterator(spec, 4.0, 1e-8)
    assert sp.class_iterator(spec, 4.0, 1e-8) is first
    assert sp.class_iterator(spec, 4.0, 1e-8, cutoff=first.cutoff) is not first


@pytest.mark.parametrize("change", [
    lambda spec: setattr(spec, "completeness_cutoff", 20.0),
    lambda spec: setattr(spec, "growth_constant", 0.5),
    lambda spec: setattr(spec, "entries", spec.entries[:30]),
    lambda spec: setattr(spec, "entries", tuple(spec.entries)[::-1]),
])
def test_class_iterator_fresh_stream_after_change(change):
    spec = reuse_spectrum()
    first = sp.class_iterator(spec, 4.0, 1e-8)
    change(spec)
    again = sp.class_iterator(spec, 4.0, 1e-8)
    assert again is not first
    assert same_stream(again, fresh_stream(spec, 4.0, 1e-8))


def test_class_iterator_fresh_stream_for_new_target_or_rate():
    spec = reuse_spectrum()
    first = sp.class_iterator(spec, 4.0, 1e-8)
    for x, target in [(4.0, 1e-9), (4.5, 1e-8)]:
        again = sp.class_iterator(spec, x, target)
        assert again is not first
        assert same_stream(again, fresh_stream(spec, x, target))


def test_class_iterator_leaves_growth_constant_unset():
    spec = reuse_spectrum()
    sp.class_iterator(spec, 4.0, 1e-8)
    assert spec.growth_constant is None
    assert sp.validate(spec).fitted_growth == spec.growth_constant > 0.0


# ---------------------------------------------------------------------------
# columns, lazy entries and pickling

def test_evaluation_builds_prime_objects_only_below_cutoff(monkeypatch):
    text = sp.serialize(sp.synthesize(1, 2000, seed=21), "jsonl")
    built = []
    post_init = sp.PrimeGeodesic.__post_init__

    def counting(self):
        built.append(self.length)
        post_init(self)

    monkeypatch.setattr(sp.PrimeGeodesic, "__post_init__", counting)
    spec = sp.parse(text)
    assert built == []
    value = zt.selberg_Z(6.0, rd.Irrep(rd.group_D(1), (0,)), spec, 1e-10)
    assert 0 < len(built) < len(spec)
    assert max(built) <= value.cutoff_used


def test_entries_view_matches_columns():
    spec = sp.parse(sp.serialize(sp.synthesize(2, 40, seed=4), "jsonl"))
    assert spec.entries is spec.entries
    assert [g.length for g in spec.entries] == spec.lengths.tolist()
    assert [list(g.angles) for g in spec.entries] == spec.angles.tolist()
    assert [g.multiplicity for g in spec.entries] == spec.mult.tolist()
    with pytest.raises(ValueError):
        spec.lengths[0] = 1.0


def test_pickle_round_trip_carries_columns_only():
    text = sp.serialize(sp.synthesize(1, 300, seed=5), "jsonl")
    spec = sp.parse(text)
    fresh_size = len(pickle.dumps(spec))
    first = sp.class_iterator(spec, 4.0, 1e-8)
    spec.entries  # build every PrimeGeodesic
    data = pickle.dumps(spec)
    assert len(data) == fresh_size
    back = pickle.loads(data)
    assert back == spec
    assert not back.lengths.flags.writeable
    assert same_stream(sp.class_iterator(back, 4.0, 1e-8), first)


@st.composite
def tied_spectra(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    value = st.sampled_from([0.5, 1.0, 2.0])
    rows = draw(st.lists(st.tuples(value, st.lists(value, min_size=n, max_size=n)),
                         max_size=6))
    return sp.LengthSpectrum(n=n, entries=[sp.PrimeGeodesic(l, a) for l, a in rows])


@settings(max_examples=80, deadline=None)
@given(tied_spectra())
def test_validate_sortedness_matches_key_sort(spec):
    keys = [(g.length, g.angles) for g in spec.entries]
    assert sp.validate(spec).sorted_ok == (keys == sorted(keys))


# ---------------------------------------------------------------------------
# bad input to the class iterator

@pytest.mark.parametrize("x, target, cutoff", [
    (math.nan, 1e-8, None),
    (math.inf, 1e-8, None),
    (3.0, math.nan, None),
    (3.0, math.inf, None),
    (4.0, 1e-8, math.nan),
    (4.0, 1e-8, math.inf),
    (4.0, 1e-8, -1.0),
], ids=["rate-nan", "rate-inf", "target-nan", "target-inf", "cutoff-nan",
        "cutoff-inf", "cutoff-negative"])
def test_class_iterator_rejects_non_finite_input(x, target, cutoff):
    with pytest.raises(InputError):
        sp.class_iterator(one_prime(), x, target, cutoff=cutoff)
