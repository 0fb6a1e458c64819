import json
import math
import re
import subprocess
import sys

import pytest

from geoflow import cli
from geoflow.cli import main
from geoflow.errors import InputError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


ONE_PRIME = (
    '{"format": "geoflow-spectrum", "version": 1, "n": 1, "cutoff": Infinity}\n'
    '{"length": 1.0, "angles": [0.0], "mult": 1}\n'
)


@pytest.fixture()
def one_prime_path(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(ONE_PRIME)
    return str(path)


@pytest.fixture()
def deep_path(tmp_path):
    code = main(["spectrum", "gen", "--n", "1", "--count", "150",
                 "--seed", "11", "-o", str(tmp_path / "deep.jsonl")])
    assert code == 0
    return str(tmp_path / "deep.jsonl")


# ---------------------------------------------------------------------------
# rep

def test_rep_report_contents(capsys):
    code, out, _ = run(capsys, "rep", "--n", "2", "--sigma", "1,0")
    assert code == 0
    assert "dim=4" in out
    assert "m: (1,0):+1 (0,0):-1" in out


def test_rep_rank_one_trivial(capsys):
    code, out, _ = run(capsys, "rep", "--n", "1", "--sigma", "0")
    assert code == 0
    assert "dim=1" in out
    assert "c=-1" in out


def test_rep_half_integral_weight(capsys):
    code, out, _ = run(capsys, "rep", "--n", "2", "--sigma", "3/2,1/2")
    assert code == 0
    assert "dim=6" in out
    assert "w0sigma=(3/2,-1/2)" in out


def test_rep_non_dominant_exits_2(capsys):
    code, _, err = run(capsys, "rep", "--n", "2", "--sigma", "2,3")
    assert code == 2
    assert "dominant" in err


def test_rep_unparseable_weight_exits_2(capsys):
    code, _, _ = run(capsys, "rep", "--n", "1", "--sigma", "zebra")
    assert code == 2


# ---------------------------------------------------------------------------
# specfun

def test_specfun_omega_with_check(capsys):
    code, out, _ = run(capsys, "specfun", "omega", "--n", "1",
                       "--sigma", "1", "--lambda", "0", "--check")
    assert code == 0
    assert out.startswith("omega=-1")
    assert "residual=" in out
    resid = float(out.split("residual=")[1])
    assert resid < 1e-10


def test_specfun_cjl_rows(capsys):
    code, out, _ = run(capsys, "specfun", "cjl", "--n", "2", "--sigma", "2,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,l,c"
    assert "2,1,0" in lines
    assert "2,2,3" in lines


def test_specfun_cnu_closed_form(capsys):
    code, out, _ = run(capsys, "specfun", "cnu", "--n", "1", "--sigma", "2",
                       "--nu", "2", "--lambda", "1")
    assert code == 0
    # 1/(i+2) = 0.4 - 0.2i
    assert "c_nu=0.4-0.2i" in out


def test_specfun_pj_reports_closed_form(capsys):
    code, out, _ = run(capsys, "specfun", "pj", "--n", "2", "--sigma", "1,0",
                       "--lambda", "1.5")
    assert code == 0
    assert "P_2=-2.25" in out
    assert "P_3=6.25+0i closed=6.25+0i" in out


def test_specfun_plancherel(capsys):
    code, out, _ = run(capsys, "specfun", "plancherel", "--n", "1",
                       "--sigma", "0")
    assert code == 0
    assert "0 -1" in out


def test_specfun_cnu_without_nu_exits_2(capsys):
    code, _, _ = run(capsys, "specfun", "cnu", "--n", "1", "--sigma", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run(capsys, "spectrum", "gen", "--n", "2", "--count",
                         "20", "--seed", "5", "-o", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()


def test_spectrum_validate_unsorted_warns_but_exits_0(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"format": "geoflow-spectrum", "version": 1, "n": 1, "cutoff": 3.0}\n'
        '{"length": 2.0, "angles": [0.0], "mult": 1}\n'
        '{"length": 1.0, "angles": [0.0], "mult": 1}\n'
    )
    code, out, _ = run(capsys, "spectrum", "validate", str(path))
    assert code == 0
    assert "sorted=violated" in out
    assert "warning:" in out
    assert "status=flagged" in out


def test_spectrum_convert_round_trip(tmp_path, capsys, deep_path):
    csv_path = tmp_path / "conv.csv"
    back_path = tmp_path / "back.jsonl"
    assert run(capsys, "spectrum", "convert", deep_path,
               "-o", str(csv_path))[0] == 0
    assert run(capsys, "spectrum", "convert", str(csv_path),
               "-o", str(back_path))[0] == 0
    with open(deep_path) as fh:
        original = fh.read()
    assert back_path.read_text() == original


def test_spectrum_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "validate", "/nonexistent/x.jsonl")
    assert code == 2
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# zeta

def test_zeta_eval_ruelle_boundary_value(capsys, one_prime_path):
    code, out, _ = run(capsys, "zeta", "eval", "--kind", "ruelle-sigma",
                       "--sigma", "0", "--s", "2.0",
                       "--spectrum", one_prime_path)
    assert code == 0
    value = float(out.split("value=")[1].split("+")[0])
    assert value == pytest.approx(1 - math.exp(-2), abs=1e-9)


def test_zeta_eval_below_abscissa_exits_3(capsys):
    code, _, err = run(capsys, "zeta", "eval", "--s", "1.5", "--n", "1")
    assert code == 3
    assert "certified only" in err


def test_zeta_eval_selberg_value(capsys, deep_path):
    code, out, _ = run(capsys, "zeta", "eval", "--s", "4.0", "--sigma", "0",
                       "--spectrum", deep_path)
    assert code == 0
    assert "value=" in out and "tail_bound=" in out and "cutoff=" in out


def test_zeta_eval_complex_s_parsing(capsys, one_prime_path):
    code, out, _ = run(capsys, "zeta", "eval", "--kind", "ruelle-sigma",
                       "--sigma", "0", "--s", "5+2i",
                       "--spectrum", one_prime_path)
    assert code == 0
    got = complex(out.split("value=")[1].splitlines()[0].replace("i", "j"))
    expect = 1 - (math.e ** -5) * complex(math.cos(2), -math.sin(2))
    assert got == pytest.approx(expect, abs=1e-9)


def test_zeta_eval_bad_s_exits_2(capsys):
    code, _, _ = run(capsys, "zeta", "eval", "--s", "nope", "--n", "1")
    assert code == 2


def test_zeta_eval_ruelle_tau(capsys, one_prime_path):
    code, out, _ = run(capsys, "zeta", "eval", "--kind", "ruelle-tau",
                       "--tau", "1,0", "--s", "4.0",
                       "--spectrum", one_prime_path)
    assert code == 0
    assert "value=" in out


def test_zeta_eval_ruelle_tau_requires_tau(capsys, one_prime_path):
    code, _, _ = run(capsys, "zeta", "eval", "--kind", "ruelle-tau",
                     "--s", "4.0", "--spectrum", one_prime_path)
    assert code == 2


def test_zeta_eval_xi(capsys):
    code, out, _ = run(capsys, "zeta", "eval", "--kind", "xi", "--n", "1",
                       "--sigma", "0", "--s", "0", "--vol", "1.0", "--p", "1")
    assert code == 0
    assert "value=1+0i" in out


def test_zeta_factor_check(capsys, deep_path):
    code, out, _ = run(capsys, "zeta", "factor-check", "--sigma", "1",
                       "--s", "5.0", "--spectrum", deep_path)
    assert code == 0
    disc = float(out.split("discrepancy=")[1].splitlines()[0])
    tail = float(out.split("combined_tail=")[1].splitlines()[0])
    assert disc < max(1e-9, 2 * tail)


def test_zeta_scan_csv_shape_and_worker_identity(tmp_path, capsys, deep_path):
    outs = []
    for w in ("1", "2"):
        path = tmp_path / f"scan{w}.csv"
        code, _, _ = run(capsys, "zeta", "scan", "--sigma", "0",
                         "--spectrum", deep_path,
                         "--re-start", "3", "--re-stop", "4", "--re-steps", "3",
                         "--im-start", "0", "--im-stop", "1", "--im-steps", "2",
                         "--workers", w, "-o", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "re_s,im_s,re_val,im_val,tail_bound"
    assert len(lines) == 1 + 3 * 2


@pytest.mark.parametrize("flags, message", [
    (["--s", "nan"], "'nan' is not finite"),
    (["--s", "4", "--tail-target", "nan"], "tail_target"),
    (["--s", "4", "--cutoff", "nan"], "cutoff"),
    (["--s", "4", "--cutoff", "-1"], "cutoff"),
    (["--s", "4", "--cutoff", "inf"], "cutoff"),
], ids=["s-nan", "tail-target-nan", "cutoff-nan", "cutoff-negative",
        "cutoff-inf"])
def test_zeta_eval_non_finite_input_exits_2(capsys, deep_path, flags, message):
    code, _, err = run(capsys, "zeta", "eval", "--spectrum", deep_path, *flags)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("flag", ["--workers", "--re-steps", "--im-steps"])
def test_zeta_scan_count_below_one_exits_2(capsys, one_prime_path, flag):
    code, out, err = run(capsys, "zeta", "scan", "--spectrum", one_prime_path,
                         "--re-start", "3", "--re-stop", "4", flag, "0")
    assert code == 2
    assert f"{flag} must be >= 1" in err
    assert out == ""


def test_zeta_eval_xi_overflow_exits_1(capsys):
    code, out, err = run(capsys, "zeta", "eval", "--kind", "xi", "--n", "2",
                         "--sigma", "3,2", "--s", "1", "--vol", "1.5",
                         "--p", "2", "--C-Gamma", "0.1")
    assert code == 1
    assert out == ""
    assert "overflows at s=(1+0j)" in err and "Re log xi" in err


def test_zeta_eval_xi_rank_five_exits_0(capsys):
    code, out, err = run(capsys, "zeta", "eval", "--kind", "xi", "--n", "5",
                         "--sigma=6,4,3,2,1", "--s=0.01", "--vol", "1",
                         "--p", "1")
    assert code == 0, err
    assert out.startswith("value=")


@pytest.mark.parametrize("flags, message", [
    (["--cutoff", "-1"], "cutoff must be finite and >= 0, got -1.0"),
    (["--cutoff", "nan"], "cutoff must be finite and >= 0, got nan"),
    (["--cutoff", "inf"], "cutoff must be finite and >= 0, got inf"),
    (["--k-max", "-1"], "k_max must be >= 0, got -1"),
], ids=["cutoff-negative", "cutoff-nan", "cutoff-inf", "k-max-negative"])
def test_zeta_eval_selberg_product_bad_input_exits_2(capsys, deep_path, flags,
                                                     message):
    code, out, err = run(capsys, "zeta", "eval", "--kind", "selberg-product",
                         "--sigma", "0", "--s", "4", "--spectrum", deep_path,
                         *flags)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("text, value", [
    ("2+1i", 2 + 1j), ("1i", 1j), ("3I", 3j), ("-0.5-2i", -0.5 - 2j),
    ("4", 4 + 0j), ("1+2j", 1 + 2j),
])
def test_parse_complex_imaginary_unit(text, value):
    assert cli._parse_complex(text) == value


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1+infi", "infj"])
def test_parse_complex_rejects_non_finite(text):
    with pytest.raises(InputError, match=re.escape(f"'{text}' is not finite")):
        cli._parse_complex(text)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("argv, flag", [
    (["zeta", "eval", "--kind", "xi", "--n", "1", "--sigma", "0"], "--s"),
    (["specfun", "omega", "--n", "1", "--sigma", "0"], "--lambda"),
    (["specfun", "cnu", "--n", "1", "--sigma", "1", "--nu", "1",
      "--lambda", "1"], "--alpha-n"),
], ids=["s", "lambda", "alpha-n"])
def test_non_finite_complex_flag_exits_2(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert f"complex number '{value}' is not finite" in err


def test_complex_flag_trailing_unit(capsys):
    base = ["zeta", "eval", "--kind", "xi", "--n", "1", "--sigma", "1"]
    for i_form, j_form in [("2+1i", "2+1j"), ("1i", "1j")]:
        code, out_i, _ = run(capsys, *base, "--s", i_form)
        assert code == 0
        code, out_j, _ = run(capsys, *base, "--s", j_form)
        assert code == 0
        assert out_i == out_j


@pytest.mark.parametrize("fields", [
    '"n": 1, "cutoff": NaN',
    '"n": 1, "cutoff": 3.0, "growth": -1',
    '"n": 1, "cutoff": 3.0, "growth": NaN',
    '"n": 1, "cutoff": 3.0, "growth": "x"',
    '"cutoff": 3.0',
    '"n": "1", "cutoff": 3.0',
], ids=["cutoff-nan", "growth-negative", "growth-nan", "growth-text", "n-missing",
        "n-text"])
@pytest.mark.parametrize("action", ["validate", "eval"])
def test_bad_header_field_exits_2(tmp_path, capsys, fields, action):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"format": "geoflow-spectrum", "version": 1, ' + fields + '}\n'
        '{"length": 1.0, "angles": [0.0], "mult": 1}\n'
    )
    argv = (["spectrum", "validate", str(path)] if action == "validate" else
            ["zeta", "eval", "--sigma", "0", "--s", "4", "--spectrum", str(path)])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: ")


@pytest.mark.parametrize("cutoff, message", [
    ("1e-18", "spectrum complete to 1e-18 certifies at best"),
    ("1e-200", "completeness cutoff 1e-200 admits no tail bound"),
])
def test_zeta_eval_tiny_completeness_cutoff_exits_1(tmp_path, capsys, cutoff,
                                                   message):
    path = tmp_path / "tiny.jsonl"
    path.write_text(
        '{"format": "geoflow-spectrum", "version": 1, "n": 1, '
        f'"cutoff": {cutoff}}}\n'
        '{"length": 1.0, "angles": [0.0], "mult": 1}\n'
    )
    code, out, err = run(capsys, "zeta", "eval", "--sigma", "0", "--s", "4",
                         "--spectrum", str(path))
    assert code == 1
    assert out == ""
    assert message in err


# ---------------------------------------------------------------------------
# ledger

def test_ledger_predict_table(tmp_path, capsys):
    model = {"n": 1, "sigma": [0], "p": 1, "vol": 1.0,
             "laplace_eigs": [{"re": 4.0, "im": 0.0, "mult": 2}],
             "m_s_zero": 1, "c1": 1}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    code, out, _ = run(capsys, "ledger", "predict", "--model", str(path))
    assert code == 0
    assert "order" in out.splitlines()[0]
    assert any("0+2i" in ln and "+2" in ln for ln in out.splitlines())


def test_ledger_predict_csv(tmp_path, capsys):
    model = {"n": 1, "sigma": [0], "p": 1, "vol": 1.0,
             "laplace_eigs": [{"re": 4.0, "im": 0.0, "mult": 2}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    code, out, _ = run(capsys, "ledger", "predict", "--model", str(path),
                       "--csv", "--max-depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,order"
    assert "0.0,2.0,2" in lines
    assert "-1.0,0.0,-1" in lines


def test_ledger_predict_halving_note(tmp_path, capsys):
    model = {"n": 1, "sigma": [1], "p": 1, "vol": 1.0,
             "dirac_eigs": [{"mu": 1.0, "mult": 2}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    code, out, _ = run(capsys, "ledger", "predict", "--model", str(path))
    assert code == 0
    assert "halved pairing convention" in out


def test_ledger_parity_violation_exits_4(tmp_path, capsys):
    model = {"n": 1, "sigma": [1], "p": 1, "vol": 1.0,
             "laplace_eigs": [{"re": 2.25, "im": 0.0, "mult": 3}],
             "dirac_eigs": [{"mu": 1.5, "mult": 2}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model))
    code, _, err = run(capsys, "ledger", "predict", "--model", str(path))
    assert code == 4
    assert "odd" in err


def test_ledger_bad_model_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("{broken")
    assert run(capsys, "ledger", "predict", "--model", str(path))[0] == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    assert "verify: ok" in out


def test_verify_fault_injection_fails(capsys, monkeypatch):
    monkeypatch.setenv("GEOFLOW_SELF_TEST_FAULT", "1")
    code, out, _ = run(capsys, "verify", "rep")
    assert code == 1
    assert any(ln.startswith("FAIL") for ln in out.splitlines())


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "specfun")
    assert code == 0
    assert all(ln.startswith(("PASS", "verify:")) for ln in out.splitlines())


# ---------------------------------------------------------------------------
# config plumbing

def test_config_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "geoflow.cfg"
    cfg.write_text("n=2\nvol=2.0\np=3\n# comment\nC_Gamma=0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "rep", "--sigma", "1,0")
    assert code == 0
    assert "n=2" in out.splitlines()[0]
    code, out, _ = run(capsys, "--config", str(cfg), "rep", "--n", "1",
                       "--sigma", "1")
    assert code == 0
    assert "n=1" in out.splitlines()[0]


def test_config_malformed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "geoflow.cfg"
    cfg.write_text("just words\n")
    assert run(capsys, "--config", str(cfg), "rep", "--sigma", "0",
               "--n", "1")[0] == 2


def test_config_bad_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "geoflow.cfg"
    cfg.write_text("n=banana\n")
    assert run(capsys, "--config", str(cfg), "rep", "--sigma", "0")[0] == 2


# ---------------------------------------------------------------------------
# module entry point

def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "geoflow", "rep", "--n", "1", "--sigma", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "dim=1" in proc.stdout


def test_console_help_exits_cleanly():
    proc = subprocess.run(
        [sys.executable, "-m", "geoflow", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for word in ("rep", "specfun", "spectrum", "zeta", "ledger", "verify"):
        assert word in proc.stdout
