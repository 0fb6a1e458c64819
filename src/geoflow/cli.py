"""Command-line surface.

Subcommands: rep (representation-theory queries), specfun (analytic special
functions), spectrum (generate/validate/convert length-spectrum files),
zeta (evaluate, scan, factorization check), ledger (zero/pole prediction
from a spectral model), verify (built-in invariant suites).

Exit codes: 0 success, 2 input error, 3 convergence-region error, 4 model
invariant violation, 1 any other computational failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import sys
from fractions import Fraction
from typing import NamedTuple

from . import rootdata, specfun, spectrum as spectrum_mod, zeta
from .errors import (
    ConvergenceRegionError,
    GeoflowError,
    InputError,
    ModelInvariantError,
    PoleError,
)

__all__ = ["main"]


def _g(x):
    return f"{float(x):.12g}"


def _cfmt(z):
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _parse_weight(text):
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse weight {text!r}") from None


def _parse_complex(text):
    t = text.strip().replace(" ", "")
    if t[-1:] in ("i", "I"):
        t = t[:-1] + "j"  # the imaginary unit, not the i of inf
    try:
        z = complex(t)
    except ValueError:
        raise InputError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise InputError(f"complex number {text!r} is not finite")
    return z


def _irrep_M(n, coords):
    try:
        return rootdata.Irrep(rootdata.group_D(n), coords)
    except ValueError as e:
        raise InputError(str(e)) from None


def _load_config(path):
    cfg = {}
    if not path:
        return cfg
    try:
        with open(path) as fh:
            for no, ln in enumerate(fh, start=1):
                ln = ln.split("#", 1)[0].strip()
                if not ln:
                    continue
                if "=" not in ln:
                    raise InputError(f"{path}:{no}: expected key=value")
                k, v = ln.split("=", 1)
                cfg[k.strip()] = v.strip()
    except OSError as e:
        raise InputError(f"cannot read config {path}: {e}") from None
    return cfg


def _resolve(args, cfg, key, cast, default):
    v = getattr(args, key, None)
    if v is not None:
        return v
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError:
            raise InputError(f"config key {key}={cfg[key]!r} is invalid") from None
    return default


def _emit(args, text):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# rep

def _fmt_virtual(v):
    items = sorted(v.terms.items(), key=lambda kv: kv[0].weight.coords, reverse=True)
    return " ".join(f"{rep.weight}:{c:+d}" for rep, c in items)


def cmd_rep(args, cfg):
    n = _resolve(args, cfg, "n", int, 1)
    sigma = _irrep_M(n, _parse_weight(args.sigma))
    lines = [f"sigma={sigma.weight} n={n}"]
    lines.append(f"dim={rootdata.weyl_dim(sigma)}")
    lines.append(f"c={rootdata.casimir_shift(sigma)}")
    lines.append(f"w0sigma={rootdata.w0_act(sigma).weight}")
    lines.append(f"contragredient={rootdata.contragredient(sigma).weight}")
    lines.append(f"nu_sigma={rootdata.nu_sigma(sigma).weight}")
    try:
        lines.append(f"nu(sigma)={rootdata.nu_of_sigma(sigma).weight}")
    except ValueError:
        lines.append("nu(sigma)=undefined (k_{n+1} <= 0)")
    lines.append(f"m: {_fmt_virtual(rootdata.m_coeffs(sigma))}")
    branch = rootdata.branch_K_to_M(rootdata.nu_sigma(sigma))
    lines.append(f"branch(nu_sigma): {_fmt_virtual(branch)}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# specfun

def cmd_specfun(args, cfg):
    n = _resolve(args, cfg, "n", int, 1)
    sigma = _irrep_M(n, _parse_weight(args.sigma))
    kind = args.kind
    if kind == "omega":
        lam = _parse_complex(args.lam or "0")
        value = specfun.omega_direct(sigma, lam)
        print(f"omega={_cfmt(value)}")
        if args.check:
            resid = abs(value - specfun.omega_decomposed(sigma, lam))
            print(f"residual={_g(resid)}")
        return 0
    if kind == "pj":
        lam = _parse_complex(args.lam or "0")
        js = [args.j] if args.j else list(range(2, n + 2))
        for j in js:
            val = specfun.p_j(sigma, j, lam)
            try:
                closed = _cfmt(specfun.p_j_closed(sigma, j, lam))
            except GeoflowError:
                closed = "degenerate"
            print(f"P_{j}={_cfmt(val)} closed={closed}")
        return 0
    if kind == "cjl":
        print("j,l,c")
        for j, l, c in specfun.c_jl(sigma):
            print(f"{j},{l},{c}")
        return 0
    if kind == "cnu":
        if not args.nu:
            raise InputError("cnu requires --nu")
        lam = _parse_complex(args.lam or "0")
        alpha = _resolve(args, cfg, "alpha_n", _parse_complex, 1.0)
        try:
            nu = rootdata.Irrep(rootdata.group_B(n), _parse_weight(args.nu))
        except ValueError as e:
            raise InputError(str(e)) from None
        print(f"c_nu={_cfmt(specfun.c_function(sigma, nu, lam, alpha))}")
        print(f"logderiv={_cfmt(specfun.c_function_logderiv(sigma, nu, lam))}")
        return 0
    if kind == "plancherel":
        c_norm = _resolve(args, cfg, "c_norm", float, 1.0)
        poly = specfun.plancherel_poly(sigma, c_norm)
        coeffs = " ".join(_g(c) for c in poly.coeffs)
        print(f"coeffs(lambda^0,lambda^2,...)={coeffs}")
        return 0
    raise InputError(f"unknown specfun kind {kind!r}")


# ---------------------------------------------------------------------------
# spectrum

def _format_of(path, explicit=None):
    if explicit:
        return explicit
    return "csv" if str(path).endswith(".csv") else "jsonl"


def _load_spectrum(path, fmt=None):
    try:
        with open(path) as fh:
            return spectrum_mod.parse(fh, _format_of(path, fmt))
    except OSError as e:
        raise InputError(f"cannot read spectrum {path}: {e}") from None


def cmd_spectrum(args, cfg):
    if args.action == "gen":
        n = _resolve(args, cfg, "n", int, 1)
        spec = spectrum_mod.synthesize(
            n, args.count, args.seed, mean_gap=args.mean_gap
        )
        text = spectrum_mod.serialize(spec, _format_of(args.output or ""))
        _emit(args, text)
        print(
            f"generated n={n} count={args.count} cutoff={_g(spec.completeness_cutoff)}"
            f" growth_C={_g(spec.growth_constant)}",
            file=sys.stderr,
        )
        return 0
    if args.action == "validate":
        spec = _load_spectrum(args.file, args.format)
        report = spectrum_mod.validate(spec, growth_bound=args.growth_bound)
        print(f"entries={report.entry_count}")
        print(f"sorted={'ok' if report.sorted_ok else 'violated'}")
        print(f"growth_C={_g(report.fitted_growth)}")
        for w in report.warnings:
            print(f"warning: {w}")
        print("status=ok" if report.ok() else "status=flagged")
        return 0
    if args.action == "convert":
        spec = _load_spectrum(args.file, args.format)
        if not args.output:
            raise InputError("convert requires -o output path")
        _emit(args, spectrum_mod.serialize(spec, _format_of(args.output)))
        return 0
    raise InputError(f"unknown spectrum action {args.action!r}")


# ---------------------------------------------------------------------------
# zeta

def _tau_table(n, coords):
    try:
        tau = rootdata.Irrep(rootdata.group_D(n, ambient=True), coords)
    except ValueError as e:
        raise InputError(str(e)) from None
    return rootdata.weight_multiplicities(tau)


class _Point(NamedTuple):
    """Inputs of one zeta evaluation, shared by the eval and scan paths."""

    s: complex | None
    sigma: object
    tau_weights: dict | None
    spec: object
    tail_target: float
    k_max: int
    cutoff: float | None
    xi_params: tuple


def _series(name):
    """A class-sum kind: zeta.<name>(s, sigma, spectrum, tail_target, cutoff)."""
    return lambda pt: getattr(zeta, name)(
        pt.s, pt.sigma, pt.spec, pt.tail_target, pt.cutoff)


# kind name -> one point's ZetaValue.  Entries reach zeta.<fn> when they run,
# never at import, so a rebound zeta function is what gets called.
_ZETA_KINDS = {
    "selberg": _series("selberg_Z"),
    "log-selberg": _series("log_selberg"),
    "selberg-product": lambda pt: zeta.ZetaValue(
        value=zeta.selberg_Z_product(pt.s, pt.sigma, pt.spec, k_max=pt.k_max,
                                     cutoff=pt.cutoff),
        tail_bound=0.0, cutoff_used=pt.cutoff or 0.0),
    "symmetrized": _series("symmetrized_S"),
    "antisymmetric": _series("antisymmetric_Sa"),
    "ruelle-sigma": lambda pt: zeta._exp_value(zeta.log_ruelle_sigma(
        pt.s, pt.sigma, pt.spec, pt.tail_target, pt.cutoff)),
    "log-ruelle-sigma": _series("log_ruelle_sigma"),
    "ruelle-tau": lambda pt: zeta.log_ruelle_tau(
        pt.s, pt.tau_weights, pt.spec, pt.tail_target, pt.cutoff),
    "xi": lambda pt: zeta.ZetaValue(
        value=zeta.xi_normalizer(pt.s, pt.sigma, *pt.xi_params),
        tail_bound=0.0, cutoff_used=0.0),
}


def _scan_worker(task):
    kind, pt = task
    v = _ZETA_KINDS[kind](pt)
    return pt.s.real, pt.s.imag, v.value.real, v.value.imag, v.tail_bound


def _zeta_common(args, cfg):
    n = _resolve(args, cfg, "n", int, 1)
    if getattr(args, "spectrum", None):
        spec = _load_spectrum(args.spectrum, getattr(args, "format", None))
        n = spec.n
    else:
        spec = spectrum_mod.LengthSpectrum(
            n=n, entries=(), completeness_cutoff=0.0, growth_constant=0.0
        )
    sigma = _irrep_M(n, _parse_weight(args.sigma or "0" + ",0" * (n - 1)))
    tau_weights = None
    if getattr(args, "tau", None):
        tau_weights = _tau_table(n, _parse_weight(args.tau))
    elif getattr(args, "kind", "") == "ruelle-tau":
        raise InputError("ruelle-tau requires --tau")
    tail_target = _resolve(args, cfg, "tail_target", float, 1e-10)
    xi_params = (
        _resolve(args, cfg, "vol", float, 1.0),
        _resolve(args, cfg, "p", int, 1),
        _resolve(args, cfg, "C_Gamma", float, 0.0),
        _resolve(args, cfg, "c_norm", float, 1.0),
    )
    return _Point(
        s=None,
        sigma=sigma,
        tau_weights=tau_weights,
        spec=spec,
        tail_target=tail_target,
        k_max=args.k_max,
        cutoff=args.cutoff,
        xi_params=xi_params,
    )


def cmd_zeta(args, cfg):
    if args.action == "eval":
        pt = _zeta_common(args, cfg)._replace(s=_parse_complex(args.s))
        v = _ZETA_KINDS[args.kind](pt)
        print(f"value={_cfmt(v.value)}")
        print(f"tail_bound={_g(v.tail_bound)}")
        print(f"cutoff={_g(v.cutoff_used)}")
        return 0
    if args.action == "scan":
        for flag in ("workers", "re_steps", "im_steps"):
            if getattr(args, flag) < 1:
                raise InputError(
                    f"--{flag.replace('_', '-')} must be >= 1, "
                    f"got {getattr(args, flag)}"
                )
        base = _zeta_common(args, cfg)
        res = [
            args.re_start + i * (args.re_stop - args.re_start) / max(args.re_steps - 1, 1)
            for i in range(args.re_steps)
        ]
        ims = [
            args.im_start + i * (args.im_stop - args.im_start) / max(args.im_steps - 1, 1)
            for i in range(args.im_steps)
        ]
        tasks = [
            (args.kind, base._replace(s=complex(re, im)))
            for re in res
            for im in ims
        ]
        if args.workers > 1:
            # imported here, so that processes that never start a pool do
            # not pay for importing multiprocessing
            from multiprocessing import Pool

            with Pool(args.workers) as pool:
                rows = pool.map(_scan_worker, tasks)
        else:
            rows = [_scan_worker(t) for t in tasks]
        lines = ["re_s,im_s,re_val,im_val,tail_bound"]
        for row in rows:
            lines.append(",".join(repr(x) for x in row))
        _emit(args, "\n".join(lines) + "\n")
        return 0
    if args.action == "factor-check":
        pt = _zeta_common(args, cfg)
        lhs, rhs, disc = zeta.ruelle_selberg_factorization(
            _parse_complex(args.s), pt.sigma, pt.spec, pt.tail_target
        )
        print(f"lhs={_cfmt(lhs.value)}")
        print(f"rhs={_cfmt(rhs.value)}")
        print(f"discrepancy={_g(disc)}")
        print(f"combined_tail={_g(lhs.tail_bound + rhs.tail_bound)}")
        return 0
    raise InputError(f"unknown zeta action {args.action!r}")


# ---------------------------------------------------------------------------
# ledger

def cmd_ledger(args, cfg):
    if args.action != "predict":
        raise InputError(f"unknown ledger action {args.action!r}")
    try:
        with open(args.model) as fh:
            model = zeta.model_from_json(fh.read())
    except OSError as e:
        raise InputError(f"cannot read model {args.model}: {e}") from None
    ledger = zeta.singularity_ledger(model, max_depth=args.max_depth)
    if args.csv:
        lines = ["re,im,order"]
        for s in ledger:
            lines.append(f"{s.location.real!r},{s.location.imag!r},{s.order}")
        _emit(args, "\n".join(lines) + "\n")
        return 0
    print(f"{'location':>28}  order  kind")
    for s in ledger:
        kind = "zero" if s.order > 0 else "pole"
        print(f"{_cfmt(s.location):>28}  {s.order:+5d}  {kind}")
    if zeta.epsilon_sigma(model.sigma) == 2:
        print(
            "note: sigma differs from its flip; spectral orders use the"
            " halved pairing convention"
        )
    return 0


# ---------------------------------------------------------------------------
# verify

def _fault():
    return 1e-3 if os.environ.get("GEOFLOW_SELF_TEST_FAULT") else 0.0


def _verify_rep(depth):
    rng = random.Random(20250825)
    checks = []
    for n in range(1, depth + 1):
        weights = [(0,) * n, (1,) + (0,) * (n - 1)]
        if n >= 2:
            weights.append((1,) * n)
        weights.append(tuple([Fraction(1, 2)] * n))
        worst = 0.0
        for w in weights:
            sigma = rootdata.Irrep(rootdata.group_D(n), w)
            flip = rootdata.w0_act(sigma)
            m = rootdata.m_coeffs(sigma)
            for _ in range(10):
                t = tuple(rng.uniform(0, 2 * math.pi) for _ in range(n))
                lhs = 0j
                for nu, c in m.terms.items():
                    lhs += c * rootdata.character(nu, t)
                rhs = rootdata.character(sigma, t)
                if flip != sigma:
                    rhs += rootdata.character(flip, t)
                worst = max(worst, abs(lhs - rhs))
        worst += _fault()
        checks.append((f"rep.restriction_identity_n{n}", worst < 1e-9,
                       f"max|lhs-rhs|={worst:.3e}"))
    dims_ok = True
    for n in (1, 2):
        for grp in (rootdata.group_B(n), rootdata.group_D(n)):
            for w in [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (1,) * (n - 1)]:
                try:
                    rep = rootdata.Irrep(grp, w)
                except ValueError:
                    continue
                table = rootdata.weight_multiplicities(rep)
                if sum(table.values()) != rootdata.weyl_dim(rep):
                    dims_ok = False
    checks.append(("rep.weyl_dim_vs_table", dims_ok, "integer equality"))
    return checks


def _verify_specfun(depth):
    rng = random.Random(31415)
    checks = []
    weights = {1: [(0,), (1,), (Fraction(1, 2),)],
               2: [(1, 0), (2, 1), (Fraction(3, 2), Fraction(1, 2))],
               3: [(1, 1, 0), (2, 1, 0)]}
    worst = 0.0
    for n in range(1, depth + 1):
        for w in weights.get(n, []):
            sigma = rootdata.Irrep(rootdata.group_D(n), w)
            for _ in range(5):
                lam = rng.uniform(0.1, 3.0)
                d = abs(specfun.omega_direct(sigma, lam)
                        - specfun.omega_decomposed(sigma, lam))
                worst = max(worst, d)
    worst += _fault()
    checks.append(("specfun.omega_decomposition", worst < 1e-8,
                   f"max residual={worst:.3e}"))

    closed_ok = True
    s21 = rootdata.Irrep(rootdata.group_D(2), (2, 1))
    for _ in range(10):
        lam = rng.uniform(0.2, 2.5)
        a = specfun.p_j(s21, 2, lam)
        b = specfun.p_j_closed(s21, 2, lam)
        if abs(a - b) > 1e-10 * max(1.0, abs(a)):
            closed_ok = False
    checks.append(("specfun.pj_closed_form", closed_ok, "exact agreement"))

    res_ok = True
    for _ in range(50):
        k = rng.randint(1, 6)
        ss = [rng.uniform(0.5, 4.0) + 1j * rng.uniform(-1, 1) for _ in range(k)]
        lhs, rhs = specfun.resolvent_weights(ss, rng.uniform(0.1, 2.0))
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
            res_ok = False
    checks.append(("specfun.resolvent_identity", res_ok, "50 trials"))

    sig = rootdata.Irrep(rootdata.group_D(1), (2,))
    nu = rootdata.Irrep(rootdata.group_B(1), (2,))
    lam = 1.0
    err = abs(specfun.c_function(sig, nu, lam) - 1.0 / (1j * lam + 2))
    checks.append(("specfun.cnu_closed_form", err < 1e-12, f"err={err:.3e}"))
    return checks


def _verify_zeta(depth):
    checks = []
    triv = rootdata.Irrep(rootdata.group_D(1), (0,))
    one = spectrum_mod.LengthSpectrum(
        n=1,
        entries=[spectrum_mod.PrimeGeodesic(1.0, (0.0,))],
        completeness_cutoff=math.inf,
    )
    spectrum_mod.validate(one)
    v = zeta.log_ruelle_sigma(3.0, triv, one, 1e-13)
    err = abs(cmath.exp(v.value) - (1 - math.exp(-3))) + _fault()
    checks.append(("zeta.one_geodesic_law", err < 1e-12, f"err={err:.3e}"))

    spec = spectrum_mod.synthesize(1, 60, seed=17, mean_gap=0.25)
    zv = zeta.selberg_Z(4.0, triv, spec, 1e-10)
    zp = zeta.selberg_Z_product(4.0, triv, spec, k_max=40,
                                cutoff=zv.cutoff_used)
    err = abs(zv.value - zp)
    checks.append(("zeta.dual_path", err < zv.tail_bound + 1e-10,
                   f"|series-product|={err:.3e}"))

    sig1 = rootdata.Irrep(rootdata.group_D(1), (1,))
    _, _, disc = zeta.ruelle_selberg_factorization(5.0, sig1, spec, 1e-10)
    checks.append(("zeta.factorization", disc < 1e-9, f"discrepancy={disc:.3e}"))

    m = zeta.SpectralModel(sigma=triv, p=1, vol=1.0, laplace_eigs=[(4.0, 2)])
    led = {s.location: s.order for s in zeta.singularity_ledger(m, max_depth=3)}
    checks.append(("zeta.ledger_spectral_pair",
                   led.get(2j) == 2 and led.get(-2j) == 2, "orders at +-2i"))
    return checks


def cmd_verify(args, cfg):
    depth = _resolve(args, cfg, "n", int, 2)
    suites = {
        "rep": _verify_rep,
        "specfun": _verify_specfun,
        "zeta": _verify_zeta,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for check, ok, detail in suites[name](depth):
            print(f"{'PASS' if ok else 'FAIL'} {check} {detail}")
            if not ok:
                failed += 1
    print(f"verify: {'ok' if not failed else f'{failed} failure(s)'}")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    top = argparse.ArgumentParser(
        prog="geoflow",
        description="Zeta functions of hyperbolic geodesic flows: "
        "representation data, special functions, length spectra, zeta "
        "evaluation, and singularity ledgers.",
    )
    top.add_argument("--config", help="key=value config file")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rep", help="representation-theory report")
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", required=True, help="weight, e.g. 1,0 or 3/2,1/2")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("specfun", help="special-function evaluation")
    p.add_argument("kind", choices=["omega", "pj", "cjl", "cnu", "plancherel"])
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--j", type=int)
    p.add_argument("--nu")
    p.add_argument("--alpha-n", dest="alpha_n", type=_parse_complex)
    p.add_argument("--c-norm", dest="c_norm", type=float)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_specfun)

    p = sub.add_parser("spectrum", help="length-spectrum files")
    ss = p.add_subparsers(dest="action", required=True)
    q = ss.add_parser("gen")
    q.add_argument("--n", type=int)
    q.add_argument("--count", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--mean-gap", dest="mean_gap", type=float, default=0.25)
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_spectrum)
    q = ss.add_parser("validate")
    q.add_argument("file")
    q.add_argument("--format", choices=["jsonl", "csv"])
    q.add_argument("--growth-bound", dest="growth_bound", type=float)
    q.set_defaults(func=cmd_spectrum)
    q = ss.add_parser("convert")
    q.add_argument("file")
    q.add_argument("--format", choices=["jsonl", "csv"])
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("zeta", help="zeta evaluation and scans")
    zs = p.add_subparsers(dest="action", required=True)

    def _zeta_flags(q, with_s):
        q.add_argument("--kind", default="selberg", choices=list(_ZETA_KINDS))
        q.add_argument("--n", type=int)
        q.add_argument("--sigma")
        q.add_argument("--tau")
        q.add_argument("--spectrum")
        q.add_argument("--format", choices=["jsonl", "csv"])
        q.add_argument("--tail-target", dest="tail_target", type=float)
        q.add_argument("--k-max", dest="k_max", type=int, default=30)
        q.add_argument("--cutoff", type=float)
        q.add_argument("--vol", type=float)
        q.add_argument("--p", type=int)
        q.add_argument("--C-Gamma", dest="C_Gamma", type=float)
        q.add_argument("--c-norm", dest="c_norm", type=float)
        if with_s:
            q.add_argument("--s", required=True, help="complex, e.g. 3 or 2+1i")

    q = zs.add_parser("eval")
    _zeta_flags(q, with_s=True)
    q.set_defaults(func=cmd_zeta)
    q = zs.add_parser("scan")
    _zeta_flags(q, with_s=False)
    q.add_argument("--re-start", type=float, required=True)
    q.add_argument("--re-stop", type=float, required=True)
    q.add_argument("--re-steps", type=int, default=1)
    q.add_argument("--im-start", type=float, default=0.0)
    q.add_argument("--im-stop", type=float, default=0.0)
    q.add_argument("--im-steps", type=int, default=1)
    q.add_argument("--workers", type=int, default=1)
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_zeta)
    q = zs.add_parser("factor-check")
    _zeta_flags(q, with_s=True)
    q.set_defaults(func=cmd_zeta)

    p = sub.add_parser("ledger", help="zero/pole prediction from a model")
    ls = p.add_subparsers(dest="action", required=True)
    q = ls.add_parser("predict")
    q.add_argument("--model", required=True)
    q.add_argument("--max-depth", dest="max_depth", type=int, default=10)
    q.add_argument("--csv", action="store_true")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_ledger)

    p = sub.add_parser("verify", help="built-in invariant suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", "rep", "specfun", "zeta"])
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config) if args.config else {}
        return args.func(args, cfg)
    except PoleError as e:
        print(f"error: pole at {e.location}: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConvergenceRegionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ModelInvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except GeoflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
