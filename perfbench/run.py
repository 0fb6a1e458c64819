"""Benchmark for geoflow: certified zeta evaluations and exact twist data.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run it from the root of a geoflow checkout; it imports geoflow from the
checkout's src/.  Each run is one interpreter process with no worker pool.
It makes its inputs from --seed, times calls into geoflow (the in-process
CLI `geoflow.cli.main` or library functions) for --seconds, checks every
output against its own independent computation, and prints one JSON object
as its last line: end-to-end metrics with --trace 0, per-layer metrics from
spans around geoflow's public functions with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

import gen
import reference as ref
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

TAIL_TARGET = 1e-8
SETUP_REPEATS = 5
# Relative agreement with a value the CLI prints to 12 significant digits.
PRINTED = 1e-11


class OpFailed(Exception):
    pass


class Program:
    """geoflow imported afresh from the checkout, with nothing cached."""

    def __init__(self):
        self.geoflow = importlib.import_module("geoflow")
        for name in spans.MODULES:
            setattr(self, name, importlib.import_module("geoflow." + name))


def purge(baseline):
    """Forget every module imported since `baseline`, so the next import of
    geoflow pays its full cost and starts with empty caches."""
    for name in list(sys.modules):
        if name not in baseline:
            del sys.modules[name]


def call_cli(prog, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = prog.cli.main(argv)
        except SystemExit as e:
            code = e.code
    if code != 0:
        raise OpFailed(f"geoflow {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_complex(s):
    return f"{s.real!r}{s.imag:+}i"


def parse_complex(text):
    return complex(text.strip().replace("i", "j"))


def parse_fields(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def near(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_class_sum(spec, s, value, tail, twist, max_length, sizes, rel):
    """The program's value against the reference class sum over the first
    `size` classes, for the best-matching size of the candidates `sizes`, to
    `rel` plus 64 ulps of the summed absolute terms; then the listed mass
    omitted past that prefix against the program's tail bound, on the log
    scale.
    Returns (errors, matched prefix size)."""
    lengths, terms = ref.selberg_terms(spec, s, twist, max_length)
    sizes = [k for k in sizes if k <= lengths.size]
    if len(sizes) > 1:
        partial = np.concatenate([[0], np.cumsum(terms)])[sizes]
        sizes = [sizes[int(np.argmin(np.abs(np.exp(partial) - value)))]]
    size = sizes[0]
    errors = []
    expect = ref.exp_sum(terms, size)
    # a large term (a short prime with a small det factor) carries rounding
    # of a few ulps of its own size into the log, whatever the summation
    rel += 64 * sys.float_info.epsilon * float(np.sum(np.abs(terms[:size])))
    if not near(value, expect, rel):
        errors.append(f"s={s}: value {value} != reference {expect} "
                      f"over {size} classes")
    past = max_length if size == lengths.size else 0.5 * (lengths[size - 1] + lengths[size])
    char_bound = sum(abs(c) * ref.weyl_dim_D(w) for c, w in twist)
    mass = ref.omitted_mass(spec, s.real + spec.n, float(char_bound), past)
    if mass > 0 and (math.log(abs(value)) + math.log(math.expm1(mass))
                     > math.log(tail) + 1e-9):
        errors.append(f"s={s}: omitted listed mass {mass:.3e} exceeds "
                      f"tail bound {tail:.3e}")
    return errors, size


def ref_spectrum(n, entries):
    return ref.Spectrum(n, [e[0] for e in entries], [e[1] for e in entries])


# ---------------------------------------------------------------------------
# workloads

class Scan:
    """`geoflow zeta scan --workers 1 --sigma 0` on an incomplete n=1 PGT
    spectrum of 20,000 primes; one op per Re(s), 2 strata of [5, 8) a
    round, times Im(s) in {-b, 0, b}.  From Re(s) = 5 up an op sums a few
    hundred classes at most, so every op costs about the same; nearer 4 the
    class count climbs to 18,000 and doubles the cost, and the median of
    a run would fall between two cost groups."""

    fresh_each_round = False
    TWIST = [(1, (0,))]

    def __init__(self, seed, workdir):
        entries = gen.pgt_entries(1, 20000, gen.rng_for(seed, "spectrum-n1"))
        self.path = write(os.path.join(workdir, "pgt-n1.jsonl"),
                          gen.spectrum_jsonl(1, entries, entries[-1][0]))
        self.spec = ref_spectrum(1, entries)
        self.rng = gen.rng_for(seed, "ops")
        self.seen = set()

    def load(self, prog):
        return None

    def rounds(self):
        while True:
            res = gen.distinct_uniform(self.rng, 5.0, 8.0, 2)
            if self.seen.intersection(res):
                continue
            self.seen.update(res)
            yield [(re, self.rng.uniform(0.5, 6.0)) for re in res]

    def run_op(self, prog, state, op):
        re, b = op
        return call_cli(prog, ["zeta", "scan", "--workers", "1", "--sigma", "0",
                               "--spectrum", self.path, "--tail-target", repr(TAIL_TARGET),
                               f"--re-start={re!r}", f"--re-stop={re!r}", "--re-steps", "1",
                               f"--im-start={-b!r}", f"--im-stop={b!r}", "--im-steps", "3"])

    def check(self, prog, op, out):
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        errors, sizes = [], set()
        # the scan prints no cutoff: match the value against every prefix
        # of the class list that ends between two distinct lengths
        cap = 2.0 * float(self.spec.lengths.max())
        bounds = ref.boundary_prefixes(self.spec.classes(cap)[0]).tolist()
        values = {}
        for re_s, im_s, re_v, im_v, tail in rows:
            s, value = complex(re_s, im_s), complex(re_v, im_v)
            values[im_s] = value
            errs, size = check_class_sum(self.spec, s, value, tail, self.TWIST, cap,
                                         bounds, 1e-12)
            errors += errs
            sizes.add(size)
        if len(rows) != 3 or len(sizes) != 1:
            errors.append(f"op {op}: {len(rows)} rows, class counts {sorted(sizes)} "
                          "(one cutoff expected for one Re(s))")
        b = op[1]
        if b in values and -b in values and not near(values[-b], values[b].conjugate(), 1e-14):
            errors.append(f"op {op}: Z(conj s) {values[-b]} != conj Z(s) {values[b]}")
        return errors


class Terms:
    """Library `zeta.symmetrized_S(s, (2,1), spec, 1e-8, cutoff=4.5)` on a
    complete n=2 PGT spectrum of 10,000 primes parsed once in setup; one op
    per complex s, 4 strata of Re(s) in [4, 6) a round."""

    fresh_each_round = False
    CUTOFF = 4.5
    TWIST = [(1, (2, 1)), (1, (2, -1))]

    def __init__(self, seed, workdir):
        entries = gen.pgt_entries(2, 10000, gen.rng_for(seed, "spectrum-n2"))
        self.path = write(os.path.join(workdir, "pgt-n2.jsonl"),
                          gen.spectrum_jsonl(2, entries, math.inf))
        self.spec = ref_spectrum(2, entries)
        self.rng = gen.rng_for(seed, "ops")

    def load(self, prog):
        with open(self.path) as fh:
            spec = prog.spectrum.parse(fh)
        sigma = prog.rootdata.Irrep(prog.rootdata.group_D(2), (2, 1))
        return spec, sigma

    def rounds(self):
        while True:
            yield [complex(re, self.rng.uniform(-10.0, 10.0))
                   for re in gen.distinct_uniform(self.rng, 4.0, 6.0, 4)]

    def run_op(self, prog, state, s):
        spec, sigma = state
        return prog.zeta.symmetrized_S(s, sigma, spec, TAIL_TARGET, cutoff=self.CUTOFF)

    def check(self, prog, s, out):
        lengths = self.spec.classes(self.CUTOFF)[0]
        errors, _ = check_class_sum(self.spec, s, out.value, out.tail_bound, self.TWIST,
                                    self.CUTOFF, [lengths.size], 1e-12)
        if out.cutoff_used != self.CUTOFF:
            errors.append(f"s={s}: cutoff_used {out.cutoff_used} != {self.CUTOFF}")
        return errors


class Exact:
    """Per twist sigma from a fixed list over n=1..3: `ledger predict` on a
    model file, `zeta eval --kind xi` at s in {0, s1, conj s1}, `rep`, and
    the weight table.  A round is the whole list in a seeded order on a
    fresh import of geoflow, so every twist is cold."""

    fresh_each_round = True

    def __init__(self, seed, workdir):
        self.rng = gen.rng_for(seed, "ops")
        self.twists = []
        for i, (n, w) in enumerate(gen.twist_list()):
            doc, expected = gen.spectral_model(n, w, self.rng)
            path = write(os.path.join(workdir, f"model-{i}.json"), json.dumps(doc))
            self.twists.append((n, w, path, doc, expected))

    def load(self, prog):
        return None

    def rounds(self):
        while True:
            order = list(self.twists)
            self.rng.shuffle(order)
            yield [(t, complex(self.rng.uniform(0.005, 0.04), self.rng.uniform(0.005, 0.04)),
                    self.rng.uniform(0.1, 3.0)) for t in order]

    def run_op(self, prog, state, op):
        (n, w, path, doc, _), s1, _ = op
        wt = gen.weight_text(w)
        ledger = call_cli(prog, ["ledger", "predict", "--model", path, "--csv"])
        xis = [call_cli(prog, ["zeta", "eval", "--kind", "xi", "--n", str(n), "--sigma=" + wt,
                               "--s=" + cli_complex(s), "--vol", repr(doc["vol"]),
                               "--p", str(doc["p"]), f"--C-Gamma={doc['C_Gamma']!r}"])
               for s in (0j, s1, s1.conjugate())]
        rep = call_cli(prog, ["rep", "--n", str(n), "--sigma=" + wt])
        rd = prog.rootdata
        table = rd.weight_multiplicities(rd.Irrep(rd.group_D(n), w))
        return ledger, xis, rep, sum(table.values())

    def check(self, prog, op, out):
        (n, w, _, _, expected), s1, lam = op
        ledger, xis, rep, table_dim = out
        errors = []
        dim = ref.weyl_dim_D(w)
        rep_dim = int(parse_fields(rep)["dim"])
        if not dim == rep_dim == table_dim:
            errors.append(f"sigma={w}: Weyl product {dim}, rep dim {rep_dim}, "
                          f"weight-table total {table_dim}")
        x0, xs, xc = (parse_complex(parse_fields(t)["value"]) for t in xis)
        if abs(x0 - 1) > PRINTED:
            errors.append(f"sigma={w}: xi(0) = {x0}")
        if not near(xc, xs.conjugate(), PRINTED):
            errors.append(f"sigma={w}: xi(conj s) {xc} != conj xi(s) {xs} at s={s1}")
        orders = {}
        for line in ledger.splitlines()[1:]:
            re_l, im_l, order = line.split(",")
            if float(re_l) == 0.0:
                orders[float(im_l)] = int(order)
        for mu, (up, down) in expected.items():
            got = (orders.get(mu), orders.get(-mu))
            if got != (up, down):
                errors.append(f"sigma={w}: ledger orders at +-i*{mu} are {got}, "
                              f"model gives {(up, down)}")
        sigma = prog.rootdata.Irrep(prog.rootdata.group_D(n), w)
        gap = abs(prog.specfun.omega_direct(sigma, lam)
                  - prog.specfun.omega_decomposed(sigma, lam))
        if not gap <= 1e-8:
            errors.append(f"sigma={w}: direct and decomposed Omega differ by {gap:.3e}"
                          f" at lambda={lam}")
        return errors


WORKLOADS = {"scan": Scan, "terms": Terms, "exact": Exact}


# ---------------------------------------------------------------------------
# measurement

def per_layer(tracer, traced_ops, overhead_ms):
    table = tracer.self_times(traced_ops)
    nops = len(traced_ops)

    def get(name, field):
        return table.get(name, (0.0, 0.0, 0))[field]

    def ms(name, field=0):
        return 1000.0 * get(name, field) / nops

    def calls(name):
        return get(name, 2) / nops

    def module_ms(module):
        return 1000.0 * sum(v[0] for k, v in table.items()
                            if k.startswith(module + ".")) / nops

    classes = tracer.sizes.get("spectrum.classes", 0)
    search_s = get("spectrum.class_iterator", 0)
    values = {
        "cli.self_ms_per_op": (module_ms("cli"), "ms"),
        "spectrum.parse_ms_per_op": (ms("spectrum.parse"), "ms"),
        "spectrum.validate_ms_per_op": (ms("spectrum.validate"), "ms"),
        "spectrum.validate_calls": (calls("spectrum.validate"), "count/op"),
        "spectrum.class_iterator_ms_per_op": (ms("spectrum.class_iterator"), "ms"),
        "spectrum.class_iterator_calls": (calls("spectrum.class_iterator"), "count/op"),
        "spectrum.classes_per_op": (classes / nops, "count/op"),
        "spectrum.us_per_class": (1e6 * search_s / classes if classes else 0.0, "us"),
        "spectrum.det_factor_calls": (calls("spectrum.det_factor"), "count/op"),
        "spectrum.det_factor_total_ms_per_op": (ms("spectrum.det_factor", 1), "ms"),
        "rootdata.character_calls": (calls("rootdata.character"), "count/op"),
        "rootdata.character_ms_per_op": (ms("rootdata.character"), "ms"),
        "zeta.self_ms_per_op": (module_ms("zeta"), "ms"),
        "summation.tree_sum_ms_per_op": (ms("summation.tree_sum"), "ms"),
        "summation.values_per_op": (tracer.sizes.get("summation.values", 0) / nops,
                                    "count/op"),
        "rootdata.weight_multiplicities_ms_per_op":
            (ms("rootdata.weight_multiplicities"), "ms"),
        "rootdata.weyl_dim_calls": (calls("rootdata.weyl_dim"), "count/op"),
        "rootdata.m_coeffs_ms_per_op": (ms("rootdata.m_coeffs"), "ms"),
        "specfun.extract_Q_ms_per_op": (ms("specfun.extract_Q"), "ms"),
        "specfun.extract_Q_total_ms_per_op": (ms("specfun.extract_Q", 1), "ms"),
        "specfun.c_jl_calls": (calls("specfun.c_jl"), "count/op"),
        "specfun.omega_direct_calls": (calls("specfun.omega_direct"), "count/op"),
        "specfun.omega_direct_ms_per_op": (ms("specfun.omega_direct"), "ms"),
        "specfun.c_jl_ms_per_op": (ms("specfun.c_jl"), "ms"),
        "specfun.plancherel_poly_ms_per_op": (ms("specfun.plancherel_poly"), "ms"),
        "zeta.singularity_ledger_ms_per_op": (ms("zeta.singularity_ledger"), "ms"),
        "zeta.xi_normalizer_ms_per_op": (ms("zeta.xi_normalizer"), "ms"),
        "trace.spans_per_op": (len(tracer.start) / nops, "count/op"),
        "trace.overhead_ms_per_op": (overhead_ms, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run(workload_name, seed, seconds, traced, workdir):
    workload = WORKLOADS[workload_name](seed, workdir)
    baseline = set(sys.modules)

    setup = []
    for _ in range(SETUP_REPEATS):
        purge(baseline)
        t0 = perf_counter()
        prog = Program()
        state = workload.load(prog)
        setup.append(perf_counter() - t0)

    # A traced run executes every round twice, untraced and then traced, so
    # each traced op has an untraced twin on the same input.
    tracer = spans.Tracer() if traced else None
    modes = (False, True) if traced else (False,)
    times = {mode: {} for mode in modes}  # (round, index) -> seconds
    outputs, traced_ops, failures = [], [], []
    rounds = workload.rounds()
    attempted, phase, rnd = 0, 0.0, 0
    while phase < seconds:
        ops = next(rounds)
        for on in modes:
            if workload.fresh_each_round and (rnd or on):
                purge(baseline)
                prog = Program()
                state = workload.load(prog)
            if on:
                tracer.install(prog.geoflow)
            r0 = perf_counter()
            for i, op in enumerate(ops):
                attempted += 1
                t0 = perf_counter()
                try:
                    if on:
                        tracer.op_id = attempted
                        out = tracer.span("bench.op", workload.run_op, prog, state, op)
                    else:
                        out = workload.run_op(prog, state, op)
                except Exception as e:  # a failed op is counted, not fatal
                    failures.append(f"{op}: {type(e).__name__}: {e}")
                    continue
                times[on][rnd, i] = perf_counter() - t0
                outputs.append((op, out))
                if on:
                    traced_ops.append(attempted)
            phase += perf_counter() - r0
            if on:
                tracer.uninstall()
        rnd += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    for op, out in outputs:
        errors += workload.check(prog, op, out)
    for msg in failures[:5] + errors[:5]:
        print(msg, file=sys.stderr)

    plain = times[False]
    if traced:
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{workload_name}"))
        pairs = [times[True][k] - plain[k] for k in times[True] if k in plain]
        metrics = per_layer(tracer, traced_ops, 1000.0 * statistics.median(pairs))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(plain) / phase, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000.0 * statistics.median(plain.values()),
                               "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    return {"correct": not errors and bool(outputs), "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geoflow", "cli.py")):
        print(f"perfbench: no geoflow source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    write(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"), line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
