"""Benchmark of lckverify: seeded workloads, checked outputs, traced layers.

One workload per run, from the root of a checkout:

    python3 bench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` wraps the public functions of every lckverify module from
the outside (see ``tracing.py``) and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and spans
are also written to ``bench/out/``.

    python3 bench/run.py --workload all --seed 0 --seconds 30

runs every workload untraced and traced in child processes, prints one
table, checks the predictions listed in ``bench/README.md``, writes every
result to ``bench/out/all-seed<N>.json``, and exits 1 when any operation
failed.

The program is imported from ``src/`` of the checkout; the benchmark sets
none of its knobs and refuses to run when ``LCKVERIFY_JOBS`` is set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

WORKLOADS = ("catalog", "solve", "construct")

#: a run measures whole rounds until --seconds have passed and it holds at
#: least this many items, so that p90 has ten samples beyond it
MIN_ITEMS = 100
#: but stops after this many seconds whatever it holds
MAX_SECONDS = 120
#: a traced run measures at least this many traced/untraced round pairs;
#: three keep a traced catalog run near 75 s on a 2-core box
MIN_PAIRS = 3
#: fresh interpreters timed for setup_s, after one untimed warm-up; they
#: are spread over the run, so that their median covers the same stretch
#: of the box's drifting speed as the other metrics
SETUP_SAMPLES = 15

END_TO_END = {
    "pass_s": "s",
    "item_s_p50": "s",
    "item_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; values are per traced round
PER_LAYER = {
    "scalars.poly_gcd.calls": "count",
    "scalars.poly_gcd.self_s": "s",
    "scalars.poly_gcd.useful_ratio": "ratio",
    "scalars.scalar.qq": "count",
    "scalars.scalar.param": "count",
    "scalars.scalar.normalise.self_s": "s",
    "scalars.scalar.arith.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.nonconst_pivots": "count",
    "linalg.mat_mul.self_s": "s",
    "linalg.det.calls": "count",
    "linalg.det.self_s": "s",
    "hermitian.dual_to_primal.calls": "count",
    "hermitian.gram_metric.calls": "count",
    "hermitian.is_positive_at.calls": "count",
    "hermitian.is_complex_structure.busy_s": "s",
    "hermitian.coframe_substitution.busy_s": "s",
    "liealg.ce_d.calls": "count",
    "liealg.ce_d.self_s": "s",
    "exterior.wedge.calls": "count",
    "exterior.wedge.self_s": "s",
    "lck.verify_lck.busy_s": "s",
    "lck.vaisman_test.busy_s": "s",
    "lck.lee_form.busy_s": "s",
    "lck.morse_novikov_betti.busy_s": "s",
    "solver.twisted_closed_space.busy_s": "s",
    "solver.lck_space.busy_s": "s",
    "solver.satisfies_conditions.busy_s": "s",
    "constructions.ot_algebra.busy_s": "s",
    "constructions.cokahler_mapping_torus.busy_s": "s",
    "catalog.load_catalog.busy_s": "s",
    "catalog.family.busy_s": "s",
    "catalog.automorphism.busy_s": "s",
    "catalog.nolck.busy_s": "s",
    "catalog.replay.busy_s": "s",
    "catalog.equivalence.busy_s": "s",
    "catalog.entry_max_s": "s",
    "cli.run.self_s": "s",
    "layer.cli.self_s": "s",
    "layer.catalog.self_s": "s",
    "layer.solver.self_s": "s",
    "layer.constructions.self_s": "s",
    "layer.lck.self_s": "s",
    "layer.hermitian.self_s": "s",
    "layer.liealg.self_s": "s",
    "layer.exterior.self_s": "s",
    "layer.linalg.self_s": "s",
    "layer.scalars.self_s": "s",
    "trace.overhead_s": "s",
}

_COUNTER_METRICS = ("scalars.scalar.qq", "scalars.scalar.param",
                    "linalg.rref.nonconst_pivots")
_ARITH_SPANS = ("scalars.scalar.add", "scalars.scalar.sub",
                "scalars.scalar.mul", "scalars.scalar.div")

_SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
import lckverify.cli
from lckverify.catalog import load_catalog
with open(sys.argv[1]) as fh:
    load_catalog(fh.read())
print(repr(time.perf_counter() - start))
"""


def fail(message):
    """Stop without a result line."""
    print(f"bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import lckverify from src/ of this checkout, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "lckverify", "__init__.py")):
        fail(f"no lckverify source under {SRC}")
    if "LCKVERIFY_JOBS" in os.environ:
        fail("LCKVERIFY_JOBS is set; the benchmark measures the program's defaults, "
             "unset it")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import lckverify

    where = os.path.dirname(os.path.abspath(lckverify.__file__))
    if where != os.path.join(SRC, "lckverify"):
        fail(f"lckverify was imported from {where}, not from {SRC}")
    return lckverify


def environment(lckverify):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.system(),
        "lckverify": lckverify.__version__,
        "LCKVERIFY_JOBS": "unset",
    }


def time_setup(catalog_path):
    """Seconds of `import lckverify.cli` plus loading and validating the
    workload's catalog, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, catalog_path],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        fail(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout)


# -- one workload ----------------------------------------------------------------


def run_rounds(wl, seconds):
    """Whole rounds until `seconds` have passed with MIN_ITEMS items done.

    Between rounds, set-up samples are taken in step with the elapsed share
    of `seconds`, SETUP_SAMPLES in all.  Returns the rounds and the set-up
    samples.
    """
    time_setup(wl.setup_catalog)  # warm-up
    start = time.perf_counter()
    rounds, setup = [], []
    while True:
        rounds.append(wl.round(len(rounds)))
        elapsed = time.perf_counter() - start
        items = sum(len(r.items) for r in rounds)
        done = elapsed >= MAX_SECONDS or (elapsed >= seconds and items >= MIN_ITEMS)
        share = 1.0 if done else min(1.0, elapsed / seconds)
        while len(setup) < SETUP_SAMPLES * share:
            setup.append(time_setup(wl.setup_catalog))
        if done:
            return rounds, setup


def end_to_end(rounds, setup):
    passes = [r.pass_s for r in rounds]
    items = [op.seconds for r in rounds for op in r.items]
    values = {
        "pass_s": statistics.median(passes),
        "item_s_p50": statistics.median(items),
        "item_s_p90": statistics.quantiles(items, n=10)[-1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "pass_s": f"median of {len(passes)} passes",
        "item_s_p50": f"of {len(items)} items",
        "item_s_p90": f"of {len(items)} items, "
                      f"{sum(x > values['item_s_p90'] for x in items)} beyond",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    return values, samples


def run_traced(wl, seconds, lckverify):
    """An untraced warm-up round, then pairs of a traced and an untraced
    round until `seconds` have passed with MIN_PAIRS pairs done.

    Returns the rounds, the tracer, the number of pairs, and the values
    taken from the untraced rounds: the tracing overhead (median over the
    pairs of traced minus untraced `pass_s`) and `catalog.entry_max_s`.
    """
    from tracing import Tracer

    start = time.perf_counter()
    warm = wl.round()
    tracer = Tracer(lckverify)
    wl.untimed = tracer.paused
    traced, plain = [], []
    while True:
        tracer.start()
        try:
            traced.append(wl.round())
        finally:
            tracer.stop()
        plain.append(wl.round())
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(traced) >= MIN_PAIRS):
            break
    untraced = {
        "trace.overhead_s": statistics.median(t.pass_s - p.pass_s
                                              for t, p in zip(traced, plain)),
        "catalog.entry_max_s": wl.entry_max_s(plain),
    }
    return [warm] + traced + plain, tracer, len(traced), untraced


def per_layer(tracer, rounds, untraced):
    stats = tracer.stats()

    def stat(span, key):
        return stats[span][key] / rounds if span in stats else 0.0

    values = {}
    for metric in PER_LAYER:
        if metric in _COUNTER_METRICS:
            values[metric] = tracer.count(metric) / rounds
        elif metric == "scalars.poly_gcd.useful_ratio":
            calls = tracer.count("scalars.poly_gcd.normalise_calls")
            values[metric] = tracer.count("scalars.poly_gcd.useful") / calls if calls else 0.0
        elif metric == "scalars.scalar.arith.self_s":
            values[metric] = sum(stat(s, "self_s") for s in _ARITH_SPANS)
        elif metric in untraced:
            values[metric] = untraced[metric]
        elif metric.startswith("layer."):
            layer = metric.split(".")[1] + "."
            values[metric] = sum(st["self_s"] for name, st in stats.items()
                                 if name.startswith(layer)) / rounds
        else:
            span, key = metric.rsplit(".", 1)
            values[metric] = stat(span, key)
    return values


def run_one(args):
    lckverify = import_program()
    import workloads

    env = environment(lckverify)
    reference = None
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, ROOT, args.seed, reference)
    try:
        if args.trace:
            rounds, tracer, pairs, untraced = run_traced(wl, args.seconds, lckverify)
            values = per_layer(tracer, pairs, untraced)
            units = PER_LAYER
            samples = {"per_layer": f"mean per traced round over {pairs} traced rounds",
                       "trace.overhead_s": f"median over {pairs} traced/untraced pairs",
                       "catalog.entry_max_s": f"medians over {pairs} untraced rounds"}
            spans_path = os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(spans_path)
        else:
            rounds, setup = run_rounds(wl, args.seconds)
            values, samples = end_to_end(rounds, setup)
            units = END_TO_END
    finally:
        wl.close()

    ops = [op for r in rounds for op in r.ops]
    failures = [op for op in ops if not op.ok]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "rounds": len(rounds),
        "fail_ratio": len(failures) / len(ops), "samples": samples,
        "pass_values": [r.pass_s for r in rounds],
        "failures": [{"id": op.id, "detail": op.detail} for op in failures],
        "result": result,
    }
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for op in failures[:20]:
        print(f"bench: FAILED {op.id}: {op.detail}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}, {len(rounds)} rounds")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for k in units:
        note = samples.get(k, "")
        print(f"  {k:44s} {values[k]:14.6f} {units[k]:6s} {note}")
    print(f"  {'fail_ratio':44s} {len(failures)}/{len(ops)} = {record['fail_ratio']:g}")
    print(json.dumps(result))
    return 0


# -- every workload ---------------------------------------------------------------


def run_all(args):
    lckverify = import_program()
    env = environment(lckverify)
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                fail(f"{workload} trace {trace} exited {done.returncode}")
            path = os.path.join(OUT_DIR, f"result-{workload}-seed{args.seed}"
                                         f"-trace{trace}.json")
            with open(path) as fh:
                results[(workload, trace)] = json.load(fh)

    print(f"seed {args.seed}, {args.seconds} s per run")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'end-to-end':24s}" + "".join(f"{w:>22s}" for w in WORKLOADS))
    for metric, unit in END_TO_END.items():
        row = f"{metric + ' (' + unit + ')':24s}"
        for w in WORKLOADS:
            row += f"{results[(w, 0)]['result']['metrics'][metric]['value']:22.6f}"
        print(row)
    row = f"{'fail_ratio':24s}"
    for w in WORKLOADS:
        r = results[(w, 0)]["result"]
        row += f"{r['failed']:>16d}/{r['attempted']:<5d}"
    print(row)
    for w in WORKLOADS:
        print(f"  {w}: " + "; ".join(f"{k} {v}" for k, v in
                                     results[(w, 0)]["samples"].items()))
    print(f"{'per layer, per round':44s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for metric, unit in PER_LAYER.items():
        print(f"{metric + ' (' + unit + ')':44s}" + "".join(
            f"{results[(w, 1)]['result']['metrics'][metric]['value']:14.6g}"
            for w in WORKLOADS))

    predictions = check_predictions(
        {w: {k: v["value"] for k, v in results[(w, 1)]["result"]["metrics"].items()}
         for w in WORKLOADS})
    for p in predictions:
        print(f"prediction {'met' if p['met'] else 'NOT MET'}: {p['claim']} ({p['observed']})")
    doc = {
        "seed": args.seed, "seconds": args.seconds, "environment": env,
        "runs": {f"{w}/trace{t}": r for (w, t), r in results.items()},
        "predictions": predictions,
    }
    path = os.path.join(OUT_DIR, f"all-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    failed = sum(r["result"]["failed"] for r in results.values())
    attempted = sum(r["result"]["attempted"] for r in results.values())
    print(f"{failed} of {attempted} operations failed")
    return 1 if failed else 0


def check_predictions(layer):
    """The predictions made before the baseline was measured."""
    solve = layer["solve"]
    other_scalars = max(solve["scalars.scalar.normalise.self_s"],
                        solve["scalars.scalar.arith.self_s"])
    gram = {w: layer[w]["hermitian.gram_metric.calls"] for w in WORKLOADS}
    return [
        {"claim": "scalars.poly_gcd.calls == 0 on construct",
         "met": layer["construct"]["scalars.poly_gcd.calls"] == 0,
         "observed": f"{layer['construct']['scalars.poly_gcd.calls']:g} per round"},
        {"claim": "poly_gcd is the largest scalars self time on solve",
         "met": solve["scalars.poly_gcd.self_s"] > other_scalars,
         "observed": f"poly_gcd {solve['scalars.poly_gcd.self_s']:.4f} s, "
                     f"normalise {solve['scalars.scalar.normalise.self_s']:.4f} s, "
                     f"arithmetic {solve['scalars.scalar.arith.self_s']:.4f} s per round"},
        {"claim": "hermitian.gram_metric.calls per round is highest on catalog",
         "met": gram["catalog"] > max(gram["solve"], gram["construct"]),
         "observed": ", ".join(f"{w} {v:g}" for w, v in gram.items())},
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
