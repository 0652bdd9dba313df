"""isoshift benchmark: one seeded workload, one client, closed loop.

    python3 perfbench/run.py --workload certify_dpt --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (it imports ``src/isoshift`` from there,
never an installed copy).  ``--trace 0`` measures the end-to-end metrics:
ops run back to back, in whole blocks, until ``--seconds`` of op time have
passed and at least 100 ops were attempted.  ``--trace 1`` runs a fixed
number of ops twice, untraced then traced, and reports per-layer metrics;
its work counters repeat exactly for a fixed seed.  On ``certify_dpt`` it also
runs the known failing cells of ``workloads.defect_probe`` once, untimed, and
counts their failures under ``fail.*``; they are not among the attempted ops.  The last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and the
``metrics`` that ``BENCHMARK.json`` lists; a fuller report goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# one client on one thread: BLAS pools stay single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_REPEATS = 5
# ops of a traced run: whole blocks, so counters are exact for a seed
TRACE_BLOCKS = {"certify_ro": 1, "certify_dpt": 8, "eigen_tables": 2}

FAIL_KINDS = ("cert", "error", "crash", "check")

_SETUP_PROBE = """
import sys
root, name, seed, blocks = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import isoshift.cli, workloads
workloads.generate(name, seed, blocks)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(name, seed, blocks):
    """Median wall time of a fresh interpreter importing isoshift and making the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT), name, str(seed), str(blocks)],
            cwd=ROOT, check=True, capture_output=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def run_ops(ops, tracer=None, first_id=0):
    """Execute and judge each op; returns [(op, seconds, outcome)]."""
    import workloads

    records = []
    for i, op in enumerate(ops, first_id):
        if tracer is None:
            t0 = time.perf_counter()
            raw = workloads.execute(op)
            dt = time.perf_counter() - t0
        else:
            span = tracer.begin_op(i)
            raw = workloads.execute(op)
            tracer.end_op(span)
            dt = tracer.end[span] - tracer.start[span]
        outcome = workloads.judge(op, raw)
        if outcome.layer == "unattributed" and tracer is not None:
            outcome.layer = tracer.exc_layer.get(i, "unattributed")
        records.append((op, dt, outcome))
    return records


def closed_loop(name, seed, seconds, first_ops):
    """Whole blocks until `seconds` of op time and workloads.MIN_OPS ops."""
    import workloads

    records = run_ops(first_ops)
    index = workloads.min_blocks(name)
    while sum(r[1] for r in records) < seconds:
        records += run_ops(workloads.block(name, seed, index), first_id=len(records))
        index += 1
    return records


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def fail_counts(records):
    return Counter(o.kind for _, _, o in records if o.failed)


def end_to_end(records, setup_s):
    times = [dt for _, dt, _ in records]
    n = len(records)
    return {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(times),
        "op_s.p90": quantile(times, 0.9),
        "ops_per_s": n / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, records, untraced_seconds, probe=()):
    """Per-op layer metrics of a traced pass; fail.* are totals over it and the probe."""
    import numpy as np
    import workloads

    from tracing import ROOT as ROOT_SPAN
    from tracing import in_layer_times, self_times

    sp = tracer.arrays()
    n_ops = len(records)
    names = tracer.names
    layers = sorted({nm.split(".")[0] for nm in names})
    name_layer = np.array([layers.index(nm.split(".")[0]) for nm in names], dtype=np.int32)
    span_layer = name_layer[sp["name"]]
    own = self_times(sp["parent"], sp["start"], sp["end"])
    in_layer = in_layer_times(sp["parent"], sp["name"], span_layer, own, len(names))
    is_root = sp["name"] == names.index(ROOT_SPAN)
    op_total = float(np.sum(sp["end"][is_root] - sp["start"][is_root]))

    def layer_self(layer):
        return float(np.sum(own[span_layer == layers.index(layer)])) if layer in layers else 0.0

    def fn_self(name):
        return float(in_layer[names.index(name)]) if name in names else 0.0

    def calls(*fn_names):
        ids = [names.index(nm) for nm in fn_names if nm in names]
        return int(np.count_nonzero(np.isin(sp["name"], ids)))

    c = tracer.counts
    m = {}
    for layer in ("polyengine", "deform", "catalog", "eop", "spectral", "cli"):
        m[f"{layer}.self_s"] = layer_self(layer) / n_ops
    for layer in ("polyengine", "deform", "eop", "spectral"):
        m[f"{layer}.share"] = layer_self(layer) / op_total
    evals = calls("polyengine.laguerre_eval", "polyengine.jacobi_eval")
    seeds = calls("deform.seed_polynomial")
    for name in ("polyengine.real_zeros", "deform.seed_polynomial", "deform.extend",
                 "eop.gram_matrix", "eop.quad", "spectral.solve_bound_states"):
        m[f"{name}.calls"] = calls(name) / n_ops
    for name in ("polyengine.real_zeros", "deform.extend", "eop.gram_matrix",
                 "spectral.solve_bound_states", "spectral.schrodinger_residual",
                 "spectral.classify_regularity"):
        m[f"{name}.self_s"] = fn_self(name) / n_ops
    m["polyengine.eval.calls"] = evals / n_ops
    m["polyengine.eval.points"] = c["polyengine.eval.points"] / n_ops
    m["polyengine.eval.scalar_share"] = c["polyengine.eval.scalar_calls"] / evals if evals else 0.0
    m["deform.seed_polynomial.distinct_ratio"] = len(tracer.seed_keys) / seeds if seeds else 0.0
    for layer in ("deform", "catalog", "eop"):
        m[f"{layer}.fn.points"] = c[f"{layer}.fn.points"] / n_ops
    m["eop.quad.integrand_evals"] = c["eop.quad.integrand_evals"] / n_ops
    m["spectral.fd_points"] = c["spectral.fd_points"] / n_ops
    grams = [o.gram_offdiag for _, _, o in records if o.gram_offdiag is not None]
    isos = [o.iso_deviation for _, _, o in records if o.iso_deviation is not None]
    # worst margin against the certify gates; 0 when the workload has none
    m["eop.gram_margin_decades"] = min(
        (math.log10(workloads.GRAM_GATE / max(g, 1e-300)) for g in grams), default=0.0)
    m["spectral.isospectral_margin_decades"] = min(
        (math.log10(workloads.ISOSPECTRAL_GATE / max(d, 1e-300)) for d in isos), default=0.0)
    m["cli.output_bytes"] = sum(o.output_bytes for _, _, o in records) / n_ops
    fails = fail_counts([*records, *probe])
    for kind in FAIL_KINDS:
        m[f"fail.{kind}"] = fails[kind]
    m["trace.overhead"] = op_total / untraced_seconds - 1.0
    m["trace.coverage"] = 1.0 - float(np.sum(own[is_root])) / op_total
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def provenance(args):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def failure_lines(records):
    by_layer = Counter((o.kind, o.layer) for _, _, o in records if o.failed)
    return [f"  fail.{kind:<6} {layer:<12} {count}"
            for (kind, layer), count in sorted(by_layer.items())]


def op_record(op, dt, o):
    return {"op": {"type": type(op).__name__, **vars(op)}, "seconds": dt, "kind": o.kind,
            "layer": o.layer, "detail": o.detail}


def write_report(args, report, spans=None):
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        import numpy as np

        np.savez(stem.with_suffix(".spans.npz"), **spans)
    return stem


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "isoshift" / "__init__.py").is_file():
        _fail(f"no isoshift sources under {ROOT / 'src'}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import isoshift
    import workloads
    from tracing import Tracer

    if Path(isoshift.__file__).resolve().parent != ROOT / "src" / "isoshift":
        _fail(f"imported isoshift from {isoshift.__file__}, not from this checkout")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    name, seed = args.workload, args.seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    prov = provenance(args)
    blocks = TRACE_BLOCKS[name] if args.trace else workloads.min_blocks(name)
    ops = workloads.generate(name, seed, blocks)
    workloads.execute(workloads.warm_up_op(name, seed))

    probe = []
    if args.trace == 0:
        setup_s, setup_runs = measure_setup(name, seed, blocks)
        records = closed_loop(name, seed, args.seconds, ops)
        metrics = end_to_end(records, setup_s)
        listed = spec["end_to_end"]
        extra = {"setup_runs_s": setup_runs}
        spans = None
    else:
        # a discarded pass first, so the untraced pass is as warm as the traced one
        run_ops(ops)
        untraced = run_ops(ops)
        tracer = Tracer()
        with tracer:
            records = run_ops(ops, tracer)
        spans = {**tracer.arrays(), "names": tracer.names}
        if name == "certify_dpt":
            # a tracer of its own attributes the errors the CLI catches
            with Tracer() as probe_tracer:
                probe = run_ops(workloads.defect_probe(seed), probe_tracer)
        metrics = per_layer(tracer, records, sum(r[1] for r in untraced), probe)
        listed = spec["per_layer"]
        extra = {"spans": len(tracer.name), "probe": [op_record(*r) for r in probe]}

    # the metrics, their order and units are those BENCHMARK.json lists
    metrics = {m["name"]: metrics[m["name"]] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    fails = fail_counts(records)
    n = len(records)
    times = [dt for _, dt, _ in records]
    beyond = sum(1 for t in times if t > quantile(times, 0.9))
    print(f"perfbench {name} seed={seed} trace={args.trace}: {n} ops, "
          f"{sum(times):.3f} s of op time, one client, closed loop; "
          f"{beyond} ops beyond p90")
    for key, value in metrics.items():
        print(f"  {key:<40} {value:>14.6g} {units[key]}")
    print(f"  {'fail_share':<40} {sum(fails.values()) / n:>14.6g} share "
          f"({sum(fails.values())} of {n}: " + ", ".join(f"{k} {fails[k]}" for k in FAIL_KINDS) + ")")
    for line in failure_lines(records):
        print(line)
    if probe:
        pf = fail_counts(probe)
        print(f"  defect probe: {sum(pf.values())} of {len(probe)} known failing cells failed, "
              "untimed and not attempted ops: " + ", ".join(f"{k} {pf[k]}" for k in FAIL_KINDS))
        for line in failure_lines(probe):
            print(line)
    stem = write_report(args, {
        "provenance": prov, "metrics": metrics, "units": units, **extra,
        "ops": [op_record(*r) for r in records],
    }, spans)
    print(f"  provenance: {json.dumps(prov)}")
    print(f"  report: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": fails["check"] == 0,
        "attempted": n,
        "failed": sum(fails.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
