"""gelab benchmark: one workload per fresh process, one caller, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload entropy-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

A run imports gelab from ./src, makes its inputs from --seed, warms up on
graphs that no timed operation uses, then issues operations back to back:
as many whole rounds (see workloads.py) as take --seconds on the host the
round times were measured on, and at least 100 operations. Every result is
then checked, outside the timing, by code independent of the timed path
(checks.py).

Times are reported at a reference host speed. Between operations the run
times a fixed probe that does not touch gelab (cpu_probe_s), and scales
each operation's time by REF_PROBE_S over the median probe near it; set-up
samples are scaled the same way. A shared host whose speed drifts thus
moves the probe and the operations together and leaves the metrics; a
change to gelab moves only the operations. The times as measured are
printed beside them ("as_measured"). Latency percentiles are Harrell-Davis
estimates (harrell_davis).

--trace 0 reports the end-to-end metrics. --trace 1 runs a fixed batch of
rounds twice, untraced and then with span-recording wrappers around every
public gelab function (spans.py), and reports the per-layer metrics; the
batch is fixed so that counts such as entropy.iterations repeat exactly for
a seed. --all runs every workload in its own process and prints a table.

The last line of output is one JSON object: correct, attempted, failed and
metrics. Details (environment, input fingerprint, failures) are printed
above it and written, with the spans of a traced run, to .perfbench_out/.
"""

from __future__ import annotations

import argparse
from bisect import bisect_left, bisect_right
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from types import SimpleNamespace

import spans
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_OPS = 100          # so that at least 10 samples lie beyond the 90th percentile
SETUP_PROBES = 5       # fresh processes timed for setup_s
PROBE_GAP_S = 0.1      # between operations, time the fixed probe (cpu_probe_s) this often
PROBE_WINDOW_S = 1.0   # an operation's timing is scaled by the probes this close to it
# The probe's median time on the host the benchmark was written on (2-core
# x86_64, Python 3.11). Every reported time is scaled to it.
REF_PROBE_S = 0.0025
WALL_LIMIT_S = 120.0   # stop issuing rounds past this, however many were planned
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "calls": "count", "iterations": "count", "nonconverged": "count",
    "sets_enumerated": "count", "vertices_out": "count",
    "bytes_in": "bytes", "bytes_out": "bytes",
    "us_per_set": "us", "us_per_iteration": "us", "gap_max_bits": "bits",
    "lp_calls_per_decision": "ratio", "yes_fraction": "fraction", "overhead_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    leaf = name.split(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_calls"):
        return "count"
    return PER_LAYER_UNITS[leaf]


def load_gelab():
    """Import gelab from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gelab", "__init__.py")):
        raise SystemExit(f"error: no gelab sources under {src}")
    sys.path.insert(0, src)
    gelab = importlib.import_module("gelab")
    if os.path.dirname(os.path.abspath(gelab.__file__)) != os.path.join(src, "gelab"):
        raise SystemExit(f"error: imported gelab from {gelab.__file__}, not {src}")
    modules = {layer: importlib.import_module(f"gelab.{layer}") for layer in spans.LAYERS}
    return SimpleNamespace(root=ROOT, modules=modules,
                           oracle=importlib.import_module("gelab.oracle"), **modules)


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def set_up(gl, name: str, seed: int, workdir: str):
    """Generate the first round of inputs and warm up. Returns (workload, round 0)."""
    workload = WORKLOADS[name](gl, seed, workdir)
    warm = workload.warmup()
    first = workload.round_ops(0)
    for op in warm:
        execute(op)
    return workload, first


def execute(op, tracer=None, op_id: int = 0) -> None:
    """Run one operation; only `op.run` is inside the timing."""
    op.result = op.error = None
    op.seconds = None
    if op.prepare is not None:
        try:
            op.prepare()
        except Exception as exc:  # the input it needed was not produced
            op.error = f"prepare failed: {exc!r}"
            return
    t0 = perf_counter()
    try:
        op.result = tracer.op(op_id, op.run) if tracer else op.run()
    except Exception as exc:
        op.error = f"raised {exc!r}"
    op.seconds = perf_counter() - t0


def check_all(ops) -> list[str]:
    failures = []
    for i, op in enumerate(ops):
        if op.error is None:
            try:
                errs = op.check(op.result)
            except Exception as exc:
                errs = [f"check raised {exc!r}"]
            if errs:
                op.error = "; ".join(errs)
        if op.error is not None:
            failures.append(f"op {i} {op.kind}: {op.error}")
    return failures


def fingerprint(ops, rounds: int) -> dict:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode())
        h.update(b"\n")
    return {"sha256": h.hexdigest(), "ops": len(ops),
            "vertices": sum(op.n for op in ops), "rounds": rounds}


def _probe_work() -> int:
    total = 0
    for i in range(20_000):          # interpreter loop
        total += i * i % 7
    sets = [frozenset(range(i % 37, i % 37 + 8)) for i in range(40)]
    for x in sets:                   # set algebra, as in independent-set enumeration
        for y in sets:
            total += len(x & y)
    return total


def cpu_probe_s(repeats: int = 1) -> float:
    """Median time of a fixed piece of work that does not touch gelab.

    It measures how fast this host runs right now: on a shared machine its
    time can change by half within a minute, and every timing of gelab
    changes with it. Timings are scaled by REF_PROBE_S / (this probe near them).
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _probe_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def harrell_davis(xs, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of the samples `xs`.

    A weighted mean of all order statistics, the weights being the mass a
    Beta(q(n+1), (1-q)(n+1)) density puts on each ((i-1)/n, i/n]. It
    estimates the same quantile as the plain order statistic but does not
    jump between neighbouring samples, which in a run of ~150 operations
    of very different sizes lie tens of percent apart.
    """
    import numpy

    xs = sorted(xs)
    n, k = len(xs), 64  # k grid steps per order statistic
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = (numpy.arange(n * k) + 0.5) / (n * k)  # midpoints of the integration grid
    log_pdf = (a - 1) * numpy.log(t) + (b - 1) * numpy.log1p(-t)
    mass = numpy.exp(log_pdf - log_pdf.max()).reshape(n, k).sum(axis=1)
    return float(numpy.dot(mass / mass.sum(), xs))


def local_speed(probes, t0: float, t1: float) -> float:
    """Median probe time within PROBE_WINDOW_S of the interval [t0, t1].

    `probes` is sorted by time; timed_rounds probes at most PROBE_GAP_S
    before every operation starts, so the window is never empty.
    """
    times = [t for t, _ in probes]
    lo, hi = bisect_left(times, t0 - PROBE_WINDOW_S), bisect_right(times, t1 + PROBE_WINDOW_S)
    return statistics.median(s for _, s in probes[lo:hi])


def setup_probes(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready-to-time, in fresh processes.

    Returns the samples scaled to the reference host speed, and as measured.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = cpu_probe_s(3)
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
        speed = statistics.median([before, cpu_probe_s(3)])
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * REF_PROBE_S / speed)
    return scaled, raw


def timed_rounds(workload, first, seconds: float):
    """Run the fixed number of whole rounds that takes about `seconds`.

    The count comes from the workload's nominal round time, not from a
    clock, so every run of a workload does the same work: a busier machine
    then shows as slower operations, not as a different mix of rounds.
    Between operations, at most every PROBE_GAP_S, the fixed probe is
    timed; returns the operations, the rounds run, each operation's start
    and the probes as (time, seconds).
    """
    total = max(round(seconds / workload.round_seconds), math.ceil(MIN_OPS / len(first)))
    ops, starts, batch = [], [], first
    start = perf_counter()
    probes = [(start, cpu_probe_s())]
    for r in range(total):
        if r:
            batch = workload.round_ops(r)
        for op in batch:
            if perf_counter() - probes[-1][0] >= PROBE_GAP_S:
                probes.append((perf_counter(), cpu_probe_s()))
            starts.append(perf_counter())
            execute(op)
        ops += batch
        if perf_counter() - start > WALL_LIMIT_S:
            break
    probes.append((perf_counter(), cpu_probe_s()))
    return ops, r + 1, starts, probes


def clear_caches(gl) -> None:
    """Empty gelab's memo caches so a second pass over the batch starts cold."""
    for mod in gl.modules.values():
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run_untraced(args, workload, first):
    setup, setup_raw = setup_probes(args.workload, args.seed)
    t0 = perf_counter()
    ops, rounds, starts, probes = timed_rounds(workload, first, args.seconds)
    t1 = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    failures = check_all(ops)
    t2 = perf_counter()
    timed = [(op, at) for op, at in zip(ops, starts) if op.seconds is not None]
    raw = [op.seconds for op, _ in timed]
    lat = [op.seconds * REF_PROBE_S / local_speed(probes, at, at + op.seconds)
           for op, at in timed]
    values = {
        "throughput_ops_s": (len(ops) - len(failures)) / sum(lat),
        "latency_p50_ms": harrell_davis(lat, 0.5) * 1e3,
        "latency_p90_ms": harrell_davis(lat, 0.9) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    probe_ms = [s * 1e3 for _, s in probes]
    notes = {
        "latency_samples": len(lat),
        "beyond_p90": sum(x * 1e3 > values["latency_p90_ms"] for x in lat),
        "setup_samples_s": setup,
        "error_rate": len(failures) / len(ops),
        "ref_probe_ms": REF_PROBE_S * 1e3,
        "probe_ms": {"samples": len(probe_ms), "min": min(probe_ms),
                     "median": statistics.median(probe_ms), "max": max(probe_ms)},
        "as_measured": {
            "throughput_ops_s": (len(ops) - len(failures)) / sum(raw),
            "latency_p50_ms": harrell_davis(raw, 0.5) * 1e3,
            "latency_p90_ms": harrell_davis(raw, 0.9) * 1e3,
            "setup_s": statistics.median(setup_raw),
        },
        "loop_s": t1 - t0,
        "check_s": t2 - t1,
        "op_seconds": [[op.kind, op.n, op.seconds, x, at - t0] for (op, at), x in zip(timed, lat)],
        "probes": [[t - t0, s] for t, s in probes],
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return ops, rounds, failures, metrics, notes


def trace_batch(gl, batch):
    """Run the batch untraced, then again with spans. Returns (tracer, failures, values)."""
    for op in batch:
        execute(op)
    base = sum(op.seconds or 0.0 for op in batch)
    clear_caches(gl)
    tracer = spans.Tracer(gl.modules)
    tracer.install()
    try:
        for i, op in enumerate(batch):
            execute(op, tracer, i)
    finally:
        tracer.uninstall()
    traced = sum(op.seconds or 0.0 for op in batch)
    failures = check_all(batch)
    selfs = spans.self_times(tracer.spans)
    failures += spans.consistency_errors(tracer.spans, selfs)
    values = spans.layer_metrics(tracer.spans, selfs, sum(op.stdout_bytes for op in batch))
    values["trace.overhead_ratio"] = traced / base - 1.0
    return tracer, failures, values


def run_traced(args, workload, first):
    batch = list(first)
    for r in range(1, workload.trace_rounds):
        batch += workload.round_ops(r)
    tracer, failures, values = trace_batch(workload.gl, batch)
    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_path)
    notes = {"spans": len(tracer.spans), "spans_file": os.path.relpath(span_path, ROOT)}
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    return batch, workload.trace_rounds, failures, metrics, notes


def run_workload(args) -> int:
    for var in BLAS_THREAD_VARS:  # one process, one thread
        os.environ[var] = "1"
    gl = load_gelab()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload, first = set_up(gl, args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        env = environment(args.seed)
        if args.trace:
            ops, rounds, failures, metrics, notes = run_traced(args, workload, first)
        else:
            ops, rounds, failures, metrics, notes = run_untraced(args, workload, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # failures may also hold span-consistency problems; `failed` counts operations
    result = {"correct": not failures, "attempted": len(ops),
              "failed": sum(op.error is not None for op in ops), "metrics": metrics}
    details = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
               "env": env, "inputs": fingerprint(ops, rounds), "notes": notes,
               "failures": failures, "result": result}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"env: {json.dumps(env)}")
    print(f"inputs: {json.dumps(details['inputs'])}")
    print(f"notes: {json.dumps({k: v for k, v in notes.items() if k not in ('op_seconds', 'probes')})}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    for line in failures[:20]:
        print(f"FAIL {line}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        with open(os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  encoding="utf-8") as fh:
            details = json.load(fh)
        result, notes = details["result"], details["notes"]
        ok = ok and result["correct"]
        rows.append((name, "attempted", result["attempted"], "ops", details["inputs"]["sha256"][:16]))
        for metric, m in result["metrics"].items():
            extra = ""
            if metric.startswith("latency"):
                extra = f"n={notes['latency_samples']}"
                if metric.endswith("p90_ms"):
                    extra += f", {notes['beyond_p90']} beyond"
            elif metric == "setup_s":
                extra = f"median of {len(notes['setup_samples_s'])} processes"
            rows.append((name, metric, m["value"], m["unit"], extra))
        if not args.trace:
            rows.append((name, "error_rate", notes["error_rate"], "fraction",
                         f"{result['failed']} of {result['attempted']}"))
    for name, metric, value, unit, extra in rows:
        print(f"{name:14s} {metric:38s} {value:>14.6g} {unit:9s} {extra}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
