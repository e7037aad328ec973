"""Tests of the benchmark itself: inputs, counts, failure accounting, names.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import run
import spans
from workloads import WORKLOADS, CliMix, EntropySweep

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
PREDICTIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "predictions.json")


@pytest.fixture(scope="module")
def gl():
    return run.load_gelab()


def _workload(gl, cls, seed, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    return cls(gl, seed, str(tmp_path))


def _rounds(gl, cls, seed, tmp_path, rounds=2):
    workload = _workload(gl, cls, seed, tmp_path)
    ops = workload.warmup()
    for r in range(rounds):
        ops += workload.round_ops(r)
    return ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(gl, name, tmp_path):
    cls = WORKLOADS[name]
    a = run.fingerprint(_rounds(gl, cls, 5, tmp_path / "a"), 2)
    b = run.fingerprint(_rounds(gl, cls, 5, tmp_path / "b"), 2)
    c = run.fingerprint(_rounds(gl, cls, 6, tmp_path / "c"), 2)
    assert a == b
    assert a["sha256"] != c["sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_operation_repeats_an_input(gl, name, tmp_path):
    keys = [op.key for op in _rounds(gl, WORKLOADS[name], 3, tmp_path, rounds=3)]
    assert len(set(keys)) == len(keys)


def _traced_counts(gl, cls, seed, tmp_path, keep):
    workload = _workload(gl, cls, seed, tmp_path)
    workload.warmup()
    ops = workload.round_ops(0)[:keep]
    run.clear_caches(gl)
    _, failures, values = run.trace_batch(gl, ops)
    assert failures == []
    return run.fingerprint(ops, 1), values


def test_same_seed_repeats_counts_exactly(gl, tmp_path):
    # the first nine entropy-sweep operations: three G(n,p), three distributions each
    fa, va = _traced_counts(gl, EntropySweep, 11, tmp_path / "a", 9)
    fb, vb = _traced_counts(gl, EntropySweep, 11, tmp_path / "b", 9)
    assert fa == fb
    for name in ("entropy.iterations", "graphs.sets_enumerated", "graphs.enum_calls"):
        assert va[name] == vb[name] > 0, name

    fa, va = _traced_counts(gl, CliMix, 11, tmp_path / "c", 12)
    fb, vb = _traced_counts(gl, CliMix, 11, tmp_path / "d", 12)
    assert fa == fb
    for name in ("characterize.lp_calls_per_decision", "characterize.calls",
                 "graphs.sets_enumerated", "io.bytes_in", "constructions.vertices_out"):
        assert va[name] == vb[name] > 0, name


def test_layer_self_times_add_up_to_each_operation(gl, tmp_path):
    ops = _rounds(gl, CliMix, 2, tmp_path, rounds=1)
    tracer, failures, values = run.trace_batch(gl, ops)
    assert failures == []
    selfs = spans.self_times(tracer.spans)
    assert spans.consistency_errors(tracer.spans, selfs) == []
    for layer in ("cli", "io", "characterize", "constructions", "exactlp", "graphs"):
        assert any(spans.layer_of(s[0]) == layer for s in tracer.spans), layer
    # the wrappers are gone again
    assert not hasattr(gl.cli.main, "__wrapped__")


def test_wrong_results_count_as_failures(gl, tmp_path):
    ops = _rounds(gl, EntropySweep, 4, tmp_path / "e", rounds=1)[:3]
    true_run = ops[0].run
    ops[0].run = lambda: dataclasses.replace(true_run(), value=true_run().value + 1e-3)
    ops[1].run = lambda: 1 / 0

    cli_ops = _rounds(gl, CliMix, 4, tmp_path / "c", rounds=1)[:1]
    assert cli_ops[0].kind == "cli.chif"
    true_cli = cli_ops[0].run
    cli_ops[0].run = lambda: (1, true_cli()[1])  # right answer, wrong exit code

    batch = ops + cli_ops
    for op in batch:
        run.execute(op)
    failures = run.check_all(batch)
    assert len(failures) == 3
    assert "objective" in failures[0] and "ZeroDivisionError" in failures[1]
    assert "exit 1" in failures[2]
    assert ops[2].error is None


def test_names_agree_with_benchmark_json(gl, tmp_path):
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    _, _, values = run.trace_batch(gl, _rounds(gl, CliMix, 1, tmp_path, rounds=1))
    assert [m["name"] for m in bench["per_layer"]] == list(values)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in bench["per_layer"])

    with open(PREDICTIONS, encoding="utf-8") as fh:
        predictions = json.load(fh)
    metrics = set(run.END_TO_END) | set(values)
    for row in predictions["layer_metrics"]:
        assert set(row["metrics"]) <= metrics
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert set(row["on"] + row["flat_on"]) <= set(WORKLOADS)
    for item in predictions["roadmap_items"].values():
        for signal in item["signals"]:
            assert signal["metric"] in metrics and signal["workload"] in WORKLOADS


def test_harrell_davis_estimates_quantiles():
    assert run.harrell_davis([3.0] * 50, 0.5) == pytest.approx(3.0)
    xs = [float(i) for i in range(1, 102)]
    assert run.harrell_davis(xs, 0.5) == pytest.approx(51.0)
    assert 85.0 < run.harrell_davis(xs, 0.9) < 95.0
    assert run.harrell_davis(xs[::-1], 0.9) == run.harrell_davis(xs, 0.9)


def test_scaling_cancels_a_uniform_slowdown():
    # the same operation on a host twice as slow: probe and operation both double
    fast = [(t / 10, 0.002) for t in range(40)]
    slow = [(t / 10, 0.004) for t in range(40)]
    for probes, seconds in ((fast, 0.05), (slow, 0.10)):
        assert seconds * run.REF_PROBE_S / run.local_speed(probes, 1.0, 1.0 + seconds) == (
            pytest.approx(0.05 * run.REF_PROBE_S / 0.002))
