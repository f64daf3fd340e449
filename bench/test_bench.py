"""Tests of the benchmark itself: python -m pytest -q bench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_checkout()

import calibration  # noqa: E402
import modal_market as mm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scaled_sioux import MAX_ODS_PER_ORIGIN, M, scaled_document, scaled_sioux  # noqa: E402


def test_generator_is_deterministic_and_valid():
    assert scaled_document(7) == scaled_document(7)
    assert scaled_document(7) != scaled_document(8)
    sc = scaled_sioux(7)
    assert len(sc.ods) == M
    assert 2 * M + len(sc.network.nodes) == 424
    assert max(Counter(od.r for od in sc.ods).values()) <= MAX_ODS_PER_ORIGIN
    assert mm.validate(sc) == []
    assert mm.save(mm.load(scaled_document(7))) == scaled_document(7)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.end_to_end([0.01] * 100, 0.5, 40.0)) == set(run.END_TO_END)
    layers = tracing.layer_metrics([], [0.01] * 100, 10.0, 11.0, 0)
    assert set(layers) == set(run.PER_LAYER)


def test_p90_needs_one_hundred_samples():
    with pytest.raises(ValueError):
        run.percentiles_ms([0.001 * k for k in range(99)])
    for n in (100, 101, 150):
        seconds = [0.001 * k for k in range(1, n + 1)]
        _, p90 = run.percentiles_ms(seconds)
        assert sum(1e3 * s > p90 for s in seconds) >= 10


class _Stream:
    def __init__(self, ops):
        self.ops = ops

    def op(self, i):
        return self.ops[i % len(self.ops)]()


def test_forced_failure_is_counted(tmp_path):
    def solve(extra, name):
        out = tmp_path / name
        argv = ["solve", "--scenario", "builtin:5node", "--out", str(out)] + extra
        return workloads.cli_op(name, argv, out, workloads._verify_solution)

    stream = _Stream([lambda: solve([], "ok"), lambda: solve(["--max-iter", "1"], "stalled")])
    samples = run.measure(stream, seconds=0.0)
    assert len(samples.seconds) == run.MIN_OPS
    # attempted and failed count distinct inputs; each repeat failed alike
    assert (samples.attempted, samples.failed, samples.wrong) == (2, 1, [])


def test_changed_outcome_on_a_repeat_is_wrong():
    samples = run.Samples()
    samples.record("x", 0.0, 0.01, workloads.Outcome())
    samples.record("x", 0.1, 0.01, workloads.Outcome(failed=True))
    assert (samples.attempted, samples.failed) == (1, 0)
    assert samples.wrong and "on a repeat" in samples.wrong[0]


def test_audit_corpus_is_fixed_by_the_seed(tmp_path):
    wl = workloads.AuditCorpus(3, tmp_path)
    n = workloads.AUDIT_CORPUS
    labels = [wl.op(i).label for i in range(n)]
    assert len(set(labels)) == n
    assert [wl.op(n + i).label for i in (0, 1, n - 1)] == [labels[0], labels[1], labels[-1]]


def test_speed_scaling_uses_nearby_kernel_samples():
    speed = calibration.SpeedTrack()
    ref = calibration.REFERENCE_S
    speed.at = [float(k) for k in range(20)]
    speed.seconds = [ref] * 10 + [2 * ref] * 10
    assert speed.scale(2.0, 0.5) == pytest.approx(0.5)
    assert speed.scale(17.0, 0.5) == pytest.approx(0.25)
    speed.sample()
    assert speed.seconds[-1] > 0


def test_bad_exit_and_changed_artifacts_are_wrong(tmp_path):
    bad = workloads.cli_op("bad", ["solve", "--scenario", "builtin:nope", "--out",
                                   str(tmp_path / "bad")], tmp_path / "bad",
                           workloads._verify_solution)
    *_, outcome = run.timed(bad)
    assert outcome.failed and "exit 2" in outcome.wrong

    seen = {}
    out = tmp_path / "rep"
    argv = ["solve", "--scenario", "builtin:5node", "--format", "json", "--out", str(out)]
    for _ in range(2):
        *_, outcome = run.timed(workloads.cli_op("rep", argv, out, workloads._verify_solution,
                                                seen=seen))
        assert outcome.wrong is None
    seen[tuple(argv)] = "0" * 64
    *_, outcome = run.timed(workloads.cli_op("rep", argv, out, workloads._verify_solution,
                                            seen=seen))
    assert "artifacts differ" in outcome.wrong


def test_trace_records_layers_and_restores_functions(tmp_path):
    original = mm.cli.main
    out = tmp_path / "t"
    op = workloads.cli_op("t", ["solve", "--scenario", "builtin:5node", "--out", str(out)],
                          out, workloads._verify_solution)
    tracer = tracing.Tracer()
    with tracer:
        _, _, seconds, outcome = run.timed(op, tracer, 0)
    assert mm.cli.main is original
    assert outcome.wrong is None
    layers = {s.layer for s in tracer.spans}
    assert {"cli.main", "equilibrium.solve", "linalg", "choice.flow_matrix"} <= layers
    metrics = tracing.layer_metrics(tracer.spans, [seconds], 1.0, 1.0, 0)
    assert metrics["linalg.dim"] == 9
    assert metrics["equilibrium.solve.calls"] == 1
    assert 0 <= metrics["trace.uncovered_share"] < run.MAX_UNCOVERED_SHARE
    assert run.coverage_wrong(metrics) == []
    assert run.coverage_wrong({"trace.uncovered_share": 0.25}) != []


def test_reference_duals_reproduce():
    op = workloads.ScaledSolve(0, Path()).warmup()
    *_, outcome = run.timed(op)
    assert (outcome.failed, outcome.wrong) == (False, None)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-builtins", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
