"""modal-market benchmark: one closed-loop client calling the library in-process.

    python3 bench/run.py --workload scaled-solve|cli-builtins|audit-corpus \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`. The
workload's inputs come from `--seed` alone. Each operation is timed around
the call into modal-market only, and its output is checked afterwards; a run
keeps going until `--seconds` have passed, at least MIN_OPS operations are
done and, where the workload cycles a fixed corpus, one full pass is done.
`attempted` and `failed` count distinct operations (inputs); an input run
again must fail or succeed as it did the first time, or the run is wrong.

`--trace 0` prints the end-to-end metrics. Their times are scaled to the
reference machine speed of calibration.py, from kernel samples taken between
operations; the raw wall-clock figures are printed beside them. `setup_s` is
the median wall time, scaled, of SETUP_PROBES fresh interpreters that each
import modal_market, build the workload and run its warm-up operation.
`--trace 1` runs every operation twice, once plain and once with every
layer's public functions wrapped (see tracing.py), and prints per-operation
layer metrics, in raw wall time, from the traced runs and the tracing
overhead from the pairs. A traced run in which the layer spans
cover less than 1 - MAX_UNCOVERED_SHARE of the traced op time counts as a
wrong output.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os
import sys

# BLAS and OpenMP read these once, when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("scaled-solve", "cli-builtins", "audit-corpus")
#: With 100 samples, 10 lie beyond the nearest-rank p90.
MIN_OPS = 100
SETUP_PROBES = 11
#: A traced run whose layer spans leave more of the op time uncovered is wrong.
MAX_UNCOVERED_SHARE = 0.1
END_TO_END = {
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.ms": "ms",
    "linalg.calls": "count",
    "linalg.dim": "rows",
    "linalg.flops_computed": "flop",
    "equilibrium.solve.ms": "ms",
    "equilibrium.solve.self_ms": "ms",
    "equilibrium.solve.calls": "count",
    "equilibrium.solve.iterations": "count",
    "equilibrium.solve.failed_share": "ratio",
    "equilibrium.uniqueness_probe.ms": "ms",
    "choice.flow_matrix.ms": "ms",
    "choice.flow_matrix.calls_per_solve": "ratio",
    "choice.flow_matrix.calls_per_iteration": "ratio",
    "choice.compile_scenario.ms": "ms",
    "choice.compile_scenario.calls": "count",
    "scenario.load.ms": "ms",
    "scenario.builtin.ms": "ms",
    "scenario.validate.ms": "ms",
    "netgraph.time_matrix.ms": "ms",
    "choice.postprocess.ms": "ms",
    "analytics.metrics.ms": "ms",
    "analytics.sweep_cell.ms": "ms",
    "analytics.hub_study.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_written": "B",
    "oracle.perturbation_probe.ms": "ms",
    "oracle.kkt_check.ms": "ms",
    "choice.driver_flows_logit.ms": "ms",
    "trace.op_ms.p50": "ms",
    "trace.overhead": "ratio",
    "trace.uncovered_share": "ratio",
}


def use_checkout() -> None:
    """Import modal_market from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "modal_market" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'modal_market'} not found; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


@dataclass
class Samples:
    """Timed operations, and the outcome of each distinct input."""

    starts: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    outcomes: dict[str, bool] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(self.outcomes.values())

    def record(self, label: str, start: float, seconds: float, outcome) -> None:
        self.starts.append(start)
        self.seconds.append(seconds)
        self.bytes_written += outcome.bytes_written
        if outcome.wrong is not None:
            self.wrong.append(outcome.wrong)
        first = self.outcomes.setdefault(label, outcome.failed)
        if first != outcome.failed:
            self.wrong.append(f"{label}: failed={outcome.failed} on a repeat, {first} before")


def timed(op, tracer=None, index: int = -1):
    """Run one op; returns (label, start, seconds, outcome). Exceptions become results."""
    if tracer is not None:
        tracer.begin(index)
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the check reports it; the loop keeps going
        result = exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    return op.label, start, seconds, op.check(result)


def _indices(seconds: float, min_ops: int = MIN_OPS):
    """Op indices of a closed loop with one client: the next op starts when
    the last is checked, until `seconds` have passed and `min_ops` are done."""
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        yield i
        i += 1


def _min_ops(workload) -> int:
    return max(MIN_OPS, getattr(workload, "corpus_size", 0))


def measure(workload, seconds: float, speed=None) -> Samples:
    """Closed-loop run; with a SpeedTrack, kernel samples go between ops."""
    samples = Samples()
    for i in _indices(seconds, _min_ops(workload)):
        op = workload.op(i)
        if speed is not None:
            speed.maybe_sample()
        samples.record(*timed(op))
    if speed is not None:
        speed.sample()
    return samples


def measure_traced(workload, seconds: float, tracer) -> tuple[Samples, Samples]:
    """Run each op twice, untraced and traced, alternating which goes first.

    Pairing the two runs of an op keeps the tracing overhead estimate clear
    of drift in machine speed between the start and end of a run.
    """
    plain, traced = Samples(), Samples()
    for i in _indices(seconds, _min_ops(workload)):
        op = workload.op(i)
        for with_trace in ((True, False) if i % 2 else (False, True)):
            if with_trace:
                with tracer:
                    traced.record(*timed(op, tracer, i))
            else:
                plain.record(*timed(op))
    return plain, traced


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    """(median, nearest-rank p90) in ms; needs MIN_OPS samples."""
    n = len(seconds)
    if n < MIN_OPS:
        raise ValueError(f"{n} samples; the p90 needs at least {MIN_OPS}")
    ordered = sorted(seconds)
    return 1e3 * statistics.median(ordered), 1e3 * ordered[math.ceil(0.9 * n) - 1]


def end_to_end(seconds: list[float], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    p50, p90 = percentiles_ms(seconds)
    return {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "ops_per_s": len(seconds) / sum(seconds),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def setup_probe(workload: str, seed: int, work: Path) -> int:
    """Body of one fresh setup interpreter: build the workload, warm up."""
    import workloads

    op = workloads.make(workload, seed, work).warmup()
    *_, outcome = timed(op)
    if outcome.failed or outcome.wrong:
        print(f"warm-up failed: {outcome.wrong}", file=sys.stderr)
        return 1
    return 0


def setup_seconds(workload: str, seed: int, work: Path) -> float:
    """Median wall time of SETUP_PROBES fresh interpreters running setup_probe,
    scaled by the median of kernel samples, two before each probe and one
    after the last. Single samples next to a probe scatter more than the
    probes do, so one speed for the whole set is steadier than one per probe."""
    import calibration

    speed = calibration.SpeedTrack()
    times = []
    for k in range(SETUP_PROBES):
        speed.sample()
        speed.sample()
        probe_dir = work / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe", str(probe_dir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    speed.sample()
    return statistics.median(times) * calibration.REFERENCE_S / statistics.median(speed.seconds)


def coverage_wrong(metrics: dict[str, float]) -> list[str]:
    """The wrong-output entry of a traced run whose spans miss too much op time."""
    uncovered = metrics["trace.uncovered_share"]
    if uncovered < MAX_UNCOVERED_SHARE:
        return []
    return [f"trace: uncovered share {uncovered:.3f} >= {MAX_UNCOVERED_SHARE}"]


def report(name: str, seed: int, metrics: dict[str, float], units: dict[str, str],
           samples: Samples, run_wrong: list[str]) -> int:
    attempted, failed = samples.attempted, samples.failed
    wrong = run_wrong + samples.wrong
    print(f"# {name} seed {seed}: {len(samples.seconds)} timed ops over {attempted} "
          f"distinct inputs, {len(wrong)} wrong outputs; percentiles over n={len(samples.seconds)}")
    print(f"failed_share {failed / attempted:.6g} ({failed}/{attempted} distinct inputs)")
    for key, unit in units.items():
        print(f"{key} {metrics[key]:.6g} {unit}")
    for w in wrong[:10]:
        print(f"# wrong: {w}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not wrong else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout()
    if args.setup_probe is not None:
        return setup_probe(args.workload, args.seed, args.setup_probe)

    import calibration
    import workloads

    print("# env " + json.dumps(environment(), sort_keys=True))
    work = BENCH_DIR / f".work-{os.getpid()}"
    try:
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed, work)
        wl = workloads.make(args.workload, args.seed, work / "run")
        *_, warm = timed(wl.warmup())
        warm_wrong = [f"warm-up: {warm.wrong or 'failed'}"] if warm.failed or warm.wrong else []
        if not args.trace:
            speed = calibration.SpeedTrack()
            samples = measure(wl, args.seconds, speed)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            scaled = [speed.scale(t, s) for t, s in zip(samples.starts, samples.seconds)]
            metrics = end_to_end(scaled, setup_s, rss)
            raw = end_to_end(samples.seconds, setup_s, rss)
            print(f"# speed: kernel median {1e3 * statistics.median(speed.seconds):.4g} ms over "
                  f"{len(speed.seconds)} samples, reference {1e3 * calibration.REFERENCE_S:g} ms")
            print("# raw wall clock " + json.dumps(
                {k: raw[k] for k in ("op_ms.p50", "op_ms.p90", "ops_per_s")}))
            return report(args.workload, args.seed, metrics, END_TO_END, samples, warm_wrong)

        import tracing

        tracer = tracing.Tracer()
        plain, traced = measure_traced(wl, args.seconds, tracer)
        metrics = tracing.layer_metrics(
            tracer.spans, traced.seconds,
            untraced_p50_ms=percentiles_ms(plain.seconds)[0],
            traced_p50_ms=percentiles_ms(traced.seconds)[0],
            bytes_written=traced.bytes_written,
        )
        plain.wrong += traced.wrong
        for label, failed in traced.outcomes.items():
            if plain.outcomes.setdefault(label, failed) != failed:
                plain.wrong.append(f"{label}: failed={failed} traced, {not failed} untraced")
        return report(args.workload, args.seed, metrics, PER_LAYER, plain,
                      warm_wrong + coverage_wrong(metrics))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
