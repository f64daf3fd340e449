"""Run every workload over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 0-9 --sets 2 --out bench/baseline.json

For each set and each workload in BENCHMARK.json, runs `run.py --trace 0`
once per seed for `run_seconds`, and records each end-to-end metric's
median, quartiles (`statistics.quantiles(n=4)`) and spread, the
interquartile distance over the median, together with the same summary of
the raw wall-clock times. The first set then makes one `--trace 1` run per
workload on the first seed for the per-layer figures. Runs are made one at
a time, from the repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RAW_PREFIX = "# raw wall clock "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """(environment, raw wall-clock figures, result line) of one run."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    env = json.loads(lines[0].removeprefix("# env "))
    raw = [json.loads(line.removeprefix(RAW_PREFIX)) for line in lines
           if line.startswith(RAW_PREFIX)]
    return env, (raw[0] if raw else {}), json.loads(lines[-1])


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def collect_set(spec: dict, seeds: list[int], traced: bool) -> tuple[dict, dict]:
    seconds = spec["run_seconds"]
    out: dict = {}
    env: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results, raws = [], []
        for seed in seeds:
            env, raw, result = run_once(workload, seed, seconds, 0)
            results.append(result)
            raws.append(raw)
            print(workload, seed, json.dumps(result), flush=True)
        metrics = {
            name: dict(summarise([r["metrics"][name]["value"] for r in results]),
                       unit=results[0]["metrics"][name]["unit"])
            for name in results[0]["metrics"]
        }
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "raw_wall_clock": {name: summarise([r[name] for r in raws]) for name in raws[0]},
        }
        if traced:
            _, _, layers = run_once(workload, seeds[0], seconds, 1)
            entry["correct"] = entry["correct"] and layers["correct"]
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in layers["metrics"].items()}
        out[workload] = entry
        for name, m in metrics.items():
            print(f"{workload} {name}: median {m['median']:.6g} {m['unit']}, "
                  f"spread {m['spread']:.4f}", flush=True)
    return env, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, made one after another")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    summary: dict = {"seeds": seeds, "run_seconds": spec["run_seconds"], "sets": []}
    for k in range(args.sets):
        env, workloads = collect_set(spec, seeds, traced=k == 0)
        summary["env"] = env
        summary["sets"].append(workloads)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
