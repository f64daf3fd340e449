"""Print what the default start of `equilibrium.solve` saves over the zero start.

For each corpus it prints, from the zero start (y0 = 0) and from the
default start (`equilibrium._start`): the Newton iterations and the phi
evaluations (`_potential` calls) summed over its solved documents, and the
number of failed solves. Then the worst dual gap between the two starts,
|y_default - y_zero|_inf / max(1, |y_zero|_inf), over the documents both
solve. The corpora: the four builtins, `micro_instances`, `random_scenario`
0-199 and `bench/scaled_sioux.py`'s `scaled_sioux` seeds 0-19 (imported,
not changed). Run from the repository root:

    PYTHONPATH=src python tools/start_report.py
"""
import sys
from pathlib import Path

import numpy as np

from modal_market import equilibrium
from modal_market.equilibrium import NotConverged, solve
from modal_market.oracle import micro_instances, random_scenario
from modal_market.scenario import builtin

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from scaled_sioux import scaled_sioux  # noqa: E402

CORPORA = {
    "builtins": lambda: [builtin(n) for n in ("5node", "sioux1", "sioux2", "sioux3")],
    "micro_instances": micro_instances,
    "random_scenario 0-199": lambda: [random_scenario(s) for s in range(200)],
    "scaled_sioux 0-19": lambda: [scaled_sioux(s) for s in range(20)],
}


def run(scenarios, zero: bool) -> tuple[int, int, int, list]:
    """(iterations, phi calls, failures, duals or None per document) of
    solving each document from the zero or the default start."""
    calls = 0
    potential = equilibrium._potential

    def counted(*args):
        nonlocal calls
        calls += 1
        return potential(*args)

    equilibrium._potential = counted
    iterations, failures, ys = 0, 0, []
    try:
        for sc in scenarios:
            y0 = np.zeros(equilibrium._compiled(sc).dim) if zero else None
            try:
                sol = solve(sc, y0=y0)
            except NotConverged:
                failures += 1
                ys.append(None)
            else:
                iterations += sol.iterations
                ys.append(sol.y)
    finally:
        equilibrium._potential = potential
    return iterations, calls, failures, ys


def main() -> None:
    print(f"{'corpus':24s} {'start':8s} {'iterations':>10s} {'phi calls':>10s} {'failures':>9s}"
          f" {'worst dual gap':>15s}")
    for name, build in CORPORA.items():
        scenarios = build()
        zero, default = run(scenarios, True), run(scenarios, False)
        gaps = [np.abs(a - b).max() / max(1.0, np.abs(b).max())
                for a, b in zip(default[3], zero[3]) if a is not None and b is not None]
        for label, (iterations, calls, failures, _) in (("zero", zero), ("default", default)):
            gap = f"{max(gaps, default=0.0):15.2e}" if label == "default" else ""
            print(f"{name:24s} {label:8s} {iterations:10d} {calls:10d} {failures:9d} {gap}")


if __name__ == "__main__":
    main()
