"""Print one sha256 over every outcome of `equilibrium._newton` on a fixed corpus.

The corpus: the four builtins and `random_scenario` 0-199 from the zero
start alone and stacked with the uniqueness probe's 5 starts (seed 7);
`random_scenario` 0-99 from 10 far starts each, uniform in [-10, 10],
[-30, 30] and [-100, 100]; 5node's zero start at `beta0_r_default` 50-300
(step 10), 400 and 680-695; and sweep stacks of 5 cells over beta3 and
beta2 (0.25-4) of each Sioux builtin, from the zero start and from far
starts. Each outcome adds its vector (y, or a NotConverged's best_y and
message) and its residual history to the hash.

Two versions of the solver that agree on the digest reach the same
outcomes bit for bit. The digest depends on how numpy and its BLAS round
phi, so compare digests taken on one machine only. Run from the
repository root:

    PYTHONPATH=src python tools/outcome_digest.py [LADDER_ENTRIES]

The optional argument overrides `equilibrium.LADDER_ENTRIES`, the line
search's per-round budget, which must not change any outcome. The CI job
`outcome-digest` runs it with no argument, with 0 and with 1000000000, and
fails unless the three digests are equal.
"""
import hashlib
import sys

import numpy as np

from modal_market import equilibrium
from modal_market.choice import compile_scenario
from modal_market.equilibrium import (
    NotConverged, ValidationFailed, _compiled, _newton, _probe_starts,
)
from modal_market.oracle import random_scenario
from modal_market.scenario import builtin, with_param


def digest() -> str:
    """The sha256 hex digest over every outcome of the corpus."""
    h = hashlib.sha256()

    def run(cs, Y):
        for o in _newton(cs, Y, 1e-10, 200):
            y = o.best_y if isinstance(o, NotConverged) else o.y
            h.update((str(o) if isinstance(o, NotConverged) else "").encode() + y.tobytes()
                     + np.array(o.residual_history, dtype=float).tobytes())

    def compiled(sc):
        try:
            return _compiled(sc)
        except ValidationFailed:
            h.update(b"invalid")

    builtins = [builtin(n) for n in ("5node", "sioux1", "sioux2", "sioux3")]
    for sc in builtins + [random_scenario(s) for s in range(200)]:
        if cs := compiled(sc):
            run(cs, np.zeros((1, cs.dim)))
            run(cs, np.vstack([np.zeros(cs.dim), _probe_starts(sc, 5, 7)[1]]))
    for s in range(100):
        if cs := compiled(random_scenario(s)):
            for w in (10.0, 30.0, 100.0):
                run(cs, np.random.default_rng(s).uniform(-w, w, (10, cs.dim)))
    for v in [*range(50, 301, 10), 400, *range(680, 696)]:
        if cs := compiled(with_param(builtins[0], "driver_params.beta0_r_default", float(v))):
            run(cs, np.zeros((1, cs.dim)))
    for sc in builtins[1:]:
        for p in ("driver_params.beta3", "traveler_params.beta2"):
            cells = [compile_scenario(with_param(sc, p, v)) for v in (0.25, 0.5, 1.0, 2.0, 4.0)]
            run(cells, np.zeros((5, cells[0].dim)))
            for s in (3, 4):
                for w in (10.0, 30.0):
                    run(cells, np.random.default_rng(s).uniform(-w, w, (5, cells[0].dim)))
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) > 1:
        equilibrium.LADDER_ENTRIES = int(sys.argv[1])
    print(digest())
