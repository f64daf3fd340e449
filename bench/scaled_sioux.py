"""Deterministic scaled Sioux Falls instances for the scaled-solve workload.

Each instance draws M OD pairs on the vendored 24-node Sioux Falls network
and one transit hub per OD. `validate` rejects a hub leg (r, hub) that equals
a direct OD pair of the same origin or another OD's hub leg, so an origin
with k ODs needs k destinations plus k distinct hubs, all different from r:
2k <= 23, hence at most 11 ODs per origin. Only public library API is used.
"""
from __future__ import annotations

import numpy as np

from modal_market import DriverParams, ODSpec, Scenario, TravelerParams, save, time_matrix, validate
from modal_market.scenario import SIOUX_DEFAULTS, sioux_network

MAX_ODS_PER_ORIGIN = 11
#: OD pairs per instance; the dual dimension is 2 * M + 24 = 424.
M = 200


def scaled_sioux(seed: int) -> Scenario:
    """Sioux Falls scenario with M seeded OD pairs and hubs; valid by construction."""
    net = sioux_network()
    nodes = net.nodes
    rng = np.random.default_rng(seed)
    pairs = [(r, s) for r in nodes for s in nodes if r != s]
    dests: dict[int, list[int]] = {}
    drawn = 0
    for k in rng.permutation(len(pairs)):
        r, s = pairs[k]
        if len(dests.setdefault(r, [])) < MAX_ODS_PER_ORIGIN:
            dests[r].append(s)
            drawn += 1
            if drawn == M:
                break
    tm = time_matrix(net, nodes, nodes)
    cfg = SIOUX_DEFAULTS
    ods = []
    for r in sorted(dests):
        free = [n for n in nodes if n != r and n not in dests[r]]
        hubs = rng.choice(free, size=len(dests[r]), replace=False)
        for s, h in zip(dests[r], hubs):
            h = int(h)
            ods.append(
                ODSpec(
                    r=r, s=s, demand=float(rng.uniform(50.0, 500.0)), hub=h,
                    drive_time=tm.time(r, s),
                    hub_access_time=tm.time(r, h),
                    transit_time=2.0 * tm.time(h, s),
                    transit_wait=cfg["transit_wait"],
                    transit_fare=cfg["transit_fare"],
                    drive_cost=cfg["drive_cost"],
                    parking_time=cfg["parking_time"],
                    parking_cost=cfg["parking_cost"],
                )
            )
    origins = sorted(dests)
    sc = Scenario(
        name=f"sioux-m{len(ods)}-seed{seed}",
        network=net,
        ods=tuple(ods),
        relocation_times={(n, r): tm.time(n, r) for n in nodes for r in origins},
        signin={n: cfg["signin"] for n in nodes},
        traveler_params=TravelerParams(),
        driver_params=DriverParams(),
    )
    violations = validate(sc)
    if violations:
        raise ValueError(f"generated scenario is invalid: {violations[:3]}")
    return sc


def scaled_document(seed: int) -> bytes:
    """Canonical JSON bytes of `scaled_sioux(seed)`."""
    return save(scaled_sioux(seed))
