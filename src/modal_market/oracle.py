"""Independent verification layer for equilibrium solutions.

Three checks of a solution against the model itself:

* `kkt_check` rebuilds the combined model's Lagrangian and probes its
  stationarity coordinate-by-coordinate with central finite differences;
  its constraint residuals are the feasibility audit the tests hold the
  probe's moves to;
* `grid_solve_micro` recovers the duals of very small instances by nested
  grid refinement over the clearing residual, with flow formulas written
  out locally rather than imported from the choice module;
* `perturbation_probe` projects random relative moves of every flow onto
  the null space of the model's constraints and confirms the combined
  objective strictly increases along each.

The first two avoid the solver's code paths. The probe's projection solves
its normal equations with the solver's Newton step (`_newton_step`), which
factors that very system at the solution; its constraint map B and the
correction W B^T z are written out here, and `kkt_check` does not use the
step.

`micro_instances` and `random_scenario` supply the verification corpus.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .choice import CompiledScenario, compile_scenario
from .equilibrium import (
    EquilibriumSolution,
    NonPositiveFlow,
    _newton_step,
    _scatter,
    combined_objective_arrays,
)
from .scenario import (
    DriverParams,
    Network,
    ODSpec,
    Scenario,
    TravelerParams,
    _relocation_from_network,
    validate,
)


class OracleError(Exception):
    """Base class for oracle errors."""


class DimensionTooLarge(OracleError):
    """Instance has more free duals than the grid oracle can refine."""


@dataclass(frozen=True)
class KktReport:
    """Finite-difference stationarity and constraint residuals of the
    combined model's Lagrangian at a solution."""

    stationarity: float
    constraint_violation: float


# ---------------------------------------------------------------------------
# KKT stationarity by finite differences

FD_REL_STEP = 1e-6


def _central_diff(x: np.ndarray, u: np.ndarray, c: np.ndarray, beta: float) -> np.ndarray:
    """Central differences, one per coordinate, of the Lagrangian terms
    x*(ln x - 1 - u)/beta - c*x, at relative step FD_REL_STEP."""

    def term(v: np.ndarray) -> np.ndarray:
        return v * (np.log(v) - 1 - u) / beta - c * v

    h = FD_REL_STEP * np.abs(x)
    return (term(x + h) - term(x - h)) / (2.0 * h)


def kkt_check(sc: Scenario, solution: EquilibriumSolution) -> KktReport:
    """Max |dL/dx| over all primal coordinates, plus max constraint gap.

    The Lagrangian uses the solution's clearing duals (rho, lambda). The
    demand multipliers of the per-OD simplex constraints are recovered in
    closed form from the drive-mode stationarity condition (driving carries
    no endogenous price, so its coordinate pins them down); the stock
    multipliers equal lambda by the stationarity of the stocks themselves,
    so the stocks' local terms vanish identically and are not probed.
    Differencing is done on the per-coordinate terms of the Lagrangian, so
    no precision is lost to cancellation against unrelated terms.
    """
    cs = compile_scenario(sc)
    m = cs.m
    q = solution.traveler.matrix
    E, E_H, Q = solution.driver.E, solution.driver.E_H, solution.driver.stock
    if np.any(q <= 0) or np.any(E <= 0) or np.any(E_H <= 0) or np.any(Q <= 0):
        raise NonPositiveFlow("kkt check requires strictly positive flows")

    rho, lam = cs.rho_lam(solution.y)
    eta_d, eta_h = cs.eta(solution.y)
    b2, b3 = cs.beta2, cs.beta3

    # mu from the drive coordinate: (1/b2)(ln q1 - U1) - mu = 0
    mu = (np.log(q[:, 0]) - cs.u_drive) / b2

    grads = (
        _central_diff(
            q,
            np.stack([cs.u_drive, cs.u_ride, cs.u_multi], axis=1),
            np.stack([mu, mu - eta_d, mu - eta_h], axis=1),
            b2,
        ),
        _central_diff(E, cs.A, rho[None, :] + lam[:, None], b3),
        _central_diff(E_H, cs.a_H, lam, b3),
    )
    worst = max(float(np.abs(g).max()) for g in grads)

    arrivals = np.zeros(cs.n_nodes)
    np.add.at(arrivals, cs.s_idx, q[:, 1])
    np.add.at(arrivals, cs.h_idx, q[:, 2])
    constraint = max(
        float(np.abs(q.sum(axis=1) - cs.d).max()),
        float(np.abs(E.sum(axis=1) + E_H - Q).max()),
        float(np.abs(E[:, :m].sum(axis=0) - q[:, 1]).max()),
        float(np.abs(E[:, m:].sum(axis=0) - q[:, 2]).max()),
        float(np.abs(Q - arrivals - cs.dQ).max()),
    )
    return KktReport(stationarity=worst, constraint_violation=float(constraint))


# ---------------------------------------------------------------------------
# grid refinement oracle for micro instances

_GRID_POINTS = 21
_GRID_SPAN = 50.0
_GRID_ROUNDS = 12
_GRID_SHRINK = 5.0
_GRID_TARGET = 1e-6
# the 12-round schedule already meets the dual tolerance; extra rounds keep
# shrinking until the spacing also resolves the flows, at ~1e-9 duals
_GRID_MAX_ROUNDS = 22
_GRID_HALF_WIDTH_TARGET = 5e-10


def _micro_terms(sc: Scenario):
    """Utilities and exponents written out from the scenario data, kept
    separate from the compiled arrays used by the solver."""
    if len(sc.ods) != 1:
        raise DimensionTooLarge(
            f"grid oracle handles exactly one OD pair, got {len(sc.ods)}"
        )
    od = sc.ods[0]
    tp, dp = sc.traveler_params, sc.driver_params
    u1 = (
        tp.beta0_drive
        - tp.beta1_drive * (od.drive_time + od.parking_time)
        - tp.beta2 * (od.drive_cost + od.parking_cost)
    )
    u2 = tp.beta0_ride - tp.beta1_ride * od.drive_time
    u3 = (
        tp.beta0_multi
        - tp.beta1_multi * (od.hub_access_time + od.transit_time)
        - tp.beta1_wait * od.transit_wait
        - tp.beta2 * od.transit_fare
    )
    nodes = list(sc.network.nodes)
    # columns: 0 = direct leg (r -> s), 1 = hub leg (r -> hub)
    base = np.empty((len(nodes), 2))
    for i, n in enumerate(nodes):
        base[i, :] = dp.beta0_at(od.r) - dp.beta1 * sc.relocation_time(n, od.r)
    a_H = np.array(
        [dp.beta0_H + dp.beta3 * sc.signout_bonus_at(n) for n in nodes]
    )
    dQ = np.array([sc.signin_at(n) for n in nodes])
    return od, nodes, (u1, u2, u3), base, a_H, dQ


def grid_solve_micro(sc: Scenario) -> np.ndarray:
    """Duals of a one-OD instance by nested grid refinement.

    Free coordinates are (rho_direct, rho_hub) plus lambda at nodes that
    receive drop-offs; lambdas of no-arrival nodes are eliminated exactly by
    their stock equations. Refinement starts on [-50, 50] per coordinate at
    21 points and shrinks 5x around the argmin, 12 rounds minimum, and keeps
    shrinking until the grid spacing resolves the duals to ~1e-9 so the
    implied flows agree with the solver well inside 1e-8. Returns the full
    dual vector in solver layout.
    """
    od, nodes, (u1, u2, u3), base, a_H, dQ = _micro_terms(sc)
    tp, dp = sc.traveler_params, sc.driver_params
    b2, b3 = tp.beta2, dp.beta3
    n_nodes = len(nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    s_i, h_i = idx[od.s], idx[od.hub]
    arrival_ix = sorted(set([s_i, h_i]))
    free_ix = [i for i in range(n_nodes) if i not in arrival_ix]
    dims = 2 + len(arrival_ix)
    if dims > 4:
        raise DimensionTooLarge(
            f"{dims} free duals after pruning; the grid oracle caps at 4"
        )

    centers = np.zeros(dims)
    half = _GRID_SPAN

    def residual_on_grid(axes: list[np.ndarray]) -> tuple[np.ndarray, tuple[int, ...]]:
        grids = np.meshgrid(*axes, indexing="ij")
        flat = [g.ravel() for g in grids]
        rho_d, rho_h = flat[0], flat[1]
        G = rho_d.size
        lam = np.empty((G, n_nodes))
        for k, i in enumerate(arrival_ix):
            lam[:, i] = flat[2 + k]
        # no-arrival nodes: stock Q_n = dQ_n pins lambda_n given the prices
        for i in free_ix:
            supply = (
                np.exp(base[i, 0] + b3 * rho_d)
                + np.exp(base[i, 1] + b3 * rho_h)
                + math.exp(a_H[i])
            )
            lam[:, i] = (np.log(dQ[i]) - np.log(supply)) / b3
        eta_d = rho_d + lam[:, s_i]
        eta_h = rho_h + lam[:, h_i]
        U = np.stack(
            [np.full(G, u1), u2 - b2 * eta_d, u3 - b2 * eta_h], axis=1
        )
        U -= U.max(axis=1, keepdims=True)
        expU = np.exp(U)
        P = expU / expU.sum(axis=1, keepdims=True)
        q2 = od.demand * P[:, 1]
        q3 = od.demand * P[:, 2]

        E_d = np.exp(base[None, :, 0] + b3 * (rho_d[:, None] + lam))
        E_h = np.exp(base[None, :, 1] + b3 * (rho_h[:, None] + lam))
        E_H = np.exp(a_H[None, :] + b3 * lam)
        Q = E_d + E_h + E_H

        comps = [E_d.sum(axis=1) - q2, E_h.sum(axis=1) - q3]
        for i in arrival_ix:
            arr = (q2 if i == s_i else 0.0) + (q3 if i == h_i else 0.0)
            comps.append(Q[:, i] - arr - dQ[i])
        r = np.max(np.abs(np.stack(comps, axis=1)), axis=1)
        flat_best = int(np.argmin(r))
        return r[flat_best], np.unravel_index(flat_best, grids[0].shape)

    best = np.inf
    rounds = 0
    while rounds < _GRID_ROUNDS or (
        rounds < _GRID_MAX_ROUNDS
        and (best > _GRID_TARGET or half > _GRID_HALF_WIDTH_TARGET)
    ):
        rounds += 1
        axes = [
            np.linspace(centers[k] - half, centers[k] + half, _GRID_POINTS)
            for k in range(dims)
        ]
        best, best_idx = residual_on_grid(axes)
        centers = np.array([axes[k][best_idx[k]] for k in range(dims)])
        half /= _GRID_SHRINK

    # assemble the full dual vector in solver layout
    rho_d, rho_h = centers[0], centers[1]
    lam_full = np.empty(n_nodes)
    for k, i in enumerate(arrival_ix):
        lam_full[i] = centers[2 + k]
    for i in free_ix:
        supply = (
            math.exp(base[i, 0] + b3 * rho_d)
            + math.exp(base[i, 1] + b3 * rho_h)
            + math.exp(a_H[i])
        )
        lam_full[i] = (math.log(dQ[i]) - math.log(supply)) / b3
    return np.concatenate([[rho_d], [rho_h], lam_full])


# ---------------------------------------------------------------------------
# convexity probe


def _flow_parts(cs: CompiledScenario, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(q, E, E_H) views of flows packed along the last axis of v: drive,
    ride and multimodal flows by OD, E row by row, E_H."""
    lead, m, n = v.shape[:-1], cs.m, cs.n_nodes
    q = v[..., : 3 * m].reshape(lead + (3, m)).swapaxes(-1, -2)
    return q, v[..., 3 * m : -n].reshape(lead + (n, 2 * m)), v[..., -n:]


def _moves(cs: CompiledScenario, solution: EquilibriumSolution, samples: int,
           seed: int, magnitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Packed flows x and `samples` feasible moves x*u, one per row: each
    Gaussian u is projected onto the null space of u -> B(x*u) in the metric
    of the objective's Hessian and scaled to max|u| = magnitude.

    `centred` takes each OD's share-weighted mean off its three traveler
    entries, which keeps its demand row exact. B maps flows to the clearing
    per driver column and the stock balance per node, the stock eliminated,
    in dual layout. With the demand rows eliminated, B W B^T for
    W = diag(beta*x) is the solver's Jacobian at the solution, so one
    `_newton_step` with every sample as a right-hand side projects them all.
    Each pass writes the correction W B^T z into `w` block by block.
    """
    m, n = cs.m, cs.n_nodes
    q, dr = solution.traveler.matrix, solution.driver
    x = np.concatenate([q.T.ravel(), dr.E.ravel(), dr.E_H])
    P = q / cs.d[:, None]

    def B(v: np.ndarray) -> np.ndarray:
        _, E, E_H = _flow_parts(cs, v)
        served = v[..., m : 3 * m]  # traveler demand per driver column
        arrivals = _scatter(cs, "drop_idx", served, (n,))
        return np.concatenate((E.sum(axis=-2) - served, E.sum(axis=-1) + E_H - arrivals), axis=-1)

    def centred(u: np.ndarray) -> np.ndarray:
        u[..., : 3 * m] -= np.tile((_flow_parts(cs, u)[0] * P).sum(axis=-1), 3)
        return u

    u = centred(np.random.default_rng(seed).standard_normal((samples, x.size)))
    w = np.empty_like(u)
    for _ in range(2):  # the second pass removes what rounding left of B(x*u)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z = _newton_step(cs, P, dr.E, dr.stock, B(x * u).T).T
        col, s = z[:, : 2 * m], z[:, 2 * m :]
        w[:, :m] = 0.0  # no row of B holds a drive flow; centring wrote one
        w[:, m : 3 * m] = -cs.beta2 * (col + s[:, cs.drop_idx])
        w[:, 3 * m : -n] = (cs.beta3 * (s[:, :, None] + col[:, None, :])).reshape(samples, -1)
        w[:, -n :] = cs.beta3 * s
        u += centred(w)
    u *= magnitude / np.abs(u).max(axis=1, keepdims=True)
    return x, x * u


def perturbation_probe(
    sc: Scenario,
    solution: EquilibriumSolution,
    samples: int = 100,
    seed: int = 0,
    magnitude: float = 1e-3,
) -> float:
    """Min combined-objective gap over random feasible perturbations.

    The feasible moves of a linearly constrained program are the null space
    of its constraint matrix, so each of the `samples` (at least 1) moves is
    a Gaussian relative move of every flow projected onto it in the metric
    of the objective's Hessian (`_moves`): every demand, clearing and stock
    equation stays exact, and no flow moves by more than `magnitude` (in
    [0, 1)) of its own size. Strict convexity makes every gap positive. The
    objective is evaluated at x, then at all moved points in one batched call.
    """
    if not 0.0 <= magnitude < 1.0:
        raise ValueError(f"magnitude must lie in [0, 1), got {magnitude}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    cs = compile_scenario(sc)
    x, dx = _moves(cs, solution, samples, seed, magnitude)
    f = combined_objective_arrays(cs, *_flow_parts(cs, x + dx))
    return float((f - combined_objective_arrays(cs, *_flow_parts(cs, x))).min())


# ---------------------------------------------------------------------------
# verification corpus


def _complete_times(pairs: Mapping[tuple[int, int], float]) -> list[tuple[int, int, float]]:
    return [(a, b, t) for (a, b), t in pairs.items()]


def micro_instances() -> tuple[Scenario, ...]:
    """Small one-OD instances solvable by the grid oracle.

    All use modest demand and sensitivity scales so the final grid spacing
    resolves the duals well inside the agreement tolerance.
    """
    lopsided = Network.from_links(
        _complete_times(
            {
                (1, 2): 8.0, (2, 1): 9.0,
                (1, 3): 4.0, (3, 1): 5.0,
                (2, 3): 6.0, (3, 2): 7.0,
            }
        ),
        name="micro-lopsided",
    )
    micro1 = Scenario(
        name="micro-lopsided",
        network=lopsided,
        ods=(
            ODSpec(
                r=1, s=2, demand=10.0, hub=3,
                drive_time=8.0, hub_access_time=4.0,
                transit_time=12.0, transit_wait=4.0, transit_fare=0.8,
                drive_cost=2.5, parking_time=1.5, parking_cost=0.6,
            ),
        ),
        relocation_times={
            (1, 1): 0.0, (2, 1): 9.0, (3, 1): 5.0,
        },
        signin={1: 3.0, 2: 3.0, 3: 3.0},
        traveler_params=TravelerParams(beta2=0.5),
        driver_params=DriverParams(beta3=0.5),
    )

    # direct and hub legs made structurally identical: the clearing prices
    # of both legs must coincide at equilibrium
    twin_net = Network.from_links(
        _complete_times(
            {
                (1, 2): 6.0, (2, 1): 6.0,
                (1, 3): 6.0, (3, 1): 6.0,
                (2, 3): 5.0, (3, 2): 5.0,
            }
        ),
        name="micro-twin",
    )
    micro2 = Scenario(
        name="micro-twin",
        network=twin_net,
        ods=(
            ODSpec(
                r=1, s=2, demand=8.0, hub=3,
                drive_time=6.0, hub_access_time=6.0,
                transit_time=0.0, transit_wait=0.0, transit_fare=0.0,
                drive_cost=2.0, parking_time=1.0, parking_cost=0.5,
            ),
        ),
        relocation_times={(1, 1): 0.0, (2, 1): 6.0, (3, 1): 6.0},
        signin={1: 4.0, 2: 4.0, 3: 4.0},
        traveler_params=TravelerParams(
            beta0_multi=2.0, beta1_multi=0.2, beta2=0.5
        ),
        driver_params=DriverParams(beta3=0.5),
    )

    bystander_net = Network.from_links(
        _complete_times(
            {
                (1, 2): 7.0, (2, 1): 7.0,
                (1, 3): 3.0, (3, 1): 3.0,
                (2, 3): 5.0, (3, 2): 5.0,
                (4, 1): 6.0, (4, 2): 8.0, (1, 4): 6.0, (2, 4): 8.0,
            }
        ),
        name="micro-bystander",
    )
    micro3 = Scenario(
        name="micro-bystander",
        network=bystander_net,
        ods=(
            ODSpec(
                r=1, s=2, demand=15.0, hub=3,
                drive_time=7.0, hub_access_time=3.0,
                transit_time=10.0, transit_wait=3.0, transit_fare=0.5,
                drive_cost=3.0, parking_time=1.0, parking_cost=0.5,
            ),
        ),
        relocation_times={(1, 1): 0.0, (2, 1): 7.0, (3, 1): 3.0, (4, 1): 6.0},
        signin={1: 5.0, 2: 4.0, 3: 3.0, 4: 6.0},
        traveler_params=TravelerParams(beta2=0.8),
        driver_params=DriverParams(beta3=0.6, beta1=0.25),
    )
    return (micro1, micro2, micro3)


def random_scenario(seed: int) -> Scenario:
    """Seeded random instance for the verification corpus.

    Link and relocation times are drawn from [1, 60] minutes; attractiveness
    coefficients from [0.05, 5]. Sensitivity coefficients are restricted to
    the sub-ranges below so every logit flow stays representable in float64
    (time sensitivities in [0.05, 0.5], price sensitivities in [0.3, 3],
    both within the nominal [0.05, 5] coefficient box and clear of the
    degenerate near-zero-sensitivity regime).
    """
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, 8))
    nodes = list(range(1, n_nodes + 1))
    links = [
        (a, b, float(rng.uniform(1.0, 60.0)))
        for a in nodes
        for b in nodes
        if a != b
    ]
    net = Network.from_links(links, nodes=nodes, name=f"random-{seed}")

    n_ods = int(rng.integers(1, 4))
    ods: list[ODSpec] = []
    used_pairs: set[tuple[int, int]] = set()
    guard = 0
    while len(ods) < n_ods and guard < 200:
        guard += 1
        r, s = (int(x) for x in rng.choice(nodes, size=2, replace=False))
        hub_options = [n for n in nodes if n not in (r, s)]
        hub = int(rng.choice(hub_options))
        if (r, s) in used_pairs or (r, hub) in used_pairs:
            continue
        used_pairs.add((r, s))
        used_pairs.add((r, hub))
        ods.append(
            ODSpec(
                r=r, s=s, demand=float(rng.uniform(20.0, 200.0)), hub=hub,
                drive_time=float(rng.uniform(5.0, 60.0)),
                hub_access_time=float(rng.uniform(1.0, 30.0)),
                transit_time=float(rng.uniform(5.0, 60.0)),
                transit_wait=float(rng.uniform(0.0, 15.0)),
                transit_fare=float(rng.uniform(0.0, 3.0)),
                drive_cost=float(rng.uniform(0.0, 8.0)),
                parking_time=float(rng.uniform(0.0, 10.0)),
                parking_cost=float(rng.uniform(0.0, 3.0)),
            )
        )

    origins = tuple(sorted({od.r for od in ods}))
    traveler = TravelerParams(
        beta0_drive=float(rng.uniform(0.05, 5.0)),
        beta0_ride=float(rng.uniform(0.05, 5.0)),
        beta0_multi=float(rng.uniform(0.05, 5.0)),
        beta1_drive=float(rng.uniform(0.05, 0.5)),
        beta1_ride=float(rng.uniform(0.05, 0.5)),
        beta1_multi=float(rng.uniform(0.05, 0.5)),
        beta1_wait=float(rng.uniform(0.05, 0.5)),
        beta2=float(rng.uniform(0.3, 3.0)),
    )
    driver = DriverParams(
        beta0_H=float(rng.uniform(0.05, 3.0)),
        beta1=float(rng.uniform(0.05, 0.5)),
        beta3=float(rng.uniform(0.3, 3.0)),
        beta0_r={n: float(rng.uniform(0.0, 1.5)) for n in origins},
    )
    sc = Scenario(
        name=f"random-{seed}",
        network=net,
        ods=tuple(ods),
        relocation_times=_relocation_from_network(net, origins),
        signin={n: float(rng.uniform(2.0, 30.0)) for n in nodes},
        traveler_params=traveler,
        driver_params=driver,
    )
    assert not validate(sc), validate(sc)
    return sc
