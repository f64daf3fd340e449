"""Market-clearing equilibrium via the dual of the convex reformulation.

The traveler and driver problems both admit closed-form minimizers once the
clearing constraints are priced out, so the whole equilibrium collapses to a
root-finding problem on the clearing residual over the dual vector

    y = (rho_direct per OD, rho_hub per OD, lambda per node).

The residual is the gradient of a smooth strictly concave dual, hence its
Jacobian is symmetric positive definite; `solve` runs damped Newton on it
with a norm-decrease line search. The Jacobian is never formed: each OD's
logit couples only its own two rho coordinates and two lambdas, and each
driver flow one rho and one lambda, so the rho-rho block is block diagonal
with one 2x2 block per OD. A Newton step eliminates those blocks in closed
form and solves an n_nodes x n_nodes Schur complement for lambda (block
elimination, Boyd & Vandenberghe, Convex Optimization, App. C.4): O(m n^2 +
n^3) work per step for m ODs and n nodes, against O((2m + n)^3) for a dense
LU. The dense analytic and finite-difference Jacobians remain as references
for tests. Prices follow from the duals by the additive decomposition
eta = rho + lambda(drop-off).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from .choice import (
    CompiledScenario,
    DriverFlows,
    OverflowGuard,
    PriceSystem,
    TravelerFlows,
    compile_scenario,
    driver_flow_matrix,
    driver_flows_dual,
    traveler_flow_matrix,
    traveler_flows,
)
from .scenario import MODES, Scenario, validate


class EquilibriumError(Exception):
    """Base class for solver errors."""


class ValidationFailed(EquilibriumError):
    """Scenario failed validation; `violations` lists every problem."""

    def __init__(self, violations: list[str]):
        super().__init__(
            "scenario failed validation:\n  " + "\n  ".join(violations)
        )
        self.violations = violations


class NotConverged(EquilibriumError):
    """Solver hit its iteration cap; carries the best iterate for diagnosis."""

    def __init__(self, message: str, best_y: np.ndarray, residual_history: list[float]):
        super().__init__(message)
        self.best_y = best_y
        self.residual_history = residual_history


class NonPositiveFlow(EquilibriumError):
    """Objective requested at a non-interior point (some flow <= 0)."""


@dataclass(frozen=True)
class ResidualReport:
    """Clearing gaps at a dual vector: supply minus demand per driver market,
    and stock minus (arrivals + sign-ins) per node."""

    r_rho_direct: Mapping[tuple[int, int], float]
    r_rho_hub: Mapping[tuple[int, int], float]
    r_lambda: Mapping[int, float]
    inf_norm: float
    vector: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EquilibriumSolution:
    prices: PriceSystem
    traveler: TravelerFlows
    driver: DriverFlows
    residual: ResidualReport
    iterations: int
    wall_time: float
    y: np.ndarray = field(repr=False)
    converged: bool = True
    residual_history: tuple[float, ...] = ()


def _split(cs: CompiledScenario, y: np.ndarray):
    m = cs.m
    return y[:m], y[m : 2 * m], y[2 * m :]


def _flows_at(cs: CompiledScenario, y: np.ndarray):
    """All primal quantities the residual needs at dual vector y."""
    rho_d, rho_h, lam = _split(cs, y)
    eta_d = rho_d + lam[cs.s_idx]
    eta_h = rho_h + lam[cs.h_idx]
    q, P = traveler_flow_matrix(cs, eta_d, eta_h)
    E, E_H, Q = driver_flow_matrix(cs, np.concatenate([rho_d, rho_h]), lam)
    return q, P, E, E_H, Q


def _residual_vector(cs: CompiledScenario, y: np.ndarray) -> np.ndarray:
    q, _, E, _, Q = _flows_at(cs, y)
    return _residual_of_flows(cs, q, E, Q)


def _residual_of_flows(
    cs: CompiledScenario, q: np.ndarray, E: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    m = cs.m
    arrivals = np.zeros(cs.n_nodes)
    np.add.at(arrivals, cs.s_idx, q[:, 1])
    np.add.at(arrivals, cs.h_idx, q[:, 2])
    return np.concatenate(
        [
            E[:, :m].sum(axis=0) - q[:, 1],
            E[:, m:].sum(axis=0) - q[:, 2],
            Q - arrivals - cs.dQ,
        ]
    )


def _jacobian_analytic(cs: CompiledScenario, y: np.ndarray) -> np.ndarray:
    """Closed-form dense Jacobian of the residual map; symmetric positive
    definite. `solve` builds it only for its least-squares rescue; tests
    check the structured Newton step against it."""
    q, P, E, _, Q = _flows_at(cs, y)
    m, dim = cs.m, cs.dim
    b2, b3 = cs.beta2, cs.beta3

    J = np.zeros((dim, dim))
    # driver side: flows scale exponentially in their own price and in the
    # lambda of the node they depart from
    D = E.sum(axis=0)
    J[np.arange(2 * m), np.arange(2 * m)] += b3 * D
    J[: 2 * m, 2 * m :] += b3 * E.T
    J[2 * m :, : 2 * m] += b3 * E
    J[2 * m + np.arange(cs.n_nodes), 2 * m + np.arange(cs.n_nodes)] += b3 * Q

    # traveler side: each OD couples its two prices and the lambdas of its
    # destination and hub through the logit sensitivity matrix
    for i in range(m):
        M = cs.d[i] * (np.diag(P[i]) - np.outer(P[i], P[i]))
        coords = (
            (i, 1),                        # rho_direct enters U_ride
            (m + i, 2),                    # rho_hub enters U_multi
            (2 * m + cs.s_idx[i], 1),      # lambda_s enters U_ride
            (2 * m + cs.h_idx[i], 2),      # lambda_h enters U_multi
        )
        for x, ix in coords:
            for yy, jy in coords:
                J[x, yy] += b2 * M[ix, jy]
    return J


def _newton_step(
    cs: CompiledScenario, P: np.ndarray, E: np.ndarray, Q: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Newton step -J^{-1} r by block elimination of the rho coordinates.

    P, E, Q are the traveler probabilities, driver flows and stocks at the
    iterate and r the residual there. J_rho_rho is block diagonal, one 2x2
    block per OD over (rho_direct_i, rho_hub_i): beta3 times the two driver
    column sums on the diagonal plus beta2*d_i*(diag(p) - p p^T) over
    (ride, multi). Those blocks are inverted in closed form, the lambda part
    of the step solves the n x n Schur complement
    S = J_lam_lam - J_rho_lam^T J_rho_rho^{-1} J_rho_lam, and the rho part
    follows by back-substitution: O(m n^2 + n^3) per step instead of the
    O((2m + n)^3) of a dense LU. A vanishing or overflowing pivot shows as
    a non-finite step, and a singular S raises LinAlgError.
    """
    m, n = cs.m, cs.n_nodes
    b3 = cs.beta3
    bd = cs.beta2 * cs.d
    p0, p1, p2 = P[:, 0], P[:, 1], P[:, 2]
    # traveler sensitivities over (ride, multi); p0 + p2 = 1 - p1 without
    # the cancellation when p1 is close to 1
    a = bd * p1 * (p0 + p2)
    c = -bd * p1 * p2
    e = bd * p2 * (p0 + p1)
    sens = np.concatenate([a, c, c, e])
    C = b3 * E.T + np.bincount(cs.rho_lam_flat, sens, minlength=2 * m * n).reshape(2 * m, n)
    L = np.bincount(
        cs.lam_lam_flat, np.concatenate([b3 * Q, sens]), minlength=n * n
    ).reshape(n, n)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # each 2x2 block [[b11, c], [c, b22]] is factored on the b11 pivot;
        # its Schur value b22 - c^2/b11 is summed from positive terms, since
        # b11*b22 - c^2 = D_d*D_h + D_d*e + a*D_h + bd^2*p0*p1*p2
        D = b3 * E.sum(axis=0)
        D_d, D_h = D[:m], D[m:]
        b11 = D_d + a
        piv = D_h + e * (D_d / b11) + bd * bd * p0 * p1 * p2 / b11
        X = np.column_stack([C, r[: 2 * m]])
        X_d, X_h = X[:m], X[m:]
        W_h = (X_h - (c / b11)[:, None] * X_d) / piv[:, None]
        W_d = (X_d - c[:, None] * W_h) / b11[:, None]
        W = np.concatenate([W_d, W_h])  # J_rho_rho^{-1} [J_rho_lam, r_rho]
        S = L - C.T @ W[:, :n]
        dlam = np.linalg.solve(S, C.T @ W[:, n] - r[2 * m :])
        drho = -W[:, n] - W[:, :n] @ dlam
    return np.concatenate([drho, dlam])


def _jacobian_fd(cs: CompiledScenario, y: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian, step 1e-7 * max(1, |y_i|) per coordinate."""
    r0 = _residual_vector(cs, y)
    J = np.empty((cs.dim, cs.dim))
    for j in range(cs.dim):
        h = 1e-7 * max(1.0, abs(y[j]))
        yj = y.copy()
        yj[j] += h
        J[:, j] = (_residual_vector(cs, yj) - r0) / h
    return J


def residual(sc: Scenario, y: np.ndarray) -> ResidualReport:
    """Evaluate the clearing residual at dual vector y (pure, deterministic)."""
    cs = compile_scenario(sc)
    y = np.asarray(y, dtype=float)
    if y.shape != (cs.dim,):
        raise ValueError(f"dual vector must have shape ({cs.dim},), got {y.shape}")
    vec = _residual_vector(cs, y)
    m = cs.m
    return ResidualReport(
        r_rho_direct={rs: float(vec[i]) for i, rs in enumerate(cs.sc.rs_pairs)},
        r_rho_hub={rs: float(vec[m + i]) for i, rs in enumerate(cs.sc.rs_pairs)},
        r_lambda={n: float(vec[2 * m + i]) for i, n in enumerate(cs.node_ids)},
        inf_norm=float(np.abs(vec).max()),
        vector=vec,
    )


def extract_prices(y: np.ndarray, sc: Scenario) -> PriceSystem:
    """PriceSystem from a dual vector; eta identities hold exactly."""
    cs = compile_scenario(sc)
    y = np.asarray(y, dtype=float)
    if y.shape != (cs.dim,):
        raise ValueError(f"dual vector must have shape ({cs.dim},), got {y.shape}")
    m = cs.m
    rho_direct = {rs: float(y[i]) for i, rs in enumerate(sc.rs_pairs)}
    rho_hub = {rs: float(y[m + i]) for i, rs in enumerate(sc.rs_pairs)}
    lam = {n: float(y[2 * m + i]) for i, n in enumerate(cs.node_ids)}
    return PriceSystem.build(sc, rho_direct, rho_hub, lam)


def _norms(
    cs: CompiledScenario, y: np.ndarray
) -> tuple[float, float, np.ndarray | None, tuple[np.ndarray, ...] | None]:
    """(inf_norm, two_norm, r, (P, E, Q)) at y.

    Norms are infinite, and r and the flows None, when the driver flows
    overflow. The 2-norm alone overflows to inf once some |r_i| exceeds
    about 1e154; that is not an error: an infinite 2-norm never decreases,
    so the line search rejects such a trial.
    """
    try:
        q, P, E, _, Q = _flows_at(cs, y)
    except OverflowGuard:
        return np.inf, np.inf, None, None
    r = _residual_of_flows(cs, q, E, Q)
    with np.errstate(over="ignore"):
        two_norm = float(np.linalg.norm(r))
    return float(np.abs(r).max()), two_norm, r, (P, E, Q)


def solve(
    sc: Scenario,
    tol: float = 1e-10,
    max_iter: int = 200,
    y0: np.ndarray | None = None,
) -> EquilibriumSolution:
    """Damped Newton on the clearing residual.

    Each Newton step is the block elimination of `_newton_step`, from the
    flows of the last accepted trial point, at O(m n^2 + n^3) per step.
    Only when it fails (singular Schur complement or non-finite step) is
    the dense Jacobian built, and the step is its least-squares solution.

    A step is accepted only if it reduces the residual 2-norm, halving the
    step up to 30 times; if a whole Newton step fails, a scaled fixed-point
    correction y <- y - 0.1*r is tried before the next Newton attempt.
    Raises NotConverged with the best iterate and the residual history if the
    inf-norm never reaches `tol` within `max_iter` iterations.
    """
    violations = validate(sc)
    if violations:
        raise ValidationFailed(violations)
    cs = compile_scenario(sc)

    started = time.perf_counter()
    y = np.zeros(cs.dim) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y.shape != (cs.dim,):
        raise ValueError(f"y0 must have shape ({cs.dim},), got {y.shape}")

    inf_norm, two_norm, r, flows = _norms(cs, y)
    if r is None:
        raise OverflowGuard("initial dual vector overflows the driver flows")
    history = [inf_norm]
    best_y, best_inf = y.copy(), inf_norm

    iterations = 0
    while inf_norm > tol:
        if iterations >= max_iter:
            raise NotConverged(
                f"no convergence to {tol:g} within {max_iter} iterations "
                f"(best inf-norm {best_inf:.3g})",
                best_y,
                history,
            )
        iterations += 1

        try:
            step = _newton_step(cs, *flows, r)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.isfinite(step).all():
            J = _jacobian_analytic(cs, y)
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)

        accepted = False
        t = 1.0
        for _ in range(31):
            y_try = y + t * step
            inf_try, two_try, r_try, flows_try = _norms(cs, y_try)
            if two_try < two_norm:
                y, inf_norm, two_norm, r, flows = y_try, inf_try, two_try, r_try, flows_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # fixed-point fallback: prices move against excess supply
            alpha = 0.1
            for _ in range(31):
                y_try = y - alpha * r
                inf_try, two_try, r_try, flows_try = _norms(cs, y_try)
                if two_try < two_norm:
                    y, inf_norm, two_norm, r, flows = y_try, inf_try, two_try, r_try, flows_try
                    accepted = True
                    break
                alpha *= 0.5
        if not accepted:
            raise NotConverged(
                f"line search stalled at inf-norm {inf_norm:.3g}", best_y, history
            )
        history.append(inf_norm)
        if inf_norm < best_inf:
            best_inf, best_y = inf_norm, y.copy()

    wall = time.perf_counter() - started
    prices = extract_prices(y, sc)
    return EquilibriumSolution(
        prices=prices,
        traveler=traveler_flows(sc, prices),
        driver=driver_flows_dual(sc, prices),
        residual=residual(sc, y),
        iterations=iterations,
        wall_time=wall,
        y=y,
        converged=True,
        residual_history=tuple(history),
    )


def uniqueness_probe(sc: Scenario, k: int = 5, seed: int = 0) -> float:
    """Solve from k random dual starts; return max pairwise inf-norm gap.

    Starts are uniform in [-10, 10] per coordinate. Any NotConverged is
    raised, not hidden.
    """
    if k < 2:
        raise ValueError("uniqueness probe needs k >= 2 starts")
    cs = compile_scenario(sc)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-10.0, 10.0, size=(k, cs.dim))
    ys = [solve(sc, y0=starts[i]).y for i in range(k)]
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            worst = max(worst, float(np.abs(ys[i] - ys[j]).max()))
    return worst


# ---------------------------------------------------------------------------
# objective values of the three optimization models


def _as_traveler_array(cs: CompiledScenario, flows: TravelerFlows) -> np.ndarray:
    q = np.array(
        [[flows.q[(od.r, od.s)][mode] for mode in MODES] for od in cs.sc.ods]
    )
    return q


def _as_driver_arrays(
    cs: CompiledScenario, flows: DriverFlows
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    E = np.array(
        [
            [flows.q[n][pair] for pair in cs.column_pairs]
            for n in cs.node_ids
        ]
    )
    E_H = np.array([flows.q_H[n] for n in cs.node_ids])
    Q = np.array([flows.Q[n] for n in cs.node_ids])
    return E, E_H, Q


def _xlogx_term(x: np.ndarray, u: np.ndarray) -> float:
    if np.any(x <= 0):
        raise NonPositiveFlow("objective requires strictly positive flows")
    return float(np.sum(x * (np.log(x) - 1.0 - u)))


def combined_objective_arrays(
    cs: CompiledScenario, q: np.ndarray, E: np.ndarray, E_H: np.ndarray
) -> float:
    """Combined-model objective on raw arrays ((m,3), (n,2m), (n,))."""
    U_free = np.stack([cs.u_drive, cs.u_ride, cs.u_multi], axis=1)
    value = _xlogx_term(q, U_free) / cs.beta2
    value += (_xlogx_term(E, cs.A) + _xlogx_term(E_H, cs.a_H)) / cs.beta3
    return value


def objective_value(
    model: Literal["traveler", "driver", "combined"],
    sc: Scenario,
    traveler: TravelerFlows | None = None,
    driver: DriverFlows | None = None,
    prices: PriceSystem | None = None,
) -> float:
    """Objective of the traveler, driver, or combined model at given flows.

    The entropy terms use x*ln(x) evaluated directly, so every required flow
    must be strictly positive (limits 0*ln 0 = 0 are not interior points);
    NonPositiveFlow is raised otherwise. The traveler model needs `prices`
    for the traveler prices eta, the driver model for rho and lambda; the
    combined model is price-free.
    """
    cs = compile_scenario(sc)
    xlogx_term = _xlogx_term

    if model == "traveler":
        if traveler is None or prices is None:
            raise ValueError("traveler objective needs traveler flows and prices")
        q = _as_traveler_array(cs, traveler)
        eta_d = np.array([prices.eta_direct[rs] for rs in sc.rs_pairs])
        eta_h = np.array([prices.eta_hub[rs] for rs in sc.rs_pairs])
        U = np.stack(
            [cs.u_drive, cs.u_ride - cs.beta2 * eta_d, cs.u_multi - cs.beta2 * eta_h],
            axis=1,
        )
        return xlogx_term(q, U)

    if model == "driver":
        if driver is None or prices is None:
            raise ValueError("driver objective needs driver flows and prices")
        E, E_H, Q = _as_driver_arrays(cs, driver)
        rho = np.array(
            [prices.rho_direct[rs] for rs in sc.rs_pairs]
            + [prices.rho_hub[rs] for rs in sc.rs_pairs]
        )
        lam = np.array([prices.lam[n] for n in cs.node_ids])
        value = xlogx_term(E, cs.A + cs.beta3 * rho[None, :])
        value += xlogx_term(E_H, cs.a_H)
        value -= float(np.sum(lam * (Q - cs.dQ)))
        return value

    if model == "combined":
        if traveler is None or driver is None:
            raise ValueError("combined objective needs traveler and driver flows")
        q = _as_traveler_array(cs, traveler)
        E, E_H, _ = _as_driver_arrays(cs, driver)
        return combined_objective_arrays(cs, q, E, E_H)

    raise ValueError(f"unknown model {model!r}")
