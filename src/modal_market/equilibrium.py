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

A solution is stored once, as arrays: the dual vector in its `PriceSystem`,
the flows at it in `TravelerFlows` and `DriverFlows`, the clearing gaps in
`ResidualReport`. `solution_at` assembles that record from a dual vector;
the objectives read the arrays directly.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

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
    traveler_utility_matrix,
)
from .scenario import Scenario, validate


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


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Clearing gaps at a dual vector, in dual layout: supply minus demand
    per driver market, and stock minus (arrivals + sign-ins) per node.
    Views: r_rho_direct[(r,s)], r_rho_hub[(r,s)] and r_lambda[n]."""

    cs: CompiledScenario = field(repr=False)
    vector: np.ndarray

    @cached_property
    def inf_norm(self) -> float:
        return float(np.abs(self.vector).max())

    @cached_property
    def r_rho_direct(self) -> dict[tuple[int, int], float]:
        return self.cs.od_view(self.cs.split(self.vector)[0])

    @cached_property
    def r_rho_hub(self) -> dict[tuple[int, int], float]:
        return self.cs.od_view(self.cs.split(self.vector)[1])

    @cached_property
    def r_lambda(self) -> dict[int, float]:
        return self.cs.node_view(self.cs.split(self.vector)[2])


@dataclass(frozen=True)
class EquilibriumSolution:
    prices: PriceSystem
    traveler: TravelerFlows
    driver: DriverFlows
    residual: ResidualReport
    wall_time: float
    residual_history: tuple[float, ...]
    converged: bool = True

    @property
    def y(self) -> np.ndarray:
        """The dual vector, stored once in `prices`."""
        return self.prices.y

    @property
    def iterations(self) -> int:
        """Newton iterations: the steps recorded after the start."""
        return len(self.residual_history) - 1


def _flows_at(cs: CompiledScenario, y: np.ndarray):
    """All primal quantities the residual needs at dual vector y."""
    q, P = traveler_flow_matrix(cs, *cs.eta(y))
    E, E_H, Q = driver_flow_matrix(cs, *cs.rho_lam(y))
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
    definite. The solver never builds it; tests check the structured Newton
    step against it."""
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


def _dual_vector(cs: CompiledScenario, y: np.ndarray, name: str = "dual vector") -> np.ndarray:
    """Float copy of y, checked to have the dual dimension."""
    y = np.array(y, dtype=float)
    if y.shape != (cs.dim,):
        raise ValueError(f"{name} must have shape ({cs.dim},), got {y.shape}")
    return y


def residual(sc: Scenario, y: np.ndarray) -> ResidualReport:
    """Evaluate the clearing residual at dual vector y (pure, deterministic)."""
    cs = compile_scenario(sc)
    return ResidualReport(cs, _residual_vector(cs, _dual_vector(cs, y)))


def extract_prices(y: np.ndarray, sc: Scenario) -> PriceSystem:
    """PriceSystem from a dual vector; eta identities hold exactly."""
    cs = compile_scenario(sc)
    return PriceSystem(cs, _dual_vector(cs, y))


def solution_at(
    sc: Scenario,
    y: np.ndarray,
    residual_history: list[float] | tuple[float, ...],
    converged: bool = True,
    wall_time: float = 0.0,
) -> EquilibriumSolution:
    """The solution record at dual vector y: prices, flows and clearing gaps
    evaluated there."""
    prices = extract_prices(y, sc)
    traveler = traveler_flows(sc, prices)
    driver = driver_flows_dual(sc, prices)
    gaps = _residual_of_flows(prices.cs, traveler.matrix, driver.E, driver.stock)
    return EquilibriumSolution(
        prices=prices,
        traveler=traveler,
        driver=driver,
        residual=ResidualReport(prices.cs, gaps),
        wall_time=wall_time,
        residual_history=tuple(residual_history),
        converged=converged,
    )


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


def _line_search(
    cs: CompiledScenario, y: np.ndarray, direction: np.ndarray, t: float, two_norm: float
):
    """First of y + t*direction, halving t up to 30 times, whose residual
    2-norm is below `two_norm`: (y_new, _norms at y_new), or None."""
    for _ in range(31):
        y_try = y + t * direction
        trial = _norms(cs, y_try)
        if trial[1] < two_norm:
            return y_try, trial
        t *= 0.5
    return None


def solve(
    sc: Scenario,
    tol: float = 1e-10,
    max_iter: int = 200,
    y0: np.ndarray | None = None,
) -> EquilibriumSolution:
    """Damped Newton on the clearing residual.

    Each Newton step is the block elimination of `_newton_step`, from the
    flows of the last accepted trial point, at O(m n^2 + n^3) per step.

    A step is accepted only if it reduces the residual 2-norm, halving the
    step up to 30 times. If no Newton trial is accepted, or the step cannot
    be formed (singular Schur complement or non-finite step), a scaled
    fixed-point correction y <- y - 0.1*r is line-searched the same way.
    Raises NotConverged with the best iterate and the residual history if the
    inf-norm never reaches `tol` within `max_iter` iterations.
    """
    violations = validate(sc)
    if violations:
        raise ValidationFailed(violations)
    cs = compile_scenario(sc)

    started = time.perf_counter()
    y = np.zeros(cs.dim) if y0 is None else _dual_vector(cs, y0, "y0")

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
        found = None
        if step is not None and np.isfinite(step).all():
            found = _line_search(cs, y, step, 1.0, two_norm)
        if found is None:
            # fixed-point fallback: prices move against excess supply
            found = _line_search(cs, y, -r, 0.1, two_norm)
        if found is None:
            raise NotConverged(
                f"line search stalled at inf-norm {inf_norm:.3g}", best_y, history
            )
        y, (inf_norm, two_norm, r, flows) = found
        history.append(inf_norm)
        if inf_norm < best_inf:
            best_inf, best_y = inf_norm, y.copy()

    return solution_at(sc, y, history, wall_time=time.perf_counter() - started)


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

    if model == "traveler":
        if traveler is None or prices is None:
            raise ValueError("traveler objective needs traveler flows and prices")
        U = traveler_utility_matrix(cs, *cs.eta(prices.y))
        return _xlogx_term(traveler.matrix, U)

    if model == "driver":
        if driver is None or prices is None:
            raise ValueError("driver objective needs driver flows and prices")
        rho, lam = cs.rho_lam(prices.y)
        value = _xlogx_term(driver.E, cs.A + cs.beta3 * rho[None, :])
        value += _xlogx_term(driver.E_H, cs.a_H)
        value -= float(np.sum(lam * (driver.stock - cs.dQ)))
        return value

    if model == "combined":
        if traveler is None or driver is None:
            raise ValueError("combined objective needs traveler and driver flows")
        return combined_objective_arrays(cs, traveler.matrix, driver.E, driver.E_H)

    raise ValueError(f"unknown model {model!r}")
