"""Market-clearing equilibrium via the dual of the convex reformulation.

The traveler and driver problems both admit closed-form minimizers once the
clearing constraints are priced out, so the whole equilibrium collapses to a
root-finding problem on the clearing residual over the dual vector

    y = (rho_direct per OD, rho_hub per OD, lambda per node).

The residual is the gradient of a smooth strictly convex dual potential
phi (`_potential`), hence its Jacobian is symmetric positive definite;
`solve` runs damped Newton on it with Armijo backtracking on phi, its one
merit function, and stops once the residual and the Newton step (the
first-order error of the duals) are both small. The Newton core (`_newton`)
works on a stack of dual vectors: `solve` runs it on one start,
`uniqueness_probe` on all of its starts at once, `solve_and_probe` (the CLI's
`validate`) on the zero start and the probe's starts together, and
`solve_sweep` on the cells of a parameter sweep, one zero start per cell,
each row stepping exactly as it would alone and ending in its own result or
failure; a solution from a stack carries the whole stack's wall time. Its
line search has one path: the full-step trial stack becomes the next
state, and the rows that backtrack overwrite their own rows of it with the
trial they accept. The Jacobian is never formed: each
OD's logit couples only its own two rho coordinates and two lambdas, and
each driver flow one rho and one lambda, so the rho-rho block is block
diagonal with one 2x2 block per OD. A Newton step eliminates those blocks
in closed form and solves an n_nodes x n_nodes Schur complement for lambda
(block elimination, Boyd & Vandenberghe, Convex Optimization, App. C.4):
O(m n^2 + n^3) work per step for m ODs and n nodes, against O((2m + n)^3)
for a dense LU. Prices follow from the duals by the additive decomposition
eta = rho + lambda(drop-off).

A solution is stored once, as arrays: the dual vector in its `PriceSystem`,
the flows at it in `TravelerFlows` and `DriverFlows`, the clearing gaps in
`ResidualReport`. `solution_at` assembles that record from a dual vector;
the objectives read the arrays directly.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

from .choice import (
    CompiledScenario,
    DriverFlows,
    PriceSystem,
    TravelerFlows,
    compile_scenario,
    driver_flow_matrix,
    driver_flows_dual,
    stack_cells,
    traveler_flow_matrix,
    traveler_flows,
    traveler_utility_matrix,
)
from .scenario import Scenario, validate, with_param

_EPS = float(np.finfo(float).eps)
#: phi's rounding allowance per unit of the size of its terms
_ALLOWANCE = 8 * _EPS


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
    """Solver stopped short of its tolerance; carries the best iterate for diagnosis."""

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
    """(q, P, lse, E, E_H, Q) at dual vector y, or at each row of a stack of
    them: traveler flows, probabilities and log-sum-exps, driver service and
    sign-out flows and stocks."""
    q, P, lse = traveler_flow_matrix(cs, *cs.eta(y))
    E, E_H, Q = driver_flow_matrix(cs, *cs.rho_lam(y))
    return q, P, lse, E, E_H, Q


def _residual_vector(cs: CompiledScenario, y: np.ndarray) -> np.ndarray:
    q, _, _, E, _, Q = _flows_at(cs, y)
    return _residual_of_flows(cs, q, E, Q)


def _scatter(index: np.ndarray, values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sums of values (..., len(index)) into (..., *shape) at the flat
    positions index, row by row: one np.bincount over every leading row, so
    each sum adds its terms in index order whatever the number of rows."""
    size, rows = math.prod(shape), values.size // index.size
    if rows > 1:
        index = (index + size * np.arange(rows)[:, None]).ravel()
    return np.bincount(index, values.ravel(), minlength=rows * size).reshape(
        values.shape[:-1] + shape
    )


def _residual_of_flows(
    cs: CompiledScenario, q: np.ndarray, E: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    served = q[..., 1:].swapaxes(-1, -2).reshape(q.shape[:-2] + (2 * cs.m,))
    arrivals = _scatter(cs.drop_idx, served, (cs.n_nodes,))
    return np.concatenate([E.sum(axis=-2) - served, Q - arrivals - cs.dQ], axis=-1)


def _newton_step(
    cs: CompiledScenario, P: np.ndarray, E: np.ndarray, Q: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Newton step -J^{-1} r by block elimination of the rho coordinates.

    P, E, Q are the traveler probabilities, driver flows and stocks at the
    iterate, and r (..., dim, k) holds k right-hand sides there: the
    residual, as one column, for a Newton step, or the convexity probe's
    samples (`oracle._moves`). The result has r's shape, and one
    factorization serves all k columns. Leading axes index a stack of
    iterates, each stepped on its own. J_rho_rho is block diagonal, one 2x2
    block per OD over (rho_direct_i, rho_hub_i): beta3 times the two driver
    column sums on the diagonal plus beta2*d_i*(diag(p) - p p^T) over
    (ride, multi). Those blocks are inverted in closed form, the lambda part
    of the step solves the n x n Schur complement
    S = J_lam_lam - J_rho_lam^T J_rho_rho^{-1} J_rho_lam, and the rho part
    follows by back-substitution: O(m n^2 + n^3) per step instead of the
    O((2m + n)^3) of a dense LU. An iterate whose S is singular gets a NaN
    step, and a vanishing or overflowing pivot a non-finite one; the other
    iterates of the stack are unaffected.
    """
    m, n = cs.m, cs.n_nodes
    b3 = np.asarray(cs.beta3)  # a (k, 1) column for a stack of cells
    bd = cs.beta2 * cs.d
    p0, p1, p2 = P[..., 0], P[..., 1], P[..., 2]
    # traveler sensitivities over (ride, multi); p0 + p2 = 1 - p1 without
    # the cancellation when p1 is close to 1
    bp1, bp2 = bd * p1, bd * p2
    a = bp1 * (p0 + p2)
    c = -bp1 * p2
    e = bp2 * (p0 + p1)
    sens = np.concatenate([a, c, c, e], axis=-1)
    C = b3[..., None] * E.swapaxes(-1, -2) + _scatter(cs.rho_lam_flat, sens, (2 * m, n))
    L = _scatter(cs.lam_lam_flat, np.concatenate([b3 * Q, sens], axis=-1), (n, n))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # each 2x2 block [[b11, c], [c, b22]] is factored on the b11 pivot;
        # its Schur value b22 - c^2/b11 is summed from positive terms, since
        # b11*b22 - c^2 = D_d*D_h + D_d*e + a*D_h + bd^2*p0*p1*p2
        D = b3 * E.sum(axis=-2)
        D_d, D_h = D[..., :m], D[..., m:]
        b11 = D_d + a
        piv = D_h + e * (D_d / b11) + bp1 * bp2 * p0 / b11
        X = np.concatenate([C, r[..., : 2 * m, :]], axis=-1)
        X_d, X_h = X[..., :m, :], X[..., m:, :]
        W_h = (X_h - (c / b11)[..., None] * X_d) / piv[..., None]
        W_d = (X_d - c[..., None] * W_h) / b11[..., None]
        W = np.concatenate([W_d, W_h], axis=-2)  # J_rho_rho^{-1} [J_rho_lam, r_rho]
        CW = C.swapaxes(-1, -2) @ W
        S = L - CW[..., :n]
        rhs = CW[..., n:] - r[..., 2 * m :, :]
        try:
            dlam = np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError:
            # one singular S fails the whole stack: solve iterate by iterate
            dlam = np.full(rhs.shape, np.nan)
            for i in np.ndindex(r.shape[:-2]):
                try:
                    dlam[i] = np.linalg.solve(S[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass
        drho = -W[..., n:] - W[..., :n] @ dlam
    return np.concatenate([drho, dlam], axis=-2)


def _dual_vector(cs: CompiledScenario, y: np.ndarray, name: str = "dual vector") -> np.ndarray:
    """Float copy of y, checked to have the dual dimension and finite entries."""
    y = np.array(y, dtype=float)
    if y.shape != (cs.dim,):
        raise ValueError(f"{name} must have shape ({cs.dim},), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError(f"{name} must have finite entries")
    return y


def residual(sc: Scenario, y: np.ndarray) -> ResidualReport:
    """Evaluate the clearing residual at dual vector y (pure, deterministic).

    At a y whose driver exponents exceed EXP_BOUND the driver flows are
    +inf, and so is every clearing gap they enter."""
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


def _potential(cs: CompiledScenario, y: np.ndarray):
    """(phi, allowance, (q, P, E, E_H, Q)) at y, or at each row of a stack of
    dual vectors. At a point whose driver flows overflow, its +inf stock
    makes phi and the allowance +inf. Every returned array is its own, so a
    caller may write into any of them.

    phi(y) = sum_n Q_n / beta3 + sum_i (d_i/beta2) LSE_i(U) - dQ . lambda,
    with Q_n the driver stock (sign-out included) and LSE_i the log-sum-exp
    of OD i's utilities, is convex with the clearing residual as gradient.
    The allowance, 8 eps times the size of phi's terms, is the rounding a
    comparison of two phi values must forgive; (q, P, E, E_H, Q) are the
    traveler flows and probabilities and the driver flows and stocks phi was
    formed from.
    """
    q, P, lse, E, E_H, Q = _flows_at(cs, y)
    terms = np.concatenate([Q, lse, cs.rho_lam(y)[1]], axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.vecdot(terms, cs.phi_weights)
        size = np.vecdot(np.abs(terms), np.abs(cs.phi_weights))
    return phi, _ALLOWANCE * size, (q, P, E, E_H, Q)


def violations(sc: Scenario) -> tuple[str, ...]:
    """`validate(sc)`, run once per Scenario instance: the verdict rides
    along on it, as the compiled scenario does."""
    cached = sc.__dict__.get("_violations")
    if cached is None:
        cached = tuple(validate(sc))
        sc.__dict__["_violations"] = cached
    return cached


def _compiled(sc: Scenario) -> CompiledScenario:
    """The compiled scenario, after validation (ValidationFailed otherwise)."""
    found = violations(sc)
    if found:
        raise ValidationFailed(list(found))
    return compile_scenario(sc)


#: Defaults of `solve` and of the CLI's `--tol` and `--max-iter`;
#: `uniqueness_probe` solves with them too.
TOL = 1e-10
MAX_ITER = 200


def _newton(
    cs: CompiledScenario, Y: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, list[list[float]], list[tuple[np.ndarray, ...] | Exception]]:
    """Damped Newton from every row of Y (k, dim) at once; see `solve`.

    The rows advance in lockstep, one Newton iteration per pass, so numpy's
    per-call cost is paid once per pass rather than once per row. Each row
    keeps its own step length, history, convergence and failure, and every
    operation acts on each row alone, so a row's iterates are bit-identical
    to a run from that row by itself. Every live row tries the full step,
    and that trial stack is the next state; the rows that backtrack share
    the halved step length, and each of their trials overwrites its own
    rows of the state, so a row leaves the line search holding the trial it
    accepted. A row that finishes, or fails, leaves the stack.

    cs is one scenario shared by every row, or a stack of k sweep cells
    (`stack_cells`), row i solved with cell i's coefficients; a stack's
    coefficients are subset with the rows it keeps and with the rows each
    backtracking trial re-evaluates. Returns the final dual vectors (k, dim),
    the inf-norm history of each row and, per row, the flows (q, E, E_H, Q)
    and residual r at its final vector, or the NotConverged that ended the
    row, whose final vector is then NaN. A failure ends its own row only; a
    start whose phi is not finite (its driver flows overflow) ends its row
    at once, with the start as the best iterate and an empty history.
    """
    k = len(Y)
    finals = np.full_like(Y, np.nan)
    histories: list[list[float]] = [[] for _ in range(k)]
    iterates: list[list[np.ndarray]] = [[] for _ in range(k)]
    ends: list[tuple[np.ndarray, ...] | NotConverged] = [() for _ in range(k)]
    rows, cs_rows = np.arange(k), cs
    phi, allowance, flows = _potential(cs, Y)
    if not np.isfinite(phi).all():
        for i in np.flatnonzero(~np.isfinite(phi)):
            ends[i] = NotConverged(
                "initial dual vector overflows the driver flows", Y[i].copy(), histories[i]
            )
        keep = np.flatnonzero(np.isfinite(phi))
        rows, Y, phi, allowance, *flows = (a[keep] for a in (rows, Y, phi, allowance, *flows))
        cs_rows = cs.cells(keep)

    def fail(positions: np.ndarray, why) -> None:
        """Fail the rows at these positions of the stack; `why` maps the
        row's inf-norm and best inf-norm to the message."""
        for p in positions:
            i = int(rows[p])
            history = histories[i]
            best = int(np.argmin(history))  # the first, on ties
            ends[i] = NotConverged(why(inf_norm[p], history[best]), iterates[i][best], history)

    while rows.size:
        q, P, E, E_H, Q = flows
        r = _residual_of_flows(cs_rows, q, E, Q)
        inf_norm = np.abs(r).max(axis=-1)
        for i, x, y in zip(rows.tolist(), inf_norm.tolist(), Y):
            histories[i].append(x)
            iterates[i].append(y)
        step = _newton_step(cs_rows, P, E, Q, r[..., None])[..., 0]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = 1e-4 * np.vecdot(r, step)  # not finite when the step is not
        go = np.isfinite(slope)
        capped = len(histories[rows[0]]) > max_iter  # the same for every row
        if (inf_norm <= tol).any() or not go.all() or capped:
            size = np.abs(step).max(axis=-1)
            # stop on the residual and on dual accuracy: the step is the
            # first-order error of y (Boyd & Vandenberghe, section 9.5.1)
            done = (inf_norm <= tol) & (size <= 1e-9 * np.maximum(1.0, np.abs(Y).max(axis=-1)))
            for p in np.flatnonzero(done):
                i = int(rows[p])
                finals[i] = Y[p]
                ends[i] = (q[p], E[p], E_H[p], Q[p], r[p])
            if done.all():
                break
            if capped:
                fail(np.flatnonzero(~done), lambda x, best: (
                    f"no convergence to {tol:g} within {max_iter} iterations"
                    f" (best inf-norm {best:.3g})"
                ))
                break
            fail(np.flatnonzero(~done & ~np.isfinite(size)), lambda x, _: (
                f"Newton step failed at inf-norm {x:.3g}: singular Schur complement"
                " or non-finite step"
            ))
            fail(np.flatnonzero(~done & np.isfinite(size) & ~go), lambda x, _: (
                f"line-search slope not finite at inf-norm {x:.3g}"
            ))
            keep = np.flatnonzero(go & ~done)
            rows, Y, phi, allowance, step, slope, inf_norm, *flows = (
                a[keep] for a in (rows, Y, phi, allowance, step, slope, inf_norm, *flows)
            )
            if not rows.size:
                break
            cs_rows = cs_rows.cells(keep)

        # Armijo backtracking on phi, row by row: the first t = 1, 1/2, ...
        # with phi(y + t d) <= phi(y) + 1e-4 t r.d, up to phi's rounding
        # allowance; a row stalls once t d is below the float resolution of
        # y. The t = 1 trial stack is the next state. Rows still searching
        # share the halved t, and each trial overwrites the rows that made
        # it, so a row keeps the trial it accepted.
        trial = Y + step
        phi_t, allowance_t, flows_t = _potential(cs_rows, trial)
        state = (trial, phi_t, allowance_t, *flows_t)
        at = np.flatnonzero(~(phi_t <= phi + slope + allowance))
        if at.size:
            with np.errstate(divide="ignore"):
                t_min = _EPS * np.maximum(1.0, np.abs(Y).max(axis=-1))
                t_min /= np.abs(step).max(axis=-1)
            t, live = 1.0, np.ones(rows.size, dtype=bool)
            while at.size:
                t *= 0.5
                stalled = t <= t_min[at]
                if stalled.any():
                    fail(at[stalled], lambda x, _: f"line search stalled at inf-norm {x:.3g}")
                    live[at[stalled]] = False
                    at = at[~stalled]
                    if not at.size:
                        break
                trial = Y[at] + t * step[at]
                phi_t, allowance_t, flows_t = _potential(cs_rows.cells(at), trial)
                for whole, part in zip(state, (trial, phi_t, allowance_t, *flows_t)):
                    whole[at] = part
                at = at[~(phi_t <= phi[at] + t * slope[at] + allowance[at])]
            if not live.all():
                rows, *state = (a[live] for a in (rows, *state))
                cs_rows = cs_rows.cells(live)
        Y, phi, allowance, *flows = state

    return finals, histories, ends


def _solution(
    cs: CompiledScenario, y: np.ndarray, history: list[float],
    end: tuple[np.ndarray, ...], wall_time: float,
) -> EquilibriumSolution:
    """The solution record from a `_newton` row: its final vector, history
    and the solver's own flows and residual there, the closed forms
    `solution_at` would redo."""
    q, E, E_H, Q, r = end
    return EquilibriumSolution(
        prices=PriceSystem(cs, y),
        traveler=TravelerFlows(cs, q),
        driver=DriverFlows(cs, E, E_H, Q),
        residual=ResidualReport(cs, r),
        wall_time=wall_time,
        residual_history=tuple(history),
    )


def solve(
    sc: Scenario,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
    y0: np.ndarray | None = None,
) -> EquilibriumSolution:
    """Damped Newton on the clearing residual r, the gradient of the dual
    potential phi (`_potential`), with Armijo backtracking on phi.

    The step d = -J^{-1} r (`_newton_step`, from the flows of the last
    accepted point) is a descent direction for phi. The first t = 1, 1/2,
    1/4, ... with phi(y + t d) <= phi(y) + 1e-4 t r.d, up to phi's rounding
    allowance, is accepted; trials whose driver flows overflow, or where phi
    is not finite, are rejected. The solve stops when the inf-norm of r is at
    most `tol` and the step, the first-order error of y, is at most
    1e-9 max(1, |y|_inf) in the inf-norm. It is `_newton` on a stack of one
    row, whose failure it raises.

    Raises NotConverged, with the iterate of lowest inf-norm and the inf-norm
    history, if that does not happen within `max_iter` iterations, if the
    step cannot be formed (singular Schur complement or non-finite step) or
    its slope r.d is not finite, or if t d falls below the float resolution
    of y; it is the one way a solve of a valid scenario fails. If the driver
    flows overflow at y0 already, its best iterate is y0 and its history is
    empty. Raises ValueError if y0 has the wrong shape or a non-finite entry.
    """
    cs = _compiled(sc)
    started = time.perf_counter()
    y = np.zeros(cs.dim) if y0 is None else _dual_vector(cs, y0, "y0")
    (y,), (history,), (end,) = _newton(cs, y[None], tol, max_iter)
    if isinstance(end, Exception):
        raise end
    return _solution(cs, y, history, end, time.perf_counter() - started)


#: Most cells in one stacked Newton run of `solve_sweep`; a longer grid is
#: solved in several stacks, so the Newton temporaries, cells x n x 2m
#: entries each, stop growing with the grid. A row's result does not
#: depend on its stack.
STACK_CELLS = 32


def solve_sweep(
    sc: Scenario, param: str, values: Sequence[float],
    tol: float = TOL, max_iter: int = MAX_ITER,
) -> list[EquilibriumSolution | Exception]:
    """`solve(with_param(sc, param, value), tol, max_iter)` for each value,
    as stacked Newton runs from the zero start (`_newton` on `stack_cells`).

    Each entry is what that solve returns, bit for bit in y, flows, residual
    and history, or the exception it raises: ValueError from `with_param`
    and ValidationFailed, for a cell that never enters a stack, and
    NotConverged for one that does. A solution's wall time is that of its
    whole stack.
    """
    outcomes: list = []
    valid: list[tuple[int, CompiledScenario]] = []
    for i, value in enumerate(values):
        try:
            valid.append((i, _compiled(with_param(sc, param, value))))
            outcomes.append(None)
        except (ValueError, ValidationFailed) as exc:
            outcomes.append(exc)
    for first in range(0, len(valid), STACK_CELLS):
        chunk = valid[first : first + STACK_CELLS]
        started = time.perf_counter()
        cs = stack_cells([cell for _, cell in chunk])
        ys, histories, ends = _newton(cs, np.zeros((len(chunk), cs.dim)), tol, max_iter)
        wall_time = time.perf_counter() - started
        for (i, cell), y, history, end in zip(chunk, ys, histories, ends):
            outcomes[i] = (
                end if isinstance(end, Exception)
                else _solution(cell, y, history, end, wall_time)
            )
    return outcomes


def _probe_starts(sc: Scenario, k: int, seed: int) -> tuple[CompiledScenario, np.ndarray]:
    """The compiled scenario and the uniqueness probe's k starts, uniform in
    [-10, 10] per coordinate."""
    if k < 2:
        raise ValueError("uniqueness probe needs k >= 2 starts")
    cs = _compiled(sc)
    return cs, np.random.default_rng(seed).uniform(-10.0, 10.0, size=(k, cs.dim))


def _deviation(ys: np.ndarray, ends: list) -> float | NotConverged:
    """The max pairwise inf-norm gap of the probe's final vectors, or the
    NotConverged of its lowest-index failing start."""
    for end in ends:
        if isinstance(end, Exception):
            return end
    return float(np.abs(ys[:, None] - ys).max())


def uniqueness_probe(sc: Scenario, k: int = 5, seed: int = 0) -> float:
    """Solve from k random dual starts; return max pairwise inf-norm gap.

    Starts are uniform in [-10, 10] per coordinate. All k starts are solved
    as one stack (`_newton`), each exactly as `solve` would solve it alone;
    if any fails, the NotConverged `solve` raises for the lowest-index
    failing start is raised, not hidden.
    """
    cs, starts = _probe_starts(sc, k, seed)
    ys, _, ends = _newton(cs, starts, TOL, MAX_ITER)
    deviation = _deviation(ys, ends)
    if isinstance(deviation, Exception):
        raise deviation
    return deviation


def solve_and_probe(
    sc: Scenario, k: int = 5, seed: int = 0
) -> tuple[EquilibriumSolution, float | NotConverged]:
    """`solve(sc)` and `uniqueness_probe(sc, k, seed)` as one stacked Newton
    run, with the zero start as row 0 of the probe's stack.

    Returns the solution, bit for bit what `solve` returns, and the probe's
    deviation, or as a value the NotConverged `uniqueness_probe` would
    raise. If the zero start fails, its NotConverged is raised, as `solve`
    raises it; the probe's rows still ran to their own end. The solution's
    wall time is that of the whole stack. Raises ValueError if k < 2.
    """
    cs, starts = _probe_starts(sc, k, seed)
    started = time.perf_counter()
    ys, histories, ends = _newton(cs, np.vstack([np.zeros(cs.dim), starts]), TOL, MAX_ITER)
    wall_time = time.perf_counter() - started
    if isinstance(ends[0], Exception):
        raise ends[0]
    return _solution(cs, ys[0], histories[0], ends[0], wall_time), _deviation(ys[1:], ends[1:])


# ---------------------------------------------------------------------------
# objective values of the three optimization models


def _xlogx_term(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum of x*(ln x - 1 - u) over the trailing axes of u, one value per
    leading index of x."""
    if np.any(x <= 0):
        raise NonPositiveFlow("objective requires strictly positive flows")
    return np.sum(x * (np.log(x) - 1.0 - u), axis=tuple(range(-u.ndim, 0)))


def combined_objective_arrays(
    cs: CompiledScenario, q: np.ndarray, E: np.ndarray, E_H: np.ndarray
) -> np.ndarray:
    """Combined-model objective on raw arrays ((..., m, 3), (..., n, 2m),
    (..., n)): one value per leading index, so a batch of flow points is
    evaluated in one call."""
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
        return float(_xlogx_term(traveler.matrix, U))

    if model == "driver":
        if driver is None or prices is None:
            raise ValueError("driver objective needs driver flows and prices")
        rho, lam = cs.rho_lam(prices.y)
        value = _xlogx_term(driver.E, cs.A + cs.beta3 * rho[None, :])
        value += _xlogx_term(driver.E_H, cs.a_H)
        value -= float(np.sum(lam * (driver.stock - cs.dQ)))
        return float(value)

    if model == "combined":
        if traveler is None or driver is None:
            raise ValueError("combined objective needs traveler and driver flows")
        return float(combined_objective_arrays(cs, traveler.matrix, driver.E, driver.E_H))

    raise ValueError(f"unknown model {model!r}")
