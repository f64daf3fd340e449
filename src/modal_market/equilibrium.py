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
`validate`) on the default start and the probe's starts together, and
`solve_sweep` on the cells of a parameter sweep, each from its own default
start, each row stepping exactly as it would alone; the default start
(`_start`, described in `solve`) is one closed-form balancing sweep of the
clearing conditions. Each row ends in one outcome, what `solve` from that
row returns or raises: a solution or a NotConverged, built once the stack
has run, with its wall time. A row climbs when its full step lowers
phi by 1.2 times what the quadratic model predicts, as far-above starts do, where a full Newton step on the exponential driver
flows moves their exponents by only about one unit: it goes on to
t = 2, 4, 8 while each doubling still passes Armijo, lowers phi and moves
no driver exponent by more than CLIMB_REACH. A row that backtracks
accepts the t that halving one at a time would. The line search evaluates
phi on several step lengths of several rows at once, on the schedule
`_newton` describes, and each row walks its own step lengths through
them, so it accepts the t it would accept alone. The run ignores numpy's
floating-point errors once, around the whole stack, rather than in each
kernel. The Jacobian is never formed: each OD's logit couples only its
own two rho coordinates and two lambdas, and each driver flow one rho
and one lambda, so the rho-rho block is block diagonal with one 2x2
block per OD. A Newton step eliminates those blocks in closed form and
solves an n_nodes x n_nodes Schur complement for lambda
(block elimination, Boyd & Vandenberghe, Convex Optimization, App. C.4):
O(m n^2 + n^3) work per step for m ODs and n nodes, against
O((2m + n)^3) for a dense LU. Prices follow from the duals by the
additive decomposition eta = rho + lambda(drop-off).

A solution is stored once, as arrays: the dual vector in its `PriceSystem`,
the flows at it in `TravelerFlows` and `DriverFlows`, the clearing gaps in
`ResidualReport`. `solution_at` assembles that record from a dual vector;
the objectives read the arrays directly.
"""
from __future__ import annotations

import math
import time
from operator import itemgetter
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
#: t = 2^-j at index j, as halving from 1 makes it: exact down to 2^-1074,
#: then 0, where every line search has stalled
_HALVINGS = np.ldexp(1.0, -np.arange(1076))


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
    """Solver stopped short of its tolerance; carries the best iterate for diagnosis.

    `kind` says why: "overflow" (the start's driver flows overflow), "cap"
    (the iteration cap), "step" (a singular Schur complement or a
    non-finite Newton step), "slope" (a non-finite line-search slope) or
    "stall" (a stalled line search). `wall_time` is the seconds of the
    solver run that ended here, as a solution's: the whole stack's, for a
    row of a stacked run (`_newton` passes it), and 0.0 unless given."""

    def __init__(
        self, kind: str, message: str, best_y: np.ndarray, residual_history: list[float],
        wall_time: float = 0.0,
    ):
        super().__init__(message)
        self.kind = kind
        self.best_y = best_y
        self.residual_history = residual_history
        self.wall_time = wall_time


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


def _scatter(
    cs: CompiledScenario, name: str, values: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Sums of values (..., len(index)) into (..., *shape) at the flat
    positions of cs's index array `name`, row by row: one np.bincount over
    every leading row (`CompiledScenario.stacked_index`), so each sum adds
    its terms in index order whatever the number of rows."""
    size, index = math.prod(shape), getattr(cs, name)
    rows = values.size // index.size
    if rows > 1:
        index = cs.stacked_index(name, size, rows)
    return np.bincount(index, values.ravel(), minlength=rows * size).reshape(
        values.shape[:-1] + shape
    )


def _residual_of_flows(
    cs: CompiledScenario, q: np.ndarray, E: np.ndarray, Q: np.ndarray
) -> np.ndarray:
    served = q[..., 1:].swapaxes(-1, -2).reshape(q.shape[:-2] + (2 * cs.m,))
    arrivals = _scatter(cs, "drop_idx", served, (cs.n_nodes,))
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
    iterates of the stack are unaffected. Such a step divides by zero or
    overflows: the caller holds numpy's floating-point errors (`_newton`
    ignores them for its whole run).

    The 2x2 blocks are eliminated in place, in the one array [C, r_rho]
    that becomes W = J_rho_rho^{-1} [J_rho_lam, r_rho]: W_h -= (c/b11) W_d,
    W_h /= piv, W_d -= c W_h, W_d /= b11. Each update applies the operation
    of the fresh-array form W_h = (X_h - (c/b11) X_d) / piv,
    W_d = (X_d - c W_h) / b11 to the same operands in the same order, so the
    step is that form's bit for bit, with one half-size temporary.
    """
    m, n = cs.m, cs.n_nodes
    b3 = np.asarray(cs.beta3)  # a (k, 1) column for a stack of cells
    bd = cs.beta2_d
    p0, p1, p2 = P[..., 0], P[..., 1], P[..., 2]
    # traveler sensitivities over (ride, multi); p0 + p2 = 1 - p1 without
    # the cancellation when p1 is close to 1
    bp1, bp2 = bd * p1, bd * p2
    a = bp1 * (p0 + p2)
    c = -bp1 * p2
    e = bp2 * (p0 + p1)
    sens = np.concatenate([a, c, c, e], axis=-1)
    # summed into the scatter's fresh array, so C is laid out in its own
    # row order, not in E's transposed one
    C = _scatter(cs, "rho_lam_flat", sens, (2 * m, n))
    C += b3[..., None] * E.swapaxes(-1, -2)
    L = _scatter(cs, "lam_lam_flat", np.concatenate([b3 * Q, sens], axis=-1), (n, n))

    # each 2x2 block [[b11, c], [c, b22]] is factored on the b11 pivot; its
    # Schur value b22 - c^2/b11 is summed from positive terms, since
    # b11*b22 - c^2 = D_d*D_h + D_d*e + a*D_h + bd^2*p0*p1*p2
    D = b3 * E.sum(axis=-2)
    D_d, D_h = D[..., :m], D[..., m:]
    b11 = D_d + a
    piv = D_h + e * (D_d / b11) + bp1 * bp2 * p0 / b11
    W = np.concatenate([C, r[..., : 2 * m, :]], axis=-1)
    W_d, W_h = W[..., :m, :], W[..., m:, :]
    scaled = (c / b11)[..., None] * W_d
    W_h -= scaled
    W_h /= piv[..., None]
    W_d -= np.multiply(c[..., None], W_h, out=scaled)
    W_d /= b11[..., None]
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
) -> EquilibriumSolution:
    """The solution record at dual vector y: prices, flows and clearing gaps
    evaluated there, with no wall time."""
    prices = extract_prices(y, sc)
    traveler = traveler_flows(sc, prices)
    driver = driver_flows_dual(sc, prices)
    gaps = _residual_of_flows(prices.cs, traveler.matrix, driver.E, driver.stock)
    return EquilibriumSolution(
        prices=prices,
        traveler=traveler,
        driver=driver,
        residual=ResidualReport(prices.cs, gaps),
        wall_time=0.0,
        residual_history=tuple(residual_history),
        converged=converged,
    )


def _potential(cs: CompiledScenario, y: np.ndarray):
    """(phi, allowance, (q, P, E, E_H, Q)) at y, or at each row of a stack of
    dual vectors. At a point whose driver flows overflow, its +inf stock
    makes phi and the allowance +inf, or phi NaN, which the caller's
    np.errstate lets pass silently (`_newton` holds one for its whole run).
    Every returned array is its own, so a caller may write into any of them.

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
    phi = np.vecdot(terms, cs.phi_weights)
    size = np.vecdot(np.abs(terms), cs.phi_sizes)
    return phi, _ALLOWANCE * size, (q, P, E, E_H, Q)


def violations(sc: Scenario) -> tuple[str, ...]:
    """`validate(sc)`, or for a valid scenario the coefficients that
    overflow its compiled arrays (`_overflows`), run once per Scenario
    instance: the verdict rides along on it, as the compiled scenario does."""
    cached = sc.__dict__.get("_violations")
    if cached is None:
        cached = tuple(validate(sc)) or _overflows(sc)
        sc.__dict__["_violations"] = cached
    return cached


def _overflows(sc: Scenario) -> tuple[str, ...]:
    """One violation per finite coefficient that overflows what the solver
    forms from it: the compiled utilities, the driver and sign-out
    exponents, or the solver weights, phi's (1/beta3, d/beta2, dQ, and the
    stocks over beta3) and the Newton step's (beta2 d, and beta3 times the
    stocks); the stocks total the demand plus the sign-ins at the
    equilibrium. A quantity that is not finite is blamed on its largest
    term: a constant, or a coefficient times the largest time, cost or
    weight it scales."""
    with np.errstate(over="ignore", invalid="ignore"):
        cs = compile_scenario(sc)
        stocks = cs.d.sum() + cs.dQ.sum()
        weights = np.concatenate(
            [cs.phi_weights, cs.beta2_d, [cs.beta3 * stocks, stocks / cs.beta3]])
    formed = (cs.u_drive, cs.u_ride, cs.u_multi, cs.A, cs.a_H, weights)
    if all(np.isfinite(a).all() for a in formed):
        return ()

    tp, dp = sc.traveler_params, sc.driver_params

    def term(params, name: str, scale: float = 1.0) -> tuple[str, float, float]:
        block = "traveler_params" if params is tp else "driver_params"
        value = getattr(params, name)
        return f"/{block}/{name}", value, abs(value) * scale

    def largest(*names: str) -> float:
        return max(sum(getattr(od, name) for name in names) for od in sc.ods)

    r = max(sc.origins, key=lambda origin: abs(dp.beta0_at(origin)))
    beta0_r = (f"/driver_params/beta0_r/{r}" if r in dp.beta0_r
               else "/driver_params/beta0_r_default", dp.beta0_at(r), abs(dp.beta0_at(r)))
    n, bonus = max(sc.signout_bonus.items(), key=lambda item: abs(item[1]), default=(0, 0.0))
    signout = (term(dp, "beta3", abs(bonus)) if dp.beta3 >= abs(bonus)
               else (f"/signout_bonus/{n}", bonus, abs(bonus) * dp.beta3))
    demand = largest("demand")
    stocks = sum(od.demand for od in sc.ods) + sum(sc.signin.values())
    terms = (
        [term(tp, "beta0_drive"),
         term(tp, "beta1_drive", largest("drive_time", "parking_time")),
         term(tp, "beta2", largest("drive_cost", "parking_cost"))],
        [term(tp, "beta0_ride"), term(tp, "beta1_ride", largest("drive_time"))],
        [term(tp, "beta0_multi"),
         term(tp, "beta1_multi", largest("hub_access_time", "transit_time")),
         term(tp, "beta1_wait", largest("transit_wait")),
         term(tp, "beta2", largest("transit_fare"))],
        [beta0_r, term(dp, "beta1", float(sc._relocation_matrix.max()))],
        [term(dp, "beta0_H"), signout],
        [("/traveler_params/beta2", tp.beta2, max(demand / tp.beta2, tp.beta2 * demand)),
         ("/driver_params/beta3", dp.beta3,
          max(1.0 / dp.beta3, dp.beta3 * stocks, stocks / dp.beta3))],
    )
    whats = ("utilities",) * 3 + ("driver exponents",) * 2 + ("solver weights",)
    found: dict[str, str] = {}
    for array, what, candidates in zip(formed, whats, terms):
        if not np.isfinite(array).all():
            pointer, value, _ = max(candidates, key=itemgetter(2))
            found.setdefault(pointer, f"{pointer}: {value} overflows the {what}")
    return tuple(found.values())


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


def _check_stopping(tol: float, max_iter: int) -> None:
    """ValueError for a stopping rule no solve can meet: a NaN or negative
    tol, or a negative max_iter. max_iter = 0 evaluates the start."""
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _newton(
    cs: CompiledScenario, Y: np.ndarray, tol: float, max_iter: int,
    cells: Sequence[CompiledScenario] = (),
) -> list[EquilibriumSolution | NotConverged]:
    """Damped Newton from every row of Y (k, dim) at once; see `solve`.

    The rows advance in lockstep, one Newton iteration per pass, so numpy's
    per-call cost is paid once per pass rather than once per row. Each row
    keeps its own step length, history, convergence and failure, and every
    operation acts on each row alone, so a row's iterates are bit-identical
    to a run from that row by itself.

    The line search. Each trial is y + t d with t a power of two, so t d
    and t r.d are exact. A row accepts the first of t = 1, 1/2, 1/4, ...
    that passes Armijo on phi, phi(y + t d) <= phi(y) + 1e-4 t r.d up to
    phi's rounding allowance, unless its full step climbs: it lowers phi
    by more than 0.6 (-r.d), 1.2 times the decrease the quadratic model
    predicts, and by more than the allowance. A climbing row keeps the
    last of t = 2, 4, 8 along whose leading run each doubling passes
    Armijo, lowers phi by more than the allowance of the step before and
    moves no driver exponent by more than CLIMB_REACH
    (beta3 |t d|_inf <= CLIMB_REACH). A backtracking row stalls, and
    fails, if the halving it accepts or the next one it would try is at
    or below its t_min, the t at which t d falls below the float
    resolution of y.

    The schedule. A pass evaluates phi in rounds, one call each, and every
    round plans its trials by one rule: each searching row gets as many of
    the step lengths it wants, in order, as fit in the LADDER_ENTRIES
    driver-flow entries the round's rows share, and at least one. In
    round 0 every row wants t = 1; then t = 2, 4, 8 if some row climbed
    on the last pass; then the halvings down to the t with
    beta3 |t d|_inf < 1 if the longest step has beta3 |d|_inf >= 2
    (beta3 the largest over the cells). Its t = 1 trials, y + d, are the
    state. One loop over the rows, on phi, its allowance and the slope as
    Python floats, then sorts each row's t = 1 trial: the row climbs, it
    backtracks (the trial fails Armijo), or it accepts the trial, and the
    loop starts the walk of each row that searches. In each round every
    searching row walks its own trials in order, by the climbing or the
    backtracking rule above, and carries its next t into the next round
    only if its trials ran out without an answer. There a climbing row
    wants its doublings left and a backtracking row its halvings left,
    stopping short of the stall of every backtracking row. The trials the
    rows accept overwrite their rows of the state, once per round. Phi is
    evaluated row by row, so which round holds a trial never changes a
    row's step. The whole run ignores numpy's floating-point errors: an
    overflowing or singular point is a value here (+inf, NaN), which the
    line search and the failure tests reject, never a warning.

    cs is one scenario shared by every row, or the stack of the k sweep
    `cells` (`stack_cells(cells)`), row i solved with cell i's coefficients
    and its outcome built on cell i. The stack's coefficients are subset
    with the rows it keeps and with the rows each trial re-evaluates.

    How a row ends. A start whose phi is not finite (its driver flows
    overflow) ends its row at once, with the start as the best iterate and
    an empty history. On each pass one loop over the rows, on Python
    floats, appends each row's residual inf-norm to its history, updates
    its best iterate and decides, in this order, whether the row is solved
    (see `solve`), has reached max_iter iterations, has a Newton step or a
    slope r.d that is not finite, or goes on; a row whose line search
    stalls ends too. A row that ends leaves the stack and records only its
    failure's kind (`NotConverged.kind`) and message, or its solution's
    arrays: the solver's own flows and residual at its final vector.

    Returns one outcome per row, exactly what `solve` from that row returns
    or raises: the EquilibriumSolution on the row's own scenario or cell,
    or the NotConverged with a copy of its best iterate. Each is built once,
    after the run, and carries the run's wall time, measured once. A
    failure ends its own row only.
    """
    started = time.perf_counter()
    k = len(Y)
    cells = cells or [cs] * k
    histories: list[list[float]] = [[] for _ in range(k)]
    # per row, its lowest inf-norm and the first iterate that reached it;
    # a row's first iterate is its start
    best, best_y = [math.inf] * k, Y.copy()
    # per row that has ended, its NotConverged's (kind, message) or its
    # solution's arrays (y, q, E, E_H, Q, r); both are built once the run
    # has ended
    ends: list = [None] * k
    point = cs.n_nodes * (2 * cs.m + 1)  # driver-flow entries per trial point
    beta3 = float(np.max(cs.beta3))  # the largest over the cells
    phi, allowance, flows = _potential(cs, Y)
    for i in np.flatnonzero(~np.isfinite(phi)).tolist():
        ends[i] = ("overflow", "initial dual vector overflows the driver flows")
    rows, cs_rows = np.arange(k), cs
    climbed = False  # whether some row climbed on the last pass
    # a row whose start overflows, or whose line search stalled on the last
    # pass, leaves the stack
    while keep := [p for p, i in enumerate(rows.tolist()) if ends[i] is None]:
        if len(keep) < rows.size:
            rows, Y, phi, allowance, *flows = (a[keep] for a in (rows, Y, phi, allowance, *flows))
            cs_rows = cs_rows.cells(keep)
        q, P, E, E_H, Q = flows
        r = _residual_of_flows(cs_rows, q, E, Q)
        step = _newton_step(cs_rows, P, E, Q, r[..., None])[..., 0]
        size = np.abs(step).max(axis=-1)  # |d|_inf
        slope = 1e-4 * np.vecdot(r, step)  # not finite when the step is not
        # each row's history and best iterate, and whether it goes on: it is
        # solved on the residual and on dual accuracy (the step is the
        # first-order error of y, Boyd & Vandenberghe, section 9.5.1), or
        # fails at the iteration cap or on a step or slope that is not finite
        for p, (i, x, s, g, y) in enumerate(zip(
                rows.tolist(), np.abs(r).max(axis=-1).tolist(), size.tolist(), slope.tolist(), Y)):
            histories[i].append(x)
            if x < best[i]:  # the first, on ties
                best[i], best_y[i] = x, y
            if x <= tol and s <= 1e-9 * np.maximum(1.0, np.abs(y).max()):
                ends[i] = (y.copy(), q[p], E[p], E_H[p], Q[p], r[p])
            elif len(histories[i]) > max_iter:
                ends[i] = ("cap", f"no convergence to {tol:g} within {max_iter} iterations"
                                  f" (best inf-norm {best[i]:.3g})")
            elif not math.isfinite(s):
                ends[i] = ("step", f"Newton step failed at inf-norm {x:.3g}: singular Schur"
                                   " complement or non-finite step")
            elif not math.isfinite(g):
                ends[i] = ("slope", f"line-search slope not finite at inf-norm {x:.3g}")
        keep = [p for p, i in enumerate(rows.tolist()) if ends[i] is None]
        if len(keep) < rows.size:
            if not keep:
                break
            rows, Y, phi, allowance, step, size, slope, *flows = (a[keep] for a in (
                rows, Y, phi, allowance, step, size, slope, *flows))
            cs_rows = cs_rows.cells(keep)

        # The line search (see the docstring), round 0 first: its trials per
        # row, t = 1 and then the doublings and halvings that fit
        room = max(1, LADDER_ENTRIES // (point * rows.size))
        ups = min(CLIMB if climbed else 0, room - 1)
        reach = math.frexp(beta3 * float(size.max()))[1]  # beta3 |t d|_inf < 1 at t = 2^-reach
        downs = min(reach if reach > 1 else 0, room - 1 - ups)
        if ups or downs:
            t = np.concatenate([_DOUBLINGS[: ups + 1], _HALVINGS[1 : downs + 1]])
            trial = (Y + t[:, None, None] * step).reshape(-1, Y.shape[-1])
            cs_trial = cs_rows.cells(np.arange(len(trial)) % rows.size)
        else:
            trial, cs_trial = Y + step, cs_rows
        phi_t, allowance_t, flows_t = _potential(cs_trial, trial)
        evaluated = (trial, phi_t, allowance_t, *flows_t)
        state = tuple(a[: rows.size] for a in evaluated) if ups or downs else evaluated
        # as Python floats: phi, its allowance and the Armijo slope at y,
        # then phi and its allowance at the round's trials
        n, f_y, a_y, s_y = rows.size, phi.tolist(), allowance.tolist(), slope.tolist()
        f_t, a_t = phi_t.tolist(), allowance_t.tolist()
        # each row's t = 1 trial: the row climbs if phi falls there by more
        # than 0.6 (-r.d) = -6e3 slope and by more than its rounding
        # allowance, so that it passes Armijo too, and backtracks if the
        # trial fails Armijo. A searching row's walk holds its position, the
        # index j of its next doubling or halving and the indices in
        # `evaluated` of its trials this round (round 0 holds a row's trials
        # n apart, after the state's n rows); a climbing row also carries
        # phi and the allowance of the step it climbs from
        climbs, backs = [], []
        for p, (f, a, s, f1) in enumerate(zip(f_y, a_y, s_y, f_t)):
            if f - f1 > -6e3 * s and f - f1 > a:
                climbs.append((p, 1, range(p + n, n * (ups + 1), n), f1, a_t[p]))
            elif not f1 <= f + s + a:
                backs.append((p, 1, range(p + n * (ups + 1), len(trial), n)))
        climbed = bool(climbs)
        if climbs or backs:
            moves = (cs_rows.beta3 * size[:, None])[:, 0].tolist()  # beta3 |d|_inf
            # the step length below which t d is below the float resolution
            # of y: a row stalls at the first halving there
            t_min = (_EPS * np.maximum(1.0, np.abs(Y).max(axis=-1)) / size).tolist()
            while True:
                # the trial each row accepts, and the walks that go on
                chosen, climbing, backtracking = {}, [], []
                for p, j, run, f, a in climbs:
                    # a climbing row keeps the last doubling of its leading
                    # run of passes
                    for t, i in zip(_DOUBLINGS[j:].tolist(), run):
                        if not (f_t[i] <= f_y[p] + t * s_y[p] + a_y[p]
                                and t * moves[p] <= CLIMB_REACH and f_t[i] < f - a):
                            break
                        f, a, j, chosen[p] = f_t[i], a_t[i], j + 1, i
                    else:
                        if j <= CLIMB:
                            climbing.append((p, j, f, a))
                for p, j, run in backs:
                    # a backtracking row takes its first halving that passes
                    # Armijo, and stalls if that, or the next halving it
                    # would try, is at or below its t_min
                    k, h = 0, _HALVINGS[j : j + len(run)].tolist()
                    while k < len(run) and not f_t[run[k]] <= f_y[p] + h[k] * s_y[p] + a_y[p]:
                        k += 1
                    if _HALVINGS[j + k] <= t_min[p]:
                        i = rows[p]
                        ends[i] = ("stall",
                                   f"line search stalled at inf-norm {histories[i][-1]:.3g}")
                    elif k < len(run):
                        chosen[p] = run[k]
                    else:
                        backtracking.append((p, j + k))
                if chosen:
                    at, took = np.fromiter(chosen, int), np.fromiter(chosen.values(), int)
                    for whole, part in zip(state, evaluated):
                        whole[at] = part[took]
                if not (climbing or backtracking):
                    break
                # the next round: each searching row's step lengths left, the
                # halvings short of every backtracking row's stall, as many as
                # fit in the budget the round's rows share
                room = max(1, LADDER_ENTRIES // (point * (len(climbing) + len(backtracking))))
                stall = backtracking and int(np.searchsorted(
                    -_HALVINGS, -max(t_min[p] for p, _ in backtracking)))
                at, ts, climbs, backs = [], [], [], []
                for p, j, *base in climbing + backtracking:
                    run = _DOUBLINGS[j : j + room] if base else _HALVINGS[j : min(j + room, stall)]
                    walk = (p, j, range(len(ts), len(ts) + run.size), *base)
                    (climbs if base else backs).append(walk)
                    at += [p] * run.size
                    ts += run.tolist()
                trial = Y[at] + np.array(ts)[:, None] * step[at]
                phi_t, allowance_t, flows_t = _potential(cs_rows.cells(at), trial)
                evaluated = (trial, phi_t, allowance_t, *flows_t)
                f_t, a_t = phi_t.tolist(), allowance_t.tolist()
        Y, phi, allowance, *flows = state

    wall_time = time.perf_counter() - started
    return [
        NotConverged(*end, best_y[i].copy(), history, wall_time) if isinstance(end[0], str)
        else EquilibriumSolution(PriceSystem(cell, end[0]), TravelerFlows(cell, end[1]),
                                 DriverFlows(cell, *end[2:5]), ResidualReport(cell, end[5]),
                                 wall_time, tuple(history))
        for i, (end, history, cell) in enumerate(zip(ends, histories, cells))
    ]


def _log_served(cs: CompiledScenario, eta: np.ndarray | float) -> np.ndarray:
    """(..., 2m) log of the traveler demand each driver column serves at
    traveler prices eta in column order (ride per OD, then multimodal per
    OD), formed from the utilities, so a share that underflows still has a
    finite log."""
    U = np.concatenate([cs.u_ride, cs.u_multi], axis=-1) - cs.beta2 * eta
    lse = np.logaddexp(np.logaddexp(cs.u_drive, U[..., : cs.m]), U[..., cs.m :]) - np.log(cs.d)
    return U - np.concatenate([lse, lse], axis=-1)


def _log_scatter(
    cs: CompiledScenario, name: str, values: np.ndarray, log_extra: np.ndarray
) -> np.ndarray:
    """ln(_scatter(cs, name, e^values) + e^log_extra), with log_extra
    (size,), summed in log space (np.logaddexp), so that no sum underflows
    unless all its terms are -inf."""
    total = np.empty(values.shape[:-1] + log_extra.shape)
    total[...] = log_extra
    rows = values.size // getattr(cs, name).size
    np.logaddexp.at(total.reshape(-1), cs.stacked_index(name, log_extra.size, rows), values.ravel())
    return total


@np.errstate(divide="ignore")  # ln 0 = -inf: a node without sign-ins
def _start(cs: CompiledScenario) -> np.ndarray:
    """The default start of `solve`; a stack of sweep cells gets a (k, dim)
    stack, each row what its cell alone gets.

    With x_c = ln s_c - LSE_n A[n, c], s_c the demand column c serves at
    zero prices: rho_c = min(x_c / beta3, x_c / (beta3 + beta2)) and
    lambda_n = (ln(a_n + dQ_n) - LSE(A[n, :] + beta3 rho, a_H[n])) / beta3,
    with a_n the drop-offs at node n at traveler prices eta = rho. The
    log-sum-exps read one column per origin, since a column's driver
    exponents depend on its origin only. Every sum is taken in log space,
    by np.logaddexp, so that no log of an underflowing share or sum is
    -inf, and no term overflows."""
    A = cs.A[..., cs.origin_cols]  # (..., n, n_origins)
    x = _log_served(cs, 0.0) - np.logaddexp.reduce(A, axis=-2)[..., cs.col_origin]
    rho = np.minimum(x / cs.beta3, x / (cs.beta3 + cs.beta2))
    log_stock = _log_scatter(cs, "drop_idx", _log_served(cs, rho), np.log(cs.dQ))
    by_origin = _log_scatter(cs, "col_origin", cs.beta3 * rho, np.full(A.shape[-1], -np.inf))
    lse_X = np.logaddexp(np.logaddexp.reduce(A + by_origin[..., None, :], axis=-1), cs.a_H)
    return np.concatenate([rho, (log_stock - lse_X) / cs.beta3], axis=-1)


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
    is not finite, are rejected. A full step that lowers phi by more than
    0.6 (-r.d), 1.2 times the decrease -r.d/2 the quadratic model predicts,
    and than its rounding allowance is lengthened instead: t = 2, 4, 8 are
    tried, and the longest step along which each doubling passes that test,
    lowers phi by more than its rounding allowance and moves no driver
    exponent by more than 16 (beta3 |t d|_inf <= CLIMB_REACH) is accepted
    (the trust-region ratio test of Nocedal & Wright, Numerical
    Optimization, section 4.1, used to expand the step). Far above the
    solution, where a full Newton step on the exponential driver flows
    moves their exponents by only about one unit, this halves the
    iterations; a long step doubled would carry y far along a flat valley
    of phi, where the Newton step stops being a descent direction. The
    trials are evaluated several at once, on the schedule `_newton`
    describes, which changes no accepted t. The solve stops when the
    inf-norm of r is at most `tol` and the step, the first-order error of
    y, is at most 1e-9 max(1, |y|_inf) in the inf-norm. It is `_newton` on
    a stack of one row, whose failure it raises.

    The default start (`_start`) is one block sweep of the clearing
    conditions in closed form, the balancing step of Furness/Sinkhorn
    scaling (paired with Newton by Brauer, Clason, Lorenz & Wirth, 2017).
    rho first: each driver column's supply at lambda = 0 meets the traveler
    demand it serves at zero prices, times e^(-beta2 rho) where its price
    rho is positive. That factor is the demand's response to a price rise
    while the mode's share is small; a price cut is taken to leave the
    demand as it is, as when the share is close to 1. Balancing against
    the zero-price demand alone overshoots where drivers are scarce: the
    high price it sets leaves both flows of the market below float
    resolution, where Newton stalls (5node at beta0_r_default <= -500).
    Then lambda: each node's driver stock meets its drop-offs at traveler
    prices eta = rho plus its sign-ins. Far below the demand, as y = 0 is,
    Newton's first passes backtrack; from the balanced start most of that
    phase is gone. It is formed in log space, and no driver exponent at it
    exceeds the log of its node's stock, so it overflows only where a stock
    passes e^EXP_BOUND. y0 = np.zeros(dim) gives the zero start; both reach
    the same duals within the stopping rule, not bit for bit.

    Raises NotConverged, with the iterate of lowest inf-norm, the inf-norm
    history and the run's wall time, if that does not happen within
    `max_iter` iterations, if the step cannot be formed (singular Schur
    complement or non-finite step) or its slope r.d is not finite, or if
    t d falls below the float resolution of y; it is the one way a solve of
    a valid scenario fails. If the driver flows overflow at y0 already, its
    best iterate is y0 and its history is empty. Raises ValueError if tol
    is NaN or negative, if max_iter is negative, or if y0 has the wrong
    shape or a non-finite entry.
    """
    _check_stopping(tol, max_iter)
    cs = _compiled(sc)
    y = _start(cs) if y0 is None else _dual_vector(cs, y0, "y0")
    (outcome,) = _newton(cs, y[None], tol, max_iter)
    if isinstance(outcome, NotConverged):
        raise outcome
    return outcome


#: Most cells in one stacked Newton run of `solve_sweep`; a longer grid is
#: solved in several stacks, so the Newton temporaries, cells x n x 2m
#: entries each, stop growing with the grid. A row's result does not
#: depend on its stack.
STACK_CELLS = 32

#: Most driver-flow entries, n x (2m + 1) per trial point, in one round of
#: `_newton`'s line search, unless the round holds one step length per
#: searching row. The round's searching rows share it: each gets as many
#: of the step lengths it wants next as fit, and at least one, and walks
#: them on its own (`_newton`). A row's accepted step does not depend on it.
LADDER_ENTRIES = 4096

#: Doublings t = 2, 4, 8 a climbing row of `_newton` tries at most.
CLIMB = 3

#: The most a climbing step t d of `_newton` may move a driver exponent
#: through one coordinate, beta3 |t d|_inf. Far above the solution a full
#: step moves one by about 1, so those rows keep t = 8; a doubled long step
#: can carry y along a flat valley of phi to where the Newton step is no
#: longer a descent direction.
CLIMB_REACH = 16.0

#: t = 2^j at index j <= CLIMB
_DOUBLINGS = np.ldexp(1.0, np.arange(CLIMB + 1))


def solve_sweep(
    sc: Scenario, param: str, values: Sequence[float],
    tol: float = TOL, max_iter: int = MAX_ITER,
) -> list[EquilibriumSolution | Exception]:
    """`solve(with_param(sc, param, value), tol, max_iter)` for each value,
    as stacked Newton runs from each cell's default start (`_newton` and
    `_start` on one stack of the cells).

    Each entry is the outcome of its cell's row, what that solve returns,
    bit for bit in y, flows, residual and history, with the cell as its
    scenario, or the exception it raises: ValidationFailed, for a cell that
    never enters a stack, and NotConverged for one that does. A solution's
    wall time is that of its whole stack. Raises ValueError, before any
    cell is built, for the tol or max_iter that `solve` rejects and for a
    `param` that names no scalar of the scenario, which no value can set
    (`with_param`).
    """
    _check_stopping(tol, max_iter)
    with_param(sc, param, 0.0)  # ValueError if param names no scalar
    outcomes: list = []
    valid: list[tuple[int, CompiledScenario]] = []
    for i, value in enumerate(values):
        try:
            valid.append((i, _compiled(with_param(sc, param, value))))
            outcomes.append(None)
        except ValidationFailed as exc:
            outcomes.append(exc)
    for first in range(0, len(valid), STACK_CELLS):
        index, cells = zip(*valid[first : first + STACK_CELLS])
        stack = stack_cells(cells)
        for i, outcome in zip(index, _newton(stack, _start(stack), tol, max_iter, cells)):
            outcomes[i] = outcome
    return outcomes


def _probe_starts(sc: Scenario, k: int, seed: int) -> tuple[CompiledScenario, np.ndarray]:
    """The compiled scenario and the uniqueness probe's k starts, uniform in
    [-10, 10] per coordinate."""
    if k < 2:
        raise ValueError("uniqueness probe needs k >= 2 starts")
    cs = _compiled(sc)
    return cs, np.random.default_rng(seed).uniform(-10.0, 10.0, size=(k, cs.dim))


def _deviation(outcomes: list[EquilibriumSolution | NotConverged]) -> float | NotConverged:
    """The max pairwise inf-norm gap of the probe's solutions, or the
    NotConverged of its lowest-index failing start."""
    for outcome in outcomes:
        if isinstance(outcome, NotConverged):
            return outcome
    ys = np.array([sol.y for sol in outcomes])
    return float(np.abs(ys[:, None] - ys).max())


def uniqueness_probe(sc: Scenario, k: int = 5, seed: int = 0) -> float:
    """Solve from k random dual starts; return max pairwise inf-norm gap.

    Starts are uniform in [-10, 10] per coordinate. All k starts are solved
    as one stack (`_newton`), each exactly as `solve` would solve it alone;
    if any fails, the NotConverged `solve` raises for the lowest-index
    failing start is raised, not hidden.
    """
    deviation = _deviation(_newton(*_probe_starts(sc, k, seed), TOL, MAX_ITER))
    if isinstance(deviation, NotConverged):
        raise deviation
    return deviation


def solve_and_probe(
    sc: Scenario, k: int = 5, seed: int = 0
) -> tuple[EquilibriumSolution, float | NotConverged]:
    """`solve(sc)` and `uniqueness_probe(sc, k, seed)` as one stacked Newton
    run, with the default start as row 0 of the probe's stack.

    Row 0's outcome is what `solve` returns or raises: the solution is
    returned, bit for bit, and a NotConverged is raised, after the probe's
    rows ran to their own end. The other rows' outcomes give the probe's
    deviation, or as a value the NotConverged `uniqueness_probe` would
    raise. The solution's wall time is that of the whole stack. Raises
    ValueError if k < 2.
    """
    cs, starts = _probe_starts(sc, k, seed)
    solution, *probe = _newton(cs, np.vstack([_start(cs), starts]), TOL, MAX_ITER)
    if isinstance(solution, NotConverged):
        raise solution
    return solution, _deviation(probe)


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
    combined model is price-free. The driver model's entropy terms are
    divided by beta3, as the combined model's are, so its objective is
    stationary at the equilibrium flows for any beta3.
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
        value = (value + _xlogx_term(driver.E_H, cs.a_H)) / cs.beta3
        value -= float(np.sum(lam * (driver.stock - cs.dQ)))
        return float(value)

    if model == "combined":
        if traveler is None or driver is None:
            raise ValueError("combined objective needs traveler and driver flows")
        return float(combined_objective_arrays(cs, traveler.matrix, driver.E, driver.E_H))

    raise ValueError(f"unknown model {model!r}")
