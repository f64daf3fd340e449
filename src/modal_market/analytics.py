"""Scenario experiments and summary metrics over equilibrium solutions.

Everything here is a pure function of (scenario, solution): metrics can be
recomputed bit-identically, a sweep solves its cells as stacked Newton
runs (`solve_sweep`), each cell bit-identical to its own solve, and the hub
study compares the three Sioux Falls builtins.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from .choice import CompiledScenario, compile_scenario
from .equilibrium import MAX_ITER, TOL, EquilibriumSolution, solve, solve_sweep
from .scenario import MODES, Scenario, builtin_sioux


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """What metrics add to a solution, as arrays in compiled order: the
    (m, 3) mode shares, the (m,) subsidy flags, and the relocation-time
    total that proxies empty vehicle travel. Prices, stocks and sign-out
    flows are read from the solution itself. Views: mode_share[(r,s)][mode]
    and subsidy[(r,s)]."""

    cs: CompiledScenario = field(repr=False)
    shares: np.ndarray
    subsidized: np.ndarray
    total_relocation_time: float

    @cached_property
    def mode_share(self) -> dict[tuple[int, int], dict[str, float]]:
        return self.cs.mode_view(self.shares)

    @cached_property
    def subsidy(self) -> dict[tuple[int, int], bool]:
        return self.cs.od_view(self.subsidized)


def total_relocation_time(sc: Scenario, solution: EquilibriumSolution) -> float:
    """Flow-weighted relocation minutes, each driver flow weighted by the
    relocation table's time from its node to its column's origin (t_rr, the
    time of staying put, included; shortest paths make it zero).

    Summed sequentially in row-major (node, driver column) order, so the
    total is reproducible to the bit rather than subject to numpy's pairwise
    summation order."""
    return float(np.cumsum(solution.driver.E * compile_scenario(sc).reloc)[-1])


def metrics(sc: Scenario, solution: EquilibriumSolution) -> MetricsReport:
    cs = compile_scenario(sc)
    rho_d, rho_h, _ = cs.split(solution.y)
    eta_d, eta_h = cs.eta(solution.y)
    return MetricsReport(
        cs=cs,
        shares=solution.traveler.matrix / cs.d[:, None],
        subsidized=(eta_d < 0) | (eta_h < 0) | (rho_d < 0) | (rho_h < 0),
        total_relocation_time=total_relocation_time(sc, solution),
    )


def _mode_totals(sol: EquilibriumSolution) -> dict[str, float]:
    """Traveler flow per mode, summed sequentially over ODs in od order."""
    return dict(zip(MODES, np.cumsum(sol.traveler.matrix, axis=0)[-1].tolist()))


_NAN = float("nan")


@dataclass(frozen=True)
class SweepCell:
    """One solve of a parameter sweep, and one row of its CSV: the fields
    are the columns, in order. A cell whose solve failed keeps the defaults
    (NaN metrics, no winner) and carries the message in `error` instead of
    aborting the sweep."""

    value: float
    converged: bool
    iterations: int = 0
    residual_inf: float = _NAN
    total_drive: float = _NAN
    total_ride: float = _NAN
    total_multi: float = _NAN
    winner: str = ""
    min_rho_direct: float = _NAN
    min_rho_hub: float = _NAN
    min_eta_direct: float = _NAN
    min_eta_hub: float = _NAN
    error: str | None = None


def _cell_from_solution(value: float, sol: EquilibriumSolution) -> SweepCell:
    cs = sol.prices.cs
    totals = _mode_totals(sol)
    rho_d, rho_h, _ = cs.split(sol.y)
    eta_d, eta_h = cs.eta(sol.y)
    return SweepCell(
        value=value,
        converged=sol.converged,
        iterations=sol.iterations,
        residual_inf=sol.residual.inf_norm,
        total_drive=totals["drive"],
        total_ride=totals["ride"],
        total_multi=totals["multi"],
        winner=max(totals, key=lambda mode: totals[mode]),
        min_rho_direct=float(rho_d.min()),
        min_rho_hub=float(rho_h.min()),
        min_eta_direct=float(eta_d.min()),
        min_eta_hub=float(eta_h.min()),
    )


def sweep(
    sc: Scenario,
    param: str,
    values: Sequence[float],
    tol: float = TOL,
    max_iter: int = MAX_ITER,
) -> list[SweepCell]:
    """One cell per value, in input order: `with_param(sc, param, value)`
    solved from its default start. The cells are solved as stacked Newton runs
    (`solve_sweep`), and each equals its own `solve` bit for bit. A cell
    whose scenario fails validation or whose solve fails carries its error.
    Raises ValueError, before any cell is built, for a `param` that names
    no scalar of the scenario and for an unmeetable tol or max_iter."""
    return [
        SweepCell(value, False, error=str(outcome)) if isinstance(outcome, Exception)
        else _cell_from_solution(value, outcome)
        for value, outcome in zip(values, solve_sweep(sc, param, values, tol, max_iter))
    ]


def sweep_cell(sc: Scenario, param: str, value: float, **solve_opts: Any) -> SweepCell:
    """The sweep of one value."""
    return sweep(sc, param, [value], **solve_opts)[0]


@dataclass(frozen=True)
class HubStudyRow:
    scenario: int
    od: tuple[int, int]
    drive: float
    ride: float
    multi: float
    eta_hub: float
    rho_hub: float


@dataclass(frozen=True)
class HubStudyTotals:
    scenario: int
    n_hubs: int
    total_drive: float
    total_ride: float
    total_multi: float
    total_relocation_time: float


@dataclass(frozen=True)
class HubStudy:
    rows: tuple[HubStudyRow, ...]
    totals: tuple[HubStudyTotals, ...]
    summary: Mapping[str, bool]


def hub_study(**solve_opts: Any) -> HubStudy:
    """Solve the three Sioux Falls builtins and tabulate hub-count effects.

    Per-OD movements are reported but only aggregate monotonicity is
    summarized; individual ODs may buck the trend.
    """
    rows: list[HubStudyRow] = []
    totals: list[HubStudyTotals] = []
    for k in (1, 2, 3):
        sc = builtin_sioux(k)
        sol = solve(sc, **solve_opts)
        cs = compile_scenario(sc)
        eta_hub = cs.eta(sol.y)[1].tolist()
        rho_hub = cs.split(sol.y)[1].tolist()
        for i, rs in enumerate(sc.rs_pairs):
            drive, ride, multi = sol.traveler.matrix[i].tolist()
            rows.append(
                HubStudyRow(
                    scenario=k, od=rs, drive=drive, ride=ride, multi=multi,
                    eta_hub=eta_hub[i], rho_hub=rho_hub[i],
                )
            )
        mode_totals = _mode_totals(sol)
        totals.append(
            HubStudyTotals(
                scenario=k,
                n_hubs=len(sc.hubs),
                total_drive=mode_totals["drive"],
                total_ride=mode_totals["ride"],
                total_multi=mode_totals["multi"],
                total_relocation_time=total_relocation_time(sc, sol),
            )
        )
    t1, t2, t3 = totals
    summary = {
        "multi_strictly_increasing": t1.total_multi < t2.total_multi < t3.total_multi,
        "drive_strictly_decreasing": t1.total_drive > t2.total_drive > t3.total_drive,
        "relocation_strictly_increasing": (
            t1.total_relocation_time < t2.total_relocation_time < t3.total_relocation_time
        ),
    }
    return HubStudy(rows=tuple(rows), totals=tuple(totals), summary=summary)
