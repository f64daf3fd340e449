"""Metrics, parameter sweeps, and the hub-count study."""
import dataclasses
import math

import numpy as np
import pytest

from modal_market import equilibrium
from modal_market.analytics import (
    SweepCell,
    _cell_from_solution,
    hub_study,
    metrics,
    sweep,
    total_relocation_time,
)
from modal_market.choice import CELL_COEFFICIENTS, compile_scenario
from modal_market.equilibrium import (
    EquilibriumError,
    NotConverged,
    ValidationFailed,
    solve,
    solve_sweep,
)
from modal_market.oracle import random_scenario
from modal_market.scenario import MODES, builtin, with_param

BUILTINS = ("5node", "sioux1", "sioux2", "sioux3")
#: The sweep grids of the cli-builtins benchmark workload.
GRIDS = {
    "traveler_params.beta2": (0.3, 0.5, 1.0, 2.0, 3.0),
    "driver_params.beta0_H": (0.5, 1.0, 2.0, 3.0, 4.0),
    "driver_params.beta3": (0.5, 0.75, 1.0, 1.5, 2.0),
}


def solo_cell(sc, param, value, **solve_opts):
    """The sweep cell of one value, from `solve` on its scenario alone."""
    try:
        cell_sc = with_param(sc, param, value)
        return _cell_from_solution(value, solve(cell_sc, **solve_opts))
    except (EquilibriumError, ValueError) as exc:
        return SweepCell(value, False, error=str(exc))


def assert_same_solution(stacked, alone):
    assert np.array_equal(stacked.y, alone.y)
    assert stacked.residual_history == alone.residual_history
    assert stacked.iterations == alone.iterations
    assert np.array_equal(stacked.residual.vector, alone.residual.vector)
    assert np.array_equal(stacked.traveler.matrix, alone.traveler.matrix)
    assert np.array_equal(stacked.driver.E, alone.driver.E)
    assert np.array_equal(stacked.driver.E_H, alone.driver.E_H)
    assert np.array_equal(stacked.driver.stock, alone.driver.stock)


class TestMetrics:
    def test_mode_shares_sum_to_one(self, five_node, five_node_solution):
        rep = metrics(five_node, five_node_solution)
        for rs, shares in rep.mode_share.items():
            assert abs(sum(shares.values()) - 1.0) <= 1e-12

    def test_5node_share_ordering(self, five_node, five_node_solution):
        rep = metrics(five_node, five_node_solution)
        for shares in rep.mode_share.values():
            assert shares["ride"] > shares["drive"] > shares["multi"]

    def test_relocation_time_matches_brute_force(
        self, five_node, five_node_solution, sioux_scenarios, sioux_solutions
    ):
        cases = [(five_node, five_node_solution), (sioux_scenarios[3], sioux_solutions[3])]
        for seed in (0, 3, 7, 11):
            sc = random_scenario(seed)
            cases.append((sc, solve(sc)))
        for sc, sol in cases:
            rep = metrics(sc, sol)
            brute = 0.0
            for n in sc.network.nodes:
                for pair in sc.driver_pairs:
                    r = pair[0]
                    t_nr = 0.0 if n == r else sc.relocation_time(n, r)
                    brute += sol.driver.q[n][pair] * t_nr
            assert rep.total_relocation_time == brute, sc.name

    def test_all_staying_drivers_zero_relocation(self, five_node, five_node_solution):
        cs = compile_scenario(five_node)
        origins = np.array([r for r, _ in cs.column_pairs])
        E = (np.array(cs.node_ids)[:, None] == origins[None, :]).astype(float)
        stay_home = dataclasses.replace(five_node_solution.driver, E=E)
        sol = dataclasses.replace(five_node_solution, driver=stay_home)
        assert total_relocation_time(five_node, sol) == 0.0

    def test_recomputation_bit_identical(self, five_node, five_node_solution):
        a = metrics(five_node, five_node_solution)
        b = metrics(five_node, five_node_solution)
        assert np.array_equal(a.shares, b.shares)
        assert np.array_equal(a.subsidized, b.subsidized)
        assert a.total_relocation_time == b.total_relocation_time

    def test_negative_price_raises_subsidy_flag(self, five_node):
        from modal_market.scenario import with_param

        sc = with_param(five_node, "traveler_params.beta2", 0.1)
        sol = solve(sc)
        rep = metrics(sc, sol)
        assert all(rep.subsidy.values())
        assert all(sol.prices.rho_hub[rs] < 0 for rs in sc.rs_pairs)


class TestSweep:
    def test_single_value_equals_plain_solve(self, five_node, five_node_solution):
        cells = sweep(five_node, "traveler_params.beta2", [1.0])
        assert len(cells) == 1
        cell = cells[0]
        assert cell.converged
        totals = {
            mode: sum(q[mode] for q in five_node_solution.traveler.q.values())
            for mode in MODES
        }
        assert cell.total_ride == pytest.approx(totals["ride"], rel=1e-12)
        assert cell.winner == "ride"

    def test_three_values_three_cells_in_input_order(self, five_node):
        cells = sweep(five_node, "traveler_params.beta2", [0.1, 1.0, 10.0])
        assert [c.value for c in cells] == [0.1, 1.0, 10.0]

    def test_sensitivity_narrative(self, five_node):
        lo, mid, hi = sweep(five_node, "traveler_params.beta2", [0.1, 1.0, 10.0])
        assert lo.winner == "drive"
        assert lo.min_rho_hub < 0
        assert mid.winner == "ride"
        assert hi.winner == "ride"
        assert hi.total_drive < 0.01 * (hi.total_drive + hi.total_ride + hi.total_multi)

    def test_failures_recorded_not_raised(self, five_node):
        cells = sweep(
            five_node, "traveler_params.beta2", [1.0, -1.0], max_iter=200
        )
        assert cells[0].converged
        assert not cells[1].converged
        assert cells[1].error is not None
        assert math.isnan(cells[1].total_ride)

    def test_unmeetable_stopping_rule_raises(self, five_node):
        # a stopping rule no solve can meet is an input error, not a failure
        # of every cell
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            sweep(five_node, "traveler_params.beta2", [1.0], max_iter=-1)
        with pytest.raises(ValueError, match="tol must be a non-negative number"):
            hub_study(tol=math.nan)

    def test_bad_path_raises_before_any_cell(self, five_node, monkeypatch):
        # no value can set a path that names no scalar: one ValueError, not
        # a failed cell per value; a value that fails validation stays a cell
        monkeypatch.setattr(equilibrium, "_compiled", None)  # not reached
        for path, why in (("traveler_params.nope", "has no parameter 'nope'"),
                          ("driver_params.beta0_r", "is not a scalar")):
            with pytest.raises(ValueError, match=why):
                sweep(five_node, path, [1.0, 2.0])
            with pytest.raises(ValueError, match=why):
                solve_sweep(five_node, path, [])
        monkeypatch.undo()
        (cell,) = sweep(five_node, "traveler_params.beta2", [math.nan])
        assert not cell.converged and "nan must be > 0" in cell.error

    def test_stacked_cells_equal_solo_solves(self):
        # every cell of a bench grid, solved in one stack, is its own solve
        # bit for bit, on every builtin
        for name in BUILTINS:
            sc = builtin(name)
            for param, grid in GRIDS.items():
                stacked = solve_sweep(sc, param, grid)
                for value, solution in zip(grid, stacked):
                    cell_sc = with_param(sc, param, value)
                    assert_same_solution(solution, solve(cell_sc))
                    # the record's coefficients are its own cell's, not the stack's
                    cs, cell_cs = solution.prices.cs, compile_scenario(cell_sc)
                    for name in CELL_COEFFICIENTS:
                        assert np.array_equal(getattr(cs, name), getattr(cell_cs, name)), name
                cells = sweep(sc, param, grid)
                assert list(map(repr, cells)) == [repr(solo_cell(sc, param, v)) for v in grid]

    def test_stack_limit_does_not_change_a_cell(self, monkeypatch):
        sc = builtin("sioux2")
        grid = GRIDS["driver_params.beta3"]
        stacks = []
        newton = equilibrium._newton

        def counted(cs, Y, *args):
            stacks.append(len(Y))
            return newton(cs, Y, *args)

        monkeypatch.setattr(equilibrium, "_newton", counted)
        whole = list(map(repr, sweep(sc, "driver_params.beta3", grid)))
        monkeypatch.setattr(equilibrium, "STACK_CELLS", 2)
        assert list(map(repr, sweep(sc, "driver_params.beta3", grid))) == whole
        assert stacks == [5, 2, 2, 1]

    def test_failed_cells_keep_their_solo_messages(self, five_node):
        # with a sign-out bonus at node 5, beta3 = -1 fails validation and
        # beta3 = 0.1 needs 7 iterations; the other cells converge in 6 or
        # fewer
        sc = dataclasses.replace(five_node, signout_bonus={5: 1.0})
        grid = [0.5, -1.0, 800.0, 0.1, 1.0]
        cells = sweep(sc, "driver_params.beta3", grid, max_iter=6)
        assert list(map(repr, cells)) == [
            repr(solo_cell(sc, "driver_params.beta3", v, max_iter=6)) for v in grid
        ]
        outcomes = solve_sweep(sc, "driver_params.beta3", grid, max_iter=6)
        assert [type(o).__name__ for o in outcomes] == [
            "EquilibriumSolution", ValidationFailed.__name__, "EquilibriumSolution",
            NotConverged.__name__, "EquilibriumSolution",
        ]
        assert cells[3].error.startswith("no convergence to 1e-10 within 6 iterations")
        # a sign-in of 1e305 at node 1 overflows the driver flows at every
        # start of every valid cell: the stock there passes e^EXP_BOUND
        sc = dataclasses.replace(sc, signin={**sc.signin, 1: 1e305})
        cells = sweep(sc, "driver_params.beta3", grid, max_iter=6)
        assert list(map(repr, cells)) == [
            repr(solo_cell(sc, "driver_params.beta3", v, max_iter=6)) for v in grid
        ]
        outcomes = solve_sweep(sc, "driver_params.beta3", grid, max_iter=6)
        assert [type(o).__name__ for o in outcomes] == [
            NotConverged.__name__, ValidationFailed.__name__, NotConverged.__name__,
            NotConverged.__name__, NotConverged.__name__,
        ]
        assert cells[2].error == "initial dual vector overflows the driver flows"


class TestHubStudy:
    def test_three_scenarios(self):
        study = hub_study()
        assert [t.scenario for t in study.totals] == [1, 2, 3]
        assert [t.n_hubs for t in study.totals] == [2, 3, 7]
        assert len(study.rows) == 21  # 7 ODs x 3 scenarios

    def test_aggregate_monotonicity(self):
        study = hub_study()
        assert study.summary["multi_strictly_increasing"]
        assert study.summary["drive_strictly_decreasing"]
        assert study.summary["relocation_strictly_increasing"]

    def test_totals_match_rows(self):
        study = hub_study()
        for t in study.totals:
            rows = [r for r in study.rows if r.scenario == t.scenario]
            assert t.total_multi == pytest.approx(sum(r.multi for r in rows), rel=1e-12)
