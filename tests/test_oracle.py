"""Independent verification: KKT audit, grid duals, convexity probe."""
import dataclasses

import numpy as np
import pytest

from modal_market.equilibrium import (
    NonPositiveFlow,
    extract_prices,
    residual,
    solve,
)
from modal_market.oracle import (
    DimensionTooLarge,
    grid_solve_micro,
    kkt_check,
    perturbation_probe,
    random_scenario,
)
from modal_market.scenario import MODES, validate


def with_traveler_flow(sc, sol, rs, mode, delta):
    """Copy of `sol` with one traveler flow moved by `delta` (set to 0 if None)."""
    matrix = sol.traveler.matrix.copy()
    i, j = sc.rs_pairs.index(rs), MODES.index(mode)
    matrix[i, j] = 0.0 if delta is None else matrix[i, j] + delta
    return dataclasses.replace(
        sol, traveler=dataclasses.replace(sol.traveler, matrix=matrix)
    )


class TestKktCheck:
    def test_5node_stationary(self, five_node, five_node_solution):
        rep = kkt_check(five_node, five_node_solution)
        assert rep.stationarity <= 1e-6
        assert rep.constraint_violation <= 1e-10

    def test_sioux_stationary(self, sioux_scenarios, sioux_solutions):
        for k in (1, 2, 3):
            rep = kkt_check(sioux_scenarios[k], sioux_solutions[k])
            assert rep.stationarity <= 1e-6

    def test_perturbed_flow_detected(self, five_node, five_node_solution):
        base = kkt_check(five_node, five_node_solution).stationarity
        perturbed = with_traveler_flow(five_node, five_node_solution, (1, 2), "ride", 1.0)
        rep = kkt_check(five_node, perturbed)
        assert rep.stationarity >= 1e-2
        assert rep.stationarity >= 10 * base

    def test_perturbed_lambda_detected(self, five_node, five_node_solution):
        y = five_node_solution.y.copy()
        y[-1] += 1.0  # lambda at the bystander node
        perturbed = dataclasses.replace(
            five_node_solution, prices=extract_prices(y, five_node)
        )
        rep = kkt_check(five_node, perturbed)
        assert rep.stationarity > 0.1

    def test_nonpositive_flow_rejected(self, five_node, five_node_solution):
        broken = with_traveler_flow(five_node, five_node_solution, (1, 2), "multi", None)
        with pytest.raises(NonPositiveFlow):
            kkt_check(five_node, broken)

    def test_randomized_corpus(self):
        for seed in range(5):
            sc = random_scenario(seed)
            sol = solve(sc)
            rep = kkt_check(sc, sol)
            assert rep.stationarity <= 1e-6, (seed, rep)


class TestGridSolveMicro:
    def test_micros_validate(self, micros):
        for sc in micros:
            assert validate(sc) == []

    def test_duals_match_solver(self, micros, grid_duals):
        for sc in micros:
            y_newton = solve(sc).y
            assert np.abs(grid_duals[sc.name] - y_newton).max() <= 1e-6, sc.name

    def test_residual_at_grid_duals(self, micros, grid_duals):
        for sc in micros:
            assert residual(sc, grid_duals[sc.name]).inf_norm <= 1e-6

    def test_symmetric_micro_has_equal_leg_prices(self, grid_duals):
        y = grid_duals["micro-twin"]
        assert y[0] == pytest.approx(y[1], abs=1e-9)

    def test_flows_at_grid_duals_match_solver(self, micros, grid_duals):
        from modal_market.choice import driver_flows_dual, traveler_flows
        from modal_market.scenario import MODES

        for sc in micros:
            sol = solve(sc)
            prices = extract_prices(grid_duals[sc.name], sc)
            tf = traveler_flows(sc, prices)
            for rs in sc.rs_pairs:
                for mode in MODES:
                    a, b = tf.q[rs][mode], sol.traveler.q[rs][mode]
                    assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1.0)
            df = driver_flows_dual(sc, prices)
            for n in sc.network.nodes:
                for pair in sc.driver_pairs:
                    a, b = df.q[n][pair], sol.driver.q[n][pair]
                    assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1.0)

    def test_dimension_cap(self, five_node):
        with pytest.raises(DimensionTooLarge):
            grid_solve_micro(five_node)


class TestPerturbationProbe:
    def test_gap_positive(self, five_node, five_node_solution):
        gap = perturbation_probe(five_node, five_node_solution, samples=100, seed=0)
        assert gap > 0

    def test_zero_magnitude_zero_gap(self, five_node, five_node_solution):
        gap = perturbation_probe(
            five_node, five_node_solution, samples=5, seed=1, magnitude=0.0
        )
        assert gap == 0.0

    def test_quadratic_scaling(self, five_node, five_node_solution):
        g_full = perturbation_probe(
            five_node, five_node_solution, samples=25, seed=7, magnitude=1e-3
        )
        g_half = perturbation_probe(
            five_node, five_node_solution, samples=25, seed=7, magnitude=5e-4
        )
        assert 3.0 <= g_full / g_half <= 5.0

    def test_deterministic(self, five_node, five_node_solution):
        a = perturbation_probe(five_node, five_node_solution, samples=10, seed=4)
        b = perturbation_probe(five_node, five_node_solution, samples=10, seed=4)
        assert a == b

    def test_positive_on_micros(self, micros):
        for sc in micros:
            sol = solve(sc)
            assert perturbation_probe(sc, sol, samples=40, seed=2) > 0

    def test_positive_on_random_corpus(self):
        for seed in range(20):
            sc = random_scenario(seed)
            sol = solve(sc)
            assert perturbation_probe(sc, sol, samples=20, seed=seed) > 0, seed


class TestRandomScenario:
    def test_seeded_and_deterministic(self):
        assert random_scenario(3) == random_scenario(3)

    def test_all_validate(self):
        for seed in range(20):
            assert validate(random_scenario(seed)) == []

    def test_coefficients_within_ranges(self):
        sc = random_scenario(12)
        tp, dp = sc.traveler_params, sc.driver_params
        for v in (tp.beta0_drive, tp.beta0_ride, tp.beta0_multi):
            assert 0.05 <= v <= 5.0
        assert 0.05 <= tp.beta2 <= 5.0
        assert 0.05 <= dp.beta3 <= 5.0
        for link in sc.network.links:
            assert 1.0 <= link.free_flow_time <= 60.0
