"""Independent verification: KKT audit, grid duals, convexity probe."""
import dataclasses

import numpy as np
import pytest

from modal_market.choice import compile_scenario
from modal_market.equilibrium import (
    NonPositiveFlow,
    _newton_step,
    extract_prices,
    residual,
    solve,
)
from modal_market.oracle import (
    DimensionTooLarge,
    _flow_parts,
    _moves,
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


def reference_moves(cs, solution, samples, seed, magnitude):
    """`oracle._moves` as it stood with an explicit B adjoint and a 0/1
    drop-off matrix D, kept verbatim as the reference the in-place
    projection must match bit for bit."""
    m = cs.m
    q, dr = solution.traveler.matrix, solution.driver
    x = np.concatenate([q.T.ravel(), dr.E.ravel(), dr.E_H])
    P = q / cs.d[:, None]
    beta = np.repeat([cs.beta2, cs.beta3], [3 * m, x.size - 3 * m])
    D = np.eye(cs.n_nodes)[cs.drop_idx]  # column drop-offs

    def B(v: np.ndarray) -> np.ndarray:
        _, E, E_H = _flow_parts(cs, v)
        served = v[..., m : 3 * m]  # traveler demand per driver column
        rows = (E.sum(axis=-2) - served, E.sum(axis=-1) + E_H - served @ D)
        return np.concatenate(rows, axis=-1)

    def B_adjoint(z: np.ndarray) -> np.ndarray:
        col, s = np.split(z, [2 * m], axis=-1)
        E = s[..., :, None] + col[..., None, :]
        # no row of B holds a drive flow
        parts = (np.zeros_like(col[..., :m]), -col - s @ D.T, E.reshape(z.shape[:-1] + (-1,)), s)
        return np.concatenate(parts, axis=-1)

    def centred(u: np.ndarray) -> np.ndarray:
        u[..., : 3 * m] -= np.tile((_flow_parts(cs, u)[0] * P).sum(axis=-1), 3)
        return u

    u = centred(np.random.default_rng(seed).standard_normal((samples, x.size)))
    for _ in range(2):  # the second pass removes what rounding left of B(x*u)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dx = _newton_step(cs, P, dr.E, dr.stock, B(x * u).T).T
        u += centred(beta * B_adjoint(dx))
    u *= magnitude / np.abs(u).max(axis=1, keepdims=True)
    return x, x * u


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

    def test_randomized_corpus(self, solved_corpus):
        for seed in range(5):
            sc, sol = solved_corpus[f"random-{seed}"]
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

    def test_own_origin_relocation_time_is_read(self, micros):
        # a nonzero t_rr moves the duals, and the grid oracle, written out
        # from the scenario data, moves with the solver
        sc = micros[0]
        r = sc.ods[0].r
        moved = dataclasses.replace(sc, relocation_times={**sc.relocation_times, (r, r): 4.0})
        y = solve(moved).y
        assert np.abs(y - solve(sc).y).max() > 0.1
        assert np.abs(grid_solve_micro(moved) - y).max() <= 1e-6

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

    def test_positive_on_random_corpus(self, solved_corpus):
        for seed in range(20):
            sc, sol = solved_corpus[f"random-{seed}"]
            assert perturbation_probe(sc, sol, samples=20, seed=seed) > 0, seed

    def test_positive_on_corpus_at_default_samples(self, solved_corpus):
        # thin markets (random 6, 54, 75, 94, ...) hold flows below 1e-11:
        # moves capped by the smallest cell gave gaps of 0 or -2e-13
        for name, (sc, sol) in solved_corpus.items():
            for k in range(5):
                assert perturbation_probe(sc, sol, seed=k) > 0, (name, k)

    def test_moves_feasible_and_relative(self, solved_corpus):
        magnitude = 1e-3
        for name, (sc, sol) in solved_corpus.items():
            cs = compile_scenario(sc)
            x, dx = _moves(cs, sol, samples=25, seed=0, magnitude=magnitude)
            assert np.all(np.abs(dx) <= magnitude * x * (1 + 4 * np.finfo(float).eps)), name
            base = kkt_check(sc, sol).constraint_violation
            for step in dx:
                q, E, E_H = _flow_parts(cs, x + step)
                moved = dataclasses.replace(
                    sol,
                    traveler=dataclasses.replace(sol.traveler, matrix=q),
                    driver=dataclasses.replace(
                        sol.driver, E=E, E_H=E_H, stock=E.sum(axis=1) + E_H
                    ),
                )
                violation = kkt_check(sc, moved).constraint_violation
                assert abs(violation - base) <= 1e-12 * x.max(), name

    def test_moves_match_the_reference_bit_for_bit(self, solved_corpus):
        names = ["5node", "sioux1", "sioux2", "sioux3", *(f"random-{i}" for i in range(20))]
        for name in names:
            sc, sol = solved_corpus[name]
            cs = compile_scenario(sc)
            for seed in (0, 3):
                x, dx = _moves(cs, sol, samples=100, seed=seed, magnitude=1e-3)
                x_ref, dx_ref = reference_moves(cs, sol, 100, seed, 1e-3)
                assert np.array_equal(x, x_ref), name
                assert dx.tobytes() == dx_ref.tobytes(), (name, seed)

    def test_magnitude_outside_unit_interval_rejected(self, five_node, five_node_solution):
        for magnitude in (1.0, -1e-3):
            with pytest.raises(ValueError):
                perturbation_probe(five_node, five_node_solution, magnitude=magnitude)

    def test_samples_below_one_rejected(self, five_node, five_node_solution):
        # an empty probe has no gap to report, and must not read as a pass
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples"):
                perturbation_probe(five_node, five_node_solution, samples=samples)

    def test_projection_solves_only_the_schur_complement(self, solved_corpus, monkeypatch):
        # the moves are projected through the solver's Newton step: every
        # dense solve has the order of the node count, never the 3m + n of
        # the constraint Gram matrix
        orders = []
        solve_dense = np.linalg.solve

        def recorded(a, b):
            orders.append(a.shape[-1])
            return solve_dense(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        for name in ("5node", "sioux1", "sioux2", "sioux3"):
            sc, sol = solved_corpus[name]
            orders.clear()
            perturbation_probe(sc, sol)
            assert orders and set(orders) == {compile_scenario(sc).n_nodes}, name


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
