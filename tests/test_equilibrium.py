"""Residual map, Newton solver, price extraction, and model objectives."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modal_market import equilibrium
from modal_market.choice import (
    EXP_BOUND,
    PriceSystem,
    compile_scenario,
    driver_flows_dual,
    stack_cells,
    traveler_flows,
)
from modal_market.equilibrium import (
    MAX_ITER,
    TOL,
    NonPositiveFlow,
    NotConverged,
    ValidationFailed,
    _flows_at,
    _newton,
    _newton_step,
    _potential,
    _probe_starts,
    _residual_of_flows,
    _residual_vector,
    _start,
    extract_prices,
    objective_value,
    residual,
    solve,
    solve_and_probe,
    solve_sweep,
    uniqueness_probe,
    violations,
)
from modal_market.oracle import random_scenario
from modal_market.scenario import MODES, TravelerParams, with_param
from test_choice import zero_everything_scenario


def newton_step_at(cs, y):
    """(structured step, residual) at y."""
    _, P, _, E, _, Q = _flows_at(cs, y)
    r = _residual_vector(cs, y)
    return _newton_step(cs, P, E, Q, r[..., None])[..., 0], r


def jacobian_analytic(cs, y):
    """Closed-form dense Jacobian of the residual map; symmetric positive
    definite. The solver never builds it; the structured Newton step is
    checked against it."""
    q, P, _, E, _, Q = _flows_at(cs, y)
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


def jacobian_fd(cs, y):
    """Forward-difference Jacobian, step 1e-7 * max(1, |y_i|) per coordinate."""
    r0 = _residual_vector(cs, y)
    J = np.empty((cs.dim, cs.dim))
    for j in range(cs.dim):
        h = 1e-7 * max(1.0, abs(y[j]))
        yj = y.copy()
        yj[j] += h
        J[:, j] = (_residual_vector(cs, yj) - r0) / h
    return J


class TestResidual:
    def test_zero_at_converged_duals(self, five_node, five_node_solution):
        rep = residual(five_node, five_node_solution.y)
        assert rep.inf_norm <= 1e-10

    def test_bystander_row_is_stock_minus_signin(self, five_node):
        cs = compile_scenario(five_node)
        y = np.linspace(-0.5, 0.8, cs.dim)
        rep = residual(five_node, y)
        prices = extract_prices(y, five_node)
        stocks = driver_flows_dual(five_node, prices).Q
        # node 5 receives no drop-offs, so its row is Q_5 - signin
        assert rep.r_lambda[5] == pytest.approx(stocks[5] - 20.0, rel=1e-12)

    def test_doubling_demand_doubles_traveler_terms(self, five_node):
        cs = compile_scenario(five_node)
        y = np.full(cs.dim, 0.3)
        base = residual(five_node, y)
        doubled_ods = tuple(
            dataclasses.replace(od, demand=2 * od.demand) for od in five_node.ods
        )
        doubled = residual(
            dataclasses.replace(five_node, ods=doubled_ods), y
        )
        prices = extract_prices(y, five_node)
        q = traveler_flows(five_node, prices).q
        for rs in five_node.rs_pairs:
            # supply side unchanged, traveler side doubled
            assert doubled.r_rho_direct[rs] - base.r_rho_direct[rs] == pytest.approx(
                -q[rs]["ride"], rel=1e-9
            )

    def test_dimension(self, five_node):
        cs = compile_scenario(five_node)
        assert cs.dim == 2 * 2 + 5
        with pytest.raises(ValueError):
            residual(five_node, np.zeros(3))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf), ids=str)
    def test_non_finite_dual_vector_is_refused(self, five_node, bad):
        y = np.zeros(compile_scenario(five_node).dim)
        y[4] = bad
        for call in (lambda: residual(five_node, y), lambda: extract_prices(y, five_node)):
            with pytest.raises(ValueError, match="^dual vector must have finite entries$"):
                call()
        with pytest.raises(ValueError, match="^y0 must have finite entries$"):
            solve(five_node, y0=y)

    def test_overflowing_point_has_infinite_gaps(self, five_node):
        # every gap has a driver flow in it, and those are +inf there
        y = np.full(compile_scenario(five_node).dim, EXP_BOUND)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (residual(five_node, y).vector == np.inf).all()

    def test_report_inf_norm_matches_vector(self, five_node):
        y = np.full(compile_scenario(five_node).dim, -0.2)
        rep = residual(five_node, y)
        entries = (
            list(rep.r_rho_direct.values())
            + list(rep.r_rho_hub.values())
            + list(rep.r_lambda.values())
        )
        assert rep.inf_norm == pytest.approx(max(abs(v) for v in entries))

    def test_arrivals_match_scatter_reference(self, five_node, sioux_scenarios):
        # the lambda rows against arrivals scattered one OD at a time, in the
        # same order: bit-identical
        rng = np.random.default_rng(2)
        corpus = [five_node, *sioux_scenarios.values()]
        corpus += [random_scenario(seed) for seed in range(20)]
        for sc in corpus:
            cs = compile_scenario(sc)
            for y in (np.zeros(cs.dim), rng.uniform(-3.0, 3.0, cs.dim)):
                q, _, _, E, _, Q = _flows_at(cs, y)
                arrivals = np.zeros(cs.n_nodes)
                for idx, col in ((cs.s_idx, 1), (cs.h_idx, 2)):
                    for i in range(cs.m):
                        arrivals[idx[i]] += q[i, col]
                r = _residual_of_flows(cs, q, E, Q)
                assert np.array_equal(r[2 * cs.m :], Q - arrivals - cs.dQ), sc.name


class TestJacobian:
    def test_matches_finite_differences(self, five_node):
        cs = compile_scenario(five_node)
        rng = np.random.default_rng(11)
        for _ in range(3):
            y = rng.uniform(-2.0, 2.0, cs.dim)
            Ja = jacobian_analytic(cs, y)
            Jf = jacobian_fd(cs, y)
            assert np.abs(Ja - Jf).max() <= 1e-5 * max(1.0, np.abs(Ja).max())

    def test_symmetric_positive_definite(self, five_node):
        cs = compile_scenario(five_node)
        rng = np.random.default_rng(3)
        y = rng.uniform(-3.0, 3.0, cs.dim)
        J = jacobian_analytic(cs, y)
        assert np.abs(J - J.T).max() == 0.0
        assert np.linalg.eigvalsh(J).min() > 0


class TestNewtonStep:
    def test_matches_dense_solve_on_corpus(self, five_node, sioux_scenarios, micros):
        corpus = (
            [five_node, *sioux_scenarios.values(), *micros]
            + [random_scenario(seed) for seed in range(50)]
        )
        for sc in corpus:
            cs = compile_scenario(sc)
            # at the zero start the step equals the dense LU solution
            y = np.zeros(cs.dim)
            step, r = newton_step_at(cs, y)
            dense = np.linalg.solve(jacobian_analytic(cs, y), -r)
            assert np.abs(step - dense).max() <= 1e-10 * np.abs(dense).max(), sc.name
            # far starts (the uniqueness-probe range) make J ill-conditioned
            # (condition numbers up to 1e22), where the dense LU step itself
            # is off by up to 1e-3 relative to a 60-digit solve, so there the
            # structured step is held to a backward error on the dense system
            rng = np.random.default_rng(17)
            for _ in range(3):
                y = rng.uniform(-10.0, 10.0, cs.dim)
                step, r = newton_step_at(cs, y)
                J = jacobian_analytic(cs, y)
                scale = np.abs(J).sum(axis=1).max() * np.abs(step).max() + np.abs(r).max()
                assert np.abs(J @ step + r).max() <= 1e-12 * scale, sc.name

    def test_right_hand_sides_solved_column_by_column(self, five_node, sioux_scenarios):
        # k right-hand sides share one factorization, and each column of the
        # result is the step of a call with that column alone, at the zero
        # start and the criterion-5 probe starts, stacked. Not bit for bit:
        # LAPACK solves k > 1 columns with blocked triangular solves, whose
        # rounding differs from the one-column path by up to 2 ulps
        corpus = [five_node, *sioux_scenarios.values()]
        corpus += [random_scenario(seed) for seed in range(50)]
        rng = np.random.default_rng(5)
        for sc in corpus:
            cs = compile_scenario(sc)
            starts = np.random.default_rng(0).uniform(-10.0, 10.0, size=(5, cs.dim))
            Y = np.vstack([np.zeros(cs.dim), starts])
            _, P, _, E, _, Q = _flows_at(cs, Y)
            R = rng.standard_normal((len(Y), cs.dim, 4))
            R[..., 0] = _residual_vector(cs, Y)
            steps = _newton_step(cs, P, E, Q, R)
            for j in range(R.shape[-1]):
                column = _newton_step(cs, P, E, Q, R[..., j : j + 1])[..., 0]
                bound = 8 * np.finfo(float).eps * np.abs(column).max(axis=-1, keepdims=True)
                assert np.all(np.abs(steps[..., j] - column) <= bound), (sc.name, j)


class TestSolve:
    def test_converges_with_tight_tolerance(self, five_node_solution):
        assert five_node_solution.converged
        assert five_node_solution.residual.inf_norm <= 1e-10

    def test_symmetric_instance_symmetric_flows(self, five_node_solution):
        q12 = five_node_solution.traveler.q[(1, 2)]
        q21 = five_node_solution.traveler.q[(2, 1)]
        for mode in MODES:
            assert q12[mode] == pytest.approx(q21[mode], abs=1e-8)

    def test_bystander_stock_equals_signin(self, five_node_solution):
        assert five_node_solution.driver.Q[5] == pytest.approx(20.0, abs=1e-8)

    def test_price_decomposition_identities(self, five_node, five_node_solution):
        p = five_node_solution.prices
        for od in five_node.ods:
            rs = (od.r, od.s)
            assert p.eta_direct[rs] == p.rho_direct[rs] + p.lam[od.s]
            assert p.eta_hub[rs] == p.rho_hub[rs] + p.lam[od.hub]

    def test_hub_price_below_direct_price(self, five_node_solution):
        p = five_node_solution.prices
        for rs in p.rho_direct:
            assert p.rho_hub[rs] < p.rho_direct[rs]

    def test_flow_invariants(self, five_node, five_node_solution):
        for od in five_node.ods:
            row = five_node_solution.traveler.q[(od.r, od.s)]
            assert all(v > 0 for v in row.values())
            assert sum(row.values()) == pytest.approx(od.demand, rel=1e-12)
        drv = five_node_solution.driver
        for n in five_node.network.nodes:
            assert drv.Q[n] == pytest.approx(
                sum(drv.q[n].values()) + drv.q_H[n], rel=1e-12
            )

    def test_descent_history(self, five_node, monkeypatch):
        # each accepted iterate is the phi trial row whose driver flows the
        # next Newton step receives (the final one included, whose step is
        # the stopping test); phi never rises between them by more than its
        # rounding allowance (the inf-norm may)
        events = []

        def recorded_potential(cs, y):
            point = _potential(cs, y)
            events.append(("trial", point))
            return point

        def recorded_step(cs, P, E, Q, r):
            events.append(("step", E))
            return _newton_step(cs, P, E, Q, r)

        monkeypatch.setattr(equilibrium, "_potential", recorded_potential)
        monkeypatch.setattr(equilibrium, "_newton_step", recorded_step)
        y0 = np.random.default_rng(20240601).uniform(-10.0, 10.0, size=(5, 9))[1]
        for start in (None, y0):
            events.clear()
            sol = solve(five_node, y0=start)
            accepted, trials = [], []
            for kind, value in events:
                if kind == "trial":
                    phi, allowance, (_, _, E, _, _) = value
                    trials += zip(phi, allowance, E)
                    continue
                (E_step,) = value
                matches = [(phi, allowance) for phi, allowance, E in trials
                           if np.array_equal(E, E_step)]
                assert matches, "a Newton step at a point phi never evaluated"
                accepted.append(matches[-1])
                trials = []
            assert len(accepted) == len(sol.residual_history)
            for (phi, allowance), (phi_next, _) in zip(accepted, accepted[1:]):
                assert phi_next <= phi + allowance
        # the far start backtracks through ladder rounds of several trials
        assert max(len(value[0]) for kind, value in events if kind == "trial") > 1

    def test_potential_gradient_is_residual(self, five_node):
        # central differences of phi against the clearing residual
        rng = np.random.default_rng(5)
        for sc in (five_node, random_scenario(3)):
            cs = compile_scenario(sc)
            for y in (np.zeros(cs.dim), rng.uniform(-1.0, 1.0, cs.dim)):
                r = _residual_vector(cs, y)
                grad = np.empty(cs.dim)
                for j in range(cs.dim):
                    h = np.zeros(cs.dim)
                    h[j] = 1e-6
                    grad[j] = (_potential(cs, y + h)[0] - _potential(cs, y - h)[0]) / 2e-6
                assert np.abs(grad - r).max() <= 1e-5 * max(1.0, np.abs(r).max())

    def test_probe_starts_converge_on_corpus(self, five_node, sioux_scenarios):
        # every start of the criterion-5 probe converges and agrees with the
        # others to criterion 5's 1e-6, on the builtins and random_scenario
        # 0-99: the dual-accuracy stop pins the duals of thin markets too
        corpus = [five_node, *sioux_scenarios.values()]
        corpus += [random_scenario(seed) for seed in range(100)]
        failed = []
        for sc in corpus:
            try:
                deviation = uniqueness_probe(sc, k=5, seed=20240601)
            except NotConverged as exc:
                failed.append(f"{sc.name}: {exc}")
                continue
            if not deviation <= 1e-6:
                failed.append(f"{sc.name}: max dual deviation {deviation:.3e}")
        assert failed == []

    def test_random_starts_converge_on_corpus(self, five_node, sioux_scenarios, micros):
        # the convergence protocol: 10 starts uniform in [-10, 10] per
        # instance, from default_rng(seed) for random_scenario(seed) and
        # from default_rng(i) for the i-th builtin or micro instance; no
        # start may fail, so the claim covers the corpus, not only the
        # probe's starts
        corpus = list(enumerate([five_node, *sioux_scenarios.values(), *micros]))
        corpus += [(seed, random_scenario(seed)) for seed in range(100)]
        failed = []
        for seed, sc in corpus:
            cs = compile_scenario(sc)
            starts = np.random.default_rng(seed).uniform(-10.0, 10.0, (10, cs.dim))
            outcomes = _newton(cs, starts, TOL, MAX_ITER)
            failed += [f"{sc.name} start {i}: {outcome}" for i, outcome in enumerate(outcomes)
                       if isinstance(outcome, NotConverged)]
        assert failed == []

    def test_stops_on_dual_accuracy(self, sioux_scenarios):
        # at the returned duals the residual passes and the Newton step, the
        # first-order error of y, is below 1e-9 relative
        for sc in [*sioux_scenarios.values(), random_scenario(54), random_scenario(61)]:
            cs = compile_scenario(sc)
            sol = solve(sc)
            step, r = newton_step_at(cs, sol.y)
            assert np.abs(r).max() <= 1e-10, sc.name
            assert np.abs(step).max() <= 1e-9 * max(1.0, np.abs(sol.y).max()), sc.name

    def test_slope_overflow_is_a_typed_failure(self):
        # a far start on random_scenario(65) whose line-search slope r.d
        # overflows: a NotConverged with the best iterate, no RuntimeWarning
        sc = random_scenario(65)
        y0 = np.random.default_rng(65).uniform(-100.0, 100.0, size=(10, 6))[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged, match="line-search slope not finite") as err:
                solve(sc, y0=y0)
        history = err.value.residual_history
        assert len(history) >= 2
        assert np.all(np.isfinite(err.value.best_y))
        assert np.abs(residual(sc, err.value.best_y).vector).max() == min(history)

    def test_overflowing_start_is_not_converged(self, five_node):
        # the start is the best iterate, and no iteration is recorded
        y0 = np.full(compile_scenario(five_node).dim, EXP_BOUND)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged) as err:
                solve(five_node, y0=y0)
        assert str(err.value) == "initial dual vector overflows the driver flows"
        assert np.array_equal(err.value.best_y, y0)
        assert err.value.residual_history == []

    def test_not_converged_carries_diagnostics(self, five_node):
        with pytest.raises(NotConverged) as err:
            solve(five_node, max_iter=1)
        assert err.value.best_y.shape == (9,)
        assert len(err.value.residual_history) >= 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 199), st.one_of(st.just(2**7 - 1), st.integers(0, 2**7 - 1)))
    def test_zeroed_signins_are_refused_or_solved(self, seed, mask):
        # random_scenario(seed) with the sign-ins of a drawn subset of its
        # nodes (the bits of mask, in node order; half the draws take every
        # node) set to 0: a document that validation accepts has an
        # equilibrium, which the default start and the uniqueness probe's
        # starts reach, and one it refuses fails `solve` with
        # ValidationFailed, never with NotConverged
        sc = random_scenario(seed)
        nodes = sorted(sc.signin)
        sc = dataclasses.replace(sc, signin={
            n: 0.0 if mask >> k & 1 else sc.signin[n] for k, n in enumerate(nodes)
        })
        if violations(sc):
            with pytest.raises(ValidationFailed):
                solve(sc)
        else:
            _, deviation = solve_and_probe(sc)
            assert not isinstance(deviation, NotConverged)

    def test_validation_failure_raises(self, five_node):
        bad = with_param(five_node, "traveler_params.beta2", -1.0)
        with pytest.raises(ValidationFailed):
            solve(bad)

    @pytest.mark.parametrize("path, value, what, others", [
        ("traveler_params.beta1_drive", 1e308, "utilities", {}),
        ("traveler_params.beta1_ride", 1e308, "utilities", {}),
        ("traveler_params.beta1_multi", 1e308, "utilities", {}),
        ("traveler_params.beta1_wait", 1e308, "utilities", {}),
        ("traveler_params.beta2", 1e308, "utilities", {}),
        ("driver_params.beta1", 1e308, "driver exponents", {}),
        ("driver_params.beta3", 1e308, "solver weights", {}),
        ("traveler_params.beta2", 1e-320, "solver weights", {}),
        ("driver_params.beta3", 1e-320, "solver weights", {}),
        # two finite terms whose sum overflows: the larger is named
        ("traveler_params.beta0_drive", -1.7e308, "utilities",
         {"traveler_params.beta1_drive": 5e306}),
        ("signout_bonus.2", 1e308, "driver exponents", {"driver_params.beta3": 2.0}),
        # 1/beta3 is finite, but phi's stock term, 300 drivers over beta3, is not
        ("driver_params.beta3", 1e-307, "solver weights", {}),
    ])
    def test_overflowing_coefficient_is_a_validation_failure(
        self, five_node, path, value, what, others
    ):
        # finite coefficients that make a compiled utility, exponent or
        # solver weight infinite are named, before anything warns
        sc = five_node
        for other, other_value in others.items():
            sc = with_param(sc, other, other_value)
        if path == "signout_bonus.2":
            sc = dataclasses.replace(sc, signout_bonus={2: value})
        else:
            sc = with_param(sc, path, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationFailed) as err:
                solve(sc)
        assert err.value.violations == [f"/{path.replace('.', '/')}: {value} overflows the {what}"]

    def test_structured_step_matches_fd_jacobian(self, five_node, five_node_solution):
        # the structured step against a step on the forward-difference
        # Jacobian, at the solution and at moderate points
        cs = compile_scenario(five_node)
        rng = np.random.default_rng(11)
        points = [five_node_solution.y] + [rng.uniform(-2.0, 2.0, cs.dim) for _ in range(3)]
        for y in points:
            step, r = newton_step_at(cs, y)
            fd = np.linalg.solve(jacobian_fd(cs, y), -r)
            assert np.abs(step - fd).max() <= 1e-5 * np.abs(fd).max()

    @pytest.mark.parametrize("tol, max_iter, message", [
        (math.nan, MAX_ITER, "tol must be a non-negative number, got nan"),
        (-1.0, MAX_ITER, "tol must be a non-negative number, got -1.0"),
        (TOL, -3, "max_iter must be >= 0, got -3"),
    ], ids=["tol-nan", "tol-negative", "max-iter-negative"])
    def test_unmeetable_stopping_rule_is_a_value_error(
        self, five_node, monkeypatch, tol, max_iter, message
    ):
        # raised before any cell is compiled or any Newton pass runs
        def unreachable(*args):
            raise AssertionError("reached")

        monkeypatch.setattr(equilibrium, "_compiled", unreachable)
        monkeypatch.setattr(equilibrium, "_newton", unreachable)
        with pytest.raises(ValueError) as err:
            solve(five_node, tol=tol, max_iter=max_iter)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            solve_sweep(five_node, "traveler_params.beta2", [1.0], tol, max_iter)
        assert str(err.value) == message

    def test_zero_iterations_evaluate_the_start(self, five_node):
        with pytest.raises(NotConverged, match="within 0 iterations") as err:
            solve(five_node, max_iter=0, y0=np.zeros(9))
        assert len(err.value.residual_history) == 1
        assert np.array_equal(err.value.best_y, np.zeros(9))

    def test_far_start_residual_overflow_is_not_a_warning(self, five_node, five_node_solution):
        # start 1 of acceptance criterion 5 on this builtin: line-search
        # trials reach driver flows whose exponents overflow; they are
        # rejected without a RuntimeWarning
        y0 = np.random.default_rng(20240601).uniform(-10.0, 10.0, size=(5, 9))[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(five_node, y0=y0)
        assert np.abs(sol.y - five_node_solution.y).max() <= 1e-8

    def test_custom_start(self, five_node, five_node_solution):
        y0 = np.full(9, 4.0)
        sol = solve(five_node, y0=y0)
        assert np.abs(sol.y - five_node_solution.y).max() <= 1e-8

    def test_deterministic(self, five_node, five_node_solution):
        again = solve(five_node)
        assert np.array_equal(again.y, five_node_solution.y)

    def test_sioux_converges(self, sioux_solutions):
        for k, sol in sioux_solutions.items():
            assert sol.converged
            assert sol.residual.inf_norm <= 1e-10


def probe_corpus(five_node, sioux_scenarios):
    """(scenario, criterion-5 starts) for the builtins and random_scenario 0-99."""
    corpus = [five_node, *sioux_scenarios.values()]
    corpus += [random_scenario(seed) for seed in range(100)]
    for sc in corpus:
        dim = compile_scenario(sc).dim
        yield sc, np.random.default_rng(20240601).uniform(-10.0, 10.0, size=(5, dim))


def solve_alone(sc, start, **kwargs):
    """What `solve` gives from this start alone: its solution or the
    exception it raises."""
    try:
        return solve(sc, y0=start, **kwargs)
    except NotConverged as exc:
        return exc


def first_failure_one_by_one(sc, starts, **kwargs):
    """The exception of the first start, in index order, that `solve` cannot
    solve alone; None when all converge."""
    for start in starts:
        alone = solve_alone(sc, start, **kwargs)
        if isinstance(alone, Exception):
            return alone
    return None


def halving_only(cs, y0, tol=TOL, max_iter=MAX_ITER):
    """(history, y) of damped Newton from y0 whose line search never
    climbs: the first t = 1, 1/2, ... that passes Armijo, with the
    arithmetic `_newton` does on a one-row stack. For a start that
    converges without a failure."""
    y = y0[None]
    history = []
    with np.errstate(all="ignore"):
        phi, allowance, (q, P, E, _, Q) = _potential(cs, y)
        while True:
            r = _residual_of_flows(cs, q, E, Q)
            history.append(float(np.abs(r).max()))
            step = _newton_step(cs, P, E, Q, r[..., None])[..., 0]
            if history[-1] <= tol and np.abs(step).max() <= 1e-9 * max(1.0, np.abs(y).max()):
                return history, y[0]
            assert len(history) <= max_iter
            slope = 1e-4 * np.vecdot(r, step)
            t = 1.0
            while True:
                trial = y + t * step
                phi_t, allowance_t, (q, P, E, _, Q) = _potential(cs, trial)
                if phi_t <= phi + t * slope + allowance:
                    break
                t /= 2
            y, phi, allowance = trial, phi_t, allowance_t


def stalling_start():
    """A far start of random_scenario(5) whose line search stalls."""
    return np.random.default_rng(5).uniform(-100.0, 100.0, (10, 12))[2]


def arrays(sol):
    """A solution's residual and flow arrays."""
    return (sol.residual.vector, sol.traveler.matrix, sol.driver.E, sol.driver.E_H,
            sol.driver.stock)


def assert_same_outcome(stacked, alone):
    """Two outcomes of a solve are the same bit for bit: a solution's y,
    history, flows and residual, or a failure's type, message, best iterate
    and history."""
    assert type(stacked) is type(alone)
    assert stacked.residual_history == alone.residual_history
    if isinstance(alone, Exception):
        assert str(stacked) == str(alone)
        assert np.array_equal(stacked.best_y, alone.best_y)
    else:
        assert np.array_equal(stacked.y, alone.y)
        assert all(map(np.array_equal, arrays(stacked), arrays(alone)))


def assert_rows_match_one_by_one(sc, starts, tol=TOL, max_iter=MAX_ITER):
    """Every row of a `_newton` stack returns what `solve` gives from its
    start alone, bit for bit, and carries the one wall time of the stack, a
    failure with a best iterate that owns its data; returns the stack's
    outcomes."""
    outcomes = _newton(compile_scenario(sc), starts, tol, max_iter)
    for outcome, start in zip(outcomes, starts, strict=True):
        assert_same_outcome(outcome, solve_alone(sc, start, tol=tol, max_iter=max_iter))
        if isinstance(outcome, NotConverged):
            assert outcome.best_y.base is None
    assert len({outcome.wall_time for outcome in outcomes}) == 1
    assert outcomes[0].wall_time > 0
    return outcomes


class TestStart:
    """`_start`, the default start: one closed-form balancing sweep."""

    def test_each_half_balances_its_conditions(self, five_node, sioux_scenarios):
        # rho alone (lambda = 0) lets each driver column's supply meet its
        # demand at zero prices times e^(-beta2 rho) where rho > 0; with
        # lambda, each node's stock meets the drop-offs at traveler prices
        # eta = rho plus its sign-ins. 5node at beta0_r_default = -100 has
        # every rho > 0, the others rho of both signs
        far_below = with_param(five_node, "driver_params.beta0_r_default", -100.0)
        for sc in (five_node, far_below, *sioux_scenarios.values(), random_scenario(3)):
            cs = compile_scenario(sc)
            y = _start(cs)
            rho_only = np.concatenate([y[: 2 * cs.m], np.zeros(cs.n_nodes)])
            served = _flows_at(cs, np.zeros(cs.dim))[0][:, 1:].T.ravel()
            served *= np.exp(-cs.beta2 * np.maximum(y[: 2 * cs.m], 0.0))
            q, _, _, E, _, _ = _flows_at(cs, rho_only)
            assert np.allclose(E.sum(axis=0), served, rtol=1e-12, atol=0), sc.name
            arrivals = np.bincount(cs.drop_idx, q[:, 1:].T.ravel(), minlength=cs.n_nodes)
            Q = _flows_at(cs, y)[5]
            assert np.allclose(Q, arrivals + cs.dQ, rtol=1e-12, atol=0), sc.name

    def test_sweep_cells_get_their_solo_starts(self, sioux_scenarios):
        for p in ("driver_params.beta3", "traveler_params.beta2", "driver_params.beta1"):
            cells = [compile_scenario(with_param(sioux_scenarios[3], p, v))
                     for v in (0.25, 0.5, 1.0, 2.0, 4.0)]
            stacked = _start(stack_cells(cells))
            for row, cell in zip(stacked, cells, strict=True):
                assert np.array_equal(row, _start(cell)), p

    def test_far_above_5node_converges_from_the_default_start(self, five_node):
        # 5node with beta0_r_default far above 0. From zero, 130, 170, 210
        # and 250 fail with a non-finite Newton step and 800 overflows the
        # driver flows; the default start converges at every value, to the
        # duals the zero start reaches where it converges too
        zero_fails = {v: "Newton step failed" for v in (130, 170, 210, 250)}
        zero_fails[800] = "initial dual vector overflows the driver flows"
        for v in [*range(50, 301, 10), 400, *range(680, 696), 800]:
            sc = with_param(five_node, "driver_params.beta0_r_default", float(v))
            sol = solve(sc)
            try:
                zero = solve(sc, y0=np.zeros(9))
            except NotConverged as exc:
                assert str(exc).startswith(zero_fails[v]), v
            else:
                assert v not in zero_fails
                assert np.abs(sol.y - zero.y).max() <= 2e-9 * max(1.0, np.abs(zero.y).max()), v

    def test_far_below_5node_converges_from_the_default_start(self, five_node):
        # 5node with beta0_r_default far below 0: drivers are scarce, and the
        # zero start converges in 7 to 137 iterations. A rho that balanced
        # supply against the zero-price demand alone would set prices so
        # high that both flows of each market underflow, and stall there at
        # -500 and below; the default start converges in at most 5
        for v in (-50, -100, -200, -400, -500, -600, -700, -750):
            sc = with_param(five_node, "driver_params.beta0_r_default", float(v))
            sol, zero = solve(sc), solve(sc, y0=np.zeros(9))
            assert sol.iterations <= 5, v
            assert np.abs(sol.y - zero.y).max() <= 2e-9 * max(1.0, np.abs(zero.y).max()), v

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 199), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @example(13, 0.0, 2.0, 0.0)
    @example(86, -3.0, 2.0, -2.0)
    def test_finite_and_below_the_exponent_bound(self, seed, u, v2, v3):
        # random_scenario(seed) with every OD demand x 10^u, beta2 x 10^v2
        # and beta3 x 10^v3: a document that validation accepts gets a
        # finite start at which no driver exponent passes EXP_BOUND, also
        # where a share at zero prices underflows to 0, as in the two
        # examples
        sc = random_scenario(seed)
        tp, dp = sc.traveler_params, sc.driver_params
        sc = dataclasses.replace(
            sc,
            ods=tuple(dataclasses.replace(od, demand=od.demand * 10**u) for od in sc.ods),
            traveler_params=dataclasses.replace(tp, beta2=tp.beta2 * 10**v2),
            driver_params=dataclasses.replace(dp, beta3=dp.beta3 * 10**v3),
        )
        if violations(sc):
            return
        cs = compile_scenario(sc)
        y = _start(cs)
        assert np.isfinite(y).all()
        rho, lam = cs.rho_lam(y)
        assert (cs.A + cs.beta3 * (rho[None, :] + lam[:, None])).max() <= EXP_BOUND
        assert (cs.a_H + cs.beta3 * lam).max() <= EXP_BOUND


class TestStackedNewton:
    """`_newton` on a stack of starts against `solve` on each start alone."""

    def test_rows_bit_identical_to_solo_solves(self, five_node, sioux_scenarios):
        for sc, starts in probe_corpus(five_node, sioux_scenarios):
            outcomes = _newton(compile_scenario(sc), starts, TOL, MAX_ITER)
            for outcome, start in zip(outcomes, starts, strict=True):
                assert_same_outcome(outcome, solve(sc, y0=start))

    def test_evaluations_per_run(self, five_node, sioux_scenarios, monkeypatch):
        # the stack size of every phi and Newton-step evaluation: no empty
        # stack, step stacks that shrink only as rows finish, no phi stack
        # beyond LADDER_ENTRIES unless it holds one trial per live row, and
        # corpus totals pinned, so a rewrite of the line search that adds,
        # drops or resizes an evaluation fails here
        calls = []

        def counted(name, fn):
            def evaluate(cs, *arrays):
                calls.append((name, len(arrays[-1])))
                return fn(cs, *arrays)
            return evaluate

        monkeypatch.setattr(equilibrium, "_potential", counted("phi", _potential))
        monkeypatch.setattr(equilibrium, "_newton_step", counted("step", _newton_step))
        totals = np.zeros(4, dtype=int)
        for sc, starts in probe_corpus(five_node, sioux_scenarios):
            calls.clear()
            cs = compile_scenario(sc)
            histories = [o.residual_history for o in _newton(cs, starts, TOL, MAX_ITER)]
            sizes = {name: [n for kind, n in calls if kind == name] for name in ("phi", "step")}
            passes = range(max(map(len, histories)))
            assert sizes["step"] == [sum(len(h) > j for h in histories) for j in passes]
            assert min(sizes["phi"]) > 0, sc.name
            live, point = len(starts), cs.n_nodes * (2 * cs.m + 1)
            for kind, size in calls:
                if kind == "step":
                    live = size
                else:
                    assert size * point <= equilibrium.LADDER_ENTRIES or size <= live, sc.name
            totals += [len(sizes["phi"]), sum(sizes["phi"]), len(sizes["step"]), sum(sizes["step"])]
        assert totals.tolist() == [2020, 65707, 1775, 7961]

    def test_iteration_cap_failure_matches_one_by_one(self, five_node, sioux_scenarios):
        # a cap between the fastest and the slowest start: some rows
        # converge, the others fail, each as it does alone
        for sc, starts in probe_corpus(five_node, sioux_scenarios):
            cs = compile_scenario(sc)
            counts = sorted(o.iterations for o in _newton(cs, starts, TOL, MAX_ITER))
            if counts[0] == counts[-1]:
                continue
            max_iter = counts[2] - 1 if counts[2] > counts[0] else counts[0]
            outcomes = assert_rows_match_one_by_one(sc, starts, max_iter=max_iter)
            failed = [isinstance(outcome, NotConverged) for outcome in outcomes]
            assert any(failed) and not all(failed), sc.name

    def test_mixed_failures_match_one_by_one(self):
        # converging starts around a slope overflow (random_scenario(65),
        # [-100, 100]), a singular Schur complement (random_scenario(18),
        # [-30, 30]), a stalled line search (random_scenario(5),
        # [-100, 100]) and a start whose driver flows overflow at once
        cases = [
            (random_scenario(65), np.random.default_rng(65).uniform(-100.0, 100.0, (10, 6))[3],
             "line-search slope not finite"),
            (random_scenario(18), np.random.default_rng(7).uniform(-30.0, 30.0, (10, 11))[6],
             "Newton step failed"),
            (random_scenario(5), stalling_start(), "line search stalled"),
        ]
        for sc, bad, why in cases:
            assert why in str(first_failure_one_by_one(sc, [bad]))
            cs = compile_scenario(sc)
            good = np.random.default_rng(20240601).uniform(-10.0, 10.0, size=(3, cs.dim))
            overflow = np.full(cs.dim, EXP_BOUND)
            for starts in (
                np.stack([good[0], bad, good[1], good[2]]),
                np.stack([good[0], good[1], overflow, bad]),
                np.stack([bad, overflow, good[0]]),
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    outcomes = assert_rows_match_one_by_one(sc, starts)
                assert sum(isinstance(outcome, Exception) for outcome in outcomes) >= 1

    def test_middle_row_failure_leaves_the_other_rows(self):
        # the stalled start between two converging ones: both keep their
        # own results, and the failure stays in its row
        sc = random_scenario(5)
        good = np.random.default_rng(20240601).uniform(-10.0, 10.0, size=(2, 12))
        outcomes = assert_rows_match_one_by_one(sc, np.stack([good[0], stalling_start(), good[1]]))
        assert isinstance(outcomes[1], NotConverged)
        assert "line search stalled" in str(outcomes[1])
        assert not isinstance(outcomes[0], Exception) and not isinstance(outcomes[2], Exception)

    def test_uniqueness_probe_raises_the_lowest_index_failure(self, monkeypatch):
        # two failing starts of different kinds among converging ones: the
        # probe raises the failure of the lower-index one, as solving the
        # starts one by one in index order would
        sc = random_scenario(5)
        stall = stalling_start()
        good = np.random.default_rng(20240601).uniform(-10.0, 10.0, size=(2, 12))
        overflow = np.full(12, EXP_BOUND)
        newton = equilibrium._newton
        for starts in (np.stack([good[0], stall, good[1], overflow]),
                       np.stack([good[0], overflow, stall, good[1]])):
            alone = first_failure_one_by_one(sc, starts)
            with monkeypatch.context() as patch:
                patch.setattr(
                    equilibrium, "_newton", lambda cs, _, *args: newton(cs, starts, *args)
                )
                with pytest.raises(NotConverged) as err:
                    uniqueness_probe(sc, k=len(starts))
            assert_same_outcome(err.value, alone)

    def test_singular_schur_complement_is_attributed_to_its_row(self, monkeypatch):
        # the singular row makes the stacked linear solve fail for the whole
        # stack; the other rows go on exactly as they do alone
        sc = random_scenario(18)
        cs = compile_scenario(sc)
        bad = np.random.default_rng(7).uniform(-30.0, 30.0, (10, cs.dim))[6]
        good = np.random.default_rng(20240601).uniform(-10.0, 10.0, size=(2, cs.dim))
        solves = []
        linalg_solve = np.linalg.solve

        def recorded(a, b):
            try:
                return linalg_solve(a, b)
            except np.linalg.LinAlgError:
                solves.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", recorded)
        starts = np.stack([good[0], bad, good[1]])
        assert "Newton step failed" in str(first_failure_one_by_one(sc, starts))
        solves.clear()
        outcomes = assert_rows_match_one_by_one(sc, starts)
        assert (3, cs.n_nodes, cs.n_nodes) in solves
        assert [isinstance(outcome, NotConverged) for outcome in outcomes] == [False, True, False]


class TestLadder:
    """The backtracking ladder against one halving per round."""

    def test_same_outcomes_as_one_trial_per_round(
        self, five_node, sioux_scenarios, micros, monkeypatch
    ):
        # LADDER_ENTRIES = 0 leaves one trial per searching row and round,
        # the plain halving line search, and 10**9 holds every trial a row
        # wants in each round; the ladder must accept the same t everywhere:
        # every row's solution or failure bit for bit, on far starts that
        # fail in every way a row can fail. Every failure's best iterate has
        # the lowest inf-norm of its history, on the row's own scenario or
        # sweep cell
        runs = []
        for sc in [five_node, *sioux_scenarios.values(), *micros,
                   *map(random_scenario, range(30))]:
            cs = compile_scenario(sc)
            rng = np.random.default_rng(3)
            starts = np.vstack([np.zeros(cs.dim), rng.uniform(-10.0, 10.0, (5, cs.dim)),
                                rng.uniform(-30.0, 30.0, (5, cs.dim))])
            runs.append((cs, starts, ()))
        for seed, row in ((5, 2), (65, 3), (3, 2)):  # a stall, a slope overflow, a cap
            cs = compile_scenario(random_scenario(seed))
            far = np.random.default_rng(seed).uniform(-100.0, 100.0, (10, cs.dim))
            runs.append((cs, far[row - 1 : row + 1], ()))
        sweep = [compile_scenario(with_param(sioux_scenarios[2], "driver_params.beta3", v))
                 for v in (0.25, 0.5, 1.0, 2.0, 4.0)]
        stack = stack_cells(sweep)
        runs.append((stack, np.zeros((len(sweep), stack.dim)), sweep))
        runs.append((stack, np.random.default_rng(3).uniform(-10.0, 10.0, (5, stack.dim)), sweep))
        kinds = set()
        for cs, starts, cells in runs:
            outcomes = _newton(cs, starts, TOL, MAX_ITER, cells)
            own = cells or [cs] * len(starts)  # each row's cell
            for entries in (0, 10**9):
                with monkeypatch.context() as patch:
                    patch.setattr(equilibrium, "LADDER_ENTRIES", entries)
                    outcomes_1 = _newton(cs, starts, TOL, MAX_ITER, cells)
                for outcome, outcome_1, cell in zip(outcomes, outcomes_1, own, strict=True):
                    assert_same_outcome(outcome, outcome_1)
                    if isinstance(outcome_1, Exception):
                        kinds.add(str(outcome_1).split(" at ")[0].split(" to ")[0])
                        if outcome_1.residual_history:
                            r = _residual_vector(cell, outcome_1.best_y)
                            assert np.abs(r).max() == min(outcome_1.residual_history)
        assert kinds == {
            "Newton step failed", "no convergence", "line search stalled",
            "line-search slope not finite",
        }

    def test_deep_backtrack_takes_one_round(self, monkeypatch):
        # a far probe start whose first step needs many halvings: its first
        # round already reaches the t that passes, so the pass evaluates phi
        # for the t = 1 trial and one round, and the row ends as it does
        # with one halving per round
        cs, starts = _probe_starts(random_scenario(3), 5, 0)
        calls = []

        def counted(name, fn):
            def evaluate(*args):
                calls.append(name)
                return fn(*args)
            return evaluate

        monkeypatch.setattr(equilibrium, "_potential", counted("phi", _potential))
        monkeypatch.setattr(equilibrium, "_newton_step", counted("step", _newton_step))

        def first_pass(entries):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(equilibrium, "LADDER_ENTRIES", entries)
                (outcome,) = _newton(cs, starts[1:2], TOL, MAX_ITER)
            return outcome, calls.index("step", 2) - calls.index("step") - 1

        outcome, evaluations = first_pass(equilibrium.LADDER_ENTRIES)
        outcome_1, evaluations_1 = first_pass(0)
        assert evaluations_1 >= 5  # the t = 1 trial and 4 or more halvings
        assert evaluations <= 2
        assert_same_outcome(outcome, outcome_1)

    def test_climbing_and_backtracking_rows_share_a_round(self, monkeypatch):
        # the probe stack of random_scenario(3) with the zero start: on the
        # first pass two rows climb and the others backtrack past the
        # halvings held with their full steps; the phi evaluation that
        # follows the full-step one holds the doublings of the first and
        # halvings of the others, and every row ends as it does alone
        sc = random_scenario(3)
        cs, starts = _probe_starts(sc, 5, 0)
        starts = np.vstack([np.zeros(cs.dim), starts])
        calls = []

        def recorded(name, fn):
            # the trial points of a phi evaluation, the steps of a Newton step
            def evaluate(cs, *arrays):
                out = fn(cs, *arrays)
                calls.append((name, arrays[-1].copy() if name == "phi" else out[..., 0]))
                return out
            return evaluate

        with monkeypatch.context() as patch:
            patch.setattr(equilibrium, "_potential", recorded("phi", _potential))
            patch.setattr(equilibrium, "_newton_step", recorded("step", _newton_step))
            _newton(cs, starts, TOL, MAX_ITER)
        (_, steps), *first_pass = calls[1 : [name for name, _ in calls].index("step", 2)]
        assert len(first_pass) >= 2 and {name for name, _ in first_pass} == {"phi"}
        lengths = {}  # the step lengths t of each row's trials y + t d
        for trial in first_pass[1][1]:
            for i, (y, d) in enumerate(zip(starts, steps)):
                j = np.abs(d).argmax()
                t = (trial[j] - y[j]) / d[j]
                if np.allclose(trial, y + t * d, rtol=0.0, atol=1e-9 * np.abs(y).max()):
                    lengths.setdefault(i, []).append(round(t, 12))
        climbing = {i for i, ts in lengths.items() if min(ts) > 1}
        backtracking = {i for i, ts in lengths.items() if max(ts) < 1}
        assert climbing and backtracking and climbing | backtracking == set(lengths)
        assert all(lengths[i] == [2.0, 4.0, 8.0] for i in climbing)
        assert_rows_match_one_by_one(sc, starts)

    def test_far_start_climbs(self, sioux_scenarios):
        # a far probe start of random_scenario(3): from above, a full Newton
        # step lowers the driver exponents by only about one unit, and phi
        # falls by more than 1.2 times the decrease the quadratic model
        # predicts, so the row goes on to t = 2, 4, 8. It converges in 20
        # passes to the duals that halving alone (the line search before
        # climbing) reaches in 49
        sc = random_scenario(3)
        cs, starts = _probe_starts(sc, 5, 0)
        sol = solve(sc, y0=starts[1])
        history, y = halving_only(cs, starts[1])
        assert (len(history) - 1, sol.iterations) == (49, 20)
        assert np.abs(sol.y - y).max() <= 1e-9
        # a sweep stack from far starts climbs too
        cells = [compile_scenario(with_param(sioux_scenarios[2], "driver_params.beta3", v))
                 for v in (0.25, 0.5, 1.0, 2.0, 4.0)]
        starts = np.random.default_rng(3).uniform(-10.0, 10.0, (5, cells[0].dim))
        outcomes = _newton(stack_cells(cells), starts, TOL, MAX_ITER, cells)
        assert sum(outcome.iterations < len(halving_only(cell, start)[0]) - 1
                   for outcome, cell, start in zip(outcomes, cells, starts)) >= 3

    def test_far_above_5node_still_converges(self, five_node):
        # every beta0_r of 5node at 50 ... 120 puts the zero start far above
        # the solution, and halving alone converges in 52 to 122 passes.
        # The climb keeps every one and reaches the same duals: its long
        # steps (beta3 |d|_inf >= 2) never double, which would carry the
        # iterate along the rho + lambda valley of phi to |y| ~ 1e7, where
        # the Newton step stops being a descent direction
        for v in range(50, 121, 10):
            sc = with_param(five_node, "driver_params.beta0_r_default", float(v))
            sol = solve(sc, y0=np.zeros(9))
            history, y = halving_only(compile_scenario(sc), np.zeros(sol.y.size))
            assert 52 <= len(history) - 1 <= 122 and sol.iterations <= 24, v
            assert np.abs(sol.y - y).max() <= 1e-9 * max(1.0, np.abs(y).max()), v

    def test_start_near_the_solution_never_climbs(self, five_node, sioux_scenarios):
        # within 1e-6 of the solution the quadratic model is accurate, so no
        # full step beats its prediction by 1.2 times: the row steps as
        # halving alone does, bit for bit
        for sc in (five_node, sioux_scenarios[3], random_scenario(3)):
            cs = compile_scenario(sc)
            start = solve(sc).y + np.random.default_rng(1).uniform(-1e-6, 1e-6, cs.dim)
            sol = solve(sc, y0=start)
            history, y = halving_only(cs, start)
            assert sol.residual_history == tuple(history), sc.name
            assert np.array_equal(sol.y, y), sc.name

    def test_ladder_steps_are_the_halvings(self):
        # the ladder's t = 2^-j are the values halving from 1 takes, down to
        # the 0 at which every line search has stalled
        t, halvings = 1.0, [1.0]
        while t:
            t *= 0.5
            halvings.append(t)
        assert np.array_equal(equilibrium._HALVINGS, halvings)


class TestSolutionArrays:
    def test_views_match_arrays_on_corpus(self, solved_corpus):
        for sc, sol in solved_corpus.values():
            cs = compile_scenario(sc)
            m = cs.m
            p, t, d, res = sol.prices, sol.traveler, sol.driver, sol.residual
            y, r = p.y, res.vector
            # views are keyed in od / node order and hold Python floats
            assert list(p.eta_hub) == list(t.q) == list(sc.rs_pairs), sc.name
            assert list(d.Q) == list(res.r_lambda) == list(sc.network.nodes), sc.name
            assert all(type(v) is float for v in p.eta_direct.values()), sc.name
            for i, rs in enumerate(sc.rs_pairs):
                lam_s, lam_h = y[2 * m + cs.s_idx[i]], y[2 * m + cs.h_idx[i]]
                assert p.rho_direct[rs] == y[i], sc.name
                assert p.rho_hub[rs] == y[m + i], sc.name
                assert p.eta_direct[rs] == y[i] + lam_s, sc.name
                assert p.eta_hub[rs] == y[m + i] + lam_h, sc.name
                assert res.r_rho_direct[rs] == r[i], sc.name
                assert res.r_rho_hub[rs] == r[m + i], sc.name
                for j, mode in enumerate(MODES):
                    assert t.q[rs][mode] == t.matrix[i, j], sc.name
            for k, n in enumerate(cs.node_ids):
                assert p.lam[n] == y[2 * m + k], sc.name
                assert res.r_lambda[n] == r[2 * m + k], sc.name
                assert d.q_H[n] == d.E_H[k], sc.name
                assert d.Q[n] == d.stock[k], sc.name
                for c, pair in enumerate(cs.column_pairs):
                    assert d.q[n][pair] == d.E[k, c], sc.name
            assert res.inf_norm == np.abs(r).max(), sc.name
            # the stored flows are the closed forms at the stored prices
            replay_t = traveler_flows(sc, p)
            replay_d = driver_flows_dual(sc, p)
            assert np.array_equal(t.matrix, replay_t.matrix), sc.name
            assert np.array_equal(d.E, replay_d.E), sc.name
            assert np.array_equal(d.E_H, replay_d.E_H), sc.name
            assert np.array_equal(d.stock, replay_d.stock), sc.name
            assert np.array_equal(r, residual(sc, y).vector), sc.name


class TestUniquenessProbe:
    def test_5node_unique(self, five_node):
        assert uniqueness_probe(five_node, k=5, seed=42) <= 1e-6

    def test_deterministic(self, five_node):
        a = uniqueness_probe(five_node, k=2, seed=9)
        b = uniqueness_probe(five_node, k=2, seed=9)
        assert a == b

    def test_same_start_solves_bit_identical(self, five_node):
        y0 = np.full(9, 2.0)
        assert np.array_equal(solve(five_node, y0=y0).y, solve(five_node, y0=y0).y)

    def test_requires_two_starts(self, five_node):
        with pytest.raises(ValueError):
            uniqueness_probe(five_node, k=1)


class TestSolveAndProbe:
    """`solve_and_probe` against `solve` and `uniqueness_probe` run apart."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_solve_and_probe_run_apart(self, five_node, sioux_scenarios, seed):
        corpus = [five_node, *sioux_scenarios.values()]
        corpus += [random_scenario(i) for i in range(30)]
        for sc in corpus:
            sol, deviation = solve_and_probe(sc, 5, seed)
            assert_same_outcome(sol, solve(sc))
            try:
                expected = uniqueness_probe(sc, 5, seed)
            except NotConverged as exc:
                assert_same_outcome(deviation, exc)
            else:
                assert deviation == expected, sc.name

    def test_probe_failure_is_returned(self, five_node):
        # beta3 = 80: every probe start overflows, the default start converges
        sc = with_param(five_node, "driver_params.beta3", 80.0)
        sol, deviation = solve_and_probe(sc)
        assert np.array_equal(sol.y, solve(sc).y)
        with pytest.raises(NotConverged) as err:
            uniqueness_probe(sc)
        assert_same_outcome(deviation, err.value)

    def test_zero_start_failure_is_raised(self, five_node):
        # a sign-in of 1e305 overflows the driver flows at every start,
        # row 0's default start included: its stock passes e^EXP_BOUND
        sc = dataclasses.replace(five_node, signin={**five_node.signin, 1: 1e305})
        with pytest.raises(NotConverged) as alone:
            solve(sc)
        with pytest.raises(NotConverged) as err:
            solve_and_probe(sc)
        assert_same_outcome(err.value, alone.value)

    def test_requires_two_starts(self, five_node):
        with pytest.raises(ValueError):
            solve_and_probe(five_node, k=1)


class TestObjectiveValue:
    def test_traveler_entropy_frozen_value(self):
        # one OD, demand 1, all utilities 0: value at the uniform split is
        # -(1 + ln 3), from direct arithmetic
        sc = zero_everything_scenario()
        sc = dataclasses.replace(
            sc,
            ods=(dataclasses.replace(sc.ods[0], demand=1.0),),
            traveler_params=TravelerParams(beta0_drive=0.0, beta0_ride=0.0, beta0_multi=0.0),
        )
        prices = PriceSystem.zero(sc)
        flows = traveler_flows(sc, prices)
        value = objective_value("traveler", sc, traveler=flows, prices=prices)
        assert value == pytest.approx(-(1.0 + math.log(3.0)), rel=1e-14)

    def test_combined_minimal_at_solution(self, five_node, five_node_solution):
        sol = five_node_solution
        cs = compile_scenario(five_node)
        base = objective_value(
            "combined", five_node, traveler=sol.traveler, driver=sol.driver
        )
        rng = np.random.default_rng(5)
        for _ in range(10):
            # random feasible reshuffle of traveler mass, mirrored onto the
            # driver flows arriving at the matching drop-off nodes (driver
            # column i is the direct leg of od i)
            q = sol.traveler.matrix.copy()
            E = sol.driver.E.copy()
            stock = sol.driver.stock.copy()
            for i in range(cs.m):
                delta = rng.uniform(-0.5, 0.5)
                q[i, MODES.index("drive")] += delta
                q[i, MODES.index("ride")] -= delta
                E[cs.s_idx[i], i] -= delta
                stock[cs.s_idx[i]] -= delta
            perturbed_traveler = dataclasses.replace(sol.traveler, matrix=q)
            perturbed_driver = dataclasses.replace(sol.driver, E=E, stock=stock)
            value = objective_value(
                "combined", five_node, traveler=perturbed_traveler, driver=perturbed_driver
            )
            assert value >= base

    def test_scaling_flows_by_one_is_identity(self, five_node, five_node_solution):
        sol = five_node_solution
        a = objective_value("combined", five_node, traveler=sol.traveler, driver=sol.driver)
        b = objective_value("combined", five_node, traveler=sol.traveler, driver=sol.driver)
        assert a == b

    def test_driver_objective_stationary_at_solution(self, five_node):
        # the driver objective, entropy terms over beta3 less lambda times
        # the stock balance, is stationary at the solved flows for any
        # beta3: along a random relative move of E and E_H (stocks
        # following) its central difference vanishes
        for sc in (with_param(five_node, "driver_params.beta3", 2.0), random_scenario(3),
                   five_node):
            sol = solve(sc)
            rng = np.random.default_rng(0)
            u = rng.uniform(-1.0, 1.0, sol.driver.E.shape)
            u_H = rng.uniform(-1.0, 1.0, sol.driver.E_H.shape)

            def value(eps):
                E, E_H = sol.driver.E * (1.0 + eps * u), sol.driver.E_H * (1.0 + eps * u_H)
                moved = dataclasses.replace(sol.driver, E=E, E_H=E_H, stock=E.sum(axis=1) + E_H)
                return objective_value("driver", sc, driver=moved, prices=sol.prices)

            eps = 1e-6
            assert abs(value(eps) - value(-eps)) / (2 * eps) < 1e-5, sc.name

    def test_driver_objective_needs_prices(self, five_node, five_node_solution):
        with pytest.raises(ValueError):
            objective_value("driver", five_node, driver=five_node_solution.driver)

    def test_nonpositive_flow_rejected(self, five_node, five_node_solution):
        sol = five_node_solution
        q = sol.traveler.matrix.copy()
        q[five_node.rs_pairs.index((1, 2)), MODES.index("drive")] = 0.0
        broken = dataclasses.replace(sol.traveler, matrix=q)
        with pytest.raises(NonPositiveFlow):
            objective_value("combined", five_node, traveler=broken, driver=sol.driver)

    def test_unknown_model(self, five_node, five_node_solution):
        with pytest.raises(ValueError):
            objective_value("bilevel", five_node, traveler=five_node_solution.traveler)


class TestAutomorphismEquivariance:
    """Relabeling 1<->2, 3<->4 maps the 5-node solution onto itself."""

    SWAP = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5}

    def test_prices(self, five_node_solution):
        p = five_node_solution.prices
        s = self.SWAP
        assert p.rho_direct[(1, 2)] == pytest.approx(p.rho_direct[(2, 1)], abs=1e-8)
        assert p.rho_hub[(1, 2)] == pytest.approx(p.rho_hub[(2, 1)], abs=1e-8)
        assert p.eta_direct[(1, 2)] == pytest.approx(p.eta_direct[(2, 1)], abs=1e-8)
        assert p.eta_hub[(1, 2)] == pytest.approx(p.eta_hub[(2, 1)], abs=1e-8)
        for n, lam in p.lam.items():
            assert lam == pytest.approx(p.lam[s[n]], abs=1e-8)

    def test_driver_flows_and_stocks(self, five_node, five_node_solution):
        s = self.SWAP
        drv = five_node_solution.driver
        for n in five_node.network.nodes:
            assert drv.Q[n] == pytest.approx(drv.Q[s[n]], abs=1e-8)
            assert drv.q_H[n] == pytest.approx(drv.q_H[s[n]], abs=1e-8)
            for r, sp in five_node.driver_pairs:
                assert drv.q[n][(r, sp)] == pytest.approx(
                    drv.q[s[n]][(s[r], s[sp])], abs=1e-8
                )


class TestLemmaReplays:
    def test_traveler_flows_replay(self, five_node, five_node_solution):
        sol = five_node_solution
        replay = traveler_flows(five_node, sol.prices)
        for rs in five_node.rs_pairs:
            for mode in MODES:
                a, b = replay.q[rs][mode], sol.traveler.q[rs][mode]
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    def test_driver_flows_replay(self, five_node, five_node_solution):
        from modal_market.choice import driver_flows_logit

        sol = five_node_solution
        logit = driver_flows_logit(five_node, sol.driver.stock, sol.prices)
        for k, n in enumerate(five_node.network.nodes):
            for c, pair in enumerate(five_node.driver_pairs):
                a, b = logit[k, c], sol.driver.q[n][pair]
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))
            a, b = logit[k, -1], sol.driver.q_H[n]
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))
