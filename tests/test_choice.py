"""Logit closed forms: utilities, flows, and dual/logit consistency."""
import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_market.choice import (
    EXP_BOUND,
    CompiledScenario,
    PriceSystem,
    compile_scenario,
    driver_flows_dual,
    driver_flows_logit,
    driver_utilities,
    traveler_flows,
    traveler_utilities,
    traveler_utility_matrix,
)
from modal_market.scenario import (
    MODES,
    DriverParams,
    Network,
    ODSpec,
    Scenario,
    TravelerParams,
    _relocation_from_network,
    builtin,
    builtin_5node,
    load,
    save,
    sioux_network,
)
from modal_market.equilibrium import solve
from modal_market.oracle import random_scenario

EPS = np.finfo(float).eps


def zero_everything_scenario() -> Scenario:
    """All times and costs zero: utilities collapse to the intercepts."""
    net = Network.from_links(
        [(1, 2, 1.0), (2, 1, 1.0), (1, 3, 1.0), (3, 1, 1.0), (3, 2, 1.0), (2, 3, 1.0)]
    )
    od = ODSpec(
        r=1, s=2, demand=100.0, hub=3,
        drive_time=0.0, hub_access_time=0.0, transit_time=0.0,
        transit_wait=0.0, transit_fare=0.0, drive_cost=0.0,
        parking_time=0.0, parking_cost=0.0,
    )
    return Scenario(
        name="zero",
        network=net,
        ods=(od,),
        relocation_times={(1, 1): 0.0, (2, 1): 0.0, (3, 1): 0.0},
        signin={1: 1.0, 2: 1.0, 3: 1.0},
        traveler_params=TravelerParams(),
        driver_params=DriverParams(),
    )


def prices_with(sc, eta_direct=0.0, eta_hub=0.0):
    """Price system with the requested traveler prices (lambda held at 0)."""
    return PriceSystem.build(
        sc,
        {rs: eta_direct for rs in sc.rs_pairs},
        {rs: eta_hub for rs in sc.rs_pairs},
        {n: 0.0 for n in sc.network.nodes},
    )


def traveler_utility_row(sc, od, prices):
    """(U_drive, U_ride, U_multi) of one OD, from the (m, 3) table."""
    return tuple(traveler_utilities(sc, prices)[sc.rs_pairs.index(od)])


def driver_utility(sc, n, pair, prices):
    """Utility of driving pair at node n, from the (n, 2m + 1) table."""
    cs = compile_scenario(sc)
    return driver_utilities(sc, prices)[cs.node_ids.index(n), cs.column_pairs.index(pair)]


def driver_flows_at(sc, n, Q_n, prices):
    """Logit flows of node n's row when every node holds stock Q_n."""
    cs = compile_scenario(sc)
    return driver_flows_logit(sc, np.full(cs.n_nodes, Q_n), prices)[cs.node_ids.index(n)]


class TestTravelerUtilities:
    def test_zero_case_returns_intercepts(self):
        sc = zero_everything_scenario()
        u = traveler_utility_row(sc, (1, 2), prices_with(sc))
        assert u == (4.0, 2.0, 1.0)

    def test_5node_ride_utility_arithmetic(self, five_node):
        # beta0_ride - beta1_ride * drive_time - beta2 * eta at eta = 10
        od = five_node.od(1, 2)
        _, u2, _ = traveler_utility_row(five_node, (1, 2), prices_with(five_node, eta_direct=10.0))
        expected = 2.0 - 0.2 * od.drive_time - 1.0 * 10.0
        assert u2 == pytest.approx(expected, abs=1e-12)

    def test_price_linearity(self, five_node):
        beta2 = five_node.traveler_params.beta2
        _, u2_a, _ = traveler_utility_row(five_node, (1, 2), prices_with(five_node, eta_direct=3.0))
        _, u2_b, _ = traveler_utility_row(
            five_node, (1, 2), prices_with(five_node, eta_direct=3.0 + 2.5)
        )
        assert u2_a - u2_b == pytest.approx(beta2 * 2.5, abs=1e-12)

    def test_compiled_utilities_match_traveler_utilities(self, solved_corpus):
        # traveler_utilities is written out from the scenario data and sums
        # the fare and price terms in another order than the compiled matrix
        for sc, sol in solved_corpus.values():
            cs = compile_scenario(sc)
            U = traveler_utility_matrix(cs, *cs.eta(sol.y))
            replay = traveler_utilities(sc, sol.prices)
            np.testing.assert_allclose(U, replay, rtol=1e-13, atol=1e-12, err_msg=sc.name)


class TestTravelerFlows:
    def test_equal_utilities_split_evenly(self):
        sc = zero_everything_scenario()
        sc = dataclasses.replace(
            sc, traveler_params=TravelerParams(beta0_drive=1.0, beta0_ride=1.0, beta0_multi=1.0)
        )
        q = traveler_flows(sc, prices_with(sc)).q[(1, 2)]
        for mode in MODES:
            assert q[mode] == pytest.approx(100.0 / 3.0, rel=1e-14)

    def test_frozen_softmax_values(self):
        # U = (1, 2, 0), d = 100; expected values from 50-digit arithmetic
        sc = zero_everything_scenario()
        sc = dataclasses.replace(
            sc, traveler_params=TravelerParams(beta0_drive=1.0, beta0_ride=2.0, beta0_multi=0.0)
        )
        q = traveler_flows(sc, prices_with(sc)).q[(1, 2)]
        assert q["drive"] == pytest.approx(24.472847105479765247, rel=1e-14)
        assert q["ride"] == pytest.approx(66.524095577482188953, rel=1e-14)
        assert q["multi"] == pytest.approx(9.0030573170380457998, rel=1e-14)

    def test_demand_conserved_to_float_precision(self, five_node):
        q = traveler_flows(five_node, prices_with(five_node, 3.7, -1.2)).q
        for rs, row in q.items():
            total = sum(row.values())
            assert abs(total - 100.0) <= 8 * EPS * 100.0

    def test_strictly_positive(self, five_node):
        q = traveler_flows(five_node, prices_with(five_node, 50.0, -50.0)).q
        assert all(v > 0 for row in q.values() for v in row.values())

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.tuples(*[st.floats(-30, 30) for _ in range(3)]),
        shift=st.floats(-200, 200),
    )
    def test_shift_invariance(self, u, shift):
        sc = zero_everything_scenario()
        base = dataclasses.replace(
            sc,
            traveler_params=TravelerParams(
                beta0_drive=u[0], beta0_ride=u[1], beta0_multi=u[2]
            ),
        )
        shifted = dataclasses.replace(
            sc,
            traveler_params=TravelerParams(
                beta0_drive=u[0] + shift, beta0_ride=u[1] + shift, beta0_multi=u[2] + shift
            ),
        )
        qa = traveler_flows(base, prices_with(base)).q[(1, 2)]
        qb = traveler_flows(shifted, prices_with(shifted)).q[(1, 2)]
        for mode in MODES:
            assert qb[mode] == pytest.approx(qa[mode], rel=1e-12)

    def test_higher_price_strictly_lowers_ride_flow(self, five_node):
        q_low = traveler_flows(five_node, prices_with(five_node, eta_direct=1.0)).q[(1, 2)]
        q_high = traveler_flows(five_node, prices_with(five_node, eta_direct=1.5)).q[(1, 2)]
        assert q_high["ride"] < q_low["ride"]


class TestDriverUtilities:
    def test_stay_put_zero_price_zero_attractiveness(self):
        sc = zero_everything_scenario()
        assert driver_utility(sc, 1, (1, 2), prices_with(sc)) == 0.0

    def test_sign_out_is_builtin_attractiveness(self, five_node):
        signout = driver_utilities(five_node, prices_with(five_node))[:, -1]
        assert signout[five_node.network.nodes.index(3)] == 2.0

    def test_bystander_relocation_arithmetic(self, five_node):
        # from node 5 toward origin 1 at rho = 12: -0.3*15 + 1.0*12
        prices = PriceSystem.build(
            five_node,
            {rs: 12.0 for rs in five_node.rs_pairs},
            {rs: 0.0 for rs in five_node.rs_pairs},
            {n: 0.0 for n in five_node.network.nodes},
        )
        u = driver_utility(five_node, 5, (1, 2), prices)
        assert u == pytest.approx(0.0 - 0.3 * 15.0 + 1.0 * 12.0, abs=1e-12)
        assert u == pytest.approx(7.5, abs=1e-12)

    def test_compiled_exponents_match_driver_utilities(self, sioux_scenarios):
        # the compiled exponent matrix is built from per-origin arrays; each
        # entry must still be the option's utility at zero prices, written
        # out from the scenario data on its own, bit for bit
        for sc in (sioux_scenarios[3], random_scenario(0), random_scenario(7)):
            cs = compile_scenario(sc)
            U = driver_utilities(sc, PriceSystem.zero(sc))
            assert np.array_equal(cs.A, U[:, :-1]), sc.name


class TestDriverFlowsLogit:
    def test_equal_utilities_split_evenly(self):
        sc = zero_everything_scenario()
        sc = dataclasses.replace(sc, driver_params=DriverParams(beta0_H=0.0, beta1=0.0))
        # choices: (1,2), (1,3), sign-out -> all utilities 0 at zero prices
        flows = driver_flows_at(sc, 1, 20.0, prices_with(sc))
        assert len(flows) == 3
        for v in flows:
            assert v == pytest.approx(20.0 / 3.0, rel=1e-14)

    def test_five_equal_choices_split_four_each(self, five_node):
        # neutralize relocation costs and the sign-out edge: 5 equal options
        flat = dataclasses.replace(
            five_node,
            relocation_times={k: 0.0 for k in five_node.relocation_times},
            driver_params=DriverParams(beta0_H=0.0, beta1=0.3, beta3=1.0),
        )
        flows = driver_flows_at(flat, 3, 20.0, prices_with(flat))
        assert len(flows) == 5
        for v in flows:
            assert v == pytest.approx(4.0, rel=1e-14)

    def test_zero_stock_zero_flows(self, five_node):
        flows = driver_flows_at(five_node, 1, 0.0, prices_with(five_node))
        assert all(v == 0.0 for v in flows)

    def test_negative_stock_rejected(self, five_node):
        stock = np.array([20.0, -1.0, 20.0, 20.0, 20.0])
        with pytest.raises(ValueError, match=">= 0"):
            driver_flows_logit(five_node, stock, prices_with(five_node))

    @pytest.mark.parametrize("stock,bad", [
        ([20.0, 20.0, np.nan, 20.0, 20.0], "nan"),
        ([20.0, 20.0, np.nan, -2.0, 20.0], "nan"),
        ([20.0, -0.5, np.nan, -2.0, 20.0], "-0.5"),
    ])
    def test_stock_not_at_least_zero_is_named(self, five_node, stock, bad):
        # NaN fails `>= 0` as a negative stock does; the first such stock is named
        with pytest.raises(ValueError, match=rf"^driver stocks must be >= 0, got {bad}$"):
            driver_flows_logit(five_node, np.array(stock), prices_with(five_node))

    @pytest.mark.parametrize("stock", [20.0, [20.0], [20.0] * 4, [[20.0] * 5]])
    def test_stock_per_node_required(self, five_node, stock):
        # one stock per node: a scalar or a wrong-length array is not broadcast
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            driver_flows_logit(five_node, stock, prices_with(five_node))

    def test_shares_match_dual_flows(self, five_node):
        prices = PriceSystem.build(
            five_node,
            {rs: 2.0 + 0.1 * i for i, rs in enumerate(five_node.rs_pairs)},
            {rs: 0.5 for rs in five_node.rs_pairs},
            {n: 0.3 * n for n in five_node.network.nodes},
        )
        dual = driver_flows_dual(five_node, prices)
        logit = driver_flows_logit(five_node, dual.stock, prices)
        for k, n in enumerate(five_node.network.nodes):
            for c, pair in enumerate(five_node.driver_pairs):
                assert logit[k, c] == pytest.approx(dual.q[n][pair], rel=1e-12)
            assert logit[k, -1] == pytest.approx(dual.q_H[n], rel=1e-12)


class TestDriverFlowsDual:
    def test_signout_closed_form(self, five_node):
        dual = driver_flows_dual(five_node, prices_with(five_node))
        # beta3 = 1, lambda = 0, beta0_H = 2 -> q_H = e^2
        assert dual.q_H[1] == pytest.approx(7.3890560989306502272, rel=1e-14)

    def test_lambda_cancels_signout(self, five_node):
        dp = five_node.driver_params
        lam = {n: -dp.beta0_H / dp.beta3 for n in five_node.network.nodes}
        prices = PriceSystem.build(
            five_node,
            {rs: 0.0 for rs in five_node.rs_pairs},
            {rs: 0.0 for rs in five_node.rs_pairs},
            lam,
        )
        dual = driver_flows_dual(five_node, prices)
        assert dual.q_H[2] == pytest.approx(1.0, rel=1e-14)

    def test_shares_independent_of_lambda(self, five_node):
        zeros = {rs: 1.0 for rs in five_node.rs_pairs}
        p0 = PriceSystem.build(five_node, zeros, dict(zeros), {n: 0.0 for n in five_node.network.nodes})
        p1 = PriceSystem.build(five_node, zeros, dict(zeros), {n: 2.5 for n in five_node.network.nodes})
        d0 = driver_flows_dual(five_node, p0)
        d1 = driver_flows_dual(five_node, p1)
        for n in five_node.network.nodes:
            for pair in five_node.driver_pairs:
                assert d0.q[n][pair] / d0.Q[n] == pytest.approx(
                    d1.q[n][pair] / d1.Q[n], rel=1e-12
                )

    def test_stock_is_row_sum(self, five_node):
        dual = driver_flows_dual(five_node, prices_with(five_node))
        for n in five_node.network.nodes:
            total = sum(dual.q[n].values()) + dual.q_H[n]
            assert dual.Q[n] == pytest.approx(total, rel=1e-14)

    def test_higher_price_strictly_raises_supply(self, five_node):
        zeros = {rs: 0.0 for rs in five_node.rs_pairs}
        lam = {n: 0.0 for n in five_node.network.nodes}
        lo = driver_flows_dual(
            five_node, PriceSystem.build(five_node, {rs: 1.0 for rs in zeros}, dict(zeros), lam)
        )
        hi = driver_flows_dual(
            five_node, PriceSystem.build(five_node, {rs: 1.2 for rs in zeros}, dict(zeros), lam)
        )
        supply_lo = sum(lo.q[n][(1, 2)] for n in five_node.network.nodes)
        supply_hi = sum(hi.q[n][(1, 2)] for n in five_node.network.nodes)
        assert supply_hi > supply_lo

    def test_overflow_guard(self, five_node):
        # exponents beyond the bound: every flow and stock is +inf, a value,
        # without a RuntimeWarning
        lam = {n: EXP_BOUND + 10 for n in five_node.network.nodes}
        prices = PriceSystem.build(
            five_node,
            {rs: 0.0 for rs in five_node.rs_pairs},
            {rs: 0.0 for rs in five_node.rs_pairs},
            lam,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flows = driver_flows_dual(five_node, prices)
        for values in (flows.E, flows.E_H, flows.stock):
            assert (values == np.inf).all()


class TestPriceSystem:
    def test_eta_identities_exact(self, five_node):
        rho_d = {rs: 3.0 for rs in five_node.rs_pairs}
        rho_h = {rs: -1.0 for rs in five_node.rs_pairs}
        lam = {n: 0.25 * n for n in five_node.network.nodes}
        p = PriceSystem.build(five_node, rho_d, rho_h, lam)
        for od in five_node.ods:
            rs = (od.r, od.s)
            assert p.eta_direct[rs] == rho_d[rs] + lam[od.s]
            assert p.eta_hub[rs] == rho_h[rs] + lam[od.hub]

    def test_negative_prices_allowed(self, five_node):
        p = PriceSystem.build(
            five_node,
            {rs: -3.0 for rs in five_node.rs_pairs},
            {rs: -1.0 for rs in five_node.rs_pairs},
            {n: -2.0 for n in five_node.network.nodes},
        )
        assert p.eta_direct[(1, 2)] == -5.0


class TestCompileScenario:
    def test_solved_scenario_is_freed_by_reference_counting(self):
        # the scenario holds its compiled scenario, which holds no reference
        # back: with the cycle collector off, a solved scenario is freed at
        # `del sc` while its solution lives, and the solution's views work
        gc.disable()
        try:
            sc = builtin_5node()
            alive = weakref.ref(sc)
            pairs = sc.rs_pairs
            sol = solve(sc)
            assert compile_scenario(sc) is sol.prices.cs
            del sc
            assert alive() is None
            assert list(sol.prices.rho_direct) == list(pairs)
            assert sol.prices.rho_direct == dict(zip(pairs, sol.y[:2].tolist()))
            assert list(sol.traveler.q) == list(pairs)
        finally:
            gc.enable()

    def test_compiled_once_per_scenario(self):
        # every call returns the one compiled scenario, also once no result
        # holds it, and it keys its views by the scenario's OD pairs
        sc = builtin_5node()
        cs = compile_scenario(sc)
        assert compile_scenario(sc) is cs and cs.rs_pairs == sc.rs_pairs
        arrays = cs.A, cs.phi_weights, cs._stacks
        del cs
        again = compile_scenario(sc)
        assert all(a is b for a, b in zip((again.A, again.phi_weights, again._stacks), arrays))


def many_od_scenario() -> Scenario:
    """120 ODs on Sioux Falls, five per origin, with seeded times and costs:
    each origin's destinations and hubs are ten distinct other nodes, so no
    hub leg collides."""
    net = sioux_network()
    nodes = net.nodes
    rng = np.random.default_rng(3)
    ods = []
    for k, r in enumerate(nodes):
        for j in range(1, 6):
            ods.append(ODSpec(
                r, nodes[(k + j) % len(nodes)], float(rng.uniform(1.0, 500.0)),
                nodes[(k + j + 5) % len(nodes)], *map(float, rng.uniform(0.0, 40.0, 8)),
            ))
    return Scenario(
        name="many-ods",
        network=net,
        ods=tuple(ods),
        relocation_times=_relocation_from_network(net, nodes),
        signin={n: 20.0 for n in nodes},
        traveler_params=TravelerParams(),
        driver_params=DriverParams(beta0_r={1: 0.5, 7: -0.25}),
    )


@pytest.mark.parametrize("sc", [
    *(builtin(name) for name in ("5node", "sioux1", "sioux2", "sioux3")),
    *map(random_scenario, range(100)),
    many_od_scenario(),
], ids=lambda sc: sc.name)
def test_loaded_document_compiles_bit_for_bit(sc):
    # `load` fills the OD table from the document's columns, a constructed
    # scenario builds it from its ODSpecs: both compile to the same arrays
    ours, theirs = compile_scenario(load(save(sc))), compile_scenario(sc)
    for f in dataclasses.fields(CompiledScenario):
        if f.name == "_stacks":
            continue
        a, b = getattr(ours, f.name), getattr(theirs, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert (type(a), a) == (type(b), b), f.name
