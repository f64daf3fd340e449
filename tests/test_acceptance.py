"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS` line once its assertions hold, so
`pytest -v -s tests/test_acceptance.py` reads as a criterion-by-criterion
report. Tolerances are pinned here and nowhere else.
"""
import time

import numpy as np
import pytest

from modal_market.analytics import hub_study, sweep
from modal_market.choice import driver_flows_logit, traveler_utilities
from modal_market.equilibrium import solve, uniqueness_probe
from modal_market.netgraph import parse_tntp, serialize_tntp
from modal_market.oracle import (
    kkt_check,
    perturbation_probe,
    random_scenario,
)
from modal_market.scenario import (
    MODES,
    builtin_5node,
    builtin_sioux,
    sioux_network,
    with_param,
)

REPLAY_TOL = 1e-9
CLEARING_TOL = 1e-10
KKT_TOL = 1e-6
ORACLE_DUAL_TOL = 1e-6
UNIQUENESS_TOL = 1e-6
SYMMETRY_TOL = 1e-8
STOCK_TOL = 1e-8
EQUIVALENCE_BUDGET_S = 5.0
FIVE_NODE_BUDGET_S = 0.1
SIOUX_BUDGET_S = 2.0
RANDOM_SEEDS = range(20)


@pytest.fixture(scope="module")
def corpus():
    scenarios = [builtin_5node()] + [builtin_sioux(k) for k in (1, 2, 3)]
    return scenarios


@pytest.fixture(scope="module")
def corpus_solutions(corpus):
    return [solve(sc) for sc in corpus]


def replay_errors(sc, sol):
    traveler_err = 0.0
    utilities = traveler_utilities(sc, sol.prices)
    for i, od in enumerate(sc.ods):
        rs = (od.r, od.s)
        U = utilities[i]
        e = np.exp(np.subtract(U, max(U)))
        for k, mode in enumerate(MODES):
            a, b = od.demand * (e[k] / e.sum()), sol.traveler.q[rs][mode]
            traveler_err = max(traveler_err, abs(a - b) / max(abs(a), abs(b), 1e-300))
    driver_err = 0.0
    logit = driver_flows_logit(sc, [sol.driver.Q[n] for n in sc.network.nodes], sol.prices)
    for k, n in enumerate(sc.network.nodes):
        for c, pair in enumerate(sc.driver_pairs):
            a, b = logit[k, c], sol.driver.q[n][pair]
            driver_err = max(driver_err, abs(a - b) / max(abs(a), abs(b), 1e-300))
        a, b = logit[k, -1], sol.driver.q_H[n]
        driver_err = max(driver_err, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return traveler_err, driver_err


def test_criterion_1_logit_equivalence(corpus):
    """Replaying extracted prices through the standalone logit models
    reproduces solver flows to 1e-9 relative, across builtins and 20 seeded
    random scenarios, within a 5 s budget."""
    started = time.perf_counter()
    worst = 0.0
    for sc in list(corpus) + [random_scenario(seed) for seed in RANDOM_SEEDS]:
        sol = solve(sc)
        traveler_err, driver_err = replay_errors(sc, sol)
        worst = max(worst, traveler_err, driver_err)
        assert traveler_err <= REPLAY_TOL, sc.name
        assert driver_err <= REPLAY_TOL, sc.name
    elapsed = time.perf_counter() - started
    assert elapsed < EQUIVALENCE_BUDGET_S
    print(
        f"\nACCEPTANCE 1 PASS: logit equivalence, worst rel err {worst:.2e} "
        f"(tol {REPLAY_TOL:g}) in {elapsed:.2f}s"
    )


def test_criterion_2_market_clearing(corpus, corpus_solutions):
    worst = max(sol.residual.inf_norm for sol in corpus_solutions)
    for sc, sol in zip(corpus, corpus_solutions):
        assert sol.residual.inf_norm <= CLEARING_TOL, sc.name
    print(
        f"\nACCEPTANCE 2 PASS: market clearing, worst residual {worst:.2e} "
        f"(tol {CLEARING_TOL:g})"
    )


def test_criterion_3_kkt_stationarity(corpus, corpus_solutions):
    worst = 0.0
    for sc, sol in zip(corpus, corpus_solutions):
        rep = kkt_check(sc, sol)
        worst = max(worst, rep.stationarity)
        assert rep.stationarity <= KKT_TOL, sc.name
    for seed in RANDOM_SEEDS:
        sc = random_scenario(seed)
        rep = kkt_check(sc, solve(sc))
        worst = max(worst, rep.stationarity)
        assert rep.stationarity <= KKT_TOL, f"random-{seed}"
    print(
        f"\nACCEPTANCE 3 PASS: KKT stationarity, worst {worst:.2e} "
        f"(tol {KKT_TOL:g})"
    )


def test_criterion_4_grid_oracle_duals(micros, grid_duals):
    assert len(micros) >= 3
    worst = 0.0
    for sc in micros:
        gap = float(np.abs(grid_duals[sc.name] - solve(sc).y).max())
        worst = max(worst, gap)
        assert gap <= ORACLE_DUAL_TOL, sc.name
    print(
        f"\nACCEPTANCE 4 PASS: grid oracle duals on {len(micros)} micro "
        f"instances, worst gap {worst:.2e} (tol {ORACLE_DUAL_TOL:g})"
    )


def test_criterion_5_uniqueness(corpus):
    worst = 0.0
    for sc in corpus:
        dev = uniqueness_probe(sc, k=5, seed=20240601)
        worst = max(worst, dev)
        assert dev <= UNIQUENESS_TOL, sc.name
    print(
        f"\nACCEPTANCE 5 PASS: uniqueness over 5 random starts per builtin, "
        f"worst deviation {worst:.2e} (tol {UNIQUENESS_TOL:g})"
    )


def test_criterion_6_five_node_facts(corpus, corpus_solutions):
    sc, sol = corpus[0], corpus_solutions[0]
    q12, q21 = sol.traveler.q[(1, 2)], sol.traveler.q[(2, 1)]
    for mode in MODES:
        assert abs(q12[mode] - q21[mode]) <= SYMMETRY_TOL
    assert abs(sol.driver.Q[5] - 20.0) <= STOCK_TOL
    for row in (q12, q21):
        assert row["ride"] > row["drive"] > row["multi"]
    for rs in sc.rs_pairs:
        assert sol.prices.rho_hub[rs] < sol.prices.rho_direct[rs]
    print(
        "\nACCEPTANCE 6 PASS: 5-node facts (symmetry, bystander stock 20, "
        "ride > drive > multi, hub price below direct price)"
    )


def test_criterion_7_price_sensitivity_sweep():
    sc = builtin_5node()
    lo, hi = sweep(sc, "traveler_params.beta2", [0.1, 10.0])
    assert lo.converged and hi.converged
    assert lo.winner == "drive"
    low_sc = with_param(sc, "traveler_params.beta2", 0.1)
    low_sol = solve(low_sc)
    for rs in low_sc.rs_pairs:
        assert low_sol.prices.rho_hub[rs] < 0
    assert hi.winner == "ride"
    total_demand = sum(od.demand for od in sc.ods)
    assert hi.total_drive < 0.01 * total_demand
    print(
        "\nACCEPTANCE 7 PASS: beta2 = 0.1 -> drive wins with negative hub "
        "prices; beta2 = 10 -> ride wins with drive share "
        f"{hi.total_drive / total_demand:.2e}"
    )


def test_criterion_8_hub_study_monotonicity():
    study = hub_study()
    t = {x.scenario: x for x in study.totals}
    assert t[1].total_multi < t[2].total_multi < t[3].total_multi
    assert t[1].total_drive > t[2].total_drive > t[3].total_drive
    assert (
        t[1].total_relocation_time
        < t[2].total_relocation_time
        < t[3].total_relocation_time
    )
    print(
        "\nACCEPTANCE 8 PASS: hubs 2 -> 3 -> 7 moves multimodal up "
        f"({t[1].total_multi:.1f} < {t[2].total_multi:.1f} < {t[3].total_multi:.1f}), "
        f"driving down, relocation time up "
        f"({t[1].total_relocation_time:.0f} < {t[2].total_relocation_time:.0f} "
        f"< {t[3].total_relocation_time:.0f})"
    )


def test_criterion_9_performance():
    five = solve(builtin_5node())
    assert five.wall_time <= FIVE_NODE_BUDGET_S
    sioux_times = []
    for k in (1, 2, 3):
        sol = solve(builtin_sioux(k))
        sioux_times.append(sol.wall_time)
        assert sol.wall_time <= SIOUX_BUDGET_S
    print(
        f"\nACCEPTANCE 9 PASS: 5-node solve {five.wall_time * 1e3:.1f} ms "
        f"(budget {FIVE_NODE_BUDGET_S}s), Sioux Falls "
        f"{[f'{t * 1e3:.1f} ms' for t in sioux_times]} (budget {SIOUX_BUDGET_S}s each)"
    )


def test_criterion_10_parser_round_trip():
    net = sioux_network()
    assert len(net.nodes) == 24
    assert len(net.links) == 76
    assert parse_tntp(serialize_tntp(net), name=net.name) == net
    print(
        "\nACCEPTANCE 10 PASS: Sioux Falls fixture parses to 24 nodes / 76 "
        "links and round-trips identically"
    )


def test_supporting_convexity_probe(corpus, corpus_solutions):
    """Companion check used by the validate command: strict convexity."""
    for sc, sol in zip(corpus, corpus_solutions):
        assert perturbation_probe(sc, sol, samples=50, seed=11) > 0
