import pytest

from modal_market import builtin_5node, builtin_sioux, solve
from modal_market.oracle import grid_solve_micro, micro_instances, random_scenario


@pytest.fixture(scope="session")
def five_node():
    return builtin_5node()


@pytest.fixture(scope="session")
def five_node_solution(five_node):
    return solve(five_node)


@pytest.fixture(scope="session")
def sioux_scenarios():
    return {k: builtin_sioux(k) for k in (1, 2, 3)}


@pytest.fixture(scope="session")
def sioux_solutions(sioux_scenarios):
    return {k: solve(sc) for k, sc in sioux_scenarios.items()}


@pytest.fixture(scope="session")
def micros():
    return micro_instances()


@pytest.fixture(scope="session")
def grid_duals(micros):
    """Grid-oracle duals per micro instance; the grid search takes seconds,
    so it runs once per session."""
    return {sc.name: grid_solve_micro(sc) for sc in micros}


@pytest.fixture(scope="session")
def solved_corpus(five_node, five_node_solution, sioux_scenarios, sioux_solutions):
    """{name: (scenario, default-start solution)} for the builtins and
    random_scenario 0-99, in that order; the solves take seconds, so they
    run once per session."""
    cases = [(five_node, five_node_solution)]
    cases += [(sioux_scenarios[k], sioux_solutions[k]) for k in (1, 2, 3)]
    cases += [(sc, solve(sc)) for sc in map(random_scenario, range(100))]
    return {sc.name: (sc, sol) for sc, sol in cases}
