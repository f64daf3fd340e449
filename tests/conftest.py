import pytest

from modal_market import builtin_5node, builtin_sioux, solve
from modal_market.oracle import grid_solve_micro, micro_instances


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
