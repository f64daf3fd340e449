"""The Newton pass's array kernels against verbatim copies of their
fresh-array forms: the in-place kernels must match them bit for bit and
leave their inputs as they found them."""
import itertools
import warnings

import numpy as np
import pytest

from modal_market.choice import (
    EXP_BOUND,
    PriceSystem,
    compile_scenario,
    driver_flow_matrix,
    driver_flows_dual,
    stack_cells,
    traveler_flow_matrix,
    traveler_utility_matrix,
)
from modal_market.equilibrium import _flows_at, _newton_step, _residual_vector, _scatter
from modal_market.oracle import random_scenario
from modal_market.scenario import with_param

# ---------------------------------------------------------------------------
# references: the kernels as they stood with a fresh array per operation


def reference_logit(U):
    """Row-wise softmax and log-sum-exp of U, both max-shift stabilized."""
    top = U.max(axis=-1, keepdims=True)
    E = np.exp(U - top)
    total = E.sum(axis=-1, keepdims=True)
    return E / total, (top + np.log(total))[..., 0]


def reference_traveler_flow_matrix(cs, eta_direct, eta_hub):
    P, lse = reference_logit(traveler_utility_matrix(cs, eta_direct, eta_hub))
    return cs.d[:, None] * P, P, lse


def reference_driver_flow_matrix(cs, rho, lam):
    b3 = np.asarray(cs.beta3)  # a (k, 1) column for a stack of cells
    expo = cs.A + b3[..., None] * (rho[..., None, :] + lam[..., :, None])
    expo_H = cs.a_H + b3 * lam
    # np.maximum keeps a NaN, which fails the test as an overflow does
    if not np.maximum(expo.max(initial=-np.inf), expo_H.max(initial=-np.inf)) <= EXP_BOUND:
        worst = np.maximum(expo.max(axis=-1, initial=-np.inf), expo_H)
        within = worst.max(axis=-1, initial=-np.inf) <= EXP_BOUND  # False for NaN too
        expo[~within] = np.inf
        expo_H[~within] = np.inf
    E = np.exp(expo)
    E_H = np.exp(expo_H)
    return E, E_H, E.sum(axis=-1) + E_H


def reference_newton_step(cs, P, E, Q, r):
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
    X = np.concatenate([C, r[..., : 2 * m, :]], axis=-1)
    X_d, X_h = X[..., :m, :], X[..., m:, :]
    W_h = (X_h - (c / b11)[..., None] * X_d) / piv[..., None]
    W_d = (X_d - c[..., None] * W_h) / b11[..., None]
    W = np.concatenate([W_d, W_h], axis=-2)  # J_rho_rho^{-1} [J_rho_lam, r_rho]
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


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(five_node, sioux_scenarios):
    return [five_node, *sioux_scenarios.values(), *map(random_scenario, range(20))]


def stacks(cs):
    """The points every kernel is compared at: the zero start alone, as a
    vector and as a one-row stack, and six-row stacks of the zero start and
    the uniqueness probe's starts in [-10, 10], then of starts in
    [-10^j, 10^j] for j = 1 ... 3.5, the farther of which pass EXP_BOUND."""
    probes = np.random.default_rng(0).uniform(-10.0, 10.0, size=(5, cs.dim))
    reach = np.logspace(1.0, 3.5, 6)[:, None]
    far = reach * np.random.default_rng(1).uniform(-1.0, 1.0, size=(6, cs.dim))
    zero = np.zeros(cs.dim)
    return [zero, zero[None], np.vstack([zero, probes]), far]


def sweep_stacks(sc):
    """(cells, rows): five cells of one parameter per stack, at the zero
    start and four of the probe's starts, for three parameters."""
    out = []
    for p in ("driver_params.beta3", "traveler_params.beta2", "driver_params.beta1"):
        cs = stack_cells([compile_scenario(with_param(sc, p, v)) for v in (0.25, 0.5, 1.0, 2.0, 4.0)])
        rows = np.random.default_rng(2).uniform(-10.0, 10.0, size=(5, cs.dim))
        rows[0] = 0.0
        out.append((cs, rows))
    return out


def same(new, ref):
    """Bit-for-bit equal arrays (NaN in the same places), shapes included."""
    for a, b in zip(new, ref, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)


def kernel_cases(corpus, sioux_scenarios):
    for sc in corpus:
        cs = compile_scenario(sc)
        yield from ((sc.name, cs, y) for y in stacks(cs))
    for cs, rows in sweep_stacks(sioux_scenarios[3]):
        yield "sioux3 sweep", cs, rows


class TestTravelerFlowMatrix:
    def test_matches_reference(self, corpus, sioux_scenarios):
        for name, cs, y in kernel_cases(corpus, sioux_scenarios):
            eta = cs.eta(y)
            same(traveler_flow_matrix(cs, *eta), reference_traveler_flow_matrix(cs, *eta))

    def test_non_finite_utilities_match_reference(self, sioux_scenarios):
        # one OD's ride and multimodal utilities set to every pair of a
        # finite value, +inf, -inf and NaN (from prices of -inf, +inf and
        # NaN) in one row of a six-row stack: the same NaNs, and a
        # RuntimeWarning exactly where the reference raises one
        cs = compile_scenario(sioux_scenarios[2])
        finite = np.random.default_rng(3).uniform(-10.0, 10.0, size=(2, 6, cs.m))
        values = (1.0, np.inf, -np.inf, np.nan)
        for pair in itertools.product(values, repeat=2):
            eta = finite.copy()
            eta[:, 2, 5] = pair
            results = []
            for kernel in (traveler_flow_matrix, reference_traveler_flow_matrix):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = kernel(cs, *eta)
                results.append((out, sorted(str(w.message) for w in caught)))
            (new, new_warned), (ref, ref_warned) = results
            same(new, ref)
            assert new_warned == ref_warned, pair


class TestDriverFlowMatrix:
    def test_matches_reference(self, corpus, sioux_scenarios):
        partly_overflowed = 0
        for name, cs, y in kernel_cases(corpus, sioux_scenarios):
            with np.errstate(over="ignore"):
                new = driver_flow_matrix(cs, *cs.rho_lam(y))
                ref = reference_driver_flow_matrix(cs, *cs.rho_lam(y))
            same(new, ref)
            overflowed = np.isinf(new[2]).all(axis=-1)
            partly_overflowed += overflowed.any() and not overflowed.all()
        assert partly_overflowed  # the bound was tested row by row

    def test_prices_of_any_dtype_give_float64_flows(self, five_node):
        # the exponents are formed in float64: integer prices give the flows
        # of the same prices as floats, and float32 prices near the bound
        # neither overflow nor warn
        cs = compile_scenario(five_node)
        y = np.arange(cs.dim) % 7 - 3
        at_floats = driver_flows_dual(five_node, PriceSystem(cs, y.astype(float)))
        at_ints = driver_flows_dual(five_node, PriceSystem(cs, y))
        same([at_ints.E, at_ints.E_H, at_ints.stock],
             [at_floats.E, at_floats.E_H, at_floats.stock])
        rho, lam = cs.rho_lam(np.zeros(cs.dim))
        reach = 0.9 * EXP_BOUND / float(np.max(cs.beta3)) - np.max(cs.A)
        lam = lam + reach
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E, E_H, Q = driver_flow_matrix(cs, rho.astype(np.float32), lam.astype(np.float32))
        assert E.dtype == E_H.dtype == Q.dtype == np.float64
        assert np.isfinite(Q).all() and (Q > np.finfo(np.float32).max).any()


class TestNewtonStep:
    @pytest.mark.parametrize("k", [1, 4, 100])
    def test_matches_reference(self, corpus, sioux_scenarios, k):
        rng = np.random.default_rng(k)
        for name, cs, y in kernel_cases(corpus, sioux_scenarios):
            _, P, _, E, _, Q = _flows_at(cs, y)
            R = rng.standard_normal(y.shape + (k,))
            with np.errstate(all="ignore"):
                R[..., 0] = _residual_vector(cs, y)
                new = _newton_step(cs, P, E, Q, R)
                ref = reference_newton_step(cs, P, E, Q, R)
            same([new], [ref])

    def test_strided_right_hand_sides_match_reference(self, five_node_solution, five_node):
        # the convexity probe passes its samples as a transposed view
        cs = compile_scenario(five_node)
        _, P, _, E, _, Q = _flows_at(cs, five_node_solution.y)
        R = np.random.default_rng(4).standard_normal((7, cs.dim)).T
        same([_newton_step(cs, P, E, Q, R)], [reference_newton_step(cs, P, E, Q, R)])


class TestInputsUntouched:
    def test_no_kernel_writes_into_its_inputs(self, corpus, sioux_scenarios):
        for name, cs, y in kernel_cases(corpus, sioux_scenarios):
            A, y_before = cs.A.copy(), y.copy()
            with np.errstate(all="ignore"):
                q, P, lse, E, E_H, Q = _flows_at(cs, y)
                R = np.stack([_residual_vector(cs, y)] * 3, axis=-1)
                kept = [a.copy() for a in (P, E, Q, R)]
                _newton_step(cs, P, E, Q, R)
            assert np.array_equal(y, y_before), name
            assert np.array_equal(cs.A, A), name
            for before, after in zip(kept, (P, E, Q, R)):
                assert np.array_equal(before, after, equal_nan=True), name
