"""Closed-form traveler and driver choice models, and the result containers.

Travelers split each OD's demand over drive / ride / multimodal by a
multinomial logit on deterministic utilities; drivers at every node split
their stock over all service pairs plus sign-out the same way. Two driver
evaluations exist on purpose:

* `driver_flows_logit` is the plain logit at given stocks, used to replay
  and audit solutions;
* `driver_flows_dual` is the unnormalized exponential family indexed by the
  dual prices (service price rho plus the locational value lambda scaled by
  the driver price sensitivity), whose per-choice shares coincide with the
  logit. The equilibrium solver iterates on this form.

The replay has the array shape of the results: `traveler_utilities` gives
the (m, 3) utilities and `traveler_flows_logit` the (m, 3) flows from one
logit over them, `driver_utilities` the (n, 2m + 1) utilities of the
driver columns in compiled order then sign-out, and `driver_flows_logit`
the (n, 2m + 1) flows from one logit over them. Both utility tables are
written out from the scenario data (the OD fields, the relocation table
read once per node and origin, `beta0_at`, `signout_bonus_at`), never
from the compiled arrays, so a replay through them audits the arrays the
solver used.

Results are stored once, as arrays in compiled order: `PriceSystem` holds
the dual vector y, `TravelerFlows` the (m, 3) flow matrix, `DriverFlows`
the (n, 2m) service flows, the sign-out flows and the stocks. Their
mapping attributes (`eta_direct[(r, s)]`, `q[(r, s)][mode]`, `Q[n]`, ...)
are views built on first access by `CompiledScenario`'s view methods, the
one place that decides the keyed result format.

All exponentials are max-shift stabilized where shares are formed. The dual
form caps raw exponents at EXP_BOUND: at a dual point with an exponent
beyond it every driver flow is +inf, a value rather than an error, which
marks a divergent dual iterate rather than a modeling error. The array
kernels (`traveler_flow_matrix`, `driver_flow_matrix`) broadcast over
leading axes, so the solver evaluates a stack of dual points in one call.
The points may share one scenario's coefficients or, for the cells of a
parameter sweep (`stack_cells`), each use its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .scenario import MODES, Scenario

#: Largest raw exponent materialized by the dual flow form (natural log units).
EXP_BOUND = 700.0


#: The coefficients a traveler or driver parameter enters. In a stack of
#: sweep cells (`stack_cells`) each has a leading cell axis; the index
#: arrays, demands, sign-in rates and relocation times are shared.
CELL_COEFFICIENTS = (
    "u_drive", "u_ride", "u_multi", "beta2", "A", "a_H", "beta3", "phi_weights",
    "beta2_d", "phi_sizes",
)


# ---------------------------------------------------------------------------
# compiled arrays


@dataclass(frozen=True)
class CompiledScenario:
    """Index maps and coefficient arrays for vectorized evaluation.

    Dual vector layout: y[:m] = rho_direct (od order), y[m:2m] = rho_hub
    (od order), y[2m:2m+n_nodes] = lambda (node order). The accessors below
    read the last axis, so they also take a stack of dual vectors. A stack
    of k sweep cells (`stack_cells`) holds the CELL_COEFFICIENTS of cell i
    at index i of a leading axis, beta2 and beta3 as (k, 1) columns, and is
    evaluated on a (k, dim) stack of dual vectors, one per cell.
    """

    rs_pairs: tuple[tuple[int, int], ...]  # (m,) OD pairs, the keys of `od_view`
    node_ids: tuple[int, ...]
    m: int
    n_nodes: int
    d: np.ndarray          # (m,) demands
    s_idx: np.ndarray      # (m,) destination node index
    h_idx: np.ndarray      # (m,) hub node index
    drop_idx: np.ndarray   # (2m,) drop-off node index per driver column
    u_drive: np.ndarray    # (m,) full drive utility (price-free)
    u_ride: np.ndarray     # (m,) ride utility at eta = 0
    u_multi: np.ndarray    # (m,) multimodal utility at eta = 0 (fare folded in)
    beta2: float
    beta3: float
    A: np.ndarray          # (n_nodes, 2m) driver exponent at zero prices
    a_H: np.ndarray        # (n_nodes,) sign-out exponent
    dQ: np.ndarray         # (n_nodes,) sign-in rates
    column_pairs: tuple[tuple[int, int], ...]  # (2m,) driver pair per column
    reloc: np.ndarray      # (n_nodes, 2m) minutes from node to column's origin
    # a column's driver exponents depend on its origin only: A[:, c] is
    # A[:, origin_cols[col_origin[c]]], one column per distinct origin
    col_origin: np.ndarray     # (2m,) index of each column's origin
    origin_cols: np.ndarray    # (n_origins,) first column of each origin
    # Flat positions of the traveler logit sensitivities in the Jacobian
    # blocks, for values ordered (ride,ride), (ride,multi), (multi,ride),
    # (multi,multi), each in od order: rho_lam_flat indexes a (2m, n_nodes)
    # array (rho_direct_i with lambda_s, rho_hub_i with lambda_h);
    # lam_lam_flat indexes an (n_nodes, n_nodes) array and starts with the
    # n_nodes diagonal positions.
    rho_lam_flat: np.ndarray   # (4m,)
    lam_lam_flat: np.ndarray   # (n_nodes + 4m,)
    # weights of (stock per node, log-sum-exp per od, lambda per node) in the
    # solver's dual potential: 1/beta3, d/beta2 and -dQ
    phi_weights: np.ndarray    # (2 n_nodes + m,)
    phi_sizes: np.ndarray      # (2 n_nodes + m,) |phi_weights|
    beta2_d: np.ndarray        # (m,) beta2 * d, the traveler sensitivity scale
    # the positions `stacked_index` built for the most rows yet asked;
    # every copy of a stack shares them, as it shares the index arrays
    _stacks: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return 2 * self.m + self.n_nodes

    def cells(self, index: np.ndarray) -> "CompiledScenario":
        """The cells at `index` of a stack of sweep cells; a scenario
        without a cell axis serves every row of a stack as it is."""
        if np.ndim(self.beta2) == 0:
            return self
        return replace(self, **{name: getattr(self, name)[index] for name in CELL_COEFFICIENTS})

    def stacked_index(self, name: str, size: int, rows: int) -> np.ndarray:
        """The flat positions of index array `name` into an array of `size`
        entries, repeated for `rows` stacked copies of that array: copy i
        offset by i * size. Built once for the largest stack asked for, and
        cut to fewer rows as a stack shrinks."""
        index, stacked = getattr(self, name), self._stacks.get(name)
        if stacked is None or stacked.size < rows * index.size:
            stacked = self._stacks[name] = (index + size * np.arange(rows)[:, None]).ravel()
        return stacked[: rows * index.size]

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho_direct, rho_hub, lambda) parts of a vector in dual layout."""
        m = self.m
        return y[..., :m], y[..., m : 2 * m], y[..., 2 * m :]

    def rho_lam(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, lambda) parts of a dual vector; rho in driver column order."""
        return y[..., : 2 * self.m], y[..., 2 * self.m :]

    def eta(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eta_direct, eta_hub) at dual vector y: rho plus lambda at drop-off."""
        rho, lam = self.rho_lam(y)
        eta = rho + lam[..., self.drop_idx]
        return eta[..., : self.m], eta[..., self.m :]

    def od_view(self, values: np.ndarray) -> dict[tuple[int, int], float]:
        """{(r, s): value} from an (m,) array in od order."""
        return dict(zip(self.rs_pairs, values.tolist()))

    def mode_view(self, values: np.ndarray) -> dict[tuple[int, int], dict[str, float]]:
        """{(r, s): {mode: value}} from an (m, 3) array, columns in MODES order."""
        return {rs: dict(zip(MODES, row)) for rs, row in zip(self.rs_pairs, values.tolist())}

    def node_view(self, values: np.ndarray) -> dict[int, float]:
        """{n: value} from an (n_nodes,) array in node order."""
        return dict(zip(self.node_ids, values.tolist()))


def _od_fields(sc: Scenario, *names: str) -> list[np.ndarray]:
    """(m,) array of each named OD field, in od order, read from `sc.ods`."""
    return [np.array([getattr(od, name) for od in sc.ods], dtype=float) for name in names]


def _compile(sc: Scenario) -> CompiledScenario:
    tp = sc.traveler_params
    dp = sc.driver_params
    node_ids = tuple(sc.network.nodes)
    node_index = {n: i for i, n in enumerate(node_ids)}
    table = sc._od_table
    m = len(table.r)

    s_list = list(map(node_index.__getitem__, table.s))
    h_list = list(map(node_index.__getitem__, table.hub))
    d, dt, at, tt, tw, fare, dc, pt, pc = table.values  # _OD_NUMBERS order
    u_drive = tp.beta0_drive - tp.beta1_drive * (dt + pt) - tp.beta2 * (dc + pc)
    u_ride = tp.beta0_ride - tp.beta1_ride * dt
    u_multi = tp.beta0_multi - tp.beta1_multi * (at + tt) - tp.beta1_wait * tw - tp.beta2 * fare

    n_nodes = len(node_ids)
    column_pairs = sc.rs_pairs + tuple(zip(table.r, table.hub))
    # every column's driver pair starts at its od's origin, so relocation
    # times are needed only towards the distinct origins
    origin_index = {r: k for k, r in enumerate(sc.origins)}
    cols = np.array(list(map(origin_index.__getitem__, table.r)) * 2, dtype=int)
    reloc = sc._relocation_matrix[:, cols]
    beta0 = np.array([dp.beta0_at(r) for r in sc.origins])
    A = beta0[cols] - dp.beta1 * reloc
    a_H = np.array(
        [dp.beta0_H + dp.beta3 * sc.signout_bonus_at(n) for n in node_ids]
    )
    dQ = np.array([sc.signin_at(n) for n in node_ids], dtype=float)

    # s_idx and h_idx as rows, the offsets n_nodes * i of the Jacobian rows
    # of the ride prices (row 0) and the multimodal prices (row 1), and each
    # origin's first od
    sh = np.array([s_list, h_list], dtype=int)
    rows = (np.arange(2 * m) * n_nodes).reshape(2, 1, m)
    first = dict(zip(reversed(table.r), range(m - 1, -1, -1)))
    phi_weights = np.concatenate([np.full(n_nodes, 1.0 / dp.beta3), d / tp.beta2, -dQ])
    return CompiledScenario(
        rs_pairs=sc.rs_pairs,
        node_ids=node_ids,
        m=m,
        n_nodes=n_nodes,
        d=d,
        s_idx=sh[0],
        h_idx=sh[1],
        drop_idx=sh.ravel(),
        u_drive=u_drive,
        u_ride=u_ride,
        u_multi=u_multi,
        beta2=tp.beta2,
        beta3=dp.beta3,
        A=A,
        a_H=a_H,
        dQ=dQ,
        column_pairs=column_pairs,
        reloc=reloc,
        col_origin=cols,
        origin_cols=np.array([first[r] for r in sc.origins], dtype=int),
        rho_lam_flat=(rows + sh).ravel(),
        lam_lam_flat=np.concatenate([np.arange(0, n_nodes * (n_nodes + 1), n_nodes + 1),
                                     (sh[:, None] * n_nodes + sh).ravel()]),
        phi_weights=phi_weights,
        phi_sizes=np.abs(phi_weights),
        beta2_d=tp.beta2 * d,
    )


def stack_cells(cells: Sequence[CompiledScenario]) -> CompiledScenario:
    """The stack of a sweep's cells, the compiled `with_param` copies of one
    scenario, so they differ only in CELL_COEFFICIENTS: each of those
    stacked along a new leading axis, the first cell's OD pairs and arrays
    for the rest."""
    stacked = {name: np.stack([getattr(cs, name) for cs in cells]) for name in CELL_COEFFICIENTS}
    stacked["beta2"] = stacked["beta2"][:, None]
    stacked["beta3"] = stacked["beta3"][:, None]
    return replace(cells[0], **stacked)


def compile_scenario(sc: Scenario) -> CompiledScenario:
    """Compile once per Scenario instance: the compiled scenario rides along
    on it. It holds no reference to sc, so a result of sc keeps its arrays
    alive but not the scenario."""
    cs = sc.__dict__.get("_compiled")
    if cs is None:
        cs = sc.__dict__["_compiled"] = _compile(sc)
    return cs


# ---------------------------------------------------------------------------
# result containers: arrays in compiled order, mapping views on first access


@dataclass(frozen=True, eq=False)
class PriceSystem:
    """Driver prices rho, location values lambda, and derived traveler prices.

    Stored as the dual vector `y` in compiled layout. The views
    eta_direct[(r,s)] = rho_direct[(r,s)] + lam[s] and
    eta_hub[(r,s)] = rho_hub[(r,s)] + lam[h(r,s)] hold exactly by
    construction. Negative values are legitimate (subsidy signals).
    """

    cs: CompiledScenario = field(repr=False)
    y: np.ndarray

    @staticmethod
    def build(
        sc: Scenario,
        rho_direct: Mapping[tuple[int, int], float],
        rho_hub: Mapping[tuple[int, int], float],
        lam: Mapping[int, float],
    ) -> "PriceSystem":
        cs = compile_scenario(sc)
        y = (
            [rho_direct[rs] for rs in sc.rs_pairs]
            + [rho_hub[rs] for rs in sc.rs_pairs]
            + [lam[n] for n in cs.node_ids]
        )
        return PriceSystem(cs, np.array(y, dtype=float))

    @staticmethod
    def zero(sc: Scenario) -> "PriceSystem":
        cs = compile_scenario(sc)
        return PriceSystem(cs, np.zeros(cs.dim))

    @cached_property
    def rho_direct(self) -> dict[tuple[int, int], float]:
        return self.cs.od_view(self.cs.split(self.y)[0])

    @cached_property
    def rho_hub(self) -> dict[tuple[int, int], float]:
        return self.cs.od_view(self.cs.split(self.y)[1])

    @cached_property
    def lam(self) -> dict[int, float]:
        return self.cs.node_view(self.cs.split(self.y)[2])

    @cached_property
    def eta_direct(self) -> dict[tuple[int, int], float]:
        return self.cs.od_view(self.cs.eta(self.y)[0])

    @cached_property
    def eta_hub(self) -> dict[tuple[int, int], float]:
        return self.cs.od_view(self.cs.eta(self.y)[1])


@dataclass(frozen=True, eq=False)
class TravelerFlows:
    """(m, 3) traveler flows per OD and mode in travelers/period; rows sum
    to demand. View: q[(r,s)][mode]."""

    cs: CompiledScenario = field(repr=False)
    matrix: np.ndarray

    @cached_property
    def q(self) -> dict[tuple[int, int], dict[str, float]]:
        return self.cs.mode_view(self.matrix)


@dataclass(frozen=True, eq=False)
class DriverFlows:
    """Per-node service flows E (n, 2m), sign-out flows E_H (n,) and stocks
    (n,), in drivers/period. Views: q[n][(r, s')], q_H[n] and Q[n]."""

    cs: CompiledScenario = field(repr=False)
    E: np.ndarray
    E_H: np.ndarray
    stock: np.ndarray

    @cached_property
    def q(self) -> dict[int, dict[tuple[int, int], float]]:
        pairs = self.cs.column_pairs
        return {n: dict(zip(pairs, row)) for n, row in zip(self.cs.node_ids, self.E.tolist())}

    @cached_property
    def q_H(self) -> dict[int, float]:
        return self.cs.node_view(self.E_H)

    @cached_property
    def Q(self) -> dict[int, float]:
        return self.cs.node_view(self.stock)


def _logit(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax and log-sum-exp of U, both max-shift stabilized."""
    top = U.max(axis=-1, keepdims=True)
    E = np.exp(U - top)
    total = E.sum(axis=-1, keepdims=True)
    return E / total, (top + np.log(total))[..., 0]


def _logit3(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_logit` of (..., 3) utilities, formed by columns and in place: U is
    overwritten by the softmax, which is returned with the log-sum-exp.

    A reduction over rows of three runs numpy's inner loop once per row;
    here each step is one call over whole columns. The row maximum is
    max(max(u0, u1), u2) by np.maximum, which keeps a NaN as `U.max` does;
    U - top is exponentiated in place, and the total is summed as
    (E0 + E1) + E2, the order numpy's row sum of three entries adds in, so
    both results equal `_logit`'s bit for bit."""
    top = np.maximum(np.maximum(U[..., 0], U[..., 1]), U[..., 2])
    U -= top[..., None]
    E = np.exp(U, out=U)
    total = E[..., 0] + E[..., 1]
    total += E[..., 2]
    E /= total[..., None]
    top += np.log(total, out=total)
    return E, top


def traveler_utility_matrix(
    cs: CompiledScenario, eta_direct: np.ndarray, eta_hub: np.ndarray
) -> np.ndarray:
    """(..., m, 3) deterministic utilities at the given (..., m) traveler prices."""
    U = np.empty(eta_direct.shape + (3,))
    U[..., 0] = cs.u_drive
    U[..., 1] = cs.u_ride - cs.beta2 * eta_direct
    U[..., 2] = cs.u_multi - cs.beta2 * eta_hub
    return U


def traveler_flow_matrix(
    cs: CompiledScenario, eta_direct: np.ndarray, eta_hub: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, P, lse): (..., m, 3) flows and probabilities at the given prices,
    and the (..., m) log-sum-exp of each OD's three utilities. P is formed
    by columns in the fresh utility matrix (`_logit3`), with the row sum's
    order of addition, so P and lse are the row-wise `_logit`'s bit for
    bit."""
    P, lse = _logit3(traveler_utility_matrix(cs, eta_direct, eta_hub))
    return cs.d[:, None] * P, P, lse


def driver_flow_matrix(
    cs: CompiledScenario, rho: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual-form driver flows: (E, E_H, Q).

    E[n, c] = exp(A[n, c] + beta3*(rho_c + lambda_n)), E_H[n] the sign-out
    column, Q the row sums. Leading axes of rho and lam index a stack of
    dual points. A point with an exponent beyond EXP_BOUND, or a NaN one,
    has all its flows +inf, without a RuntimeWarning. The bound is tested
    over the whole stack first, and point by point only if that fails.

    The full-size exponents are formed once, as rho + lambda in float64
    whatever the prices' dtype, then scaled by beta3, shifted by A and
    exponentiated in that one array: the same operations on the same
    operands as A + beta3 (rho + lambda), so for float64 prices E is bit
    for bit what the three fresh arrays of that sum would give.
    """
    b3 = np.asarray(cs.beta3)  # a (k, 1) column for a stack of cells
    expo = np.add(rho[..., None, :], lam[..., :, None], dtype=float)
    expo *= b3[..., None]
    expo += cs.A
    expo_H = cs.a_H + b3 * lam
    # np.maximum keeps a NaN, which fails the test as an overflow does
    if not np.maximum(expo.max(initial=-np.inf), expo_H.max(initial=-np.inf)) <= EXP_BOUND:
        worst = np.maximum(expo.max(axis=-1, initial=-np.inf), expo_H)
        within = worst.max(axis=-1, initial=-np.inf) <= EXP_BOUND  # False for NaN too
        expo[~within] = np.inf
        expo_H[~within] = np.inf
    E = np.exp(expo, out=expo)
    E_H = np.exp(expo_H)
    return E, E_H, E.sum(axis=-1) + E_H


# ---------------------------------------------------------------------------
# public operations


def traveler_utilities(sc: Scenario, prices: PriceSystem) -> np.ndarray:
    """(m, 3) utilities of drive, ride and multimodal per OD at the given
    prices.

    Written out from the OD data and the traveler parameters, not taken
    from the compiled arrays, so a replay through it audits them.
    """
    tp = sc.traveler_params
    dt, pt, dc, pc, at, tt, tw, fare = _od_fields(
        sc, "drive_time", "parking_time", "drive_cost", "parking_cost",
        "hub_access_time", "transit_time", "transit_wait", "transit_fare",
    )
    eta_direct, eta_hub = compile_scenario(sc).eta(prices.y)
    return np.column_stack([
        tp.beta0_drive - tp.beta1_drive * (dt + pt) - tp.beta2 * (dc + pc),
        tp.beta0_ride - tp.beta1_ride * dt - tp.beta2 * eta_direct,
        tp.beta0_multi - tp.beta1_multi * (at + tt) - tp.beta1_wait * tw
        - tp.beta2 * (fare + eta_hub),
    ])


def traveler_flows(sc: Scenario, prices: PriceSystem) -> TravelerFlows:
    """Logit demand split for every OD; rows sum to demand by normalization."""
    cs = compile_scenario(sc)
    q, _, _ = traveler_flow_matrix(cs, *cs.eta(prices.y))
    return TravelerFlows(cs, q)


def driver_utilities(sc: Scenario, prices: PriceSystem) -> np.ndarray:
    """(n, 2m + 1) utilities of every driver option at every node: the
    driver columns in compiled order (each od's direct pair, then each od's
    hub pair), then sign-out.

    Written out from the scenario data, not taken from the compiled arrays,
    so a replay through it audits them. Every driver pair starts at its
    od's origin, so the relocation table is read once per node and origin;
    the time of staying put at an origin, t_rr, is read from it too.
    """
    dp = sc.driver_params
    nodes = sc.network.nodes
    minutes = np.array(
        [[sc.relocation_time(n, r) for n in nodes] for r in sc.origins]
    ).reshape(len(sc.origins), len(nodes))
    row = {r: k for k, r in enumerate(sc.origins)}
    origins = [od.r for od in sc.ods] * 2
    reloc = minutes[[row[r] for r in origins]].T
    beta0 = np.array([dp.beta0_at(r) for r in origins])
    U = np.empty((len(nodes), len(origins) + 1))
    U[:, :-1] = beta0 - dp.beta1 * reloc + dp.beta3 * compile_scenario(sc).rho_lam(prices.y)[0]
    U[:, -1] = [dp.beta0_H + dp.beta3 * sc.signout_bonus_at(n) for n in nodes]
    return U


def traveler_flows_logit(sc: Scenario, prices: PriceSystem) -> np.ndarray:
    """(m, 3) logit split of each OD's demand over drive, ride and
    multimodal, from `traveler_utilities` at the given prices."""
    P, _ = _logit3(traveler_utilities(sc, prices))
    return _od_fields(sc, "demand")[0][:, None] * P


def driver_flows_logit(sc: Scenario, stock: np.ndarray, prices: PriceSystem) -> np.ndarray:
    """(n, 2m + 1) logit split of each node's stock over the driver columns,
    in compiled order, then sign-out. `stock` holds one value per node, in
    node order."""
    stock = np.asarray(stock, dtype=float)
    n_nodes = len(sc.network.nodes)
    if stock.shape != (n_nodes,):
        raise ValueError(f"driver stocks must have shape ({n_nodes},), got {stock.shape}")
    if not (stock >= 0).all():
        raise ValueError(f"driver stocks must be >= 0, got {stock[~(stock >= 0)][0]}")
    P, _ = _logit(driver_utilities(sc, prices))
    return stock[:, None] * P


def driver_flows_dual(sc: Scenario, prices: PriceSystem) -> DriverFlows:
    """Dual-consistent closed-form driver flows and stocks.

    Shares per node coincide exactly with `driver_flows_logit` at the
    resulting stock: the lambda factor is common to every choice at a node
    and cancels in the normalization. At prices whose driver exponents
    exceed EXP_BOUND every flow and stock is +inf.
    """
    cs = compile_scenario(sc)
    return DriverFlows(cs, *driver_flow_matrix(cs, *cs.rho_lam(prices.y)))
