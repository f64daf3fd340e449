"""Closed-form traveler and driver choice models, and the result containers.

Travelers split each OD's demand over drive / ride / multimodal by a
multinomial logit on deterministic utilities; drivers at every node split
their stock over all service pairs plus sign-out the same way. Two driver
evaluations exist on purpose:

* `driver_flows_logit` is the plain logit at a given stock, used to replay
  and audit solutions;
* `driver_flows_dual` is the unnormalized exponential family indexed by the
  dual prices (service price rho plus the locational value lambda scaled by
  the driver price sensitivity), whose per-choice shares coincide with the
  logit. The equilibrium solver iterates on this form.

Results are stored once, as arrays in compiled order: `PriceSystem` holds
the dual vector y, `TravelerFlows` the (m, 3) flow matrix, `DriverFlows`
the (n, 2m) service flows, the sign-out flows and the stocks. Their
mapping attributes (`eta_direct[(r, s)]`, `q[(r, s)][mode]`, `Q[n]`, ...)
are views built on first access by `CompiledScenario`'s view methods, the
one place that decides the keyed result format.

All exponentials are max-shift stabilized where shares are formed; the dual
form caps raw exponents at EXP_BOUND and raises OverflowGuard beyond it,
which signals a divergent dual iterate rather than a modeling error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .netgraph import UnknownNode
from .scenario import MODES, SIGN_OUT, Scenario

#: Largest raw exponent materialized by the dual flow form (natural log units).
EXP_BOUND = 700.0


class ChoiceError(Exception):
    """Base class for choice-model errors."""


class UnknownOD(ChoiceError):
    """OD pair not present in the scenario."""


class UnknownChoice(ChoiceError):
    """Driver choice is neither a driver OD pair nor sign-out."""


class OverflowGuard(ChoiceError):
    """An exponent exceeded EXP_BOUND; the dual iterate is divergent."""


# ---------------------------------------------------------------------------
# compiled arrays


@dataclass(frozen=True)
class CompiledScenario:
    """Index maps and coefficient arrays for vectorized evaluation.

    Dual vector layout: y[:m] = rho_direct (od order), y[m:2m] = rho_hub
    (od order), y[2m:2m+n_nodes] = lambda (node order).
    """

    sc: Scenario
    node_ids: tuple[int, ...]
    node_index: Mapping[int, int]
    m: int
    n_nodes: int
    d: np.ndarray          # (m,) demands
    s_idx: np.ndarray      # (m,) destination node index
    h_idx: np.ndarray      # (m,) hub node index
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
    # Flat positions of the traveler logit sensitivities in the Jacobian
    # blocks, for values ordered (ride,ride), (ride,multi), (multi,ride),
    # (multi,multi), each in od order: rho_lam_flat indexes a (2m, n_nodes)
    # array (rho_direct_i with lambda_s, rho_hub_i with lambda_h);
    # lam_lam_flat indexes an (n_nodes, n_nodes) array and starts with the
    # n_nodes diagonal positions.
    rho_lam_flat: np.ndarray   # (4m,)
    lam_lam_flat: np.ndarray   # (n_nodes + 4m,)

    @property
    def dim(self) -> int:
        return 2 * self.m + self.n_nodes

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho_direct, rho_hub, lambda) parts of a vector in dual layout."""
        m = self.m
        return y[:m], y[m : 2 * m], y[2 * m :]

    def rho_lam(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, lambda) parts of a dual vector; rho in driver column order."""
        return y[: 2 * self.m], y[2 * self.m :]

    def eta(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eta_direct, eta_hub) at dual vector y: rho plus lambda at drop-off."""
        rho_d, rho_h, lam = self.split(y)
        return rho_d + lam[self.s_idx], rho_h + lam[self.h_idx]

    def od_view(self, values: np.ndarray) -> dict[tuple[int, int], float]:
        """{(r, s): value} from an (m,) array in od order."""
        return dict(zip(self.sc.rs_pairs, values.tolist()))

    def mode_view(self, values: np.ndarray) -> dict[tuple[int, int], dict[str, float]]:
        """{(r, s): {mode: value}} from an (m, 3) array, columns in MODES order."""
        return {
            rs: dict(zip(MODES, row)) for rs, row in zip(self.sc.rs_pairs, values.tolist())
        }

    def node_view(self, values: np.ndarray) -> dict[int, float]:
        """{n: value} from an (n_nodes,) array in node order."""
        return dict(zip(self.node_ids, values.tolist()))


def _compile(sc: Scenario) -> CompiledScenario:
    tp = sc.traveler_params
    dp = sc.driver_params
    node_ids = tuple(sc.network.nodes)
    node_index = {n: i for i, n in enumerate(node_ids)}
    m = len(sc.ods)

    d = np.array([od.demand for od in sc.ods], dtype=float)
    s_idx = np.array([node_index[od.s] for od in sc.ods], dtype=int)
    h_idx = np.array([node_index[od.hub] for od in sc.ods], dtype=int)

    u_drive = np.array(
        [
            tp.beta0_drive
            - tp.beta1_drive * (od.drive_time + od.parking_time)
            - tp.beta2 * (od.drive_cost + od.parking_cost)
            for od in sc.ods
        ]
    )
    u_ride = np.array(
        [tp.beta0_ride - tp.beta1_ride * od.drive_time for od in sc.ods]
    )
    u_multi = np.array(
        [
            tp.beta0_multi
            - tp.beta1_multi * (od.hub_access_time + od.transit_time)
            - tp.beta1_wait * od.transit_wait
            - tp.beta2 * od.transit_fare
            for od in sc.ods
        ]
    )

    n_nodes = len(node_ids)
    column_pairs = tuple(
        [(od.r, od.s) for od in sc.ods] + [(od.r, od.hub) for od in sc.ods]
    )
    # every column's driver pair starts at its od's origin, so relocation
    # times are needed only towards the distinct origins
    origin_index = {r: k for k, r in enumerate(sc.origins)}
    T = np.array(
        [
            [0.0 if n == r else sc.relocation_time(n, r) for r in sc.origins]
            for n in node_ids
        ]
    ).reshape(n_nodes, len(sc.origins))
    beta0 = np.array([dp.beta0_at(r) for r in sc.origins])
    cols = np.array([origin_index[r] for r, _ in column_pairs], dtype=int)
    reloc = T[:, cols]
    A = beta0[cols] - dp.beta1 * reloc
    a_H = np.array(
        [dp.beta0_H + dp.beta3 * sc.signout_bonus_at(n) for n in node_ids]
    )
    dQ = np.array([sc.signin_at(n) for n in node_ids], dtype=float)

    ride_row, multi_row = np.arange(m), m + np.arange(m)
    rho_lam_flat = np.concatenate(
        [
            ride_row * n_nodes + s_idx,
            ride_row * n_nodes + h_idx,
            multi_row * n_nodes + s_idx,
            multi_row * n_nodes + h_idx,
        ]
    )
    lam_lam_flat = np.concatenate(
        [
            np.arange(n_nodes) * (n_nodes + 1),
            s_idx * n_nodes + s_idx,
            s_idx * n_nodes + h_idx,
            h_idx * n_nodes + s_idx,
            h_idx * n_nodes + h_idx,
        ]
    )

    return CompiledScenario(
        sc=sc,
        node_ids=node_ids,
        node_index=node_index,
        m=m,
        n_nodes=n_nodes,
        d=d,
        s_idx=s_idx,
        h_idx=h_idx,
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
        rho_lam_flat=rho_lam_flat,
        lam_lam_flat=lam_lam_flat,
    )


def compile_scenario(sc: Scenario) -> CompiledScenario:
    """Compile once per Scenario instance; the result rides along on it."""
    cached = sc.__dict__.get("_compiled")
    if cached is None:
        cached = _compile(sc)
        sc.__dict__["_compiled"] = cached
    return cached


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

    def flow(self, r: int, s: int, mode: str) -> float:
        return self.q[(r, s)][mode]


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


def _softmax(U: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization."""
    shifted = U - U.max(axis=-1, keepdims=True)
    E = np.exp(shifted)
    return E / E.sum(axis=-1, keepdims=True)


def traveler_utility_matrix(
    cs: CompiledScenario, eta_direct: np.ndarray, eta_hub: np.ndarray
) -> np.ndarray:
    """(m, 3) deterministic utilities at the given traveler prices."""
    return np.stack(
        [
            cs.u_drive,
            cs.u_ride - cs.beta2 * eta_direct,
            cs.u_multi - cs.beta2 * eta_hub,
        ],
        axis=1,
    )


def traveler_flow_matrix(
    cs: CompiledScenario, eta_direct: np.ndarray, eta_hub: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(q, P): (m, 3) flows and probabilities at the given prices."""
    P = _softmax(traveler_utility_matrix(cs, eta_direct, eta_hub))
    return cs.d[:, None] * P, P


def driver_flow_matrix(
    cs: CompiledScenario, rho: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual-form driver flows: (E, E_H, Q).

    E[n, c] = exp(A[n, c] + beta3*(rho_c + lambda_n)), E_H[n] the sign-out
    column, Q the row sums. Raises OverflowGuard when any exponent exceeds
    EXP_BOUND.
    """
    expo = cs.A + cs.beta3 * (rho[None, :] + lam[:, None])
    expo_H = cs.a_H + cs.beta3 * lam
    worst = max(
        float(expo.max(initial=-np.inf)), float(expo_H.max(initial=-np.inf))
    )
    if not np.isfinite(worst) or worst > EXP_BOUND:
        raise OverflowGuard(
            f"driver flow exponent {worst:.3g} exceeds bound {EXP_BOUND:g}"
        )
    E = np.exp(expo)
    E_H = np.exp(expo_H)
    return E, E_H, E.sum(axis=1) + E_H


# ---------------------------------------------------------------------------
# public per-OD / per-node operations


def traveler_utilities(
    sc: Scenario, od: tuple[int, int], prices: PriceSystem
) -> tuple[float, float, float]:
    """(U_drive, U_ride, U_multi) for one OD at the given prices."""
    if od not in set(sc.rs_pairs):
        raise UnknownOD(f"OD {od} not in scenario {sc.name!r}")
    cs = compile_scenario(sc)
    i = sc.rs_pairs.index(od)
    U = traveler_utility_matrix(cs, *cs.eta(prices.y))
    return float(U[i, 0]), float(U[i, 1]), float(U[i, 2])


def traveler_flows(sc: Scenario, prices: PriceSystem) -> TravelerFlows:
    """Logit demand split for every OD; rows sum to demand by normalization."""
    cs = compile_scenario(sc)
    q, _ = traveler_flow_matrix(cs, *cs.eta(prices.y))
    return TravelerFlows(cs, q)


def driver_utilities(
    sc: Scenario,
    n: int,
    choice: tuple[int, int] | str,
    prices: PriceSystem,
) -> float:
    """Deterministic utility of one driver option at node n.

    `choice` is a driver OD pair (r, s') or SIGN_OUT. Staying put costs no
    relocation time (t_nn = 0).
    """
    if n not in set(sc.network.nodes):
        raise UnknownNode(f"unknown node {n}")
    dp = sc.driver_params
    if choice == SIGN_OUT:
        return dp.beta0_H + dp.beta3 * sc.signout_bonus_at(n)
    if not (isinstance(choice, tuple) and choice in set(sc.driver_pairs)):
        raise UnknownChoice(f"driver choice {choice!r} not in scenario {sc.name!r}")
    r, _ = choice
    t_nr = 0.0 if n == r else sc.relocation_time(n, r)
    # rho is stored in driver column order, so a pair's first column is its market
    rho = float(prices.y[compile_scenario(sc).column_pairs.index(choice)])
    return dp.beta0_at(r) - dp.beta1 * t_nr + dp.beta3 * rho


def driver_flows_logit(
    sc: Scenario, n: int, Q_n: float, prices: PriceSystem
) -> dict[tuple[int, int] | str, float]:
    """Logit split of stock Q_n over all driver pairs plus sign-out."""
    if Q_n < 0:
        raise ValueError(f"stock Q_n must be >= 0, got {Q_n}")
    choices: list[tuple[int, int] | str] = list(sc.driver_pairs) + [SIGN_OUT]
    U = np.array([driver_utilities(sc, n, c, prices) for c in choices])
    P = _softmax(U)
    return {c: float(Q_n * P[i]) for i, c in enumerate(choices)}


def driver_flows_dual(sc: Scenario, prices: PriceSystem) -> DriverFlows:
    """Dual-consistent closed-form driver flows and stocks.

    Shares per node coincide exactly with `driver_flows_logit` at the
    resulting stock: the lambda factor is common to every choice at a node
    and cancels in the normalization.
    """
    cs = compile_scenario(sc)
    return DriverFlows(cs, *driver_flow_matrix(cs, *cs.rho_lam(prices.y)))
