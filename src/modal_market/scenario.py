"""Problem instances: demands, hubs, transit legs, costs, and sign-in rates.

A Scenario bundles everything one equilibrium solve needs. Instances come
from three places: the builtin test systems (`builtin_5node`,
`builtin_sioux`), JSON documents (`load`/`save`), or direct construction.
Validation is collected, not thrown: `validate` returns a list of human-
readable violations so callers can report all problems at once.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property, lru_cache
from importlib import resources
from itertools import chain, product, repeat
from operator import eq, ge, itemgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .netgraph import INF, Network, TimeMatrix, parse_tntp, time_matrix

MODES = ("drive", "ride", "multi")


class ScenarioError(Exception):
    """Base class for scenario construction and I/O errors."""


class SchemaViolation(ScenarioError):
    """A scenario document does not conform to the JSON schema.

    `pointer` holds a JSON-pointer-style path to the offending element; it
    is empty for the document root, whose messages carry no prefix.
    """

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


class UnknownScenarioId(ScenarioError):
    """Requested builtin scenario id does not exist."""


@dataclass(frozen=True)
class TravelerParams:
    """Traveler utility coefficients (drive / ride / multimodal)."""

    beta0_drive: float = 4.0
    beta0_ride: float = 2.0
    beta0_multi: float = 1.0
    beta1_drive: float = 0.3   # 1/minute
    beta1_ride: float = 0.2
    beta1_multi: float = 0.1
    beta1_wait: float = 0.2    # transit-wait sensitivity, 1/minute
    beta2: float = 1.0         # price sensitivity, 1/currency


@dataclass(frozen=True)
class DriverParams:
    """Driver utility coefficients.

    `beta0_r` maps origin node -> locational attractiveness; missing nodes
    default to `beta0_r_default`.
    """

    beta0_H: float = 2.0       # sign-out attractiveness
    beta1: float = 0.3         # relocation-time sensitivity, 1/minute
    beta3: float = 1.0         # price sensitivity, 1/currency
    beta0_r: Mapping[int, float] = field(default_factory=dict)
    beta0_r_default: float = 0.0

    def beta0_at(self, node: int) -> float:
        return self.beta0_r.get(node, self.beta0_r_default)


@dataclass(frozen=True)
class ODSpec:
    """One traveler origin-destination relation with its mode data.

    Times are minutes, money is abstract currency, demand is travelers per
    analysis period. Range invariants are checked by `validate`, not here,
    so deliberately broken instances can be constructed and reported.
    """

    r: int
    s: int
    demand: float
    hub: int
    drive_time: float
    hub_access_time: float
    transit_time: float
    transit_wait: float
    transit_fare: float
    drive_cost: float
    parking_time: float
    parking_cost: float


class _ODTable(NamedTuple):
    """A scenario's OD data in array form, in od order: the ids as the
    exact ints of the ODs, and every numeric field as one row of a float
    array, the rows in `_OD_NUMBERS` order."""

    r: Sequence[int]
    s: Sequence[int]
    hub: Sequence[int]
    values: np.ndarray  # (len(_OD_NUMBERS), m)


@dataclass(frozen=True)
class Scenario:
    """One market instance. Its data is read once: the tables derived from
    it (the OD table, the relocation matrix), the compiled arrays and the
    validation verdict ride along on the instance, so a mapping changed in
    place after first use goes unseen. Change a scenario by building a new
    one (`dataclasses.replace`, `with_param`)."""

    name: str
    network: Network
    ods: tuple[ODSpec, ...]
    relocation_times: Mapping[tuple[int, int], float]
    signin: Mapping[int, float]
    traveler_params: TravelerParams
    driver_params: DriverParams
    signout_bonus: Mapping[int, float] = field(default_factory=dict)

    @cached_property
    def _od_table(self) -> _ODTable:
        """The OD table, the one cache derived from `ods`: `load` fills it
        from the document's columns, any other scenario builds it here on
        first use."""
        ods = self.ods
        values = [[getattr(od, name) for od in ods] for name in _OD_NUMBERS]
        return _ODTable([od.r for od in ods], [od.s for od in ods], [od.hub for od in ods],
                        np.array(values, dtype=float))

    @cached_property
    def _relocation_matrix(self) -> np.ndarray:
        """(n_nodes, n_origins) relocation minutes from each node, in node
        order, to each origin, NaN where the table has no entry: the one
        read of `relocation_times`, shared by `validate` and the compiled
        scenario."""
        nodes, origins = self.network.nodes, self.origins
        minutes = map(self.relocation_times.get, product(nodes, origins), repeat(math.nan))
        return np.array(list(minutes), dtype=float).reshape(len(nodes), len(origins))

    @cached_property
    def origins(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._od_table.r)))

    @cached_property
    def dests(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._od_table.s)))

    @cached_property
    def hubs(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._od_table.hub)))

    @cached_property
    def dropoffs(self) -> tuple[int, ...]:
        """S' = destinations union hubs."""
        return tuple(sorted(set(self.dests) | set(self.hubs)))

    @cached_property
    def rs_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._od_table.r, self._od_table.s))

    @cached_property
    def driver_pairs(self) -> tuple[tuple[int, int], ...]:
        """Driver OD set: direct pairs then hub legs, in od order, each once."""
        table = self._od_table
        return tuple(dict.fromkeys(chain(zip(table.r, table.s), zip(table.r, table.hub))))

    @cached_property
    def ods_of_hub(self) -> dict[int, tuple[int, ...]]:
        """RS(n): od indices assigned to each hub node."""
        by_hub: dict[int, list[int]] = {}
        for i, od in enumerate(self.ods):
            by_hub.setdefault(od.hub, []).append(i)
        return {hub: tuple(ix) for hub, ix in by_hub.items()}

    def od(self, r: int, s: int) -> ODSpec:
        for od in self.ods:
            if od.r == r and od.s == s:
                return od
        raise KeyError(f"no OD ({r},{s}) in scenario {self.name!r}")

    def relocation_time(self, n: int, r: int) -> float:
        return self.relocation_times[(n, r)]

    def signin_at(self, n: int) -> float:
        return self.signin.get(n, 0.0)

    def signout_bonus_at(self, n: int) -> float:
        return self.signout_bonus.get(n, 0.0)


def validate(sc: Scenario) -> list[str]:
    """Collect every invariant violation of the scenario data.

    An empty list does not mean solvable input: a finite coefficient can
    still overflow what the solver forms from it. 5node with
    `driver_params.beta3 = 1e-307` passes here, and `solve` raises
    ValidationFailed for it through `equilibrium.violations`, which adds
    those overflow checks to this list.

    The OD and relocation checks run on the OD table, the relocation matrix
    and sets of ids; only the ODs and relocation entries that fail one are
    walked, in order, to word their violations. The solver reads no
    relocation entry outside the node x origin matrix, but `save` writes
    it, so it must name network nodes and hold a finite time >= 0 too. The
    table is walked for such entries only when it holds more entries than
    the matrix has cells, or when the matrix fails a check."""
    out: list[str] = []
    nodes = set(sc.network.nodes)
    table = sc._od_table
    pairs = list(zip(table.r, table.s))

    if not pairs:
        out.append("/ods: scenario defines no OD pairs")

    fine = (table.values >= _OD_LEAST) & (table.values < INF)
    failing = set() if fine.all() else set(np.flatnonzero(~fine.all(axis=0)).tolist())
    repeated = _repeats(pairs)
    failing |= repeated
    if any(map(eq, table.r, table.s)) or not nodes.issuperset(chain(table.r, table.s, table.hub)):
        failing.update(i for i, ids in enumerate(zip(table.r, table.s, table.hub))
                       if ids[0] == ids[1] or not nodes.issuperset(ids))
    for i in sorted(failing):
        od, p = sc.ods[i], f"/ods/{i}"
        if od.r == od.s:
            out.append(f"{p}: origin equals destination ({od.r})")
        if i in repeated:
            out.append(f"{p}: duplicate OD pair ({od.r},{od.s})")
        for label, node in (("r", od.r), ("s", od.s), ("hub", od.hub)):
            if node not in nodes:
                out.append(f"{p}/{label}: node {node} absent from network")
        if not od.demand > 0:
            out.append(f"{p}/demand: OD ({od.r},{od.s}) demand {od.demand} must be > 0")
        elif not od.demand < INF:
            out.append(f"{p}/demand: OD ({od.r},{od.s}) demand {od.demand} must be finite")
        for label in ("drive_time", "hub_access_time", "transit_time", "transit_wait",
                      "parking_time", "transit_fare", "drive_cost", "parking_cost"):
            value = getattr(od, label)
            if not 0 <= value < INF:
                out.append(f"{p}/{label}: {value} must be finite and >= 0")

    # one price per driver OD pair: a hub leg may not collide with a direct
    # pair or with another od's hub leg from the same origin
    legs = list(zip(table.r, table.hub))
    direct = set(pairs)
    collides = set() if direct.isdisjoint(legs) else {
        i for i, leg in enumerate(legs) if leg in direct}
    reused = _repeats(legs)
    for i in sorted(collides | reused):
        if i in collides:
            out.append(
                f"/ods/{i}/hub: hub leg {legs[i]} collides with a direct OD pair; "
                "driver market for that pair would be ambiguous"
            )
        if i in reused:
            out.append(
                f"/ods/{i}/hub: hub leg {legs[i]} already used by another OD; "
                "driver market for that pair would be ambiguous"
            )

    T = sc._relocation_matrix
    fine = (T >= 0) & (T < INF)
    for k, j in [] if fine.all() else np.argwhere(~fine).tolist():
        n, r = sc.network.nodes[k], sc.origins[j]
        t = sc.relocation_times.get((n, r))
        if t is None:
            out.append(f"/relocation_times/{n}/{r}: missing entry")
        else:
            out.append(
                f"/relocation_times/{n}/{r}: {t} must be finite and >= 0 "
                "(unreachable relocation leg)"
            )
    if len(sc.relocation_times) > T.size or not fine.all():
        origins = set(sc.origins)
        for (n, r), t in sc.relocation_times.items():
            if n in nodes and r in origins:
                continue  # a matrix entry, checked above
            absent = [node for node in (n, r) if node not in nodes]
            if absent:
                out.append(f"/relocation_times/{n}/{r}: node {absent[0]} absent from network")
            elif not 0 <= t < INF:
                out.append(f"/relocation_times/{n}/{r}: {t} must be finite and >= 0")

    dropoffs = set(sc.dropoffs)
    for n, rate in sc.signin.items():
        if n not in nodes:
            out.append(f"/signin/{n}: node absent from network")
        elif not 0 <= rate < INF:
            out.append(f"/signin/{n}: rate {rate} must be finite and >= 0")
    for n in sc.network.nodes:
        if n not in dropoffs and not sc.signin_at(n) > 0:
            out.append(
                f"/signin/{n}: node {n} receives no drop-offs, so a zero "
                "sign-in rate leaves its driver stock equation unsatisfiable"
            )
    # drivers sign out at every node, so stocks that balance need some
    # sign-in: with none, phi has no minimizer and the prices no solution
    total = sum(sc.signin.values())
    if not total > 0:
        out.append(
            f"/signin: total sign-in rate {total} must be > 0; without sign-ins "
            "the sign-outs leave no driver stocks that clear the market"
        )

    for n in sc.signout_bonus:
        if n not in nodes:
            out.append(f"/signout_bonus/{n}: node absent from network")

    tp, dp = sc.traveler_params, sc.driver_params
    coefficients = {
        **{f"/traveler_params/{name}": getattr(tp, name) for name in _TRAVELER_FIELDS},
        **{f"/driver_params/{name}": getattr(dp, name) for name in _DRIVER_FIELDS},
        **{f"/driver_params/beta0_r/{n}": value for n, value in dp.beta0_r.items()},
        **{f"/signout_bonus/{n}": value for n, value in sc.signout_bonus.items()},
    }
    # a coefficient is reported once: by its range if it has one and fails
    # it, else if it is not finite (NaN and +inf pass the `>= 0` test, and
    # +inf the `> 0` test)
    ranges = [("/traveler_params/beta2", "> 0")]
    ranges += [(f"/traveler_params/beta1_{x}", ">= 0") for x in ("drive", "ride", "multi", "wait")]
    ranges += [("/driver_params/beta3", "> 0"), ("/driver_params/beta1", ">= 0")]
    for pointer, need in ranges:
        value = coefficients[pointer]
        if value < 0 or (need == "> 0" and not value > 0):
            out.append(f"{pointer}: {coefficients.pop(pointer)} must be {need}")
    for pointer, value in coefficients.items():
        if not math.isfinite(value):
            out.append(f"{pointer}: {value} must be finite")

    return out


def _repeats(keys: list) -> set[int]:
    """The indices of the keys that occur at an earlier index."""
    if len(set(keys)) == len(keys):
        return set()
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return {i for i, key in enumerate(keys) if first[key] != i}


# ---------------------------------------------------------------------------
# builtin instances


#: Free parameters of the builtin 5-node system. Structural quantities
#: (demand 100 per OD, 20 sign-ins per node, the 40-minute transit vs
#: 20-minute drive hub legs, and the coefficient set) are fixed; the rest
#: are calibration choices tuned so the system shows its reference
#: behaviors: ride > drive > multi at the default price sensitivity, drive
#: winning with subsidized hub legs at low sensitivity, drivers mostly
#: serving their own zone. Override any of them through the JSON schema.
FIVE_NODE_DEFAULTS: dict[str, float] = {
    "main_drive_time": 12.0,   # links (1,2) and (2,1)
    "hub_access_time": 8.0,    # links (1,3),(3,1),(2,4),(4,2)
    "bystander_time": 15.0,    # links (5,1),(5,2)
    "hub_leg_drive_time": 20.0,  # links (3,2),(4,1); stated drive time
    "transit_time": 40.0,      # stated transit time on the hub legs
    "transit_wait": 5.0,
    "transit_fare": 1.0,
    "drive_cost": 5.0,
    "parking_time": 1.0,
    "parking_cost": 1.0,
    "demand": 100.0,           # stated, both OD pairs
    "signin": 20.0,            # stated, every node
}


def _relocation_from_network(
    net: Network,
    origins: tuple[int, ...],
    overrides: Mapping[tuple[int, int], float] | None = None,
    tm: TimeMatrix | None = None,
) -> dict[tuple[int, int], float]:
    """Shortest times from every node to every origin, taken from `tm`
    where it is given, then the overrides."""
    if tm is None:
        tm = time_matrix(net, net.nodes, origins)
    out = {(n, r): tm.time(n, r) for n in net.nodes for r in origins}
    if overrides:
        out.update(overrides)
    return dict(sorted(out.items()))


def builtin_5node() -> Scenario:
    """The symmetric 5-node system: two OD pairs, two hubs, one bystander node."""
    cfg = FIVE_NODE_DEFAULTS
    net = Network.from_links(
        [
            (1, 2, cfg["main_drive_time"]),
            (2, 1, cfg["main_drive_time"]),
            (1, 3, cfg["hub_access_time"]),
            (3, 1, cfg["hub_access_time"]),
            (2, 4, cfg["hub_access_time"]),
            (4, 2, cfg["hub_access_time"]),
            (3, 2, cfg["hub_leg_drive_time"]),
            (4, 1, cfg["hub_leg_drive_time"]),
            (5, 1, cfg["bystander_time"]),
            (5, 2, cfg["bystander_time"]),
        ],
        nodes=[1, 2, 3, 4, 5],
        name="5node",
    )

    def od(r: int, s: int, hub: int) -> ODSpec:
        return ODSpec(
            r=r,
            s=s,
            demand=cfg["demand"],
            hub=hub,
            drive_time=cfg["main_drive_time"],
            hub_access_time=cfg["hub_access_time"],
            transit_time=cfg["transit_time"],
            transit_wait=cfg["transit_wait"],
            transit_fare=cfg["transit_fare"],
            drive_cost=cfg["drive_cost"],
            parking_time=cfg["parking_time"],
            parking_cost=cfg["parking_cost"],
        )

    ods = (od(1, 2, 3), od(2, 1, 4))
    return Scenario(
        name="5node",
        network=net,
        ods=ods,
        relocation_times=_relocation_from_network(net, (1, 2)),
        signin={n: cfg["signin"] for n in net.nodes},
        traveler_params=TravelerParams(),
        driver_params=DriverParams(),
    )


_SIOUX_DEMANDS = {
    (1, 13): 500.0,
    (4, 24): 200.0,
    (5, 22): 200.0,
    (6, 21): 100.0,
    (7, 20): 500.0,
    (19, 5): 100.0,
    (23, 9): 500.0,
}

_SIOUX_HUBS = {
    1: {(1, 13): 10, (4, 24): 10, (5, 22): 10, (6, 21): 10, (7, 20): 10,
        (19, 5): 15, (23, 9): 15},
    2: {(1, 13): 11, (4, 24): 11, (5, 22): 11, (6, 21): 16, (7, 20): 16,
        (19, 5): 15, (23, 9): 15},
    3: {(1, 13): 12, (4, 24): 11, (5, 22): 10, (6, 21): 16, (7, 20): 18,
        (19, 5): 15, (23, 9): 22},
}

#: Sioux Falls free parameters; same conventions as the 5-node system,
#: configurable via the JSON schema.
SIOUX_DEFAULTS: dict[str, float] = {
    "signin": 20.0,
    "transit_wait": 10.0,
    "transit_fare": 2.0,
    "drive_cost": FIVE_NODE_DEFAULTS["drive_cost"],
    "parking_time": FIVE_NODE_DEFAULTS["parking_time"],
    "parking_cost": FIVE_NODE_DEFAULTS["parking_cost"],
}


@lru_cache(maxsize=1)
def sioux_network() -> Network:
    """The vendored Sioux Falls benchmark network (24 nodes, 76 links)."""
    text = resources.files("modal_market.data").joinpath("siouxfalls_net.tntp").read_text()
    return parse_tntp(text, name="siouxfalls")


@lru_cache(maxsize=1)
def _sioux_times() -> TimeMatrix:
    """Free-flow shortest times between all nodes of `sioux_network`."""
    net = sioux_network()
    return time_matrix(net, net.nodes, net.nodes)


def builtin_sioux(hubs: int) -> Scenario:
    """Sioux Falls instance `hubs` in {1,2,3}: 2, 3 or 7 transit hubs.

    Travel and relocation times come from free-flow shortest paths; transit
    time is twice the free-flow hub->destination time.
    """
    if hubs not in _SIOUX_HUBS:
        raise UnknownScenarioId(f"builtin sioux scenario must be 1, 2 or 3, got {hubs!r}")
    net = sioux_network()
    hub_map = _SIOUX_HUBS[hubs]
    cfg = SIOUX_DEFAULTS
    tm = _sioux_times()

    ods = []
    for (r, s), demand in _SIOUX_DEMANDS.items():
        h = hub_map[(r, s)]
        ods.append(
            ODSpec(
                r=r,
                s=s,
                demand=demand,
                hub=h,
                drive_time=tm.time(r, s),
                hub_access_time=tm.time(r, h),
                transit_time=2.0 * tm.time(h, s),
                transit_wait=cfg["transit_wait"],
                transit_fare=cfg["transit_fare"],
                drive_cost=cfg["drive_cost"],
                parking_time=cfg["parking_time"],
                parking_cost=cfg["parking_cost"],
            )
        )
    ods_tuple = tuple(ods)
    origins = tuple(sorted({od.r for od in ods_tuple}))
    return Scenario(
        name=f"sioux{hubs}",
        network=net,
        ods=ods_tuple,
        relocation_times=_relocation_from_network(net, origins, tm=tm),
        signin={n: cfg["signin"] for n in net.nodes},
        traveler_params=TravelerParams(),
        driver_params=DriverParams(),
    )


def builtin(name: str) -> Scenario:
    """Resolve a `builtin:` name: 5node, sioux1, sioux2 or sioux3."""
    key = name.removeprefix("builtin:")
    if key == "5node":
        return builtin_5node()
    if key.startswith("sioux") and key[5:] in ("1", "2", "3"):
        return builtin_sioux(int(key[5:]))
    raise UnknownScenarioId(f"unknown builtin scenario {name!r}")


# ---------------------------------------------------------------------------
# JSON schema


def _want(doc: Any, pointer: str, typ: type, what: str) -> Any:
    if not isinstance(doc, typ) or isinstance(doc, bool):
        raise SchemaViolation(pointer, f"expected {what}")
    return doc


def _want_number(doc: Any, pointer: str, nonneg: bool = False) -> float:
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise SchemaViolation(pointer, "expected a number")
    try:
        value = float(doc)
    except OverflowError:  # an integer literal beyond float range
        raise SchemaViolation(pointer, "number out of float range") from None
    if nonneg and value < 0:
        raise SchemaViolation(pointer, f"must be >= 0, got {doc}")
    return value


def _want_int(doc: Any, pointer: str) -> int:
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise SchemaViolation(pointer, "expected an integer")
    return doc


def _want_key(obj: dict, key: str, pointer: str) -> Any:
    if key not in obj:
        raise SchemaViolation(f"{pointer}/{key}", "required key missing")
    return obj[key]


def _node_map(doc: Any, pointer: str, nonneg: bool = False) -> dict[int, float]:
    obj = _want(doc, pointer, dict, "an object keyed by node id")
    out: dict[int, float] = {}
    for key, value in obj.items():
        p = f"{pointer}/{key}"
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise SchemaViolation(p, "key must be an integer node id") from None
        if node in out:
            raise SchemaViolation(p, f"node {node} given twice")
        out[node] = _want_number(value, p, nonneg=nonneg)
    return out


def _block(root: dict, key: str) -> dict:
    """The object at top-level `key` of a scenario document."""
    return _want(_want_key(root, key, ""), f"/{key}", dict, "an object")


def _numbers(block: dict, pointer: str, names: Iterable[str]) -> dict[str, float]:
    """The named parameters of the block at `pointer`, read in order, each a
    required number."""
    return {name: _want_number(_want_key(block, name, pointer), f"{pointer}/{name}")
            for name in names}


#: The fields of an entry of each schema table, in the order they are checked.
_LINK_FIELDS = (("from", "int"), ("to", "int"), ("fftt", "num"))
_OD_FIELDS = (
    ("r", "int"), ("s", "int"), ("hub", "int"),
    ("demand", "num"),
    ("drive_time", "nonneg"), ("hub_access_time", "nonneg"),
    ("transit_time", "nonneg"), ("transit_wait", "nonneg"),
    ("transit_fare", "nonneg"), ("drive_cost", "nonneg"),
    ("parking_time", "nonneg"), ("parking_cost", "nonneg"),
)
_OVERRIDE_FIELDS = (("n", "int"), ("r", "int"), ("minutes", "nonneg"))
#: The rows of an OD table's values: the numeric OD fields in `_OD_FIELDS` order.
_OD_NUMBERS = tuple(fname for fname, kind in _OD_FIELDS if kind != "int")
#: The least valid value of each row: demand must be > 0, that is at least
#: the least positive float, every other field >= 0.
_OD_LEAST = np.array([math.ulp(0.0)] + [0.0] * (len(_OD_NUMBERS) - 1))[:, None]
_OD_SPEC_FIELDS = tuple(f.name for f in fields(ODSpec))

#: The scalar parameters of each block, in dataclass field order, read and
#: written by name; the driver block's `beta0_r` node map is not a scalar.
_TRAVELER_FIELDS = tuple(f.name for f in fields(TravelerParams))
_DRIVER_FIELDS = tuple(f.name for f in fields(DriverParams) if f.name != "beta0_r")


def _walk_entry(doc: Any, pointer: str, fields: tuple[tuple[str, str], ...]) -> tuple:
    """One table entry's values in field order, checked field by field: the
    first fault raises the SchemaViolation that names it."""
    obj = _want(doc, pointer, dict, "an object")
    values = []
    for fname, kind in fields:
        value = _want_key(obj, fname, pointer)
        fp = f"{pointer}/{fname}"
        if kind == "int":
            values.append(_want_int(value, fp))
        else:
            values.append(_want_number(value, fp, nonneg=(kind == "nonneg")))
    return tuple(values)


def _quick_table(doc: Any, fields: tuple[tuple[str, str], ...]) -> list[Sequence] | None:
    """Every entry's values as `_walk_entry` returns them, one column per
    field, or None unless the whole table passes one quick test: an exact
    list of exact dicts holding every field, ids exact ints, numbers exact
    ints or floats within float range and nonneg numbers >= 0. The test
    accepts a subset of what the walk accepts (a float subclass or a NaN
    goes to the walk), so it never decides whether a document loads, only
    how fast."""
    if type(doc) is not list or not set(map(type, doc)) <= {dict}:
        return None
    try:
        rows = list(map(itemgetter(*(fname for fname, _ in fields)), doc))
    except KeyError:
        return None
    columns = []
    for (_, kind), column in zip(fields, zip(*rows)):
        types = set(map(type, column))
        if kind == "int":
            if types != {int}:
                return None
        elif not types <= {int, float} or (
            kind == "nonneg" and not all(map(ge, column, repeat(0)))
        ):
            return None
        elif int in types:
            try:
                column = tuple(map(float, column))
            except OverflowError:
                return None
        columns.append(column)
    return columns


def _table(doc: Any, pointer: str, fields: tuple[tuple[str, str], ...]) -> list[Sequence]:
    """The values of every entry of the schema table, an array, at
    `pointer`, one column per field. A table that fails the quick test is
    walked from its first entry, so a fault is named exactly as the walk
    alone would name it."""
    _want(doc, pointer, list, "an array")
    columns = _quick_table(doc, fields)
    if columns is None:
        columns = list(zip(*[_walk_entry(entry, f"{pointer}/{i}", fields)
                             for i, entry in enumerate(doc)]))
    return columns or [()] * len(fields)


def _od_specs(rows: Iterable[tuple]) -> tuple[ODSpec, ...]:
    """ODSpecs from rows of values in field order, each built as `copy` and
    `pickle` restore a frozen dataclass, through its instance `__dict__`,
    not through one `object.__setattr__` call per field."""
    new, out = object.__new__, []
    for row in rows:
        od = new(ODSpec)
        od.__dict__.update(zip(_OD_SPEC_FIELDS, row))
        out.append(od)
    return tuple(out)


def load(doc: bytes | str | dict) -> Scenario:
    """Build a Scenario from a schema-conforming JSON document."""
    if isinstance(doc, (bytes, str)):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaViolation("", f"invalid JSON: {exc}") from None
    root = _want(doc, "", dict, "an object")

    name = _want(_want_key(root, "name", ""), "/name", str, "a string")

    net_doc = _block(root, "network")
    net_name = _want(net_doc.get("name", name), "/network/name", str, "a string")
    nodes_doc = _want(_want_key(net_doc, "nodes", "/network"), "/network/nodes",
                      list, "an array")
    nodes = tuple(_want_int(n, f"/network/nodes/{i}") for i, n in enumerate(nodes_doc))
    links = _table(_want_key(net_doc, "links", "/network"), "/network/links", _LINK_FIELDS)
    try:
        network = Network.from_links(zip(*links), nodes=nodes, name=net_name)
    except Exception as exc:
        raise SchemaViolation("/network", str(exc)) from None

    r, s, hub, demand, *rest = _table(_want_key(root, "ods", ""), "/ods", _OD_FIELDS)
    # _OD_FIELDS checks hub before demand, ODSpec holds demand first
    ods_tuple = _od_specs(zip(r, s, demand, hub, *rest))
    od_table = _ODTable(r, s, hub, np.array([demand, *rest], dtype=float))

    reloc_doc = _block(root, "relocation_times")
    auto = _want_key(reloc_doc, "auto_shortest_path", "/relocation_times")
    if not isinstance(auto, bool):
        raise SchemaViolation("/relocation_times/auto_shortest_path", "expected a boolean")
    at, to, minutes = _table(reloc_doc.get("overrides", []),
                             "/relocation_times/overrides", _OVERRIDE_FIELDS)
    overrides = dict(zip(zip(at, to), minutes))
    if len(overrides) < len(minutes):
        i = min(_repeats(list(zip(at, to))))
        raise SchemaViolation(f"/relocation_times/overrides/{i}",
                              f"relocation time ({at[i]}, {to[i]}) given twice")
    origins = tuple(sorted(set(r)))
    if auto:
        relocation = _relocation_from_network(network, origins, overrides)
    else:
        relocation = dict(sorted(overrides.items()))

    signin = _node_map(_want_key(root, "signin", ""), "/signin", nonneg=True)

    traveler = TravelerParams(**_numbers(_block(root, "traveler_params"), "/traveler_params",
                                         _TRAVELER_FIELDS))

    dp_doc = _block(root, "driver_params")
    beta0_r = dp_doc.get("beta0_r", {})
    if isinstance(beta0_r, dict):
        beta0_r = _node_map(beta0_r, "/driver_params/beta0_r")
        default = _want_number(dp_doc.get("beta0_r_default", 0.0),
                               "/driver_params/beta0_r_default")
    elif "beta0_r_default" in dp_doc:
        raise SchemaViolation("/driver_params/beta0_r_default",
                              "given beside a number beta0_r, which is the default")
    else:
        beta0_r, default = {}, _want_number(beta0_r, "/driver_params/beta0_r")
    if "beta2" in dp_doc:
        _want_number(dp_doc["beta2"], "/driver_params/beta2")
        warnings.warn(
            "driver_params.beta2 is accepted for compatibility but enters no "
            "driver equation; it is ignored",
            stacklevel=2,
        )
    # the default, checked above in either form, is read as one more scalar
    dp_doc = {**dp_doc, "beta0_r_default": default}
    driver = DriverParams(beta0_r=beta0_r, **_numbers(dp_doc, "/driver_params", _DRIVER_FIELDS))

    bonus = _node_map(root.get("signout_bonus", {}), "/signout_bonus")

    sc = Scenario(
        name=name,
        network=network,
        ods=ods_tuple,
        relocation_times=relocation,
        signin=signin,
        traveler_params=traveler,
        driver_params=driver,
        signout_bonus=bonus,
    )
    sc.__dict__["_od_table"] = od_table
    return sc


def params_document(tp: TravelerParams, dp: DriverParams) -> dict[str, Any]:
    """The `traveler_params` and `driver_params` blocks of a scenario
    document. `beta0_r` is the default when no node has its own value;
    beside a node map, the default is written unless it is 0.0."""
    driver = {name: getattr(dp, name) for name in _DRIVER_FIELDS}
    if not dp.beta0_r:
        driver["beta0_r"] = driver.pop("beta0_r_default")
    else:
        driver["beta0_r"] = _node_document(dp.beta0_r)
        if dp.beta0_r_default == 0.0:
            del driver["beta0_r_default"]
    return {
        "traveler_params": {name: getattr(tp, name) for name in _TRAVELER_FIELDS},
        "driver_params": driver,
    }


def _node_document(values: Mapping[int, float]) -> dict[str, float]:
    """A node map's document: the values keyed by node id strings, in node order."""
    return {str(n): v for n, v in sorted(values.items())}


def network_document(net: Network) -> dict[str, Any]:
    """The `nodes` and `links` of a scenario document's `network` block."""
    return {
        "nodes": list(net.nodes),
        "links": [{"from": l.frm, "to": l.to, "fftt": l.free_flow_time} for l in net.links],
    }


def to_document(sc: Scenario) -> dict:
    """Canonical JSON document for a Scenario (load(to_document(sc)) == sc).

    Relocation times are materialized as explicit overrides so the document
    stands alone without the shortest-path derivation.
    """
    doc: dict[str, Any] = {
        "name": sc.name,
        "network": {"name": sc.network.name, **network_document(sc.network)},
        "ods": [
            {fname: getattr(od, fname) for fname, _ in _OD_FIELDS}
            for od in sc.ods
        ],
        "relocation_times": {
            "auto_shortest_path": False,
            "overrides": [
                {"n": n, "r": r, "minutes": minutes}
                for (n, r), minutes in sorted(sc.relocation_times.items())
            ],
        },
        "signin": _node_document(sc.signin),
        **params_document(sc.traveler_params, sc.driver_params),
    }
    if sc.signout_bonus:
        doc["signout_bonus"] = _node_document(sc.signout_bonus)
    return doc


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """json's encoder for a container of scalars whose items sit `depth`
    indents deep: the item separator carries the newline and indent that
    json.dumps(..., indent=2) writes between them. With no `indent` of its
    own, the encoder runs json's C encoder where there is one."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))


def canonical_json(doc: Any, depth: int = 0) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte, for a
    document `depth` indents deep.

    Given an `indent`, json.dumps walks every value with json's pure-Python
    encoder. Here Python walks only the dicts, lists and tuples that hold
    another one; each that holds scalars alone is encoded in one call
    (`_flat_encoder`), then wrapped in its brackets' newlines and indent.
    The dicts that Python walks must have str keys.
    """
    if isinstance(doc, dict):
        values = doc.values()
    elif isinstance(doc, (list, tuple)):
        values = doc
    else:
        return _flat_encoder(depth).encode(doc)
    indent, inner = "  " * depth, "  " * (depth + 1)
    if not any(isinstance(v, (dict, list, tuple)) for v in values):
        text = _flat_encoder(depth + 1).encode(doc)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}" if doc else text
    if isinstance(doc, dict):
        items = [
            f"{json.encoder.encode_basestring_ascii(key)}: {canonical_json(value, depth + 1)}"
            for key, value in sorted(doc.items())
        ]
        brackets = "{}"
    else:
        items = [canonical_json(value, depth + 1) for value in doc]
        brackets = "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def save(sc: Scenario) -> bytes:
    """Serialize a Scenario to canonical JSON bytes."""
    return (canonical_json(to_document(sc)) + "\n").encode()


def with_param(sc: Scenario, path: str, value: float) -> Scenario:
    """Return a copy of `sc` with the scalar at dotted `path` replaced.

    Paths address dataclass attributes, e.g. "traveler_params.beta2" or
    "driver_params.beta0_H".
    """
    parts = path.split(".")
    if not parts or not all(parts):
        raise ValueError(f"empty parameter path {path!r}")

    def rebuild(obj: Any, remaining: list[str]) -> Any:
        attr = remaining[0]
        if not is_dataclass(obj) or not hasattr(obj, attr):
            raise ValueError(f"{type(obj).__name__} has no parameter {attr!r}")
        if len(remaining) == 1:
            current = getattr(obj, attr)
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise ValueError(f"parameter {path!r} is not a scalar")
            return replace(obj, **{attr: float(value)})
        child = rebuild(getattr(obj, attr), remaining[1:])
        return replace(obj, **{attr: child})

    return rebuild(sc, parts)
