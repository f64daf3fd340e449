"""Directed transportation graph: free-flow travel times, shortest paths, TNTP I/O.

Travel times are uncongested by construction, so every shortest-path query
runs on fixed link weights. All public types are immutable and hashable,
which lets per-origin Dijkstra labels be cached process-wide.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

INF = float("inf")


class NetgraphError(Exception):
    """Base class for network construction, query, and parser errors."""


class InvalidNetwork(NetgraphError):
    """Network invariants violated (self-loop, duplicate link, bad time)."""


class UnknownNode(NetgraphError):
    """A queried node id does not exist in the network."""


class NoPath(NetgraphError):
    """No directed path exists between the requested nodes."""


class MalformedHeader(NetgraphError):
    """TNTP metadata header is missing or incomplete."""


class LinkCountMismatch(NetgraphError):
    """Declared link count disagrees with the parsed rows."""


class NonPositiveTime(NetgraphError):
    """A link row carries a free-flow time <= 0."""


class UnparsableRow(NetgraphError):
    """A link row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Link(NamedTuple):
    frm: int
    to: int
    free_flow_time: float


@dataclass(frozen=True)
class Network:
    """Directed graph over integer zone ids with free-flow times in minutes."""

    nodes: tuple[int, ...]
    links: tuple[Link, ...]
    name: str = ""

    def __post_init__(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InvalidNetwork("duplicate node ids")
        if any(n < 1 for n in self.nodes):
            raise InvalidNetwork("node ids must be integers >= 1")
        seen: set[tuple[int, int]] = set()
        for link in self.links:
            if link.frm == link.to:
                raise InvalidNetwork(f"self-loop link at node {link.frm}")
            if (link.frm, link.to) in seen:
                raise InvalidNetwork(f"duplicate link ({link.frm},{link.to})")
            seen.add((link.frm, link.to))
            if link.frm not in node_set or link.to not in node_set:
                raise InvalidNetwork(
                    f"link ({link.frm},{link.to}) references an absent node"
                )
            if not link.free_flow_time > 0:
                raise InvalidNetwork(
                    f"link ({link.frm},{link.to}) has non-positive time"
                )

    @staticmethod
    def from_links(
        links: Iterable[tuple[int, int, float]],
        nodes: Iterable[int] | None = None,
        name: str = "",
    ) -> "Network":
        link_tuple = tuple(Link(int(a), int(b), float(t)) for a, b, t in links)
        if nodes is None:
            ids = sorted({n for l in link_tuple for n in (l.frm, l.to)})
        else:
            ids = sorted(set(int(n) for n in nodes))
        return Network(nodes=tuple(ids), links=link_tuple, name=name)


@dataclass(frozen=True)
class TimeMatrix:
    """Minimal o->d travel times for a requested node subset.

    Unreachable pairs are kept as explicit +inf entries; scenario validation
    rejects them rather than this module dropping them silently.
    """

    origins: tuple[int, ...]
    dests: tuple[int, ...]
    minutes: dict[tuple[int, int], float] = field(repr=False)

    def time(self, origin: int, dest: int) -> float:
        return self.minutes[(origin, dest)]


@lru_cache(maxsize=None)
def _adjacency(net: Network) -> dict[int, tuple[tuple[int, float], ...]]:
    out: dict[int, list[tuple[int, float]]] = {n: [] for n in net.nodes}
    for link in net.links:
        out[link.frm].append((link.to, link.free_flow_time))
    # sorted successors keep the heap contents order-independent of input
    return {n: tuple(sorted(v)) for n, v in out.items()}


@lru_cache(maxsize=None)
def _dijkstra(net: Network, origin: int) -> dict[int, float]:
    """Label-setting shortest times from one origin; ties settle on the
    smaller node id via (distance, node) heap keys."""
    adj = _adjacency(net)
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, origin)]
    while heap:
        d, n = heapq.heappop(heap)
        if n in dist:
            continue
        dist[n] = d
        for succ, w in adj[n]:
            if succ not in dist:
                heapq.heappush(heap, (d + w, succ))
    return dist


def shortest_time(net: Network, origin: int, dest: int) -> float:
    """Minimum free-flow travel time in minutes over directed paths."""
    node_set = set(net.nodes)
    if origin not in node_set:
        raise UnknownNode(f"unknown origin node {origin}")
    if dest not in node_set:
        raise UnknownNode(f"unknown destination node {dest}")
    if origin == dest:
        return 0.0
    dist = _dijkstra(net, origin)
    if dest not in dist:
        raise NoPath(f"no path from {origin} to {dest}")
    return dist[dest]


def time_matrix(
    net: Network, origins: Iterable[int], dests: Iterable[int]
) -> TimeMatrix:
    """All requested o->d shortest times, with +inf marking unreachable pairs."""
    origin_tuple = tuple(sorted(set(int(o) for o in origins)))
    dest_tuple = tuple(sorted(set(int(d) for d in dests)))
    node_set = set(net.nodes)
    for n in origin_tuple + dest_tuple:
        if n not in node_set:
            raise UnknownNode(f"unknown node {n}")
    minutes: dict[tuple[int, int], float] = {}
    for o in origin_tuple:
        dist = _dijkstra(net, o)
        for d in dest_tuple:
            minutes[(o, d)] = 0.0 if o == d else dist.get(d, INF)
    return TimeMatrix(origins=origin_tuple, dests=dest_tuple, minutes=minutes)


_REQUIRED_META = ("NUMBER OF NODES", "NUMBER OF LINKS")


def parse_tntp(text: bytes | str, name: str = "") -> Network:
    """Parse a TNTP network file into a Network.

    Expects the standard metadata header followed by whitespace-separated
    link rows terminated by ';'. Only init_node, term_node and field 5
    (free_flow_time) are kept; capacity, B, power, speed, toll and link_type
    are parsed positionally and ignored. Comment lines start with '~'.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NetgraphError(
                f"TNTP file is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    lines = text.splitlines()

    meta: dict[str, str] = {}
    body_start = None
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if stripped == "<END OF METADATA>":
            body_start = idx + 1
            break
        if stripped.startswith("<") and ">" in stripped:
            key, _, value = stripped.partition(">")
            meta[key[1:].strip()] = value.strip()
    if body_start is None:
        raise MalformedHeader("missing <END OF METADATA>")
    for key in _REQUIRED_META:
        if key not in meta:
            raise MalformedHeader(f"missing <{key}>")
    try:
        n_nodes = int(meta["NUMBER OF NODES"])
        n_links = int(meta["NUMBER OF LINKS"])
    except ValueError as exc:
        raise MalformedHeader(f"non-integer metadata value: {exc}") from None
    if n_nodes < 1:
        raise MalformedHeader("declared node count must be >= 1")

    links: list[Link] = []
    for idx in range(body_start, len(lines)):
        line_no = idx + 1
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("~"):
            continue
        if not stripped.endswith(";"):
            raise UnparsableRow(line_no, "link row not terminated by ';'")
        fields = stripped[:-1].split()
        if len(fields) < 5:
            raise UnparsableRow(
                line_no, f"expected >= 5 fields, found {len(fields)}"
            )
        try:
            init_node = int(fields[0])
            term_node = int(fields[1])
            fftt = float(fields[4])
        except ValueError:
            raise UnparsableRow(line_no, f"non-numeric field in {fields[:5]}") from None
        if not 1 <= init_node <= n_nodes or not 1 <= term_node <= n_nodes:
            raise UnparsableRow(
                line_no,
                f"node id outside declared range 1..{n_nodes}: "
                f"({init_node},{term_node})",
            )
        if not fftt > 0:
            raise NonPositiveTime(
                f"line {line_no}: free_flow_time {fftt} must be > 0"
            )
        links.append(Link(init_node, term_node, fftt))

    if len(links) != n_links:
        raise LinkCountMismatch(
            f"header declares {n_links} links, parsed {len(links)}"
        )
    return Network(nodes=tuple(range(1, n_nodes + 1)), links=tuple(links), name=name)


def serialize_tntp(net: Network) -> str:
    """Emit a Network as TNTP text; parse_tntp(serialize_tntp(n)) == n.

    Requires contiguous node ids 1..N (the TNTP convention). Fields the
    Network does not model are written as zeros (link_type as 1).
    """
    if net.nodes != tuple(range(1, len(net.nodes) + 1)):
        raise InvalidNetwork("TNTP serialization requires node ids 1..N")
    out = [
        f"<NUMBER OF ZONES> {len(net.nodes)}",
        f"<NUMBER OF NODES> {len(net.nodes)}",
        "<FIRST THRU NODE> 1",
        f"<NUMBER OF LINKS> {len(net.links)}",
        "<END OF METADATA>",
        "",
        "~ \tinit_node\tterm_node\tcapacity\tlength\tfree_flow_time\tb\tpower\tspeed\ttoll\tlink_type\t;",
    ]
    for link in net.links:
        out.append(
            f"\t{link.frm}\t{link.to}\t0\t0\t{link.free_flow_time!r}\t0\t0\t0\t0\t1\t;"
        )
    return "\n".join(out) + "\n"
