"""Dependency-graph construction and noisy-OR conditional probabilities.

Traffic from device ``a`` to device ``b`` makes ``b`` depend on ``a``; the
dependency is a directed edge a -> b whose weight is the communication
frequency expressed as a probability. Nodes are binary random variables.
Given a target node and a set of active parents, the conditional probability
of the target is combined noisy-OR style: parents act as independent
sufficient causes.

Two normalization schemes are supported for turning counts into edge
probabilities:

* ``global`` (default): edge probability = edge count / total message count
  in the window, so all edge probabilities sum to 1.
* ``per-sink``: edge count / total count into that edge's sink.

Graphs loaded from external files may carry ``none``, meaning probabilities
were supplied directly and no sum constraint is enforced.
"""

import math
from collections import Counter, defaultdict
from enum import Enum
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import QueryError, ValidationError
from .ingest import DNP3_SYSCALLS, Dnp3MessageType, IngestStats, RejectedLine
from .ingest import count_packet_log, is_integer
from .record import Record, store
from .topology import DeviceRole, Topology, UnmappedReport, is_xml_name

PROBABILITY_SUM_TOL = 1e-9


class Normalization(Enum):
    GLOBAL = "global"
    PER_SINK = "per-sink"
    NONE = "none"


def format_probability(p: float) -> str:
    """Render an edge probability for display: two decimals, e.g. '0.17'."""
    return f"{p:.2f}"


# ---------------------------------------------------------------------------
# Flow counting
# ---------------------------------------------------------------------------


class FlowCounts(NamedTuple):
    """Per (source device, sink device) message counts with a per-type breakdown.

    ``dropped`` counts the mapped records left out of ``entries``, so
    mapped = the entries' counts summed + ``dropped``.
    """

    entries: dict[tuple[str, str], dict[Dnp3MessageType, int]]
    window_label: str = ""
    dropped: int = 0


def count_flows(
    mapped: Iterable[tuple[str, str, Dnp3MessageType]], window_label: str = ""
) -> FlowCounts:
    """Aggregate (src name, dst name, message type) triples by pair and type.

    ``mapped`` is map_window's triples, one per record, or a mapping of triples to
    record counts. A triple inside one device is no dependency: it only adds to ``dropped``.
    """
    entries: dict[tuple[str, str], dict[Dnp3MessageType, int]] = {}
    dropped = 0
    counted = mapped if isinstance(mapped, Mapping) else Counter(mapped)  # copying raises peak RSS
    for (src, dst, message_type), n in counted.items():
        if src == dst:
            dropped += n
            continue
        entries.setdefault((src, dst), {})[message_type] = n  # each triple is seen once
    return FlowCounts(entries, window_label, dropped)


def collapse_to_scada(counts: FlowCounts, topology: Topology) -> tuple[FlowCounts, int]:
    """Merge both directions of device<->SCADA traffic into one device->SCADA entry.

    Entries not involving the SCADA master, and traffic inside one device, are
    dropped. Their total plus ``counts.dropped`` is returned alongside the
    collapsed counts, which carry it as their own ``dropped``.
    """
    scada = topology.scada_master.name
    entries: dict[tuple[str, str], dict[Dnp3MessageType, int]] = {}
    dropped_total = counts.dropped
    for (src, dst), by_type in counts.entries.items():
        if src == dst or scada not in (src, dst):  # one device's own traffic is no dependency
            dropped_total += sum(by_type.values())
            continue
        device = src if dst == scada else dst
        tgt = entries.setdefault((device, scada), {})
        for mt, n in by_type.items():
            tgt[mt] = tgt.get(mt, 0) + n
    return FlowCounts(entries, counts.window_label, dropped_total), dropped_total


# ---------------------------------------------------------------------------
# Graph types
# ---------------------------------------------------------------------------


class DgNode(Record):
    """A device node; modeled as a binary random variable."""

    __slots__ = ("name", "role")

    def __init__(self, name: str, role: DeviceRole = DeviceRole.OTHER):
        if not is_xml_name(name):
            raise ValidationError(f"node name must be a string XML can represent, got {name!r}")
        if type(role) is not DeviceRole:  # an enum with members has no subclasses
            raise ValidationError(f"node {name!r}: role must be a DeviceRole, got {role!r}")
        store(self, "name", name)
        store(self, "role", role)


_RLS, _READ, _RESPOND, _OPERATE = DNP3_SYSCALLS
_MODELED = frozenset(DNP3_SYSCALLS)
_NO_TYPES: Mapping[Dnp3MessageType, int] = MappingProxyType({})  # read, never stored
_NO_PARENTS: Mapping[str, float] = MappingProxyType({})  # every node with no in-edges shares it


class DgEdge(Record):
    """Directed dependency source -> sink with its probability weight.

    ``by_type`` is the security context: the per-message-type count breakdown
    behind this edge. Its keys must be modeled function codes; it is stored
    read-only, carrying all four. The hash ignores it; equality does not.
    """

    __slots__ = ("source", "sink", "probability", "count", "by_type")

    def __init__(
        self, source: str, sink: str, probability: float, count: int = 0,
        by_type: Mapping[Dnp3MessageType, int] = _NO_TYPES,
    ):
        # Exact types first: the isinstance checks are the slow path.
        if type(source) is not str and not isinstance(source, str):
            raise ValidationError(f"edge source must be a string, got {source!r}")
        if type(sink) is not str and not isinstance(sink, str):
            raise ValidationError(f"edge sink must be a string, got {sink!r}")
        if source == sink:
            raise ValidationError(f"self-edge not allowed: {source!r}")
        if type(probability) is not float and not (
            is_integer(probability) or isinstance(probability, float)
        ):
            raise ValidationError(
                f"edge {source}->{sink}: probability must be a number, got {probability!r}"
            )
        if not (0.0 <= probability <= 1.0):
            raise ValidationError(
                f"edge {source}->{sink}: probability {probability!r} outside [0, 1]"
            )
        if type(count) is not int and not is_integer(count):
            raise ValidationError(f"edge {source}->{sink}: count must be an integer, got {count!r}")
        if count < 0:
            raise ValidationError(f"edge {source}->{sink}: negative count")
        if not _MODELED.issuperset(by_type):
            bad = next(mt for mt in by_type if mt not in _MODELED)
            raise ValidationError(f"edge {source}->{sink}: unknown message type {bad!r}")
        get = by_type.get
        canonical = {_RLS: get(_RLS, 0), _READ: get(_READ, 0), _RESPOND: get(_RESPOND, 0),
                     _OPERATE: get(_OPERATE, 0)}
        for mt, n in canonical.items():
            if type(n) is not int and not is_integer(n):
                raise ValidationError(
                    f"edge {source}->{sink}: by_type[{mt.value!r}] must be an integer, got {n!r}"
                )
        if min(canonical.values()) < 0:
            raise ValidationError(f"edge {source}->{sink}: negative type count")
        store(self, "source", source)
        store(self, "sink", sink)
        store(self, "probability", float(probability))
        store(self, "count", count)
        store(self, "by_type", MappingProxyType(canonical))

    def __hash__(self):
        return hash((self.source, self.sink, self.probability, self.count))

    @property
    def key(self) -> tuple[str, str]:
        return (self.source, self.sink)


class DependencyGraph(Record):
    """Immutable probability-weighted digraph over device nodes.

    Nodes and edges are stored sorted (by name, by (source, sink)) so every
    serialization of the same graph is byte-identical. Under GLOBAL normalization the edge
    probabilities of a nonempty graph sum to 1. The one derived slot, ``_parents``, maps
    each node name, in node order, to its parents' ``{source: probability}``.

    The rules raise in a fixed order, each at its first breach in sorted order:
    normalization type; a node that is no DgNode, an edge that is no DgEdge;
    duplicate node; duplicate edge or undeclared endpoint; grand_total type and
    sign; then, when normalized, a zero probability or count without the other,
    the global or per-sink sum, the by_type total, grand_total, the count share.
    """

    __slots__ = ("nodes", "edges", "normalization", "grand_total", "_parents")

    def __init__(
        self, nodes: Iterable[DgNode], edges: Iterable[DgEdge],
        normalization: Normalization = Normalization.NONE, grand_total: int = 0,
    ):
        if not isinstance(normalization, Normalization):
            raise ValidationError(f"normalization must be a Normalization, got {normalization!r}")
        nodes, edges = list(nodes), list(edges)
        for kind, items, record in (("node", nodes, DgNode), ("edge", edges, DgEdge)):
            if bad := [item for item in items if not isinstance(item, record)]:  # before the sort
                raise ValidationError(f"{kind} must be a {record.__name__}, got {bad[0]!r}")
        nodes.sort(key=attrgetter("name"))
        edges.sort(key=attrgetter("source", "sink"))
        for a, b in zip(nodes, nodes[1:]):  # sorted: a duplicate follows its first copy
            if a.name == b.name:
                raise ValidationError(f"duplicate node {a.name!r}")
        parents = dict.fromkeys((n.name for n in nodes), _NO_PARENTS)

        in_edges: dict[str, dict[str, float]] = {}
        for prev, e in zip((None, *edges), edges):
            if prev is not None and prev.source == e.source and prev.sink == e.sink:
                raise ValidationError(f"duplicate edge {e.source}->{e.sink}")
            for endpoint in (e.source, e.sink):
                if endpoint not in parents:
                    raise ValidationError(
                        f"edge {e.source}->{e.sink} references undeclared node {endpoint!r}"
                    )
            in_edges.setdefault(e.sink, {})[e.source] = e.probability

        if type(grand_total) is not int and not is_integer(grand_total):
            raise ValidationError(f"grand_total must be an integer, got {grand_total!r}")
        if grand_total < 0:
            raise ValidationError("grand_total must be >= 0")
        if normalization is not Normalization.NONE:
            _check_normalized(edges, in_edges, normalization is Normalization.PER_SINK, grand_total)

        parents.update(in_edges)
        store(self, "nodes", tuple(nodes))
        store(self, "edges", tuple(edges))
        store(self, "normalization", normalization)
        store(self, "grand_total", grand_total)
        store(self, "_parents", parents)


def _check_normalized(edges: list[DgEdge], in_edges: dict[str, dict[str, float]],
                      sink_shares: bool, grand_total: int) -> None:
    """A normalized graph's rules, each in its own pass, in ``DependencyGraph``'s raise order."""
    for e in edges:
        if (e.probability == 0.0) != (e.count == 0):
            raise ValidationError(
                f"edge {e.source}->{e.sink}: zero probability must coincide with zero count"
            )
    if not sink_shares and edges:
        total = math.fsum(e.probability for e in edges)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValidationError(f"global normalization violated: probabilities sum to {total!r}")
    for sink, probs in in_edges.items() if sink_shares else ():
        total = math.fsum(probs.values())  # exactly rounded: the order cannot change it
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValidationError(f"per-sink normalization violated at {sink!r}: sum {total!r}")
    for e in edges:
        if e.count != (typed := sum(e.by_type.values())):
            raise ValidationError(
                f"edge {e.source}->{e.sink}: count {e.count} != by_type total {typed}"
            )
    sink_totals: dict[str, int] = {}
    for e in edges:
        sink_totals[e.sink] = sink_totals.get(e.sink, 0) + e.count
    if grand_total != (total := sum(sink_totals.values())):
        raise ValidationError(f"grand_total {grand_total} != edge count total {total}")
    for e in edges:
        share = e.count / (sink_totals[e.sink] if sink_shares else grand_total)
        if abs(e.probability - share) > PROBABILITY_SUM_TOL:
            raise ValidationError(
                f"edge {e.source}->{e.sink}: probability {e.probability!r} != count share {share!r}"
            )


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------


def edge_probabilities(
    counts: FlowCounts,
    normalization: Normalization = Normalization.GLOBAL,
    roles: Mapping[str, DeviceRole] | None = None,
) -> DependencyGraph:
    """Convert flow counts to a probability-weighted dependency graph.

    Under GLOBAL normalization each edge gets its count / grand_total; under PER_SINK, its
    count / (total into that sink), and a sink with no traffic raises ValidationError, as does
    a negative count. Zero traffic yields an empty graph. ``roles`` decorates nodes for export;
    unlisted names get DeviceRole.OTHER.
    """
    if normalization is Normalization.NONE:
        raise ValidationError("edge_probabilities requires global or per-sink normalization")
    roles = roles or {}
    per_sink = normalization is Normalization.PER_SINK
    sink_totals: dict[str, int] = defaultdict(int)
    for (src, dst), by_type in counts.entries.items():  # negatives could sum to zero traffic
        if min(by_type.values(), default=0) < 0:
            raise ValidationError(f"edge {src}->{dst}: negative type count")
        sink_totals[dst] += sum(by_type.values())
    grand_total = sum(sink_totals.values())
    if grand_total == 0:
        return DependencyGraph((), (), normalization, 0)
    if per_sink and (idle := [sink for sink, n in sink_totals.items() if not n]):
        raise ValidationError(f"per-sink normalization: no traffic into sink {idle[0]!r}")

    names = {name for pair in counts.entries for name in pair}  # the graph sorts them
    nodes = tuple(DgNode(name, roles.get(name, DeviceRole.OTHER)) for name in names)

    edges = []
    for (src, dst), by_type in counts.entries.items():
        total = sum(by_type.values())
        denominator = sink_totals[dst] if per_sink else grand_total
        edges.append(DgEdge(src, dst, total / denominator, total, by_type))  # copies by_type
    return DependencyGraph(nodes, tuple(edges), normalization, grand_total)


def noisy_or(parent_probs: Sequence[float], active: Sequence[int | bool]) -> float:
    """Noisy-OR combination: 1 - prod_i (1 - a_i * p_i).

    ``parent_probs`` are independent per-parent influence probabilities,
    ``active`` their 0/1 evidence flags. An empty parent set yields 0.0.
    Raises ValueError on length mismatch or a probability outside [0, 1].
    """
    if len(parent_probs) != len(active):
        raise ValueError(f"length mismatch: {len(parent_probs)} probabilities, {len(active)} flags")
    for p in parent_probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability outside [0, 1]: {p!r}")
    return _noisy_or([p for p, a in zip(parent_probs, active) if a])


def _noisy_or(live: list[float]) -> float:
    if 1.0 in live:
        return 1.0
    # log1p sums avoid 1 - prod(1 - p)'s cancellation at small p; 0.0 - x gives +0.0, not -0.0
    return 0.0 - math.expm1(math.fsum(math.log1p(-p) for p in live))


class ConditionalQuery(Record):
    """Probability query for one target node given active-parent evidence.

    ``evidence`` maps parent node names to ``bool`` active flags; parents absent
    from the map are treated as inactive. The query keeps its own read-only copy.
    """

    __slots__ = ("target", "evidence")

    def __init__(self, target: str, evidence: Mapping[str, bool] | None = None):
        if not isinstance(target, str):
            raise ValidationError(f"query target must be a string, got {target!r}")
        evidence = {} if evidence is None else dict(evidence)
        for name, flag in evidence.items():
            if type(flag) is not bool:
                raise ValidationError(f"evidence for {name!r} must be a bool, got {flag!r}")
        store(self, "target", target)
        store(self, "evidence", MappingProxyType(evidence))


def query(graph: DependencyGraph, q: ConditionalQuery) -> float:
    """``noisy_or`` of the target's parents: one parent-map lookup, one pass over the evidence.

    Raises QueryError for an unknown target, then for the first evidence name, in evidence
    order, that is no parent, even with a False flag. No evidence gives 0.0. Copies nothing.
    """
    if (probs := graph._parents.get(q.target)) is None:
        raise QueryError(f"unknown target node: {q.target!r}")
    if not q.evidence:
        return 0.0
    try:
        live = [p for name, flag in q.evidence.items() for p in (probs[name],) if flag]
    except KeyError as missing:
        raise QueryError(f"{missing.args[0]!r} is not a parent of {q.target!r}") from None
    return _noisy_or(live)


# ---------------------------------------------------------------------------
# End-to-end build
# ---------------------------------------------------------------------------


class BuildResult(NamedTuple):
    """``build_graph``'s graph, the capture's stats and first rejected lines, and each drop.

    stats.parsed - stats.filtered_out - unmapped.records = graph.grand_total + scada_dropped.
    """

    graph: DependencyGraph
    stats: IngestStats
    unmapped: UnmappedReport
    scada_dropped: int
    rejections: tuple[RejectedLine, ...]


def build_graph(lines: Iterable[bytes], topology: Topology, *, scada_collapse: bool = True,
                normalization: Normalization = Normalization.GLOBAL) -> BuildResult:
    """The whole pipeline over a capture's byte lines: count, filter, map, collapse, normalize.

    The two choices are keyword-only: ``scada_collapse`` runs ``collapse_to_scada``, and
    ``normalization`` goes to ``edge_probabilities``. Makes no record objects (a binary file
    iterates as lines), and filters and resolves each (src_addr, dst_addr, message type) key
    once: its n records add n to the unmapped records and n per unknown endpoint to
    ``by_addr``, or n to its device triple, which ``count_flows`` then tallies. Deterministic.
    """
    counts, rejected, rejections = count_packet_log(lines)
    parsed = sum(counts.values())
    named: Counter = Counter()
    unknown: Counter = Counter()
    filtered_out, unmapped = 0, 0
    for (src_addr, dst_addr, message_type), n in counts.items():
        if message_type not in DNP3_SYSCALLS:
            filtered_out += n
            continue
        src, dst = topology.resolve(src_addr), topology.resolve(dst_addr)
        if src is None or dst is None:
            unmapped += n
            for addr, device in ((src_addr, src), (dst_addr, dst)):
                if device is None:
                    unknown[addr] += n
            continue
        named[src.name, dst.name, message_type] += n
    del counts  # freed before the graph is built, which can reuse its memory

    flows = count_flows(named)
    del named  # also freed before the graph is built
    if scada_collapse:
        flows, _ = collapse_to_scada(flows, topology)
    graph = edge_probabilities(flows, normalization, topology.roles())
    stats = IngestStats(parsed + rejected, parsed, rejected, filtered_out)
    return BuildResult(graph, stats, UnmappedReport(unmapped, dict(unknown)), flows.dropped,
                       rejections)
