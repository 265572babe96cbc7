"""Every record is immutable, equal records hash equal, and validated ones stay validated."""

import copy
import pickle

import pytest

from cyberdep.depgraph import (
    ConditionalQuery,
    DependencyGraph,
    DgEdge,
    DgNode,
    Normalization,
)
from cyberdep.errors import ValidationError
from cyberdep.graphio import FORMATS, render_graph
from cyberdep.ingest import (
    CaptureWindow,
    Dnp3MessageType,
    IngestStats,
    PacketRecord,
    RejectedLine,
)
from cyberdep.record import Record, store
from cyberdep.scenario import ComparisonReport, ScenarioKind, ScenarioRun
from cyberdep.synth import TrafficProfile
from cyberdep.topology import Device, DeviceRole, Topology, UnmappedReport

READ = Dnp3MessageType.READ


def graph():
    return DependencyGraph((DgNode("s", DeviceRole.SCADA_MASTER), DgNode("a")),
                           (DgEdge("a", "s", 1.0, 2, {READ: 2}),), Normalization.GLOBAL, 2)


def record_ids(value):
    return type(value()).__name__


# Each factory builds a fresh record; two calls give equal records. The flag
# says whether the record is hashable (it holds no dict).
RECORDS = [
    (lambda: DgNode("a", DeviceRole.FIELD_DEVICE), True),
    (lambda: DgEdge("a", "s", 0.5, 1, {READ: 1}), True),
    (graph, True),
    (lambda: ConditionalQuery("s", {"a": True}), False),
    (lambda: PacketRecord(1, "10.0.0.1", "10.0.0.2", READ), True),
    (lambda: IngestStats(3, 2, 1, 0), True),
    (lambda: RejectedLine(2, "not a json object"), True),
    (lambda: CaptureWindow((PacketRecord(1, "10.0.0.1", "10.0.0.2", READ),), "cap",
                           IngestStats(1, 1, 0, 0), ()), True),
    (lambda: Device("a", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.2"})), True),
    (lambda: Topology((Device("s", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),)), True),
    (lambda: UnmappedReport(1, {"10.0.0.9": 1}), False),
    (lambda: ScenarioRun(ScenarioKind.BASELINE, 1, "cap.jsonl", graph()), True),
    (lambda: ComparisonReport((), (ScenarioKind.BASELINE, 1), {}, {},
                              {"baseline_uniform": True, "dos_top2": None}, {}), False),
    (lambda: TrafficProfile(ScenarioKind.BASELINE, {"a": 1.0}, n_messages=5), False),
]


@pytest.mark.parametrize("make, hashable", RECORDS, ids=[record_ids(m) for m, _ in RECORDS])
def test_records_are_immutable_and_hash_by_value(make, hashable):
    record, same = make(), make()
    assert record == same
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(same, name))
    if hashable:
        assert hash(record) == hash(same)
        assert {record, same} == {record}
    if isinstance(record, Record):  # validated: no way round __init__
        assert not hasattr(record, "_replace") and not hasattr(record, "_make")
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


class Node(DgNode):
    __slots__ = ()


class Edge(DgEdge):
    __slots__ = ()


class NoSlotsNode(DgNode):  # no __slots__ of its own: it adds no field
    pass


class LabeledNode(DgNode):
    __slots__ = ("label", "_seen")

    def __init__(self, name, role=DeviceRole.OTHER, label=""):
        super().__init__(name, role)
        store(self, "label", label)


def test_subclass_fields_follow_the_parents():
    assert Node._fields == NoSlotsNode._fields == DgNode._fields == ("name", "role")
    assert Edge._fields == DgEdge._fields
    assert LabeledNode._fields == ("name", "role", "label")
    assert LabeledNode("a", label="x") != LabeledNode("a", label="y")


class Named(Record):
    __slots__ = "ab"  # one slot named "ab", as Python reads a string

    def __init__(self, ab):
        store(self, "ab", ab)


def test_string_slots_name_one_field():
    record = Named(1)
    assert Named._fields == ("ab",)
    assert record == Named(1) != Named(2)
    assert repr(record) == "Named(ab=1)"
    assert copy.copy(record) == record and record.replace(ab=2) == Named(2)


SUBCLASSED = [
    (Node, DgNode("a", DeviceRole.FIELD_DEVICE)),
    (NoSlotsNode, DgNode("a", DeviceRole.FIELD_DEVICE)),
    (Edge, DgEdge("a", "s", 0.5, 1, {READ: 1})),
]


@pytest.mark.parametrize("cls, base", SUBCLASSED, ids=[cls.__name__ for cls, _ in SUBCLASSED])
def test_subclass_records_keep_their_fields(cls, base):
    record = cls(*base._values())
    first = base._fields[0]  # the node's name, the edge's source
    other = record.replace(**{first: "b"})
    assert record == cls(*base._values()) and record != other
    assert type(other) is cls and getattr(other, first) == "b"
    assert other._values()[1:] == record._values()[1:]
    assert repr(record) == repr(base).replace(type(base).__name__, cls.__name__, 1)
    for rebuilt in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is cls and rebuilt == record


def test_graph_of_subclass_records_renders_as_the_base_one():
    nodes = [DgNode("s", DeviceRole.SCADA_MASTER), DgNode("a"), DgNode("b")]
    edges = [DgEdge("a", "s", 0.75, 3, {READ: 3}), DgEdge("b", "s", 0.25, 1, {READ: 1})]
    base = DependencyGraph(nodes, edges, Normalization.GLOBAL, 4)
    sub = DependencyGraph([Node(*n._values()) for n in nodes],
                          [Edge(*e._values()) for e in edges], Normalization.GLOBAL, 4)
    for graph in (sub, copy.deepcopy(sub), pickle.loads(pickle.dumps(sub))):
        assert graph == sub
        for fmt in FORMATS:
            assert render_graph(graph, fmt) == render_graph(base, fmt)
    renamed = [Node("c", DeviceRole.SCADA_MASTER), *sub.nodes[:2]]
    assert sub != DependencyGraph(renamed, [e.replace(sink="c") for e in sub.edges],
                                  Normalization.GLOBAL, 4)


def test_fields_cannot_be_deleted():
    edge = DgEdge("a", "s", 0.5)
    with pytest.raises(AttributeError) as exc:
        del edge.source
    assert str(exc.value) == "cannot delete field 'source'"
    assert edge.source == "a"


def test_records_of_other_types_are_unequal():
    edge = DgEdge("a", "s", 0.5)
    assert edge.__eq__(DgNode("a")) is NotImplemented
    assert edge != DgNode("a") and edge != ("a", "s", 0.5)


def test_replace_validates():
    profile = TrafficProfile(ScenarioKind.BASELINE, {"a": 1.0})
    assert profile.replace(seed=9) == TrafficProfile(ScenarioKind.BASELINE, {"a": 1.0}, seed=9)
    with pytest.raises(ValidationError, match=r"^n_messages must be >= 0$"):
        profile.replace(n_messages=-1)
    with pytest.raises(ValidationError, match=r"^self-edge not allowed: 'a'$"):
        DgEdge("a", "s", 0.5).replace(sink="a")


# Each case names a mapping a validated record holds, and a write through it.
MAPPING_WRITES = [
    ("DgEdge.by_type", lambda: graph().edges[0].by_type, READ, "x"),
    ("ConditionalQuery.evidence", lambda: ConditionalQuery("s", {"a": False}).evidence,
     "a", "no"),
    ("TrafficProfile.weights", lambda: TrafficProfile(ScenarioKind.BASELINE, {"a": 1.0}).weights,
     "a", -1.0),
    ("TrafficProfile.message_mix",
     lambda: TrafficProfile(ScenarioKind.BASELINE, {"a": 1.0}).message_mix, READ, 2.0),
]


@pytest.mark.parametrize("field, mapping, key, value", MAPPING_WRITES,
                         ids=[case[0] for case in MAPPING_WRITES])
def test_record_mappings_are_read_only(field, mapping, key, value):
    held = mapping()
    before = dict(held)
    with pytest.raises(TypeError):
        held[key] = value
    with pytest.raises(TypeError):
        del held[key]
    assert not hasattr(held, "clear") and not hasattr(held, "update")
    assert held == before
