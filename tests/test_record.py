"""Every record is immutable, equal records hash equal, and validated ones stay validated."""

import copy
import pickle

import pytest

from cyberdep.depgraph import (
    ConditionalQuery,
    DependencyGraph,
    DgEdge,
    DgNode,
    GraphOptions,
    Normalization,
)
from cyberdep.errors import ValidationError
from cyberdep.ingest import (
    CaptureWindow,
    Dnp3MessageType,
    IngestStats,
    PacketRecord,
    RejectedLine,
)
from cyberdep.record import Record
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
    (lambda: GraphOptions(False, Normalization.PER_SINK), True),
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
