"""Shared fixtures: a hand-weighted sample graph, topology factories, capture builders,
and the stage-by-stage build reference."""

import json

import pytest

from cyberdep.depgraph import (
    BuildResult, DependencyGraph, DgEdge, DgNode, Normalization, collapse_to_scada, count_flows,
    edge_probabilities,
)
from cyberdep.ingest import filter_dnp3
from cyberdep.topology import Device, DeviceRole, Topology, default_topology, map_window


def jsonl_bytes(rows) -> bytes:
    return b"".join(
        json.dumps(row, separators=(",", ":")).encode() + b"\n" for row in rows
    )


def make_topology(
    n_field: int, scada_name: str = "scada", master_addrs: tuple[str, ...] = ("10.9.0.1",)
) -> Topology:
    """One SCADA master (by default on 10.9.0.1) plus n_field field devices.

    Field devices take 10.9.1.1-254, then 10.9.2.1-254 and so on.
    """
    devices = [Device(scada_name, DeviceRole.SCADA_MASTER, frozenset(master_addrs))]
    for i in range(n_field):
        devices.append(
            Device(
                f"dev-{i + 1:02d}",
                DeviceRole.FIELD_DEVICE,
                frozenset({f"10.9.{1 + i // 254}.{i % 254 + 1}"}),
            )
        )
    return Topology(tuple(devices))


def equal_flow_rows(topology: Topology, per_device: int) -> list[dict]:
    """Exactly per_device DNP3 messages between each field device and the master.

    Requests and responses alternate so both directions get exercised; after
    the SCADA collapse each device->master edge carries the same count.
    """
    scada_addr = min(topology.scada_master.addrs)
    fields = [d for d in topology.devices if d.role is DeviceRole.FIELD_DEVICE]
    rows = []
    ts = 0
    for dev in fields:
        addr = min(dev.addrs)
        for k in range(per_device):
            ts += 1000
            if k % 2 == 0:
                rows.append(
                    {"ts_us": ts, "src": scada_addr, "dst": addr,
                     "proto": "dnp3", "dnp3_fn": "read"}
                )
            else:
                rows.append(
                    {"ts_us": ts, "src": addr, "dst": scada_addr,
                     "proto": "dnp3", "dnp3_fn": "response"}
                )
    return rows


# Four records between dev-01 and the master, then three inside one device:
# scada's two addresses once, dev-01's two addresses twice (scada holds
# 10.9.0.1-2 and dev-01 10.9.1.1-2).
INTRA_DEVICE_ROWS = [
    {"ts_us": ts, "src": src, "dst": dst, "proto": "dnp3", "dnp3_fn": fn}
    for ts, (src, dst, fn) in enumerate([
        ("10.9.0.1", "10.9.1.1", "read"), ("10.9.1.1", "10.9.0.1", "response"),
        ("10.9.0.2", "10.9.1.2", "read"), ("10.9.1.2", "10.9.0.2", "response"),
        ("10.9.0.1", "10.9.0.2", "read"),
        ("10.9.1.1", "10.9.1.2", "response"), ("10.9.1.2", "10.9.1.1", "response"),
    ], start=1)
]


def staged_build(window, topo, *, scada_collapse=True,
                 normalization=Normalization.GLOBAL) -> BuildResult:
    """The library stages one by one: the reference ``build_graph`` must match."""
    filtered = filter_dnp3(window)
    mapped, unmapped = map_window(topo, filtered)
    counts = count_flows(mapped)
    if scada_collapse:
        counts, _ = collapse_to_scada(counts, topo)
    graph = edge_probabilities(counts, normalization, topo.roles())
    return BuildResult(graph, filtered.stats, unmapped, counts.dropped, window.rejections[:20])


def find_edge(graph: DependencyGraph, source: str, sink: str) -> DgEdge | None:
    """The graph's edge from source to sink, or None."""
    return next((e for e in graph.edges if e.key == (source, sink)), None)


@pytest.fixture(scope="session")
def wscc() -> Topology:
    return default_topology()


@pytest.fixture
def sample_graph() -> DependencyGraph:
    """Two master processes feeding three field objects, hand-assigned weights.

    Weights are authored, not frequency-derived, so the graph carries no
    normalization constraint (the P->F4 pair alone sums past 1).
    """
    nodes = (
        DgNode("F2"),
        DgNode("F4"),
        DgNode("F7"),
        DgNode("P1"),
        DgNode("P9"),
    )
    edges = (
        DgEdge("P1", "F4", 0.3),
        DgEdge("P1", "F7", 0.7),
        DgEdge("P9", "F2", 0.2),
        DgEdge("P9", "F4", 0.8),
    )
    return DependencyGraph(nodes=nodes, edges=edges, normalization=Normalization.NONE)
