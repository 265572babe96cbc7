"""Dependency-graph serialization: JSON (lossless), DOT and GraphML (render-ready).

All emitters sort nodes and edges, so output is byte-deterministic for a
given graph. DOT edge labels carry the probability rounded to two decimals;
the SCADA master is drawn with a distinct node shape.

Graph JSON schema:

    {"nodes": [{"name": "...", "role": "scada|field|router|other"}, ...],
     "edges": [{"source": "...", "sink": "...", "probability": <float>,
                "count": <int>, "by_type": {"<fn>": <int>, ...}}, ...],
     "normalization": "global|per-sink|none",
     "grand_total": <int>}
"""

import json
import re
import xml.etree.ElementTree as ET
from typing import BinaryIO

from .depgraph import DependencyGraph, DgEdge, DgNode, Normalization, format_probability
from .errors import FormatError
from .ingest import DNP3_SYSCALLS, is_number, parse_message_type, read_json
from .topology import NON_XML_CHARS, DeviceRole

_BARE_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# DOT keywords are case-insensitive and must be quoted to be used as node ids.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def graph_to_json_dict(graph: DependencyGraph) -> dict:
    return {
        "nodes": [{"name": n.name, "role": n.role.value} for n in graph.nodes],
        "edges": [
            {
                "source": e.source,
                "sink": e.sink,
                "probability": e.probability,
                "count": e.count,
                "by_type": {mt.value: e.by_type[mt] for mt in DNP3_SYSCALLS},
            }
            for e in graph.edges
        ],
        "normalization": graph.normalization.value,
        "grand_total": graph.grand_total,
    }


def graph_to_json_bytes(graph: DependencyGraph) -> bytes:
    return (json.dumps(graph_to_json_dict(graph), indent=2) + "\n").encode("utf-8")


def load_graph_json(stream: BinaryIO | bytes) -> DependencyGraph:
    """Parse graph JSON back into a DependencyGraph, revalidating all invariants."""
    doc = read_json(stream, "graph file")
    if not isinstance(doc, dict):
        raise FormatError("graph document must be a json object")
    if not isinstance(doc.get("nodes"), list) or not isinstance(doc.get("edges"), list):
        raise FormatError("graph document needs 'nodes' and 'edges' lists")

    nodes = []
    for i, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise FormatError(f"nodes[{i}] needs a string 'name'")
        try:
            role = DeviceRole(entry.get("role", "other"))
        except ValueError:
            raise FormatError(f"node {entry['name']!r}: unknown role {entry.get('role')!r}")
        nodes.append(DgNode(entry["name"], role))

    edges = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise FormatError(f"edges[{i}] is not an object")
        for key in ("source", "sink"):
            if not isinstance(entry.get(key), str):
                raise FormatError(f"edges[{i}] needs a string {key!r}")
        prob = entry.get("probability")
        if not is_number(prob):
            raise FormatError(f"edges[{i}] needs a numeric 'probability'")
        count = entry.get("count", 0)
        if not isinstance(count, int) or isinstance(count, bool):
            raise FormatError(f"edges[{i}]: 'count' must be an integer")
        raw_types = entry.get("by_type", {})
        if not isinstance(raw_types, dict):
            raise FormatError(f"edges[{i}]: 'by_type' must be an object")
        by_type = {}
        for name, n in raw_types.items():
            mt = parse_message_type(name)
            if mt not in DNP3_SYSCALLS:
                raise FormatError(f"edges[{i}]: unknown message type {name!r}")
            if not isinstance(n, int) or isinstance(n, bool):
                raise FormatError(f"edges[{i}]: by_type[{name!r}] must be an integer")
            by_type[mt] = n
        edges.append(DgEdge(entry["source"], entry["sink"], float(prob), count, by_type))

    try:
        normalization = Normalization(doc.get("normalization", "none"))
    except ValueError:
        raise FormatError(f"unknown normalization {doc.get('normalization')!r}")
    grand_total = doc.get("grand_total", sum(e.count for e in edges))
    if not isinstance(grand_total, int) or isinstance(grand_total, bool):
        raise FormatError("'grand_total' must be an integer")

    return DependencyGraph(tuple(nodes), tuple(edges), normalization, grand_total)


def _dot_id(name: str) -> str:
    if _BARE_DOT_ID.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: DependencyGraph) -> str:
    """Render DOT with probability-labeled edges; SCADA master drawn as a box."""
    lines = ["digraph dependency_graph {"]
    for n in graph.nodes:
        shape = "box" if n.role is DeviceRole.SCADA_MASTER else "ellipse"
        lines.append(f"  {_dot_id(n.name)} [shape={shape}];")
    for e in graph.edges:
        label = format_probability(e.probability)
        lines.append(f'  {_dot_id(e.source)} -> {_dot_id(e.sink)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def graph_to_graphml(graph: DependencyGraph) -> bytes:
    """Render GraphML carrying role, probability, count, and a display label."""
    root = ET.Element("graphml", xmlns=_GRAPHML_NS)
    for key_id, target, typ in (
        ("role", "node", "string"),
        ("probability", "edge", "double"),
        ("count", "edge", "long"),
        ("label", "edge", "string"),
    ):
        ET.SubElement(
            root,
            "key",
            {"id": key_id, "for": target, "attr.name": key_id, "attr.type": typ},
        )
    g = ET.SubElement(root, "graph", id="dependency_graph", edgedefault="directed")
    for n in graph.nodes:
        # Graphs loaded from JSON never passed load_topology's name check.
        if not NON_XML_CHARS.isdisjoint(n.name):
            raise FormatError(f"node {n.name!r} holds a character XML cannot represent")
        node_el = ET.SubElement(g, "node", id=n.name)
        ET.SubElement(node_el, "data", key="role").text = n.role.value
    for e in graph.edges:
        edge_el = ET.SubElement(g, "edge", source=e.source, target=e.sink)
        ET.SubElement(edge_el, "data", key="probability").text = repr(e.probability)
        ET.SubElement(edge_el, "data", key="count").text = str(e.count)
        ET.SubElement(edge_el, "data", key="label").text = format_probability(e.probability)
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"


FORMATS = ("json", "dot", "graphml")


def render_graph(graph: DependencyGraph, fmt: str) -> bytes:
    if fmt == "json":
        return graph_to_json_bytes(graph)
    if fmt == "dot":
        return graph_to_dot(graph).encode("utf-8")
    if fmt == "graphml":
        return graph_to_graphml(graph)
    raise FormatError(f"unknown graph format: {fmt!r}")
