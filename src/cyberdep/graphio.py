"""Dependency-graph serialization: JSON (lossless), DOT and GraphML (render-ready).

All emitters sort nodes and edges, so output is byte-deterministic for a
given graph. DOT edge labels carry the probability rounded to two decimals;
the SCADA master is drawn with a distinct node shape.

Each format is one generator of byte chunks, at most CHUNK nodes or edges
each (``render_chunks``). ``cyberdep build`` and ``export`` write the chunks
as they come, so a render's peak memory does not grow with the size of the
output document. ``render_graph`` joins them into one ``bytes``.

Graph JSON schema:

    {"nodes": [{"name": "...", "role": "scada|field|router|other"}, ...],
     "edges": [{"source": "...", "sink": "...", "probability": <float>,
                "count": <int>, "by_type": {"<fn>": <int>, ...}}, ...],
     "normalization": "global|per-sink|none",
     "grand_total": <int>}

``load_graph_json`` checks only the document's shape and maps the role and
message-type names it knows; ``DgNode``, ``DgEdge`` and ``DependencyGraph``
check every value, so a node name is always one that every format can carry.
"""

import json
import re
from itertools import islice
from typing import BinaryIO, Iterator

from .depgraph import DependencyGraph, DgEdge, DgNode, Normalization, format_probability
from .errors import FormatError
from .ingest import DNP3_SYSCALLS, MODELED_TYPES, read_json
from .topology import DeviceRole, parse_role

_BARE_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# DOT keywords are case-insensitive and must be quoted to be used as node ids.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})

# Exports fill fixed templates, byte for byte what ``json.dumps(doc, indent=2)``
# and an indented ElementTree write. Only names need escaping, once per node.
_JSON_TAIL = ',\n  "normalization": "%s",\n  "grand_total": %r\n}\n'
_JSON_NODE = '    {\n      "name": %s,\n      "role": "%s"\n    }'
_JSON_EDGE = (
    '    {\n      "source": %s,\n      "sink": %s,\n      "probability": %r,\n'
    '      "count": %r,\n      "by_type": {\n'
    + ",\n".join(f'        "{mt.value}": %d' for mt in DNP3_SYSCALLS)
    + "\n      }\n    }"
)
# Nodes or edges per rendered chunk: a render holds one chunk, not the whole document.
CHUNK = 256


def _chunked(strings: Iterator[str], sep: str = "", lead: str = "") -> Iterator[bytes]:
    """``lead + sep.join(strings)`` encoded in chunks of at most CHUNK strings (none for none)."""
    while batch := list(islice(strings, CHUNK)):
        yield (lead + sep.join(batch)).encode("utf-8")
        lead = sep


def _json_list(items: tuple, strings: Iterator[str]) -> Iterator[bytes]:
    yield from _chunked(strings, ",\n", lead="[\n")
    yield b"\n  ]" if items else b"[]"


def _json_chunks(graph: DependencyGraph) -> Iterator[bytes]:
    names = {n.name: json.dumps(n.name) for n in graph.nodes}
    nodes = (_JSON_NODE % (names[n.name], n.role.value) for n in graph.nodes)
    # DgEdge keeps by_type in DNP3_SYSCALLS order, the template's order.
    edges = (_JSON_EDGE % (names[e.source], names[e.sink], e.probability, e.count,
                           *e.by_type.values()) for e in graph.edges)
    yield b'{\n  "nodes": '
    yield from _json_list(graph.nodes, nodes)
    yield b',\n  "edges": '
    yield from _json_list(graph.edges, edges)
    yield (_JSON_TAIL % (graph.normalization.value, graph.grand_total)).encode("utf-8")


def load_graph_json(stream: BinaryIO | bytes) -> DependencyGraph:
    """Parse graph JSON back into a DependencyGraph, revalidating all invariants.

    Only the document's shape is checked here; the records check its values.
    """
    doc = read_json(stream, "graph file")
    if not isinstance(doc, dict):
        raise FormatError("graph document must be a json object")
    if not isinstance(doc.get("nodes"), list) or not isinstance(doc.get("edges"), list):
        raise FormatError("graph document needs 'nodes' and 'edges' lists")

    nodes = []
    for i, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise FormatError(f"nodes[{i}] is not an object")
        role = entry.get("role", "other")
        nodes.append(DgNode(entry.get("name"), parse_role(role) or role))

    edges = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise FormatError(f"edges[{i}] is not an object")
        raw_types = entry.get("by_type", {})
        if not isinstance(raw_types, dict):
            raise FormatError(f"edges[{i}]: 'by_type' must be an object")
        by_type = {MODELED_TYPES.get(name, name): n for name, n in raw_types.items()}
        edges.append(DgEdge(entry.get("source"), entry.get("sink"), entry.get("probability"),
                            entry.get("count", 0), by_type))

    try:
        normalization = Normalization(doc.get("normalization", "none"))
    except ValueError:
        raise FormatError(f"unknown normalization {doc.get('normalization')!r}")
    grand_total = doc["grand_total"] if "grand_total" in doc else sum(e.count for e in edges)
    return DependencyGraph(tuple(nodes), tuple(edges), normalization, grand_total)


def _dot_id(name: str) -> str:
    if _BARE_DOT_ID.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_chunks(graph: DependencyGraph) -> Iterator[bytes]:
    """DOT with probability-labeled edges; SCADA master drawn as a box."""
    ids = {n.name: _dot_id(n.name) for n in graph.nodes}
    yield b"digraph dependency_graph {\n"
    yield from _chunked(
        f"  {ids[n.name]} [shape={'box' if n.role is DeviceRole.SCADA_MASTER else 'ellipse'}];\n"
        for n in graph.nodes)
    yield from _chunked(
        f'  {ids[e.source]} -> {ids[e.sink]} [label="{format_probability(e.probability)}"];\n'
        for e in graph.edges)
    yield b"}\n"


_GRAPHML_HEAD = """<?xml version='1.0' encoding='UTF-8'?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="role" for="node" attr.name="role" attr.type="string" />
  <key id="probability" for="edge" attr.name="probability" attr.type="double" />
  <key id="count" for="edge" attr.name="count" attr.type="long" />
  <key id="label" for="edge" attr.name="label" attr.type="string" />
  <graph id="dependency_graph" edgedefault="directed\""""
_GRAPHML_NODE = '    <node id="%s">\n      <data key="role">%s</data>\n    </node>\n'
_GRAPHML_EDGE = (
    '    <edge source="%s" target="%s">\n      <data key="probability">%r</data>\n'
    '      <data key="count">%s</data>\n      <data key="label">%s</data>\n    </edge>\n'
)
# ElementTree's attribute escapes; no other character in a name needs one.
_XML_ATTRIBUTE = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;",
     "\t": "&#09;"}
)


def _graphml_chunks(graph: DependencyGraph) -> Iterator[bytes]:
    """GraphML carrying role, probability, count, and a display label."""
    ids = {n.name: n.name.translate(_XML_ATTRIBUTE) for n in graph.nodes}
    if not graph.nodes:  # then there are no edges either
        yield (_GRAPHML_HEAD + " />\n</graphml>\n").encode("utf-8")
        return
    yield (_GRAPHML_HEAD + ">\n").encode("utf-8")
    yield from _chunked(_GRAPHML_NODE % (ids[n.name], n.role.value) for n in graph.nodes)
    yield from _chunked(_GRAPHML_EDGE % (ids[e.source], ids[e.sink], e.probability, e.count,
                                         format_probability(e.probability))
                        for e in graph.edges)
    yield b"  </graph>\n</graphml>\n"


_RENDERERS = {"json": _json_chunks, "dot": _dot_chunks, "graphml": _graphml_chunks}
FORMATS = tuple(_RENDERERS)


def render_chunks(graph: DependencyGraph, fmt: str) -> Iterator[bytes]:
    """The rendered graph in byte chunks; an unknown format raises here, not on iteration."""
    if fmt not in FORMATS:
        raise FormatError(f"unknown graph format: {fmt!r}")
    return _RENDERERS[fmt](graph)


def render_graph(graph: DependencyGraph, fmt: str) -> bytes:
    return b"".join(render_chunks(graph, fmt))
