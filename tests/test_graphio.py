"""Graph serialization: JSON round-trip, DOT text, GraphML structure, determinism."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cyberdep
from cyberdep import graphio
from cyberdep.depgraph import (
    DependencyGraph,
    DgEdge,
    DgNode,
    FlowCounts,
    Normalization,
    edge_probabilities,
)
from cyberdep.errors import FormatError, ValidationError
from cyberdep.ingest import DNP3_SYSCALLS, Dnp3MessageType
from cyberdep.topology import NON_XML_CHARS, is_xml_name
from cyberdep.cli import _write_output
from cyberdep.graphio import (
    CHUNK,
    FORMATS,
    load_graph_json,
    render_chunks,
    render_graph,
)
from cyberdep.topology import DeviceRole


@pytest.fixture
def traffic_graph():
    counts = FlowCounts({
        ("load-5", "scada"): {Dnp3MessageType.READ: 30, Dnp3MessageType.RESPOND: 20},
        ("gen-1", "scada"): {Dnp3MessageType.DIRECT_OPERATE: 50},
    })
    roles = {"scada": DeviceRole.SCADA_MASTER,
             "load-5": DeviceRole.FIELD_DEVICE,
             "gen-1": DeviceRole.FIELD_DEVICE}
    return edge_probabilities(counts, roles=roles)


class TestJson:
    def test_dict_shape(self, traffic_graph):
        doc = json.loads(render_graph(traffic_graph, "json"))
        assert set(doc) == {"nodes", "edges", "normalization", "grand_total"}
        assert doc["normalization"] == "global"
        assert doc["grand_total"] == 100
        assert doc["nodes"][0] == {"name": "gen-1", "role": "field"}
        edge = doc["edges"][1]
        assert edge["source"] == "load-5"
        assert edge["sink"] == "scada"
        assert edge["probability"] == 0.5
        assert edge["count"] == 50
        # all four function codes always present, wire order
        assert list(edge["by_type"]) == [
            "request_link_status", "read", "response", "direct_operate",
        ]
        assert edge["by_type"]["read"] == 30

    def test_round_trip_identity(self, traffic_graph):
        back = load_graph_json(render_graph(traffic_graph, "json"))
        assert back == traffic_graph
        assert back.normalization is traffic_graph.normalization
        assert back.grand_total == traffic_graph.grand_total

    def test_round_trip_sample(self, sample_graph):
        assert load_graph_json(render_graph(sample_graph, "json")) == sample_graph

    def test_defaults_fill_in(self):
        doc = {
            "nodes": [{"name": "a"}, {"name": "b"}],
            "edges": [{"source": "a", "sink": "b", "probability": 0.4, "count": 3}],
        }
        graph = load_graph_json(json.dumps(doc).encode())
        assert graph.normalization is Normalization.NONE
        assert graph.nodes[0].role is DeviceRole.OTHER
        assert graph.grand_total == 3  # falls back to summed edge counts

    @pytest.mark.parametrize(
        "doc,match",
        [
            (b"oops", "valid json"),
            (b"[]", "json object"),
            (b"{}", "'nodes' and 'edges'"),
            pytest.param({"nodes": [{"role": "field"}], "edges": []},
                         ValidationError("node name must be a string XML can represent, got None"),
                         id="doc3-name"),
            pytest.param({"nodes": [{"name": "a", "role": "emperor"}], "edges": []},
                         ValidationError("node 'a': role must be a DeviceRole, got 'emperor'"),
                         id="doc4-role"),
            pytest.param({"nodes": [{"name": "a"}, {"name": "b"}],
                          "edges": [{"source": "a", "sink": "b"}]},
                         ValidationError("edge a->b: probability must be a number, got None"),
                         id="doc5-probability"),
            pytest.param({"nodes": [{"name": "a"}, {"name": "b"}],
                          "edges": [{"source": "a", "sink": "b", "probability": 0.1,
                                     "count": "x"}]},
                         ValidationError("edge a->b: count must be an integer, got 'x'"),
                         id="doc6-count"),
            pytest.param({"nodes": [{"name": "a"}, {"name": "b"}],
                          "edges": [{"source": "a", "sink": "b", "probability": 0.1,
                                     "by_type": {"cold_restart": 1}}]},
                         ValidationError("edge a->b: unknown message type 'cold_restart'"),
                         id="doc7-message type"),
            ({"nodes": [], "edges": [], "normalization": "sideways"}, "normalization"),
            pytest.param({"nodes": [], "edges": [], "grand_total": "many"},
                         ValidationError("grand_total must be an integer, got 'many'"),
                         id="doc9-grand_total"),
            pytest.param({"nodes": [{"name": "a", "role": ["field"]}], "edges": []},
                         ValidationError("node 'a': role must be a DeviceRole, got ['field']"),
                         id="doc10-unknown role"),
            ({"nodes": ["a"], "edges": []}, r"^nodes\[0\] is not an object$"),
            ({"nodes": [], "edges": [["a", "b"]]}, r"^edges\[0\] is not an object$"),
            ({"nodes": [], "edges": [{"by_type": [1]}]},
             r"^edges\[0\]: 'by_type' must be an object$"),
        ],
    )
    def test_malformed_documents(self, doc, match):
        """Shape errors are FormatErrors; value errors are the record's own, exactly."""
        payload = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        if isinstance(match, str):
            with pytest.raises(FormatError, match=match):
                load_graph_json(payload)
        else:
            with pytest.raises(type(match)) as exc:
                load_graph_json(payload)
            assert type(exc.value) is type(match)
            assert str(exc.value) == str(match)

    @pytest.mark.parametrize("name", [5, None, ["a"], "a\x01", "a\ud800", "\uffff"])
    def test_node_name_errors_are_the_records(self, name):
        doc = {"nodes": [{"name": name}], "edges": []}
        with pytest.raises(ValidationError) as via_doc:
            load_graph_json(json.dumps(doc).encode())
        with pytest.raises(ValidationError) as direct:
            DgNode(name)
        assert type(via_doc.value) is type(direct.value)
        assert str(via_doc.value) == str(direct.value) == (
            f"node name must be a string XML can represent, got {name!r}"
        )

    @pytest.mark.parametrize("fields, message", [
        ({"count": 2.5}, "edge a->b: count must be an integer, got 2.5"),
        ({"count": True}, "edge a->b: count must be an integer, got True"),
        ({"by_type": {"read": 1.0}}, "edge a->b: by_type['read'] must be an integer, got 1.0"),
        ({"by_type": {"response": "1"}},
         "edge a->b: by_type['response'] must be an integer, got '1'"),
        ({"probability": "0.5"}, "edge a->b: probability must be a number, got '0.5'"),
        ({"probability": None}, "edge a->b: probability must be a number, got None"),
        pytest.param({"probability": 10**400}, f"edge a->b: probability {10**400} outside [0, 1]",
                     id="probability-past-float"),
        ({"source": 5}, "edge source must be a string, got 5"),
        ({"sink": None}, "edge sink must be a string, got None"),
    ])
    def test_edge_value_errors_are_the_records(self, fields, message):
        edge = {"source": "a", "sink": "b", "probability": 0.5, "count": 1, **fields}
        doc = {"nodes": [{"name": "a"}, {"name": "b"}], "edges": [edge]}
        with pytest.raises(ValidationError) as via_doc:
            load_graph_json(json.dumps(doc).encode())
        by_type = {Dnp3MessageType(k): n for k, n in edge.pop("by_type", {}).items()}
        with pytest.raises(ValidationError) as direct:
            DgEdge(**edge, by_type=by_type)
        assert type(via_doc.value) is type(direct.value)
        assert str(via_doc.value) == str(direct.value) == message

    @pytest.mark.parametrize("grand_total", [2.5, True, "2"])
    def test_grand_total_error_is_the_records(self, grand_total):
        doc = {"nodes": [], "edges": [], "grand_total": grand_total}
        with pytest.raises(ValidationError) as via_doc:
            load_graph_json(json.dumps(doc).encode())
        with pytest.raises(ValidationError) as direct:
            DependencyGraph((), (), Normalization.NONE, grand_total)
        assert type(via_doc.value) is type(direct.value)
        assert str(via_doc.value) == str(direct.value)

    def test_invariants_revalidated_on_load(self):
        # load must reject what the constructor rejects
        doc = {
            "nodes": [{"name": "a"}, {"name": "s"}],
            "edges": [{"source": "a", "sink": "s", "probability": 0.5, "count": 2}],
            "normalization": "global",
            "grand_total": 2,
        }
        with pytest.raises(ValidationError, match=r"^edge a->s: count 2 != by_type total 0$"):
            load_graph_json(json.dumps(doc).encode())

    @pytest.mark.parametrize("normalization, edges, grand_total, message", [
        ("global", [("a", "s", 9e-10, 1), ("b", "s", (10**12 - 1) / 10**12, 10**12 - 1)],
         10**12, "edge a->s: probability 9e-10 != count share 1e-12"),
        ("global", [("a", "s", 0.0, 0), ("b", "s", 0.0, 0)], 0,
         "global normalization: no traffic on any edge"),
        ("per-sink", [("a", "s", 1.0, 1), ("b", "t", 0.0, 0)], 1,
         "per-sink normalization: no traffic into sink 't'"),
    ])
    def test_share_rules_revalidated_on_load(self, normalization, edges, grand_total, message):
        doc = {"nodes": [{"name": n} for n in "abst"],
               "edges": [{"source": src, "sink": dst, "probability": p, "count": n,
                          "by_type": {"read": n}} for src, dst, p, n in edges],
               "normalization": normalization, "grand_total": grand_total}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_graph_json(json.dumps(doc).encode())

    def test_inconsistent_counts_rejected_on_load(self):
        doc = {
            "nodes": [{"name": "a"}, {"name": "s"}],
            "edges": [{"source": "a", "sink": "s", "probability": 1.0, "count": 5,
                       "by_type": {"read": 999}}],
            "normalization": "global",
            "grand_total": 3,
        }
        with pytest.raises(ValidationError, match="edge a->s"):
            load_graph_json(json.dumps(doc).encode())


class TestDot:
    def test_sample_graph_text(self, sample_graph):
        dot = render_graph(sample_graph, "dot").decode()
        assert dot.startswith("digraph dependency_graph {\n")
        assert dot.endswith("}\n")
        assert '  P1 -> F4 [label="0.30"];' in dot
        assert '  P9 -> F4 [label="0.80"];' in dot
        assert "  F2 [shape=ellipse];" in dot

    def test_scada_master_drawn_as_box(self, traffic_graph):
        dot = render_graph(traffic_graph, "dot").decode()
        assert "scada [shape=box];" in dot
        assert '"load-5" [shape=ellipse];' in dot

    def test_hyphenated_names_quoted(self, traffic_graph):
        dot = render_graph(traffic_graph, "dot").decode()
        assert '"load-5" -> scada [label="0.50"];' in dot

    def test_quote_escaping(self):
        g = DependencyGraph(
            (DgNode('we"ird'), DgNode("b")),
            (DgEdge('we"ird', "b", 0.5),),
            Normalization.NONE,
        )
        dot = render_graph(g, "dot").decode()
        assert '"we\\"ird"' in dot

    def test_trailing_newline_quoted(self):
        g = DependencyGraph((DgNode("a\n"), DgNode("b")), (DgEdge("a\n", "b", 0.5),))
        assert '  "a\n" -> b [label="0.50"];' in render_graph(g, "dot").decode()

    @pytest.mark.parametrize("name", ["node", "Graph", "EDGE"])
    def test_keywords_quoted(self, name):
        g = DependencyGraph(
            (DgNode(name), DgNode("scada")), (DgEdge(name, "scada", 0.5),), Normalization.NONE
        )
        dot = render_graph(g, "dot").decode()
        assert f'  "{name}" [shape=ellipse];' in dot
        assert f'  "{name}" -> scada [label="0.50"];' in dot


class TestGraphml:
    def test_well_formed_and_complete(self, traffic_graph):
        blob = render_graph(traffic_graph, "graphml")
        root = ET.fromstring(blob)
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        assert root.tag == "{http://graphml.graphdrawing.org/xmlns}graphml"
        graph_el = root.find("g:graph", ns)
        assert graph_el.get("edgedefault") == "directed"
        nodes = graph_el.findall("g:node", ns)
        edges = graph_el.findall("g:edge", ns)
        assert [n.get("id") for n in nodes] == ["gen-1", "load-5", "scada"]
        assert len(edges) == 2
        first = edges[0]
        assert first.get("source") == "gen-1"
        assert first.get("target") == "scada"
        data = {d.get("key"): d.text for d in first.findall("g:data", ns)}
        assert float(data["probability"]) == 0.5
        assert data["count"] == "50"
        assert data["label"] == "0.50"

    def test_declares_keys_before_graph(self, traffic_graph):
        root = ET.fromstring(render_graph(traffic_graph, "graphml"))
        kinds = [(el.get("id"), el.get("for")) for el in root
                 if el.tag.endswith("key")]
        assert ("role", "node") in kinds
        assert ("probability", "edge") in kinds

    def test_probability_survives_exactly(self, sample_graph):
        root = ET.fromstring(render_graph(sample_graph, "graphml"))
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        probs = [
            float(d.text)
            for d in root.iter("{http://graphml.graphdrawing.org/xmlns}data")
            if d.get("key") == "probability"
        ]
        assert sorted(probs) == [0.2, 0.3, 0.7, 0.8]


# Characters XML 1.0 cannot hold, not even as character references.
NON_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
name_chars = st.one_of(
    st.characters(),
    st.sampled_from(["\x00", "\x01", "\x1f", "\t", "\n", "\r", "\ud800", "\ufffe", "\uffff"]),
)


def assert_rejects_non_xml(names) -> bool:
    """True, after checking DgNode's error, when a name holds a character XML cannot."""
    bad = [n for n in names if NON_XML.search(n)]
    if bad:
        with pytest.raises(ValidationError) as exc:
            [DgNode(n) for n in names]
        assert type(exc.value) is ValidationError
        assert str(exc.value) == f"node name must be a string XML can represent, got {bad[0]!r}"
    return bool(bad)


@given(st.lists(st.text(name_chars, max_size=6), min_size=2, max_size=4, unique=True))
@settings(max_examples=300)
def test_graphml_round_trips_names_or_rejects_them(names):
    if assert_rejects_non_xml(names):
        return
    edges = tuple(DgEdge(src, sink, 0.5) for src, sink in zip(names, names[1:]))
    graph = DependencyGraph(tuple(DgNode(n) for n in names), edges, Normalization.NONE)
    root = ET.fromstring(render_graph(graph, "graphml"))
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    graph_el = root.find("g:graph", ns)
    node_ids = [n.get("id") for n in graph_el.findall("g:node", ns)]
    endpoints = [(e.get("source"), e.get("target")) for e in graph_el.findall("g:edge", ns)]
    assert node_ids == [n.name for n in graph.nodes]
    assert endpoints == [e.key for e in graph.edges]


def test_name_rule_equals_the_oracle_on_every_code_point():
    """is_xml_name refuses exactly what NON_XML finds, lone surrogates by the encode check."""
    names = ("a" + chr(c) for c in range(0x110000))
    assert [ascii(n) for n in names if is_xml_name(n) == bool(NON_XML.search(n))] == []
    assert len(NON_XML_CHARS) == 31 and not any("\ud800" <= c <= "\udfff" for c in NON_XML_CHARS)
    assert is_xml_name("") is True
    assert [is_xml_name(v) for v in (None, 0, 1.5, b"a", bytearray(b"a"), ["a"], ("a",))] == [
        False] * 7


# The renderers graphio used before its templates, kept as byte-level oracles.
def oracle_json(graph: DependencyGraph) -> bytes:
    doc = {
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
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def oracle_graphml(graph: DependencyGraph) -> bytes:
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, target, typ in (
        ("role", "node", "string"),
        ("probability", "edge", "double"),
        ("count", "edge", "long"),
        ("label", "edge", "string"),
    ):
        ET.SubElement(
            root, "key", {"id": key_id, "for": target, "attr.name": key_id, "attr.type": typ}
        )
    g = ET.SubElement(root, "graph", id="dependency_graph", edgedefault="directed")
    for n in graph.nodes:
        node_el = ET.SubElement(g, "node", id=n.name)
        ET.SubElement(node_el, "data", key="role").text = n.role.value
    for e in graph.edges:
        edge_el = ET.SubElement(g, "edge", source=e.source, target=e.sink)
        ET.SubElement(edge_el, "data", key="probability").text = repr(e.probability)
        ET.SubElement(edge_el, "data", key="count").text = str(e.count)
        ET.SubElement(edge_el, "data", key="label").text = f"{e.probability:.2f}"
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"


def oracle_dot(graph: DependencyGraph) -> bytes:
    """The DOT renderer before it streamed: one line per statement, joined once."""
    ids = {n.name: graphio._dot_id(n.name) for n in graph.nodes}
    lines = ["digraph dependency_graph {"]
    for n in graph.nodes:
        shape = "box" if n.role is DeviceRole.SCADA_MASTER else "ellipse"
        lines.append(f"  {ids[n.name]} [shape={shape}];")
    for e in graph.edges:
        lines.append(f'  {ids[e.source]} -> {ids[e.sink]} [label="{e.probability:.2f}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


ORACLES = {"json": oracle_json, "dot": oracle_dot, "graphml": oracle_graphml}


# Names a graph can hold; the name property tests above cover the ones it refuses.
oracle_names = st.text(
    st.one_of(
        st.characters().filter(lambda c: not NON_XML.match(c)),
        st.sampled_from(list('"&<>\r\n\t\\') + ["\u00e9", "\u4e2d", "\U0001d11e"]),
    ),
    max_size=6,
)
tiny_probabilities = st.sampled_from([0.0, 5e-324, 1e-17, 1e-9, 1 / 3, 0.5, 1.0])
by_type_counts = st.lists(st.integers(0, 10**17), min_size=4, max_size=4).map(
    lambda ns: dict(zip(DNP3_SYSCALLS, ns))
)


@st.composite
def oracle_graphs(draw):
    """Any valid graph: every normalization, no edges or no nodes allowed."""
    names = draw(st.lists(oracle_names, max_size=6, unique=True))
    nodes = [DgNode(n, draw(st.sampled_from(DeviceRole))) for n in names]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names))
                          .filter(lambda p: p[0] != p[1]), max_size=8, unique=True)
                 if len(names) > 1 else st.just([]))
    normalization = draw(st.sampled_from(Normalization))
    if normalization is Normalization.NONE:
        edges = [DgEdge(src, dst, draw(st.one_of(tiny_probabilities, st.floats(0, 1))),
                        draw(st.integers(0, 10**20)), draw(by_type_counts))
                 for src, dst in pairs]
        return DependencyGraph(tuple(nodes), tuple(edges), normalization,
                               draw(st.integers(0, 10**20)))
    counts = {pair: draw(by_type_counts.filter(lambda t: sum(t.values()))) for pair in pairs}
    built = edge_probabilities(FlowCounts(counts), normalization)
    return DependencyGraph(tuple(nodes), built.edges, normalization, built.grand_total)


@given(oracle_graphs())
@settings(max_examples=400, deadline=None)
def test_templates_match_the_encoder_renderers(graph):
    assert render_graph(graph, "json") == oracle_json(graph)
    assert render_graph(graph, "graphml") == oracle_graphml(graph)


@pytest.mark.parametrize("p", [5e-324, 1e-17])
@pytest.mark.parametrize("fmt", ["json", "graphml"])
def test_templates_match_at_tiny_probabilities(p, fmt):
    graph = DependencyGraph((DgNode('a&"<>\r\n\t\\\u00e9\U0001d11e'), DgNode("b")),
                            (DgEdge('a&"<>\r\n\t\\\u00e9\U0001d11e', "b", p, 3),))
    oracle = oracle_json if fmt == "json" else oracle_graphml
    assert render_graph(graph, fmt) == oracle(graph)


@pytest.mark.parametrize("graph", [
    DependencyGraph((), (), Normalization.GLOBAL),
    DependencyGraph((DgNode("a"), DgNode("b", DeviceRole.SCADA_MASTER)), (),
                    Normalization.PER_SINK),
])
def test_templates_match_without_edges(graph):
    assert render_graph(graph, "json") == oracle_json(graph)
    assert render_graph(graph, "graphml") == oracle_graphml(graph)


def test_cli_import_loads_no_xml_library():
    # Nor dataclasses, nor inspect, which dataclasses alone would pull in.
    env = {**os.environ, "PYTHONPATH": str(Path(cyberdep.__file__).parents[1])}
    code = ("import sys, cyberdep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'xml'"
            " or m in ('dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


def test_integer_probability_round_trips_byte_stable():
    edge = DgEdge("a", "s", 1, 3, {Dnp3MessageType.READ: 3})
    graph = DependencyGraph((DgNode("a"), DgNode("s")), (edge,), Normalization.GLOBAL, 3)
    data = render_graph(graph, "json")
    assert b'"probability": 1.0,' in data
    assert render_graph(load_graph_json(data), "json") == data


DOT_ID = r'[A-Za-z_][A-Za-z0-9_]*|"(?:[^"\\]|\\.)*"'
DOT_STATEMENT = re.compile(
    rf'  ({DOT_ID})(?: -> ({DOT_ID}))? \[(?:shape=\w+|label="[0-9.]+")\];\n', re.S
)


def dot_name(token):
    if token.startswith('"'):
        return re.sub(r"\\(.)", r"\1", token[1:-1], flags=re.S)
    assert token.lower() not in {"node", "edge", "graph", "digraph", "subgraph", "strict"}
    return token


@given(st.lists(st.text(name_chars, max_size=6), min_size=2, max_size=5, unique=True), st.data())
@settings(max_examples=300)
def test_dot_round_trips_names(names, data):
    if assert_rejects_non_xml(names):
        return
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    pairs = data.draw(st.sets(pair.filter(lambda p: p[0] != p[1]), max_size=6))
    graph = DependencyGraph(
        tuple(DgNode(n) for n in names),
        tuple(DgEdge(src, sink, 0.5) for src, sink in pairs),
        Normalization.NONE,
    )
    header = "digraph dependency_graph {\n"
    text = render_graph(graph, "dot").decode()
    assert text.startswith(header) and text.endswith("}\n")
    body, pos, nodes, edges = text[len(header):-2], 0, set(), set()
    while pos < len(body):
        m = DOT_STATEMENT.match(body, pos)
        assert m, body[pos:]
        if m[2] is None:
            nodes.add(dot_name(m[1]))
        else:
            edges.add((dot_name(m[1]), dot_name(m[2])))
        pos = m.end()
    assert nodes == set(names)
    assert edges == pairs

class TestRenderDispatch:
    def test_formats_tuple(self):
        assert FORMATS == ("json", "dot", "graphml")

    def test_each_format_byte_deterministic(self, traffic_graph):
        for fmt in FORMATS:
            assert render_graph(traffic_graph, fmt) == render_graph(traffic_graph, fmt)

    def test_unknown_format(self, traffic_graph):
        with pytest.raises(FormatError, match="svg"):
            render_graph(traffic_graph, "svg")

    def test_unknown_format_raises_before_the_first_chunk(self, traffic_graph):
        with pytest.raises(FormatError, match="svg"):
            render_chunks(traffic_graph, "svg")

    def test_empty_graph_renders_everywhere(self):
        empty = DependencyGraph((), (), Normalization.GLOBAL)
        for fmt in FORMATS:
            assert render_graph(empty, fmt)


def sized_graph(n: int, shape: str) -> DependencyGraph:
    """n edges into the SCADA master ("star", n + 1 nodes) or n nodes and no edges."""
    sources = [f'dev "{i:04d}" &<>' for i in range(n)]
    if shape == "nodes":
        return DependencyGraph(tuple(DgNode(name) for name in sources), ())
    counts = FlowCounts({(src, "scada"): {Dnp3MessageType.READ: i + 1}
                         for i, src in enumerate(sources)})
    return edge_probabilities(counts, roles={"scada": DeviceRole.SCADA_MASTER})


# What one node or edge statement contains exactly once, per format.
RECORD_MARKS = {"json": (b'"role"', b'"source"'), "dot": (b"];",),
                "graphml": (b"<node ", b"<edge ")}


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("shape", ["star", "nodes"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_chunks_join_to_the_oracles_at_chunk_boundaries(fmt, shape, n):
    graph = sized_graph(n, shape)
    chunks = list(render_chunks(graph, fmt))
    assert b"".join(chunks) == render_graph(graph, fmt) == ORACLES[fmt](graph)
    assert max(sum(c.count(mark) for mark in RECORD_MARKS[fmt]) for c in chunks) <= CHUNK


@pytest.mark.parametrize("fmt", FORMATS)
def test_streamed_render_peak_flat_in_edge_count(fmt, tmp_path):
    """Streaming a graph with 4N edges to a file peaks within 1.25x of an N-edge one."""
    names = [f"dev-{i:03d}" for i in range(100)]
    pairs = [(src, dst) for src in names for dst in names if src != dst]

    def peak(n):
        counts = FlowCounts({pair: {Dnp3MessageType.READ: i + 1}
                             for i, pair in enumerate(pairs[:n])})
        graph = edge_probabilities(counts)
        out = tmp_path / f"graph-{n}.{fmt}"
        tracemalloc.start()
        try:
            _write_output(str(out), render_chunks(graph, fmt))
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == render_graph(graph, fmt)
        return traced

    peak(100)  # warm up caches that a first call fills
    assert peak(4000) <= 1.25 * peak(1000)
