"""One strict JSON reader behind every input: the capture, topology, graph,
profile and compare manifest all decode through ``cyberdep.ingest``."""

import ast
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cyberdep
from cyberdep.cli import main
from cyberdep.errors import CyberDepError, FormatError, ValidationError
from cyberdep.graphio import load_graph_json, render_graph
from cyberdep.ingest import parse_packet_log, read_json
from cyberdep.synth import load_profile
from cyberdep.topology import load_topology
from conftest import jsonl_bytes

# name -> (bytes that break the decoder, the reason every reader gives)
BAD_JSON = {
    "huge-int": (b"[" + b"1" * 4301 + b"]", "integer over 4,300 digits"),
    "nan": (b'{"x": NaN}', "NaN is not a JSON number"),
    "infinity": (b'{"x": Infinity}', "Infinity is not a JSON number"),
    "minus-infinity": (b'{"x": [-Infinity]}', "-Infinity is not a JSON number"),
    "bad-utf8": (b'{"x": "\xff"}', "invalid utf-8"),
    # U+D800 in UTF-8's form: a lone surrogate is not UTF-8 (RFC 3629 section 3)
    "utf8-surrogate": (b'{"x": "\xed\xa0\x80"}', "invalid utf-8"),
    "deep": (b"[" * 100_000, "nested too deeply"),
}

DOCUMENT_READERS = {
    "topology": load_topology,
    "graph file": load_graph_json,
    "profile": load_profile,
    # cli.cmd_compare reads its manifest with exactly this call.
    "manifest": lambda data: read_json(data, "manifest"),
}

GOOD_LINE = b'{"ts_us":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"dnp3","dnp3_fn":"read"}'


@pytest.mark.parametrize("case", BAD_JSON)
@pytest.mark.parametrize("what", DOCUMENT_READERS)
def test_document_readers_reject_with_reason(what, case):
    data, reason = BAD_JSON[case]
    with pytest.raises(FormatError) as exc:
        DOCUMENT_READERS[what](data)
    assert str(exc.value) == f"{what} is not valid json: {reason}"


@pytest.mark.parametrize("case", BAD_JSON)
def test_capture_rejects_only_the_bad_line(case):
    data, reason = BAD_JSON[case]
    window = parse_packet_log(b"\n".join([GOOD_LINE, data, GOOD_LINE]) + b"\n")
    assert (window.stats.total, window.stats.parsed, window.stats.rejected) == (3, 2, 1)
    (rejected,) = window.rejections
    assert rejected.line_no == 2
    assert rejected.reason == (
        reason if case in ("bad-utf8", "utf8-surrogate") else f"invalid json: {reason}"
    )


def test_capture_rejects_nan_in_an_ignored_field():
    """Unknown fields are ignored, but they must still be RFC 8259 JSON."""
    window = parse_packet_log(GOOD_LINE[:-1] + b',"note":NaN}\n')
    assert window.stats.parsed == 0
    assert window.rejections[0].reason == "invalid json: NaN is not a JSON number"


def test_capture_keeps_the_bom_reason():
    window = parse_packet_log(b"\xef\xbb\xbf" + GOOD_LINE + b"\n")
    assert window.rejections[0].reason == (
        "invalid json: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-16-be", "utf-32-le"])
def test_documents_keep_json_loads_encodings(encoding):
    doc = {"devices": [{"name": "mästare", "role": "scada", "addrs": ["10.0.0.1"]}]}
    data = json.dumps(doc, ensure_ascii=False).encode(encoding)
    assert read_json(data, "topology") == doc
    assert load_topology(io.BytesIO(data)).scada_master.name == "mästare"


@pytest.mark.parametrize("encoding", ["utf-16-le", "utf-32-le"])
@pytest.mark.parametrize("what", DOCUMENT_READERS)
def test_documents_refuse_encoded_lone_surrogates(what, encoding):
    data = '{"x": "\ud800"}'.encode(encoding, "surrogatepass")  # U+D800's code unit, unpaired
    with pytest.raises(FormatError) as exc:
        DOCUMENT_READERS[what](data)
    assert str(exc.value) == f"{what} is not valid json: invalid {encoding}"


def test_lone_surrogate_escape_decodes_and_only_names_refuse_it():
    """A \\ud800 escape is JSON (RFC 8259 section 8.2): an ignored field keeps it."""
    device = {"name": "scada", "role": "scada", "substation": "s\ud800", "addrs": ["10.0.0.1"]}
    data = json.dumps({"devices": [device]}).encode()
    assert b"\\ud800" in data
    assert load_topology(data).scada_master.name == "scada"
    device["name"] = "scada\ud800"
    with pytest.raises(ValidationError) as exc:
        load_topology(json.dumps({"devices": [device]}).encode())
    assert str(exc.value) == (
        "device name must be a non-empty string XML can represent, got 'scada\\ud800'"
    )


def test_huge_integer_that_no_float_holds_is_rejected(sample_graph):
    doc = json.loads(render_graph(sample_graph, "json"))
    edge = doc["edges"][0]
    edge["probability"] = 10**400
    with pytest.raises(ValidationError) as exc:
        load_graph_json(json.dumps(doc).encode())
    assert str(exc.value) == (
        f"edge {edge['source']}->{edge['sink']}: probability {10**400} outside [0, 1]"
    )
    with pytest.raises(ValidationError) as exc:
        load_profile(b'{"scenario": "baseline", "weights": {"gen-1": 1%s}}' % (b"0" * 400))
    assert str(exc.value) == "weight for 'gen-1' must be a number"


# Fragments that push arbitrary bytes toward the decoder's edge cases.
_FRAGMENTS = st.sampled_from([
    b"[", b"]", b"{", b"}", b",", b":", b'"', b" ", b"\n", b"null", b"true", b"-",
    b"NaN", b"Infinity", b"-Infinity", b"1e999", b"1" * 400, b"9" * 4301, b"0.5",
    b"\xff", b"\xef\xbb\xbf", b"\x00", b'"devices"', b'"weights"', b'"nodes"',
    b'"edges"', b'"scenario"', b'"baseline"', b'"name"', b'"role"', b'"scada"',
])
ARBITRARY_BYTES = st.binary(max_size=200) | st.lists(_FRAGMENTS, max_size=40).map(b"".join)


@given(data=ARBITRARY_BYTES)
@settings(max_examples=300)
def test_document_readers_load_or_raise_cyberdep_error(data):
    for read in DOCUMENT_READERS.values():
        try:
            read(data)
        except CyberDepError:
            pass


@given(data=ARBITRARY_BYTES)
@settings(max_examples=60, deadline=None)
def test_compare_manifest_of_arbitrary_bytes_exits_1(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "manifest.json")
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["compare", "--in", str(path)]) == 1
    assert err.getvalue().startswith("cyberdep compare: error: ")


@given(st.lists(ARBITRARY_BYTES | st.just(GOOD_LINE), max_size=12))
@settings(max_examples=300)
def test_capture_never_raises_and_accounts_every_line(lines):
    window = parse_packet_log(b"\n".join(lines))
    stats = window.stats
    assert stats.total == stats.parsed + stats.rejected
    assert stats.rejected == len(window.rejections)
    line_nos = [r.line_no for r in window.rejections]
    assert line_nos == sorted(set(line_nos))


@pytest.fixture
def valid_capture(tmp_path):
    path = tmp_path / "capture.jsonl"
    path.write_bytes(jsonl_bytes([json.loads(GOOD_LINE)]))
    return path


@pytest.mark.parametrize("case", BAD_JSON)
@pytest.mark.parametrize("command, flag, what", [
    ("build", "--topo", "topology"),
    ("export", "--in", "graph file"),
    ("query", "--in", "graph file"),
    ("synth", "--profile", "profile"),
    ("compare", "--in", "manifest"),
])
def test_cli_exits_1_with_one_error_line(
    command, flag, what, case, tmp_path, valid_capture, capsys
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_JSON[case][0])
    required = {
        "build": ["--in", str(valid_capture)],
        "export": ["--format", "dot"],
        "query": ["--target", "scada"],
    }.get(command, [])
    assert main([command, flag, str(bad), *required]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"cyberdep {command}: error: {what} is not valid json: {BAD_JSON[case][1]}\n"
    )


FORBIDDEN = {"loads", "load", "JSONDecoder", "JSONDecodeError"}


def json_decoding_names(path: Path) -> list[str]:
    """Every reference in a module to json.loads/load, JSONDecoder or JSONDecodeError."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            if node.attr.startswith("JSON") or ast.unparse(node.value) == "json":
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("json"):
            found += [f"{path.name}:{node.lineno}: from json import {alias.name}"
                      for alias in node.names if alias.name in FORBIDDEN | {"*"}]
        elif isinstance(node, ast.Name) and node.id in {"JSONDecoder", "JSONDecodeError"}:
            found.append(f"{path.name}:{node.lineno}: {node.id}")
    return found


def test_only_ingest_decodes_json():
    package = Path(cyberdep.__file__).parent
    modules = {path.name: path for path in package.glob("*.py")}
    assert json_decoding_names(modules.pop("ingest.py")), "the walker must see ingest's decoder"
    assert [hit for path in modules.values() for hit in json_decoding_names(path)] == []
