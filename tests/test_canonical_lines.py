"""The canonical-line fast path of both ingest stages against the strict scanner.

``strict_scan`` below is the per-line scanner as it stood before the fast path,
kept here as the oracle: every line is decoded and judged on its own. The fast
path of ``count_packet_log`` and ``parse_packet_log`` must give the same counts,
windows, rejected total, shown rejections and line numbers on any mix of
canonical lines and their near misses.
"""

import io
import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from cyberdep import ingest
from cyberdep.depgraph import GraphOptions, Normalization, build_graph
from cyberdep.ingest import (
    _DECODER, CaptureWindow, IngestStats, PacketRecord, RejectedLine, _json_failure,
    _validate_record, count_packet_log, parse_packet_log,
)
from cyberdep.synth import builtin_profile, generate
from conftest import make_topology, staged_build

SHOWN = 20


def strict_scan(lines):
    """Yield ``(line_no, item)`` as the strict scanner does, line by line."""
    valid = set()
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            yield line_no, "invalid utf-8"
            continue
        try:
            if text.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", "", 0)
            obj = _DECODER.decode(text)
        except (ValueError, RecursionError) as exc:
            yield line_no, f"invalid json: {_json_failure(exc)}"
            continue
        if not isinstance(obj, dict):
            yield line_no, "not a json object"
            continue
        try:
            item = _validate_record(obj, valid)
        except ValueError as exc:
            item = str(exc)
        yield line_no, item


def strict_count(lines, shown=SHOWN):
    """The counting loop the streamed build ran over ``strict_scan``."""
    counts, rejections, rejected = {}, [], 0
    for line_no, item in strict_scan(lines):
        if isinstance(item, str):
            rejected += 1
            if rejected <= shown:
                rejections.append(RejectedLine(line_no, item))
        else:
            key = item[1:]
            counts[key] = counts.get(key, 0) + 1
    return counts, rejected, tuple(rejections)


def strict_window(data: bytes) -> CaptureWindow:
    records, rejections = [], []
    for line_no, item in strict_scan(io.BytesIO(data)):
        if isinstance(item, str):
            rejections.append(RejectedLine(line_no, item))
        else:
            records.append(PacketRecord(*item))
    records.sort(key=lambda r: r.ts_us)
    stats = IngestStats(len(records) + len(rejections), len(records), len(rejections))
    return CaptureWindow(tuple(records), "", stats, tuple(rejections))


# The master holds 10.9.0.1-2 and field devices 10.9.1.1-3; 10.9.2.x resolve to
# nothing. The rest are near misses of an address: a bad octet, leading zeros, a
# trailing dot, and strings the pattern's [0-9.]{7,15} admits but IPv4 does not.
TOPOLOGY = make_topology(3, master_addrs=("10.9.0.1", "10.9.0.2"))
ADDRESSES = ["10.9.0.1", "10.9.0.2", "10.9.1.1", "10.9.1.2", "10.9.1.3", "10.9.2.1"]
BAD_ADDRESSES = ["10.9.1.256", "300.9.1.1", "10.9.01.1", "010.9.1.1", "10.9.1.1.",
                 "10.9..1.1", "1.2.3", "999.999.999.999"]
PROTOS = ["dnp3", "DNP3", "Dnp3", "modbus", "", "udp_2"]
FUNCTIONS = [None, "read", "response", "request_link_status", "direct_operate", "READ",
             "cold_restart", ""]


def canonical(ts: int, src: str, dst: str, proto: str, fn: str | None) -> bytes:
    tail = "" if fn is None else f',"dnp3_fn":"{fn}"'
    return f'{{"ts_us":{ts},"src":"{src}","dst":"{dst}","proto":"{proto}"{tail}}}'.encode()


def _escape_first(line: bytes, key: bytes) -> bytes:
    """Write the first character of ``key``'s string value as a \\u escape."""
    start = line.find(b'"%s":"' % key)
    if start < 0:
        return line
    at = start + len(key) + 4
    if at >= len(line) or line[at:at + 1] == b'"':
        return line
    return line[:at] + b"\\u%04x" % line[at] + line[at + 1:]


def _reorder(line: bytes) -> bytes:
    obj = json.loads(line)
    return json.dumps(dict(reversed(list(obj.items()))), separators=(",", ":")).encode()


def _drop_fn(line: bytes) -> bytes:
    return re.sub(rb',"dnp3_fn":"[^"]*"', b"", line)


def _same_endpoints(line: bytes) -> bytes:
    return re.sub(rb'"dst":"[^"]*"', b'"dst":"' + json.loads(line)["src"].encode() + b'"', line)


#: Near misses of one canonical line. Those in SHAPE_KEEPING keep the canonical
#: shape and change one field; the rest leave the shape.
MUTATIONS = {
    "drop_fn": _drop_fn,
    "upper_proto": lambda line: line.replace(b'"proto":"dnp3"', b'"proto":"DNP3"', 1),
    "upper_fn": lambda line: line.replace(b'"dnp3_fn":"read"', b'"dnp3_fn":"READ"', 1),
    "same_endpoints": _same_endpoints,
    "ts_leading_zero": lambda line: line.replace(b'"ts_us":', b'"ts_us":0', 1),
    "octet_leading_zero": lambda line: line.replace(b'"src":"10.', b'"src":"010.', 1),
    "crlf": lambda line: line + b"\r",
    "bom": lambda line: b"\xef\xbb\xbf" + line,
    "trailing_spaces": lambda line: line + b"  ",
    "form_feed": lambda line: line + b"\x0c",
    "non_utf8": lambda line: line.replace(b'"proto":"', b'"proto":"\xff', 1),
    "extra_key": lambda line: line[:-1] + b',"x":1}',
    "extra_key_first": lambda line: b'{"x":[1,2],' + line[1:],
    "duplicate_key": lambda line: line[:-1] + b',"src":"10.9.1.3"}',
    "duplicate_fn": lambda line: line[:-1] + b',"dnp3_fn":"read"}',
    "reordered": _reorder,
    "escaped_value": lambda line: _escape_first(line, b"src"),
    "escaped_proto": lambda line: _escape_first(line, b"proto"),
    "escaped_key": lambda line: line.replace(b'"dst"', b'"\\u0064st"', 1),
    "spaced": lambda line: json.dumps(json.loads(line)).encode(),
    "float_ts": lambda line: line.replace(b',"src"', b'.0,"src"', 1),
    "negative_ts": lambda line: line.replace(b'"ts_us":', b'"ts_us":-', 1),
    "truncated": lambda line: line[:-2],
    "null_fn": lambda line: (line[:-1] + b',"dnp3_fn":null}') if b"dnp3_fn" not in line else line,
}

timestamps = st.one_of(st.integers(0, 5_000), st.integers(10**17, 10**20))
line_fields = st.tuples(
    st.sampled_from(ADDRESSES + BAD_ADDRESSES[:2]), st.sampled_from(ADDRESSES),
    st.sampled_from(PROTOS), st.sampled_from(FUNCTIONS),
)
near_misses = st.builds(
    canonical, timestamps, st.sampled_from(ADDRESSES + BAD_ADDRESSES),
    st.sampled_from(ADDRESSES + BAD_ADDRESSES), st.sampled_from(PROTOS),
    st.sampled_from(FUNCTIONS),
)
SHAPE_KEEPING = ["drop_fn", "upper_proto", "upper_fn", "same_endpoints"]


@st.composite
def capture_lines(draw):
    """Canonical lines over a few field tuples, so the memos hit, mixed with near misses."""
    pool = draw(st.lists(line_fields, min_size=1, max_size=3))
    lines = st.builds(lambda ts, fields: canonical(ts, *fields), timestamps, st.sampled_from(pool))

    def mutate(names):
        return st.builds(lambda line, name: MUTATIONS[name](line), lines, st.sampled_from(names))

    blank_or_junk = st.sampled_from([b"", b" \t", b"\r", b"\xff", b"[1]", b"{}"])
    size = draw(st.integers(1, 70))  # st.lists alone draws mostly a handful of lines
    return draw(st.lists(
        st.one_of(lines, mutate(SHAPE_KEEPING), mutate(sorted(MUTATIONS)), near_misses,
                  blank_or_junk),
        min_size=size, max_size=size,
    ))


ALL_OPTIONS = [
    GraphOptions(collapse, normalization)
    for collapse in (True, False)
    for normalization in (Normalization.GLOBAL, Normalization.PER_SINK)
]


@settings(max_examples=250, deadline=None)
@given(lines=capture_lines(), final_newline=st.booleans())
@example(  # 24 rejections, past the 20 a build shows
    lines=[canonical(1, "10.9.0.1", "10.9.1.1", "dnp3", "read")] * 3
    + [canonical(2, "10.9.1.1", "10.9.1.1", "dnp3", "read"),
       canonical(3, "10.9.1.256", "10.9.1.1", "dnp3", "read"),
       MUTATIONS["bom"](canonical(4, "10.9.0.1", "10.9.1.1", "dnp3", "read"))] * 8,
    final_newline=False,
)
@example(  # ts_us read from the prefix: the smallest, then the longest (18 digits)
    lines=[canonical(1, "10.9.1.1", "10.9.0.1", "dnp3", "response"),
           canonical(0, "10.9.0.1", "10.9.1.1", "dnp3", "read")],
    final_newline=True,
)
@example(
    lines=[canonical(10**18 - 1, "10.9.0.1", "10.9.1.1", "dnp3", "read"),
           canonical(1, "10.9.1.1", "10.9.0.1", "dnp3", "response")],
    final_newline=True,
)
@example(  # 19 digits: off the prefix, so the strict path reads ts_us
    lines=[canonical(10**18, "10.9.0.1", "10.9.1.1", "dnp3", "read"),
           canonical(1, "10.9.1.1", "10.9.0.1", "dnp3", "response")],
    final_newline=True,
)
def test_count_packet_log_equals_strict_scan(lines, final_newline):
    """Equal counts, rejected totals, first rejections with line numbers, builds and windows."""
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    strict = strict_count(io.BytesIO(data))
    assert count_packet_log(io.BytesIO(data)) == strict

    window = parse_packet_log(data)
    assert window == strict_window(data)
    assert Counter((r.src_addr, r.dst_addr, r.message_type) for r in window.records) == strict[0]

    for options in ALL_OPTIONS:
        result = build_graph(io.BytesIO(data), TOPOLOGY, options)
        assert result == staged_build(window, TOPOLOGY, options)


def _count_calls(monkeypatch, *names: str) -> Counter:
    """Count the calls of the named ``ingest`` functions while the patch holds."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _f=getattr(ingest, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(ingest, name, counted)
    return calls


def _body(line: bytes) -> bytes:
    return line.split(b",", 1)[1]


#: Each stage that takes the fast path, over a list of byte lines, with its strict oracle.
JUDGES = {
    "count": (count_packet_log, strict_count),
    "parse": (lambda lines: parse_packet_log(b"".join(lines)),
              lambda lines: strict_window(b"".join(lines))),
}
judges = pytest.mark.parametrize("judge, strict", JUDGES.values(), ids=JUDGES)


@judges
def test_fast_path_fires(wscc, monkeypatch, judge, strict):
    """On a clean synth capture no line takes the strict path, and each body is judged once."""
    profile = builtin_profile("dos_only", wscc, n_messages=2000, seed=5, noise_fraction=0.1)
    lines = generate(profile, wscc).splitlines(keepends=True)
    assert len(lines) >= 2000
    bodies = {_body(line) for line in lines}

    calls = _count_calls(monkeypatch, "_judge_line", "_check_endpoints", "_message_type")
    result = judge(lines)
    assert calls["_judge_line"] == 0
    assert 0 < calls["_check_endpoints"] <= calls["_message_type"] == len(bodies) < len(lines) // 20
    monkeypatch.undo()
    assert result == strict(lines)


@judges
def test_body_memo_bound(monkeypatch, judge, strict):
    """Past ``_MAX_BODIES`` distinct bodies the results still equal the strict scan's.

    The memo takes no body past the bound, so each later body is judged again on
    each sight.
    """
    topo = make_topology(2000)
    profile = builtin_profile("baseline", topo, n_messages=3000, seed=11, noise_fraction=0.1)
    lines = generate(profile, topo).splitlines(keepends=True)
    names = sorted(MUTATIONS)
    mixed = [MUTATIONS[names[i // 37 % len(names)]](line) if i % 37 == 0 else line
             for i, line in enumerate(lines)]
    assert judge(mixed) == strict(mixed)

    bodies = list(dict.fromkeys(_body(line) for line in lines))
    assert len(bodies) > ingest._MAX_BODIES
    twice = [b'{"ts_us":%d,' % ts + body for ts, body in enumerate(bodies + bodies)]
    calls = _count_calls(monkeypatch, "_judge_line", "_message_type")
    result = judge(twice)
    assert calls == {"_message_type": 2 * len(bodies) - ingest._MAX_BODIES}
    monkeypatch.undo()
    assert result == strict(twice)
