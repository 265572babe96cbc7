"""Parsing, filtering, and CSV round-trip behavior of the ingest layer."""

import io
import ipaddress
import json

from hypothesis import example, given, settings, strategies as st

from cyberdep.errors import FormatError
from cyberdep.ingest import (
    CSV_HEADER,
    DNP3_SYSCALLS,
    IPV4_PATTERN,
    CaptureWindow,
    Dnp3MessageType,
    RejectedLine,
    _message_type,
    export_csv,
    filter_dnp3,
    parse_csv,
    parse_packet_log,
)
from conftest import jsonl_bytes

import pytest


def row(ts, src="10.0.0.1", dst="10.0.0.2", proto="dnp3", fn="read", **extra):
    d = {"ts_us": ts, "src": src, "dst": dst, "proto": proto}
    if fn is not None:
        d["dnp3_fn"] = fn
    d.update(extra)
    return d


class TestParsePacketLog:
    def test_basic_lines(self):
        data = jsonl_bytes([row(1), row(2, fn="response"), row(3, proto="modbus", fn=None)])
        window = parse_packet_log(data, source_label="t")
        assert window.source_label == "t"
        assert window.stats.total == 3
        assert window.stats.parsed == 3
        assert window.stats.rejected == 0
        assert [r.ts_us for r in window.records] == [1, 2, 3]
        assert window.records[0].message_type is Dnp3MessageType.READ
        assert window.records[1].message_type is Dnp3MessageType.RESPOND
        assert window.records[2].message_type is Dnp3MessageType.OTHER

    def test_accepts_stream_and_bytes(self):
        data = jsonl_bytes([row(5)])
        assert parse_packet_log(io.BytesIO(data)).records == parse_packet_log(data).records

    def test_bad_line_rejected_with_line_number(self):
        """Line 4 carries a string timestamp; the other nine survive."""
        rows = [row(i * 10) for i in range(1, 11)]
        rows[3]["ts_us"] = "not-a-number"
        window = parse_packet_log(jsonl_bytes(rows))
        assert window.stats.total == 10
        assert window.stats.parsed == 9
        assert window.stats.rejected == 1
        (rej,) = window.rejections
        assert rej.line_no == 4
        assert "ts_us" in rej.reason

    def test_records_sorted_by_time_then_input_order(self):
        rows = [row(ts, src=f"10.0.9.{i}") for i, ts in enumerate((30, 10, 20, 10), start=1)]
        window = parse_packet_log(jsonl_bytes(rows))
        assert [(r.ts_us, r.src_addr) for r in window.records] == [
            (10, "10.0.9.2"),
            (10, "10.0.9.4"),
            (20, "10.0.9.3"),
            (30, "10.0.9.1"),
        ]

    def test_blank_lines_skipped_without_counting(self):
        data = b"\n   \n" + jsonl_bytes([row(1)]) + b"\t\n" + jsonl_bytes([row(2)]) + b"\n"
        window = parse_packet_log(data)
        assert window.stats.total == 2
        assert window.stats.parsed == 2

    def test_extra_fields_ignored(self):
        window = parse_packet_log(jsonl_bytes([row(1, note="x", length=42)]))
        assert window.stats.parsed == 1

    @pytest.mark.parametrize(
        "line,reason_part",
        [
            (b"{not json", "invalid json"),
            (b"[1, 2]", "not a json object"),
            (b'"just a string"', "not a json object"),
            (b"\xff\xfe\x00garbage", "invalid utf-8"),
        ],
    )
    def test_structural_rejections(self, line, reason_part):
        window = parse_packet_log(line + b"\n")
        assert window.stats.rejected == 1
        assert reason_part in window.rejections[0].reason

    @pytest.mark.parametrize(
        "bad,reason_part",
        [
            (row(True), "ts_us"),
            (row(1.5), "ts_us"),
            (row(-1), "ts_us"),
            (row(1, src="999.1.2.3"), "src"),
            (row(1, dst="fe80::1"), "dst"),
            (row(1, src=7), "src"),
            (row(1, src="10.0.0.2", dst="10.0.0.2"), "differ"),
            (row(1, proto=3, fn=None), "proto"),
            ({"ts_us": 1, "src": "10.0.0.1", "dst": "10.0.0.2", "proto": "dnp3", "dnp3_fn": 9}, "dnp3_fn"),
            ({"src": "10.0.0.1", "dst": "10.0.0.2", "proto": "dnp3"}, "ts_us"),
        ],
    )
    def test_field_rejections(self, bad, reason_part):
        window = parse_packet_log(jsonl_bytes([bad]))
        assert window.stats.parsed == 0
        assert window.stats.rejected == 1
        assert reason_part in window.rejections[0].reason

    @pytest.mark.parametrize("key", ["src", "dst"])
    @pytest.mark.parametrize("value", [["10.0.0.1"], {"a": 1}, None, 7, True])
    def test_non_string_endpoint_rejected_after_valid_lines(self, key, value):
        """The address memo must not be consulted before the type check."""
        window = parse_packet_log(jsonl_bytes([row(1), row(2, **{key: value}), row(3)]))
        assert window.stats.parsed == 2
        assert window.rejections == (RejectedLine(2, f"{key} must be a string"),)

    def test_unknown_fn_maps_to_other(self):
        window = parse_packet_log(jsonl_bytes([row(1, fn="cold_restart"), row(2, fn=None)]))
        assert all(r.message_type is Dnp3MessageType.OTHER for r in window.records)

    def test_empty_input(self):
        window = parse_packet_log(b"")
        assert window == CaptureWindow(records=(), stats=window.stats)
        assert window.stats.total == 0


def test_message_type_wire_names():
    assert _message_type("dnp3", "read") is Dnp3MessageType.READ
    assert _message_type("dnp3", "response") is Dnp3MessageType.RESPOND
    assert _message_type("dnp3", "request_link_status") is Dnp3MessageType.REQUEST_LINK_STATUS
    assert _message_type("dnp3", "direct_operate") is Dnp3MessageType.DIRECT_OPERATE
    assert _message_type("dnp3", "READ") is Dnp3MessageType.OTHER
    assert _message_type("dnp3", "") is Dnp3MessageType.OTHER
    assert _message_type("dnp3", None) is Dnp3MessageType.OTHER
    assert _message_type("DNP3", "read") is Dnp3MessageType.READ  # proto in any case
    for proto in ("modbus", "dnp", "dnp3 ", ""):
        assert _message_type(proto, "read") is Dnp3MessageType.OTHER


def test_syscall_tuple_is_the_four_modeled_codes():
    assert [m.value for m in DNP3_SYSCALLS] == [
        "request_link_status",
        "read",
        "response",
        "direct_operate",
    ]


class TestFilterDnp3:
    def test_drops_non_dnp3_and_unmodeled_codes(self):
        rows = [
            row(1),
            row(2, proto="modbus", fn=None),
            row(3, fn="cold_restart"),
            row(4, fn="direct_operate"),
            row(5, fn=None),
            row(6, proto="modbus", fn="read"),
        ]
        window = filter_dnp3(parse_packet_log(jsonl_bytes(rows)))
        assert [r.ts_us for r in window.records] == [1, 4]
        assert window.stats.filtered_out == 4

    def test_idempotent(self):
        rows = [row(1), row(2, proto="http", fn=None), row(3, fn="weird")]
        once = filter_dnp3(parse_packet_log(jsonl_bytes(rows)))
        twice = filter_dnp3(once)
        assert twice == once

    def test_count_conservation(self):
        rows = [row(i, proto="dnp3" if i % 2 else "arp", fn="read" if i % 3 else None)
                for i in range(1, 20)]
        window = filter_dnp3(parse_packet_log(jsonl_bytes(rows)))
        assert window.stats.parsed == len(window.records) + window.stats.filtered_out

    def test_proto_any_case_but_fn_exact(self):
        rows = [row(1, proto="DNP3", fn="read"), row(2, proto="DNP3", fn="READ")]
        window = filter_dnp3(parse_packet_log(jsonl_bytes(rows)))
        assert [r.ts_us for r in window.records] == [1]
        assert window.stats.filtered_out == 1


class TestCsv:
    def test_export_header_and_rows(self):
        window = parse_packet_log(jsonl_bytes([row(7, fn="response")]))
        buf = io.BytesIO()
        assert export_csv(window, buf) == 1
        assert buf.getvalue() == b"ts_us,src,dst,message_type\n7,10.0.0.1,10.0.0.2,response\n"

    def test_round_trip(self):
        rows = [row(i, fn=fn) for i, fn in enumerate(
            ["read", "response", "direct_operate", "request_link_status", None], start=1
        )]
        window = parse_packet_log(jsonl_bytes(rows))
        buf = io.BytesIO()
        export_csv(window, buf)
        back = parse_csv(buf.getvalue())
        assert back == [
            (r.ts_us, r.src_addr, r.dst_addr, r.message_type) for r in window.records
        ]

    def test_skips_a_blank_line_between_rows(self):
        data = CSV_HEADER.encode() + b"\n1,10.0.0.1,10.0.0.2,read\n\n2,10.0.0.2,10.0.0.1,response\n"
        assert parse_csv(data) == [
            (1, "10.0.0.1", "10.0.0.2", Dnp3MessageType.READ),
            (2, "10.0.0.2", "10.0.0.1", Dnp3MessageType.RESPOND),
        ]

    def test_rejects_wrong_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_csv(b"time,src,dst,kind\n")

    def test_rejects_bad_field_count(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_csv(CSV_HEADER.encode() + b"\n1,10.0.0.1,10.0.0.2\n")

    def test_rejects_bad_timestamp(self):
        with pytest.raises(FormatError, match="timestamp"):
            parse_csv(CSV_HEADER.encode() + b"\nxyz,10.0.0.1,10.0.0.2,read\n")

    @pytest.mark.parametrize(
        "data_row,match",
        [
            (b"1,not-an-ip,10.0.0.2,bogus", "line 2: src is not a valid IPv4 address: 'not-an-ip'"),
            (b"2,10.0.0.1,10.0.0.2,read\r", r"line 2: 'read\\r' is not a valid Dnp3MessageType"),
            (b"1,10.0.0.1,10.0.0.2,bogus", "line 2: 'bogus' is not a valid Dnp3MessageType"),
            (b"1,10.0.0.1,10.0.0.1,read", "line 2: src and dst must differ"),
            (b"+5,10.0.0.1,10.0.0.2,read", r"line 2: bad timestamp '\+5'"),
            (b"1_0,10.0.0.1,10.0.0.2,read", "line 2: bad timestamp '1_0'"),
            (b"1" * 5000 + b",10.0.0.1,10.0.0.2,read", "line 2: "),
        ],
        ids=["bad-addr", "crlf-type", "unknown-type", "same-endpoints", "plus-ts", "underscore-ts",
             "huge-ts"],
    )
    def test_rejects_rows_breaking_record_rules(self, data_row, match):
        with pytest.raises(FormatError, match=match):
            parse_csv(CSV_HEADER.encode() + b"\n" + data_row + b"\n")

    def test_rejects_non_ascii_bytes(self):
        with pytest.raises(FormatError, match="byte 36 is not ASCII: 0xff"):
            parse_csv(b"ts_us,src,dst,message_type\n1,10.0.0.\xff,10.0.0.2,read\n")


# -- properties --------------------------------------------------------------

ip_octet = st.integers(min_value=0, max_value=255)
ipv4 = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}", ip_octet, ip_octet, ip_octet, ip_octet)

valid_row = st.builds(
    row,
    ts=st.integers(min_value=0, max_value=2**60),
    src=st.just("192.0.2.1"),
    dst=ipv4.filter(lambda a: a != "192.0.2.1"),
    proto=st.sampled_from(["dnp3", "modbus", "http", "DNP3"]),
    fn=st.one_of(st.none(), st.sampled_from([m.value for m in Dnp3MessageType])),
)


def accepted_by_ipaddress(text: str) -> bool:
    try:
        ipaddress.IPv4Address(text)
    except ValueError:
        return False
    return True


# Address-like strings: octets in and out of range or with leading zeros,
# and text mixing digits with whitespace, '/', '%', signs and non-ASCII digits.
_ODD_CHARS = "0123456789. \t\n/%\u0663\uff11+-"
octet_text = st.one_of(
    st.integers(min_value=0, max_value=999).map(str),
    st.integers(min_value=0, max_value=255).map(lambda n: f"0{n}"),
    st.text(alphabet=_ODD_CHARS, max_size=4),
)
address_like = st.one_of(
    st.lists(octet_text, min_size=3, max_size=5).map(".".join),
    st.text(alphabet=_ODD_CHARS, max_size=20),
)


@given(address_like)
@example("0.0.0.0")
@example("255.255.255.255")
@example("256.0.0.1")
@example("10.0.0.010")
@example("1.2.3.4\n")
@example("1.2.3.4/32")
@example("\u0661.2.3.4")
@example("1.2.3")
@example("1.2.3.4.5")
@example("")
@settings(max_examples=1000)
def test_address_pattern_agrees_with_ipaddress(text):
    assert bool(IPV4_PATTERN.fullmatch(text)) == accepted_by_ipaddress(text)


@given(st.lists(valid_row, max_size=50))
@settings(max_examples=200)
def test_valid_rows_always_parse(rows):
    window = parse_packet_log(jsonl_bytes(rows))
    assert window.stats.parsed == len(rows)
    assert window.stats.rejected == 0
    ts = [r.ts_us for r in window.records]
    assert ts == sorted(ts)


@given(st.lists(st.binary(max_size=80), max_size=60))
@settings(max_examples=300)
def test_parse_never_raises_on_arbitrary_lines(lines):
    blob = b"\n".join(lines)
    window = parse_packet_log(blob)
    assert window.stats.total == window.stats.parsed + window.stats.rejected
    for rej in window.rejections:
        assert rej.line_no >= 1


@given(st.lists(valid_row, max_size=30))
@settings(max_examples=100)
def test_filter_is_idempotent_property(rows):
    window = filter_dnp3(parse_packet_log(jsonl_bytes(rows)))
    assert filter_dnp3(window) == window
    modeled = {m.value for m in DNP3_SYSCALLS}
    assert len(window.records) == sum(
        1 for d in rows if d["proto"].lower() == "dnp3" and d.get("dnp3_fn") in modeled
    )
    for r in window.records:
        assert r.message_type in DNP3_SYSCALLS
