"""Packet-log ingestion: JSON Lines parsing, DNP3 filtering, CSV conversion.

Input is newline-delimited JSON, one message per line:

    {"ts_us": <int>, "src": "<ipv4>", "dst": "<ipv4>", "proto": "<str>", "dnp3_fn": "<str|absent>"}

``proto`` equal to ``"dnp3"`` in any case (``"DNP3"`` too) marks DNP3
traffic; ``dnp3_fn`` selects one of the four modeled function codes
(request_link_status, read, response, direct_operate) and must match exactly,
in lower case. Any other ``dnp3_fn`` value, its absence, or a non-DNP3
``proto`` yields ``Dnp3MessageType.OTHER``, which ``filter_dnp3`` drops.
Unknown extra fields are ignored. Malformed lines are rejected and counted,
never fatal; whitespace-only lines are skipped without counting.

All five JSON inputs (capture lines here, the other documents via ``read_json``)
must be RFC 8259 JSON: ``NaN``/``Infinity``, integers over 4,300 digits,
non-UTF text and over-deep nesting are rejected with a reason.
"""

import io
import json
import re
import sys
from enum import Enum
from typing import BinaryIO, Iterable, NamedTuple

from .errors import FormatError


class Dnp3MessageType(Enum):
    REQUEST_LINK_STATUS = "request_link_status"
    READ = "read"
    RESPOND = "response"
    DIRECT_OPERATE = "direct_operate"
    OTHER = "other"

    __hash__ = object.__hash__  # Enum.__hash__ is Python code; members compare by identity


#: The four DNP3 function codes that survive filtering, in canonical order.
DNP3_SYSCALLS = (
    Dnp3MessageType.REQUEST_LINK_STATUS,
    Dnp3MessageType.READ,
    Dnp3MessageType.RESPOND,
    Dnp3MessageType.DIRECT_OPERATE,
)

CSV_HEADER = "ts_us,src,dst,message_type"

_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
#: A device address: four dot-separated ASCII decimal octets, each <= 255,
#: without leading zeros; the strings the standard library's IPv4 address
#: type accepts. Use with ``fullmatch``. Such a string needs no JSON escaping.
IPV4_PATTERN = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")


def _reject_constant(token: str):
    raise json.JSONDecodeError(f"{token} is not a JSON number", token, 0)


# Built once: a decoder made per call costs over a microsecond per capture line.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _json_failure(exc: ValueError | RecursionError) -> str:
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    if isinstance(exc, UnicodeDecodeError):
        return f"invalid {exc.encoding}"
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    return f"integer over {sys.get_int_max_str_digits():,} digits"  # int() refused it


def read_json(data: BinaryIO | bytes, what: str):
    """Decode an RFC 8259 document (UTF-8/16/32, as ``json.loads`` detects) or raise FormatError."""
    data = data if isinstance(data, bytes) else data.read()
    try:
        return _DECODER.decode(data.decode(json.detect_encoding(data), "surrogatepass"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{what} is not valid json: {_json_failure(exc)}")


def is_integer(value) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for a decoded JSON number a float can hold (no bool, no integer past 1.8e308)."""
    if is_integer(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


#: Wire name -> modeled function code; the one lookup of the four names.
MODELED_TYPES = {mt.value: mt for mt in DNP3_SYSCALLS}
_OTHER = Dnp3MessageType.OTHER


class PacketRecord(NamedTuple):
    """One timestamped protocol message between two endpoints."""

    ts_us: int
    src_addr: str
    dst_addr: str
    message_type: Dnp3MessageType


class IngestStats(NamedTuple):
    total: int = 0
    parsed: int = 0
    rejected: int = 0
    filtered_out: int = 0


class RejectedLine(NamedTuple):
    line_no: int
    reason: str


class CaptureWindow(NamedTuple):
    """An immutable, time-ordered batch of packet records plus ingest accounting."""

    records: tuple[PacketRecord, ...]
    source_label: str = ""
    stats: IngestStats = IngestStats()
    rejections: tuple[RejectedLine, ...] = ()


def _check_endpoints(src, dst) -> None:
    for key, value in (("src", src), ("dst", dst)):
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string")
        if not IPV4_PATTERN.fullmatch(value):
            raise ValueError(f"{key} is not a valid IPv4 address: {value!r}")
    if src == dst:
        raise ValueError("src and dst must differ")


def _message_type(proto: str, fn: str | None) -> Dnp3MessageType:
    """``fn``'s modeled type when ``proto`` is DNP3 in any case; OTHER otherwise."""
    return MODELED_TYPES.get(fn, _OTHER) if proto.lower() == "dnp3" else _OTHER


def _validate_record(obj: dict, valid: set[str]) -> tuple[int, str, str, Dnp3MessageType]:
    ts = obj.get("ts_us")
    if not is_integer(ts):
        raise ValueError("ts_us must be an integer")
    if ts < 0:
        raise ValueError("ts_us must be >= 0")

    src, dst = obj.get("src"), obj.get("dst")
    if not (isinstance(src, str) and isinstance(dst, str) and src in valid and dst in valid
            and src != dst):  # valid: this scan's checked addresses; a list would not hash
        _check_endpoints(src, dst)
        valid.update((src, dst))

    proto = obj.get("proto")
    if not isinstance(proto, str):
        raise ValueError("proto must be a string")

    fn = obj.get("dnp3_fn")
    if fn is not None and not isinstance(fn, str):
        raise ValueError("dnp3_fn must be a string when present")
    return ts, src, dst, _message_type(proto, fn)


def _judge_line(raw: bytes, valid: set[str]) -> tuple | str | None:
    """The strict path: ``(ts_us, src, dst, message_type)``, a rejection reason, or None if blank.

    ``valid`` is the caller's memo of checked addresses.
    """
    if not raw.strip():
        return None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return "invalid utf-8"
    try:
        if text.startswith("\ufeff"):  # as json.loads(str) refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", "", 0)
        obj = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        return f"invalid json: {_json_failure(exc)}"
    if not isinstance(obj, dict):
        return "not a json object"
    try:
        return _validate_record(obj, valid)
    except ValueError as exc:
        return str(exc)


#: The compact line shape that synth and most capture writers emit, as a prefix (``match``)
#: and the body after ``ts_us`` (``fullmatch``). Every line it matches decodes to exactly these
#: keys, with an integer ``ts_us`` >= 0 and strings that need no escapes, so the body decides.
_CANONICAL_PREFIX = re.compile(rb'\{"ts_us":(?:0|[1-9][0-9]{0,17}),')
_CANONICAL_BODY = re.compile(rb'"src":"([0-9.]{7,15})","dst":"([0-9.]{7,15})",'
                             rb'"proto":"([A-Za-z0-9_]*)"(?:,"dnp3_fn":"([a-z_]*)")?\}\r?\n?')
_MAX_BODIES = 1024  # most bodies of a wide capture are singletons: memoizing them only costs RSS
#: Rejected lines a count keeps, as ``build -v`` lists; the rest are only counted.
_SHOWN_REJECTIONS = 20


def _first_sight(body: bytes, bodies: dict, addrs: dict, canonical=_CANONICAL_BODY.fullmatch):
    """A canonical ``body``'s key if it passes the strict path's rules, else None.

    A passing body joins ``bodies`` below ``_MAX_BODIES``; ``addrs`` holds passed addresses.
    """
    if (m := canonical(body)) is None:
        return None
    s, d, proto, fn = m.groups(b"")
    src, dst = addrs.get(s), addrs.get(d)
    try:
        if src is None or dst is None or src == dst:  # a pair the rule has not passed
            _check_endpoints(src := s.decode(), dst := d.decode())
            addrs[s], addrs[d] = src, dst
        key = (src, dst, _message_type(proto.decode(), fn.decode()))
    except ValueError:
        return None  # the strict path gives the reason
    if len(bodies) < _MAX_BODIES:
        bodies[body] = key
    return key


def count_packet_log(
    lines: Iterable[bytes],
) -> tuple[dict[tuple[str, str, Dnp3MessageType], int], int, tuple[RejectedLine, ...]]:
    """Count the valid lines by ``(src, dst, message_type)``, as ``parse_packet_log`` judges them.

    Returns the counts, the number of rejected lines and the first
    ``_SHOWN_REJECTIONS`` rejections. A canonical line is counted through the body
    memo, or judged by ``_first_sight`` on a miss; every other line takes the strict path.
    """
    counts: dict[tuple[str, str, Dnp3MessageType], int] = {}
    bodies: dict[bytes, tuple[str, str, Dnp3MessageType]] = {}
    addrs: dict[bytes, str] = {}
    valid: set[str] = set()
    rejections: list[RejectedLine] = []
    rejected = 0
    prefix, first_sight = _CANONICAL_PREFIX.match, _first_sight
    for line_no, raw in enumerate(lines, start=1):
        if (p := prefix(raw)) is not None:
            body = raw[p.end():]
            if (key := bodies.get(body) or first_sight(body, bodies, addrs)) is not None:
                counts[key] = counts.get(key, 0) + 1
                continue
        item = _judge_line(raw, valid)
        if item is None:
            continue
        if type(item) is str:
            rejected += 1
            if rejected <= _SHOWN_REJECTIONS:
                rejections.append(RejectedLine(line_no, item))
            continue
        key = item[1:]
        counts[key] = counts.get(key, 0) + 1
    return counts, rejected, tuple(rejections)


def parse_packet_log(stream: BinaryIO | bytes, source_label: str = "") -> CaptureWindow:
    """Parse a JSON Lines byte stream into a CaptureWindow.

    Lines are judged as ``count_packet_log`` judges them. Malformed lines never
    abort the stream: each is recorded in the rejection report with its 1-based
    line number. Records are ordered by ts_us, ties in input order, so downstream
    output is deterministic even when the input is not time-sorted.
    """
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)

    records: list[PacketRecord] = []
    rejections: list[RejectedLine] = []
    bodies, addrs, valid = {}, {}, set()  # count_packet_log's memos
    prefix, first_sight = _CANONICAL_PREFIX.match, _first_sight
    for line_no, raw in enumerate(stream, start=1):
        if (p := prefix(raw)) is not None:
            body = raw[p.end():]
            if (key := bodies.get(body) or first_sight(body, bodies, addrs)) is not None:
                records.append(PacketRecord(int(raw[9:p.end() - 1]), *key))  # <= 18 digits
                continue
        item = _judge_line(raw, valid)
        if isinstance(item, str):
            rejections.append(RejectedLine(line_no, item))
        elif item is not None:
            records.append(PacketRecord(*item))

    records.sort(key=lambda r: r.ts_us)  # stable: ties keep line order
    stats = IngestStats(
        total=len(records) + len(rejections),
        parsed=len(records),
        rejected=len(rejections),
    )
    return CaptureWindow(
        records=tuple(records),
        source_label=source_label,
        stats=stats,
        rejections=tuple(rejections),
    )


def filter_dnp3(window: CaptureWindow) -> CaptureWindow:
    """Retain only DNP3 records carrying one of the four modeled function codes.

    Idempotent; record order is preserved and the dropped count is added to
    stats.filtered_out.
    """
    keep = tuple(r for r in window.records if r.message_type in DNP3_SYSCALLS)
    dropped = len(window.records) - len(keep)
    stats = window.stats._replace(filtered_out=window.stats.filtered_out + dropped)
    return window._replace(records=keep, stats=stats)


def export_csv(window: CaptureWindow, out: BinaryIO) -> int:
    """Write the window as CSV (header ``ts_us,src,dst,message_type``), LF endings.

    Returns the number of data rows written.
    """
    out.write(CSV_HEADER.encode("ascii") + b"\n")
    for r in window.records:
        row = f"{r.ts_us},{r.src_addr},{r.dst_addr},{r.message_type.value}\n"
        out.write(row.encode("ascii"))
    return len(window.records)


def parse_csv(stream: BinaryIO | bytes) -> list[tuple[int, str, str, Dnp3MessageType]]:
    """Read the CSV intermediate back into (ts_us, src, dst, message_type) tuples.

    Rows obey the packet-log rules: an ASCII-digit timestamp, two distinct
    IPv4 addresses and a message type value (``other`` included, as
    ``export_csv`` writes it for unfiltered windows). Any other row raises
    ``FormatError`` naming its line.
    """
    data = stream if isinstance(stream, bytes) else stream.read()
    try:
        text = io.StringIO(data.decode("ascii"), newline="")
    except UnicodeDecodeError as exc:
        raise FormatError(f"CSV byte {exc.start} is not ASCII: {data[exc.start]:#04x}")

    header = text.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise FormatError(f"unexpected CSV header: {header!r}")

    rows = []
    for line_no, line in enumerate(text, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise FormatError(f"line {line_no}: expected 4 fields, got {len(fields)}")
        ts, src, dst, kind = fields
        if not (ts.isascii() and ts.isdigit()):
            raise FormatError(f"line {line_no}: bad timestamp {ts!r}")
        try:
            _check_endpoints(src, dst)
            rows.append((int(ts), src, dst, Dnp3MessageType(kind)))
        except ValueError as exc:  # int() also refuses over 4,300 digits
            raise FormatError(f"line {line_no}: {exc}")
    return rows
