"""Seeded benchmark inputs and the exact tallies the output checks compare against.

This module does not import cyberdep: the generator and both oracles are
written from the documented formats, so a defect in the program under test
cannot hide itself by also corrupting the expected values.

``make_capture`` writes a JSON Lines capture and counts, while writing, what
a correct build must report: lines total, rejected, filtered out, unmapped
(per address) and dropped by the SCADA collapse, and the per-edge, per-type
counts of the collapsed graph. ``tally_clean_capture`` re-derives the same
tally from a capture that should hold no malformed lines (synth output).
"""

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field

FUNCTIONS = ("request_link_status", "read", "response", "direct_operate")
# Requests travel master -> device and responses device -> master.
_MESSAGE_MIX = (("read", 0.35), ("response", 0.35), ("request_link_status", 0.2),
                ("direct_operate", 0.1))

# Shares of capture lines by kind; the rest is device<->SCADA DNP3 traffic.
NOISE_SHARE = 0.10
MALFORMED_SHARE = 0.01
UNMAPPED_SHARE = 0.01
NON_SCADA_SHARE = 0.01
OUT_OF_ORDER_SHARE = 0.005

_TS_BASE = 1_700_000_000_000_000


@dataclass
class Tally:
    """Expected build accounting for one capture under one topology."""

    lines_total: int = 0
    rejected: int = 0
    filtered_out: int = 0
    unmapped: int = 0
    unmapped_by_addr: dict = field(default_factory=dict)
    non_scada_dropped: int = 0
    scada: str = ""
    roles: dict = field(default_factory=dict)  # device name -> role
    edges: dict = field(default_factory=dict)  # (device, scada) -> {fn: count}
    # Rejections by class, for the record only: the program reports reasons as text.
    rejected_by_class: dict = field(default_factory=dict)

    @property
    def parsed(self) -> int:
        return self.lines_total - self.rejected

    @property
    def retained(self) -> int:
        return self.parsed - self.filtered_out

    @property
    def mapped(self) -> int:
        return self.retained - self.unmapped

    @property
    def grand_total(self) -> int:
        return sum(sum(by_type.values()) for by_type in self.edges.values())

    def probabilities(self) -> dict:
        """(source, sink) -> count / grand_total, computed as the program must."""
        total = self.grand_total
        return {key: sum(by_type.values()) / total for key, by_type in self.edges.items()}

    def nodes(self) -> dict:
        names = {name for key in self.edges for name in key}
        return {name: self.roles.get(name, "other") for name in sorted(names)}

    def count_edge(self, device: str, fn: str) -> None:
        by_type = self.edges.setdefault((device, self.scada), {})
        by_type[fn] = by_type.get(fn, 0) + 1

    def summary(self) -> dict:
        return {
            "lines_total": self.lines_total,
            "rejected": self.rejected,
            "rejected_by_class": dict(sorted(self.rejected_by_class.items())),
            "filtered_out": self.filtered_out,
            "unmapped": self.unmapped,
            "non_scada_dropped": self.non_scada_dropped,
            "grand_total": self.grand_total,
            "edges": len(self.edges),
        }


class TopologyIndex:
    """Name, role and address lookups over a topology document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.roles = {d["name"]: d["role"] for d in doc["devices"]}
        self.addr_of = {d["name"]: min(d["addrs"]) for d in doc["devices"] if d["addrs"]}
        self.device_at = {a: d["name"] for d in doc["devices"] for a in d["addrs"]}
        self.scada = next(d["name"] for d in doc["devices"] if d["role"] == "scada")
        self.non_scada = sorted(n for n in self.addr_of if n != self.scada)


def wide_topology_doc(n_field: int) -> dict:
    """One SCADA master plus n_field field devices, one address each."""
    devices = [{"name": "scada", "role": "scada", "addrs": ["10.0.0.10"]}]
    for i in range(n_field):
        devices.append({
            "name": f"fd-{i:05d}",
            "role": "field",
            "substation": f"sub-{i // 200:03d}",
            "addrs": [f"10.{1 + i // 40000}.{(i // 200) % 200}.{10 + i % 200}"],
        })
    return {"label": f"wide-{n_field}", "devices": devices}


def lognormal_weights(names, rng: random.Random, sigma: float = 0.6) -> dict:
    return {name: round(rng.lognormvariate(0.0, sigma), 6) for name in names}


class _Picker:
    """Weighted choice by bisect over cumulative weights."""

    def __init__(self, items, weights, rng: random.Random):
        self.items = list(items)
        self.bounds = list(itertools.accumulate(weights))
        self.rng = rng

    def __call__(self):
        x = self.rng.random() * self.bounds[-1]
        return self.items[min(bisect.bisect_right(self.bounds, x), len(self.items) - 1)]


def _line(ts: int, src: str, dst: str, proto: str, fn: str | None) -> bytes:
    if fn is None:
        text = f'{{"ts_us":{ts},"src":"{src}","dst":"{dst}","proto":"{proto}"}}'
    else:
        text = f'{{"ts_us":{ts},"src":"{src}","dst":"{dst}","proto":"{proto}","dnp3_fn":"{fn}"}}'
    return text.encode("ascii")


# Malformed lines, one factory per rejection class. Each takes (ts, a, b): a
# timestamp and two distinct declared addresses.
_MALFORMED = {
    "utf8": lambda ts, a, b: b'{"ts_us":%d,"src":"\xff\xfe","dst":"%s"}' % (ts, b.encode()),
    "json": lambda ts, a, b: f'{{"ts_us":{ts},"src":"{a}","dst":'.encode(),
    "non_object": lambda ts, a, b: (b"[1, 2, 3]", b"42", b'"dnp3"', b"null")[ts % 4],
    "ts": lambda ts, a, b: (
        f'{{"ts_us":-{ts},"src":"{a}","dst":"{b}","proto":"dnp3","dnp3_fn":"read"}}',
        f'{{"ts_us":"{ts}","src":"{a}","dst":"{b}","proto":"dnp3","dnp3_fn":"read"}}',
        f'{{"ts_us":true,"src":"{a}","dst":"{b}","proto":"dnp3","dnp3_fn":"read"}}',
        f'{{"src":"{a}","dst":"{b}","proto":"dnp3","dnp3_fn":"read"}}',
    )[ts % 4].encode(),
    "address": lambda ts, a, b: (
        f'{{"ts_us":{ts},"src":"10.0.1.256","dst":"{b}","proto":"dnp3","dnp3_fn":"read"}}',
        f'{{"ts_us":{ts},"src":"{a}","dst":"not-an-ip","proto":"dnp3","dnp3_fn":"read"}}',
        f'{{"ts_us":{ts},"src":"{a}","proto":"dnp3","dnp3_fn":"read"}}',
        f'{{"ts_us":{ts},"src":"{a}","dst":7,"proto":"dnp3","dnp3_fn":"read"}}',
    )[ts % 4].encode(),
    "same_endpoint": lambda ts, a, b: _line(ts, a, a, "dnp3", "read"),
}
_NOISE_PROTOS = ("tcp", "udp", "modbus", "icmp")
_OTHER_FUNCTIONS = ("cold_restart", "write", "select", None)


def make_capture(topo: TopologyIndex, weights: dict, n_lines: int,
                 rng: random.Random) -> tuple[bytes, Tally]:
    """Write n_lines of mixed traffic and return them with their exact tally.

    Besides device<->SCADA DNP3 traffic drawn by weight, the capture holds
    non-DNP3 and unmodeled-function noise, malformed lines of every class,
    lines with an undeclared endpoint, DNP3 traffic between two non-SCADA
    devices, and timestamps that jump backwards.
    """
    tally = Tally(scada=topo.scada, roles=dict(topo.roles))
    scada_addr = topo.addr_of[topo.scada]
    names = sorted(weights)
    pick_device = _Picker(names, [weights[n] for n in names], rng)
    pick_fn = _Picker([f for f, _ in _MESSAGE_MIX], [w for _, w in _MESSAGE_MIX], rng)
    all_addrs = [topo.addr_of[n] for n in topo.non_scada] + [scada_addr]
    classes = sorted(_MALFORMED)

    cut_noise = NOISE_SHARE
    cut_malformed = cut_noise + MALFORMED_SHARE
    cut_unmapped = cut_malformed + UNMAPPED_SHARE
    cut_non_scada = cut_unmapped + NON_SCADA_SHARE

    out = []
    for i in range(n_lines):
        ts = _TS_BASE + i * 1000 + rng.randrange(1000)
        if rng.random() < OUT_OF_ORDER_SHARE:
            ts -= rng.randrange(1, 500) * 1000
        kind = rng.random()
        if kind < cut_noise:
            a, b = rng.sample(all_addrs, 2)
            if rng.random() < 0.5:
                line = _line(ts, a, b, rng.choice(_NOISE_PROTOS), rng.choice(FUNCTIONS))
            else:
                line = _line(ts, a, b, "dnp3", rng.choice(_OTHER_FUNCTIONS))
            tally.filtered_out += 1
        elif kind < cut_malformed:
            cls = classes[i % len(classes)]
            a, b = rng.sample(all_addrs, 2)
            line = _MALFORMED[cls](ts, a, b)
            tally.rejected += 1
            tally.rejected_by_class[cls] = tally.rejected_by_class.get(cls, 0) + 1
        elif kind < cut_unmapped:
            stranger = f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            other = rng.choice([f"172.17.0.{rng.randrange(1, 255)}",
                                topo.addr_of[pick_device()], scada_addr])
            src, dst = (stranger, other) if rng.random() < 0.5 else (other, stranger)
            line = _line(ts, src, dst, "dnp3", pick_fn())
            tally.unmapped += 1
            for addr in (src, dst):
                if addr not in topo.device_at:
                    tally.unmapped_by_addr[addr] = tally.unmapped_by_addr.get(addr, 0) + 1
        elif kind < cut_non_scada:
            x, y = rng.sample(topo.non_scada, 2)
            line = _line(ts, topo.addr_of[x], topo.addr_of[y], "dnp3", pick_fn())
            tally.non_scada_dropped += 1
        else:
            device = pick_device()
            fn = pick_fn()
            addr = topo.addr_of[device]
            if fn == "response":
                line = _line(ts, addr, scada_addr, "dnp3", fn)
            else:
                line = _line(ts, scada_addr, addr, "dnp3", fn)
            tally.count_edge(device, fn)
        out.append(line)
    tally.lines_total = n_lines
    return b"\n".join(out) + b"\n" if out else b"", tally


def tally_clean_capture(data: bytes, topo: TopologyIndex) -> Tally:
    """Tally a capture expected to hold only well-formed lines.

    A line that is not a JSON object with an integer ts_us and string
    endpoints and proto counts as rejected; a check that expects none
    rejected then fails on it.
    """
    tally = Tally(scada=topo.scada, roles=dict(topo.roles))
    for raw in data.splitlines():
        if not raw.strip():
            continue
        tally.lines_total += 1
        try:
            obj = json.loads(raw)
        except ValueError:
            tally.rejected += 1
            continue
        if not (isinstance(obj, dict) and type(obj.get("ts_us")) is int
                and isinstance(obj.get("src"), str) and isinstance(obj.get("dst"), str)
                and isinstance(obj.get("proto"), str) and obj["src"] != obj["dst"]):
            tally.rejected += 1
            continue
        fn = obj.get("dnp3_fn")
        if obj["proto"] != "dnp3" or fn not in FUNCTIONS:
            tally.filtered_out += 1
            continue
        src, dst = topo.device_at.get(obj["src"]), topo.device_at.get(obj["dst"])
        if src is None or dst is None:
            tally.unmapped += 1
            continue
        if dst == topo.scada:
            tally.count_edge(src, fn)
        elif src == topo.scada:
            tally.count_edge(dst, fn)
        else:
            tally.non_scada_dropped += 1
    return tally
