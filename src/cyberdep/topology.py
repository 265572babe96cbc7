"""Address-to-device mapping from a declared network topology.

The topology is an explicit JSON document, never inferred from traffic:

    {"devices": [{"name": "<str>", "role": "scada|field|router|other",
                  "substation": "<str|absent>", "addrs": ["<ipv4>", ...]}]}

``load_topology`` checks only the document's shape (objects, lists, string
``addrs`` and ``substation``); a ``substation`` is checked, not kept. Keys
other than these are ignored. ``Topology`` owns every value rule: each name
is a non-empty string XML can represent (``is_xml_name``), each role a
``DeviceRole``, each address IPv4.

A bundled fixture (``wscc9.topology.json``) models a 9-bus, three-substation
test system with a control-center SCADA master, three generators, three
loads, and four routers.
"""

import importlib.resources
from collections import Counter
from enum import Enum
from typing import BinaryIO, Iterable, NamedTuple

from .errors import FormatError, ValidationError
from .ingest import IPV4_PATTERN, CaptureWindow, Dnp3MessageType, read_json
from .record import Record, store

DEFAULT_TOPOLOGY_RESOURCE = "wscc9.topology.json"

# The 31 characters XML 1.0 forbids (even as character references) that UTF codecs carry:
# C0 controls other than tab, LF and CR, and U+FFFE, U+FFFF. A set: a regex compiles at import.
# XML also forbids lone surrogates, which no codec carries: UTF-32 ``ignore`` drops them.
NON_XML_CHARS = frozenset(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))


def is_xml_name(value) -> bool:
    """True for a string every export can write: no ``NON_XML_CHARS``, no lone surrogate."""
    return isinstance(value, str) and NON_XML_CHARS.isdisjoint(value) and (
        value.isascii() or len(value.encode("utf-32-le", "ignore")) == 4 * len(value))


class DeviceRole(Enum):
    SCADA_MASTER = "scada"
    FIELD_DEVICE = "field"
    ROUTER = "router"
    OTHER = "other"

    __hash__ = object.__hash__  # Enum.__hash__ is Python code; members compare by identity


_ROLES = {role.value: role for role in DeviceRole}


def parse_role(value) -> DeviceRole | None:
    """The role a document value names, or None (a lookup; calling the Enum costs more)."""
    return _ROLES.get(value) if isinstance(value, str) else None


class Device(NamedTuple):
    name: str
    role: DeviceRole
    addrs: frozenset[str]


class Topology(Record):
    """Validated device inventory; immutable and safe for concurrent reads.

    Construction enforces: unique non-empty device names that XML can
    represent, ``DeviceRole`` roles, IPv4 addresses (as ``ingest.IPV4_PATTERN``
    defines them), address sets disjoint across devices, and exactly one
    SCADA master.
    """

    __slots__ = ("devices", "_by_addr", "_by_name", "_master")

    def __init__(self, devices: Iterable[Device]):
        devices = tuple(devices)  # a caller's list may change later; the inventory may not
        for dev in devices:
            if not (is_xml_name(dev.name) and dev.name):
                raise ValidationError(
                    f"device name must be a non-empty string XML can represent, got {dev.name!r}"
                )
            if type(dev.role) is not DeviceRole:  # an enum with members has no subclasses
                raise ValidationError(
                    f"device {dev.name!r}: role must be a DeviceRole, got {dev.role!r}"
                )
        names = Counter(d.name for d in devices)
        dupes = sorted(n for n, c in names.items() if c > 1)
        if dupes:
            raise ValidationError(f"duplicate device names: {', '.join(dupes)}")

        by_addr: dict[str, Device] = {}
        for dev in devices:
            for addr in dev.addrs:
                if not isinstance(addr, str) or not IPV4_PATTERN.fullmatch(addr):
                    raise ValidationError(
                        f"device {dev.name!r} has an invalid IPv4 address: {addr!r}"
                    )
                if addr in by_addr:
                    raise ValidationError(
                        f"address {addr} claimed by both "
                        f"{by_addr[addr].name!r} and {dev.name!r}"
                    )
                by_addr[addr] = dev

        masters = [d for d in devices if d.role is DeviceRole.SCADA_MASTER]
        if len(masters) != 1:
            raise ValidationError(
                f"topology must declare exactly one SCADA master, found "
                f"{len(masters)}: {sorted(d.name for d in masters)}"
            )
        store(self, "devices", devices)
        store(self, "_by_addr", by_addr)
        store(self, "_by_name", {d.name: d for d in devices})
        store(self, "_master", masters[0])

    @property
    def scada_master(self) -> Device:
        return self._master

    def resolve(self, addr: str) -> Device | None:
        """Return the unique device owning addr, or None if undeclared."""
        return self._by_addr.get(addr)

    def device(self, name: str) -> Device | None:
        return self._by_name.get(name)

    def roles(self) -> dict[str, DeviceRole]:
        return {d.name: d.role for d in self.devices}


def load_topology(stream: BinaryIO | bytes) -> Topology:
    """Parse a topology document; ``Topology`` validates its values."""
    doc = read_json(stream, "topology")
    if not isinstance(doc, dict) or not isinstance(doc.get("devices"), list):
        raise FormatError("topology document must be an object with a 'devices' list")

    devices = []
    for i, entry in enumerate(doc["devices"]):
        if not isinstance(entry, dict):
            raise FormatError(f"devices[{i}] is not an object")
        name, role = entry.get("name"), entry.get("role")
        addrs = entry.get("addrs", [])
        if not isinstance(addrs, list) or not all(isinstance(a, str) for a in addrs):
            raise FormatError(f"devices[{i}]: 'addrs' must be a list of strings")
        substation = entry.get("substation")  # documented, checked, not used
        if substation is not None and not isinstance(substation, str):
            raise FormatError(f"devices[{i}]: 'substation' must be a string")
        devices.append(Device(name, parse_role(role) or role, frozenset(addrs)))

    return Topology(devices)


def default_topology() -> Topology:
    """The bundled 9-bus fixture topology."""
    resource = importlib.resources.files("cyberdep").joinpath("data", DEFAULT_TOPOLOGY_RESOURCE)
    return load_topology(resource.read_bytes())


class UnmappedReport(NamedTuple):
    """Records dropped because an endpoint address is not in the topology."""

    records: int
    by_addr: dict  # addr -> occurrence count


def map_window(
    topology: Topology, window: CaptureWindow
) -> tuple[tuple[tuple[str, str, Dnp3MessageType], ...], UnmappedReport]:
    """Resolve both endpoints of every record to device names.

    Returns one (src name, dst name, message type) triple per mapped record.
    Records with any unresolvable endpoint are excluded and accounted in the
    report (each unknown address counted per occurrence). Output order equals
    window record order.
    """
    mapped: list[tuple[str, str, Dnp3MessageType]] = []
    unknown: Counter = Counter()
    dropped = 0
    for r in window.records:
        src = topology.resolve(r.src_addr)
        dst = topology.resolve(r.dst_addr)
        if src is None or dst is None:
            dropped += 1
            if src is None:
                unknown[r.src_addr] += 1
            if dst is None:
                unknown[r.dst_addr] += 1
            continue
        mapped.append((src.name, dst.name, r.message_type))
    return tuple(mapped), UnmappedReport(records=dropped, by_addr=dict(unknown))
