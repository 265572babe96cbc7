"""Topology loading, validation, and address-to-device mapping."""

import copy
import json
import re

import pytest

from cyberdep.errors import FormatError, ValidationError
from cyberdep.ingest import Dnp3MessageType, parse_packet_log
from cyberdep.topology import (
    Device,
    DeviceRole,
    Topology,
    default_topology,
    load_topology,
    map_window,
)
from conftest import jsonl_bytes, make_topology


def topo_doc(devices, label="t"):
    return json.dumps({"label": label, "devices": devices}).encode()


SCADA = {"name": "master", "role": "scada", "addrs": ["10.0.0.10"]}
BAD_ADDRESSES = ["banana", "10.0.0.010", '1.2.3.4"']
BAD_NAME = "device name must be a non-empty string XML can represent, "


def bad_address_message(addr):
    return re.escape(f"device 'g' has an invalid IPv4 address: {addr!r}")


class TestLoadTopology:
    def test_bundled_fixture(self):
        topo = default_topology()
        assert len(topo.devices) == 11
        assert topo.scada_master.name == "scada"
        roles = topo.roles()
        fields = [n for n, r in roles.items() if r is DeviceRole.FIELD_DEVICE]
        assert sorted(fields) == ["gen-1", "gen-2", "gen-3", "load-5", "load-6", "load-8"]
        assert sum(1 for r in roles.values() if r is DeviceRole.ROUTER) == 4

    def test_minimal_document(self):
        topo = load_topology(topo_doc([SCADA]))
        assert topo.resolve("10.0.0.10").name == "master"
        assert topo.resolve("10.0.0.99") is None

    @pytest.mark.parametrize("label", ["t", 5, ["x"], None])
    def test_label_is_an_ignored_key(self, label):
        topo = load_topology(topo_doc([SCADA], label=label))
        assert topo == load_topology(json.dumps({"devices": [SCADA]}).encode())
        assert not hasattr(topo, "label")

    def test_substation_optional(self):
        # A string or null substation loads; the device does not keep it.
        g = {"name": "g", "role": "field", "addrs": ["10.0.0.11"], "substation": "sub-a"}
        h = {"name": "h", "role": "field", "addrs": ["10.0.0.12"], "substation": None}
        topo = load_topology(topo_doc([SCADA, g, h]))
        assert topo.device("g") == Device("g", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.11"}))
        assert topo.device("h") == Device("h", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.12"}))
        assert not hasattr(topo.device("master"), "substation")

    @pytest.mark.parametrize("substation", [3, ["sub-a"], {"id": "a"}, True, 1.5])
    def test_non_string_substation_rejected(self, substation):
        doc = topo_doc([{"name": "x", "role": "scada", "addrs": [], "substation": substation}])
        with pytest.raises(FormatError, match=r"^devices\[0\]: 'substation' must be a string$"):
            load_topology(doc)

    @pytest.mark.parametrize("role", [None, 1, True, ["scada"], {"scada": 1}, "SCADA", "master"])
    def test_role_must_name_a_role(self, role):
        doc = topo_doc([{"name": "x", "role": role, "addrs": []}])
        with pytest.raises(ValidationError) as exc:
            load_topology(doc)
        assert type(exc.value) is ValidationError
        assert str(exc.value) == f"device 'x': role must be a DeviceRole, got {role!r}"

    @pytest.mark.parametrize(
        "payload,match",
        [
            (b"not json", "valid json"),
            (b"[]", "'devices' list"),
            (b'{"devices": 5}', "'devices' list"),
            (topo_doc([{"role": "scada", "addrs": []}]),
             ValidationError(f"{BAD_NAME}got None")),
            (topo_doc([{"name": "x", "role": "overlord", "addrs": []}]),
             ValidationError("device 'x': role must be a DeviceRole, got 'overlord'")),
            pytest.param(
                topo_doc([{"name": "x", "role": "scada", "addrs": "10.0.0.1"}]),
                r"^devices\[0\]: 'addrs' must be a list of strings$",
                id='{"label": "t", "devices": [{"name": "x", "role": "scada", "addrs": "10.0.0.1"}]}'
                   '-addrs'),
            pytest.param(
                topo_doc([{"name": "x", "role": "scada", "addrs": [], "substation": 3}]),
                r"^devices\[0\]: 'substation' must be a string$",
                id='{"label": "t", "devices": [{"name": "x", "role": "scada", "addrs": [], '
                   '"substation": 3}]}-substation'),
            (topo_doc([SCADA, {"addrs": "x"}]), r"^devices\[1\]: 'addrs' must be a list of strings$"),
            (topo_doc([{"name": "a\x01", "role": "scada", "addrs": []}]),
             ValidationError(f"{BAD_NAME}got 'a\\x01'")),
            (topo_doc([{"name": "a\ud800", "role": "scada", "addrs": []}]),
             ValidationError(f"{BAD_NAME}got 'a\\ud800'")),
            (topo_doc([SCADA, "dev"]), r"^devices\[1\] is not an object$"),
            (topo_doc([SCADA, {"name": "a", "role": "field", "addrs": ["10.0.0.2"]},
                       {"name": "b", "role": "field", "addrs": ["10.0.0.2"]}]),
             ValidationError("address 10.0.0.2 claimed by both 'a' and 'b'")),
        ],
    )
    def test_malformed_documents(self, payload, match):
        """Shape errors are FormatErrors; value errors are the record's own, exactly."""
        if isinstance(match, str):
            with pytest.raises(FormatError, match=match):
                load_topology(payload)
        else:
            with pytest.raises(type(match)) as exc:
                load_topology(payload)
            assert type(exc.value) is type(match)
            assert str(exc.value) == str(match)

    @pytest.mark.parametrize("addr", BAD_ADDRESSES)
    def test_invalid_address_rejected(self, addr):
        doc = topo_doc([SCADA, {"name": "g", "role": "field", "addrs": ["10.0.0.11", addr]}])
        with pytest.raises(ValidationError, match=bad_address_message(addr)):
            load_topology(doc)


class TestTopologyInvariants:
    def test_duplicate_names_rejected(self):
        devs = (
            Device("master", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),
            Device("dup", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.2"})),
            Device("dup", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.3"})),
        )
        with pytest.raises(ValidationError, match="duplicate device names: dup"):
            Topology(devs)

    def test_shared_address_names_both_devices(self):
        devs = (
            Device("master", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),
            Device("alpha", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.2"})),
            Device("beta", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.2"})),
        )
        with pytest.raises(ValidationError) as err:
            Topology(devs)
        assert "10.0.0.2" in str(err.value)
        assert "alpha" in str(err.value)
        assert "beta" in str(err.value)

    @pytest.mark.parametrize("addr", [*BAD_ADDRESSES, 10])
    def test_invalid_address_rejected(self, addr):
        devs = (
            Device("master", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),
            Device("g", DeviceRole.FIELD_DEVICE, frozenset({addr})),
        )
        with pytest.raises(ValidationError, match=bad_address_message(addr)):
            Topology(devs)

    def test_no_scada_master_rejected(self):
        devs = (Device("f", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.1"})),)
        with pytest.raises(ValidationError, match="exactly one SCADA master"):
            Topology(devs)

    def test_two_scada_masters_rejected(self):
        devs = (
            Device("m1", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),
            Device("m2", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.2"})),
        )
        with pytest.raises(ValidationError, match="found 2"):
            Topology(devs)

    @pytest.mark.parametrize("name", [5, "", "a\x00", None])
    def test_device_name_must_be_a_non_empty_xml_string(self, name):
        devs = (Device("master", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),
                Device(name, DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.2"})))
        with pytest.raises(ValidationError) as exc:
            Topology(devs)
        assert str(exc.value) == f"{BAD_NAME}got {name!r}"

    @pytest.mark.parametrize("role", ["scada", "field", None])
    def test_role_must_be_a_device_role(self, role):
        with pytest.raises(ValidationError) as exc:
            Topology((Device("master", role, frozenset({"10.0.0.1"})),))
        assert str(exc.value) == f"device 'master': role must be a DeviceRole, got {role!r}"

    def test_keeps_its_own_device_list(self):
        devs = [Device("s", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),
                Device("f", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.2"}))]
        topo = Topology(devs)
        devs.append(Device("g", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.3"})))
        devs.append(Device("f", DeviceRole.FIELD_DEVICE, frozenset({"10.0.0.4"})))
        assert topo.devices == tuple(devs[:2])
        assert topo.roles() == {"s": DeviceRole.SCADA_MASTER, "f": DeviceRole.FIELD_DEVICE}
        assert topo.resolve("10.0.0.3") is None and topo.device("g") is None
        assert topo.resolve("10.0.0.2") is topo.device("f") is devs[1]
        assert copy.copy(topo) == topo

    def test_multihomed_device_resolves_on_every_addr(self):
        devs = (
            Device("master", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1", "10.0.1.1"})),
        )
        topo = Topology(devs)
        assert topo.resolve("10.0.0.1") is topo.resolve("10.0.1.1")


class TestMapWindow:
    def test_maps_known_endpoints_in_order(self):
        topo = make_topology(2)
        scada_addr = min(topo.scada_master.addrs)
        rows = [
            {"ts_us": 10, "src": scada_addr, "dst": "10.9.1.1", "proto": "dnp3", "dnp3_fn": "read"},
            {"ts_us": 20, "src": "10.9.1.1", "dst": scada_addr, "proto": "dnp3", "dnp3_fn": "response"},
        ]
        mapped, report = map_window(topo, parse_packet_log(jsonl_bytes(rows)))
        assert report.records == 0
        assert mapped == (
            ("scada", "dev-01", Dnp3MessageType.READ),
            ("dev-01", "scada", Dnp3MessageType.RESPOND),
        )

    def test_unknown_addresses_counted_per_occurrence(self):
        topo = make_topology(1)
        rows = [
            {"ts_us": 1, "src": "172.16.0.9", "dst": "10.9.1.1", "proto": "dnp3", "dnp3_fn": "read"},
            {"ts_us": 2, "src": "172.16.0.9", "dst": "10.9.0.1", "proto": "dnp3", "dnp3_fn": "read"},
            {"ts_us": 3, "src": "172.16.0.9", "dst": "198.51.100.3", "proto": "dnp3", "dnp3_fn": "read"},
        ]
        mapped, report = map_window(topo, parse_packet_log(jsonl_bytes(rows)))
        assert mapped == ()
        assert report.records == 3
        assert report.by_addr == {"172.16.0.9": 3, "198.51.100.3": 1}

    def test_mixed_known_and_unknown(self):
        topo = make_topology(1)
        rows = [
            {"ts_us": 1, "src": "10.9.0.1", "dst": "10.9.1.1", "proto": "dnp3", "dnp3_fn": "read"},
            {"ts_us": 2, "src": "10.9.0.1", "dst": "203.0.113.5", "proto": "dnp3", "dnp3_fn": "read"},
        ]
        mapped, report = map_window(topo, parse_packet_log(jsonl_bytes(rows)))
        assert len(mapped) == 1
        assert report.records == 1
