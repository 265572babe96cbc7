"""Synthetic traffic generation: determinism, schema validity, share convergence."""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cyberdep.errors import FormatError, ValidationError
from cyberdep.ingest import Dnp3MessageType, filter_dnp3, parse_packet_log
from cyberdep.scenario import ScenarioKind
from cyberdep.synth import (
    BUILTIN_PROFILES,
    DEFAULT_MESSAGE_MIX,
    NOISE_SOURCE_ADDR,
    TrafficProfile,
    builtin_profile,
    generate,
    load_profile,
)
from cyberdep.topology import Device, DeviceRole, Topology
from conftest import make_topology


@pytest.fixture(scope="module")
def topo():
    return make_topology(4)


def profile(topo, weights=None, **kw):
    weights = weights or {"dev-01": 1.0, "dev-02": 3.0}
    return TrafficProfile(ScenarioKind.BASELINE, weights, **kw)


class TestProfileValidation:
    def test_empty_weights(self):
        with pytest.raises(ValidationError, match="at least one"):
            TrafficProfile(ScenarioKind.BASELINE, {})

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="negative weight"):
            TrafficProfile(ScenarioKind.BASELINE, {"dev-01": -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight(self, bad):
        with pytest.raises(ValidationError, match="non-finite weight for 'dev-02'"):
            TrafficProfile(ScenarioKind.BASELINE, {"dev-01": 1.0, "dev-02": bad})

    def test_weight_sum_overflow(self):
        with pytest.raises(ValidationError, match="sum past the largest float"):
            TrafficProfile(ScenarioKind.BASELINE, {"dev-01": 1e308, "dev-02": 1e308})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_mix_value(self, bad):
        mix = {Dnp3MessageType.READ: 1.0, Dnp3MessageType.RESPOND: bad}
        with pytest.raises(ValidationError, match="mix value for 'response' must be finite"):
            TrafficProfile(ScenarioKind.BASELINE, {"dev-01": 1.0}, message_mix=mix)

    def test_overflowing_document_weight(self):
        doc = b'{"scenario": "baseline", "weights": {"gen-1": 1e999, "gen-2": 1}}'
        with pytest.raises(ValidationError, match="non-finite weight for 'gen-1'"):
            load_profile(doc)

    def test_all_zero_weights(self):
        with pytest.raises(ValidationError, match="all be zero"):
            TrafficProfile(ScenarioKind.BASELINE, {"dev-01": 0.0})

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            TrafficProfile(
                ScenarioKind.BASELINE, {"dev-01": 1.0},
                message_mix={Dnp3MessageType.READ: 0.9},
            )

    def test_mix_rejects_other_type(self):
        with pytest.raises(ValidationError) as exc:
            TrafficProfile(
                ScenarioKind.BASELINE, {"dev-01": 1.0},
                message_mix={Dnp3MessageType.OTHER: 1.0},
            )
        assert str(exc.value) == "unknown message type in mix: <Dnp3MessageType.OTHER: 'other'>"

    @pytest.mark.parametrize("bad", [-0.1, 1.0, "0.1"])
    def test_noise_fraction_range(self, bad):
        with pytest.raises(ValidationError, match="noise_fraction"):
            TrafficProfile(ScenarioKind.BASELINE, {"dev-01": 1.0}, noise_fraction=bad)

    def test_negative_n(self):
        with pytest.raises(ValidationError, match="n_messages"):
            TrafficProfile(ScenarioKind.BASELINE, {"dev-01": 1.0}, n_messages=-5)

    def test_scenario_must_be_a_scenario_kind(self):
        with pytest.raises(ValidationError) as exc:
            TrafficProfile("baseline", {"dev-01": 1.0})
        assert str(exc.value) == "scenario must be a ScenarioKind, got 'baseline'"

    @pytest.mark.parametrize("kwargs, message", [
        ({"weights": [("dev-01", 1.0)]}, "weights must be a mapping, got list"),
        ({"weights": None}, "weights must be a mapping, got NoneType"),
        ({"message_mix": [(Dnp3MessageType.READ, 1.0)]}, "message_mix must be a mapping, got list"),
        ({"message_mix": "read"}, "message_mix must be a mapping, got str"),
    ])
    def test_weights_and_mix_must_be_mappings(self, kwargs, message):
        kwargs = {"weights": {"dev-01": 1.0}, **kwargs}
        with pytest.raises(ValidationError) as exc:
            TrafficProfile(ScenarioKind.BASELINE, **kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_messages": 2.5}, "n_messages must be an integer"),
        ({"n_messages": True}, "n_messages must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"noise_fraction": "0.1"}, "noise_fraction must be a number"),
        ({"weights": {"dev-01": "1"}}, "weight for 'dev-01' must be a number"),
        ({"weights": {"dev-01": 10**5000}}, "weight for 'dev-01' must be a number"),
        ({"message_mix": {Dnp3MessageType.READ: "1"}}, "mix value for 'read' must be a number"),
    ])
    def test_field_types_checked(self, kwargs, message):
        kwargs = {"weights": {"dev-01": 1.0}, **kwargs}
        with pytest.raises(ValidationError) as exc:
            TrafficProfile(ScenarioKind.BASELINE, **kwargs)
        assert str(exc.value) == message


class TestGenerate:
    def test_byte_identical_for_fixed_seed(self, topo):
        p = profile(topo, n_messages=500, seed=42)
        assert generate(p, topo) == generate(p, topo)

    def test_seed_changes_stream(self, topo):
        a = generate(profile(topo, n_messages=500, seed=1), topo)
        b = generate(profile(topo, n_messages=500, seed=2), topo)
        assert a != b

    def test_emits_requested_count(self, topo):
        blob = generate(profile(topo, n_messages=250), topo)
        assert blob.count(b"\n") == 250

    def test_zero_messages(self, topo):
        assert generate(profile(topo, n_messages=0), topo) == b""

    def test_every_line_parses_cleanly(self, topo):
        window = parse_packet_log(generate(profile(topo, n_messages=400), topo))
        assert window.stats.rejected == 0
        assert window.stats.parsed == 400

    def test_timestamps_strictly_increase(self, topo):
        blob = generate(profile(topo, n_messages=100), topo)
        ts = [json.loads(line)["ts_us"] for line in blob.splitlines()]
        assert ts == [1000 * (i + 1) for i in range(100)]

    def test_direction_follows_message_type(self, topo):
        scada_addr = min(topo.scada_master.addrs)
        blob = generate(profile(topo, n_messages=300), topo)
        for line in blob.splitlines():
            obj = json.loads(line)
            if obj["dnp3_fn"] == "response":
                assert obj["dst"] == scada_addr
            else:
                assert obj["src"] == scada_addr

    def test_shares_converge_to_weights(self, topo):
        p = profile(topo, weights={"dev-01": 1.0, "dev-02": 3.0}, n_messages=10_000)
        scada_addr = min(topo.scada_master.addrs)
        per_device = Counter()
        for line in generate(p, topo).splitlines():
            obj = json.loads(line)
            device = obj["dst"] if obj["src"] == scada_addr else obj["src"]
            per_device[device] += 1
        share_1 = per_device["10.9.1.1"] / 10_000
        share_2 = per_device["10.9.1.2"] / 10_000
        assert share_1 == pytest.approx(0.25, abs=0.02)
        assert share_2 == pytest.approx(0.75, abs=0.02)

    def test_message_mix_converges(self, topo):
        blob = generate(profile(topo, n_messages=10_000), topo)
        kinds = Counter(json.loads(line)["dnp3_fn"] for line in blob.splitlines())
        for mt, expected in DEFAULT_MESSAGE_MIX.items():
            assert kinds[mt.value] / 10_000 == pytest.approx(expected, abs=0.02)

    def test_unknown_device_rejected(self, topo):
        with pytest.raises(ValidationError, match="unknown device 'ghost'"):
            generate(profile(topo, weights={"ghost": 1.0}), topo)

    @pytest.mark.parametrize("weights, message", [
        ({"scada": 1.0}, "the SCADA master cannot carry a traffic weight"),
        ({"dark": 1.0}, "device 'dark' has no address"),
    ], ids=["scada", "no-address"])
    def test_weight_needs_an_addressed_field_device(self, topo, weights, message):
        topo = Topology((*topo.devices, Device("dark", DeviceRole.FIELD_DEVICE, frozenset())))
        with pytest.raises(ValidationError) as exc:
            generate(profile(topo, weights=weights), topo)
        assert str(exc.value) == message

    def test_scada_master_needs_an_address(self):
        topo = Topology((Device("scada", DeviceRole.SCADA_MASTER, frozenset()),
                         Device("load-5", DeviceRole.FIELD_DEVICE, frozenset({"10.0.1.20"}))))
        with pytest.raises(ValidationError) as exc:
            generate(profile(topo, weights={"load-5": 1.0}), topo)
        assert str(exc.value) == "the SCADA master 'scada' has no address"

    def test_device_at_the_noise_source_address_refused_with_noise(self):
        # its noise lines would run from the device to itself, which the parser rejects
        topo = Topology((Device("scada", DeviceRole.SCADA_MASTER, frozenset({"10.0.0.1"})),
                         Device("dev", DeviceRole.FIELD_DEVICE, frozenset({NOISE_SOURCE_ADDR}))))
        with pytest.raises(ValidationError) as exc:
            generate(profile(topo, {"dev": 1.0}, n_messages=100, noise_fraction=0.1), topo)
        assert str(exc.value) == "device 'dev' has the noise source address 203.0.113.66"
        window = parse_packet_log(generate(profile(topo, {"dev": 1.0}, n_messages=100), topo))
        assert (window.stats.parsed, window.stats.rejected) == (100, 0)

    def test_noise_interleaved_and_filterable(self, topo):
        p = profile(topo, n_messages=1000, noise_fraction=0.1)
        window = parse_packet_log(generate(p, topo))
        assert window.stats.parsed == 1100  # 1000 dnp3 + 100 noise
        assert window.stats.rejected == 0
        noise = [r for r in window.records if r.src_addr == NOISE_SOURCE_ADDR]
        assert len(noise) == 100
        kept = filter_dnp3(window)
        assert len(kept.records) == 1000

    def test_noise_determinism(self, topo):
        p = profile(topo, n_messages=500, noise_fraction=0.25, seed=9)
        assert generate(p, topo) == generate(p, topo)


# sha256 of generate() output, taken before the picker and line writer were
# rewritten: any change to the draws or the bytes shows here.
PINNED_BUILTIN_SHA256 = {
    ("baseline", 0.0): "5b3c4e63ef535979485ccf2ddfacad997ea350cac1fc3ac2a0647eb6223eb3e4",
    ("baseline", 0.1): "7f3d10f107cbcb6f7794cb5a53ac159b1d0663993b2c6df08fe5a12a0a5a6997",
    ("dos_only", 0.0): "8df0811cbe7d5366943a1cda565a85b9448ad662ae9b951dbfeed90f972240fa",
    ("dos_only", 0.1): "8ed7687a3f347976fe60d55e92359e558f5d1915a43baa1c049ad719c5ffb297",
    ("no_mitigation", 0.0): "8ae4d6049b7d40cfe2a55ec855105c5c97a7080ce73c4c53978930ec35fdca1a",
    ("no_mitigation", 0.1): "7cba7610a7ca5cdce245581fb5a18cc0c363ee5c0fc43c427ff7048b19b83851",
    ("with_mitigation", 0.0): "3b074681fccf6fd5b6e727695c3aae9d2a5d969428d318082909fc164ef7d035",
    ("with_mitigation", 0.1): "5583179b9716f467d54683420e2ced582fd745c6f275f93165ffd2219ab57720",
    ("dos_run3_variant", 0.0): "10bdac2049bf222e3f4047c9f6d2fa3ca88b544cc6141bf234b035c3a4dbd200",
    ("dos_run3_variant", 0.1): "8c2fccf2139243bf7570ff5793097941f5f4cc3cc127ff234acef335798c6f56",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name,noise", sorted(PINNED_BUILTIN_SHA256))
    def test_builtin_profile_bytes(self, wscc, name, noise):
        p = builtin_profile(name, wscc, n_messages=2000, seed=1, noise_fraction=noise)
        digest = hashlib.sha256(generate(p, wscc)).hexdigest()
        assert digest == PINNED_BUILTIN_SHA256[name, noise]

    def test_zero_weight_device_and_zero_mix_entry(self):
        topo = make_topology(4)
        p = TrafficProfile(
            ScenarioKind.BASELINE,
            {"dev-01": 1.0, "dev-02": 2.5, "dev-03": 0.5, "dev-04": 0.0},
            message_mix={
                Dnp3MessageType.REQUEST_LINK_STATUS: 0.25,
                Dnp3MessageType.READ: 0.0,
                Dnp3MessageType.RESPOND: 0.5,
                Dnp3MessageType.DIRECT_OPERATE: 0.25,
            },
            n_messages=2000, seed=7, noise_fraction=0.1,
        )
        digest = hashlib.sha256(generate(p, topo)).hexdigest()
        assert digest == "f5dc7afa7303c00a92e73d43698d723bb64b4f3eb029121761251cf9e0ec61d0"


class TestBuiltinProfiles:
    def test_all_five_exist_and_generate(self, wscc):
        assert set(BUILTIN_PROFILES) == {
            "baseline", "dos_only", "no_mitigation", "with_mitigation", "dos_run3_variant",
        }
        for name in BUILTIN_PROFILES:
            blob = generate(builtin_profile(name, wscc, n_messages=50), wscc)
            assert blob.count(b"\n") == 50

    def test_baseline_weights_uniform_over_field_devices(self, wscc):
        p = builtin_profile("baseline", wscc)
        assert set(p.weights) == {"gen-1", "gen-2", "gen-3", "load-5", "load-6", "load-8"}
        assert set(p.weights.values()) == {1.0}

    def test_dos_boosts_loads(self, wscc):
        p = builtin_profile("dos_only", wscc)
        assert p.weights["load-5"] == p.weights["load-6"] > p.weights["gen-1"]
        assert p.scenario is ScenarioKind.DOS_ONLY

    def test_dos_variant_depresses_loads(self, wscc):
        p = builtin_profile("dos_run3_variant", wscc)
        assert p.weights["load-5"] < p.weights["gen-1"]
        assert p.scenario is ScenarioKind.DOS_ONLY

    def test_unknown_name(self, wscc):
        with pytest.raises(ValidationError, match="unknown profile"):
            builtin_profile("surprise", wscc)

    def test_topology_without_field_devices(self):
        bare = Topology((Device("scada", DeviceRole.SCADA_MASTER, frozenset({"10.9.0.1"})),))
        with pytest.raises(ValidationError) as exc:
            builtin_profile("baseline", bare)
        assert str(exc.value) == "topology has no field devices to weight"

    def test_topology_missing_boosted_device(self):
        bare = make_topology(1)  # no load-5 here
        with pytest.raises(ValidationError, match="load-5"):
            builtin_profile("dos_only", bare)

    def test_kwargs_forwarded(self, wscc):
        p = builtin_profile("baseline", wscc, n_messages=123, seed=77, noise_fraction=0.5)
        assert (p.n_messages, p.seed, p.noise_fraction) == (123, 77, 0.5)


class TestLoadProfile:
    def test_round_trippable_document(self):
        doc = {
            "scenario": "dos_only",
            "weights": {"dev-01": 1, "dev-02": 2.5},
            "message_mix": {"read": 0.5, "response": 0.5},
            "n_messages": 64,
            "seed": 3,
            "noise_fraction": 0.1,
        }
        p = load_profile(json.dumps(doc).encode())
        assert p.scenario is ScenarioKind.DOS_ONLY
        assert p.weights == {"dev-01": 1.0, "dev-02": 2.5}
        assert p.message_mix == {Dnp3MessageType.READ: 0.5, Dnp3MessageType.RESPOND: 0.5}
        assert (p.n_messages, p.seed, p.noise_fraction) == (64, 3, 0.1)

    def test_defaults_apply(self):
        p = load_profile(b'{"scenario": "baseline", "weights": {"d": 1}}')
        assert p.n_messages == 10_000
        assert p.seed == 1
        assert p.message_mix == DEFAULT_MESSAGE_MIX

    @pytest.mark.parametrize(
        "doc,match",
        [
            (b"junk", "valid json"),
            (b"[]", "json object"),
            (b'{"scenario": "typhoon", "weights": {"d": 1}}', "scenario"),
            pytest.param(b'{"scenario": "baseline"}',
                         ValidationError("weights must be a mapping, got NoneType"),
                         id='{"scenario": "baseline"}-weights'),
            (b'{"scenario": "baseline", "weights": {"d": 1}, "message_mix": ["read"]}',
             r"^'message_mix' must be an object$"),
            pytest.param(b'{"scenario": "baseline", "weights": {"d": true}}',
                         ValidationError("weight for 'd' must be a number"),
                         id='{"scenario": "baseline", "weights": {"d": true}}-weights'),
            pytest.param(
                b'{"scenario": "baseline", "weights": {"d": 1}, "message_mix": {"zap": 1}}',
                ValidationError("unknown message type in mix: 'zap'"),
                id='{"scenario": "baseline", "weights": {"d": 1}, "message_mix": {"zap": 1}}'
                   '-message type'),
            pytest.param(b'{"scenario": "baseline", "weights": {"d": 1}, "seed": "x"}',
                         ValidationError("seed must be an integer"),
                         id='{"scenario": "baseline", "weights": {"d": 1}, "seed": "x"}-seed'),
            pytest.param(b'{"scenario": "baseline", "weights": {"d": 1}, "noise_fraction": "x"}',
                         ValidationError("noise_fraction must be a number"),
                         id='{"scenario": "baseline", "weights": {"d": 1}, "noise_fraction": "x"}'
                            '-noise_fraction'),
        ],
    )
    def test_malformed(self, doc, match):
        """Shape errors are FormatErrors; value errors are the record's own, exactly."""
        if isinstance(match, str):
            with pytest.raises(FormatError, match=match):
                load_profile(doc)
        else:
            with pytest.raises(type(match)) as exc:
                load_profile(doc)
            assert type(exc.value) is type(match)
            assert str(exc.value) == str(match)

    @pytest.mark.parametrize("fields, message", [
        ({"weights": {"d": "1"}}, "weight for 'd' must be a number"),
        ({"weights": {"d": 10**400}}, "weight for 'd' must be a number"),
        ({"message_mix": {"read": "1"}}, "mix value for 'read' must be a number"),
        ({"n_messages": 2.5}, "n_messages must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"noise_fraction": "0.1"}, "noise_fraction must be a number"),
        ({"weights": ["d"]}, "weights must be a mapping, got list"),
    ])
    def test_value_errors_are_the_records(self, fields, message):
        doc = {"scenario": "baseline", "weights": {"d": 1}, **fields}
        with pytest.raises(ValidationError) as via_doc:
            load_profile(json.dumps(doc).encode())
        kwargs = {key: value for key, value in doc.items() if key != "scenario"}
        if "message_mix" in kwargs:
            kwargs["message_mix"] = {Dnp3MessageType(k): v for k, v in doc["message_mix"].items()}
        with pytest.raises(ValidationError) as direct:
            TrafficProfile(ScenarioKind.BASELINE, **kwargs)
        assert type(via_doc.value) is type(direct.value)
        assert str(via_doc.value) == str(direct.value) == message

    @pytest.mark.parametrize("weights, mix, digest", [
        ({"gen-1": 1, "gen-2": 2, "gen-3": 1, "load-5": 5, "load-6": 4, "load-8": 0},
         {"read": 0, "response": 1, "request_link_status": 0, "direct_operate": 0},
         "2b493a787ba1ea1f035996ea06a87f2ffdbad99c68929f67c851da7e5a4386ea"),
        ({"gen-1": 2**60, "gen-2": 2**60 + 1, "gen-3": 2**53 + 1, "load-5": 5 * 2**60 + 3,
          "load-6": 5 * 2**60, "load-8": 2**54 + 1},
         {"read": 0.5, "response": 0.5},
         "31751cb932ca4730af9bee0d075f03860892b2cc6ffd0957a3a3f365dc498d29"),
    ], ids=["small", "past-2**53"])
    def test_integer_weights_keep_their_bytes(self, wscc, weights, mix, digest):
        """Pinned from when load_profile converted weights to float itself."""
        doc = {"scenario": "dos_only", "weights": weights, "message_mix": mix,
               "n_messages": 2000, "seed": 5, "noise_fraction": 0}
        p = load_profile(json.dumps(doc).encode())
        assert hashlib.sha256(generate(p, wscc)).hexdigest() == digest
        assert all(type(w) is float for w in p.weights.values())

    def test_constructor_validation_still_applies(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            load_profile(
                b'{"scenario": "baseline", "weights": {"d": 1}, "message_mix": {"read": 0.2}}'
            )


@given(seed=st.integers(min_value=0, max_value=2**32), n=st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_generated_stream_always_parses_with_zero_rejections(seed, n):
    topo = make_topology(3)
    p = TrafficProfile(
        ScenarioKind.BASELINE, {"dev-01": 1.0, "dev-03": 2.0}, n_messages=n, seed=seed,
    )
    window = parse_packet_log(generate(p, topo))
    assert window.stats.parsed == n
    assert window.stats.rejected == 0


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_replacing_only_seed_keeps_validity(seed):
    topo = make_topology(2)
    base = TrafficProfile(ScenarioKind.BASELINE, {"dev-01": 1.0}, n_messages=30)
    p = base.replace(seed=seed)
    assert generate(p, topo) == generate(p, topo)
