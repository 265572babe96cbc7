"""Deterministic synthetic DNP3 traffic generation.

A TrafficProfile assigns rate weights to field devices; the generator emits
N JSON Lines records of device<->SCADA traffic whose per-device shares
converge to the normalized weights. Everything is driven by one seeded RNG,
so a fixed (profile, topology) pair always produces byte-identical output.

Five built-in profiles encode the qualitative traffic patterns of the four
disturbance scenarios (plus one divergent DOS variant): rankings, not
magnitudes.

Request-type messages (read, direct_operate, request_link_status) travel
master -> device; responses travel device -> master. Timestamps are synthetic
monotone microsecond ticks. A nonzero ``noise_fraction`` intersperses
non-DNP3 flood records from an external address, which the DNP3 filter is
expected to drop.
"""

import itertools
import math
import random
from bisect import bisect_right
from collections.abc import Mapping
from types import MappingProxyType
from typing import BinaryIO

from .errors import FormatError, ValidationError
from .ingest import DNP3_SYSCALLS, MODELED_TYPES, Dnp3MessageType, is_integer, is_number
from .ingest import read_json
from .record import Record, store
from .scenario import SIGNATURES, ScenarioKind
from .topology import DeviceRole, Topology

MIX_SUM_TOL = 1e-9
DEFAULT_N_MESSAGES = 10_000
DEFAULT_SEED = 1

#: Address used as the source of injected non-DNP3 noise records (TEST-NET-3).
NOISE_SOURCE_ADDR = "203.0.113.66"

DEFAULT_MESSAGE_MIX = {
    Dnp3MessageType.READ: 0.35,
    Dnp3MessageType.RESPOND: 0.35,
    Dnp3MessageType.REQUEST_LINK_STATUS: 0.20,
    Dnp3MessageType.DIRECT_OPERATE: 0.10,
}


class TrafficProfile(Record):
    """Generative description of one scenario's traffic shape.

    ``weights`` maps device names to nonnegative rate weights; ``message_mix``
    defaults to ``DEFAULT_MESSAGE_MIX``. Both are stored as read-only copies
    with float values, so integer and float weights draw the same traffic.
    """

    __slots__ = ("scenario", "weights", "message_mix", "n_messages", "seed", "noise_fraction")

    def __init__(
        self, scenario: ScenarioKind, weights: dict, message_mix: dict | None = None,
        n_messages: int = DEFAULT_N_MESSAGES, seed: int = DEFAULT_SEED,
        noise_fraction: float = 0.0,
    ):
        if message_mix is None:
            message_mix = DEFAULT_MESSAGE_MIX
        if not isinstance(scenario, ScenarioKind):
            raise ValidationError(f"scenario must be a ScenarioKind, got {scenario!r}")
        for key, value in (("weights", weights), ("message_mix", message_mix)):
            if not isinstance(value, Mapping):
                raise ValidationError(f"{key} must be a mapping, got {type(value).__name__}")
        if not weights:
            raise ValidationError("profile needs at least one weighted device")
        for name, w in weights.items():
            if not is_number(w):
                raise ValidationError(f"weight for {name!r} must be a number")
            if not 0 <= w < math.inf:
                kind = "negative" if w < 0 else "non-finite"
                raise ValidationError(f"{kind} weight for {name!r}")
        if not any(w > 0 for w in weights.values()):
            raise ValidationError("profile weights must not all be zero")
        try:
            math.fsum(weights.values())  # generate() scales draws by it
        except OverflowError:
            raise ValidationError("profile weights sum past the largest float")
        for mt, v in message_mix.items():
            if mt not in DNP3_SYSCALLS:
                raise ValidationError(f"unknown message type in mix: {mt!r}")
            if not is_number(v):
                raise ValidationError(f"mix value for {mt.value!r} must be a number")
            if not 0 <= v < math.inf:
                raise ValidationError(f"mix value for {mt.value!r} must be finite and >= 0")
        if abs(sum(message_mix.values()) - 1.0) > MIX_SUM_TOL:
            raise ValidationError("message mix must sum to 1")
        for key, value in (("n_messages", n_messages), ("seed", seed)):
            if not is_integer(value):
                raise ValidationError(f"{key} must be an integer")
        if n_messages < 0:
            raise ValidationError("n_messages must be >= 0")
        if not is_number(noise_fraction):
            raise ValidationError("noise_fraction must be a number")
        if not 0.0 <= noise_fraction < 1.0:
            raise ValidationError("noise_fraction must be in [0, 1)")
        store(self, "scenario", scenario)
        store(self, "weights", MappingProxyType({name: float(w) for name, w in weights.items()}))
        store(self, "message_mix", MappingProxyType({k: float(v) for k, v in message_mix.items()}))
        store(self, "n_messages", n_messages)
        store(self, "seed", seed)
        store(self, "noise_fraction", noise_fraction)


def _picker(items: list, weights: list, rng: random.Random):
    # One rng.random() per draw (stable across Python versions for a fixed
    # seed), scaled by the fsum total. random.choices would scale by the last
    # running sum instead, which can differ in the last bits and move draws.
    bounds = list(itertools.accumulate(weights))
    total = math.fsum(weights)
    last = len(items) - 1
    return lambda: items[min(bisect_right(bounds, rng.random() * total), last)]


def generate(profile: TrafficProfile, topology: Topology) -> bytes:
    """Emit the profile as a JSON Lines byte stream.

    Every weighted device must exist in the topology; the SCADA master is the
    peer of all generated DNP3 traffic and cannot itself carry a weight. With
    noise, no weighted device may be drawn at ``NOISE_SOURCE_ADDR``.
    """
    if not topology.scada_master.addrs:
        raise ValidationError(f"the SCADA master {topology.scada_master.name!r} has no address")
    scada_addr = min(topology.scada_master.addrs)

    device_addr = {}
    for name in sorted(profile.weights):
        dev = topology.device(name)
        if dev is None:
            raise ValidationError(f"profile weights unknown device {name!r}")
        if dev.role is DeviceRole.SCADA_MASTER:
            raise ValidationError("the SCADA master cannot carry a traffic weight")
        if not dev.addrs:
            raise ValidationError(f"device {name!r} has no address")
        device_addr[name] = addr = min(dev.addrs)
        if profile.noise_fraction and addr == NOISE_SOURCE_ADDR:  # its noise would have src == dst
            raise ValidationError(f"device {name!r} has the noise source address {addr}")

    rng = random.Random(profile.seed)
    pick_addr = _picker(
        list(device_addr.values()), [profile.weights[n] for n in device_addr], rng
    )
    pick_type = _picker(
        DNP3_SYSCALLS, [profile.message_mix.get(mt, 0.0) for mt in DNP3_SYSCALLS], rng
    )

    n_noise = round(profile.n_messages * profile.noise_fraction)
    stride = profile.n_messages // n_noise if n_noise else 0

    # Topology only holds dotted-quad addresses, so no field needs JSON
    # escaping and these fixed templates are compact JSON.
    lines = []
    for i in range(profile.n_messages):
        addr, mt = pick_addr(), pick_type()
        src, dst = (addr, scada_addr) if mt is Dnp3MessageType.RESPOND else (scada_addr, addr)
        lines.append(
            f'{{"ts_us":{1000 * (len(lines) + 1)},"src":"{src}","dst":"{dst}",'
            f'"proto":"dnp3","dnp3_fn":"{mt.value}"}}\n'
        )
        if stride and (i + 1) % stride == 0 and (i + 1) // stride <= n_noise:
            lines.append(
                f'{{"ts_us":{1000 * (len(lines) + 1)},"src":"{NOISE_SOURCE_ADDR}",'
                f'"dst":"{pick_addr()}","proto":"tcp"}}\n'
            )
    return "".join(lines).encode("ascii")


# name -> (scenario, ranked (weight boost, devices) tiers). Every field device
# carries weight 1.0 and a tier's devices get its boost: the boosts encode
# the scenario rankings of ``SIGNATURES``, deliberately not magnitudes.
_PROFILES = {kind.value: (kind, tiers) for kind, (_, tiers) in SIGNATURES.items()}
# The divergent control: the DOS signature's devices damped instead of boosted.
_PROFILES["dos_run3_variant"] = (
    ScenarioKind.DOS_ONLY, tuple((0.2, ds) for _, ds in SIGNATURES[ScenarioKind.DOS_ONLY][1])
)

BUILTIN_PROFILES = tuple(_PROFILES)


def builtin_profile(
    name: str,
    topology: Topology,
    n_messages: int = DEFAULT_N_MESSAGES,
    seed: int = DEFAULT_SEED,
    noise_fraction: float = 0.0,
) -> TrafficProfile:
    """Instantiate a built-in profile over the topology's field devices."""
    if name not in _PROFILES:
        raise ValidationError(
            f"unknown profile {name!r}; built-ins: {', '.join(BUILTIN_PROFILES)}"
        )
    weights = {
        d.name: 1.0 for d in topology.devices if d.role is DeviceRole.FIELD_DEVICE
    }
    if not weights:
        raise ValidationError("topology has no field devices to weight")
    scenario, tiers = _PROFILES[name]
    for boost, devices in tiers:
        for device in devices:
            if device not in weights:
                raise ValidationError(
                    f"profile {name!r} expects field device {device!r} in the topology"
                )
            weights[device] = boost
    return TrafficProfile(
        scenario=scenario,
        weights=weights,
        n_messages=n_messages,
        seed=seed,
        noise_fraction=noise_fraction,
    )


def load_profile(stream: BinaryIO | bytes) -> TrafficProfile:
    """Parse a profile JSON document mirroring TrafficProfile."""
    doc = read_json(stream, "profile")
    if not isinstance(doc, dict):
        raise FormatError("profile document must be a json object")
    try:
        scenario = ScenarioKind(doc.get("scenario"))
    except ValueError:
        raise FormatError(f"unknown scenario {doc.get('scenario')!r}")

    kwargs = {key: doc[key] for key in ("n_messages", "seed", "noise_fraction") if key in doc}
    if "message_mix" in doc:
        raw_mix = doc["message_mix"]
        if not isinstance(raw_mix, dict):
            raise FormatError("'message_mix' must be an object")
        kwargs["message_mix"] = {MODELED_TYPES.get(key, key): v for key, v in raw_mix.items()}
    return TrafficProfile(scenario, doc.get("weights"), **kwargs)
