"""The two benchmark workloads: their inputs, sizes and operations.

wscc9_dos_capture  The bundled 9-bus topology and one large capture with
                   DOS-only shares (loads 5 and 6 flooded). About 10 distinct
                   addresses and thousands of records per edge, so ingest
                   (parse, filter, map, count) does almost all the build
                   work and the graph layers almost none. Its compare step
                   is the paper's experiment: synth of the four scenario
                   profiles, then compare over the four runs, whose
                   signature flags must all be true.
wide_grid          A generated topology of 4,000 field devices and a capture
                   of a few records per edge over it, so the costs that grow
                   with the number of devices (graph construction, rendering,
                   graph loading, node lookup, synth's weighted picking,
                   topology loading) dominate.

Both workloads run the same cycle of operations (synth, build, export,
query, compare), so each reports every metric; what differs is which layers
the inputs load. Sizes are chosen so that one cycle takes 3 to 6 s on a
2-CPU machine: a 55 s run then holds 9 to 18 samples of every metric,
spread over its whole length.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from gen import TopologyIndex, lognormal_weights, make_capture, wide_topology_doc

SCENARIOS = ("baseline", "dos_only", "no_mitigation", "with_mitigation")
NOISE_FRACTION = 0.1

SIZES = {
    # name: (capture lines, synth messages per run, field devices). 8,000
    # messages per scenario run keep the baseline-uniformity flag true for
    # any seed (0.02 is about five standard deviations of an edge share).
    "wscc9_dos_capture": {"full": (100_000, 8_000, 0), "smoke": (3_000, 8_000, 0)},
    "wide_grid": {"full": (20_000, 2_500, 4_000), "smoke": (2_000, 500, 200)},
}
WORKLOADS = tuple(SIZES)


@dataclass
class SynthJob:
    out: str
    profile: str  # a built-in profile name, or a profile document in the work dir
    n_messages: int
    seed: int
    n_noise: int
    builtin: bool

    def cli_args(self, topo_args: list) -> list:
        args = ["synth", "--profile", self.profile, "--out", self.out, *topo_args]
        if self.builtin:
            args += ["--n", str(self.n_messages), "--seed", str(self.seed),
                     "--noise-fraction", str(NOISE_FRACTION)]
        return args


@dataclass
class Plan:
    name: str
    topo: TopologyIndex
    topo_file: str | None  # None: the CLI's bundled topology
    main_capture: str
    synths: list
    manifest: list
    require_all_flags: bool
    tallies: dict = field(default_factory=dict)  # capture name -> Tally

    @property
    def topo_args(self) -> list:
        return ["--topo", self.topo_file] if self.topo_file else []


def _synth_noise(n_messages: int) -> int:
    return round(n_messages * NOISE_FRACTION)


def prepare(name: str, seed: int, work: Path, bundled_topology: Path, smoke: bool) -> Plan:
    """Write the workload's inputs into ``work`` and return its plan."""
    lines, synth_n, n_field = SIZES[name]["smoke" if smoke else "full"]
    rng = random.Random(f"{name}:{seed}")

    if name == "wscc9_dos_capture":
        topo = TopologyIndex(json.loads(bundled_topology.read_bytes()))
        topo_file = None
        weights = {n: (5.0 if n in ("load-5", "load-6") else 1.0)
                   for n, role in topo.roles.items() if role == "field"}
        synths = [SynthJob(f"synth-{kind}.jsonl", kind, synth_n, seed, _synth_noise(synth_n),
                           builtin=True) for kind in SCENARIOS]
        manifest = [{"scenario": kind, "run_id": 1, "capture": job.out}
                    for kind, job in zip(SCENARIOS, synths)]
    else:
        doc = wide_topology_doc(n_field)
        topo = TopologyIndex(doc)
        topo_file = "topology.json"
        (work / topo_file).write_text(json.dumps(doc, indent=1))
        weights = lognormal_weights(topo.non_scada, rng)
        # --noise-fraction does not apply to profile documents, so the noise
        # share is part of the document.
        profile = {"scenario": "baseline", "n_messages": synth_n, "seed": seed,
                   "noise_fraction": NOISE_FRACTION,
                   "weights": lognormal_weights(topo.non_scada, rng)}
        (work / "profile.json").write_text(json.dumps(profile))
        synths = [SynthJob("synth-wide.jsonl", "profile.json", synth_n, seed,
                           _synth_noise(synth_n), builtin=False)]
        manifest = [{"scenario": "baseline", "run_id": 1, "capture": synths[0].out}]

    data, tally = make_capture(topo, weights, lines, rng)
    (work / "capture.jsonl").write_bytes(data)
    plan = Plan(name, topo, topo_file, "capture.jsonl", synths, manifest,
                require_all_flags=name == "wscc9_dos_capture")
    plan.tallies["capture.jsonl"] = tally
    return plan
