"""Scenario/run bookkeeping and cross-scenario graph comparison.

An experiment set is a collection of (scenario, run) pairs, each binding a
capture to its built graph. Comparison never averages across runs; it ranks
each run's edges, computes per-edge deltas against a reference run (the
first baseline run when one exists), and evaluates the signature patterns
the four disturbance scenarios are expected to show.
"""

import sys
from enum import Enum
from typing import Iterable, NamedTuple

from .depgraph import DependencyGraph, DgEdge, format_probability
from .errors import ValidationError
from .ingest import is_integer
from .record import Record, store
from .topology import Topology, default_topology


class ScenarioKind(Enum):
    BASELINE = "baseline"
    DOS_ONLY = "dos_only"
    NO_MITIGATION = "no_mitigation"
    WITH_MITIGATION = "with_mitigation"


_SCENARIO_ORDER = {kind: i for i, kind in enumerate(ScenarioKind)}


class ScenarioRun(Record):
    __slots__ = ("scenario", "run_id", "capture_ref", "graph")

    def __init__(
        self, scenario: ScenarioKind, run_id: int, capture_ref: str, graph: DependencyGraph
    ):
        if not isinstance(scenario, ScenarioKind):
            raise ValidationError(f"scenario must be a ScenarioKind, got {scenario!r}")
        if not is_integer(run_id):
            raise ValidationError(f"run_id must be an integer, got {run_id!r}")
        if run_id < 1:
            raise ValidationError(f"run_id must be positive, got {run_id}")
        if not isinstance(capture_ref, str):
            raise ValidationError(f"capture_ref must be a string, got {capture_ref!r}")
        if not isinstance(graph, DependencyGraph):
            raise ValidationError(f"graph must be a DependencyGraph, got {type(graph).__name__}")
        store(self, "scenario", scenario)
        store(self, "run_id", run_id)
        store(self, "capture_ref", capture_ref)
        store(self, "graph", graph)

    @property
    def key(self) -> tuple[ScenarioKind, int]:
        return (self.scenario, self.run_id)


def rank_edges(graph: DependencyGraph) -> list[DgEdge]:
    """Edges sorted by descending probability; ties broken by (source, sink)."""
    return sorted(graph.edges, key=lambda e: (-e.probability, e.source, e.sink))


def uniformity_check(graph: DependencyGraph, tol: float) -> bool:
    """True iff every edge probability is within tol of the mean probability."""
    if not graph.edges:
        return True
    probs = [e.probability for e in graph.edges]
    mean = sum(probs) / len(probs)
    return max(abs(p - mean) for p in probs) <= tol


#: Per scenario, the name of the flag that reports it and the signature its
#: traffic is expected to show: ranked tiers, highest first, each a synth
#: weight boost and the devices it lifts. A run matches when its ranked edges,
#: tier by tier, are exactly those devices -> the SCADA master. No tiers means
#: every edge probability must be within the tolerance of the mean.
SIGNATURES: dict[ScenarioKind, tuple[str, tuple[tuple[float, tuple[str, ...]], ...]]] = {
    ScenarioKind.BASELINE: ("baseline_uniform", ()),
    ScenarioKind.DOS_ONLY: ("dos_top2", ((5.0, ("load-5", "load-6")),)),
    ScenarioKind.NO_MITIGATION: ("no_mitigation_top2", ((4.0, ("gen-1", "load-5")),)),
    ScenarioKind.WITH_MITIGATION: (
        "mitigation_pattern", ((5.0, ("load-5", "load-6")), (3.0, ("gen-1",)))
    ),
}

#: Default tolerance for calling sampled baseline traffic "uniform".
DEFAULT_UNIFORMITY_TOL = 0.02


def is_tolerance(value: float) -> bool:
    """True for a usable uniformity tolerance: finite and >= 0 (NaN is neither)."""
    return 0 <= value <= sys.float_info.max


class ComparisonReport(NamedTuple):
    runs: tuple[ScenarioRun, ...]
    reference: tuple[ScenarioKind, int]
    rankings: dict  # run key -> list[DgEdge]
    deltas: dict  # run key -> {(source, sink): delta vs reference}; the reference has none
    #: flag name -> do all runs of its scenario match? In ``SIGNATURES`` order;
    #: None when the scenario has no run or the topology lacks a signature device.
    flags: dict
    #: flag name -> signature devices the topology lacks, for flags left None.
    unchecked: dict

    def to_json_dict(self) -> dict:
        return {
            "reference": {"scenario": self.reference[0].value, "run_id": self.reference[1]},
            "runs": [
                {
                    "scenario": run.scenario.value,
                    "run_id": run.run_id,
                    "capture": run.capture_ref,
                    "edge_count": len(run.graph.edges),
                    "ranking": [
                        {"source": e.source, "sink": e.sink, "probability": e.probability}
                        for e in self.rankings[run.key]
                    ],
                }
                for run in self.runs
            ],
            "deltas": [
                {
                    "scenario": kind.value,
                    "run_id": run_id,
                    "edges": [
                        {"source": src, "sink": sink, "delta": delta}
                        for (src, sink), delta in sorted(deltas.items())
                    ],
                }
                for (kind, run_id), deltas in self.deltas.items()
            ],
            "flags": dict(self.flags),
        }

    def to_text(self) -> str:
        ref_kind, ref_id = self.reference
        lines = [f"reference: {ref_kind.value} run {ref_id}"]
        for run in self.runs:
            lines.append(f"{run.scenario.value} run {run.run_id} ({len(run.graph.edges)} edges)")
            for i, e in enumerate(self.rankings[run.key], start=1):
                lines.append(
                    f"  {i:2d}. {e.source} -> {e.sink}  "
                    f"{format_probability(e.probability)}"
                )
        if self.deltas:
            lines.append("deltas vs reference:")
            for (kind, run_id), deltas in self.deltas.items():
                lines.append(f"  {kind.value} run {run_id}")
                for (src, sink), delta in sorted(deltas.items()):
                    lines.append(f"    {src} -> {sink}  {delta:+.4f}")
        rendered = ", ".join(
            f"{name}={'n/a' if value is None else str(value).lower()}"
            for name, value in self.flags.items()
        )
        lines.append(f"flags: {rendered}")
        return "\n".join(lines) + "\n"


def _edge_probs(graph: DependencyGraph) -> dict[tuple[str, str], float]:
    return {e.key: e.probability for e in graph.edges}


def _matches(ranking: list[DgEdge], tiers, master: str) -> bool:
    start = 0
    for _, devices in tiers:
        end = start + len(devices)
        if {e.key for e in ranking[start:end]} != {(d, master) for d in devices}:
            return False
        start = end
    return True


def compare(
    runs: Iterable[ScenarioRun],
    uniformity_tol: float = DEFAULT_UNIFORMITY_TOL,
    topology: Topology | None = None,
) -> ComparisonReport:
    """Build a deterministic comparison report over an experiment set.

    Runs are ordered by (scenario, run_id) regardless of input order; the
    reference for deltas is the first baseline run, or the first run overall
    when no baseline is present. Requires at least one run, unique
    (scenario, run_id) keys and a finite, nonnegative ``uniformity_tol``.
    The signature flags rank edges into ``topology``'s SCADA master; None
    means the bundled topology.
    """
    if not is_tolerance(uniformity_tol):
        raise ValidationError(f"uniformity_tol must be finite and >= 0, got {uniformity_tol!r}")
    ordered = sorted(runs, key=lambda r: (_SCENARIO_ORDER[r.scenario], r.run_id))
    if not ordered:
        raise ValidationError("compare requires at least one run")
    for prev, run in zip(ordered, ordered[1:]):  # sorted: a duplicate follows its first copy
        if prev.key == run.key:
            raise ValidationError(f"duplicate run: {run.scenario.value} run {run.run_id}")

    rankings = {run.key: rank_edges(run.graph) for run in ordered}

    reference = next((r for r in ordered if r.scenario is ScenarioKind.BASELINE), ordered[0])
    ref_probs = _edge_probs(reference.graph)
    deltas = {}
    for run in ordered:
        if run.key == reference.key:
            continue
        run_probs = _edge_probs(run.graph)
        union = set(ref_probs) | set(run_probs)
        deltas[run.key] = {key: run_probs.get(key, 0.0) - ref_probs.get(key, 0.0) for key in union}

    topology = topology or default_topology()
    master = topology.scada_master.name
    flags, unchecked = {}, {}
    for kind, (flag, tiers) in SIGNATURES.items():
        kind_runs = [run for run in ordered if run.scenario is kind]
        missing = sorted({d for _, ds in tiers for d in ds if topology.device(d) is None})
        flags[flag] = None
        if kind_runs and missing:
            unchecked[flag] = tuple(missing)
        elif kind_runs:
            flags[flag] = all(
                _matches(rankings[run.key], tiers, master) if tiers
                else uniformity_check(run.graph, uniformity_tol)
                for run in kind_runs
            )

    return ComparisonReport(
        runs=tuple(ordered),
        reference=reference.key,
        rankings=rankings,
        deltas=deltas,
        flags=flags,
        unchecked=unchecked,
    )
