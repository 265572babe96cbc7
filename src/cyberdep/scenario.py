"""Scenario/run bookkeeping and cross-scenario graph comparison.

An experiment set is a collection of (scenario, run) pairs, each binding a
capture to its built graph. Comparison never averages across runs; it ranks
each run's edges, computes per-edge deltas against a reference run (the
first baseline run when one exists), and evaluates the signature patterns
the four disturbance scenarios are expected to show.
"""

import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

from .depgraph import DependencyGraph, DgEdge, format_probability
from .errors import ValidationError


class ScenarioKind(Enum):
    BASELINE = "baseline"
    DOS_ONLY = "dos_only"
    NO_MITIGATION = "no_mitigation"
    WITH_MITIGATION = "with_mitigation"


_SCENARIO_ORDER = {kind: i for i, kind in enumerate(ScenarioKind)}


@dataclass(frozen=True)
class ScenarioRun:
    scenario: ScenarioKind
    run_id: int
    capture_ref: str
    graph: DependencyGraph

    def __post_init__(self):
        if self.run_id < 1:
            raise ValidationError(f"run_id must be positive, got {self.run_id}")

    @property
    def key(self) -> tuple[ScenarioKind, int]:
        return (self.scenario, self.run_id)


def rank_edges(graph: DependencyGraph) -> list[DgEdge]:
    """Edges sorted by descending probability; ties broken by (source, sink)."""
    return sorted(graph.edges, key=lambda e: (-e.probability, e.source, e.sink))


class UniformityResult(NamedTuple):
    uniform: bool
    max_deviation: float


def uniformity_check(graph: DependencyGraph, tol: float) -> UniformityResult:
    """True iff every edge probability is within tol of the mean probability."""
    if not graph.edges:
        return UniformityResult(True, 0.0)
    probs = [e.probability for e in graph.edges]
    mean = sum(probs) / len(probs)
    deviation = max(abs(p - mean) for p in probs)
    return UniformityResult(deviation <= tol, deviation)


#: The edges the scenario signature patterns are keyed to.
LOAD5_EDGE = ("load-5", "scada")
LOAD6_EDGE = ("load-6", "scada")
GEN1_EDGE = ("gen-1", "scada")

#: Default tolerance for calling sampled baseline traffic "uniform".
DEFAULT_UNIFORMITY_TOL = 0.02


def is_tolerance(value: float) -> bool:
    """True for a usable uniformity tolerance: finite and >= 0 (NaN is neither)."""
    return 0 <= value <= sys.float_info.max


@dataclass(frozen=True)
class ScenarioFlags:
    """Signature-pattern booleans; None when no run of that scenario is present.

    baseline_uniform    every baseline run's edge probabilities are equal
                        within the tolerance.
    dos_top2            every DOS-only run ranks the two load->SCADA edges
                        highest.
    no_mitigation_top2  every no-mitigation run's top two edges are
                        {gen-1->scada, load-5->scada}.
    mitigation_pattern  every with-mitigation run ranks loads 5 and 6 first
                        and gen-1 third.
    """

    baseline_uniform: bool | None = None
    dos_top2: bool | None = None
    no_mitigation_top2: bool | None = None
    mitigation_pattern: bool | None = None


@dataclass(frozen=True)
class RunDeltas:
    scenario: ScenarioKind
    run_id: int
    #: (source, sink) -> probability delta vs reference, over the edge union.
    deltas: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ComparisonReport:
    runs: tuple[ScenarioRun, ...]
    reference: tuple[ScenarioKind, int]
    rankings: dict = field(default_factory=dict)  # run key -> list[DgEdge]
    deltas: tuple[RunDeltas, ...] = ()
    flags: ScenarioFlags = ScenarioFlags()

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
                    "scenario": rd.scenario.value,
                    "run_id": rd.run_id,
                    "edges": [
                        {"source": src, "sink": sink, "delta": delta}
                        for (src, sink), delta in sorted(rd.deltas.items())
                    ],
                }
                for rd in self.deltas
            ],
            "flags": asdict(self.flags),
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
            for rd in self.deltas:
                lines.append(f"  {rd.scenario.value} run {rd.run_id}")
                for (src, sink), delta in sorted(rd.deltas.items()):
                    lines.append(f"    {src} -> {sink}  {delta:+.4f}")
        rendered = ", ".join(
            f"{name}={'n/a' if value is None else str(value).lower()}"
            for name, value in asdict(self.flags).items()
        )
        lines.append(f"flags: {rendered}")
        return "\n".join(lines) + "\n"


def _edge_probs(graph: DependencyGraph) -> dict[tuple[str, str], float]:
    return {e.key: e.probability for e in graph.edges}


def _top_keys(ranking: list[DgEdge], n: int) -> set[tuple[str, str]]:
    return {e.key for e in ranking[:n]}


def _all_or_none(results: list[bool]) -> bool | None:
    if not results:
        return None
    return all(results)


def compare(
    runs: Iterable[ScenarioRun],
    uniformity_tol: float = DEFAULT_UNIFORMITY_TOL,
) -> ComparisonReport:
    """Build a deterministic comparison report over an experiment set.

    Runs are ordered by (scenario, run_id) regardless of input order; the
    reference for deltas is the first baseline run, or the first run overall
    when no baseline is present. Requires at least one run, unique
    (scenario, run_id) keys and a finite, nonnegative ``uniformity_tol``.
    """
    if not is_tolerance(uniformity_tol):
        raise ValidationError(f"uniformity_tol must be finite and >= 0, got {uniformity_tol!r}")
    ordered = sorted(runs, key=lambda r: (_SCENARIO_ORDER[r.scenario], r.run_id))
    if not ordered:
        raise ValidationError("compare requires at least one run")
    seen = set()
    for run in ordered:
        if run.key in seen:
            raise ValidationError(
                f"duplicate run: {run.scenario.value} run {run.run_id}"
            )
        seen.add(run.key)

    rankings = {run.key: rank_edges(run.graph) for run in ordered}

    reference = next(
        (r for r in ordered if r.scenario is ScenarioKind.BASELINE), ordered[0]
    )
    ref_probs = _edge_probs(reference.graph)
    deltas = []
    for run in ordered:
        if run.key == reference.key:
            continue
        run_probs = _edge_probs(run.graph)
        union = set(ref_probs) | set(run_probs)
        deltas.append(
            RunDeltas(
                run.scenario,
                run.run_id,
                {key: run_probs.get(key, 0.0) - ref_probs.get(key, 0.0) for key in union},
            )
        )

    load_edges = {LOAD5_EDGE, LOAD6_EDGE}

    baseline_checks = [
        uniformity_check(run.graph, uniformity_tol).uniform
        for run in ordered
        if run.scenario is ScenarioKind.BASELINE
    ]
    dos_checks = [
        _top_keys(rankings[run.key], 2) == load_edges
        for run in ordered
        if run.scenario is ScenarioKind.DOS_ONLY
    ]
    nomit_checks = [
        _top_keys(rankings[run.key], 2) == {GEN1_EDGE, LOAD5_EDGE}
        for run in ordered
        if run.scenario is ScenarioKind.NO_MITIGATION
    ]
    mit_checks = [
        len(rankings[run.key]) >= 3
        and _top_keys(rankings[run.key], 2) == load_edges
        and rankings[run.key][2].key == GEN1_EDGE
        for run in ordered
        if run.scenario is ScenarioKind.WITH_MITIGATION
    ]

    flags = ScenarioFlags(
        baseline_uniform=_all_or_none(baseline_checks),
        dos_top2=_all_or_none(dos_checks),
        no_mitigation_top2=_all_or_none(nomit_checks),
        mitigation_pattern=_all_or_none(mit_checks),
    )

    return ComparisonReport(
        runs=tuple(ordered),
        reference=reference.key,
        rankings=rankings,
        deltas=tuple(deltas),
        flags=flags,
    )
