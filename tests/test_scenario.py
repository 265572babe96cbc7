"""Edge ranking, uniformity, and cross-scenario comparison reports."""

import pytest

from cyberdep.depgraph import DependencyGraph, DgEdge, DgNode, Normalization
from cyberdep.errors import ValidationError
from cyberdep.scenario import (
    ComparisonReport,
    ScenarioKind,
    ScenarioRun,
    compare,
    rank_edges,
    uniformity_check,
)


def star_graph(weights: dict[str, float], sink: str = "scada") -> DependencyGraph:
    """Device->sink star with explicit probability weights (no normalization)."""
    nodes = tuple(DgNode(n) for n in sorted(weights) + [sink])
    edges = tuple(DgEdge(src, sink, p) for src, p in weights.items())
    return DependencyGraph(nodes, edges, Normalization.NONE)


def run(kind, run_id, weights, ref=None):
    return ScenarioRun(kind, run_id, ref or f"{kind.value}-{run_id}", star_graph(weights))


BASE = {"gen-1": 0.17, "gen-2": 0.17, "gen-3": 0.17, "load-5": 0.17, "load-6": 0.16,
        "load-8": 0.16}
DOS = {"gen-1": 0.07, "gen-2": 0.07, "gen-3": 0.07, "load-5": 0.36, "load-6": 0.34,
       "load-8": 0.09}
NOMIT = {"gen-1": 0.30, "gen-2": 0.08, "gen-3": 0.08, "load-5": 0.32, "load-6": 0.12,
         "load-8": 0.10}
MIT = {"gen-1": 0.20, "gen-2": 0.06, "gen-3": 0.06, "load-5": 0.31, "load-6": 0.29,
       "load-8": 0.08}


class TestRankEdges:
    def test_descending_probability(self):
        ranked = rank_edges(star_graph(DOS))
        assert [e.source for e in ranked[:3]] == ["load-5", "load-6", "load-8"]
        probs = [e.probability for e in ranked]
        assert probs == sorted(probs, reverse=True)

    def test_ties_break_by_name(self):
        ranked = rank_edges(star_graph({"b": 0.5, "a": 0.5}))
        assert [e.source for e in ranked] == ["a", "b"]

    def test_empty(self):
        assert rank_edges(DependencyGraph((), ())) == []


class TestUniformityCheck:
    def test_equal_probabilities_are_uniform(self):
        result = uniformity_check(star_graph({"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}), 0.0)
        assert result.uniform
        assert result.max_deviation == 0.0

    def test_near_uniform_within_tolerance(self):
        result = uniformity_check(star_graph(BASE), 0.02)
        assert result.uniform
        assert 0.0 < result.max_deviation <= 0.02

    def test_spiked_graph_not_uniform(self):
        result = uniformity_check(star_graph(DOS), 0.02)
        assert not result.uniform

    def test_empty_graph_is_uniform(self):
        assert uniformity_check(DependencyGraph((), ()), 0.0) == (True, 0.0)


class TestScenarioRun:
    def test_run_id_must_be_positive(self):
        with pytest.raises(ValidationError, match="run_id"):
            ScenarioRun(ScenarioKind.BASELINE, 0, "x", star_graph(BASE))

    def test_key(self):
        r = run(ScenarioKind.DOS_ONLY, 2, DOS)
        assert r.key == (ScenarioKind.DOS_ONLY, 2)


class TestCompare:
    def all_runs(self):
        return [
            run(ScenarioKind.WITH_MITIGATION, 1, MIT),
            run(ScenarioKind.BASELINE, 2, BASE),
            run(ScenarioKind.BASELINE, 1, BASE),
            run(ScenarioKind.DOS_ONLY, 1, DOS),
            run(ScenarioKind.NO_MITIGATION, 1, NOMIT),
        ]

    def test_orders_runs_and_picks_baseline_reference(self):
        report = compare(self.all_runs())
        assert report.reference == (ScenarioKind.BASELINE, 1)
        assert [r.key for r in report.runs] == [
            (ScenarioKind.BASELINE, 1),
            (ScenarioKind.BASELINE, 2),
            (ScenarioKind.DOS_ONLY, 1),
            (ScenarioKind.NO_MITIGATION, 1),
            (ScenarioKind.WITH_MITIGATION, 1),
        ]

    def test_input_order_irrelevant(self):
        runs = self.all_runs()
        a = compare(runs)
        b = compare(list(reversed(runs)))
        assert a.to_json_dict() == b.to_json_dict()

    def test_signature_flags_on_textbook_runs(self):
        flags = compare(self.all_runs()).flags
        assert flags.baseline_uniform is True
        assert flags.dos_top2 is True
        assert flags.no_mitigation_top2 is True
        assert flags.mitigation_pattern is True

    def test_absent_scenarios_flag_none(self):
        flags = compare([run(ScenarioKind.BASELINE, 1, BASE)]).flags
        assert flags.baseline_uniform is True
        assert flags.dos_top2 is None
        assert flags.no_mitigation_top2 is None
        assert flags.mitigation_pattern is None

    def test_identical_baseline_runs_have_zero_deltas(self):
        report = compare([
            run(ScenarioKind.BASELINE, 1, BASE),
            run(ScenarioKind.BASELINE, 2, BASE),
            run(ScenarioKind.BASELINE, 3, BASE),
        ])
        assert len(report.deltas) == 2  # reference excluded
        for rd in report.deltas:
            assert rd.deltas
            assert all(d == 0.0 for d in rd.deltas.values())

    def test_deltas_over_edge_union(self):
        ref = run(ScenarioKind.BASELINE, 1, {"a": 0.6, "b": 0.4})
        other = run(ScenarioKind.DOS_ONLY, 1, {"b": 0.9, "c": 0.1})
        (rd,) = compare([ref, other]).deltas
        assert rd.deltas[("a", "scada")] == pytest.approx(-0.6)
        assert rd.deltas[("b", "scada")] == pytest.approx(0.5)
        assert rd.deltas[("c", "scada")] == pytest.approx(0.1)

    def test_no_baseline_uses_first_run_as_reference(self):
        report = compare([
            run(ScenarioKind.DOS_ONLY, 1, DOS),
            run(ScenarioKind.WITH_MITIGATION, 1, MIT),
        ])
        assert report.reference == (ScenarioKind.DOS_ONLY, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            compare([])

    def test_duplicate_run_rejected(self):
        with pytest.raises(ValidationError, match="duplicate run: baseline run 1"):
            compare([run(ScenarioKind.BASELINE, 1, BASE),
                     run(ScenarioKind.BASELINE, 1, BASE)])

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12, float("inf"), float("-inf")])
    def test_bad_uniformity_tol_rejected(self, tol):
        with pytest.raises(ValidationError, match=f"uniformity_tol must be finite and >= 0, got {tol!r}"):
            compare([run(ScenarioKind.BASELINE, 1, BASE)], uniformity_tol=tol)

    @pytest.mark.parametrize("tol", [0.0, 1e308])
    def test_uniformity_tol_bounds_accepted(self, tol):
        flags = compare([run(ScenarioKind.BASELINE, 1, BASE)], uniformity_tol=tol).flags
        assert flags.baseline_uniform is (tol > 0)

    def test_mitigation_needs_gen1_third(self):
        # loads on top but gen-1 pushed to 4th place: pattern must fail
        shuffled = dict(MIT, **{"gen-1": 0.07, "load-8": 0.21})
        flags = compare([run(ScenarioKind.WITH_MITIGATION, 1, shuffled)]).flags
        assert flags.mitigation_pattern is False

    def test_one_bad_run_fails_scenario_flag(self):
        flags = compare([
            run(ScenarioKind.DOS_ONLY, 1, DOS),
            run(ScenarioKind.DOS_ONLY, 2, BASE),  # no spike here
        ]).flags
        assert flags.dos_top2 is False


class TestReportOutput:
    def test_json_dict_shape(self):
        report = compare([run(ScenarioKind.BASELINE, 1, BASE),
                          run(ScenarioKind.DOS_ONLY, 1, DOS)])
        doc = report.to_json_dict()
        assert doc["reference"] == {"scenario": "baseline", "run_id": 1}
        assert [r["scenario"] for r in doc["runs"]] == ["baseline", "dos_only"]
        ranking = doc["runs"][1]["ranking"]
        assert ranking[0]["source"] == "load-5"
        assert len(doc["deltas"]) == 1
        assert doc["flags"]["dos_top2"] is True

    def test_text_contains_rankings_and_flags(self):
        report = compare([run(ScenarioKind.BASELINE, 1, BASE),
                          run(ScenarioKind.DOS_ONLY, 1, DOS)])
        text = report.to_text()
        assert text.startswith("reference: baseline run 1\n")
        assert "dos_only run 1 (6 edges)" in text
        assert "load-5 -> scada  0.36" in text
        assert "flags: baseline_uniform=true, dos_top2=true" in text
        assert "no_mitigation_top2=n/a" in text

    def test_report_is_plain_data(self):
        report = compare([run(ScenarioKind.BASELINE, 1, BASE)])
        assert isinstance(report, ComparisonReport)
        import json

        json.dumps(report.to_json_dict())  # must be serializable as-is
