"""Edge ranking, uniformity, and cross-scenario comparison reports."""

import ast
import io
import json
from pathlib import Path

import pytest

import cyberdep
from cyberdep.cli import main
from cyberdep.depgraph import DependencyGraph, DgEdge, DgNode, Normalization, build_graph
from cyberdep.errors import ValidationError
from cyberdep.scenario import (
    SIGNATURES,
    ComparisonReport,
    ScenarioKind,
    ScenarioRun,
    compare,
    rank_edges,
    uniformity_check,
)
from cyberdep.synth import builtin_profile, generate
from cyberdep.topology import DEFAULT_TOPOLOGY_RESOURCE, load_topology


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
        assert uniformity_check(star_graph({"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}), 0.0)

    def test_near_uniform_within_tolerance(self):
        assert uniformity_check(star_graph(BASE), 0.02)
        assert not uniformity_check(star_graph(BASE), 0.0)

    def test_spiked_graph_not_uniform(self):
        result = uniformity_check(star_graph(DOS), 0.02)
        assert not result

    def test_empty_graph_is_uniform(self):
        assert uniformity_check(DependencyGraph((), ()), 0.0) is True


class TestScenarioRun:
    def test_run_id_must_be_positive(self):
        with pytest.raises(ValidationError, match="run_id"):
            ScenarioRun(ScenarioKind.BASELINE, 0, "x", star_graph(BASE))

    @pytest.mark.parametrize("run_id", [True, 1.0])
    def test_run_id_must_be_an_integer(self, run_id):
        with pytest.raises(ValidationError) as exc:
            ScenarioRun(ScenarioKind.BASELINE, run_id, "x", star_graph(BASE))
        assert str(exc.value) == f"run_id must be an integer, got {run_id!r}"

    @pytest.mark.parametrize("field, value, message", [
        ("scenario", "baseline", "scenario must be a ScenarioKind, got 'baseline'"),
        ("capture_ref", 5, "capture_ref must be a string, got 5"),
        ("graph", {}, "graph must be a DependencyGraph, got dict"),
    ])
    def test_field_types_checked(self, field, value, message):
        fields = {"scenario": ScenarioKind.BASELINE, "run_id": 1, "capture_ref": "x",
                  "graph": star_graph(BASE)}
        with pytest.raises(ValidationError) as exc:
            ScenarioRun(**{**fields, field: value})
        assert str(exc.value) == message

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
        assert compare(self.all_runs()).flags == {"baseline_uniform": True, "dos_top2": True,
                                                  "no_mitigation_top2": True,
                                                  "mitigation_pattern": True}

    def test_absent_scenarios_flag_none(self):
        flags = compare([run(ScenarioKind.BASELINE, 1, BASE)]).flags
        assert flags == {"baseline_uniform": True, "dos_top2": None,
                         "no_mitigation_top2": None, "mitigation_pattern": None}

    def test_identical_baseline_runs_have_zero_deltas(self):
        report = compare([
            run(ScenarioKind.BASELINE, 1, BASE),
            run(ScenarioKind.BASELINE, 2, BASE),
            run(ScenarioKind.BASELINE, 3, BASE),
        ])
        assert list(report.deltas) == [(ScenarioKind.BASELINE, 2), (ScenarioKind.BASELINE, 3)]
        for deltas in report.deltas.values():
            assert deltas
            assert all(d == 0.0 for d in deltas.values())

    def test_deltas_over_edge_union(self):
        ref = run(ScenarioKind.BASELINE, 1, {"a": 0.6, "b": 0.4})
        other = run(ScenarioKind.DOS_ONLY, 1, {"b": 0.9, "c": 0.1})
        deltas = compare([ref, other]).deltas
        assert list(deltas) == [other.key]
        assert deltas[other.key] == pytest.approx(
            {("a", "scada"): -0.6, ("b", "scada"): 0.5, ("c", "scada"): 0.1}
        )

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
        assert flags["baseline_uniform"] is (tol > 0)

    def test_mitigation_needs_gen1_third(self):
        # loads on top but gen-1 pushed to 4th place: pattern must fail
        shuffled = dict(MIT, **{"gen-1": 0.07, "load-8": 0.21})
        flags = compare([run(ScenarioKind.WITH_MITIGATION, 1, shuffled)]).flags
        assert flags["mitigation_pattern"] is False

    def test_one_bad_run_fails_scenario_flag(self):
        flags = compare([
            run(ScenarioKind.DOS_ONLY, 1, DOS),
            run(ScenarioKind.DOS_ONLY, 2, BASE),  # no spike here
        ]).flags
        assert flags["dos_top2"] is False


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


# -- the signature table -------------------------------------------------------

RANKING_FLAGS = ("dos_top2", "no_mitigation_top2", "mitigation_pattern")


def synth_run(name, kind, run_id, topo, n_messages=10_000):
    profile = builtin_profile(name, topo, n_messages=n_messages, seed=run_id)
    result = build_graph(io.BytesIO(generate(profile, topo)), topo)
    return ScenarioRun(kind, run_id, f"{name}-{run_id}", result.graph)


class TestSignatureTable:
    def test_one_named_flag_per_scenario_in_table_order(self):
        assert list(SIGNATURES) == list(ScenarioKind)
        names = [flag for flag, _ in SIGNATURES.values()]
        assert len(set(names)) == len(names)
        report = compare([run(ScenarioKind.BASELINE, 1, BASE)])
        doc = report.to_json_dict()
        assert list(doc["flags"]) == names
        doc["flags"]["dos_top2"] = True  # the document holds a copy
        assert report.flags["dos_top2"] is None
        flags_line = report.to_text().splitlines()[-1].removeprefix("flags: ")
        assert [item.split("=")[0] for item in flags_line.split(", ")] == names

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_builtin_profiles_show_their_signature(self, wscc, seed):
        runs = [synth_run(kind.value, kind, seed, wscc) for kind in ScenarioKind]
        report = compare(runs, topology=wscc)
        assert all(report.flags.values()), report.flags
        assert report.unchecked == {}

        variant = synth_run("dos_run3_variant", ScenarioKind.DOS_ONLY, seed, wscc)
        assert compare([variant], topology=wscc).flags["dos_top2"] is False

    def test_tiers_rank_into_the_topology_master(self):
        sink = "master"
        topo = renamed_topology({"scada": sink})
        runs = [
            ScenarioRun(ScenarioKind.DOS_ONLY, 1, "d", star_graph(DOS, sink)),
            ScenarioRun(ScenarioKind.NO_MITIGATION, 1, "n", star_graph(NOMIT, sink)),
            ScenarioRun(ScenarioKind.WITH_MITIGATION, 1, "m", star_graph(MIT, sink)),
        ]
        flags = compare(runs, topology=topo).flags
        assert [flags[name] for name in RANKING_FLAGS] == [True] * 3
        # the bundled master's name is no longer the sink
        assert compare(runs).flags["dos_top2"] is False

    def test_missing_signature_device_flags_none(self):
        renames = {"load-5": "bus-5", "load-6": "bus-6"}
        dos = {renames.get(name, name): p for name, p in DOS.items()}
        runs = [run(ScenarioKind.DOS_ONLY, 1, dos), run(ScenarioKind.BASELINE, 1, BASE)]
        report = compare(runs, topology=renamed_topology(renames))
        assert report.flags["dos_top2"] is None
        assert report.flags["baseline_uniform"] is True
        assert report.unchecked == {"dos_top2": ("load-5", "load-6")}
        assert "unchecked" not in report.to_json_dict()

    @pytest.mark.parametrize("renames, flags, stderr", [
        ({"scada": "master"}, [True] * 3, []),
        ({"load-5": "bus-5", "load-6": "bus-6"}, [None] * 3, [
            "  dos_top2: n/a, topology lacks load-5, load-6",
            "  no_mitigation_top2: n/a, topology lacks load-5",
            "  mitigation_pattern: n/a, topology lacks load-5, load-6",
        ]),
    ])
    def test_cli_on_renamed_topology(self, tmp_path, capsys, renames, flags, stderr):
        topo_path = tmp_path / "renamed.json"
        topo_path.write_text(json.dumps(renamed_topology_doc(renames)))
        manifest = []
        for kind in ScenarioKind:
            # the bundled topology shares every address with the renamed one
            assert main(["synth", "--profile", kind.value, "--n", "3000", "--seed", "1",
                         "--out", str(tmp_path / f"{kind.value}.jsonl")]) == 0
            manifest.append({"scenario": kind.value, "run_id": 1,
                             "capture": f"{kind.value}.jsonl"})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()

        assert main(["compare", "-v", "--in", str(tmp_path / "manifest.json"),
                     "--topo", str(topo_path)]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert [doc["flags"][name] for name in RANKING_FLAGS] == flags
        assert doc["flags"]["baseline_uniform"] is True
        assert [line for line in err.splitlines() if "n/a" in line] == stderr

        assert main(["compare", "--format", "text", "--in", str(tmp_path / "manifest.json"),
                     "--topo", str(topo_path)]) == 0
        out, err = capsys.readouterr()
        rendered = ["n/a" if f is None else str(f).lower() for f in flags]
        assert out.endswith(
            f"flags: baseline_uniform=true, dos_top2={rendered[0]}, "
            f"no_mitigation_top2={rendered[1]}, mitigation_pattern={rendered[2]}\n"
        )
        assert "n/a" not in err  # the missing devices are named under -v only


def renamed_topology_doc(renames: dict) -> dict:
    doc = json.loads(
        (Path(cyberdep.__file__).parent / "data" / DEFAULT_TOPOLOGY_RESOURCE).read_text()
    )
    for device in doc["devices"]:
        device["name"] = renames.get(device["name"], device["name"])
    return doc


def renamed_topology(renames: dict):
    return load_topology(json.dumps(renamed_topology_doc(renames)).encode())


SIGNATURE_DEVICES = {"load-5", "load-6", "gen-1"}


def signature_device_names(path: Path) -> tuple[list[str], int]:
    """Constants naming a signature device outside the table, and the count inside it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    in_table = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "SIGNATURES" for t in targets):
            in_table |= {id(child) for child in ast.walk(node)}
    hits = [node for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in SIGNATURE_DEVICES]
    outside = [f"{path.name}:{n.lineno}: {n.value!r}" for n in hits if id(n) not in in_table]
    return outside, len(hits) - len(outside)


def test_signature_devices_named_only_in_the_table():
    package = Path(cyberdep.__file__).parent
    found = {path.name: signature_device_names(path) for path in package.glob("*.py")}
    assert found["scenario.py"][1] == sum(len(ds) for _, tiers in SIGNATURES.values()
                                          for _, ds in tiers), "the walker must see the table"
    assert [hit for outside, _ in found.values() for hit in outside] == []
