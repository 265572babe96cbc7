"""End-to-end CLI behavior: subcommands, exit codes, artifact routing."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import cyberdep
from cyberdep.cli import _write_output, main
from cyberdep.depgraph import DependencyGraph, Normalization, build_graph
from cyberdep.errors import FormatError, ValidationError
from cyberdep.graphio import (
    CHUNK, FORMATS, load_graph_json, render_graph,
)
from cyberdep.scenario import ScenarioKind, ScenarioRun
from cyberdep.topology import load_topology
from conftest import INTRA_DEVICE_ROWS, equal_flow_rows, find_edge, jsonl_bytes, make_topology


# Each build flag set and the keyword choices it must hand to build_graph.
FLAG_CHOICES = {
    (): {},
    ("--no-scada-collapse",): {"scada_collapse": False},
    ("--normalization", "per-sink"): {"normalization": Normalization.PER_SINK},
    ("--no-scada-collapse", "--normalization", "per-sink"):
        {"scada_collapse": False, "normalization": Normalization.PER_SINK},
}


@pytest.fixture
def capture_file(tmp_path):
    topo = make_topology(3)
    path = tmp_path / "capture.jsonl"
    path.write_bytes(jsonl_bytes(equal_flow_rows(topo, 4)))
    return path


@pytest.fixture
def topo_file(tmp_path):
    topo_doc = {
        "label": "three-field",
        "devices": [
            {"name": "scada", "role": "scada", "addrs": ["10.9.0.1"]},
            {"name": "dev-01", "role": "field", "addrs": ["10.9.1.1"]},
            {"name": "dev-02", "role": "field", "addrs": ["10.9.1.2"]},
            {"name": "dev-03", "role": "field", "addrs": ["10.9.1.3"]},
        ],
    }
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(topo_doc))
    return path


@pytest.fixture
def graph_file(tmp_path, sample_graph):
    path = tmp_path / "graph.json"
    path.write_bytes(render_graph(sample_graph, "json"))
    return path


class TestBuild:
    def test_writes_graph_json(self, capture_file, topo_file, tmp_path, capsys):
        out = tmp_path / "graph.json"
        rc = main(["build", "--in", str(capture_file), "--topo", str(topo_file),
                   "--out", str(out)])
        assert rc == 0
        graph = load_graph_json(out.read_bytes())
        assert len(graph.edges) == 3
        assert all(e.sink == "scada" for e in graph.edges)
        err = capsys.readouterr().err
        assert "parsed 12/12" in err
        assert "3 edges" in err

    def test_stdout_when_no_out(self, capture_file, topo_file, capsys):
        rc = main(["build", "--in", str(capture_file), "--topo", str(topo_file)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["normalization"] == "global"

    def test_format_inferred_from_suffix(self, capture_file, topo_file, tmp_path):
        out = tmp_path / "graph.dot"
        assert main(["build", "--in", str(capture_file), "--topo", str(topo_file),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("digraph dependency_graph {")

    def test_format_flag_wins_over_suffix(self, capture_file, topo_file, tmp_path):
        out = tmp_path / "graph.dot"
        assert main(["build", "--in", str(capture_file), "--topo", str(topo_file),
                     "--out", str(out), "--format", "json"]) == 0
        json.loads(out.read_text())

    def test_per_sink_normalization(self, capture_file, topo_file, tmp_path):
        out = tmp_path / "g.json"
        assert main(["build", "--in", str(capture_file), "--topo", str(topo_file),
                     "--normalization", "per-sink", "--out", str(out)]) == 0
        graph = load_graph_json(out.read_bytes())
        assert graph.normalization.value == "per-sink"

    def test_no_scada_collapse_keeps_directions(self, capture_file, topo_file, tmp_path):
        out = tmp_path / "g.json"
        assert main(["build", "--in", str(capture_file), "--topo", str(topo_file),
                     "--no-scada-collapse", "--out", str(out)]) == 0
        graph = load_graph_json(out.read_bytes())
        assert find_edge(graph, "scada", "dev-01") is not None
        assert find_edge(graph, "dev-01", "scada") is not None

    def test_default_topology_used_when_no_topo_flag(self, tmp_path, capsys):
        rows = [{"ts_us": 1, "src": "10.0.0.10", "dst": "10.0.1.20",
                 "proto": "dnp3", "dnp3_fn": "read"}]
        capture = tmp_path / "c.jsonl"
        capture.write_bytes(jsonl_bytes(rows))
        assert main(["build", "--in", str(capture)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["edges"][0]["source"] == "load-5"

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = main(["build", "--in", str(tmp_path / "absent.jsonl")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_topology_exits_1(self, capture_file, tmp_path, capsys):
        rc = main(["build", "--in", str(capture_file),
                   "--topo", str(tmp_path / "no-topo.json")])
        assert rc == 1
        assert "topology" in capsys.readouterr().err

    def test_topology_name_xml_cannot_hold_exits_1(self, capture_file, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(
            {"devices": [{"name": "scada\x01", "role": "scada", "addrs": ["10.9.0.1"]}]}
        ))
        assert main(["build", "--in", str(capture_file), "--topo", str(topo)]) == 1
        assert capsys.readouterr().err == (
            "cyberdep build: error: device name must be a non-empty string XML can represent, "
            "got 'scada\\x01'\n"
        )

    @pytest.mark.parametrize("addr", ["banana", "10.0.0.010", '1.2.3.4"'])
    def test_topology_bad_address_exits_1(self, capture_file, tmp_path, capsys, addr):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(
            {"devices": [{"name": "scada", "role": "scada", "addrs": [addr]}]}
        ))
        assert main(["build", "--in", str(capture_file), "--topo", str(topo)]) == 1
        assert capsys.readouterr().err == (
            f"cyberdep build: error: device 'scada' has an invalid IPv4 address: {addr!r}\n"
        )

    def test_verbose_lists_rejections_and_unmapped(self, topo_file, tmp_path, capsys):
        rows = jsonl_bytes([
            {"ts_us": 1, "src": "10.9.0.1", "dst": "10.9.1.1", "proto": "dnp3", "dnp3_fn": "read"},
            {"ts_us": 2, "src": "10.9.0.1", "dst": "192.0.2.200", "proto": "dnp3", "dnp3_fn": "read"},
        ]) + b"{broken\n"
        capture = tmp_path / "messy.jsonl"
        capture.write_bytes(rows)
        rc = main(["build", "-v", "--in", str(capture), "--topo", str(topo_file),
                   "--out", str(tmp_path / "g.json")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "rejected line 3" in err
        assert "unmapped address 192.0.2.200" in err
        assert "not shown" not in err

    def test_verbose_counts_unlisted_rejections(self, topo_file, tmp_path, capsys):
        capture = tmp_path / "broken.jsonl"
        capture.write_bytes(b"{broken\n" * 23)
        assert main(["build", "-v", "--in", str(capture), "--topo", str(topo_file),
                     "--out", str(tmp_path / "g.json")]) == 0
        err = capsys.readouterr().err
        assert "rejected line 20:" in err
        assert "rejected line 21:" not in err
        assert "  ... 3 more rejected lines not shown" in err


    def test_verbose_rejects_non_string_endpoints(self, topo_file, tmp_path, capsys):
        values = [["10.9.1.1"], {"a": 1}, None, 7, True]
        rows = [{"ts_us": 1, "src": "10.9.0.1", "dst": "10.9.1.1", "proto": "dnp3"}]
        rows += [{**rows[0], key: value} for key in ("src", "dst") for value in values]
        capture = tmp_path / "typed.jsonl"
        capture.write_bytes(jsonl_bytes(rows))
        assert main(["build", "-v", "--in", str(capture), "--topo", str(topo_file),
                     "--out", str(tmp_path / "g.json")]) == 0
        shown = [line for line in capsys.readouterr().err.splitlines() if "rejected line" in line]
        assert shown == [
            f"  rejected line {n}: {key} must be a string"
            for n, key in enumerate(["src"] * 5 + ["dst"] * 5, start=2)
        ]

    @pytest.mark.parametrize("collapse_args, edges", [
        ([], [["dev-01", "scada"]]),
        (["--no-scada-collapse"], [["dev-01", "scada"], ["scada", "dev-01"]]),
        (["--normalization", "per-sink"], [["dev-01", "scada"]]),
        (["--no-scada-collapse", "--normalization", "per-sink"],
         [["dev-01", "scada"], ["scada", "dev-01"]]),
    ])
    def test_intra_device_traffic_dropped(self, tmp_path, capsys, collapse_args, edges):
        """Each flag set writes the graph ``build_graph`` gives for its keyword choices."""
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"devices": [
            {"name": "scada", "role": "scada", "addrs": ["10.9.0.1", "10.9.0.2"]},
            {"name": "dev-01", "role": "field", "addrs": ["10.9.1.1", "10.9.1.2"]},
        ]}))
        capture = tmp_path / "intra.jsonl"
        capture.write_bytes(jsonl_bytes(INTRA_DEVICE_ROWS))
        rc = main(["build", "--in", str(capture), "--topo", str(topo), *collapse_args])
        out, err = capsys.readouterr()
        assert rc == 0
        assert [[e["source"], e["sink"]] for e in json.loads(out)["edges"]] == edges
        with capture.open("rb") as lines:
            graph = build_graph(lines, load_topology(topo.read_bytes()),
                                **FLAG_CHOICES[tuple(collapse_args)]).graph
        assert out == render_graph(graph, "json").decode()
        assert err.splitlines()[:2] == [
            f"{capture}: parsed 7/7 lines (0 rejected); dnp3 retained 7 (filtered out 0)",
            f"{capture}: mapped 7 records (0 unmapped); non-scada flow dropped: 3",
        ]


class TestExport:
    def test_json_to_dot(self, graph_file, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export", "--in", str(graph_file), "--format", "dot",
                     "--out", str(out)]) == 0
        assert 'P1 -> F4 [label="0.30"];' in out.read_text()

    def test_json_to_graphml_stdout(self, graph_file, capsysbinary):
        assert main(["export", "--in", str(graph_file), "--format", "graphml"]) == 0
        out = capsysbinary.readouterr().out
        assert out.startswith(b"<?xml")
        assert b"graphml" in out

    def test_json_to_json_round_trip(self, graph_file, tmp_path, sample_graph):
        out = tmp_path / "copy.json"
        assert main(["export", "--in", str(graph_file), "--format", "json",
                     "--out", str(out)]) == 0
        assert load_graph_json(out.read_bytes()) == sample_graph

    def test_corrupt_graph_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["export", "--in", str(bad), "--format", "dot"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["export", "--format", "dot"],
                                         ["query", "--target", "b"]])
    def test_graph_name_xml_cannot_hold_exits_1(self, tmp_path, command):
        graph = tmp_path / "g.json"
        graph.write_text('{"nodes": [{"name": "a\\ud800"}, {"name": "b"}], "edges": '
                         '[{"source": "a\\ud800", "sink": "b", "probability": 0.5, "count": 1}]}')
        env = {**os.environ, "PYTHONPATH": str(Path(cyberdep.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "cyberdep.cli", command[0], "--in", str(graph),
                              *command[1:]], env=env, capture_output=True, timeout=60)
        assert (run.returncode, run.stdout) == (1, b"")
        assert run.stderr == (f"cyberdep {command[0]}: error: node name must be a string XML "
                              "can represent, got 'a\\ud800'\n").encode()


def run_to_stdout_and_file(tmp_path, *argv) -> bytes:
    """Run a command to stdout and to --out FILE; return its output, equal in both."""
    env = {**os.environ, "PYTHONPATH": str(Path(cyberdep.__file__).parents[1])}
    out = tmp_path / "out"
    to_stdout, to_file = (
        subprocess.run([sys.executable, "-m", "cyberdep.cli", *argv, *extra], env=env,
                       capture_output=True, timeout=60)
        for extra in ([], ["--out", str(out)]))
    assert (to_stdout.returncode, to_file.returncode) == (0, 0), to_stdout.stderr
    assert (to_file.stdout, out.read_bytes()) == (b"", to_stdout.stdout)
    return to_stdout.stdout


class TestStreamedOutput:
    def test_file_and_stdout_bytes_equal_through_a_pipe(self, tmp_path):
        """Over 2 * CHUNK + 1 edges, so every format's output spans several chunks."""
        topo = make_topology(2 * CHUNK + 3)
        capture = tmp_path / "capture.jsonl"
        capture.write_bytes(jsonl_bytes(equal_flow_rows(topo, 2)))
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps({"devices": [
            {"name": d.name, "role": d.role.value, "addrs": sorted(d.addrs)}
            for d in topo.devices]}))
        graph_path = tmp_path / "graph.json"
        graph_path.write_bytes(run_to_stdout_and_file(
            tmp_path, "build", "--in", str(capture), "--topo", str(topo_path)))
        graph = load_graph_json(graph_path.read_bytes())
        assert len(graph.edges) > 2 * CHUNK + 1
        for fmt in FORMATS:
            assert run_to_stdout_and_file(
                tmp_path, "export", "--in", str(graph_path), "--format", fmt
            ) == render_graph(graph, fmt)

    def test_failed_source_leaves_existing_out_file_untouched(self, tmp_path):
        out = tmp_path / "graph.json"
        out.write_bytes(b"earlier output\n")

        def failing():
            raise FormatError("no first chunk")
            yield b""

        with pytest.raises(FormatError, match="no first chunk"):
            _write_output(str(out), failing())
        assert out.read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize("command", [
        ["build", "--in", "capture.jsonl", "--topo", "topo.json"],
        ["export", "--in", "graph.json", "--format", "dot"],
        ["synth", "--profile", "baseline", "--n", "10"],
        ["compare", "--in", "manifest.json"],
    ], ids=lambda argv: argv[0])
    def test_out_into_a_missing_directory_is_an_io_error(self, capture_file, topo_file,
                                                         graph_file, tmp_path, monkeypatch,
                                                         capsys, command):
        monkeypatch.chdir(tmp_path)
        Path("manifest.json").write_text(json.dumps(
            [{"scenario": "baseline", "run_id": 1, "capture": "capture.jsonl"}]))
        out = tmp_path / "missing" / "out"
        assert main([*command, "--out", str(out)]) == 1
        *_, last = capsys.readouterr().err.splitlines()
        assert last == (f"cyberdep {command[0]}: i/o error: "
                        f"[Errno 2] No such file or directory: {str(out)!r}")

    @pytest.mark.parametrize("command", [
        ["build", "--in", "capture.jsonl", "--topo", "topo.json"],
        ["export", "--in", "graph.json", "--format", "graphml"],
        ["synth", "--profile", "baseline", "--n", "10"],
        ["compare", "--in", "manifest.json", "--topo", "topo.json"],
    ], ids=lambda argv: argv[0])
    def test_out_dash_is_stdout(self, capture_file, topo_file, graph_file, tmp_path,
                                monkeypatch, capsysbinary, command):
        monkeypatch.chdir(tmp_path)
        Path("manifest.json").write_text(json.dumps(
            [{"scenario": "baseline", "run_id": 1, "capture": "capture.jsonl"}]))
        outputs = []
        for extra in ([], ["--out", "-"]):
            assert main([*command, *extra]) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert outputs[0] and outputs[1] == outputs[0]
        assert not Path("-").exists()

    def test_stdout_that_takes_part_of_each_write_gets_every_byte(self, tmp_path,
                                                                 monkeypatch):
        """A raw stdout (``python -u``) may write fewer bytes than it was handed."""
        class Trickle(io.RawIOBase):
            def __init__(self):
                self.data = bytearray()

            def writable(self):
                return True

            def write(self, b):
                self.data += bytes(b[:3])
                return len(b[:3])

        out = tmp_path / "capture.jsonl"
        assert main(["synth", "--profile", "baseline", "--n", "50", "--out", str(out)]) == 0
        trickle = Trickle()
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=trickle))
        assert main(["synth", "--profile", "baseline", "--n", "50"]) == 0
        assert bytes(trickle.data) == out.read_bytes()

    def test_unbuffered_stdout_closed_early_is_an_io_error(self):
        """The reader leaves after 10 bytes: the rest of the capture has nowhere to go."""
        env = {**os.environ, "PYTHONPATH": str(Path(cyberdep.__file__).parents[1]),
               "PYTHONUNBUFFERED": "1"}
        run = subprocess.Popen([sys.executable, "-m", "cyberdep.cli", "synth", "--profile",
                                "baseline", "--n", "20000"], env=env, bufsize=0,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with run:
            assert run.stdout.read(10) == b'{"ts_us":1'
            run.stdout.close()
            _, err = run.communicate(timeout=60)
        assert (run.returncode, err) == (1, b"cyberdep synth: i/o error: [Errno 32] Broken pipe\n")


class TestQuery:
    def test_two_active_parents(self, graph_file, capsys):
        assert main(["query", "--in", str(graph_file), "--target", "F4",
                     "--active", "P1,P9"]) == 0
        assert capsys.readouterr().out == "0.86\n"

    def test_single_active_parent(self, graph_file, capsys):
        assert main(["query", "--in", str(graph_file), "--target", "F4",
                     "--active", "P9"]) == 0
        assert capsys.readouterr().out == "0.8\n"

    def test_no_evidence(self, graph_file, capsys):
        assert main(["query", "--in", str(graph_file), "--target", "F4"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_unknown_target_exits_1(self, graph_file, capsys):
        assert main(["query", "--in", str(graph_file), "--target", "F99"]) == 1
        assert "F99" in capsys.readouterr().err

    def test_non_parent_evidence_exits_1(self, graph_file, capsys):
        assert main(["query", "--in", str(graph_file), "--target", "F7",
                     "--active", "P9"]) == 1
        assert "not a parent" in capsys.readouterr().err


class TestSynth:
    def test_builtin_profile_writes_n_lines(self, tmp_path):
        out = tmp_path / "cap.jsonl"
        assert main(["synth", "--profile", "baseline", "--n", "40", "--seed", "5",
                     "--out", str(out)]) == 0
        assert out.read_bytes().count(b"\n") == 40

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["synth", "--profile", "dos_only", "--n", "100",
                         "--seed", "11", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_profile_document(self, tmp_path, topo_file):
        doc = {"scenario": "baseline", "weights": {"dev-01": 1.0}, "n_messages": 7}
        prof = tmp_path / "profile.json"
        prof.write_text(json.dumps(doc))
        out = tmp_path / "cap.jsonl"
        assert main(["synth", "--profile", str(prof), "--topo", str(topo_file),
                     "--out", str(out)]) == 0
        assert out.read_bytes().count(b"\n") == 7

    def test_profile_document_overrides(self, tmp_path, topo_file):
        doc = {"scenario": "baseline", "weights": {"dev-01": 1.0}, "n_messages": 7}
        prof = tmp_path / "profile.json"
        prof.write_text(json.dumps(doc))
        out = tmp_path / "cap.jsonl"
        assert main(["synth", "--profile", str(prof), "--topo", str(topo_file),
                     "--n", "3", "--seed", "9", "--out", str(out)]) == 0
        assert out.read_bytes().count(b"\n") == 3

    @pytest.mark.parametrize("flag, message", [
        (["--n", "-1"], "n_messages must be >= 0"),
        (["--noise-fraction", "1.5"], "noise_fraction must be in [0, 1)"),
    ])
    def test_profile_document_overrides_validated(self, tmp_path, topo_file, capsys, flag,
                                                  message):
        doc = {"scenario": "baseline", "weights": {"dev-01": 1.0}, "n_messages": 7}
        prof = tmp_path / "profile.json"
        prof.write_text(json.dumps(doc))
        out = tmp_path / "cap.jsonl"
        assert main(["synth", "--profile", str(prof), "--topo", str(topo_file),
                     "--out", str(out), *flag]) == 1
        assert capsys.readouterr().err == f"cyberdep synth: error: {message}\n"
        assert not out.exists()

    def test_addressless_scada_master_exits_1(self, tmp_path, capsys):
        topo = tmp_path / "t.json"
        topo.write_text(json.dumps({"devices": [
            {"name": "scada", "role": "scada", "addrs": []},
            {"name": "load-5", "role": "field", "addrs": ["10.0.1.20"]},
        ]}))
        assert main(["synth", "--profile", "baseline", "--topo", str(topo), "--n", "5"]) == 1
        assert capsys.readouterr().err == (
            "cyberdep synth: error: the SCADA master 'scada' has no address\n"
        )

    def test_topology_without_field_devices_exits_1(self, tmp_path, capsys):
        topo = tmp_path / "t.json"
        topo.write_text(json.dumps({"devices": [
            {"name": "scada", "role": "scada", "addrs": ["10.0.0.1"]},
        ]}))
        assert main(["synth", "--profile", "baseline", "--topo", str(topo), "--n", "5"]) == 1
        assert capsys.readouterr().err == (
            "cyberdep synth: error: topology has no field devices to weight\n"
        )

    def test_device_at_the_noise_source_address_exits_1(self, tmp_path, capsys):
        topo = tmp_path / "t.json"
        topo.write_text(json.dumps({"devices": [
            {"name": "scada", "role": "scada", "addrs": ["10.0.0.1"]},
            {"name": "dev", "role": "field", "addrs": ["203.0.113.66"]},
        ]}))
        out = tmp_path / "c.jsonl"
        assert main(["synth", "--profile", "baseline", "--n", "100", "--noise-fraction", "0.1",
                     "--topo", str(topo), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "cyberdep synth: error: device 'dev' has the noise source address 203.0.113.66\n"
        )
        assert not out.exists()

    def test_unknown_profile_exits_1(self, capsys):
        assert main(["synth", "--profile", "nonesuch"]) == 1
        assert "neither a built-in" in capsys.readouterr().err

    def test_noise_fraction(self, tmp_path):
        out = tmp_path / "cap.jsonl"
        assert main(["synth", "--profile", "baseline", "--n", "100",
                     "--noise-fraction", "0.1", "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines()
        assert len(lines) == 110
        assert sum(1 for l in lines if b'"proto":"tcp"' in l) == 10

    def test_noise_fraction_overrides_profile_document(self, tmp_path, topo_file):
        doc = {"scenario": "baseline", "weights": {"dev-01": 1.0}, "n_messages": 20,
               "noise_fraction": 0.5}
        prof = tmp_path / "profile.json"
        prof.write_text(json.dumps(doc))
        for flag, n_noise in (([], 10), (["--noise-fraction", "0.1"], 2)):
            out = tmp_path / "cap.jsonl"
            assert main(["synth", "--profile", str(prof), "--topo", str(topo_file),
                         "--out", str(out), *flag]) == 0
            lines = out.read_bytes().splitlines()
            assert sum(1 for l in lines if b'"proto":"tcp"' in l) == n_noise
            assert len(lines) == 20 + n_noise


class TestCompare:
    def make_manifest(self, tmp_path, entries):
        for name, seed, profile in entries:
            out = tmp_path / name
            assert main(["synth", "--profile", profile, "--n", "3000",
                         "--seed", str(seed), "--out", str(out)]) == 0
        manifest = [
            {"scenario": profile, "run_id": seed, "capture": name}
            for name, seed, profile in entries
        ]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_json_report(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path, [
            ("b1.jsonl", 1, "baseline"),
            ("b2.jsonl", 2, "baseline"),
            ("d1.jsonl", 1, "dos_only"),
        ])
        out = tmp_path / "report.json"
        assert main(["compare", "--in", str(manifest), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["reference"] == {"scenario": "baseline", "run_id": 1}
        assert doc["flags"]["baseline_uniform"] is True
        assert doc["flags"]["dos_top2"] is True
        assert doc["flags"]["mitigation_pattern"] is None
        assert len(doc["deltas"]) == 2

    def test_text_report(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path, [
            ("b1.jsonl", 1, "baseline"),
            ("m1.jsonl", 1, "with_mitigation"),
        ])
        assert main(["compare", "--in", str(manifest), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("reference: baseline run 1")
        assert "with_mitigation run 1" in text
        assert "flags:" in text

    def test_uniformity_tol_flag(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path, [("b1.jsonl", 1, "baseline")])
        assert main(["compare", "--in", str(manifest), "--uniformity-tol", "0.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flags"]["baseline_uniform"] is False  # sampled, never exact

    @pytest.mark.parametrize("tol, message", [
        ("nan", "must be finite and >= 0, got 'nan'"),
        ("inf", "must be finite and >= 0, got 'inf'"),
        ("-0.01", "must be finite and >= 0, got '-0.01'"),
        ("tight", "invalid float value: 'tight'"),
    ])
    def test_uniformity_tol_rejects_bad_values(self, tmp_path, capsys, tol, message):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--in", str(tmp_path / "m.json"), "--uniformity-tol", tol])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --uniformity-tol: {message}\n")

    def test_empty_manifest_exits_1(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        assert main(["compare", "--in", str(path)]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_duplicate_run_exits_1(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path, [("b1.jsonl", 1, "baseline")])
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(doc + doc))
        assert main(["compare", "--in", str(manifest)]) == 1
        assert "duplicate run" in capsys.readouterr().err

    @pytest.mark.parametrize("run_id, message", [
        ("1", "run_id must be an integer, got '1'"),
        (True, "run_id must be an integer, got True"),
        (None, "run_id must be an integer, got None"),
        (0, "run_id must be positive, got 0"),
    ])
    def test_bad_run_id_is_the_records_error(self, tmp_path, capsys, run_id, message):
        with pytest.raises(ValidationError) as direct:
            ScenarioRun(ScenarioKind.BASELINE, run_id, "b1.jsonl", DependencyGraph((), ()))
        assert str(direct.value) == message
        manifest = self.make_manifest(tmp_path, [("b1.jsonl", 1, "baseline")])
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(doc + [{**doc[0], "run_id": run_id}]))
        capsys.readouterr()
        assert main(["compare", "--in", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"cyberdep compare: error: manifest[1]: {message}\n")

    @pytest.mark.parametrize("second, message", [
        ({"run_id": "2"}, "manifest[1]: run_id must be an integer, got '2'"),
        ({}, "duplicate run: baseline run 1"),
        ({"run_id": 2, "capture": "gone.jsonl"}, "input file not found: {dir}/gone.jsonl"),
    ], ids=["run_id", "duplicate", "missing-capture"])
    def test_bad_second_entry_refused_before_any_build(self, tmp_path, capsys, second, message):
        manifest = self.make_manifest(tmp_path, [("b1.jsonl", 1, "baseline")])
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(doc + [{**doc[0], **second}]))
        capsys.readouterr()
        assert main(["compare", "--in", str(manifest)]) == 1
        message = message.format(dir=tmp_path)
        assert capsys.readouterr().err == f"cyberdep compare: error: {message}\n"  # no build line

    @pytest.mark.parametrize("entry, message", [
        ({"scenario": "baseline", "run_id": 1, "capture": 5},
         "manifest[0]: 'capture' must be a path string"),
        ({"scenario": "baseline", "run_id": 1, "capture": ["b1.jsonl"]},
         "manifest[0]: 'capture' must be a path string"),
        ({"scenario": "baseline", "run_id": 1}, "manifest[0]: 'capture' must be a path string"),
        ("b1.jsonl", "manifest[0] is not an object"),
    ], ids=["int", "list", "missing", "not-an-object"])
    def test_bad_entry_exits_1(self, tmp_path, capsys, entry, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([entry]))
        assert main(["compare", "--in", str(path)]) == 1
        assert capsys.readouterr().err == f"cyberdep compare: error: {message}\n"

    def test_unknown_scenario_exits_1(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"scenario": "zombie", "run_id": 1, "capture": "x"}]))
        assert main(["compare", "--in", str(path)]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    # sha256 of compare's stdout and stderr on the four scenario captures CI makes
    # (synth --n 8000 --seed 1), taken while compare still read graph options.
    FOUR_SCENARIO_SHA256 = {
        (): ("84d5e24c3501f4df45bb76337d102fd2234237884711e4784e5fa467ae269de3",
             "2c2294515f5152915e3d4d929496798723718a53762795299394d1ced826a2b1"),
        ("--format", "text", "-v"): (
            "8278b945adbf6158c9b5dc2c2f116b55ff2b69b9bd6707fdf9d4b1bedfc6b31a",
            "2c2294515f5152915e3d4d929496798723718a53762795299394d1ced826a2b1"),
    }

    def test_four_scenario_bytes_pinned(self, tmp_path, monkeypatch, capsysbinary):
        monkeypatch.chdir(tmp_path)  # stderr names each capture as the manifest does
        kinds = [kind.value for kind in ScenarioKind]
        for kind in kinds:
            assert main(["synth", "--profile", kind, "--n", "8000", "--seed", "1",
                         "--out", f"{kind}.jsonl"]) == 0
        Path("manifest.json").write_text(json.dumps(
            [{"scenario": kind, "run_id": 1, "capture": f"{kind}.jsonl"} for kind in kinds]))
        capsysbinary.readouterr()
        for argv, digests in self.FOUR_SCENARIO_SHA256.items():
            assert main(["compare", "--in", "manifest.json", *argv]) == 0
            out, err = capsysbinary.readouterr()
            assert (hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest()) == digests

    def test_capture_paths_relative_to_manifest(self, tmp_path):
        sub = tmp_path / "runs"
        sub.mkdir()
        assert main(["synth", "--profile", "baseline", "--n", "500", "--seed", "1",
                     "--out", str(sub / "b1.jsonl")]) == 0
        manifest = sub / "manifest.json"
        manifest.write_text(json.dumps(
            [{"scenario": "baseline", "run_id": 1, "capture": "b1.jsonl"}]
        ))
        # invoked from elsewhere, the capture must still resolve
        assert main(["compare", "--in", str(manifest), "--out",
                     str(tmp_path / "r.json")]) == 0


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--in", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_format_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--in", "x", "--format", "png"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--target", "F4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["export", "--in", "g.json", "--format", "dot"],
        ["query", "--in", "g.json", "--target", "F4"],
        ["synth", "--profile", "baseline"],
    ])
    def test_verbose_only_where_read(self, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "-v"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--normalization", "per-sink"], ["--no-scada-collapse"]],
                             ids=["normalization", "no-scada-collapse"])
    def test_compare_takes_no_graph_options(self, capsys, flags):
        """compare builds every run collapsed and globally normalized, as its flags assume."""
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--in", "manifest.json", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


class TestStartup:
    def test_help_profile_names_are_synths(self):
        from cyberdep import cli, synth
        assert cli._BUILTIN_PROFILES == synth.BUILTIN_PROFILES

    def test_graph_commands_load_neither_scenario_nor_synth(self, capture_file, topo_file,
                                                             tmp_path):
        graph = str(tmp_path / "g.json")
        commands = [
            ["build", "--in", str(capture_file), "--topo", str(topo_file), "--out", graph],
            ["export", "--in", graph, "--format", "dot", "--out", str(tmp_path / "g.dot")],
            ["query", "--in", graph, "--target", "scada", "--active", "dev-01"],
        ]
        script = (
            "import sys\n"
            "from cyberdep.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted({'cyberdep.scenario', 'cyberdep.synth'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cyberdep.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"
