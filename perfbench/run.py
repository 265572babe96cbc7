"""Benchmark for cyberdep: end-to-end CLI metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload wscc9_dos_capture --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` drives the ``cyberdep`` CLI built from ``src/``, one child
process at a time in a closed loop, and reports the end-to-end metrics of
BENCHMARK.json. Their timings are in refs (see refclock.py): each command's
wall time divided by the mean time of a fixed reference loop run between
the commands around it, so that the host's slow spells, which slow both
alike, cancel. ``setup_s`` is also measured in refs, and stated in seconds
at the host's full speed (``SECONDS_PER_REF``). The wall times are kept in
the record, under ``wall.``.
``--trace 1`` instead calls the library functions of each
module in-process, in the order the CLI calls them, records a span around
each call and reports the per-layer metrics; peak memory comes from a second
pass under tracemalloc so that it does not distort the timings. Every output
is checked against the tallies of the benchmark's own input generator, and a
failed check counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(samples and their spread, artifact hashes, environment, spans) is written to
``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import workloads
from gen import Tally, tally_clean_capture
from refclock import SECONDS_PER_REF, RefClock
from tracing import END, START, UNITS, LayerStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PER_CYCLE = 2  # empty builds per cycle; their median is setup_s
MIN_CYCLES = 2  # the second cycle checks that every artifact repeats byte for byte
QUERY_LOOP_S = 0.25  # length of one in-process queries_per_s sample
# A sample of an end-to-end timing repeats its commands until they add up to
# this: one `cyberdep query` or `export` alone is mostly interpreter start-up
# and too short to time steadily.
MIN_SAMPLE_S = 0.5
MIN_QUERY_SAMPLES = 1000  # so that at least ten samples lie beyond p99


class Spawner:
    """The small helper process that starts every measured command (spawner.py)."""

    def __init__(self):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawner.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                                     text=True)

    def run(self, argv: list, cwd: Path, stdout: str, stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _spread(values) -> dict:
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


class Bench:
    """One workload's inputs, the operations on them and what they measured."""

    def __init__(self, plan, work: Path, spawner: Spawner):
        import cyberdep.depgraph
        import cyberdep.graphio
        import cyberdep.ingest
        import cyberdep.scenario
        import cyberdep.synth
        import cyberdep.topology
        self.cd = cyberdep
        self.plan = plan
        self.work = work
        self.spawner = spawner
        self.samples: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.shas: dict = {}
        self._synth_tallies: dict = {}  # sha256 -> Tally
        self.cycles = 0
        self.clock = RefClock()
        self._timed: list = []  # (metric base name, [(start, wall s)], amount or None)
        # traced builds of the main capture: (span index, build, topology load, counts)
        self.main_builds: list = []
        (work / "manifest.json").write_text(json.dumps(plan.manifest, indent=1))

    # -- bookkeeping ------------------------------------------------------

    def verify(self, op: str, problems: list, attempted: int = 1, failed: int | None = None):
        self.attempted += attempted
        if problems:
            self.failed += 1 if failed is None else failed
            self.problems.extend(f"{op}: {p}" for p in problems[:5])

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def timed(self, name: str, spans: list, amount: float | None = None, runs: int = 1):
        """Sample the wall time per run of ``spans`` as wall.NAME_s, or ``amount``
        per second as wall.NAME_per_s; ``sample_refs`` adds the same in refs."""
        wall = sum(w for _, w in spans) / runs
        if amount is None:
            self.sample(f"wall.{name}_s", wall)
        else:
            self.sample(f"wall.{name}_per_s", amount / wall)
        self._timed.append((name, spans, amount, runs))

    def repeated(self, name: str, run_once, amount: float | None = None) -> None:
        """``timed`` for ``run_once``, which runs and checks commands and returns
        their spans: it is called until the runs add up to MIN_SAMPLE_S."""
        spans, runs = [], 0
        while runs == 0 or sum(w for _, w in spans) < MIN_SAMPLE_S:
            spans += run_once()
            runs += 1
        self.timed(name, spans, amount, runs)

    def sample_refs(self) -> None:
        """Sample in refs, as NAME_refs or NAME_per_ref, what ``timed`` sampled.

        It runs after the last operation, because an operation's refs depend on
        the probes taken after it too.
        """
        self.clock.probe()
        for name, spans, amount, runs in self._timed:
            refs = self.clock.refs(spans) / runs
            if amount is None:
                self.sample(f"{name}_refs", refs)
            else:
                self.sample(f"{name}_per_ref", amount / refs)
        self.samples["setup_s"] = [r * SECONDS_PER_REF for r in self.samples["setup_refs"]]

    def read(self, name: str) -> bytes:
        try:
            return (self.work / name).read_bytes()
        except FileNotFoundError:
            return b""

    def same_bytes(self, name: str, data: bytes) -> list:
        """Record the artifact's hash; every later copy must match the first."""
        sha = hashlib.sha256(data).hexdigest()
        first = self.shas.setdefault(name, sha)
        return [] if first == sha else [f"{name} differs from its first copy"]

    def synth_tally(self, job, data: bytes) -> Tally:
        sha = hashlib.sha256(data).hexdigest()
        if sha not in self._synth_tallies:
            self._synth_tallies[sha] = tally_clean_capture(data, self.plan.topo)
        tally = self._synth_tallies[sha]
        self.plan.tallies[job.out] = tally
        return tally

    def check_synth(self, job, data: bytes) -> list:
        return self.same_bytes(job.out, data) + checks.check_synth(
            self.synth_tally(job, data), job.n_messages, job.n_noise)

    # -- the CLI ----------------------------------------------------------

    def cli(self, args: list, stdout_name: str | None = None):
        """Run one cyberdep command; return ((start, wall s), peak RSS MB, problems)."""
        if "--out" in args:
            (self.work / args[args.index("--out") + 1]).unlink(missing_ok=True)
        self.clock.probe()
        start = perf_counter()
        reply = self.spawner.run([sys.executable, "-m", "cyberdep.cli", *args], self.work,
                                 self.work / stdout_name if stdout_name else os.devnull,
                                 self.work / "stderr.txt")
        problems = []
        if reply["code"] != 0:
            tail = self.read("stderr.txt")[-300:].decode("utf-8", "replace")
            problems.append(f"exit {reply['code']}: {tail.strip()}")
        return (start, reply["wall_s"]), reply["maxrss_kb"] / 1024, problems

    def setup(self, runs: int) -> None:
        """Time `cyberdep build` on an empty capture: the program's fixed cost."""
        for _ in range(runs):
            span, _, problems = self.cli(["build", "--in", "empty.jsonl", "--out",
                                          "empty-graph.json", *self.plan.topo_args])
            data = self.read("empty-graph.json")
            self.verify("setup build", problems + checks.check_graph_json(data, Tally()))
            self.timed("setup", [span])

    def synth(self, job) -> tuple:
        """Run one synth job through the CLI and check it; return its (start, wall s)."""
        span, _, problems = self.cli(job.cli_args(self.plan.topo_args))
        self.verify(f"synth {job.out}", problems + self.check_synth(job, self.read(job.out)))
        return span

    def warm_up(self) -> None:
        """Untimed: one empty build to warm caches, and every synth job once.

        The synth outputs are compare's inputs; each later cycle synthesizes
        them again and must reproduce them byte for byte.
        """
        (self.work / "empty.jsonl").write_bytes(b"")
        self.setup(1)
        for job in self.plan.synths:
            self.synth(job)
        self.samples.clear()
        self._timed.clear()

    def next_synth(self):
        """The synth job of a traced cycle: each in turn."""
        return self.plan.synths[self.cycles % len(self.plan.synths)]

    def e2e_cycle(self) -> None:
        plan = self.plan
        # Set-up samples are spread over the run like the others, so that a
        # slow spell of the machine does not land on all of them.
        self.setup(SETUP_PER_CYCLE)
        # A synth run covers every synth job, so that it does not depend on
        # which job ran.
        self.repeated("synth_lines", lambda: [self.synth(job) for job in plan.synths],
                      sum(job.n_messages + job.n_noise for job in plan.synths))

        tally = plan.tallies[plan.main_capture]

        def build():
            span, rss, problems = self.cli(["build", "--in", plan.main_capture,
                                            "--out", "graph.json", *plan.topo_args])
            graph = self.read("graph.json")
            self.verify("build", problems + self.same_bytes("graph.json", graph)
                        + checks.check_graph_json(graph, tally))
            self.sample("build_rss_mb", rss)
            return [span]
        self.repeated("build_lines", build, tally.lines_total)

        def export():
            spans = []
            for fmt, check in (("graphml", checks.check_graphml), ("dot", checks.check_dot)):
                name = f"graph.{fmt}"
                span, _, problems = self.cli(["export", "--in", "graph.json", "--format", fmt,
                                              "--out", name])
                data = self.read(name)
                self.verify(f"export {fmt}", problems + self.same_bytes(name, data)
                            + check(data, tally))
                spans.append(span)
            return spans
        self.repeated("export", export)

        queries = checks.query_plan(tally)
        parents, expected = queries[tally.scada]

        def query():
            span, _, problems = self.cli(["query", "--in", "graph.json", "--target", tally.scada,
                                          "--active", ",".join(parents)],
                                         stdout_name="query.txt")
            self.verify("query", problems + checks.check_query_output(self.read("query.txt"),
                                                                     expected))
            return [span]
        self.repeated("query", query)

        self.query_loop(self.read("graph.json"), queries)

        def compare():
            span, rss, problems = self.cli(["compare", "--in", "manifest.json",
                                            "--out", "compare.json", *plan.topo_args])
            data = self.read("compare.json")
            self.verify("compare", problems + self.same_bytes("compare.json", data)
                        + checks.check_compare(data, plan.manifest, plan.tallies,
                                               plan.require_all_flags))
            self.sample("compare_rss_mb", rss)
            return [span]
        self.repeated("compare", compare)

    def query_loop(self, graph_json: bytes, queries: dict) -> None:
        """Closed loop of query() over every node, all parents active."""
        depgraph = self.cd.depgraph
        try:
            graph = self.cd.graphio.load_graph_json(graph_json)
        except self.cd.errors.CyberDepError as exc:
            self.verify("query loop", [f"graph does not load: {exc}"])
            return
        batch = [(name, depgraph.ConditionalQuery(name, dict.fromkeys(parents, True)))
                 for name, (parents, _) in queries.items()]
        results = []
        self.clock.probe()
        start = perf_counter()
        while True:
            for _, q in batch:
                try:
                    results.append(depgraph.query(graph, q))
                except Exception as exc:  # a failed query is counted, not fatal
                    results.append(exc)
            elapsed = perf_counter() - start
            if elapsed >= QUERY_LOOP_S:
                break
        wrong = [(batch[i % len(batch)][0], r) for i, r in enumerate(results)
                 if isinstance(r, Exception)
                 or not math.isclose(r, queries[batch[i % len(batch)][0]][1], rel_tol=1e-9)]
        self.verify("query loop", [f"{name}: {r!r}" for name, r in wrong[:5]],
                    attempted=len(results), failed=len(wrong))
        self.timed("queries", [(start, elapsed)], len(results))

    # -- the traced run -----------------------------------------------------

    def load_topology(self):
        topology = self.cd.topology
        if self.plan.topo_file is None:
            return topology.default_topology()
        return topology.load_topology(self.read(self.plan.topo_file))

    def pipeline(self, tr: Tracer, topo, name: str):
        """parse -> filter -> map -> count -> collapse -> normalize, as the CLI does."""
        cd = self.cd
        with tr.span("io.read"):
            data = self.read(name)
        with tr.span("ingest.parse") as s:
            window = cd.ingest.parse_packet_log(data, source_label=name)
            s[UNITS] = window.stats.total
        with tr.span("ingest.filter") as s:
            filtered = cd.ingest.filter_dnp3(window)
            s[UNITS] = window.stats.parsed
        with tr.span("topology.map") as s:
            mapped, unmapped = cd.topology.map_window(topo, filtered)
            s[UNITS] = len(filtered.records)
        with tr.span("depgraph.count") as s:
            counts = cd.depgraph.count_flows(mapped, window.source_label)
            s[UNITS] = len(mapped)
        with tr.span("depgraph.collapse"):
            counts, dropped = cd.depgraph.collapse_to_scada(counts, topo)
        with tr.span("depgraph.normalize"):
            graph = cd.depgraph.edge_probabilities(counts, cd.depgraph.Normalization.GLOBAL,
                                                   topo.roles())
        stats = window.stats
        seen = {"total": stats.total, "parsed": stats.parsed, "rejected": stats.rejected,
                "filtered": filtered.stats.filtered_out, "retained": len(filtered.records),
                "unmapped": unmapped.records, "mapped": len(mapped), "dropped": dropped,
                "grand_total": graph.grand_total, "edges": len(graph.edges)}
        return graph, seen, self.accounting(seen, unmapped.by_addr, self.plan.tallies[name])

    @staticmethod
    def accounting(seen: dict, unmapped_by_addr: dict, tally: Tally) -> list:
        """The four accounting rules, and every count against the tally."""
        problems = [
            f"rule {rule} broken: {seen}"
            for rule, lhs, rhs in (
                ("total = parsed + rejected", "total", ("parsed", "rejected")),
                ("parsed = retained + filtered", "parsed", ("retained", "filtered")),
                ("retained = mapped + unmapped", "retained", ("mapped", "unmapped")),
                ("mapped = grand_total + dropped", "mapped", ("grand_total", "dropped")),
            )
            if seen[lhs] != sum(seen[k] for k in rhs)
        ]
        expected = {"total": tally.lines_total, "rejected": tally.rejected,
                    "filtered": tally.filtered_out, "unmapped": tally.unmapped,
                    "dropped": tally.non_scada_dropped, "grand_total": tally.grand_total,
                    "edges": len(tally.edges)}
        problems += [f"{k} = {seen[k]}, expected {v}" for k, v in expected.items()
                     if seen[k] != v]
        if unmapped_by_addr != tally.unmapped_by_addr:
            problems.append("unmapped addresses differ from the tally")
        return problems

    def traced_cycle(self, tr: Tracer) -> None:
        cd, plan = self.cd, self.plan
        job = self.next_synth()
        with tr.span("synth"):
            with tr.span("topology.load"):
                topo = self.load_topology()
            if job.builtin:
                profile = cd.synth.builtin_profile(
                    job.profile, topo, n_messages=job.n_messages, seed=job.seed,
                    noise_fraction=workloads.NOISE_FRACTION)
            else:
                profile = cd.synth.load_profile(self.read(job.profile))
            with tr.span("synth.generate") as s:
                data = cd.synth.generate(profile, topo)
                s[UNITS] = data.count(b"\n")
            with tr.span("io.write"):
                (self.work / job.out).write_bytes(data)
        self.verify(f"synth {job.out}", self.check_synth(job, data))

        tally = plan.tallies[plan.main_capture]
        index = len(tr.spans)
        with tr.span("build") as build:
            with tr.span("topology.load") as load:
                topo = self.load_topology()
            graph, seen, problems = self.pipeline(tr, topo, plan.main_capture)
            with tr.span("graphio.render_json"):
                payload = cd.graphio.render_graph(graph, "json")
            with tr.span("io.write"):
                (self.work / "graph.json").write_bytes(payload)
        self.main_builds.append((index, build, load, seen))
        self.verify("build", problems + self.same_bytes("graph.json", payload)
                    + checks.check_graph_json(payload, tally))

        for fmt, check in (("graphml", checks.check_graphml), ("dot", checks.check_dot)):
            with tr.span("export"):
                with tr.span("io.read"):
                    data = self.read("graph.json")
                with tr.span("graphio.load_json"):
                    loaded = cd.graphio.load_graph_json(data)
                with tr.span(f"graphio.render_{fmt}"):
                    out = cd.graphio.render_graph(loaded, fmt)
                with tr.span("io.write"):
                    (self.work / f"graph.{fmt}").write_bytes(out)
            self.verify(f"export {fmt}", self.same_bytes(f"graph.{fmt}", out) + check(out, tally))

        queries = checks.query_plan(tally)
        batch = [(name, cd.depgraph.ConditionalQuery(name, dict.fromkeys(parents, True)),
                  expected) for name, (parents, expected) in queries.items()]
        with tr.span("query"):
            with tr.span("io.read"):
                data = self.read("graph.json")
            with tr.span("graphio.load_json"):
                loaded = cd.graphio.load_graph_json(data)
            with tr.span("queries"):
                results = []
                while len(results) < MIN_QUERY_SAMPLES:
                    for name, q, expected in batch:
                        t0 = perf_counter_ns()
                        value = cd.depgraph.query(loaded, q)
                        tr.record("depgraph.query", t0, perf_counter_ns())
                        results.append((name, value, expected))
        wrong = [(n, v) for n, v, e in results if not math.isclose(v, e, rel_tol=1e-9)]
        self.verify("query loop", [f"{n}: {v!r}" for n, v in wrong[:5]],
                    attempted=len(results), failed=len(wrong))

        with tr.span("compare"):
            with tr.span("topology.load"):
                topo = self.load_topology()
            with tr.span("io.read"):
                manifest = json.loads(self.read("manifest.json"))
            runs, problems = [], []
            for entry in manifest:
                with tr.span("compare.build"):
                    graph, _, build_problems = self.pipeline(tr, topo, entry["capture"])
                problems += build_problems
                runs.append(cd.scenario.ScenarioRun(cd.scenario.ScenarioKind(entry["scenario"]),
                                                    entry["run_id"], entry["capture"], graph))
            with tr.span("scenario.compare"):
                report = cd.scenario.compare(runs)
                payload = (json.dumps(report.to_json_dict(), indent=2) + "\n").encode("utf-8")
            with tr.span("io.write"):
                (self.work / "compare.json").write_bytes(payload)
        self.verify("compare", problems + self.same_bytes("compare.json", payload)
                    + checks.check_compare(payload, plan.manifest, plan.tallies,
                                           plan.require_all_flags))

    def peak_memory(self) -> dict:
        """Peak MB that parse and map add, measured in a separate pass."""
        cd = self.cd
        topo = self.load_topology()
        data = self.read(self.plan.main_capture)
        peaks = {}
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            window = cd.ingest.parse_packet_log(data, source_label=self.plan.main_capture)
            peaks["ingest.parse_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            filtered = cd.ingest.filter_dnp3(window)
            del window
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cd.topology.map_window(topo, filtered)
            peaks["topology.map_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        return peaks

    def run_traced(self, seconds: float) -> tuple:
        start = perf_counter()
        self.warm_up()
        self.setup(5)
        setup_s = statistics.median(self.samples["wall.setup_s"])
        tr = Tracer()
        while True:
            t = perf_counter()
            self.traced_cycle(tr)
            self.cycles += 1
            cycle = perf_counter() - t
            build = self.main_builds[-1][1]
            build_s = (build[END] - build[START]) / 1e9
            # two untraced builds and the tracemalloc pass still follow
            if perf_counter() + cycle + 5 * build_s > start + seconds:
                break
        walls = []
        for _ in range(2):
            (_, wall), _, problems = self.cli(["build", "--in", self.plan.main_capture,
                                               "--out", "graph.json", *self.plan.topo_args])
            self.verify("untraced build", problems
                        + self.same_bytes("graph.json", self.read("graph.json")))
            walls.append(wall)
        self.samples["untraced_build_s"] = walls

        metrics = self.peak_memory()
        main = LayerStats(tr, parents={index for index, _, _, _ in self.main_builds})
        every = LayerStats(tr)
        seen = self.main_builds[-1][3]
        # the CLI's build wall time minus setup_s leaves out the topology load
        traced_build = statistics.median([(b[END] - b[START] - (t[END] - t[START])) / 1e9
                                for _, b, t, _ in self.main_builds])
        metrics.update({
            "ingest.parse_us_per_line": main.us_per_unit("ingest.parse"),
            "ingest.filter_us_per_rec": main.us_per_unit("ingest.filter"),
            "topology.map_us_per_rec": main.us_per_unit("topology.map"),
            "depgraph.count_us_per_rec": main.us_per_unit("depgraph.count"),
            "depgraph.collapse_ms": main.median_ms("depgraph.collapse"),
            "depgraph.normalize_ms": main.median_ms("depgraph.normalize"),
            "graphio.render_json_ms": main.median_ms("graphio.render_json"),
            "topology.load_ms": every.median_ms("topology.load"),
            "graphio.load_json_ms": every.median_ms("graphio.load_json"),
            "graphio.render_graphml_ms": every.median_ms("graphio.render_graphml"),
            "graphio.render_dot_ms": every.median_ms("graphio.render_dot"),
            "depgraph.query_p50_us": every.quantile_us("depgraph.query", 50),
            "depgraph.query_p99_us": every.quantile_us("depgraph.query", 99),
            "depgraph.query_samples": len(every.times["depgraph.query"]),
            "synth.generate_us_per_line": every.us_per_unit("synth.generate"),
            "scenario.compare_ms": every.median_ms("scenario.compare"),
            "ingest.lines_total": seen["total"],
            "ingest.lines_rejected": seen["rejected"],
            "ingest.filtered_out": seen["filtered"],
            "topology.unmapped_records": seen["unmapped"],
            "depgraph.collapse_dropped": seen["dropped"],
            "depgraph.edges": seen["edges"],
            "depgraph.useful_ratio": seen["grand_total"] / seen["total"],
            "trace.overhead_ratio": traced_build / (statistics.median(walls) - setup_s),
        })
        return metrics, tr

    def run_e2e(self, seconds: float) -> tuple:
        self.warm_up()
        deadline = perf_counter() + seconds
        while True:
            t = perf_counter()
            self.e2e_cycle()
            self.cycles += 1
            now = perf_counter()
            if self.cycles >= MIN_CYCLES and now + (now - t) > deadline:
                break
        self.sample_refs()
        return {name: statistics.median(v) for name, v in self.samples.items()}, None


# -- one run ------------------------------------------------------------------


def _environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 timeout=30)
            git_sha = out.stdout.decode().strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(), "git_sha": git_sha,
            "src_sha256": digest.hexdigest(), "platform": platform.platform(), "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 units: dict, spawner: Spawner, corrupt_tally: bool = False) -> dict:
    """Prepare, measure and check one workload; return its result record."""
    env = _environment(seed)
    work = STATE / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.prepare(name, seed, work, SRC / "cyberdep" / "data" /
                                 "wscc9.topology.json", smoke)
        if corrupt_tally:  # negative control: the checks must notice
            tally = plan.tallies[plan.main_capture]
            tally.rejected += 1
            by_type = next(iter(tally.edges.values()))
            by_type["read"] = by_type.get("read", 0) + 1
        bench = Bench(plan, work, spawner)
        inputs = {n: hashlib.sha256(bench.read(n)).hexdigest() for n in
                  sorted(p.name for p in work.iterdir())}
        run = bench.run_traced if trace else bench.run_e2e
        values, tracer = run(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{name}: no value for {', '.join(missing)}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "cycles": bench.cycles,
        "correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems[:50],
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
        "spread": {m: _spread(v) for m, v in bench.samples.items()},
        "samples": bench.samples,
        "inputs": inputs,
        "tallies": {n: t.summary() for n, t in sorted(plan.tallies.items())},
        "artifacts": dict(sorted(bench.shas.items())),
        "ref_probe_s": _spread(bench.clock.durations),
        "environment": env,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    return record


def _print_record(record: dict) -> None:
    print(f"{record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['cycles']} cycles")
    for name, metric in record["metrics"].items():
        spread = record["spread"].get(name, {})
        note = ""
        if spread.get("iqr_over_median") is not None:
            note = f"  (median of {spread['n']}, IQR {100 * spread['iqr_over_median']:.1f}%)"
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}{note}")
    for name, spread in record["spread"].items():
        if name.startswith("wall."):
            print(f"  {name:28s} {spread['median']:>16.6g} (wall clock, record only)")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':28s} {ratio:>16.6g} ({record['failed']} failed of "
          f"{record['attempted']} attempted)")
    for problem in record["problems"][:10]:
        print(f"  FAILED {problem}")


def _save(record: dict) -> Path:
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    kind = "smoke" if record["smoke"] else f"seed{record['seed']}"
    path = out / f"{record['workload']}-{kind}-trace{record['trace']}.json"
    path.write_text(json.dumps(record) + "\n")
    return path


def smoke(units_by_trace: dict, seed: int, spawner: Spawner) -> dict:
    """All workloads at tiny sizes in both modes, plus a negative control."""
    records = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed, 0, trace, True, units_by_trace[trace], spawner)
            _print_record(record)
            _save(record)
            records.append(record)
    control = run_workload("wscc9_dos_capture", seed, 0, False, True, units_by_trace[False],
                           spawner, corrupt_tally=True)
    caught = control["failed"] > 0
    print(f"negative control (corrupted tally): {control['failed']} of "
          f"{control['attempted']} operations failed -> "
          f"{'caught' if caught else 'NOT CAUGHT'}")
    return {"correct": caught and all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records), "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, plus a negative control")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "cyberdep" / "cli.py").is_file():
        print(f"perfbench: no cyberdep source at {SRC}", file=sys.stderr)
        return 2
    spawner = Spawner()  # started first, while this process is small
    try:
        result = _run(args, spawner)
    finally:
        spawner.close()
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


def _run(args, spawner: Spawner) -> dict:
    sys.path.insert(1, str(SRC))
    import cyberdep
    if SRC.resolve() not in Path(cyberdep.__file__).resolve().parents:
        raise RuntimeError(f"cyberdep imported from {cyberdep.__file__}, not {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units_by_trace = {trace: {m["name"]: m["unit"] for m in spec[key]}
                      for trace, key in ((False, "end_to_end"), (True, "per_layer"))}

    if args.smoke:
        return smoke(units_by_trace, args.seed, spawner)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), False,
                              units_by_trace[bool(args.trace)], spawner)
        _print_record(record)
        print(f"  record: {_save(record).relative_to(ROOT)}")
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
