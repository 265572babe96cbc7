"""Output checks against the benchmark's own tallies.

Every check returns a list of problems; an empty list means the output is
correct. None of them imports cyberdep.
"""

import json
import math
import xml.etree.ElementTree as ET

from gen import FUNCTIONS, Tally

SCENARIOS = ("baseline", "dos_only", "no_mitigation", "with_mitigation")
UNIFORMITY_TOL = 0.02  # the default of `cyberdep compare --uniformity-tol`
_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"


def noisy_or_all_active(probs) -> float:
    """1 - prod(1 - p), computed without cancellation at small p."""
    if any(p >= 1.0 for p in probs):
        return 1.0
    return -math.expm1(math.fsum(math.log1p(-p) for p in probs))


def query_plan(tally: Tally) -> dict:
    """Node name -> (its parents, noisy-OR probability with every parent active)."""
    probs = tally.probabilities()
    parents: dict = {name: [] for name in tally.nodes()}
    for (src, dst) in sorted(probs):
        parents[dst].append(src)
    return {name: (srcs, noisy_or_all_active([probs[(s, name)] for s in srcs]))
            for name, srcs in parents.items()}


def check_graph_json(data: bytes, tally: Tally) -> list:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"graph json does not parse: {exc}"]
    problems = []
    nodes = {n.get("name"): n.get("role") for n in doc.get("nodes", [])}
    if nodes != tally.nodes():
        problems.append(f"graph nodes differ: {len(nodes)} found, {len(tally.nodes())} expected")
    if doc.get("normalization") != "global":
        problems.append(f"normalization {doc.get('normalization')!r}, expected 'global'")
    if doc.get("grand_total") != tally.grand_total:
        problems.append(f"grand_total {doc.get('grand_total')} != {tally.grand_total}")
    probs = tally.probabilities()
    edges = doc.get("edges", [])
    if len(edges) != len(probs):
        problems.append(f"{len(edges)} edges, expected {len(probs)}")
    for e in edges:
        key = (e.get("source"), e.get("sink"))
        if key not in probs:
            problems.append(f"unexpected edge {key}")
            continue
        by_type = {fn: tally.edges[key].get(fn, 0) for fn in FUNCTIONS}
        if e.get("by_type") != by_type or e.get("count") != sum(by_type.values()):
            problems.append(f"edge {key}: counts {e.get('count')} {e.get('by_type')}, "
                            f"expected {by_type}")
        if e.get("probability") != probs[key]:
            problems.append(f"edge {key}: probability {e.get('probability')!r} != "
                            f"{probs[key]!r}")
    return problems[:10]


def check_graphml(data: bytes, tally: Tally) -> list:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"graphml does not parse: {exc}"]
    graph = root.find(f"{_GRAPHML_NS}graph")
    if graph is None:
        return ["graphml has no graph element"]
    nodes = {n.get("id") for n in graph.findall(f"{_GRAPHML_NS}node")}
    edges = {(e.get("source"), e.get("target")) for e in graph.findall(f"{_GRAPHML_NS}edge")}
    problems = []
    if nodes != set(tally.nodes()):
        problems.append(f"graphml has {len(nodes)} nodes, expected {len(tally.nodes())}")
    if edges != set(tally.edges):
        problems.append(f"graphml has {len(edges)} edges, expected {len(tally.edges)}")
    return problems


def check_dot(data: bytes, tally: Tally) -> list:
    lines = data.decode("utf-8", "replace").splitlines()
    problems = []
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        problems.append("dot output is not one digraph block")
    edge_lines = sum(1 for line in lines if " -> " in line)
    if edge_lines != len(tally.edges):
        problems.append(f"dot has {edge_lines} edge lines, expected {len(tally.edges)}")
    return problems


def check_query_output(data: bytes, expected: float) -> list:
    try:
        value = float(data.strip())
    except ValueError:
        return [f"query printed {data[:80]!r}"]
    # The CLI prints six significant digits.
    if not math.isclose(value, expected, rel_tol=1e-5, abs_tol=0.0):
        return [f"query printed {value!r}, expected {expected!r}"]
    return []


def check_synth(tally: Tally, n_messages: int, n_noise: int) -> list:
    problems = []
    if tally.rejected or tally.unmapped or tally.non_scada_dropped:
        problems.append(f"synth output: {tally.rejected} malformed, {tally.unmapped} "
                        f"unmapped, {tally.non_scada_dropped} non-scada lines")
    if tally.grand_total != n_messages or tally.filtered_out != n_noise:
        problems.append(f"synth output: {tally.grand_total} dnp3 and {tally.filtered_out} "
                        f"noise lines, expected {n_messages} and {n_noise}")
    return problems


def ranking(tally: Tally) -> list:
    probs = tally.probabilities()
    return sorted(((src, dst, p) for (src, dst), p in probs.items()),
                  key=lambda e: (-e[2], e[0], e[1]))


def expected_flags(runs) -> dict:
    """Signature flags over [(scenario, tally)], by the rules of `cyberdep compare`."""
    loads = {("load-5", "scada"), ("load-6", "scada")}
    gen1 = ("gen-1", "scada")

    def top(tally, n):
        return {(s, d) for s, d, _ in ranking(tally)[:n]}

    def uniform(tally):
        probs = list(tally.probabilities().values())
        if not probs:
            return True
        mean = sum(probs) / len(probs)
        return max(abs(p - mean) for p in probs) <= UNIFORMITY_TOL

    def mitigation(tally):
        ranked = ranking(tally)
        return len(ranked) >= 3 and top(tally, 2) == loads and ranked[2][:2] == gen1

    rules = {
        "baseline_uniform": ("baseline", uniform),
        "dos_top2": ("dos_only", lambda t: top(t, 2) == loads),
        "no_mitigation_top2": ("no_mitigation",
                               lambda t: top(t, 2) == {gen1, ("load-5", "scada")}),
        "mitigation_pattern": ("with_mitigation", mitigation),
    }
    flags = {}
    for flag, (kind, rule) in rules.items():
        results = [rule(tally) for scenario, tally in runs if scenario == kind]
        flags[flag] = all(results) if results else None
    return flags


def check_compare(data: bytes, manifest: list, tallies: dict, require_all_flags: bool) -> list:
    """Check a `compare --format json` report.

    ``manifest`` is the list of run entries given to compare and ``tallies``
    maps each entry's capture name to its tally.
    """
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"compare report does not parse: {exc}"]
    entries = sorted(manifest, key=lambda m: (SCENARIOS.index(m["scenario"]), m["run_id"]))
    runs = doc.get("runs", [])
    problems = []
    if [(r.get("scenario"), r.get("run_id")) for r in runs] != [
            (m["scenario"], m["run_id"]) for m in entries]:
        return ["compare report lists other runs than the manifest"]
    for run, entry in zip(runs, entries):
        expected = [{"source": s, "sink": d, "probability": p}
                    for s, d, p in ranking(tallies[entry["capture"]])]
        if run.get("ranking") != expected:
            problems.append(f"{entry['scenario']} run {entry['run_id']}: ranking differs")
    flags = expected_flags([(m["scenario"], tallies[m["capture"]]) for m in entries])
    if doc.get("flags") != flags:
        problems.append(f"flags {doc.get('flags')}, expected {flags}")
    if require_all_flags and not all(flags.values()):
        problems.append(f"signature flags not all true: {flags}")
    return problems
