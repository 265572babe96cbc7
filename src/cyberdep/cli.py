"""Command-line pipeline: build, export, query, synth, compare.

Exit codes: 0 success, 1 I/O or validation failure, 2 usage error.
Diagnostics go to stderr; artifacts go to files or stdout, never mixed.
The parsed argparse namespace is the run configuration.
"""

import argparse
import itertools
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable

from . import depgraph, graphio, ingest, topology
from .errors import CyberDepError, FormatError, ValidationError

_FORMAT_SUFFIXES = {".json": "json", ".dot": "dot", ".gv": "dot", ".graphml": "graphml"}
# synth.BUILTIN_PROFILES for the help text; synth and scenario load only for their commands.
_BUILTIN_PROFILES = ("baseline", "dos_only", "no_mitigation", "with_mitigation", "dos_run3_variant")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _existing_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.exists() or path.is_dir():  # a pipe or FIFO is read like a file
        raise FormatError(f"{what} file not found: {path}")
    return path


def _load_topology(args) -> topology.Topology:
    if args.topo is None:
        return topology.default_topology()
    return topology.load_topology(_existing_file(args.topo, "topology").read_bytes())


def _write_output(path_str: str | None, chunks: Iterable[bytes]) -> None:
    chunks = iter(chunks)
    head = next(chunks, b"")  # a source that fails here leaves an existing file untouched
    with nullcontext(sys.stdout.buffer) if path_str is None else open(path_str, "wb") as out:
        for chunk in itertools.chain((head,), chunks):
            view = memoryview(chunk)  # a raw FileIO (python -u) may take part of it per call
            while view:
                view = view[out.write(view):]
        out.flush()


def _tolerance(text: str) -> float:
    from . import scenario
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not scenario.is_tolerance(value):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _build_from_capture(capture_path: str, topo: topology.Topology, verbose: bool, **choices):
    with _existing_file(capture_path, "input").open("rb") as lines:
        result = depgraph.build_graph(lines, topo, **choices)

    retained = result.stats.parsed - result.stats.filtered_out
    _diag(
        f"{capture_path}: parsed {result.stats.parsed}/{result.stats.total} lines "
        f"({result.stats.rejected} rejected); dnp3 retained {retained} "
        f"(filtered out {result.stats.filtered_out})"
    )
    _diag(
        f"{capture_path}: mapped {retained - result.unmapped.records} records "
        f"({result.unmapped.records} unmapped); non-scada flow dropped: {result.scada_dropped}"
    )
    if verbose:
        for reject in result.rejections:
            _diag(f"  rejected line {reject.line_no}: {reject.reason}")
        hidden = result.stats.rejected - len(result.rejections)
        if hidden > 0:
            _diag(f"  ... {hidden} more rejected lines not shown")
        for addr, n in sorted(result.unmapped.by_addr.items()):
            _diag(f"  unmapped address {addr}: {n} records")
    return result.graph


def cmd_build(args) -> int:
    topo = _load_topology(args)
    graph = _build_from_capture(args.input, topo, args.verbose,
                                scada_collapse=not args.no_scada_collapse,
                                normalization=depgraph.Normalization(args.normalization))
    fmt = args.format or _FORMAT_SUFFIXES.get(Path(args.out or "").suffix.lower(), "json")
    _write_output(args.out, graphio.render_chunks(graph, fmt))
    _diag(
        f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
        f"grand_total {graph.grand_total} ({fmt} -> {args.out or 'stdout'})"
    )
    return 0


def cmd_export(args) -> int:
    graph = graphio.load_graph_json(_existing_file(args.input, "input").read_bytes())
    _write_output(args.out, graphio.render_chunks(graph, args.format))
    return 0


def cmd_query(args) -> int:
    graph = graphio.load_graph_json(_existing_file(args.input, "input").read_bytes())
    active = filter(None, args.active.split(","))
    q = depgraph.ConditionalQuery(args.target, dict.fromkeys(active, True))
    result = depgraph.query(graph, q)
    print(f"{result:.6g}")
    return 0


def cmd_synth(args) -> int:
    from . import synth
    topo = _load_topology(args)
    overrides = {"n_messages": args.n, "seed": args.seed, "noise_fraction": args.noise_fraction}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.profile in synth.BUILTIN_PROFILES:
        profile = synth.builtin_profile(args.profile, topo, **overrides)
    else:
        path = Path(args.profile)
        if not path.exists() or path.is_dir():
            raise FormatError(
                f"profile {args.profile!r} is neither a built-in "
                f"({', '.join(_BUILTIN_PROFILES)}) nor a file"
            )
        profile = synth.load_profile(path.read_bytes()).replace(**overrides)
    payload = synth.generate(profile, topo)
    _write_output(args.out, (payload,))
    _diag(
        f"synth {profile.scenario.value}: {profile.n_messages} dnp3 messages, "
        f"seed {profile.seed} -> {args.out or 'stdout'}"
    )
    return 0


def cmd_compare(args) -> int:
    from . import scenario
    topo = _load_topology(args)
    manifest_path = _existing_file(args.input, "input")
    entries = ingest.read_json(manifest_path.read_bytes(), "manifest")
    if not isinstance(entries, list) or not entries:
        raise FormatError("manifest must be a non-empty json list")

    runs, no_graph = [], depgraph.DependencyGraph((), ())
    for i, entry in enumerate(entries):  # judge every entry before building any capture
        if not isinstance(entry, dict):
            raise FormatError(f"manifest[{i}] is not an object")
        try:
            kind = scenario.ScenarioKind(entry.get("scenario"))
        except ValueError:
            raise FormatError(f"manifest[{i}]: unknown scenario {entry.get('scenario')!r}")
        capture = entry.get("capture")
        if not isinstance(capture, str):
            raise FormatError(f"manifest[{i}]: 'capture' must be a path string")
        _existing_file(manifest_path.parent / capture, "input")
        try:
            runs.append(scenario.ScenarioRun(kind, entry.get("run_id"), capture, no_graph))
        except ValidationError as exc:  # the record's text does not say which entry
            raise ValidationError(f"manifest[{i}]: {exc}")
    scenario.compare(runs, topology=topo)  # refuses a duplicate run
    runs = [run.replace(graph=_build_from_capture(manifest_path.parent / run.capture_ref, topo,
                                                  args.verbose))
            for run in runs]

    tol = scenario.DEFAULT_UNIFORMITY_TOL if args.uniformity_tol is None else args.uniformity_tol
    report = scenario.compare(runs, uniformity_tol=tol, topology=topo)
    if args.verbose:
        for flag, devices in report.unchecked.items():
            _diag(f"  {flag}: n/a, topology lacks {', '.join(devices)}")
    if args.format == "text":
        text = report.to_text()
    else:
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    _write_output(args.out, (text.encode("utf-8"),))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyberdep",
        description="Dependency graphs and noisy-OR queries over DNP3 traffic logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, verbose=True):
        if verbose:
            p.add_argument("-v", "--verbose", action="store_true", help="verbose diagnostics")
        p.add_argument(
            "--topo",
            help="topology JSON path (default: bundled wscc9 fixture)",
        )

    p_build = sub.add_parser("build", help="build a dependency graph from a packet log")
    p_build.add_argument("--in", dest="input", required=True, help="JSON Lines capture path")
    p_build.add_argument("--out", help="output path ('-' or absent: stdout)")
    p_build.add_argument(
        "--format",
        choices=graphio.FORMATS,
        help="output format (default: inferred from --out suffix, else json)",
    )
    p_build.add_argument(
        "--normalization",
        choices=["global", "per-sink"],
        default="global",
        help="edge probability normalization scheme",
    )
    p_build.add_argument(
        "--no-scada-collapse",
        action="store_true",
        help="keep raw directed device pairs instead of collapsing onto the SCADA master",
    )
    common(p_build)

    p_export = sub.add_parser("export", help="re-emit a graph JSON file in another format")
    p_export.add_argument("--in", dest="input", required=True, help="graph JSON path")
    p_export.add_argument("--format", choices=graphio.FORMATS, required=True)
    p_export.add_argument("--out", help="output path ('-' or absent: stdout)")

    p_query = sub.add_parser("query", help="noisy-OR conditional probability of a node")
    p_query.add_argument("--in", dest="input", required=True, help="graph JSON path")
    p_query.add_argument("--target", required=True, help="target node name")
    p_query.add_argument(
        "--active", default="", help="comma-separated active parent node names"
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic capture")
    p_synth.add_argument(
        "--profile",
        required=True,
        help=f"built-in profile ({', '.join(_BUILTIN_PROFILES)}) or profile JSON path",
    )
    p_synth.add_argument("--out", help="output path ('-' or absent: stdout)")
    p_synth.add_argument("--seed", type=int, help="RNG seed override")
    p_synth.add_argument("--n", type=int, help="DNP3 message count override")
    p_synth.add_argument(
        "--noise-fraction",
        type=float,
        help="fraction of extra non-DNP3 noise records",
    )
    common(p_synth, verbose=False)

    p_compare = sub.add_parser("compare", help="compare graphs across scenario runs")
    p_compare.add_argument(
        "--in",
        dest="input",
        required=True,
        help='run manifest: json list of {"scenario", "run_id", "capture"}',
    )
    p_compare.add_argument("--out", help="report path ('-' or absent: stdout)")
    p_compare.add_argument("--format", choices=["json", "text"], default="json")
    p_compare.add_argument(
        "--uniformity-tol",
        type=_tolerance,
        help="tolerance for the baseline uniformity flag",
    )
    common(p_compare)

    return parser


_COMMANDS = {
    "build": cmd_build,
    "export": cmd_export,
    "query": cmd_query,
    "synth": cmd_synth,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None) == "-":  # '-' and no --out both mean stdout
        args.out = None
    try:
        return _COMMANDS[args.command](args)
    except CyberDepError as exc:
        _diag(f"cyberdep {args.command}: error: {exc}")
        return 1
    except OSError as exc:
        _diag(f"cyberdep {args.command}: i/o error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
