"""``cyberdep --help`` and each subcommand's ``--help``, pinned byte for byte.

Moving an import or a default out of ``cli.build_parser`` must not change
what users read. The width is fixed with ``COLUMNS``, which argparse reads.
"""

import pytest

from cyberdep.cli import main

HELP = {
    "": """\
usage: cyberdep [-h] {build,export,query,synth,compare} ...

Dependency graphs and noisy-OR queries over DNP3 traffic logs.

positional arguments:
  {build,export,query,synth,compare}
    build               build a dependency graph from a packet log
    export              re-emit a graph JSON file in another format
    query               noisy-OR conditional probability of a node
    synth               generate a synthetic capture
    compare             compare graphs across scenario runs

options:
  -h, --help            show this help message and exit
""",
    "build": """\
usage: cyberdep build [-h] --in INPUT [--out OUT]
                      [--format {json,dot,graphml}]
                      [--normalization {global,per-sink}]
                      [--no-scada-collapse] [-v] [--topo TOPO]

options:
  -h, --help            show this help message and exit
  --in INPUT            JSON Lines capture path
  --out OUT             output path ('-' or absent: stdout)
  --format {json,dot,graphml}
                        output format (default: inferred from --out suffix,
                        else json)
  --normalization {global,per-sink}
                        edge probability normalization scheme
  --no-scada-collapse   keep raw directed device pairs instead of collapsing
                        onto the SCADA master
  -v, --verbose         verbose diagnostics
  --topo TOPO           topology JSON path (default: bundled wscc9 fixture)
""",
    "export": """\
usage: cyberdep export [-h] --in INPUT --format {json,dot,graphml} [--out OUT]

options:
  -h, --help            show this help message and exit
  --in INPUT            graph JSON path
  --format {json,dot,graphml}
  --out OUT             output path ('-' or absent: stdout)
""",
    "query": """\
usage: cyberdep query [-h] --in INPUT --target TARGET [--active ACTIVE]

options:
  -h, --help       show this help message and exit
  --in INPUT       graph JSON path
  --target TARGET  target node name
  --active ACTIVE  comma-separated active parent node names
""",
    "synth": """\
usage: cyberdep synth [-h] --profile PROFILE [--out OUT] [--seed SEED] [--n N]
                      [--noise-fraction NOISE_FRACTION] [--topo TOPO]

options:
  -h, --help            show this help message and exit
  --profile PROFILE     built-in profile (baseline, dos_only, no_mitigation,
                        with_mitigation, dos_run3_variant) or profile JSON
                        path
  --out OUT             output path ('-' or absent: stdout)
  --seed SEED           RNG seed override
  --n N                 DNP3 message count override
  --noise-fraction NOISE_FRACTION
                        fraction of extra non-DNP3 noise records
  --topo TOPO           topology JSON path (default: bundled wscc9 fixture)
""",
    "compare": """\
usage: cyberdep compare [-h] --in INPUT [--out OUT] [--format {json,text}]
                        [--uniformity-tol UNIFORMITY_TOL] [-v] [--topo TOPO]

options:
  -h, --help            show this help message and exit
  --in INPUT            run manifest: json list of {"scenario", "run_id",
                        "capture"}
  --out OUT             report path ('-' or absent: stdout)
  --format {json,text}
  --uniformity-tol UNIFORMITY_TOL
                        tolerance for the baseline uniformity flag
  -v, --verbose         verbose diagnostics
  --topo TOPO           topology JSON path (default: bundled wscc9 fixture)
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "cyberdep")
def test_help_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert (out, err) == (HELP[command], "")
