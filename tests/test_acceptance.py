"""Acceptance gate: eight numbered criteria, one labelled pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every expected value here is either exact arithmetic verified by
construction (equal counts, unit fractions) or checked against an
independently coded enumeration oracle; sampled checks state their
tolerances explicitly.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager

from cyberdep.cli import main
from cyberdep.depgraph import (
    FlowCounts,
    Normalization,
    build_graph,
    edge_probabilities,
    format_probability,
    noisy_or,
)
from cyberdep.ingest import (
    Dnp3MessageType,
    export_csv,
    filter_dnp3,
    parse_csv,
    parse_packet_log,
)
from cyberdep.scenario import rank_edges
from cyberdep.synth import builtin_profile, generate
from cyberdep.topology import default_topology
from conftest import equal_flow_rows, jsonl_bytes, make_topology

import io

import pytest


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {num}. {title}: FAIL")
        raise
    print(f"\n[acceptance] {num}. {title}: PASS")


def enumeration_oracle(probs, active):
    """P(at least one active cause fires), by full firing-pattern enumeration."""
    live = [p for p, a in zip(probs, active) if a]
    total = 0.0
    for fire in itertools.product((0, 1), repeat=len(live)):
        if not any(fire):
            continue
        w = 1.0
        for p, f in zip(live, fire):
            w *= p if f else 1.0 - p
        total += w
    return total


def test_criterion_1_worked_example_exactness():
    with criterion(1, "worked-example exactness"):
        assert abs(noisy_or([0.3, 0.8], [1, 1]) - 0.86) < 1e-12
        assert abs(noisy_or([0.2], [1]) - 0.2) < 1e-12
        assert abs(noisy_or([0.7], [1]) - 0.7) < 1e-12


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence, 1000 cases"):
        rng = random.Random(20240817)
        for _ in range(1000):
            n = rng.randint(0, 8)
            probs = [rng.random() for _ in range(n)]
            flags = [rng.random() < 0.5 for _ in range(n)]
            got = noisy_or(probs, flags)
            want = enumeration_oracle(probs, flags)
            assert abs(got - want) <= 1e-9, (probs, flags, got, want)


def test_criterion_3_baseline_uniformity():
    with criterion(3, "baseline uniformity reproduction"):
        # sampled: 10 equally weighted pairs, N = 10^4
        topo10 = make_topology(10)
        profile = builtin_profile("baseline", topo10, n_messages=10_000, seed=1)
        sampled = build_graph(io.BytesIO(generate(profile, topo10)), topo10).graph
        assert len(sampled.edges) == 10
        for e in sampled.edges:
            assert abs(e.probability - 0.1) <= 0.02, (e.key, e.probability)

        # forced equal counts: exactly 0.1 per edge
        forced = build_graph(
            io.BytesIO(jsonl_bytes(equal_flow_rows(topo10, 40))), topo10
        ).graph
        assert len(forced.edges) == 10
        for e in forced.edges:
            assert e.probability == 0.1, (e.key, e.probability)

        # six pairs with equal counts: exactly 1/6, rendered "0.17"
        topo6 = make_topology(6)
        six = build_graph(
            io.BytesIO(jsonl_bytes(equal_flow_rows(topo6, 1000))), topo6
        ).graph
        assert len(six.edges) == 6
        for e in six.edges:
            assert e.probability == 1 / 6, (e.key, e.probability)
            assert format_probability(e.probability) == "0.17"


def scenario_ranking(profile_name: str, topo, seed: int = 1):
    profile = builtin_profile(profile_name, topo, n_messages=10_000, seed=seed)
    graph = build_graph(io.BytesIO(generate(profile, topo)), topo).graph
    return rank_edges(graph)


def test_criterion_4_scenario_signatures():
    with criterion(4, "scenario signatures"):
        wscc = default_topology()
        for seed in (1, 2, 3):
            dos = scenario_ranking("dos_only", wscc, seed)
            assert {e.key for e in dos[:2]} == {
                ("load-5", "scada"), ("load-6", "scada"),
            }, [e.key for e in dos[:3]]

            nomit = scenario_ranking("no_mitigation", wscc, seed)
            assert {e.key for e in nomit[:2]} == {
                ("gen-1", "scada"), ("load-5", "scada"),
            }, [e.key for e in nomit[:3]]

            mit = scenario_ranking("with_mitigation", wscc, seed)
            assert {e.key for e in mit[:2]} == {
                ("load-5", "scada"), ("load-6", "scada"),
            }, [e.key for e in mit[:3]]
            assert mit[2].key == ("gen-1", "scada")
            # gen-1 strictly above every remaining edge
            assert all(mit[2].probability > e.probability for e in mit[3:])


def test_criterion_5_normalization_invariant():
    with criterion(5, "global normalization invariant"):
        wscc = default_topology()
        for name in ("baseline", "dos_only", "no_mitigation", "with_mitigation"):
            for seed in (1, 7):
                profile = builtin_profile(name, wscc, n_messages=2000, seed=seed)
                graph = build_graph(io.BytesIO(generate(profile, wscc)), wscc).graph
                assert graph.edges
                total = math.fsum(e.probability for e in graph.edges)
                assert abs(total - 1.0) <= 1e-9, (name, seed, total)

        # count scaling is probability-invariant
        base = FlowCounts({
            ("a", "s"): {Dnp3MessageType.READ: 123},
            ("b", "s"): {Dnp3MessageType.RESPOND: 456},
            ("c", "s"): {Dnp3MessageType.DIRECT_OPERATE: 789},
        })
        doubled = FlowCounts({
            pair: {mt: 2 * n for mt, n in by_type.items()}
            for pair, by_type in base.entries.items()
        })
        g1 = edge_probabilities(base)
        g2 = edge_probabilities(doubled)
        assert [e.probability for e in g1.edges] == [e.probability for e in g2.edges]


def test_criterion_6_property_suites():
    with criterion(6, "property suites"):
        rng = random.Random(99)

        def case():
            n = rng.randint(0, 8)
            return [rng.random() for _ in range(n)], [rng.random() < 0.5 for _ in range(n)]

        # bounds, 1000 cases
        for _ in range(1000):
            probs, flags = case()
            assert 0.0 <= noisy_or(probs, flags) <= 1.0

        # monotonicity in an added active cause, 1000 cases
        for _ in range(1000):
            probs, flags = case()
            base = noisy_or(probs, flags)
            extra = rng.random()
            assert noisy_or(probs + [extra], flags + [True]) >= base - 1e-15

        # permutation invariance, 1000 cases
        for _ in range(1000):
            probs, flags = case()
            paired = list(zip(probs, flags))
            rng.shuffle(paired)
            a = noisy_or(probs, flags)
            b = noisy_or([p for p, _ in paired], [f for _, f in paired])
            assert abs(a - b) <= 1e-12

        # filter idempotence on a mixed synthetic window
        wscc = default_topology()
        profile = builtin_profile("baseline", wscc, n_messages=2000, seed=3,
                                  noise_fraction=0.2)
        window = parse_packet_log(generate(profile, wscc))
        once = filter_dnp3(window)
        assert filter_dnp3(once) == once

        # parse-never-panics fuzz, >= 10^5 random lines
        fragments = [
            b"{", b"}", b"[1,2]", b'"str"', b"null", b"-", b"\xff\xfe", b"0" * 40,
            b'{"ts_us": 1}', b'{"ts_us": -5, "src": "10.0.0.1"}',
            b'{"ts_us": 1, "src": "10.0.0.1", "dst": "10.0.0.2", "proto": "dnp3", "dnp3_fn": "read"}',
            b'{"ts_us": true, "src": "10.0.0.1", "dst": "10.0.0.2", "proto": "dnp3"}',
        ]
        n_lines = 100_000
        blob = b"\n".join(
            fragments[rng.randrange(len(fragments))] + bytes(rng.randrange(256) for _ in range(rng.randrange(4)))
            for _ in range(n_lines)
        )
        fuzz_window = parse_packet_log(blob)
        assert fuzz_window.stats.total == fuzz_window.stats.parsed + fuzz_window.stats.rejected

        # CSV round-trip identity
        topo = make_topology(4)
        window = parse_packet_log(jsonl_bytes(equal_flow_rows(topo, 25)))
        buf = io.BytesIO()
        export_csv(window, buf)
        back = parse_csv(buf.getvalue())
        assert back == [
            (r.ts_us, r.src_addr, r.dst_addr, r.message_type) for r in window.records
        ]


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-level determinism"):
        # synth with fixed seed
        cap_a, cap_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for cap in (cap_a, cap_b):
            assert main(["synth", "--profile", "dos_only", "--n", "2000",
                         "--seed", "17", "--out", str(cap)]) == 0
        assert cap_a.read_bytes() == cap_b.read_bytes()

        # build twice from the identical capture
        g_a, g_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (g_a, g_b):
            assert main(["build", "--in", str(cap_a), "--out", str(out)]) == 0
        assert g_a.read_bytes() == g_b.read_bytes()

        # export dot twice from the built graph
        d_a, d_b = tmp_path / "a.dot", tmp_path / "b.dot"
        for out in (d_a, d_b):
            assert main(["export", "--in", str(g_a), "--format", "dot",
                         "--out", str(out)]) == 0
        assert d_a.read_bytes() == d_b.read_bytes()
        assert d_a.read_bytes().startswith(b"digraph dependency_graph {")


def test_criterion_8_robust_ingestion():
    with criterion(8, "robust ingestion of malformed input"):
        topo = make_topology(3)
        good_rows = equal_flow_rows(topo, 60)  # 180 valid lines
        assert len(good_rows) == 180

        bad_lines = [
            b"{broken json",
            b'{"ts_us": "late", "src": "10.9.0.1", "dst": "10.9.1.1", "proto": "dnp3"}',
            b"[]",
            b'{"ts_us": 5, "src": "999.9.9.9", "dst": "10.9.1.1", "proto": "dnp3"}',
            b'{"ts_us": 5, "src": "10.9.0.1", "dst": "10.9.0.1", "proto": "dnp3"}',
        ] * 4  # 20 malformed lines -> exactly 10% of 200

        lines = []
        bad_line_numbers = set()
        bad_iter = iter(bad_lines)
        for i, row in enumerate(good_rows):
            lines.append(json.dumps(row, separators=(",", ":")).encode())
            if (i + 1) % 9 == 0:  # weave a malformed line after every 9th record
                lines.append(next(bad_iter))
                bad_line_numbers.add(len(lines))
        blob = b"\n".join(lines) + b"\n"
        assert len(bad_line_numbers) == 20

        window = parse_packet_log(blob)
        assert window.stats.total == 200
        assert window.stats.parsed == 180
        assert window.stats.rejected == 20
        assert {r.line_no for r in window.rejections} == bad_line_numbers

        # the graph over the valid remainder equals the clean-input graph
        dirty_graph = build_graph(io.BytesIO(blob), topo).graph
        clean_graph = build_graph(io.BytesIO(jsonl_bytes(good_rows)), topo).graph
        assert dirty_graph == clean_graph
        assert len(dirty_graph.edges) == 3
        for e in dirty_graph.edges:
            assert e.probability == pytest.approx(1 / 3)
