"""Flow counting, normalization, noisy-OR combination, and graph construction.

The enumeration oracle used here computes P(at least one active cause fires)
by summing over every firing pattern of the active parents; noisy_or must
agree with it to float precision.
"""

import copy
import io
import itertools
import json
import math
import pickle
import re
import tracemalloc
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from cyberdep import depgraph
from cyberdep.depgraph import (
    PROBABILITY_SUM_TOL,
    ConditionalQuery,
    DependencyGraph,
    DgEdge,
    DgNode,
    FlowCounts,
    Normalization,
    build_graph,
    collapse_to_scada,
    count_flows,
    edge_probabilities,
    format_probability,
    noisy_or,
    query,
)
from cyberdep.errors import QueryError, ValidationError
from cyberdep.ingest import (
    DNP3_SYSCALLS, Dnp3MessageType, filter_dnp3, is_integer, parse_packet_log,
)
from cyberdep.synth import builtin_profile, generate
from cyberdep.topology import Device, DeviceRole, Topology, map_window
from conftest import (
    INTRA_DEVICE_ROWS, equal_flow_rows, find_edge, jsonl_bytes, make_topology, staged_build,
)

READ = Dnp3MessageType.READ
RESPOND = Dnp3MessageType.RESPOND
DO = Dnp3MessageType.DIRECT_OPERATE


def enumeration_oracle(probs, active):
    """Independent-causes ground truth: sum over all firing patterns."""
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


class TestNoisyOr:
    def test_two_parent_worked_example(self):
        assert noisy_or([0.3, 0.8], [1, 1]) == pytest.approx(0.86, abs=1e-12)

    def test_single_parent_passthrough(self):
        assert noisy_or([0.2], [1]) == pytest.approx(0.2, abs=1e-12)
        assert noisy_or([0.7], [1]) == pytest.approx(0.7, abs=1e-12)

    def test_inactive_and_empty(self):
        assert noisy_or([0.3, 0.8], [0, 0]) == 0.0
        assert noisy_or([], []) == 0.0
        assert noisy_or([0.3, 0.8], [0, 1]) == pytest.approx(0.8, abs=1e-12)

    def test_certain_cause_dominates(self):
        assert noisy_or([1.0, 0.1], [1, 1]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            noisy_or([0.5], [1, 0])

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_out_of_range_probability(self, bad):
        with pytest.raises(ValueError, match="outside"):
            noisy_or([bad], [1])

    def test_out_of_range_only_checked_lazily_never_silently_clamped(self):
        # an inactive bad probability still violates the contract
        with pytest.raises(ValueError):
            noisy_or([2.0, 0.5], [0, 1])

    @pytest.mark.parametrize("p", [1e-17, 1e-9])
    def test_small_probabilities_keep_relative_precision(self, p):
        assert math.isclose(noisy_or([p], [1]), p, rel_tol=1e-12)
        assert math.isclose(noisy_or([p, p], [1, 1]), 2 * p - p * p, rel_tol=1e-12)


probs_and_flags = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


@given(probs_and_flags)
@settings(max_examples=1000)
def test_noisy_or_matches_enumeration_oracle(case):
    probs, flags = case
    assert noisy_or(probs, flags) == pytest.approx(
        enumeration_oracle(probs, flags), abs=1e-9
    )


@given(probs_and_flags)
@settings(max_examples=1000)
def test_noisy_or_stays_in_unit_interval(case):
    probs, flags = case
    assert 0.0 <= noisy_or(probs, flags) <= 1.0


@given(probs_and_flags, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=1000)
def test_noisy_or_monotone_in_added_cause(case, extra):
    probs, flags = case
    base = noisy_or(probs, flags)
    assert noisy_or(probs + [extra], flags + [True]) >= base - 1e-15


@given(probs_and_flags, st.randoms(use_true_random=False))
@settings(max_examples=1000)
def test_noisy_or_permutation_invariant(case, rng):
    probs, flags = case
    paired = list(zip(probs, flags))
    rng.shuffle(paired)
    shuffled = noisy_or([p for p, _ in paired], [a for _, a in paired])
    assert shuffled == pytest.approx(noisy_or(probs, flags), abs=1e-12)


@given(probs_and_flags)
@settings(max_examples=500)
def test_noisy_or_ignores_inactive_parents(case):
    probs, flags = case
    live_p = [p for p, a in zip(probs, flags) if a]
    assert noisy_or(probs, flags) == noisy_or(live_p, [True] * len(live_p))


# -- flow counting -----------------------------------------------------------


def mm(src, dst, mt=READ):
    return (src, dst, mt)


def flow_total(counts: FlowCounts) -> int:
    """Every type of every entry summed: the records ``counts`` did not drop."""
    return sum(sum(by_type.values()) for by_type in counts.entries.values())


class TestCountFlows:
    def test_counts_by_pair_and_type(self):
        counts = count_flows(
            [mm("scada", "dev-01"), mm("scada", "dev-01"), mm("dev-01", "scada", RESPOND),
             mm("scada", "dev-02", DO)],
            window_label="w",
        )
        assert counts.window_label == "w"
        assert counts.entries[("scada", "dev-01")] == {READ: 2}
        assert counts.entries[("dev-01", "scada")] == {RESPOND: 1}
        assert counts.entries[("scada", "dev-02")] == {DO: 1}
        assert flow_total(counts) == 4
        # the total sums every type of every entry
        assert flow_total(FlowCounts({("a", "b"): {READ: 2, DO: 3}, ("b", "a"): {RESPOND: 1}})) == 6

    def test_empty(self):
        assert flow_total(count_flows([])) == 0

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from(["scada", "dev-01", "dev-02"]),
                              st.sampled_from(["scada", "dev-01", "dev-02"]),
                              st.sampled_from(DNP3_SYSCALLS)), max_size=40))
    @example([mm("scada", "dev-01")] * 3 + [mm("dev-01", "dev-01")] * 2
             + [mm("scada", "dev-01", DO)])
    def test_mapping_counts_equal_per_record_counts(self, triples):
        """A mapping of triples to record counts tallies as its records would, one by one:
        repeats and traffic inside one device included."""
        expected = count_flows(triples, "w")
        for mapped in (Counter(triples), dict(Counter(triples))):
            got = count_flows(mapped, "w")
            assert got.entries == expected.entries
            assert got.dropped == expected.dropped
            assert flow_total(got) == flow_total(expected) == len(triples) - expected.dropped
            assert got == expected


class TestCollapseToScada:
    def test_merges_both_directions(self):
        topo = make_topology(2)
        counts = FlowCounts({
            ("scada", "dev-01"): {READ: 3},
            ("dev-01", "scada"): {RESPOND: 2},
            ("scada", "dev-02"): {DO: 1},
        })
        collapsed, dropped = collapse_to_scada(counts, topo)
        assert dropped == 0
        assert collapsed.entries == {
            ("dev-01", "scada"): {READ: 3, RESPOND: 2},
            ("dev-02", "scada"): {DO: 1},
        }
        assert flow_total(collapsed) == flow_total(counts)

    def test_drops_flows_not_touching_master(self):
        topo = make_topology(2)
        counts = FlowCounts({
            ("dev-01", "dev-02"): {READ: 5},
            ("dev-01", "scada"): {RESPOND: 1},
        })
        collapsed, dropped = collapse_to_scada(counts, topo)
        assert dropped == 5
        assert list(collapsed.entries) == [("dev-01", "scada")]

    def test_drops_traffic_inside_one_device(self):
        topo = make_topology(1)
        counts = FlowCounts({
            ("scada", "scada"): {READ: 2},
            ("dev-01", "dev-01"): {RESPOND: 3},
            ("scada", "dev-01"): {READ: 1},
        })
        collapsed, dropped = collapse_to_scada(counts, topo)
        assert dropped == 5
        assert collapsed.entries == {("dev-01", "scada"): {READ: 1}}


# -- normalization -----------------------------------------------------------


class TestEdgeProbabilities:
    def test_global_probabilities_are_count_shares(self):
        counts = FlowCounts({
            ("a", "s"): {READ: 100},
            ("b", "s"): {READ: 300},
            ("c", "s"): {READ: 600},
        })
        graph = edge_probabilities(counts)
        assert graph.normalization is Normalization.GLOBAL
        assert graph.grand_total == 1000
        assert find_edge(graph, "a", "s").probability == 0.1
        assert find_edge(graph, "b", "s").probability == 0.3
        assert find_edge(graph, "c", "s").probability == 0.6
        assert math.fsum(e.probability for e in graph.edges) == pytest.approx(1.0, abs=1e-9)

    def test_per_sink_sums_to_one_per_sink(self):
        counts = FlowCounts({
            ("a", "s"): {READ: 1},
            ("b", "s"): {READ: 3},
            ("s", "a"): {READ: 10},
        })
        graph = edge_probabilities(counts, Normalization.PER_SINK)
        assert find_edge(graph, "a", "s").probability == 0.25
        assert find_edge(graph, "b", "s").probability == 0.75
        assert find_edge(graph, "s", "a").probability == 1.0

    def test_zero_traffic_gives_empty_graph(self):
        graph = edge_probabilities(FlowCounts({}))
        assert graph.nodes == ()
        assert graph.edges == ()
        assert graph.grand_total == 0

    def test_none_normalization_rejected(self):
        with pytest.raises(ValidationError, match="normalization"):
            edge_probabilities(FlowCounts({}), Normalization.NONE)

    def test_roles_decorate_nodes(self):
        counts = FlowCounts({("a", "s"): {READ: 1}})
        graph = edge_probabilities(counts, roles={"s": DeviceRole.SCADA_MASTER})
        by_name = {n.name: n.role for n in graph.nodes}
        assert by_name == {"a": DeviceRole.OTHER, "s": DeviceRole.SCADA_MASTER}

    def test_scaling_counts_leaves_probabilities_unchanged(self):
        base = FlowCounts({("a", "s"): {READ: 7}, ("b", "s"): {READ: 13}})
        doubled = FlowCounts({
            pair: {mt: 2 * n for mt, n in by_type.items()}
            for pair, by_type in base.entries.items()
        })
        g1 = edge_probabilities(base)
        g2 = edge_probabilities(doubled)
        for e1, e2 in zip(g1.edges, g2.edges):
            assert e1.key == e2.key
            assert e1.probability == e2.probability

    def test_by_type_carried_onto_edges(self):
        counts = FlowCounts({("a", "s"): {READ: 2, RESPOND: 3}})
        edge = find_edge(edge_probabilities(counts), "a", "s")
        assert edge.count == 5
        assert edge.by_type[READ] == 2
        assert edge.by_type[RESPOND] == 3
        assert edge.by_type[DO] == 0

    def test_per_sink_refuses_a_sink_without_traffic(self):
        counts = FlowCounts({("a", "s"): {READ: 0}, ("b", "t"): {READ: 2}})
        with pytest.raises(ValidationError,
                           match=r"^per-sink normalization: no traffic into sink 's'$"):
            edge_probabilities(counts, Normalization.PER_SINK)
        edge = find_edge(edge_probabilities(counts), "a", "s")  # global: a zero-count edge
        assert (edge.count, edge.probability) == (0, 0.0)

    @pytest.mark.parametrize("normalization", [Normalization.GLOBAL, Normalization.PER_SINK])
    def test_refuses_a_negative_count(self, normalization):
        counts = FlowCounts({("a", "s"): {READ: 1}, ("b", "s"): {READ: -1}})  # sums to zero
        with pytest.raises(ValidationError, match=r"^edge b->s: negative type count$"):
            edge_probabilities(counts, normalization)


@given(
    st.dictionaries(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.just("s")).filter(
            lambda pair: pair[0] != pair[1]
        ),
        st.dictionaries(
            st.sampled_from([READ, RESPOND, DO]),
            st.integers(min_value=1, max_value=10_000),
            min_size=1,
        ),
        min_size=1,
    )
)
@settings(max_examples=300)
def test_global_normalization_always_sums_to_one(entries):
    graph = edge_probabilities(FlowCounts(entries))
    assert abs(math.fsum(e.probability for e in graph.edges) - 1.0) <= 1e-9


# -- graph validation --------------------------------------------------------


class TestGraphValidation:
    def test_self_edge_rejected(self):
        with pytest.raises(ValidationError, match="self-edge"):
            DgEdge("a", "a", 0.5)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_probability_range(self, p):
        with pytest.raises(ValidationError, match="outside"):
            DgEdge("a", "b", p)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            DgEdge("a", "b", 0.5, count=-1)

    def test_negative_type_count_rejected(self):
        with pytest.raises(ValidationError) as exc:
            DgEdge("a", "b", 0.5, count=1, by_type={READ: 2, RESPOND: -1})
        assert str(exc.value) == "edge a->b: negative type count"

    def test_by_type_normalized_to_four_keys(self):
        edge = DgEdge("a", "b", 0.5, count=2, by_type={READ: 2})
        assert set(edge.by_type) == {
            Dnp3MessageType.REQUEST_LINK_STATUS, READ, RESPOND, DO,
        }

    @pytest.mark.parametrize("field, value, message", [
        ("count", 2.0, "count must be an integer, got 2.0"),
        ("count", True, "count must be an integer, got True"),
        ("by_type", {READ: 2.0}, "by_type['read'] must be an integer, got 2.0"),
        ("by_type", {RESPOND: False}, "by_type['response'] must be an integer, got False"),
        ("probability", True, "probability must be a number, got True"),
        ("probability", "0.5", "probability must be a number, got '0.5'"),
    ])
    def test_number_types_checked(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^edge a->b: {re.escape(message)}$"):
            DgEdge(**{"source": "a", "sink": "b", "probability": 0.5, field: value})

    @pytest.mark.parametrize("args, message", [
        ((5, "b", 0.5), "edge source must be a string, got 5"),
        ((None, "b", 0.5), "edge source must be a string, got None"),
        (("a", b"b", 0.5), "edge sink must be a string, got b'b'"),
        ((5, 5, 0.5), "edge source must be a string, got 5"),
    ])
    def test_endpoint_names_must_be_strings(self, args, message):
        with pytest.raises(ValidationError) as exc:
            DgEdge(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("args, message", [
        ((5,), "node name must be a string XML can represent, got 5"),
        ((("a",),), "node name must be a string XML can represent, got ('a',)"),
        (("a", "field"), "node 'a': role must be a DeviceRole, got 'field'"),
        (("a", None), "node 'a': role must be a DeviceRole, got None"),
    ])
    def test_node_name_and_role_types_checked(self, args, message):
        with pytest.raises(ValidationError) as exc:
            DgNode(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["a\x00", "a\x1f", "a\ud800", "\ufffe", "\uffff"])
    def test_node_name_xml_cannot_hold_rejected(self, name):
        with pytest.raises(ValidationError) as exc:
            DgNode(name)
        assert str(exc.value) == f"node name must be a string XML can represent, got {name!r}"

    @pytest.mark.parametrize("by_type, key", [
        ({Dnp3MessageType.OTHER: 2}, Dnp3MessageType.OTHER),
        ({"read": 2}, "read"),
        ({READ: 1, "cold_restart": 1}, "cold_restart"),
    ])
    def test_unmodeled_type_keys_rejected(self, by_type, key):
        with pytest.raises(ValidationError) as exc:
            DgEdge("a", "b", 0.5, 2, by_type)
        assert str(exc.value) == f"edge a->b: unknown message type {key!r}"

    def test_string_subclass_names_accepted(self):
        class Name(str):
            pass

        node, edge = DgNode(Name("a"), DeviceRole.SCADA_MASTER), DgEdge(Name("a"), Name("b"), 0.5)
        assert (node.name, edge.key) == ("a", ("a", "b"))

    @pytest.mark.parametrize("grand_total", [2.5, 2.0, True, "2"])
    def test_grand_total_must_be_an_integer(self, grand_total):
        with pytest.raises(ValidationError) as exc:
            DependencyGraph((), (), Normalization.NONE, grand_total)
        assert str(exc.value) == f"grand_total must be an integer, got {grand_total!r}"

    def test_integer_probability_stored_as_float(self):
        edge = DgEdge("a", "b", 1, 2, {READ: 2})
        assert type(edge.probability) is float
        assert edge == DgEdge("a", "b", 1.0, 2, {READ: 2})

    def test_equal_edges_hash_equal(self):
        edge = DgEdge("a", "b", 0.5, count=2, by_type={READ: 2})
        same = DgEdge("a", "b", 0.5, count=2, by_type={READ: 2})
        other_type = DgEdge("a", "b", 0.5, count=2, by_type={RESPOND: 2})
        assert hash(edge) == hash(same)
        assert {edge, same} == {edge}
        assert len({edge, other_type}) == 2

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValidationError, match="duplicate node"):
            DependencyGraph((DgNode("a"), DgNode("a")), ())

    def test_duplicate_edge_rejected(self):
        nodes = (DgNode("a"), DgNode("b"))
        edges = (DgEdge("a", "b", 0.1), DgEdge("a", "b", 0.2))
        with pytest.raises(ValidationError, match="duplicate edge"):
            DependencyGraph(nodes, edges, Normalization.NONE)

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="undeclared node"):
            DependencyGraph((DgNode("a"),), (DgEdge("a", "ghost", 1.0),), Normalization.NONE)

    def test_global_sum_enforced(self):
        nodes = (DgNode("a"), DgNode("b"), DgNode("s"))
        edges = (DgEdge("a", "s", 0.5, count=1), DgEdge("b", "s", 0.6, count=1))
        with pytest.raises(ValidationError, match="sum"):
            DependencyGraph(nodes, edges, Normalization.GLOBAL, grand_total=2)

    def test_zero_probability_needs_zero_count_under_normalization(self):
        nodes = (DgNode("a"), DgNode("s"))
        with pytest.raises(ValidationError, match="zero"):
            DependencyGraph(
                nodes, (DgEdge("a", "s", 0.0, count=5),), Normalization.PER_SINK
            )

    def test_count_must_match_by_type_total(self):
        nodes = (DgNode("a"), DgNode("s"))
        edge = DgEdge("a", "s", 1.0, count=5, by_type={READ: 4})
        with pytest.raises(ValidationError, match="edge a->s: count 5"):
            DependencyGraph(nodes, (edge,), Normalization.GLOBAL, grand_total=5)

    def test_grand_total_must_match_edge_counts(self):
        nodes = (DgNode("a"), DgNode("s"))
        edge = DgEdge("a", "s", 1.0, count=5, by_type={READ: 5})
        with pytest.raises(ValidationError, match="grand_total 3"):
            DependencyGraph(nodes, (edge,), Normalization.GLOBAL, grand_total=3)

    def test_probability_must_match_count_share(self):
        nodes = (DgNode("a"), DgNode("b"), DgNode("s"))
        edges = (
            DgEdge("a", "s", 0.5, count=1, by_type={READ: 1}),
            DgEdge("b", "s", 0.5, count=3, by_type={READ: 3}),
        )
        with pytest.raises(ValidationError, match="edge a->s: probability"):
            DependencyGraph(nodes, edges, Normalization.PER_SINK, grand_total=4)

    def test_unnormalized_graph_counts_are_free_form(self):
        nodes = (DgNode("a"), DgNode("s"))
        edge = DgEdge("a", "s", 1.0, count=5, by_type={READ: 999})
        graph = DependencyGraph(nodes, (edge,), Normalization.NONE, grand_total=3)
        assert find_edge(graph, "a", "s").count == 5

    def test_unnormalized_graph_skips_sum_checks(self, sample_graph):
        # hand-assigned weights may exceed 1 in aggregate
        total = math.fsum(e.probability for e in sample_graph.edges)
        assert total == pytest.approx(2.0)

    def test_nodes_and_edges_stored_sorted(self):
        g = DependencyGraph(
            (DgNode("z"), DgNode("a"), DgNode("m")),
            (DgEdge("z", "a", 0.5), DgEdge("a", "m", 0.5)),
            Normalization.NONE,
        )
        assert [n.name for n in g.nodes] == ["a", "m", "z"]
        assert [e.key for e in g.edges] == [("a", "m"), ("z", "a")]

    @pytest.mark.parametrize("nodes, edges, normalization, message", [
        (["a"], [], Normalization.NONE, "node must be a DgNode, got 'a'"),
        ((DgNode("a"), DgNode("b")), [("a", "b", 1.0)], Normalization.NONE,
         "edge must be a DgEdge, got ('a', 'b', 1.0)"),
        ([DgNode("a"), DgNode("a"), None], [], Normalization.NONE,  # before the duplicate
         "node must be a DgNode, got None"),
        ([DgNode("a")], [DgEdge("a", "ghost", 1.0), "x"], Normalization.NONE,
         "edge must be a DgEdge, got 'x'"),
        ([DgNode("a")], ["x"], "none", "normalization must be a Normalization, got 'none'"),
    ])
    def test_refuses_what_is_no_record(self, nodes, edges, normalization, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            DependencyGraph(nodes, edges, normalization)

    def test_accepts_record_subclasses(self):
        class Node(DgNode):
            __slots__ = ()

        class Edge(DgEdge):
            __slots__ = ()

        graph = DependencyGraph(iter([Node("s"), Node("a")]), iter([Edge("a", "s", 0.25)]))
        assert [n.name for n in graph.nodes] == ["a", "s"]
        assert query(graph, ConditionalQuery("s", {"a": True})) == pytest.approx(0.25)

    @pytest.mark.parametrize("normalization, edges, grand_total, message", [
        (Normalization.NONE, [("a", "s", 0.1), ("a", "s", 0.2)], 0, "duplicate edge a->s"),
        (Normalization.NONE, [("a", "ghost", 1.0)], 0,
         "edge a->ghost references undeclared node 'ghost'"),
        (Normalization.NONE, [], -1, "grand_total must be >= 0"),
        (Normalization.GLOBAL, [("a", "s", 0.0, 2), ("b", "s", 1.0, 0)], 2,
         "edge a->s: zero probability must coincide with zero count"),
        (Normalization.GLOBAL, [("a", "s", 0.5, 1), ("b", "s", 0.6, 1)], 2,
         "global normalization violated: probabilities sum to 1.1"),
        (Normalization.PER_SINK, [("a", "s", 1.0, 1), ("a", "t", 0.5, 1), ("b", "t", 0.4, 1)],
         3, "per-sink normalization violated at 't': sum 0.9"),
        (Normalization.GLOBAL, [("a", "s", 1.0, 5, 4)], 5, "edge a->s: count 5 != by_type total 4"),
        (Normalization.GLOBAL, [("a", "s", 1.0, 5)], 3, "grand_total 3 != edge count total 5"),
        (Normalization.PER_SINK, [("a", "s", 0.5, 1), ("b", "s", 0.5, 3)], 4,
         "edge a->s: probability 0.5 != count share 0.25"),
        (Normalization.GLOBAL, [("a", "s", 0.5, 1), ("b", "s", 0.5, 3)], 4,
         "edge a->s: probability 0.5 != count share 0.25"),
        ("global", [("a", "s", 1.0, 1)], 1, "normalization must be a Normalization, got 'global'"),
    ])
    def test_each_rule_names_its_breach(self, normalization, edges, grand_total, message):
        def edge(src, dst, p, count=0, typed=None):
            return DgEdge(src, dst, p, count, {READ: count if typed is None else typed})

        nodes = tuple(DgNode(n) for n in "abst")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            DependencyGraph(nodes, tuple(edge(*e) for e in edges), normalization, grand_total)


def one_pass_checks(nodes, edges, normalization, grand_total):
    """``DependencyGraph``'s checks as one interleaved pass over the edges, kept as the oracle.

    The first edge to break each count rule is held back, so the rules still raise
    in a fixed order. ``DependencyGraph`` checks each rule in its own pass and must
    raise the same text, or accept the same graphs.
    """
    if not isinstance(normalization, Normalization):
        raise ValidationError(f"normalization must be a Normalization, got {normalization!r}")
    nodes = tuple(sorted(nodes, key=lambda n: n.name))
    edges = tuple(sorted(edges, key=lambda e: (e.source, e.sink)))
    names = set()
    for n in nodes:
        if n.name in names:
            raise ValidationError(f"duplicate node {n.name!r}")
        names.add(n.name)
    normalized = normalization is not Normalization.NONE
    keys, in_edges, sink_totals = set(), {}, {}
    zero_mismatch = type_mismatch = None
    for e in edges:
        key = (e.source, e.sink)
        if key in keys:
            raise ValidationError(f"duplicate edge {e.source}->{e.sink}")
        keys.add(key)
        for endpoint in key:
            if endpoint not in names:
                raise ValidationError(
                    f"edge {e.source}->{e.sink} references undeclared node {endpoint!r}"
                )
        in_edges.setdefault(e.sink, []).append(e)
        if normalized:
            if zero_mismatch is None and (e.probability == 0.0) != (e.count == 0):
                zero_mismatch = e
            if type_mismatch is None and e.count != sum(e.by_type.values()):
                type_mismatch = e
            sink_totals[e.sink] = sink_totals.get(e.sink, 0) + e.count
    if type(grand_total) is not int and not is_integer(grand_total):
        raise ValidationError(f"grand_total must be an integer, got {grand_total!r}")
    if grand_total < 0:
        raise ValidationError("grand_total must be >= 0")
    if not normalized:
        return
    if e := zero_mismatch:
        raise ValidationError(
            f"edge {e.source}->{e.sink}: zero probability must coincide with zero count"
        )
    sink_shares = normalization is Normalization.PER_SINK
    if not sink_shares and edges:
        total = math.fsum(e.probability for e in edges)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValidationError(f"global normalization violated: probabilities sum to {total!r}")
    for sink, group in in_edges.items() if sink_shares else ():
        total = math.fsum(e.probability for e in group)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValidationError(f"per-sink normalization violated at {sink!r}: sum {total!r}")
    if e := type_mismatch:
        raise ValidationError(
            f"edge {e.source}->{e.sink}: count {e.count} != by_type total "
            f"{sum(e.by_type.values())}"
        )
    total = sum(sink_totals.values())
    if grand_total != total:
        raise ValidationError(f"grand_total {grand_total} != edge count total {total}")
    for e in edges:
        share = e.count / (sink_totals[e.sink] if sink_shares else grand_total)
        if abs(e.probability - share) > PROBABILITY_SUM_TOL:
            raise ValidationError(
                f"edge {e.source}->{e.sink}: probability {e.probability!r} "
                f"!= count share {share!r}"
            )


@st.composite
def rule_breaking_graphs(draw):
    """A small graph's parts that may break several rules at once.

    Each flaw is drawn on its own: a duplicate node, an undeclared node, an
    endpoint ``g`` that no node names, a duplicate edge, by_type totals that may
    miss their counts by one. Probabilities are the global or per-sink shares
    (most often those of the graph's own normalization) of the counts or of
    other weights, or drawn freely. grand_total is the count total, off by one,
    -1 or 2.5.
    """
    flaw = st.sampled_from([False] * 5 + [True])
    names = ["a", "b", "c", "s"]
    if draw(flaw):
        names.remove(draw(st.sampled_from(names)))
    if draw(flaw):
        names.append(draw(st.sampled_from(names)))
    ends = "abcsg" if draw(flaw) else "abcs"
    pairs = st.tuples(st.sampled_from(ends), st.sampled_from("ss" + ends))  # most into s
    pairs = pairs.filter(lambda pair: pair[0] != pair[1])
    pairs = draw(st.lists(pairs, min_size=1, max_size=6, unique=not draw(flaw)))
    count = st.sampled_from([1, 2, 3, 4, 0])
    counts = [draw(count) for _ in pairs]
    sinks = [sink for _, sink in pairs]

    normalization = draw(st.sampled_from(Normalization))
    shares = draw(st.sampled_from([normalization.value] * 2 + ["global", "per-sink", "none"]))
    weights = draw(st.sampled_from([counts, [draw(count) for _ in pairs]]))
    probs = []
    for sink, weight in zip(sinks, weights):
        group = range(len(pairs)) if shares == "global" else [
            i for i, other in enumerate(sinks) if other == sink]
        denominator = sum(weights[i] for i in group)
        if shares == "none":  # drawn freely
            probs.append(draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
        else:
            probs.append(weight / denominator if denominator else 0.0)

    typed_off = draw(st.booleans())
    edges = []
    for (source, sink), n, p in zip(pairs, counts, probs):
        typed = max(0, n + draw(st.sampled_from([-1, 0, 1]))) if typed_off else n
        read = draw(st.integers(0, typed))
        edges.append(DgEdge(source, sink, p, n, {READ: read, RESPOND: typed - read}))
    total = sum(counts)
    grand_total = draw(st.sampled_from([total, total, total - 1, total + 1, -1, 2.5]))
    nodes = [DgNode(name) for name in names]
    return nodes, edges, normalization, grand_total


def raised(check, *args):
    """The ValidationError text ``check(*args)`` raises, or None if it accepts."""
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


@given(rule_breaking_graphs())
@example(([DgNode("a")], [], Normalization.GLOBAL, 1))
@example(([DgNode("a"), DgNode("a")], [DgEdge("a", "g", 0.5)], "global", -1))
@example((  # each sink's sum is checked in the order the sorted edges reach it
    [DgNode(n) for n in "abcs"],
    [DgEdge("b", "c", 0.5, 1, {READ: 1}), DgEdge("a", "s", 0.5, 1, {READ: 1})],
    Normalization.PER_SINK, 2))
@example(([DgNode("a"), DgNode("s")], [DgEdge("a", "s", 1.0, 2, {READ: 3})],
          Normalization.GLOBAL, 3))
@settings(max_examples=500)
def test_rules_raise_as_the_one_pass_checks_did(case):
    assert raised(DependencyGraph, *case) == raised(one_pass_checks, *case)


# -- query -------------------------------------------------------------------


class TestQuery:
    def test_both_parents_active(self, sample_graph):
        q = ConditionalQuery("F4", {"P1": True, "P9": True})
        assert query(sample_graph, q) == pytest.approx(0.86, abs=1e-12)

    def test_single_parent_active(self, sample_graph):
        assert query(sample_graph, ConditionalQuery("F4", {"P1": True})) == pytest.approx(
            0.3, abs=1e-12
        )
        assert query(sample_graph, ConditionalQuery("F4", {"P9": True})) == pytest.approx(
            0.8, abs=1e-12
        )
        assert query(sample_graph, ConditionalQuery("F2", {"P9": True})) == pytest.approx(
            0.2, abs=1e-12
        )
        assert query(sample_graph, ConditionalQuery("F7", {"P1": True})) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_no_evidence_means_inactive(self, sample_graph):
        assert query(sample_graph, ConditionalQuery("F4")) == 0.0
        assert query(sample_graph, ConditionalQuery("F4", {"P1": False})) == 0.0

    def test_source_node_has_no_parents(self, sample_graph):
        assert query(sample_graph, ConditionalQuery("P1")) == 0.0

    def test_unknown_target(self, sample_graph):
        with pytest.raises(QueryError, match="unknown target.*F99"):
            query(sample_graph, ConditionalQuery("F99"))

    def test_non_parent_evidence(self, sample_graph):
        with pytest.raises(QueryError, match="'P9' is not a parent of 'F7'"):
            query(sample_graph, ConditionalQuery("F7", {"P9": True}))

    @pytest.mark.parametrize("target, evidence, message", [
        (["x"], None, "query target must be a string, got ['x']"),
        ("scada", {"gen-1": "no"}, "evidence for 'gen-1' must be a bool, got 'no'"),
        ("scada", {"gen-1": 1}, "evidence for 'gen-1' must be a bool, got 1"),
    ])
    def test_target_and_flags_checked(self, target, evidence, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ConditionalQuery(target, evidence)

    def test_keeps_its_own_evidence(self, sample_graph):
        evidence = {"P1": True}
        q = ConditionalQuery("F4", evidence)
        evidence["P9"] = True
        evidence["F2"] = True  # no parent of F4: the query would raise if it saw this
        assert q.evidence == {"P1": True}
        assert query(sample_graph, q) == pytest.approx(0.3)
        assert copy.copy(q) == q == ConditionalQuery("F4", {"P1": True})


def reference_query(graph, q):
    """``query`` as it was before its one-pass rewrite: the reference it must equal.

    It scans ``graph.nodes`` and ``graph.edges``, not the graph's parent map.
    """
    if all(n.name != q.target for n in graph.nodes):
        raise QueryError(f"unknown target node: {q.target!r}")
    parents = [e for e in graph.edges if e.sink == q.target]
    parent_names = {e.source for e in parents}
    for name in q.evidence:
        if name not in parent_names:
            raise QueryError(f"{name!r} is not a parent of {q.target!r}")
    probs = [e.probability for e in parents]
    flags = [q.evidence.get(e.source, False) for e in parents]
    return noisy_or(probs, flags)


def query_outcome(evaluate, graph, q):
    """The value and its sign, or the exception's type and text."""
    try:
        value = evaluate(graph, q)
    except Exception as exc:
        return type(exc), str(exc)
    return value, math.copysign(1.0, value)


QUERY_NAMES = ("a", "b", "c", "d", "s")
query_probabilities = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 1e-17, 0.5, 1.0])
)


def unnormalized_graph(*edges):
    nodes = {name for edge in edges for name in edge[:2]}
    return DependencyGraph([DgNode(n) for n in nodes], [DgEdge(*e) for e in edges])


@st.composite
def query_cases(draw):
    """A NONE or normalized graph over a few names, and a query that may break its rules."""
    pairs = draw(st.lists(st.tuples(*[st.sampled_from(QUERY_NAMES)] * 2)
                          .filter(lambda pair: pair[0] != pair[1]), max_size=10, unique=True))
    if draw(st.booleans()):
        graph = unnormalized_graph(*[(src, dst, draw(query_probabilities)) for src, dst in pairs])
    else:
        counts = FlowCounts({pair: {READ: draw(st.integers(1, 5))} for pair in pairs})
        graph = edge_probabilities(counts, draw(st.sampled_from(
            [Normalization.GLOBAL, Normalization.PER_SINK])))
    names = st.sampled_from((*QUERY_NAMES, "ghost", "x"))
    evidence = draw(st.dictionaries(names, st.booleans(), max_size=6))
    return graph, ConditionalQuery(draw(names), evidence)


@given(query_cases())
@example((unnormalized_graph(("a", "s", 0.4)), ConditionalQuery("a")))  # a leaf, no evidence
@example((unnormalized_graph(("a", "s", 0.4), ("b", "s", 0.3)),
          ConditionalQuery("s", {"b": False, "a": False})))
@example((unnormalized_graph(("a", "s", 1.0), ("b", "s", 0.3)),
          ConditionalQuery("s", {"a": True, "b": True})))
@example((unnormalized_graph(("a", "s", 1e-17), ("b", "s", 1e-17), ("c", "s", 0.0)),
          ConditionalQuery("s", {"c": True, "b": True, "a": True})))
@example((unnormalized_graph(("a", "s", 0.5)), ConditionalQuery("s", {"x": False, "ghost": True})))
@settings(max_examples=500)
def test_query_equals_the_reference_query(case):
    graph, q = case
    assert query_outcome(query, graph, q) == query_outcome(reference_query, graph, q)


@given(query_cases())
@example((unnormalized_graph(("a", "s", 0.4), ("b", "s", 0.3)), ConditionalQuery("a")))
@example((unnormalized_graph(("a", "s", 0.4), ("b", "s", 0.3)),
          ConditionalQuery("s", {"b": True, "a": True})))
@settings(max_examples=200)
def test_copies_rebuild_the_parent_map(case):
    """A copy, a pickled graph and a replaced graph rebuild their parent map through
    ``__init__``; the map plays no part in ``==`` or ``repr``."""
    graph, q = case
    expected = query_outcome(reference_query, graph, q)
    for twin in (copy.copy(graph), pickle.loads(pickle.dumps(graph)),
                 graph.replace(grand_total=graph.grand_total)):
        assert twin == graph and repr(twin) == repr(graph)
        assert twin._parents is not graph._parents
        assert query_outcome(query, twin, q) == expected


# -- end-to-end build --------------------------------------------------------


class TestBuildGraph:
    def test_matches_manual_pipeline(self):
        topo = make_topology(3)
        data = jsonl_bytes(equal_flow_rows(topo, 4))
        graph = build_graph(io.BytesIO(data), topo).graph
        window = parse_packet_log(data)

        mapped, _ = map_window(topo, filter_dnp3(window))
        counts, _ = collapse_to_scada(count_flows(mapped), topo)
        manual = edge_probabilities(counts, roles=topo.roles())
        assert graph == manual

    def test_equal_flows_give_equal_shares(self):
        topo = make_topology(4)
        graph = build_graph(io.BytesIO(jsonl_bytes(equal_flow_rows(topo, 5))), topo).graph
        assert len(graph.edges) == 4
        assert all(e.probability == 0.25 for e in graph.edges)
        assert all(e.sink == "scada" for e in graph.edges)

    def test_deterministic(self):
        topo = make_topology(3)
        data = jsonl_bytes(equal_flow_rows(topo, 7))
        assert build_graph(io.BytesIO(data), topo) == build_graph(io.BytesIO(data), topo)

    def test_parsed_window_is_no_input(self, wscc):
        with pytest.raises(TypeError):
            build_graph(parse_packet_log(b""), wscc)

    def test_empty_window_builds_empty_graph(self, wscc):
        graph = build_graph(io.BytesIO(b""), wscc).graph
        assert graph.nodes == ()
        assert graph.edges == ()

    def test_no_collapse_keeps_directional_edges(self):
        topo = make_topology(1)
        data = jsonl_bytes(equal_flow_rows(topo, 4))
        graph = build_graph(io.BytesIO(data), topo, scada_collapse=False).graph
        assert find_edge(graph, "scada", "dev-01") is not None
        assert find_edge(graph, "dev-01", "scada") is not None

    @pytest.mark.parametrize("collapse, edges", [
        (True, {("dev-01", "scada")}),
        (False, {("scada", "dev-01"), ("dev-01", "scada")}),
    ])
    def test_intra_device_traffic_dropped(self, collapse, edges):
        topo = intra_device_topology()
        data = jsonl_bytes(INTRA_DEVICE_ROWS)
        for result in (build_graph(io.BytesIO(data), topo, scada_collapse=collapse),
                       staged_build(parse_packet_log(data), topo, scada_collapse=collapse)):
            assert {e.key for e in result.graph.edges} == edges
            assert result.graph.grand_total == 4
            assert result.scada_dropped == 3  # mapped 7 = grand_total 4 + dropped 3
            assert result.unmapped.records == 0

    @pytest.mark.parametrize("collapse", [True, False])
    def test_one_flow_tally(self, monkeypatch, collapse):
        """``build_graph`` tallies its resolved device triples through ``count_flows``,
        once per build, as a mapping that holds every mapped record."""
        calls = []

        def counted(mapped, *args, _f=depgraph.count_flows):
            calls.append(mapped)
            return _f(mapped, *args)

        monkeypatch.setattr(depgraph, "count_flows", counted)
        rows = [*INTRA_DEVICE_ROWS,
                {"ts_us": 7, "src": "10.9.0.1", "dst": "10.9.2.1", "proto": "dnp3",
                 "dnp3_fn": "read"},
                {"ts_us": 8, "src": "10.9.0.1", "dst": "10.9.1.1", "proto": "modbus"}]
        result = build_graph(io.BytesIO(jsonl_bytes(rows)), intra_device_topology(),
                             scada_collapse=collapse)
        stats = result.stats
        assert (stats.parsed, stats.filtered_out, result.unmapped.records) == (9, 1, 1)
        assert len(calls) == 1
        assert isinstance(calls[0], Mapping)
        assert sum(calls[0].values()) == stats.parsed - stats.filtered_out - result.unmapped.records

    @pytest.mark.parametrize("collapse", [True, False])
    def test_stage_chain_drops_intra_device_traffic(self, collapse):
        # The README's "same graph, stage by stage" chain on the same capture.
        topo = intra_device_topology()
        data = jsonl_bytes(INTRA_DEVICE_ROWS)
        mapped, unmapped = map_window(topo, filter_dnp3(parse_packet_log(data)))
        counts = count_flows(mapped)
        assert counts.dropped == 3
        if collapse:
            counts, scada_dropped = collapse_to_scada(counts, topo)
            assert scada_dropped == counts.dropped
        result = build_graph(io.BytesIO(data), topo, scada_collapse=collapse)
        assert edge_probabilities(counts, roles=topo.roles()) == result.graph
        assert counts.dropped == result.scada_dropped == 3  # mapped 7 = grand_total 4 + 3
        assert unmapped.records == 0


def intra_device_topology() -> Topology:
    """scada on 10.9.0.1-2 and dev-01 on 10.9.1.1-2, as INTRA_DEVICE_ROWS expects."""
    return Topology((
        Device("scada", DeviceRole.SCADA_MASTER, frozenset({"10.9.0.1", "10.9.0.2"})),
        Device("dev-01", DeviceRole.FIELD_DEVICE, frozenset({"10.9.1.1", "10.9.1.2"})),
    ))


# -- streamed build ----------------------------------------------------------

# 10.9.0.1-2 are the master and 10.9.1.x the field devices of STREAM_TOPOLOGY, so
# master-to-master lines are traffic inside one device; 10.9.2.x resolve to nothing.
STREAM_TOPOLOGY = make_topology(3, master_addrs=("10.9.0.1", "10.9.0.2"))
ADDRESSES = ["10.9.0.1", "10.9.0.2", "10.9.1.1", "10.9.1.2", "10.9.1.3", "10.9.2.1",
             "10.9.2.2"]
MALFORMED_LINES = [
    b"\xff\xfe garbage",
    b"{broken",
    b'\xef\xbb\xbf{"ts_us": 1}',
    b"[1, 2]",
    b'"text"',
    b"[" * 2000,
    b"1" * 5000,
    b'{"ts_us": 1, "x": NaN}',
    *(
        json.dumps({"ts_us": 1, "src": "10.9.0.1", "dst": "10.9.1.1", "proto": "dnp3",
                    "dnp3_fn": "read", **bad}).encode()
        for bad in [
            {"ts_us": "1"}, {"ts_us": True}, {"ts_us": 1.5}, {"ts_us": -1},
            {"src": ["10.9.0.1"]}, {"src": {"a": 1}}, {"src": None}, {"dst": 7},
            {"dst": False}, {"src": "10.9.0.010"}, {"dst": "10.9.0.1"},
            {"proto": 3}, {"dnp3_fn": ["read"]},
        ]
    ),
]
record_lines = st.builds(
    lambda ts, src, dst, proto, fn: json.dumps(
        {"ts_us": ts, "src": src, "dst": dst, "proto": proto,
         **({} if fn is None else {"dnp3_fn": fn})}
    ).encode(),
    st.integers(0, 50),
    st.sampled_from(ADDRESSES),
    st.sampled_from(ADDRESSES),
    st.sampled_from(["dnp3", "DNP3", "modbus"]),
    st.sampled_from([None, "read", "response", "request_link_status", "direct_operate",
                     "READ", "cold_restart"]),
)
capture_lines = st.lists(
    st.one_of(record_lines, st.sampled_from(MALFORMED_LINES), st.sampled_from([b"", b" \t\r"])),
    max_size=80,
)
ALL_OPTIONS = [
    {"scada_collapse": collapse, "normalization": normalization}
    for collapse in (True, False)
    for normalization in (Normalization.GLOBAL, Normalization.PER_SINK)
]


class TestBuildGraphFromLines:
    @settings(max_examples=300, deadline=None)
    @given(lines=capture_lines, final_newline=st.booleans())
    @example(lines=MALFORMED_LINES * 2 + [b'{"ts_us": 0, "src": "10.9.2.1", "dst": "10.9.2.2", '
                                          b'"proto": "dnp3", "dnp3_fn": "read"}',
                                          b'{"ts_us": 0, "src": "10.9.0.1", "dst": "10.9.0.2", '
                                          b'"proto": "dnp3", "dnp3_fn": "read"}'],
             final_newline=True)
    def test_streamed_equals_staged(self, lines, final_newline):
        """Random mixes of valid, malformed, blank, non-DNP3, unmapped, non-SCADA,
        intra-device and out-of-order lines: the streamed build and the staged chain
        give one BuildResult, stats and first rejections included."""
        topo = STREAM_TOPOLOGY
        data = b"\n".join(lines) + (b"\n" if final_newline else b"")
        window = parse_packet_log(data)
        for options in ALL_OPTIONS:
            result = build_graph(io.BytesIO(data), topo, **options)
            assert result == staged_build(window, topo, **options)
            stats = result.stats
            mapped = stats.parsed - stats.filtered_out - result.unmapped.records
            assert mapped == result.graph.grand_total + result.scada_dropped

    @settings(max_examples=300, deadline=None)
    @given(flows=st.dictionaries(
        st.tuples(st.sampled_from(ADDRESSES), st.sampled_from(ADDRESSES),
                  st.sampled_from(["read", "response", "request_link_status", "direct_operate"])),
        st.integers(1, 40), max_size=12,
    ))
    def test_collapsed_per_sink_equals_global(self, flows):
        """After the SCADA collapse every edge sinks at the master, whose total is the
        grand total, so per-sink shares are the global ones to the last bit."""
        data = jsonl_bytes(
            {"ts_us": 0, "src": src, "dst": dst, "proto": "dnp3", "dnp3_fn": fn}
            for (src, dst, fn), n in flows.items() for _ in range(n)
        )
        per_sink, global_ = (
            build_graph(io.BytesIO(data), STREAM_TOPOLOGY, normalization=normalization)
            for normalization in (Normalization.PER_SINK, Normalization.GLOBAL)
        )
        assert per_sink.graph.normalization is Normalization.PER_SINK
        assert per_sink._replace(graph=None) == global_._replace(graph=None)
        assert per_sink.graph.nodes == global_.graph.nodes
        assert per_sink.graph.grand_total == global_.graph.grand_total

        def edges(result):
            return [(e.key, e.count, e.by_type, e.probability.hex()) for e in result.graph.edges]

        assert edges(per_sink) == edges(global_)

    def test_peak_memory_flat_in_capture_length(self, wscc, tmp_path):
        """A streamed build of a 4N-line capture peaks within 1.25x of an N-line one."""

        def peak(n):
            profile = builtin_profile("dos_only", wscc, n_messages=n, seed=1, noise_fraction=0.1)
            path = tmp_path / f"capture-{n}.jsonl"
            path.write_bytes(generate(profile, wscc))
            tracemalloc.start()
            try:
                with path.open("rb") as lines:
                    result = build_graph(lines, wscc)
                return tracemalloc.get_traced_memory()[1], result.graph.grand_total
            finally:
                tracemalloc.stop()

        peak(1000)  # warm up caches that a first call fills
        small, small_total = peak(5000)
        large, large_total = peak(20000)
        assert (small_total, large_total) == (5000, 20000)
        assert large <= 1.25 * small


def test_format_probability_two_decimals():
    assert format_probability(1 / 6) == "0.17"
    assert format_probability(0.3) == "0.30"
    assert format_probability(0.1) == "0.10"
    assert format_probability(1.0) == "1.00"
