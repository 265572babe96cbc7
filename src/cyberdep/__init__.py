"""cyberdep: dependency graphs and noisy-OR queries over DNP3 SCADA traffic logs.

Pipeline: parse JSON Lines captures -> filter to DNP3 -> map addresses to
devices via a declared topology -> count communication frequencies ->
normalize into a probability-weighted dependency graph -> query, rank,
compare, and export.

The package root holds the API the README documents; everything else is
imported from its submodule (``cyberdep.graphio``, ``cyberdep.scenario``, ...).
"""

from .depgraph import (
    BuildResult,
    ConditionalQuery,
    DependencyGraph,
    build_graph,
    collapse_to_scada,
    count_flows,
    edge_probabilities,
    query,
)
from .ingest import filter_dnp3, parse_packet_log
from .topology import default_topology, map_window

__version__ = "0.1.0"

__all__ = [
    "BuildResult",
    "ConditionalQuery",
    "DependencyGraph",
    "build_graph",
    "collapse_to_scada",
    "count_flows",
    "default_topology",
    "edge_probabilities",
    "filter_dnp3",
    "map_window",
    "parse_packet_log",
    "query",
]
