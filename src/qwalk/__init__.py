"""Coined quantum walks on graph edge spaces under non-Markovian dephasing.

The package simulates discrete-time coined walks whose Hilbert space is
spanned by the directed edges of a simple graph, measures state-transfer
and periodicity fidelity over time, and models noise with a diagonal
dephasing channel (identity and the Weyl phase operator Z) driven by
random-telegraph or Ornstein-Uhlenbeck memory kernels.
"""

from .channels import (
    NoiseChannel,
    kraus_set,
    oun_channel,
    rtn_channel,
)
from .graphs import (
    DirectedEdgeSpace,
    Graph,
    build_graph,
    complete_bipartite_graph,
    cycle_graph,
    edge_space,
    load_graph_file,
    parse_graph_file,
    path_graph,
    standard_family,
    star_graph,
)
from .operators import (
    WalkOperators,
    WalkStep,
    receiver_state,
    sender_state,
    walk_step,
    walk_unitary,
)
from .output import render_svg, write_csv, write_matrix_csv
from .scenarios import (
    FidelitySeries,
    Scenario,
    case_study_scenarios,
    paper_suite,
    peak_steps,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "DirectedEdgeSpace",
    "build_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite_graph",
    "standard_family",
    "edge_space",
    "parse_graph_file",
    "load_graph_file",
    "WalkOperators",
    "WalkStep",
    "walk_unitary",
    "walk_step",
    "sender_state",
    "receiver_state",
    "NoiseChannel",
    "rtn_channel",
    "oun_channel",
    "kraus_set",
    "Scenario",
    "FidelitySeries",
    "run_scenario",
    "case_study_scenarios",
    "paper_suite",
    "peak_steps",
    "write_csv",
    "render_svg",
    "write_matrix_csv",
]
