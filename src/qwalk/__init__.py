"""Coined quantum walks on graph edge spaces under non-Markovian dephasing.

The package simulates discrete-time coined walks whose Hilbert space is
spanned by the directed edges of a simple graph, measures state-transfer
and periodicity fidelity over time, and models noise with Weyl-operator
dephasing channels driven by random-telegraph or Ornstein-Uhlenbeck
memory kernels.
"""

from .channels import (
    KrausSet,
    NoiseChannel,
    apply_channel,
    dephased_fidelity,
    kraus_set,
    oun_channel,
    oun_kernel,
    rtn_channel,
    rtn_kernel,
    weyl_operator,
)
from .evolution import evolve_pure
from .fidelity import fidelity_density, fidelity_pure, fidelity_pure_target
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
from .linalg import hermitian_eig, is_unitary, psd_sqrt
from .operators import (
    WalkOperators,
    WalkSpec,
    WalkStep,
    coin_operator,
    grover_diffusion,
    receiver_state,
    sender_state,
    shift_operator,
    walk_spec,
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
    "is_unitary",
    "hermitian_eig",
    "psd_sqrt",
    "WalkSpec",
    "WalkOperators",
    "WalkStep",
    "walk_spec",
    "grover_diffusion",
    "coin_operator",
    "shift_operator",
    "walk_unitary",
    "walk_step",
    "sender_state",
    "receiver_state",
    "NoiseChannel",
    "KrausSet",
    "weyl_operator",
    "rtn_kernel",
    "oun_kernel",
    "rtn_channel",
    "oun_channel",
    "kraus_set",
    "apply_channel",
    "dephased_fidelity",
    "evolve_pure",
    "fidelity_pure",
    "fidelity_density",
    "fidelity_pure_target",
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
