"""Exact planar Steiner trees for small terminal sets and the self-similar
ladder networks on an angle, with their interval-contraction dynamics."""

from .analysis import (
    ValidityReport,
    WindRose,
    block_decompose,
    classify,
    is_decomposable,
    local_min_gradient,
    maxwell_length,
    self_similarity_defect,
    trees_mirror_equal,
    validate_steiner_geometry,
    wind_rose,
)
from .dynamics import (
    DynamicsParams,
    Orbit,
    derive_params,
    forward_map,
    inverse_map,
    iterate,
    orbit_from_tree,
    periodic_points,
    tree_from_orbit,
)
from .errors import (
    DegenerateInputError,
    EscapeError,
    ForbiddenPointError,
    ParameterError,
)
from .geometry import HexFrame, angle_at
from .ladder import (
    LadderParams,
    build_input,
    build_ladder_tree_A0,
    build_ladder_tree_A1,
    closed_form_length_A0,
    closed_form_length_A1,
    condition_holds,
    length_by_J,
    separation_gap,
    separation_predicate,
    x_point,
)
from .solver import (
    SteinerSolution,
    minimal_full_tree,
    minimum_spanning_tree,
    realize_full_topology,
    solve_exact,
    steiner_ratio,
)
from .topology import (
    Topology,
    count_full_topologies,
    enumerate_full_topologies,
)
from .trees import EmbeddedTree, TerminalSet

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "DynamicsParams",
    "EmbeddedTree",
    "EscapeError",
    "ForbiddenPointError",
    "HexFrame",
    "LadderParams",
    "Orbit",
    "ParameterError",
    "SteinerSolution",
    "TerminalSet",
    "Topology",
    "ValidityReport",
    "WindRose",
    "angle_at",
    "block_decompose",
    "build_input",
    "build_ladder_tree_A0",
    "build_ladder_tree_A1",
    "classify",
    "closed_form_length_A0",
    "closed_form_length_A1",
    "condition_holds",
    "count_full_topologies",
    "derive_params",
    "enumerate_full_topologies",
    "forward_map",
    "inverse_map",
    "is_decomposable",
    "iterate",
    "length_by_J",
    "local_min_gradient",
    "maxwell_length",
    "minimal_full_tree",
    "minimum_spanning_tree",
    "orbit_from_tree",
    "periodic_points",
    "realize_full_topology",
    "self_similarity_defect",
    "separation_gap",
    "separation_predicate",
    "solve_exact",
    "steiner_ratio",
    "tree_from_orbit",
    "trees_mirror_equal",
    "validate_steiner_geometry",
    "wind_rose",
    "x_point",
]
