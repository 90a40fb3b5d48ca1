"""Transitive path decompositions of Cartesian products of complete graphs.

The package builds decompositions of the rook's graph K_n box K_m whose
blocks form a single orbit under a group of automorphisms, and verifies
every structural claim by independent recomputation.
"""

from .decompose import (
    CompleteGraph,
    Decomposition,
    Fixture,
    LabelEdge,
    NecessaryConditions,
    NotOddPrime,
    PartitionCheck,
    PreconditionFailed,
    Subgraph,
    TransversalCheck,
    VerificationReport,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    gallai_check,
    haggkvist_split,
    is_odd_prime,
    is_path_subgraph,
    k9_fixture,
    necessary_conditions,
    orbit_transversal_check,
    partition_witnesses,
    staircase_decomposition,
    subgraphs_isomorphic,
    verify_decomposition,
)
from .grid import (
    DimensionError,
    EdgeKind,
    GridEdge,
    GridGraph,
    GridVertex,
    Step,
    classify_edge,
    edge_difference,
    make_grid,
)
from .groups import (
    EdgeOrbit,
    FiniteGroup,
    GroupTooLarge,
    OrbitCensus,
    Permutation,
    automorphism_violation,
    diagonal_shift,
    edge_orbits,
    explicit_permutation,
    fixed_edge_witness,
    generate_group,
    identity_permutation,
    is_semiregular_on_edges,
    orbit_census,
    permutation_from_cycles,
    row_shift,
    same_orbit_row_shift,
)
from .serialize import (
    SchemaError,
    blocks_to_text,
    decomposition_to_json,
    dot_for_blocks,
    edges_to_text,
    export_dot,
    parse_decomposition,
)
from .staircase import (
    ConstructionInvalid,
    Walk,
    build_staircase_path,
    first_orbit_conflict,
    first_repeated_vertex,
    is_path,
    one_edge_per_orbit,
    partial_stretch_sum,
    staircase_array,
    stretch,
    walk_from_array,
)

__version__ = "0.1.0"
