"""Transitive path decompositions of Cartesian products of complete graphs.

The package builds decompositions of the rook's graph K_n box K_m whose
blocks form a single orbit under a group of automorphisms, and verifies
every structural claim by independent recomputation.  The names below
are the ones README's Library section documents; everything else lives
in the submodules.
"""

from .decompose import (
    build_orbit_decomposition,
    gallai_check,
    haggkvist_split,
    is_path_subgraph,
    k9_fixture,
    staircase_decomposition,
    verify_decomposition,
)
from .groups import (
    edge_orbits,
    fixed_edge_witness,
    generate_group,
    orbit_census,
    same_orbit_row_shift,
)
from .serialize import (
    SchemaError,
    blocks_to_text,
    decomposition_to_json,
    export_dot,
    parse_decomposition,
)
from .staircase import (
    is_path,
    one_edge_per_orbit,
    partial_stretch_sum,
    staircase_array,
    stretch,
)

__version__ = "0.1.0"
