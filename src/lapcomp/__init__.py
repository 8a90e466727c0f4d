"""Exact generating functions and lattice-point counts for the cones cut
out by graph Laplacian minors.

The pipeline: build a graph and one of its Laplacian minors
(`graph_core`), treat the minor as the constraint matrix of a simplicial
cone, walk its fundamental parallelepiped or count it by a DP over the
critical group (`cone_engine`, `exact_linalg`), and specialize the
rational generating functions to trees (`tree_transforms`), leafed cycles
(`cycle_families`), conjecture checks (`conjecture_lab`), and
Ehrhart/reflexivity computations (`ehrhart_reflexive`).  Everything is
exact: arbitrary-precision integers throughout, with one fraction-free
(Bareiss) core giving each minor's determinant and scaled inverse.  The
only rationals are the fractional coordinates `interior_point` returns
for even n.
"""

from .cone_engine import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FppPointSet,
    IntegerPointTransform,
    SimplicialCone,
    UnivariateRationalGF,
    brute_force_count,
    cone_from_constraints,
    fpp_points,
    integer_point_transform,
    series_expand,
    specialize,
    specialized_gf,
)
from .conjecture_lab import (
    CyclicCheckReport,
    CyclicClass,
    NearSymmetryReport,
    ShiftProfileEntry,
    check_conjecture_cyclic,
    check_near_symmetry,
    compositions,
    count_cyclic_classes,
    cyclic_classes,
    integral_shift_profile,
    profile_entry_for,
)
from .cycle_families import leafed_gf
from .ehrhart_reflexive import (
    HalfspaceReport,
    HStarData,
    LatticeSimplex,
    NormalityReport,
    build_slice_simplex,
    dilate_count,
    dilate_points,
    h_star,
    interior_count,
    interior_point,
    normality_probe,
    reflexivity_by_halfspaces,
    reflexivity_by_interior_counts,
)
from .exact_linalg import (
    IntegerMatrix,
    SingularMatrixError,
    adjugate_pair,
    determinant,
)
from .graph_core import (
    MAX_VERTICES,
    Graph,
    GraphError,
    LaplacianMinor,
    build_family,
    complete_graph,
    cycle_graph,
    family_from_string,
    incidence_matrix,
    incidence_subminor,
    kary_tree,
    laplacian,
    laplacian_minor,
    leafed_cycle_graph,
    parse_graph,
    path_graph,
    spanning_tree_count,
)
from .tree_transforms import (
    BlockProblem,
    TreeInverse,
    block_reduction,
    block_reduction_inverse,
    incidence_inverse,
    kary_exponent,
    kary_gf,
    q_integer,
    random_tree,
    tree_from_pruefer,
    tree_gf,
    tree_gf_exponents,
    tree_inverse_combinatorial,
    verify_tree_identities,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linear algebra
    "IntegerMatrix", "SingularMatrixError", "determinant", "adjugate_pair",
    # graphs
    "MAX_VERTICES", "Graph", "GraphError", "LaplacianMinor", "build_family",
    "family_from_string", "path_graph", "cycle_graph", "leafed_cycle_graph",
    "kary_tree", "complete_graph", "laplacian", "laplacian_minor",
    "incidence_matrix", "incidence_subminor", "spanning_tree_count",
    "parse_graph",
    # cones
    "SimplicialCone", "FppPointSet", "IntegerPointTransform",
    "UnivariateRationalGF", "BudgetExceededError", "DEFAULT_BUDGET",
    "cone_from_constraints", "fpp_points", "integer_point_transform",
    "specialize", "specialized_gf", "series_expand", "brute_force_count",
    # trees
    "TreeInverse", "BlockProblem", "tree_inverse_combinatorial",
    "incidence_inverse", "block_reduction", "block_reduction_inverse",
    "tree_gf_exponents", "tree_gf", "q_integer", "kary_exponent", "kary_gf",
    "tree_from_pruefer", "random_tree", "verify_tree_identities",
    # cycles
    "leafed_gf",
    # conjectures
    "CyclicClass", "ShiftProfileEntry", "CyclicCheckReport",
    "NearSymmetryReport", "compositions", "cyclic_classes",
    "count_cyclic_classes", "integral_shift_profile", "profile_entry_for",
    "check_conjecture_cyclic", "check_near_symmetry",
    # Ehrhart
    "LatticeSimplex", "HStarData", "HalfspaceReport", "NormalityReport",
    "build_slice_simplex", "interior_point", "reflexivity_by_halfspaces",
    "dilate_points", "dilate_count", "interior_count", "h_star",
    "reflexivity_by_interior_counts", "normality_probe",
]
