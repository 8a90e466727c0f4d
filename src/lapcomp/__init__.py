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

Each module's `__all__` is the one declaration of its public names; the
package re-exports them all, in the order of the pipeline.  `cli` is the
entry point and exports nothing here.
"""

from . import (
    cone_engine, conjecture_lab, cycle_families, ehrhart_reflexive,
    exact_linalg, graph_core, tree_transforms,
)
from .cone_engine import *
from .conjecture_lab import *
from .cycle_families import *
from .ehrhart_reflexive import *
from .exact_linalg import *
from .graph_core import *
from .tree_transforms import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (exact_linalg, graph_core, cone_engine, tree_transforms,
                   cycle_families, conjecture_lab, ehrhart_reflexive)
    for name in module.__all__
]
