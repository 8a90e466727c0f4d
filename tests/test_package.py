"""The package's public surface: `lapcomp` re-exports every module's `__all__`."""

import importlib
import inspect
import pkgutil

import lapcomp

# Family closed forms that live in tests/oracles.py, not in the library.
ORACLE_NAMES = (
    "ModStructureReport", "cycle_inverse_closed", "leafed_inverse_closed",
    "mod_structure",
)
# Names and parameters that no module, command or acceptance test used,
# deleted from the library.  The spanning-tree count is the determinant of
# any Laplacian minor, and tests/oracles.py keeps `normalized_volume`.
# A Laplacian minor is its `IntegerMatrix`, a cone is `SimplicialCone(A)`,
# and `Graph.degrees()` gives every degree at once.
REMOVED_NAMES = ("spanning_tree_count", "LaplacianMinor", "cone_from_constraints")
REMOVED_ATTRIBUTES = (
    ("Graph", "degree"),
    ("IntegerPointTransform", "from_json_dict"),
    ("LatticeSimplex", "normalized_volume"),
    ("IntegerMatrix", "zeros"),
    ("IntegerMatrix", "scale"),
)
REMOVED_PARAMETERS = (
    ("graph_core", "parse_graph", "require_connected"),
    ("cone_engine", "polynomial_string", "var"),
)


def submodule_exports():
    """name -> object over the submodules' `__all__`s, without `cli.main`."""
    exports = {}
    for info in pkgutil.iter_modules(lapcomp.__path__):
        module = importlib.import_module(f"lapcomp.{info.name}")
        for name in module.__all__:
            if (info.name, name) != ("cli", "main"):
                assert name not in exports, f"{name} exported twice"
                exports[name] = getattr(module, name)
    return exports


def test_all_is_the_union_of_the_submodules():
    exports = submodule_exports()
    assert len(lapcomp.__all__) == len(set(lapcomp.__all__))
    assert set(lapcomp.__all__) == set(exports) | {"__version__"}
    for name, value in exports.items():
        assert getattr(lapcomp, name) is value, name
    assert isinstance(lapcomp.__version__, str)


def test_oracles_are_not_exported():
    for name in ORACLE_NAMES:
        assert name not in lapcomp.__all__
        assert not hasattr(lapcomp, name)


def test_removed_names_are_gone():
    exports = submodule_exports()
    for name in REMOVED_NAMES:
        assert name not in lapcomp.__all__ and name not in exports
        assert not hasattr(lapcomp, name)
    for owner, name in REMOVED_ATTRIBUTES:
        assert not hasattr(getattr(lapcomp, owner), name), (owner, name)
    for module, function, name in REMOVED_PARAMETERS:
        owner = importlib.import_module(f"lapcomp.{module}")
        assert name not in inspect.signature(getattr(owner, function)).parameters, name
