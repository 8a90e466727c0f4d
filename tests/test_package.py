"""The package's public surface: `lapcomp` re-exports every module's `__all__`."""

import importlib
import pkgutil

import lapcomp

# Family closed forms that live in tests/oracles.py, not in the library.
ORACLE_NAMES = (
    "ModStructureReport", "cycle_inverse_closed", "leafed_inverse_closed",
    "mod_structure",
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
