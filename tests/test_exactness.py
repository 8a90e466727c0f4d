"""No floating point in the library: a syntax scan of every module.

Everything in `lapcomp` is exact integer arithmetic.  The only rationals
are the `Fraction` coordinates `interior_point` returns, so `Fraction` may
appear inside that function alone, and on no hot path; true division,
float literals and the name `float` may appear nowhere.
"""

import ast
from pathlib import Path

import pytest

import lapcomp

MODULES = sorted(Path(lapcomp.__file__).parent.glob("*.py"))
FRACTION_FUNCTIONS = {"ehrhart_reflexive.py": {"interior_point"}}


def inexact_nodes(tree, fraction_functions=()):
    """(line, what) for every inexact construct in a module's syntax tree;
    `Fraction` passes only inside its top-level functions named in
    `fraction_functions`."""
    allowed = {id(node) for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name in fraction_functions
               for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
        elif id(node) not in allowed and (
            (isinstance(node, ast.Name) and node.id == "Fraction")
            or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
            or (isinstance(node, ast.alias) and node.name == "Fraction")
        ):
            found.append((getattr(node, "lineno", 0), "Fraction"))
    return found


def test_modules_found():
    assert {"cone_engine.py", "ehrhart_reflexive.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert inexact_nodes(tree, FRACTION_FUNCTIONS.get(path.name, ())) == []


@pytest.mark.parametrize("snippet,what", [
    ("x = a / b", "true division"),
    ("x /= 2", "true division"),
    ("x = 0.5", "float literal 0.5"),
    ("x = float(y)", "the name float"),
    ("from fractions import Fraction", "Fraction"),
    ("import fractions\nx = fractions.Fraction(1, 2)", "Fraction"),
])
def test_scan_catches(snippet, what):
    found = inexact_nodes(ast.parse(snippet))
    assert [w for _, w in found][:1] == [what]


def test_fraction_only_inside_named_functions():
    code = ("def f():\n    from fractions import Fraction\n    return Fraction(1, 2)\n\n"
            "def g():\n    return Fraction(1, 3)\n")
    assert inexact_nodes(ast.parse(code), {"f"}) == [(6, "Fraction")]
    assert [w for _, w in inexact_nodes(ast.parse(code))] == ["Fraction"] * 3


def test_scan_allows_exact_code():
    code = "x = a // b\ny = divmod(a, b)\nz = 10**8\nw = 'a/b 0.5 float'"
    assert inexact_nodes(ast.parse(code)) == []
