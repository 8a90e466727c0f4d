"""The package's JSON form: every integer is written as a decimal string.

Each report's `json.dumps(to_json_dict(), indent=2)` is pinned byte for
byte, since the CLI prints exactly that.
"""

import json

import pytest

from lapcomp.cli import main
from lapcomp.cone_engine import (
    IntegerPointTransform,
    UnivariateRationalGF,
    _json_form,
)
from lapcomp.conjecture_lab import NearSymmetryReport, check_conjecture_cyclic
from lapcomp.ehrhart_reflexive import (
    LatticeSimplex,
    NormalityReport,
    build_slice_simplex,
    h_star,
    normality_probe,
    reflexivity_by_halfspaces,
)
from lapcomp.exact_linalg import IntegerMatrix

PINNED = {
    "halfspace_certified": (
        lambda: reflexivity_by_halfspaces(3),
        """\
{
  "n": "3",
  "reflexive": true,
  "reason": "certified",
  "translation": [
    "4",
    "4"
  ],
  "reduced_matrix": [
    [
      "-1",
      "-1"
    ],
    [
      "2",
      "-1"
    ],
    [
      "-1",
      "2"
    ]
  ],
  "rhs": [
    "-1",
    "-1",
    "-1"
  ],
  "translated_vertices": [
    [
      "-1",
      "-1"
    ],
    [
      "1",
      "0"
    ],
    [
      "0",
      "1"
    ]
  ]
}""",
    ),
    "halfspace_refuted": (
        lambda: reflexivity_by_halfspaces(4),
        """\
{
  "n": "4",
  "reflexive": false,
  "reason": "canonical interior point is not integral",
  "translation": null,
  "reduced_matrix": null,
  "rhs": null,
  "translated_vertices": null
}""",
    ),
    "h_star_leafed_slice": (
        lambda: h_star(build_slice_simplex(3)),
        """\
{
  "h_star": [
    "1",
    "1",
    "1"
  ],
  "dilate_counts": [
    "1",
    "4",
    "10"
  ],
  "palindromic": true,
  "unimodal": true,
  "reflexive_certificate": true
}""",
    ),
    "h_star_generic_simplex": (
        lambda: h_star(LatticeSimplex(2, [(0, 0), (2, 0), (0, 3)])),
        """\
{
  "h_star": [
    "1",
    "4",
    "1"
  ],
  "dilate_counts": [
    "1",
    "7",
    "19"
  ],
  "palindromic": true,
  "unimodal": true,
  "reflexive_certificate": null
}""",
    ),
    "normality_without_counterexample": (
        lambda: normality_probe(build_slice_simplex(3)),
        """\
{
  "m_max": "2",
  "results": [
    true,
    true
  ],
  "normal_up_to": "2",
  "counterexample": null
}""",
    ),
    "normality_with_counterexample": (
        lambda: NormalityReport(3, (True, False, True), 1, (2, (1, -4, 2**70))),
        """\
{
  "m_max": "3",
  "results": [
    true,
    false,
    true
  ],
  "normal_up_to": "1",
  "counterexample": {
    "m": "2",
    "point": [
      "1",
      "-4",
      "1180591620717411303424"
    ]
  }
}""",
    ),
    "cyclic_check": (
        lambda: check_conjecture_cyclic(3, 2),
        """\
{
  "n": "3",
  "m_max": "2",
  "rows": [
    {
      "n": "3",
      "m": "0",
      "lhs": "1",
      "rhs": "1",
      "match": true
    },
    {
      "n": "3",
      "m": "1",
      "lhs": "1",
      "rhs": "1",
      "match": true
    },
    {
      "n": "3",
      "m": "2",
      "lhs": "2",
      "rhs": "2",
      "match": true
    }
  ],
  "all_match": true
}""",
    ),
    "near_symmetry_divided": (
        lambda: NearSymmetryReport(2, 4, True, [1, -1], [1, 0, -1], [1, 0, -1], True,
                       [1, -3], [1, -3], True),
        """\
{
  "k": "2",
  "n": "4",
  "division_exact": true,
  "f": [
    "1",
    "-1"
  ],
  "difference": [
    "1",
    "0",
    "-1"
  ],
  "expected": [
    "1",
    "0",
    "-1"
  ],
  "verdict": true,
  "numerator_difference": [
    "1",
    "-3"
  ],
  "numerator_expected": [
    "1",
    "-3"
  ],
  "numerator_match": true
}""",
    ),
    "near_symmetry_undivided": (
        lambda: NearSymmetryReport(3, 8, False, None, None, [1, -1], False,
                       [1, 0, -1], [1, 0, -1], True),
        """\
{
  "k": "3",
  "n": "8",
  "division_exact": false,
  "f": null,
  "difference": null,
  "expected": [
    "1",
    "-1"
  ],
  "verdict": false,
  "numerator_difference": [
    "1",
    "0",
    "-1"
  ],
  "numerator_expected": [
    "1",
    "0",
    "-1"
  ],
  "numerator_match": true
}""",
    ),
    "univariate_gf": (
        lambda: UnivariateRationalGF([1, -2, 0, 2**70], [(5, 4), (2, 1)]),
        """\
{
  "num": [
    "1",
    "-2",
    "0",
    "1180591620717411303424"
  ],
  "den": [
    [
      "2",
      "1"
    ],
    [
      "5",
      "4"
    ]
  ]
}""",
    ),
    "repeated_rays": (
        lambda: IntegerPointTransform([(1, -2), (0, 0)], [(2, 1), (3, 0), (2, 1), (2, 1)]),
        """\
{
  "numerator": [
    [
      "0",
      "0"
    ],
    [
      "1",
      "-2"
    ]
  ],
  "denominator": [
    {
      "ray": [
        "2",
        "1"
      ],
      "mult": "3"
    },
    {
      "ray": [
        "3",
        "0"
      ],
      "mult": "1"
    }
  ]
}""",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_report_json_bytes_are_pinned(name):
    build, expected = PINNED[name]
    assert json.dumps(build().to_json_dict(), indent=2) == expected


class TestJsonForm:
    def test_bools_none_and_strings_pass_through(self):
        assert _json_form([True, False, None, "x", "12"]) == [True, False, None, "x", "12"]
        assert _json_form(True) is True

    def test_integers_become_decimal_strings(self):
        assert _json_form([0, -7, 2**70, -(2**70)]) == [
            "0", "-7", "1180591620717411303424", "-1180591620717411303424",
        ]

    def test_nesting(self):
        value = {"b": ((1, -2), ()), "a": IntegerMatrix([[3, 0], [-1, 4]])}
        form = _json_form(value)
        assert form == {"b": [["1", "-2"], []], "a": [["3", "0"], ["-1", "4"]]}
        assert list(form) == ["b", "a"]

    @pytest.mark.parametrize("name", PINNED)
    def test_idempotent(self, name):
        form = PINNED[name][0]().to_json_dict()
        assert _json_form(form) == form


CLI_JSON = [
    ["gf", "--family", "cycle:4"],
    ["gf", "--family", "cycle:4", "--spec", "total"],
    ["series", "--family", "leafed_cycle:3", "--order", "5"],
    ["check", "cyclic", "3", "4"],
    ["check", "near_symmetry", "2"],
    ["check", "reflexive", "3"],
    ["check", "reflexive", "4"],
    ["check", "tree_equivalence", "1", "2"],
    ["ehrhart", "3"],
    ["ehrhart", "4", "--normal-m", "0"],
    ["fpp", "--family", "cycle:4"],
    ["tree-inverse", "--family", "path:4"],
]


def json_numbers(text):
    """Every number literal in a JSON document."""
    found = []
    json.loads(text, parse_int=found.append, parse_float=found.append,
               parse_constant=found.append)
    return found


@pytest.mark.parametrize("argv", CLI_JSON, ids=" ".join)
def test_cli_json_has_no_numbers(capsys, argv):
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) and json_numbers(out) == []


def test_series_file_json_has_no_numbers(capsys, tmp_path):
    f = tmp_path / "gf.json"
    assert main(["gf", "--family", "kary:2,2", "--spec", "first", "--json"]) == 0
    f.write_text(capsys.readouterr().out)
    assert main(["series", "--file", str(f), "--order", "6", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["order"] == "6" and json_numbers(out) == []


def test_json_numbers_finds_every_number():
    assert json_numbers('[1, "2", true, null, {"a": -0.5, "b": NaN}]') == ["1", "-0.5", "NaN"]
