"""End-to-end tests of the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout/stderr can be asserted exactly.
"""

import contextlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lapcomp import (
    SimplicialCone,
    UnivariateRationalGF,
    cone_engine,
    exact_linalg,
    fpp_points,
    integer_point_transform,
    laplacian_minor,
    parse_graph,
    series_expand,
    specialize,
)
from lapcomp import cli
from lapcomp.cli import _CHECKS, _build_parser, main
from lapcomp.graph_core import family_from_string
from golden import regen
from oracles import transform_by_tuples


# What `check reflexive 3` and `ehrhart 3` print when the interior-count
# test is forced to contradict the halfspace certificate.
DISAGREEMENT = ("error: internal identity failed: reflexivity tests disagree "
                "for n=3: halfspaces say True, interior counts say False\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGf:
    def test_specialized_text(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--family", "leafed_cycle:3", "--spec", "first"
        )
        assert code == 0
        assert out.strip() == "(1 + q + 2q^2 + q^3 + 2q^4 + q^5 + q^6)/(1 - q^3)^3"

    def test_specialized_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--family", "leafed_cycle:3", "--spec", "first",
            "--json",
        )
        assert code == 0
        gf = UnivariateRationalGF.from_json_dict(json.loads(out))
        assert series_expand(gf, 5) == [1, 1, 2, 4, 5, 7]

    def test_multivariate_json(self, capsys):
        code, out, _ = run(
            capsys, "gf", "--family", "cycle:3", "--minor", "0", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["numerator"] == [["0", "0"], ["1", "1"], ["2", "2"]]
        assert all(isinstance(e["mult"], str) for e in data["denominator"])

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "gf", "--family", "path:3", "--file", "x")
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, "gf")
        assert code == 2 and "exactly one" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gf", "--family", "torus:3")
        assert code == 2 and "unknown family" in err

    def test_minor_out_of_range(self, capsys):
        code, _, err = run(capsys, "gf", "--family", "path:3", "--minor", "7")
        assert code == 2 and "out of range" in err

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "leafed3.txt"
        f.write_text("# leafed 3-cycle\n4\n0 1\n1 2\n0 2\n0 3\n")
        code_file, out_file, _ = run(
            capsys, "gf", "--file", str(f), "--spec", "first"
        )
        code_fam, out_fam, _ = run(
            capsys, "gf", "--family", "leafed_cycle:3", "--spec", "first"
        )
        assert code_file == code_fam == 0
        assert out_file == out_fam

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "gf", "--file", str(tmp_path / "no.txt"))
        assert code == 2 and err.startswith("error:")

    def test_disconnected_file(self, capsys, tmp_path):
        f = tmp_path / "dis.txt"
        f.write_text("4\n0 1\n2 3\n")
        code, _, err = run(capsys, "gf", "--file", str(f))
        assert code == 2 and "not connected" in err


class TestSeries:
    def test_family_route(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "leafed_cycle:3", "--spec", "first",
            "--order", "8",
        )
        assert code == 0
        assert out.strip() == "[1, 1, 2, 4, 5, 7, 10, 12, 15]"

    def test_json_coefficients_are_strings(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "path:3", "--order", "4", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["order"] == "4"
        assert all(isinstance(c, str) for c in data["coefficients"])

    def test_file_route(self, capsys, tmp_path):
        _, gf_json, _ = run(
            capsys, "gf", "--family", "leafed_cycle:3", "--spec", "first",
            "--json",
        )
        f = tmp_path / "gf.json"
        f.write_text(gf_json)
        code, out, _ = run(
            capsys, "series", "--file", str(f), "--order", "8"
        )
        assert code == 0
        assert out.strip() == "[1, 1, 2, 4, 5, 7, 10, 12, 15]"

    def test_bad_json_file(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"numerator": "oops"}')
        code, _, err = run(capsys, "series", "--file", str(f), "--order", "3")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("text,message", [
        ('{"num": [1.5], "den": [["2", "1"]]}',
         "num[0] must be an integer or a decimal string, got 1.5"),
        ('{"num": "12", "den": [["2", "1"]]}',
         "the top level must be a JSON object with a list 'num'"),
        ('{"num": [true], "den": [[2, 1]]}',
         "num[0] must be an integer or a decimal string, got True"),
        ('{"num": ["1_0"], "den": [["2", "1"]]}',
         "num[0] must be an integer or a decimal string, got '1_0'"),
        ('{"num": ["1"], "den": [["2", " 1"]]}',
         "den[0][1] must be an integer or a decimal string, got ' 1'"),
        ("[1]", "the top level must be a JSON object with a list 'num'"),
        ('{"num": ["1"]}', "the top level must be a JSON object with a list 'den'"),
        ('{"num": ["1"], "den": {"2": "1"}}',
         "the top level must be a JSON object with a list 'den'"),
        ('{"num": ["1"], "den": [["2", "1", "1"]]}',
         "den[0] must be a list of 2, got ['2', '1', '1']"),
        # JSON integers past int()'s default limit are refused as json reads
        # them, before Python's own conversion error.
        ('{"num": [' + "9" * 5000 + '], "den": [["1", "1"]]}',
         "JSON integer of more than 4300 digits"),
        ('{"num": ["1"], "den": [[-' + "1" * 4301 + ', 1]]}',
         "JSON integer of more than 4300 digits"),
    ], ids=["float", "bare_string", "bool", "underscore", "space", "top_level_list",
            "missing_den", "den_not_a_list", "den_entry_not_a_pair", "long_number",
            "long_negative_number"])
    def test_malformed_gf_file(self, capsys, tmp_path, text, message):
        f = tmp_path / "gf.json"
        f.write_text(text)
        assert run(capsys, "series", "--file", str(f), "--order", "3") == (
            2, "", f"error: {message}\n")

    def test_gf_file_takes_json_integers_and_decimal_strings(self, capsys, tmp_path):
        f = tmp_path / "gf.json"
        f.write_text('{"num": [1, "-1", "0", 0], "den": [[1, "1"]]}')
        assert run(capsys, "series", "--file", str(f), "--order", "3") == (
            0, "[1, 0, 0, 0]\n", "")

    def test_gf_file_takes_json_integers_of_4300_digits(self, capsys, tmp_path):
        f = tmp_path / "gf.json"
        f.write_text('{"num": [' + "9" * 4300 + '], "den": [["1", "1"]]}')
        assert run(capsys, "series", "--file", str(f), "--order", "1") == (
            0, "[" + ", ".join(["9" * 4300] * 2) + "]\n", "")

    def test_negative_order(self, capsys):
        code, _, err = run(
            capsys, "series", "--family", "path:3", "--order", "-1"
        )
        assert code == 2 and "order" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "series", "--order", "3")
        assert code == 2 and "exactly one" in err

    def test_order_is_budgeted(self, capsys, monkeypatch):
        monkeypatch.delenv("LAPCOMP_BUDGET", raising=False)
        # 1/((1 - q^2)(1 - q^3)) to order 10: 11 coefficients, updated once
        # by each factor's one pass, 33 in all.
        argv = ["series", "--family", "path:3", "--order", "10"]
        assert run(capsys, *argv, "--budget", "33") == (
            0, "[1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2]\n", "")
        assert run(capsys, *argv, "--budget", "32") == (
            2, "", "error: budget exhausted: series needs 33 coefficient "
                   "updates; budget is 32\n")
        # An order past the default budget is refused before its list is made.
        assert run(capsys, "series", "--family", "path:3", "--order", "1000000000") == (
            2, "", "error: budget exhausted: series needs 3000000003 coefficient "
                   "updates; budget is 100000000\n")

    def test_file_order_is_budgeted(self, capsys, tmp_path):
        # (1 - q)^3000 takes order // 1 = 12 passes, not 3000; (1 - q^3)^17
        # takes 4 and (1 - q^5) one: 13 * (1 + 12 + 4 + 1) = 234 updates.
        f = tmp_path / "gf.json"
        f.write_text('{"num": [1], "den": [[1, 3000], [3, 17], [5, 1]]}')
        argv = ["series", "--file", str(f), "--order", "12"]
        assert run(capsys, *argv, "--budget", "234")[0] == 0
        assert run(capsys, *argv, "--budget", "233") == (
            2, "", "error: budget exhausted: series needs 234 coefficient "
                   "updates; budget is 233\n")


class TestCheck:
    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "check", "cyclic", "3", "12")
        assert code == 0
        assert "13/13 match" in out
        assert "MISMATCH" not in out

    def test_cyclic_series_is_budgeted(self, capsys, monkeypatch):
        monkeypatch.delenv("LAPCOMP_BUDGET", raising=False)
        # 1/(1 - q^3)^3 to order 5: 6 coefficients, one pass, 12 updates.
        assert run(capsys, "check", "cyclic", "3", "5", "--budget", "12")[0] == 0
        assert run(capsys, "check", "cyclic", "3", "5", "--budget", "11") == (
            2, "", "error: budget exhausted: series needs 12 coefficient "
                   "updates; budget is 11\n")
        monkeypatch.setenv("LAPCOMP_BUDGET", "1000")
        # Three passes over 400,001 coefficients, refused before the list.
        assert run(capsys, "check", "cyclic", "3", "400000") == (
            2, "", "error: budget exhausted: series needs 1600004 coefficient "
                   "updates; budget is 1000\n")

    def test_cyclic_json(self, capsys):
        code, out, _ = run(capsys, "check", "cyclic", "4", "6", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["all_match"] is True
        assert data["rows"][0]["lhs"] == "1"

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_cyclic_mismatch_is_exit_one(self, capsys, monkeypatch, fmt):
        import lapcomp.conjecture_lab as lab

        real = lab.count_cyclic_classes
        monkeypatch.setattr(lab, "count_cyclic_classes",
                            lambda m, n: real(m, n) + (m == 2))
        code, out, err = run(capsys, "check", "cyclic", "3", "4", *fmt)
        assert code == 1 and err == ""
        if fmt:
            data = json.loads(out)
            assert data["all_match"] is False
            assert [row["match"] for row in data["rows"]] == [
                True, True, False, True, True,
            ]
        else:
            assert "m=2: coefficient 2 vs classes 3 MISMATCH" in out
            assert "4/5 match" in out

    def test_cyclic_wrong_arity(self, capsys):
        code, _, err = run(capsys, "check", "cyclic", "3")
        assert code == 2 and "parameter" in err

    def test_near_symmetry(self, capsys):
        code, out, _ = run(capsys, "check", "near_symmetry", "2")
        assert code == 0
        assert "verdict: False" in out
        assert "numerator-level identity holds: True" in out

    def test_reflexive_positive(self, capsys):
        code, out, _ = run(capsys, "check", "reflexive", "3")
        assert code == 0
        assert "reflexive=True" in out and "agrees" in out

    def test_reflexive_negative_is_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "reflexive", "8")
        assert code == 0
        assert "reflexive=False" in out

    def test_reflexive_disagreement_is_exit_one(self, capsys, monkeypatch):
        import lapcomp.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "reflexivity_by_interior_counts",
            lambda *a, **k: False,
        )
        assert run(capsys, "check", "reflexive", "3") == (1, "", DISAGREEMENT)

    def test_ehrhart_disagreement_is_exit_one(self, capsys, monkeypatch):
        import lapcomp.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "reflexivity_by_interior_counts",
            lambda *a, **k: False,
        )
        assert run(capsys, "ehrhart", "3") == (1, "", DISAGREEMENT)

    def test_tree_equivalence(self, capsys):
        code, out, _ = run(capsys, "check", "tree_equivalence", "11", "25")
        assert code == 0
        assert "25 random trees: all identities hold" in out

    def test_tree_equivalence_failure_is_exit_one(self, capsys, monkeypatch):
        import lapcomp.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "verify_tree_identities",
            lambda t, leaf: ["forced failure"],
        )
        code, out, _ = run(capsys, "check", "tree_equivalence", "1", "2")
        assert code == 1
        assert "forced failure" in out

    def test_unknown_target_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "everything"])
        assert exc.value.code == 2

    def test_non_integer_params_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "cyclic", "three", "12"])
        assert exc.value.code == 2


class TestEhrhart:
    def test_reflexive_case_json(self, capsys):
        code, out, _ = run(capsys, "ehrhart", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["h_star"] == ["1", "1", "1"]
        assert data["dilate_counts"] == ["1", "4", "10"]
        assert data["palindromic"] is True
        assert data["reflexive"] is True
        assert data["normal_up_to"] == "2"

    def test_non_reflexive_case(self, capsys):
        code, out, _ = run(capsys, "ehrhart", "4", "--normal-m", "0")
        assert code == 0
        assert "h*: [1, 6, 9, 0]" in out
        assert "reflexive=False" in out
        assert "normal up to" not in out

    def test_normality_skip_in_json(self, capsys):
        code, out, _ = run(capsys, "ehrhart", "3", "--normal-m", "0", "--json")
        assert code == 0
        assert json.loads(out)["normal_up_to"] is None

    def test_too_small(self, capsys):
        code, _, err = run(capsys, "ehrhart", "2")
        assert code == 2 and err.startswith("error:")

    def test_normality_six(self, capsys):
        code, out, _ = run(capsys, "ehrhart", "6", "--normal-m", "2")
        assert code == 0
        assert out.splitlines() == [
            "n=6, dimension 5",
            "vertices: [(6, 6, 6, 6, 6), (11, 10, 9, 8, 7), (10, 14, 12, 10, 8), "
            "(9, 12, 15, 12, 9), (8, 10, 12, 14, 10), (7, 8, 9, 10, 11)]",
            "dilate counts: [1, 80, 1038, 5620, 19811, 54132]",
            "h*: [1, 74, 573, 572, 76, 0]",
            "palindromic=False unimodal=True reflexive=False",
            "normal up to dilate 2",
        ]

    def test_normality_eight_refused(self, capsys):
        code, out, err = run(capsys, "ehrhart", "8", "--normal-m", "2")
        assert code == 2 and out == ""
        assert err == (
            "error: budget exhausted: box scan needs 4459640625 candidates, "
            "budget is 100000000\n"
        )


class TestFpp:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "fpp", "--family", "cycle:3", "--minor", "0")
        assert code == 0
        assert out.splitlines() == [
            "determinant 3, 3 lattice points",
            "digits [0, 0] -> point [0, 0]",
            "digits [1, 1] -> point [1, 1]",
            "digits [2, 2] -> point [2, 2]",
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "fpp", "--family", "cycle:3", "--minor", "0", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["determinant"] == "3"
        assert data["points"][1] == {"digits": ["1", "1"], "point": ["1", "1"]}

    def test_oversized_instance(self, capsys):
        code, _, err = run(capsys, "fpp", "--family", "complete:6")
        assert code == 2
        assert "budget" in err and "2821109907456" in err


class TestTreeInverse:
    def test_default_leaf(self, capsys):
        code, out, _ = run(capsys, "tree-inverse", "--family", "path:4")
        assert code == 0
        assert out.splitlines() == [
            "leaf 3, vertex order [0, 1, 2]",
            "3 2 1",
            "2 2 1",
            "1 1 1",
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "tree-inverse", "--family", "kary:2,2", "--minor", "0",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["leaf"] == "0"
        assert data["vertices"] == ["1", "2", "3"]

    def test_non_tree_rejected(self, capsys):
        code, _, err = run(capsys, "tree-inverse", "--family", "cycle:4")
        assert code == 2 and "not a tree" in err

    @pytest.mark.parametrize("levels", ["20000", "200000"])
    def test_huge_family_refused_unwritten(self, capsys, levels):
        # A vertex count too long for int-to-str is refused by its bound.
        assert run(capsys, "tree-inverse", "--family", f"kary:2,{levels}") == (
            2, "", "error: graph has at least 10**4300 vertices; limit is 64\n")

    def test_internal_vertex_rejected(self, capsys):
        code, _, err = run(
            capsys, "tree-inverse", "--family", "path:4", "--minor", "1"
        )
        assert code == 2


def materialized_gf(g, mode):
    cone = SimplicialCone(laplacian_minor(g, g.vertex_count - 1))
    return specialize(integer_point_transform(cone), mode)


def expected_stdout(text, payload, as_json):
    return (json.dumps(payload, indent=2) if as_json else text) + "\n"


# A 5-cycle with the chord 1-3: d = 11, minored at vertex 4.
CHORDED_CYCLE = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n1 3\n"
STREAMED_FAMILIES = ["cycle:5", "leafed_cycle:4", "complete:4", "kary:2,2"]
SPECS = [("total", "total"), ("first", "first_coordinate")]
# An integer of more digits than int() reads from a str by default: the
# package refuses it as it refuses any other misspelled integer.
HUGE = pytest.param("9" * 5000, id="5000_nines")
BUDGET_ERROR = (
    "error: budget exhausted: parallelepiped has 2821109907456 lattice "
    "points; budget is 100000000\n"
)


class TestStreamedSpecialization:
    """`gf --spec` and `series --family` stream the walk; their stdout must
    be byte-identical to the materialized `specialize(integer_point_transform(...))`."""

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("spec,mode", SPECS)
    @pytest.mark.parametrize("family", STREAMED_FAMILIES)
    def test_gf_family(self, capsys, family, spec, mode, as_json):
        gf = materialized_gf(family_from_string(family), mode)
        argv = ["gf", "--family", family, "--spec", spec] + ["--json"] * as_json
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected_stdout(str(gf), gf.to_json_dict(), as_json)

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("spec,mode", SPECS)
    def test_gf_file(self, capsys, tmp_path, spec, mode, as_json):
        f = tmp_path / "chorded.txt"
        f.write_text(CHORDED_CYCLE)
        gf = materialized_gf(parse_graph(CHORDED_CYCLE), mode)
        assert gf.denominator and sum(gf.numerator) == 11 ** 3
        argv = ["gf", "--file", str(f), "--spec", spec] + ["--json"] * as_json
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected_stdout(str(gf), gf.to_json_dict(), as_json)

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("spec,mode", SPECS)
    @pytest.mark.parametrize("family", STREAMED_FAMILIES)
    def test_series_family(self, capsys, family, spec, mode, as_json):
        coeffs = series_expand(materialized_gf(family_from_string(family), mode), 12)
        text = "[" + ", ".join(str(c) for c in coeffs) + "]"
        payload = {"order": "12", "coefficients": [str(c) for c in coeffs]}
        argv = ["series", "--family", family, "--spec", spec, "--order", "12"]
        code, out, _ = run(capsys, *argv + ["--json"] * as_json)
        assert code == 0
        assert out == expected_stdout(text, payload, as_json)

    def test_tree_output_unchanged(self, capsys):
        code, out, _ = run(capsys, "gf", "--family", "path:5", "--spec", "total")
        assert code == 0
        assert out == "1/(1 - q^4)(1 - q^7)(1 - q^9)(1 - q^10)\n"

    @pytest.mark.parametrize("argv", [
        ["gf", "--family", "complete:6", "--spec", "total"],
        ["series", "--family", "complete:6", "--order", "3"],
        ["fpp", "--family", "complete:6"],
    ])
    def test_oversized_instance_refused_like_fpp(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("LAPCOMP_BUDGET", raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", BUDGET_ERROR)


def graph_text(n, extra, seed):
    """A connected graph on n vertices in the `--file` format: a random
    tree, in which vertex n - 1 is a leaf, plus `extra` other edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges |= set(rng.sample(free, extra))
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


class TestRaysOnDemand:
    """A tree's specialized gf needs d = 1 and one solve, and a refusal
    needs d alone: none of them may build the ray matrix R."""

    def test_same_output_without_the_adjugate(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("LAPCOMP_BUDGET", raising=False)
        tree, dense = tmp_path / "tree.txt", tmp_path / "dense.txt"
        tree.write_text(graph_text(28, 0, 1))
        dense.write_text(graph_text(26, 8, 2))
        argvs = [["gf", "--file", str(tree), "--spec", spec] + ["--json"] * as_json
                 for spec in ("total", "first") for as_json in (False, True)]
        argvs += [[command, *source] + spec
                  for source in (["--file", str(dense)], ["--family", "complete:6"])
                  for command, spec in (("gf", []), ("gf", ["--spec", "total"]),
                                        ("fpp", []))]
        expected = [run(capsys, *argv) for argv in argvs]
        assert [code for code, _, _ in expected] == [0] * 4 + [2] * 6
        assert all("budget exhausted" in err for _, _, err in expected[4:])

        def no_rays(m):
            raise AssertionError("the ray matrix was built")

        monkeypatch.setattr(cone_engine, "adjugate_pair", no_rays)
        monkeypatch.setattr(exact_linalg, "adjugate_pair", no_rays)
        assert [run(capsys, *argv) for argv in argvs] == expected


    @pytest.mark.parametrize("command", ["fpp", "gf"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_listing_builds_rays_once(self, command, as_json, capsys, monkeypatch):
        # A listing bounds each field of its packed points by the rows of
        # R: with d > 1 it solves for R once, after the charge and the
        # basis checks, and `gf` reads its rays from the same R.  On a tree
        # (d = 1) the apex is the one point and the walk needs no R, so
        # `fpp` builds none and `gf` one, for the rays it prints.
        argvs = [[command, "--family", family] + ["--json"] * as_json
                 for family in ("cycle:4", "path:5")]
        expected = [run(capsys, *argv) for argv in argvs]
        assert [code for code, _, _ in expected] == [0, 0]
        calls = []

        def counted(m):
            calls.append(m.rows)
            return exact_linalg.adjugate_pair(m)

        monkeypatch.setattr(cone_engine, "adjugate_pair", counted)
        assert [run(capsys, *argv) for argv in argvs] == expected
        assert calls == ([3] if command == "fpp" else [3, 4])


class TestOneElimination:
    """A tree's specialized gf back-substitutes the forward pass that gave
    its d: one elimination per query, with the output unchanged."""

    @pytest.mark.parametrize("spec", ["total", "first"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_tree_gf_eliminates_once(self, spec, as_json, capsys, monkeypatch, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text(graph_text(28, 0, 1))
        argv = ["gf", "--file", str(tree), "--spec", spec] + ["--json"] * as_json
        expected = run(capsys, *argv)
        assert expected[0] == 0
        calls = []
        real = exact_linalg._eliminate

        def counted(rows, n):
            calls.append(n)
            return real(rows, n)

        monkeypatch.setattr(exact_linalg, "_eliminate", counted)
        monkeypatch.setattr(cone_engine, "_eliminate", counted)
        assert run(capsys, *argv) == expected
        assert calls == [27]


def fpp_text(points, d):
    lines = [f"determinant {d}, {len(points)} lattice points"]
    lines += [f"digits {list(c)} -> point {list(lam)}" for c, lam in points]
    return "\n".join(lines)


def fpp_payload(points, d):
    return {
        "determinant": str(d),
        "points": [
            {"digits": [str(e) for e in c], "point": [str(e) for e in lam]}
            for c, lam in points
        ],
    }


def random_graph_text(rng, n=None):
    """A random connected graph in the `--file` format, on n vertices or
    on 4-7."""
    n = rng.randint(4, 7) if n is None else n
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges |= set(rng.sample(free, rng.randint(0, min(3, len(free)))))
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


class TestListingOutput:
    """`fpp` and `gf` without `--spec` write their listings a block at a
    time; the bytes must be what `json.dumps(payload, indent=2)` and the
    text rendering of the whole point set give, the transform's sorted as
    tuples.  The seeds include trees (d = 1) and cones refused at the
    budget."""

    @pytest.mark.parametrize("seed", range(10))
    def test_every_minor_of_random_graphs(self, capsys, tmp_path, seed):
        text = random_graph_text(random.Random(seed))
        f = tmp_path / "g.txt"
        f.write_text(text)
        g = parse_graph(text)
        for v in range(g.vertex_count):
            cone = SimplicialCone(laplacian_minor(g, v))
            required = cone.d ** (cone.dimension - 1)
            if required <= 20000:
                points, ipt = fpp_points(cone), transform_by_tuples(cone)
                renders = {"fpp": (fpp_text(points, cone.d),
                                   fpp_payload(points, cone.d)),
                           "gf": (str(ipt), ipt.to_json_dict())}
            for command in ("fpp", "gf"):
                for as_json in (False, True):
                    argv = [command, "--file", str(f), "--minor", str(v),
                            "--budget", "20000"] + ["--json"] * as_json
                    if required > 20000:
                        expected = (2, "", "error: budget exhausted: parallelepiped "
                                           f"has {required} lattice points; budget is 20000\n")
                    else:
                        expected = (0, expected_stdout(*renders[command], as_json), "")
                    assert run(capsys, *argv) == expected, argv

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [4, 5])
    def test_public_renderings(self, capsys, tmp_path, n, seed):
        # On 4 vertices an fpp record holds 6 one-byte fields, padded to 8
        # bytes; on 5 it holds 8, exactly 8 bytes; a gf record holds half.
        rng = random.Random(f"{n}:{seed}")
        text = random_graph_text(rng, n)
        f = tmp_path / "g.txt"
        f.write_text(text)
        v = rng.randrange(n)
        cone = SimplicialCone(laplacian_minor(parse_graph(text), v))
        points, ipt = fpp_points(cone), integer_point_transform(cone)
        renders = {"fpp": (fpp_text(points, cone.d), fpp_payload(points, cone.d)),
                   "gf": (str(ipt), ipt.to_json_dict())}
        for command, (as_text, payload) in renders.items():
            for as_json in (False, True):
                argv = [command, "--file", str(f), "--minor", str(v)] + ["--json"] * as_json
                assert run(capsys, *argv) == (
                    0, expected_stdout(as_text, payload, as_json), ""), argv


class _Recorder:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


BOWTIE = str(Path(__file__).parent / "golden" / "graphs" / "bowtie_pendant.txt")


class TestListingStreams:
    """A listing is written a block of the walk at a time, never whole:
    bowtie_pendant minored at 5 has 6,561 points, several blocks' worth."""

    @pytest.mark.parametrize("argv,marker", [
        (["fpp", "--json"], '"digits"'),
        (["fpp"], "digits ["),
        (["gf", "--json"], "    [\n"),
        (["gf"], "z^("),
    ])
    def test_no_write_holds_more_than_a_block(self, argv, marker):
        out = _Recorder()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--file", BOWTIE, "--minor", "5"]) == 0
        counts = [w.count(marker) for w in out.writes]
        assert sum(c > 0 for c in counts) > 1
        assert max(counts) <= cone_engine._BLOCK
        if argv[0] == "fpp":
            assert sum(counts) == 9 ** 4


    @pytest.mark.parametrize("argv", [["fpp"], ["fpp", "--json"], ["gf"], ["gf", "--json"]])
    def test_decimal_tables_made_once_per_listing(self, argv, capsys, monkeypatch):
        # A listing of several blocks makes as many tables as the one
        # point of a tree's listing in the same dimension, one for each
        # distinct (lead, lo, separator), and the same bytes when every
        # table is emptied as soon as it holds two strings.
        made = []

        class Counted(cli._FieldText):
            def __init__(self, *key):
                super().__init__(*key)
                made.append(self)

        monkeypatch.setattr(cli, "_FieldText", Counted)
        expected = run(capsys, *argv, "--file", BOWTIE, "--minor", "5")
        several = len(made)
        assert max(map(len, made)) > 2
        keys = [(t.lead, t.lo, t.sep) for t in made]
        made.clear()
        run(capsys, *argv, "--family", "path:6")
        assert several == len(made) > 0
        assert [(t.lead, t.lo, t.sep) for t in made] == keys
        made.clear()
        monkeypatch.setattr(cli, "_DECIMALS_MAX", 2)
        assert run(capsys, *argv, "--file", BOWTIE, "--minor", "5") == expected
        assert max(map(len, made)) <= 2


class TestNoTransformObject:
    """`gf` without `--spec` writes the numerator block by block from the
    packed sort: it never builds an `IntegerPointTransform`, on a listing
    of several blocks or on a refusal."""

    def test_same_output_without_the_transform(self, capsys, monkeypatch):
        monkeypatch.delenv("LAPCOMP_BUDGET", raising=False)
        argvs = [["gf", *source] + ["--json"] * as_json
                 for source in (["--file", BOWTIE, "--minor", "5"], ["--family", "complete:6"])
                 for as_json in (False, True)]
        expected = [run(capsys, *argv) for argv in argvs]
        assert [code for code, _, _ in expected] == [0, 0, 2, 2]
        assert all(err == BUDGET_ERROR for _, _, err in expected[2:])

        def no_transform(self, *args):
            raise AssertionError("an IntegerPointTransform was built")

        monkeypatch.setattr(cone_engine.IntegerPointTransform, "__init__", no_transform)
        assert [run(capsys, *argv) for argv in argvs] == expected


class TestEmitBuildsOneForm:
    """`_emit` builds only the form it prints: a text `gf --spec` never
    builds the JSON form, and a `--json` one never the text."""

    @pytest.mark.parametrize("as_json,unbuilt", [(False, "to_json_dict"),
                                                 (True, "__str__")])
    def test_gf_spec(self, capsys, monkeypatch, as_json, unbuilt):
        argv = ["gf", "--family", "cycle:5", "--spec", "total"] + ["--json"] * as_json
        expected = run(capsys, *argv)
        assert expected[0] == 0

        def unbuilt_form(self):
            raise AssertionError(f"{unbuilt} was called")

        monkeypatch.setattr(UnivariateRationalGF, unbuilt, unbuilt_form)
        assert run(capsys, *argv) == expected


class TestListingRefusals:
    """A refused or broken walk fails before its first line is written."""

    def test_budget_refusal(self, capsys):
        assert run(capsys, "fpp", "--family", "cycle:4", "--minor", "0",
                   "--json", "--budget", "5") == (
            2, "",
            "error: budget exhausted: parallelepiped has 16 lattice points; "
            "budget is 5\n",
        )

    @pytest.mark.parametrize("argv", [["fpp"], ["fpp", "--json"],
                                      ["gf"], ["gf", "--json"]])
    def test_broken_basis(self, capsys, monkeypatch, argv):
        # (1, 0) is not a valid digit vector of the 3-cycle's minor, so the
        # true steps u, A*u_j = h_j, do not reach it.
        real = cone_engine._column_hermite
        monkeypatch.setattr(cone_engine, "_column_hermite",
                            lambda A: ([[1, 0], [0, 3]], real(A)[1]))
        code, out, err = run(capsys, *argv, "--family", "cycle:3", "--minor", "0")
        assert (code, out) == (1, "")
        assert err == ("error: internal identity failed: triangular basis "
                       "column is not a valid digit vector\n")


class TestBudgetsAndThreads:
    def test_budget_flag(self, capsys):
        code, _, err = run(
            capsys, "fpp", "--family", "cycle:4", "--minor", "0",
            "--budget", "5",
        )
        assert code == 2 and "budget" in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("LAPCOMP_BUDGET", "5")
        code, _, err = run(capsys, "fpp", "--family", "cycle:4", "--minor", "0")
        assert code == 2 and "budget is 5" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LAPCOMP_BUDGET", "5")
        code, _, _ = run(
            capsys, "fpp", "--family", "cycle:4", "--minor", "0",
            "--budget", "100",
        )
        assert code == 0

    def test_invalid_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("LAPCOMP_BUDGET", "banana")
        code, _, err = run(capsys, "fpp", "--family", "cycle:3", "--minor", "0")
        assert code == 2
        assert err == "error: LAPCOMP_BUDGET must be an integer, got 'banana'\n"

    def test_nonpositive_budgets(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, "fpp", "--family", "cycle:3", "--minor", "0",
            "--budget", "0",
        )
        assert code == 2 and "positive" in err
        monkeypatch.setenv("LAPCOMP_BUDGET", "-3")
        code, _, err = run(capsys, "fpp", "--family", "cycle:3", "--minor", "0")
        assert code == 2 and "positive" in err

    @pytest.mark.parametrize("value", ["1_0", " 1_0", "+5", "5 ", "\u0661\u0660", HUGE])
    def test_budget_is_decimal_digits_only(self, capsys, monkeypatch, value):
        argv = ["fpp", "--family", "cycle:4", "--minor", "0"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --budget: invalid int value: {value!r}\n")
        monkeypatch.setenv("LAPCOMP_BUDGET", value)
        assert run(capsys, *argv) == (
            2, "", f"error: LAPCOMP_BUDGET must be an integer, got {value!r}\n")

    # Each integer option or argument, with {} where its value goes, and
    # the name argparse gives it.
    INTEGER_OPTIONS = [
        (["series", "--family", "path:3", "--order", "{}"], "--order"),
        (["series", "--family", "path:3", "--order", "2", "--minor", "{}"], "--minor"),
        (["gf", "--family", "path:3", "--minor", "{}"], "--minor"),
        (["fpp", "--family", "path:3", "--threads", "{}"], "--threads"),
        (["ehrhart", "{}"], "n"),
        (["ehrhart", "3", "--normal-m", "{}"], "--normal-m"),
        (["check", "cyclic", "3", "{}"], "params"),
        (["check", "near_symmetry", "{}"], "params"),
    ]

    @pytest.mark.parametrize("value", ["1_0", " 3", "+4", "\u0663", "3 ", "abc", HUGE])
    @pytest.mark.parametrize("argv,name", INTEGER_OPTIONS)
    def test_integers_are_decimal_digits_only(self, capsys, argv, name, value):
        with pytest.raises(SystemExit) as exc:
            main([a.format(value) for a in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f": error: argument {name}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("value", ["1_0", " 3", "+2", "٢", HUGE])
    @pytest.mark.parametrize("argv", [
        ["series", "--family", "path:{}", "--order", "2"],
        ["gf", "--family", "kary:{},2", "--spec", "total"],
        ["fpp", "--family", "cycle:{}"],
    ])
    def test_family_parameters_are_decimal_digits_only(self, capsys, argv, value):
        argv = [a.format(value) for a in argv]
        assert run(capsys, *argv) == (
            2, "", f"error: non-integer parameter in family spec {argv[2]!r}\n")

    @pytest.mark.parametrize("value", ["1_0", "+2", "٢", HUGE])
    def test_edge_file_integers_are_decimal_digits_only(self, capsys, tmp_path, value):
        f = tmp_path / "g.txt"
        f.write_text(f"3\n0 1\n1 {value}\n")
        assert run(capsys, "fpp", "--file", str(f)) == (
            2, "", f"error: line 3: non-integer vertex label in '1 {value}'\n")
        f.write_text(f"{value}\n0 1\n1 2\n")
        assert run(capsys, "fpp", "--file", str(f)) == (
            2, "", f"error: line 1: vertex count {value!r} is not an integer\n")

    @pytest.mark.parametrize("argv,message", [
        (["series", "--family", "path:3", "--order", "-1"],
         "order must be nonnegative"),
        (["series", "--family", "path:3", "--order", "2", "--minor", "-1"],
         "vertex -1 out of range"),
        (["fpp", "--family", "path:3", "--threads", "-1"],
         "thread count must be positive"),
        (["ehrhart", "-3"], "leafed cycles need n >= 3"),
        (["check", "tree_equivalence", "1", "-1"], "trial count must be positive"),
    ])
    def test_negative_integers_reach_their_checks(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_threads_accepted_but_validated(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "path:3", "--order", "3",
            "--threads", "4",
        )
        assert code == 0
        code, _, err = run(
            capsys, "series", "--family", "path:3", "--order", "3",
            "--threads", "0",
        )
        assert code == 2 and "thread count" in err


class TestParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_each_parse_starts_from_the_defaults(self):
        parser, _ = _build_parser()
        parser.parse_args(["fpp", "--family", "path:3", "--json", "--budget", "7"])
        args = parser.parse_args(["fpp", "--family", "path:3"])
        assert (args.json, args.budget, args.threads) == (False, None, 1)

    def test_every_subcommand_binds_its_handler(self):
        _, commands = _build_parser()
        assert list(commands) == ["gf", "series", "check", "ehrhart", "fpp",
                                  "tree-inverse"]
        for subparser in commands.values():
            assert callable(subparser.get_default("run"))
        (target,) = [action for action in commands["check"]._actions
                     if action.dest == "target"]
        assert target.choices == list(_CHECKS)

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        def broken(text):
            raise KeyError("x")

        monkeypatch.setattr(cli, "family_from_string", broken)
        with pytest.raises(KeyError):
            main(["fpp", "--family", "path:3"])

    def test_top_level_parser_only_where_its_errors_are(self, monkeypatch):
        # A command's own arguments are parsed by its parser alone; an empty
        # argv, an unknown command and arguments the command does not know
        # go through the top-level parser, which reports them.
        parser, _ = _build_parser()
        seen = []
        real = parser.parse_args

        def counted(argv):
            seen.append(argv)
            return real(argv)

        monkeypatch.setattr(parser, "parse_args", counted)
        for argv in (["gf", "--family", "path:3", "--spec", "total"],
                     ["series", "--fam", "path:3", "--order=3"],
                     ["ehrhart", "--normal-m", "0", "--", "3"]):
            assert main(argv) == 0
        assert seen == []
        for argv in ([], ["bogus"], ["gf", "--family", "path:3", "--bogus"],
                     ["series", "--family", "path:3", "--order", "2", "extra"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert seen == [[], ["bogus"], ["gf", "--family", "path:3", "--bogus"],
                        ["series", "--family", "path:3", "--order", "2", "extra"]]


# Corpus calls for the entry-point tests, each with its exit code and the
# end of its stderr: a success, a usage error of the `series` parser, and
# an unrecognized argument that the top-level parser reports.
ENTRY_CALLS = (
    (["gf", "--spec", "total", "--file", "graphs/tree9.txt", "--minor", "3"], 0, ""),
    (["series", "--family", "path:3"], 2,
     "\nlapcomp series: error: the following arguments are required: --order\n"),
    (["gf", "--family", "path:3", "--order", "3"], 2,
     "\nlapcomp: error: unrecognized arguments: --order 3\n"),
)


class TestEntryPoint:
    """`main()` reads `sys.argv[1:]`, and `python -m lapcomp.cli` runs the
    same program in a process of its own: each gives what `main(argv)`
    gives, which the golden corpus pins."""

    @pytest.mark.parametrize("argv,exit_code,err_tail", ENTRY_CALLS)
    def test_main_reads_sys_argv(self, argv, exit_code, err_tail, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["lapcomp", *argv])
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("LAPCOMP_BUDGET", raising=False)
        monkeypatch.chdir(regen.HERE)
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == regen.run(argv, {})
        assert code == exit_code and err.endswith(err_tail)

    def test_module_run_matches_main(self):
        env = {k: v for k, v in os.environ.items() if k != "LAPCOMP_BUDGET"}
        env["COLUMNS"] = "80"
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for argv, _, _ in ENTRY_CALLS:
            done = subprocess.run([sys.executable, "-m", "lapcomp.cli", *argv],
                                  cwd=regen.HERE, env=env, capture_output=True,
                                  text=True, timeout=60)
            assert (done.returncode, done.stdout, done.stderr) == regen.run(argv, {})
