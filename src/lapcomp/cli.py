"""Command-line front end for the whole toolkit.

Subcommands:

* ``gf`` — generating function of a graph's Laplacian-minor cone, either
  multivariate or specialized to one variable.
* ``series`` — exact power-series coefficients of a rational generating
  function, from a JSON file or computed from a graph family.
* ``check`` — verification pipelines: ``cyclic N M_MAX``,
  ``near_symmetry K``, ``reflexive N``, ``tree_equivalence SEED COUNT``.
* ``ehrhart`` — slice-simplex report (h*, reflexivity, normality).
* ``fpp`` — fundamental-parallelepiped lattice points of a minor cone.
* ``tree-inverse`` — combinatorial inverse of a tree minor at a leaf.

Exit codes: 0 for a completed run, including negative findings from
conjecture checks; 1 when a theorem-level identity fails; 2 for usage,
parse, or budget errors.  ``LAPCOMP_BUDGET`` overrides the built-in
enumeration budget; ``--budget`` overrides both, and each is read in
decimal digits only, like every other integer option and argument.
All integers in JSON output are decimal strings.

`main` parses a command line with the parser of the command that argv[0]
names, which is what the top-level parser would hand the rest of argv to.
The top-level parser runs only on an empty argv, an unknown command, or
arguments that the command leaves unrecognized, so every usage error,
help text and exit code comes from the parser that reports it either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .cone_engine import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SimplicialCone,
    UnivariateRationalGF,
    _charge,
    _json_form,
    _lex_walk,
    _series_updates,
    _sorted_points,
    series_expand,
    specialized_gf,
)
from .conjecture_lab import check_conjecture_cyclic, check_near_symmetry
from .ehrhart_reflexive import (
    _halfspaces,
    build_slice_simplex,
    h_star,
    normality_probe,
    reflexivity_by_interior_counts,
)
from .graph_core import _MAX_DIGITS, _is_decimal, family_from_string, laplacian_minor, parse_graph
from .tree_transforms import (
    random_tree,
    tree_inverse_combinatorial,
    verify_tree_identities,
)

__all__ = ["main"]

_SPEC_MODES = {"total": "total", "first": "first_coordinate"}


def _int_option(text: str) -> int:
    """An integer option or argument, read by the same rule as
    LAPCOMP_BUDGET (`_is_decimal`), with argparse's own message for a
    value it refuses."""
    if not _is_decimal(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of text")
    p.add_argument("--budget", type=_int_option, default=None,
                   help="enumeration budget cap (default: LAPCOMP_BUDGET "
                        f"or {DEFAULT_BUDGET})")
    p.add_argument("--threads", type=_int_option, default=1,
                   help="worker threads; accepted for compatibility, output "
                        "is identical for any value")


def _add_graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", metavar="NAME:PARAMS",
                   help="built-in family, e.g. path:4, cycle:5, "
                        "leafed_cycle:3, kary:2,3, complete:4")
    p.add_argument("--file", metavar="PATH",
                   help="edge-list file: first line is the vertex count, "
                        "then one 'u v' pair per line; '#' comments allowed")
    p.add_argument("--minor", type=_int_option, default=None, metavar="V",
                   help="vertex whose Laplacian minor to take "
                        "(default: the last vertex)")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by name, the parser of each command (the
    `choices` of its subparsers action); built on the first call and
    shared, since parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="lapcomp",
        description="Exact generating functions and lattice-point counts "
                    "for graph Laplacian-minor cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gf = sub.add_parser("gf", help="generating function of a minor cone")
    p_gf.set_defaults(run=_cmd_gf)
    _add_graph_options(p_gf)
    p_gf.add_argument("--spec", choices=sorted(_SPEC_MODES),
                      help="specialize to one variable: 'total' grades by "
                           "coordinate sum, 'first' by the first coordinate")
    _add_output_options(p_gf)

    p_series = sub.add_parser("series", help="power-series coefficients")
    p_series.set_defaults(run=_cmd_series)
    p_series.add_argument("--family", metavar="NAME:PARAMS",
                          help="compute the generating function from a "
                               "built-in family first")
    p_series.add_argument("--minor", type=_int_option, default=None, metavar="V",
                          help="minor vertex used with --family "
                               "(default: the last vertex)")
    p_series.add_argument("--spec", choices=sorted(_SPEC_MODES),
                          default="total",
                          help="specialization used with --family "
                               "(default: total)")
    p_series.add_argument("--file", metavar="PATH",
                          help="JSON file holding a univariate generating "
                               "function (as emitted by gf --spec ... --json)")
    p_series.add_argument("--order", type=_int_option, required=True,
                          help="highest power to expand to")
    _add_output_options(p_series)

    p_check = sub.add_parser("check", help="run a verification pipeline")
    p_check.set_defaults(run=_cmd_check)
    p_check.add_argument("target", choices=list(_CHECKS))
    p_check.add_argument("params", nargs="*", type=_int_option,
                         help="cyclic: N M_MAX; near_symmetry: K; "
                              "reflexive: N; tree_equivalence: SEED COUNT")
    _add_output_options(p_check)

    p_ehr = sub.add_parser("ehrhart", help="slice-simplex report")
    p_ehr.set_defaults(run=_cmd_ehrhart)
    p_ehr.add_argument("n", type=_int_option, help="leafed cycle length")
    p_ehr.add_argument("--normal-m", type=_int_option, default=2,
                       help="largest dilate for the normality probe "
                            "(0 skips it; default 2)")
    _add_output_options(p_ehr)

    p_fpp = sub.add_parser("fpp", help="parallelepiped lattice points")
    p_fpp.set_defaults(run=_cmd_fpp)
    _add_graph_options(p_fpp)
    _add_output_options(p_fpp)

    p_ti = sub.add_parser("tree-inverse",
                          help="combinatorial minor inverse of a tree")
    p_ti.set_defaults(run=_cmd_tree_inverse)
    _add_graph_options(p_ti)
    _add_output_options(p_ti)

    return parser, sub.choices


def _effective_budget(args) -> int:
    if args.budget is not None:
        if args.budget < 1:
            raise ValueError("budget must be positive")
        return args.budget
    env = os.environ.get("LAPCOMP_BUDGET")
    if env is not None:
        if not _is_decimal(env):
            raise ValueError(f"LAPCOMP_BUDGET must be an integer, got {env!r}")
        value = int(env)
        if value < 1:
            raise ValueError("LAPCOMP_BUDGET must be positive")
        return value
    return DEFAULT_BUDGET


def _check_threads(args) -> None:
    if args.threads < 1:
        raise ValueError("thread count must be positive")


def _check_one_source(args) -> None:
    if (args.family is None) == (args.file is None):
        raise ValueError("give exactly one of --family or --file")


def _load_graph(args):
    _check_one_source(args)
    if args.family is not None:
        return family_from_string(args.family)
    return parse_graph(Path(args.file).read_text())


def _minor_vertex(args, g) -> int:
    return args.minor if args.minor is not None else g.vertex_count - 1


def _minor_cone(args, g):
    return SimplicialCone(laplacian_minor(g, _minor_vertex(args, g)))


def _emit(args, text: Callable[[], str], payload: Callable[[], dict]) -> None:
    """Print the text or, with --json, the JSON form of a result; each
    form is built by its function, and only the printed one is built."""
    if args.json:
        print(json.dumps(_json_form(payload()), indent=2))
    else:
        print(text())


def _json_strings(n: int, indent: int) -> str:
    """Format string of n decimal strings as `json.dumps(indent=2)` lays
    out a list whose opening bracket is `indent` spaces deep."""
    if not n:
        return "[]"
    return ("[\n" + ",\n".join([" " * (indent + 2) + '"{}"'] * n)
            + "\n" + " " * indent + "]")


class _FieldText(dict):
    """`lead`, the decimal string of value + `lo`, then `sep`, for each
    value looked up, made on first use; a table that holds `_DECIMALS_MAX`
    strings is emptied before it makes another, so tables stay small."""

    __slots__ = ("lead", "lo", "sep")

    def __init__(self, lead: str, lo: int, sep: str):
        super().__init__()
        self.lead, self.lo, self.sep = lead, lo, sep

    def __missing__(self, value: int) -> str:
        if len(self) >= _DECIMALS_MAX:
            self.clear()
        self[value] = text = f"{self.lead}{value + self.lo}{self.sep}"
        return text


_DECIMALS_MAX = 1 << 16


def _block_text(template: str, lo: Sequence[int]) -> Callable[[Sequence[Sequence[int]]], str]:
    """The function that gives a listing's block of fields as text: row j
    is `template` with its "{}" slots filled by fields[0][j] + lo[0],
    fields[1][j] + lo[1], ...  Field i maps through the table of (lead,
    lo[i], the separator after its slot), where only field 0 takes the
    template's lead; one table per distinct triple, made once per listing.
    A block's strings are interleaved by slice assignment, joined once."""
    lead, *seps = template.split("{}")
    keys = [(lead if i == 0 else "", low, sep) for i, (low, sep) in enumerate(zip(lo, seps))]
    tables = {key: _FieldText(*key) for key in dict.fromkeys(keys)}
    slots, m = [tables[key].__getitem__ for key in keys], len(keys)

    def text(fields: Sequence[Sequence[int]]) -> str:
        strings = [""] * (m * len(fields[0]))
        for i, slot, field in zip(range(m), slots, fields):
            strings[i::m] = map(slot, field)
        return "".join(strings)

    return text


def _write_blocks(texts: Iterable[str], lead: str) -> None:
    """Write each block's text as it comes, so a listing is never held
    whole; `lead`, the separator that heads every row, is cut from the
    first."""
    skip = len(lead)
    for text in texts:
        sys.stdout.write(text[skip:])
        skip = 0


def _cmd_gf(args) -> int:
    cone = _minor_cone(args, _load_graph(args))
    budget = _effective_budget(args)
    if args.spec is not None:
        gf = specialized_gf(cone, _SPEC_MODES[args.spec], budget=budget)
        _emit(args, lambda: str(gf), gf.to_json_dict)
    else:
        _write_transform(cone, budget, args.json)
    return 0


def _write_transform(cone, budget: int, as_json: bool) -> None:
    """Print the cone's transform as `str` or `to_json_dict` of
    `integer_point_transform` gives it, its numerator written block by
    block from the fields `_sorted_points` reads."""
    blocks, lo = _sorted_points(cone, budget)
    n, rays = cone.dimension, sorted(cone.rays())
    if as_json:
        rays = [ray + (mult,) for ray, mult in sorted(Counter(rays).items())]
        sys.stdout.write('{\n  "numerator": [\n')
        _write_blocks(map(_block_text(",\n    " + _json_strings(n, 4), lo), blocks), ",\n")
        sys.stdout.write('\n  ],\n  "denominator": [\n')
        ray = ',\n    {\n      "ray": ' + _json_strings(n, 6) + ',\n      "mult": "{}"\n    }'
        _write_blocks([_block_text(ray, [0] * (n + 1))(list(zip(*rays)))], ",\n")
        sys.stdout.write("\n  ]\n}\n")
    else:
        # The origin is the one all-zero point, and its monomial is "1".
        monomial = "z^(" + ",".join(["{}"] * n) + ")"
        origin = monomial.format(*[0] * n)
        sys.stdout.write("(")
        terms = _block_text(" + " + monomial, lo)
        _write_blocks((terms(b).replace(origin, "1") for b in blocks), " + ")
        sys.stdout.write(")/(" + _block_text("(1 - " + monomial + ")", [0] * n)(list(zip(*rays)))
                         + ")\n")


def _json_integer(text: str) -> int:
    """A JSON integer, refused by `_is_decimal`'s rule before int() would."""
    if not _is_decimal(text):
        raise ValueError(f"JSON integer of more than {_MAX_DIGITS} digits")
    return int(text)


def _cmd_series(args) -> int:
    if args.order < 0:
        raise ValueError("order must be nonnegative")
    _check_one_source(args)
    if args.file is not None:
        gf = UnivariateRationalGF.from_json_dict(
            json.loads(Path(args.file).read_text(), parse_int=_json_integer)
        )
    else:
        gf = specialized_gf(_minor_cone(args, family_from_string(args.family)),
                            _SPEC_MODES[args.spec], budget=_effective_budget(args))
    _charge(_series_updates(gf, args.order), _effective_budget(args),
            "series needs {} coefficient updates; budget is {}")
    coeffs = series_expand(gf, args.order)
    _emit(args, lambda: "[" + ", ".join(map(str, coeffs)) + "]",
          lambda: {"order": args.order, "coefficients": coeffs})
    return 0


def _params(args, count: int, names: str) -> list[int]:
    if len(args.params) != count:
        raise ValueError(
            f"check {args.target} takes {count} parameter(s): {names}"
        )
    return args.params


def _check_cyclic(args) -> int:
    n, m_max = _params(args, 2, "N M_MAX")
    report = check_conjecture_cyclic(n, m_max)

    def text():
        matches = sum(row["match"] for row in report.rows)
        lines = [
            f"m={row['m']}: coefficient {row['lhs']} vs classes {row['rhs']} "
            f"{'ok' if row['match'] else 'MISMATCH'}"
            for row in report.rows
        ]
        lines.append(f"{matches}/{len(report.rows)} match")
        return "\n".join(lines)

    _emit(args, text, report.to_json_dict)
    return 0 if report.all_match else 1  # the identity is a theorem


def _check_near_symmetry(args) -> int:
    (k,) = _params(args, 1, "K")
    report = check_near_symmetry(k)

    def text():
        lines = [f"k={report.k} (n={report.n})"]
        if report.division_exact:
            lines.append(f"f coefficients: {list(report.f)}")
            lines.append(f"difference:     {list(report.difference)}")
        else:
            lines.append("exact division failed; the conjectured rational form "
                          "does not hold")
        lines.append(f"expected:       {list(report.expected)}")
        lines.append(f"verdict: {report.verdict}")
        lines.append(f"numerator-level identity holds: {report.numerator_match}")
        return "\n".join(lines)

    _emit(args, text, report.to_json_dict)
    return 0


def _interior_counts_agree(simplex, reflexive: bool, budget: int) -> bool:
    """The interior-count reflexivity test on a slice, which must agree
    with the halfspace certificate `reflexive`: the two are one theorem."""
    n = simplex.source_n
    by_counts = reflexivity_by_interior_counts(simplex, max(1, n - 1), budget=budget)
    if reflexive != by_counts:
        raise ArithmeticError(
            f"reflexivity tests disagree for n={n}: halfspaces say "
            f"{reflexive}, interior counts say {by_counts}"
        )
    return by_counts


def _check_reflexive(args) -> int:
    (n,) = _params(args, 1, "N")
    simplex = build_slice_simplex(n)
    half = _halfspaces(simplex)
    by_counts = _interior_counts_agree(simplex, half.reflexive, _effective_budget(args))
    _emit(args, lambda: (f"n={n}: reflexive={half.reflexive} ({half.reason}); "
                         f"interior-count test agrees"),
          lambda: {
              "n": n,
              "halfspace": half.to_json_dict(),
              "interior_counts": by_counts,
              "reflexive": half.reflexive,
          })
    return 0


def _check_tree_equivalence(args) -> int:
    seed, count = _params(args, 2, "SEED COUNT")
    if count < 1:
        raise ValueError("trial count must be positive")
    rng = random.Random(seed)
    failures = []
    for trial in range(count):
        t = random_tree(rng.randint(2, 12), rng)
        leaf = rng.choice(t.leaves())
        for message in verify_tree_identities(t, leaf):
            failures.append({"trial": trial, "edges": t.edges, "leaf": leaf,
                             "message": message})

    def text():
        if not failures:
            return f"{count} random trees: all identities hold"
        return "\n".join(f"trial {f['trial']}: {f['message']}" for f in failures)

    _emit(args, text, lambda: {"seed": seed, "count": count, "failures": failures})
    return 1 if failures else 0


_CHECKS = {
    "cyclic": _check_cyclic,
    "near_symmetry": _check_near_symmetry,
    "reflexive": _check_reflexive,
    "tree_equivalence": _check_tree_equivalence,
}


def _cmd_check(args) -> int:
    return _CHECKS[args.target](args)


def _cmd_ehrhart(args) -> int:
    budget = _effective_budget(args)
    simplex = build_slice_simplex(args.n)
    # The probe is the only step that can be refused, so it runs first.
    normal_up_to = None
    if args.normal_m > 0:
        normal_up_to = normality_probe(
            simplex, m_max=args.normal_m, budget=budget
        ).normal_up_to
    data = h_star(simplex, budget=budget)
    _interior_counts_agree(simplex, data.reflexive_certificate, budget)

    def text():
        lines = [
            f"n={args.n}, dimension {simplex.dimension}",
            f"vertices: {list(simplex.vertices)}",
            f"dilate counts: {list(data.dilate_counts)}",
            f"h*: {list(data.h_star)}",
            f"palindromic={data.palindromic} unimodal={data.unimodal} "
            f"reflexive={data.reflexive_certificate}",
        ]
        if normal_up_to is not None:
            lines.append(f"normal up to dilate {normal_up_to}")
        return "\n".join(lines)

    _emit(args, text, lambda: {
        "n": args.n,
        "vertices": simplex.vertices,
        "h_star": data.h_star,
        "dilate_counts": data.dilate_counts,
        "palindromic": data.palindromic,
        "unimodal": data.unimodal,
        "reflexive": data.reflexive_certificate,
        "normal_up_to": normal_up_to,
    })
    return 0


def _cmd_fpp(args) -> int:
    _write_fpp(_minor_cone(args, _load_graph(args)), _effective_budget(args), args.json)
    return 0


def _write_fpp(cone, budget: int, as_json: bool) -> None:
    """Print the cone's parallelepiped points, block by block as walked."""
    blocks, lo = _lex_walk(cone, budget)
    n, d = cone.dimension, cone.d
    if as_json:
        digits = _json_strings(n, 6)
        entry = ',\n    {\n      "digits": ' + digits + ',\n      "point": ' + digits + "\n    }"
        sys.stdout.write(f'{{\n  "determinant": "{d}",\n  "points": [\n')
        _write_blocks(map(_block_text(entry, lo), blocks), ",\n")
        sys.stdout.write("\n  ]\n}\n")
    else:
        digits = "[" + ", ".join(["{}"] * n) + "]"
        line = "digits " + digits + " -> point " + digits + "\n"
        sys.stdout.write(f"determinant {d}, {d ** (n - 1)} lattice points\n")
        _write_blocks(map(_block_text(line, lo), blocks), "")


def _cmd_tree_inverse(args) -> int:
    g = _load_graph(args)
    leaf = _minor_vertex(args, g)
    inv = tree_inverse_combinatorial(g, leaf)
    _emit(args,
          lambda: "\n".join([f"leaf {leaf}, vertex order {list(inv.vertices)}"]
                            + [" ".join(map(str, row)) for row in inv.matrix]),
          lambda: {"leaf": leaf, "vertices": inv.vertices, "matrix": inv.matrix})
    return 0


def _parse_args(argv) -> argparse.Namespace:
    """`parse_args` of the top-level parser, by way of the parser of the
    command that argv[0] names, which is what the top-level parser hands
    every later argument to.  Only an empty argv, one whose argv[0] names
    no command, or one with arguments that the command leaves unrecognized
    goes through the top-level parser, whose usage errors those are."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _check_threads(args)
        return args.run(args)
    except BudgetExceededError as exc:
        print(f"error: budget exhausted: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal identity failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
