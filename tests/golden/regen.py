"""Rewrite `cli.jsonl`, the CLI corpus that `tests/test_golden.py` replays.

    python3 tests/golden/regen.py            # rewrite the corpus
    python3 tests/golden/regen.py --check    # replay it, rewriting nothing

Each call runs in process through `lapcomp.cli.main`, from this directory
(so `--file graphs/...` resolves), with COLUMNS=80 and LAPCOMP_BUDGET
unset unless the call sets it.  One JSON line per call holds its argv,
the environment variables it sets, the exit code and the SHA-256 of
stdout and stderr, with the text itself when it is at most TEXT_MAX
characters.  A changed line is a changed CLI: name its argv and the
reason with the change.  `--check` needs no pytest: it replays every
line, prints the argv and environment of each call that changed, and
exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))

from lapcomp.cli import main  # noqa: E402

TEXT_MAX = 400
FAMILIES = ("path:4", "cycle:5", "leafed_cycle:4", "kary:2,2", "complete:4")
GOOD_GRAPHS = ("blanks", "diamond", "house", "k23")
# Trees, whose every minor is unimodular (d = 1): name and vertex count.
# tree24 and path12 have scrambled labels, so label order is no
# elimination order.
TREE_GRAPHS = (("star", 7), ("spider", 7), ("tree9", 9), ("tree24", 24), ("path12", 12))
# The leaves of the scrambled trees, each a `tree-inverse` root.
TREE_LEAVES = {"tree24": (1, 2, 4, 7, 8, 10, 12, 14, 16, 18, 19, 22), "path12": (0, 9)}
# A 20-vertex tree plus 4 edges, labels scrambled: every minor's `gf`, with
# or without `--spec`, is refused with its exact charge.
REFUSED_GRAPHS = (("tree20_plus4", 20),)
# Refused graph files; separators_bad's line number counts the breaks of
# `str.splitlines`, and tree65 has one vertex over MAX_VERTICES.
BAD_GRAPHS = ("count_arabic_indic", "count_plus", "disconnected", "label_arabic_indic",
              "label_plus", "label_underscore", "three_tokens", "missing",
              "separators_bad", "tree65")
# Graph files whose separators pin the reader: tabs, CRLF, trailing and
# comment-only lines, blank lines, a no-break space between labels, and
# the breaks \v, \f, \x1c, \x85 and \u2028 that `str.splitlines` splits on.
SEPARATOR_GRAPHS = ("separators",)
# `gf --spec MODE --json` of two families, saved as `series --file` inputs,
# then malformed inputs that the strict reader refuses, and a missing file.
SAVED_GFS = {f"{family.replace(':', '')}_{mode}": (family, mode)
             for family in ("cycle:5", "leafed_cycle:4") for mode in ("total", "first")}
BAD_GFS = ("bad_float", "bad_bool", "bad_bare_string", "bad_underscore",
           "bad_top_level_list", "bad_missing_den", "bad_den_triple", "bad_long_number",
           "missing")
# Cones whose listings span several blocks of the walk: the single-digit
# level last (cycle:7, 16,807 points), in the middle (leafed_cycle:6 minored
# at 0, 7,776 points), and two levels of 3 digits in 9 (bowtie_pendant,
# 6,561 points).
LONG_LISTINGS = (["--family", "cycle:7"], ["--family", "leafed_cycle:6", "--minor", "0"],
                 ["--file", "graphs/bowtie_pendant.txt", "--minor", "5"])
# Every minor's `gf` listing of small graphs: the non-cyclic critical
# groups of k23, bowtie_pendant ((Z/3)^2) and complete:4 ((Z/4)^2) give
# triangular bases with several levels of h_ii > 1.  Each source with its
# vertex count; a call already in LONG_LISTINGS is not repeated.
EVERY_MINOR_GF = ((["--file", "graphs/house.txt"], 5), (["--file", "graphs/diamond.txt"], 4),
                  (["--file", "graphs/k23.txt"], 5),
                  (["--file", "graphs/bowtie_pendant.txt"], 6),
                  (["--family", "complete:4"], 4))
# `gf --spec total|first` on every minor of the EVERY_MINOR_GF sources and
# of complete:5 ((Z/5)^3): the digit-class DP on non-cyclic critical
# groups, columns whose order is below d, and zero first-coordinate weights.
# The 7-cycle with a pendant vertex has scrambled labels and d = 7 at
# every minor.
EVERY_MINOR_SPEC = EVERY_MINOR_GF + ((["--family", "complete:5"], 5),
                                     (["--file", "graphs/cycle7_pendant.txt"], 8))
# `series --spec total|first` on every minor of five families: trees whose
# first-coordinate rays can vanish (a ray refusal), cycles, a leafed cycle
# and complete:4, so every route to a specialized gf meets the series.
EVERY_MINOR_SERIES = (("path:6", 6), ("kary:2,3", 8), ("cycle:6", 6),
                      ("leafed_cycle:5", 6), ("complete:4", 4))
# The exact charge of each call at its default minor, found by raising
# --budget until the call completes: d**(n-1) parallelepiped points for a
# family, and for `ehrhart N --normal-m M` its largest charge, the box of
# dilate M, or at N = 3, M = 3 the normality sumset's pairs.  The boundary
# block runs each call at that budget and one below, by --budget and by
# LAPCOMP_BUDGET, so a strict comparison that became non-strict (or the
# reverse) changes a line.
BOUNDARY_FAMILIES = {"cycle:5": 125, "leafed_cycle:4": 64, "complete:4": 256}
BOUNDARY_EHRHART = {(3, 1): 9, (3, 2): 25, (3, 3): 56, (4, 1): 80, (4, 2): 441,
                    (4, 3): 1300, (5, 1): 1225, (5, 2): 13689, (5, 3): 61009,
                    (6, 1): 29160, (6, 2): 664411, (6, 3): 4480000,
                    (7, 1): 1002001, (7, 2): 46580625}

# Command lines that reach argparse's own paths: an unknown command, an
# option before the command, each command with an unknown option and with
# an extra positional (both reported by the top-level parser as
# "unrecognized arguments"), another command's option, abbreviated and
# ambiguous options, --opt=value forms, "--", repeated options, help after
# other options, and missing required arguments.
ARGV_EDGES = (
    ["bogus"], ["bogus", "--json"], ["--bogus"], ["--json", "gf"],
    ["gf", "--family", "path:3", "--bogus"], ["gf", "-x", "--family", "path:3"],
    ["series", "--family", "path:3", "--order", "2", "--bogus"],
    ["check", "cyclic", "2", "3", "--bogus"], ["ehrhart", "3", "--bogus"],
    ["fpp", "--family", "path:3", "--bogus"], ["tree-inverse", "--family", "path:3", "--bogus"],
    ["gf", "--family", "path:3", "extra"],
    ["series", "--family", "path:3", "--order", "2", "extra"],
    ["check", "cyclic", "2", "--json", "3"], ["ehrhart", "3", "4"],
    ["fpp", "--family", "path:3", "extra"], ["tree-inverse", "--family", "path:3", "extra"],
    ["gf", "--family", "path:3", "--order", "3"], ["fpp", "--family", "path:3", "--spec", "total"],
    ["gf", "--fam", "path:4", "--spe", "total"],
    ["series", "--fam", "path:3", "--ord", "3", "--js"], ["gf", "--f", "path:3"], ["gf", "--he"],
    ["gf", "--family=path:4", "--spec=total"], ["series", "--family=path:3", "--order=3", "--json"],
    ["ehrhart", "3", "--normal-m=0"], ["fpp", "--family=cycle:5", "--budget=5"],
    ["gf", "--spec=bogus", "--family=path:3"],
    ["ehrhart", "--", "5"], ["ehrhart", "--normal-m", "0", "--", "3"],
    ["gf", "--family", "path:3", "--family", "path:4", "--spec", "total"],
    ["gf", "--family", "path:3", "--spec", "total", "--json", "--json"],
    ["gf", "--family", "path:3", "-h"], ["check", "cyclic", "2", "3", "--help"],
    ["series", "--family", "path:3"], ["ehrhart"], ["check"], ["check", "--json"],
)


def calls():
    """(argv, env) of every call, in corpus order."""
    formats = ([], ["--json"])
    for n in range(1, 14):
        for m in (0, 2, 3):
            for fmt in formats:
                yield ["ehrhart", str(n), "--normal-m", str(m)] + fmt, {}
        for fmt in formats:
            yield ["check", "reflexive", str(n)] + fmt, {}
    for family in FAMILIES:
        for command in (["fpp"], ["gf"], ["gf", "--spec", "total"],
                        ["gf", "--spec", "first"], ["tree-inverse"]):
            for fmt in formats:
                yield command + ["--family", family] + fmt, {}
        yield ["series", "--family", family, "--order", "8"], {}
    for name in GOOD_GRAPHS:
        for minor in range(5):
            for command in (["fpp"], ["gf", "--spec", "first"]):
                yield command + ["--file", f"graphs/{name}.txt",
                                 "--minor", str(minor)], {}
    for cone in LONG_LISTINGS:
        for command in ("fpp", "gf"):
            for fmt in formats:
                yield [command] + cone + fmt, {}
    for source, size in EVERY_MINOR_GF:
        for minor in range(size):
            cone = source + ["--minor", str(minor)]
            if cone not in LONG_LISTINGS:
                for fmt in formats:
                    yield ["gf"] + cone + fmt, {}
    for source, size in EVERY_MINOR_SPEC:
        for minor in range(size):
            for spec in ("total", "first"):
                for fmt in formats:
                    # The text `--spec first` on a GOOD_GRAPHS file is above.
                    if spec == "first" and not fmt and Path(source[1]).stem in GOOD_GRAPHS:
                        continue
                    yield ["gf", "--spec", spec] + source + ["--minor", str(minor)] + fmt, {}
    for spec in ("total", "first"):
        yield ["series", "--family", "complete:5", "--spec", spec, "--order", "12"], {}
    # A cyclic critical group, Z/11, whose total ray exponents at minor 1
    # are coprime to d and give (d - 1) * sum(s) + 1 = 7,361 slots: past
    # `cone_engine._PRODUCT_SLOTS`, so the DP counts it.  The `--spec
    # first` lines of the cycles above take the product route, and the
    # `--spec total` ones, with gcd(d, s) > 1, the DP.
    for fmt in formats:
        yield ["gf", "--spec", "total", "--file", "graphs/coprime11.txt", "--minor", "1"] + fmt, {}
    for family, size in EVERY_MINOR_SERIES:
        for minor in range(size):
            for spec in ("total", "first"):
                for fmt in formats:
                    yield ["series", "--family", family, "--minor", str(minor),
                           "--spec", spec, "--order", "12"] + fmt, {}
    for name, size in TREE_GRAPHS:
        for minor in range(size):
            for spec in ("total", "first"):
                for fmt in formats:
                    yield ["gf", "--spec", spec, "--file", f"graphs/{name}.txt",
                           "--minor", str(minor)] + fmt, {}
    for name, leaves in TREE_LEAVES.items():
        for leaf in leaves:
            for fmt in formats:
                yield ["tree-inverse", "--file", f"graphs/{name}.txt",
                       "--minor", str(leaf)] + fmt, {}
    for name, size in REFUSED_GRAPHS:
        for minor in range(size):
            for spec in ([], ["--spec", "total"], ["--spec", "first"]):
                for fmt in formats:
                    yield ["gf"] + spec + ["--file", f"graphs/{name}.txt",
                                           "--minor", str(minor)] + fmt, {}
    checks = ([["cyclic", str(n), str(3 * n)] for n in range(2, 13)]
              + [["near_symmetry", str(k)] for k in (2, 3)]
              + [["tree_equivalence", str(seed), "2"] for seed in range(5)])
    for params in checks:
        for fmt in formats:
            yield ["check"] + params + fmt, {}
    # `check cyclic 3 5` expands its series with 12 coefficient updates.
    for budget in ("11", "12"):
        yield ["check", "cyclic", "3", "5", "--budget", budget], {}
    for name in BAD_GRAPHS:
        yield ["fpp", "--file", f"graphs/{name}.txt"], {}
    for name in SEPARATOR_GRAPHS:
        for fmt in formats:
            yield ["gf", "--spec", "total", "--file", f"graphs/{name}.txt"] + fmt, {}
        yield ["fpp", "--file", f"graphs/{name}.txt"], {}
    for name in SAVED_GFS:
        for fmt in formats:
            yield ["series", "--file", f"gfs/{name}.json", "--order", "12"] + fmt, {}
    # A numerator with a negative coefficient over factors of high multiplicity.
    for order in ("0", "12"):
        for fmt in formats:
            yield ["series", "--file", "gfs/multiplicities.json", "--order", order] + fmt, {}
    for name in BAD_GFS:
        yield ["series", "--file", f"gfs/{name}.json", "--order", "4"], {}
    for spec in ("path:1_0", "path: 3", "path:3 ", "path:+2", "path:٢",
                 "kary:+2,2", "kary:2", "torus:3", "cycle"):
        yield ["series", "--family", spec, "--order", "2"], {}
        yield ["gf", "--family", spec, "--spec", "total"], {}
    for argv in (["ehrhart", "x"], ["ehrhart", "1_0"], ["ehrhart", "+3"],
                 ["ehrhart", "3", "--normal-m", "٢"], ["check", "reflexive"],
                 ["check", "reflexive", "3", "4"], ["check", "everything"],
                 ["gf", "--family", "cycle:4", "--file", "graphs/diamond.txt"],
                 ["gf"], ["fpp", "--family", "path:3", "--threads", "0"],
                 ["gf", "--family", "path:3", "--minor", "7"],
                 ["series", "--family", "path:3", "--order", "-1"]):
        yield argv, {}
    for argv in (["fpp", "--family", "complete:6"],
                 ["gf", "--family", "complete:6"],
                 ["fpp", "--family", "cycle:5", "--budget", "5"],
                 ["fpp", "--family", "cycle:5", "--budget", "0"],
                 ["fpp", "--family", "cycle:5", "--budget", "+5"]):
        yield argv, {}
    for budget in ("5", "625", "1_0", "0"):
        yield ["fpp", "--family", "cycle:5"], {"LAPCOMP_BUDGET": budget}
        yield ["gf", "--family", "cycle:5", "--spec", "total"], {"LAPCOMP_BUDGET": budget}
    yield ["fpp", "--family", "cycle:5", "--budget", "625"], {"LAPCOMP_BUDGET": "5"}
    # Integers of more than the 4,300 digits that int() reads from a str by
    # default, and a budget of exactly 4,300.
    for nines in ("9" * 4300, "9" * 5000):
        yield ["fpp", "--family", "cycle:5", "--budget", nines], {}
        yield ["fpp", "--family", "cycle:5"], {"LAPCOMP_BUDGET": nines}
    yield ["tree-inverse", "--family", "path:" + "9" * 5000], {}
    yield ["ehrhart", "9" * 5000], {}
    for argv, required in boundary_calls():
        for budget in (required, required - 1):
            for fmt in formats:
                yield argv + fmt + ["--budget", str(budget)], {}
                yield argv + fmt, {"LAPCOMP_BUDGET": str(budget)}
    for argv in (["--help"], ["ehrhart", "--help"], ["fpp", "--help"], []):
        yield argv, {}
    for argv in ARGV_EDGES:
        yield argv, {}


def boundary_calls():
    """(argv, required) of each call of the budget-boundary block."""
    for family, required in BOUNDARY_FAMILIES.items():
        for command in (["fpp"], ["gf"], ["gf", "--spec", "total"],
                        ["gf", "--spec", "first"]):
            yield command + ["--family", family], required
        yield ["series", "--family", family, "--order", "4"], required
    for (n, m), required in BOUNDARY_EHRHART.items():
        yield ["ehrhart", str(n), "--normal-m", str(m)], required


def run(argv, env):
    """(exit code, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with mock.patch.dict(os.environ, {"COLUMNS": "80", **env}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if "LAPCOMP_BUDGET" not in env:
            os.environ.pop("LAPCOMP_BUDGET", None)
        os.chdir(HERE)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def record(argv, env) -> dict:
    """The corpus line of one call."""
    code, out, err = run(argv, env)
    line = {"argv": argv, "env": env, "exit": code}
    for name, text in (("stdout", out), ("stderr", err)):
        line[f"{name}_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        if len(text) <= TEXT_MAX:
            line[name] = text
    return line


def write_corpus() -> None:
    with CORPUS.open("w", encoding="utf-8") as f:
        for argv, env in calls():
            f.write(json.dumps(record(argv, env), ensure_ascii=False) + "\n")


def corpus() -> list[dict]:
    """The corpus's lines, parsed."""
    with CORPUS.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def check_corpus() -> int:
    """Replay the corpus: 0 if every line is what its call gives now, else
    1, with each changed call named."""
    lines = corpus()
    changed = [(line["argv"], line["env"]) for line in lines
               if record(line["argv"], line["env"]) != line]
    for argv, env in changed:
        print(f"changed: {argv} {env}")
    print(f"{len(changed)} changed of {len(lines)} calls")
    return 1 if changed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check_corpus())
    if sys.argv[1:]:
        sys.exit("usage: regen.py [--check]")
    write_corpus()
