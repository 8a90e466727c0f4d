"""Seeded fuzzing of the edge-list reader: through the CLI, every mutant of
a golden graph file either answers (exit 0) or is refused with exit 2 and
a one-line `error: ...` message, never a traceback or exit 1; and the
reader gives the same graph or the same message as the line-by-line
reader kept in `oracles`."""

import random
import re

import pytest

from golden import regen
from lapcomp import GraphError, parse_graph
from lapcomp.cli import main
from oracles import read_graph

GRAPHS = sorted((regen.HERE / "graphs").glob("*.txt"))
# Signs and `_`; blanks: space, tab, newline, no-break and ideographic
# space; digits outside ASCII: Arabic-Indic three, fullwidth seven,
# superscript two, Devanagari five.
INSERTS = ("+", "-", "_", " ", "\t", "\n", "\u00a0", "\u3000",
           "\u0663", "\uff17", "\u00b2", "\u096b")
# Comment marks and line breaks: CR, CRLF, and the breaks of
# `str.splitlines` that are blanks to `str.split`, \v, \f, \x1c, \x85 and
# \u2028, beside \x1f, a blank that breaks no line.
SEPARATORS = ("#", " #", "\r", "\r\n", "\v", "\f", "\x1c", "\x1f", "\x85", "\u2028")


def mutate(text, rng, inserts=INSERTS):
    """One to three token edits: drop, duplicate or swap a token, or put
    one of `inserts` before, inside or after one."""
    parts = re.findall(r"\S+|\s+", text)
    for _ in range(rng.randint(1, 3)):
        tokens = [i for i, p in enumerate(parts) if not p.isspace()]
        if not tokens:
            break
        i = rng.choice(tokens)
        op = rng.randrange(4)
        if op == 0:
            parts[i] = ""
        elif op == 1:
            parts[i] += rng.choice((" ", "\n")) + parts[i]
        elif op == 2:
            j = rng.choice(tokens)
            parts[i], parts[j] = parts[j], parts[i]
        else:
            at = rng.randint(0, len(parts[i]))
            parts[i] = parts[i][:at] + rng.choice(inserts) + parts[i][at:]
    return "".join(parts)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_graph_files(seed, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "graph.txt"
    outcomes = set()
    for _ in range(100):
        text = mutate(rng.choice(GRAPHS).read_text(encoding="utf-8"), rng)
        path.write_text(text, encoding="utf-8")
        code = main(["gf", "--spec", "first", "--file", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 2), (text, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (text, err)
        outcomes.add(code)
    assert outcomes == {0, 2}


def outcome(read, text):
    """The graph that `read` makes of text, as its count and edges in
    order, or the message it refuses it with."""
    try:
        g = read(text)
    except GraphError as exc:
        return str(exc)
    return g.vertex_count, g.edges


@pytest.mark.parametrize("seed", range(4))
def test_reader_matches_the_line_by_line_oracle(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(300):
        text = mutate(rng.choice(GRAPHS).read_text(encoding="utf-8"), rng,
                      INSERTS + SEPARATORS)
        expected = outcome(read_graph, text)
        assert outcome(parse_graph, text) == expected, text
        outcomes.add(isinstance(expected, str))
    assert outcomes == {False, True}


def test_separators_read_as_the_oracle_reads_them():
    for path in GRAPHS:
        text = path.read_bytes().decode()
        assert outcome(parse_graph, text) == outcome(read_graph, text), path.name
    text = (regen.HERE / "graphs" / "separators.txt").read_bytes().decode()
    assert "\r\n" in text and outcome(parse_graph, text) == (
        6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)))
