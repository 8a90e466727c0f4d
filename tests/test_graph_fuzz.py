"""Seeded fuzzing of the edge-list reader through the CLI: every mutant of
a golden graph file either answers (exit 0) or is refused with exit 2 and
a one-line `error: ...` message, never a traceback or exit 1."""

import random
import re

import pytest

from golden import regen
from lapcomp.cli import main

GRAPHS = sorted((regen.HERE / "graphs").glob("*.txt"))
# Signs and `_`; blanks: space, tab, newline, no-break and ideographic
# space; digits outside ASCII: Arabic-Indic three, fullwidth seven,
# superscript two, Devanagari five.
INSERTS = ("+", "-", "_", " ", "\t", "\n", "\u00a0", "\u3000",
           "\u0663", "\uff17", "\u00b2", "\u096b")


def mutate(text, rng):
    """One to three token edits: drop, duplicate or swap a token, or put
    one of INSERTS before, inside or after one."""
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
            parts[i] = parts[i][:at] + rng.choice(INSERTS) + parts[i][at:]
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
