"""Seeded fuzzing of the `series --file` reader through the CLI: every
mutant of a golden gf file either answers (exit 0) or is refused with exit
2 and a one-line `error: ...` message, never a traceback or exit 1."""

import random
import re

import pytest

from golden import regen
from lapcomp.cli import main

GFS = sorted((regen.HERE / "gfs").glob("*.json"))
# Tokens put in place of another: floats, bools, null, blanks, and large
# but bounded exponents and multiplicities, quoted and bare.
REPLACEMENTS = ("1.5", "2e3", "-0.0", "true", "false", "null", '""', '" 1"',
                '"1000000000000"', "1000000000000", '"65537"', '"-3"', '"0"')
# Inside a token: `_`, a sign, blanks (space, no-break, ideographic) and
# digits outside ASCII (Arabic-Indic three, fullwidth seven, superscript
# two, Devanagari five).
INSERTS = ("_", "+", "-", " ", "\u00a0", "\u3000", "\u0663", "\uff17", "\u00b2", "\u096b")


def mutate(text, rng):
    """One to three token edits: drop any token, or duplicate, swap or
    replace a JSON string, or put one of INSERTS inside it.  A token is a
    JSON string, a bracket, brace, comma or colon, or a run of other
    non-blank characters."""
    parts = re.findall(r'"[^"]*"|[\[\]{},:]|[^\s\[\]{},:"]+|\s+', text)
    for _ in range(rng.randint(1, 3)):
        tokens = [i for i, p in enumerate(parts) if p and not p.isspace()]
        strings = [i for i in tokens if parts[i].startswith('"')]
        if not strings:
            break
        i = rng.choice(strings)
        op = rng.randrange(5)
        if op == 0:
            parts[rng.choice(tokens)] = ""
        elif op == 1:
            parts[i] += ", " + parts[i]
        elif op == 2:
            j = rng.choice(strings)
            parts[i], parts[j] = parts[j], parts[i]
        elif op == 3:
            parts[i] = rng.choice(REPLACEMENTS)
        else:
            at = rng.randint(1, len(parts[i]) - 1)
            parts[i] = parts[i][:at] + rng.choice(INSERTS) + parts[i][at:]
    return "".join(parts)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_gf_files(seed, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "gf.json"
    outcomes = set()
    for k in range(100):
        text = mutate(rng.choice(GFS).read_text(encoding="utf-8"), rng)
        path.write_text(text, encoding="utf-8")
        code = main(["series", "--file", str(path), "--order", "12"] + ["--json"] * (k % 2))
        out, err = capsys.readouterr()
        assert code in (0, 2), (text, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (text, err)
        outcomes.add(code)
    assert outcomes == {0, 2}
