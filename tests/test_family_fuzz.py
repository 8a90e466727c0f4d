"""Seeded fuzzing of `--family` specs through the CLI: every mutant of a
built-in family spec either answers (exit 0) or is refused with exit 2 and
a one-line `error: ...` message, never a traceback or exit 1."""

import random
import re

import pytest

from golden import regen
from lapcomp.cli import main

SPECS = regen.FAMILIES + ("complete:5", "leafed_cycle:5")
# Tokens put in place of another: family names, known and not; numbers
# no larger than the specs' own, so that mutants stay small; signed,
# padded, with `_` or in digits outside ASCII (Arabic-Indic and
# fullwidth three); and separators.
REPLACEMENTS = ("path", "cycle", "leafed_cycle", "kary", "complete", "torus", "Cycle", "",
                "0", "1", "2", "3", "02", "-1", "+2", "1_0", " 3", "\u0663", "\uff13",
                ":", ",", "::", ", ")
# Inside or beside a token: signs, `_`, blanks (space, tab, no-break,
# ideographic), separators and digits outside ASCII (Arabic-Indic three,
# fullwidth seven, superscript two).
INSERTS = ("+", "-", "_", " ", "\t", "\u00a0", "\u3000", ":", ",",
           "\u0663", "\uff17", "\u00b2")


def mutate(spec, rng):
    """One to three token edits: drop, duplicate (after a separator) or
    swap a token, replace it by one of REPLACEMENTS, or put one of INSERTS
    before, inside or after it.  A token is a name, a run of digits, or a
    `:` or `,`.  ASCII digits come only from the spec and REPLACEMENTS,
    though a drop or a swap may join two runs of them."""
    parts = re.findall(r"[^\d:,]+|\d+|[:,]", spec)
    for _ in range(rng.randint(1, 3)):
        if not parts:
            break
        i = rng.randrange(len(parts))
        op = rng.randrange(5)
        if op == 0:
            parts[i] = ""
        elif op == 1:
            parts[i] += rng.choice((":", ",", " ")) + parts[i]
        elif op == 2:
            j = rng.randrange(len(parts))
            parts[i], parts[j] = parts[j], parts[i]
        elif op == 3:
            parts[i] = rng.choice(REPLACEMENTS)
        else:
            at = rng.randint(0, len(parts[i]))
            parts[i] = parts[i][:at] + rng.choice(INSERTS) + parts[i][at:]
    return "".join(parts)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_family_specs(seed, capsys):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(100):
        spec = mutate(rng.choice(SPECS), rng)
        # `--family=SPEC`, so that a spec starting with `-` still reaches
        # the spec reader rather than the option parser.
        code = main(["gf", "--spec", "first", f"--family={spec}"])
        out, err = capsys.readouterr()
        assert code in (0, 2), (spec, code, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (spec, err)
        outcomes.add(code)
    assert outcomes == {0, 2}
