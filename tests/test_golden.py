"""Replay `golden/cli.jsonl`: every recorded CLI call must give the same
exit code, stdout and stderr, byte for byte.  `golden/regen.py` rewrites
the corpus; a changed line is a changed CLI."""

import hashlib
import json

from golden import regen
from lapcomp import graph_core

# Changed calls that a failed replay lists by argv.
SHOWN = 20


def test_corpus_lists_every_call_once():
    calls = [(line["argv"], line["env"]) for line in regen.corpus()]
    assert calls == list(regen.calls())
    assert len({json.dumps(call) for call in calls}) == len(calls)


def test_every_call_replays_byte_for_byte():
    """A failure names the argv and environment of every changed call, up
    to SHOWN of them, and the first change in full."""
    changed = [(line, regen.record(line["argv"], line["env"])) for line in regen.corpus()]
    changed = [(old, new) for old, new in changed if old != new]
    calls = "\n".join(f"  {old['argv']} {old['env']}" for old, _ in changed[:SHOWN])
    more = f"\n  ... and {len(changed) - SHOWN} more" if len(changed) > SHOWN else ""
    assert not changed, (f"{len(changed)} calls changed:\n{calls}{more}\n"
                         f"first: {changed[0]}")


def test_saved_gfs_are_what_gf_writes():
    """Each `series --file` input under `golden/gfs/` holds the bytes of
    the corpus's `gf --family F --spec MODE --json` call."""
    recorded = {tuple(line["argv"]): line["stdout_sha256"] for line in regen.corpus()
                if not line["env"]}
    for name, (family, mode) in regen.SAVED_GFS.items():
        saved = (regen.HERE / "gfs" / f"{name}.json").read_bytes()
        argv = ("gf", "--spec", mode, "--family", family, "--json")
        assert hashlib.sha256(saved).hexdigest() == recorded[argv], name


def test_spec_calls_never_build_the_laplacian(monkeypatch):
    """Every text `gf --spec` call of the corpus replays with the full
    Laplacian refused: its minor is filled straight from the edges."""
    def refuse(g):
        raise AssertionError("the --spec path built the full Laplacian")

    monkeypatch.setattr(graph_core, "laplacian", refuse)
    lines = [line for line in regen.corpus()
             if line["argv"][:2] == ["gf", "--spec"] and "--json" not in line["argv"]]
    assert len(lines) > 200
    for line in lines:
        assert regen.record(line["argv"], line["env"]) == line, line["argv"]
