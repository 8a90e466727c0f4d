"""Replay `golden/cli.jsonl`: every recorded CLI call must give the same
exit code, stdout and stderr, byte for byte.  `golden/regen.py` rewrites
the corpus; a changed line is a changed CLI."""

import json

from golden import regen


def corpus():
    with regen.CORPUS.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def test_corpus_lists_every_call_once():
    calls = [(line["argv"], line["env"]) for line in corpus()]
    assert calls == list(regen.calls())
    assert len({json.dumps(call) for call in calls}) == len(calls)


def test_every_call_replays_byte_for_byte():
    changed = [(line, regen.record(line["argv"], line["env"])) for line in corpus()]
    changed = [(old, new) for old, new in changed if old != new]
    assert not changed, f"{len(changed)} calls changed; first: {changed[0]}"
