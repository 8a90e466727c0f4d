"""The benchmark's own correctness gate, on its tiny workloads.

`perfbench/` is only imported: its `workloads` module writes the inputs and
its `checks.verify` judges each query's output by routes of its own.
"""

import importlib
import sys
from pathlib import Path

import pytest

from lapcomp.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("LAPCOMP_BUDGET", raising=False)
    import checks
    import workloads

    return workloads, checks


def test_traced_modules_exist(monkeypatch):
    # The traced run imports `lapcomp.cli`, as this file does, and then looks
    # up each of the tracer's modules in `sys.modules`, so a module deleted
    # or renamed in `lapcomp` must fail here, not only in that run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import MODULES

    for name in MODULES:
        assert sys.modules[f"lapcomp.{name}"] is importlib.import_module(f"lapcomp.{name}")


@pytest.mark.parametrize("seed", [1, 2])
def test_cone_listing_passes_the_gate(perfbench, capsys, tmp_path, seed):
    workloads, checks = perfbench
    queries = workloads.build("cone_listing", seed, str(tmp_path), tiny=True)
    assert {q.kind for q in queries} == {"fpp_json", "gf_json"}
    for q in queries:
        rc = main(list(q.argv))
        captured = capsys.readouterr()
        assert checks.verify(q, rc, captured.out, captured.err) is None, q.argv


def test_every_tiny_workload_passes_the_gate(perfbench, capsys, tmp_path):
    # One process runs all four workloads one query after another, as a
    # benchmark worker does, so one argument parser serves every command.
    workloads, checks = perfbench
    for name in workloads.WORKLOADS:
        for q in workloads.build(name, 1, str(tmp_path), tiny=True):
            rc = main(list(q.argv))
            captured = capsys.readouterr()
            assert checks.verify(q, rc, captured.out, captured.err) is None, q.argv


def test_gate_rejects_a_wrong_listing(perfbench, capsys, tmp_path):
    # The gate is not vacuous: one point dropped from a listing fails it.
    workloads, checks = perfbench
    q = next(q for q in workloads.build("cone_listing", 1, str(tmp_path), tiny=True)
             if q.kind == "fpp_json")
    rc = main(list(q.argv))
    out = capsys.readouterr().out
    cut = out.rindex("    {")
    broken = out[:cut].rstrip(",\n") + "\n  ]\n}\n"
    assert checks.verify(q, rc, broken, "") == "wrong point count"
