"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it makes a tiny run
with and without tracing and requires that

* the correctness gate passes and no query fails;
* the result line carries exactly the metrics BENCHMARK.json declares,
  with their units, and every end-to-end metric is positive;
* in the traced run the layers' self times add up to the traced query
  time: never more, and less by at most SELF_TIME_TOLERANCE (the part of
  a query spent in the harness's own capture code, outside every layer);
* the gate rejects a corrupted output of each query kind.

It also checks that the benchmark fails, printing no result, when run in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import checks
import run
import workloads

SELF_TIME_TOLERANCE = 0.05


def _declared(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _metric_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _check_workload(workload: str, root: str, declared: dict) -> list[str]:
    problems = []
    for trace in (False, True):
        result, report = run.run_benchmark(workload, seed=1, seconds=0.5,
                                           trace=trace, root=root, tiny=True)
        tag = f"{workload} trace={int(trace)}"
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{tag}: gate failed: {report['failures']}")
        wanted = declared["per_layer" if trace else "end_to_end"]
        if _metric_units(result) != wanted:
            problems.append(f"{tag}: metrics differ from BENCHMARK.json")
        if not trace:
            for name, m in result["metrics"].items():
                if not m["value"] > 0:
                    problems.append(f"{tag}: {name} is {m['value']}")
            continue
        detail = report["trace_detail"]
        gap = detail["unattributed_frac"]
        if not 0 <= gap <= SELF_TIME_TOLERANCE:
            problems.append(f"{tag}: layer self times miss the query time by {gap:.2%}")
    return problems


def _check_gate_rejects(root: str) -> list[str]:
    """A blank or altered output must not pass any checker."""
    problems = []
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, ".bench_work"))
    try:
        for workload in workloads.WORKLOADS:
            seen = set()
            for q in workloads.build(workload, 1, workdir, tiny=True):
                if q.kind in seen:
                    continue
                seen.add(q.kind)
                rc = 2 if q.kind == "dense_refusal" else 0
                for stdout, stderr in (("", ""), ("1\n", "error: budget exhausted: x\n")):
                    if checks.verify(q, rc, stdout, stderr) is None:
                        problems.append(f"{workload}/{q.kind}: accepted {stdout!r}")
                if checks.verify(q, 1, "", "") is None:
                    problems.append(f"{workload}/{q.kind}: accepted exit code 1")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def _check_bare_directory(root: str) -> list[str]:
    """Without src/lapcomp the benchmark must exit non-zero and print no result."""
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(root, ".bench_work"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cone_series",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: benchmark did not fail cleanly"]
    return []


def main() -> int:
    root = os.getcwd()
    declared = _declared(root)
    problems = []
    try:
        for workload in workloads.WORKLOADS:
            problems += _check_workload(workload, root, declared)
            print(f"{workload}: done", flush=True)
        problems += _check_gate_rejects(root)
        problems += _check_bare_directory(root)
    finally:
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
