"""lapcomp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``lapcomp`` from ``src/``
there and writes its temporary inputs under ``.bench_work/``.  The last
line of stdout is the result (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it is the full report with provenance,
sample counts, the output digest and, with ``--trace 1``, the per-layer
table.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection

import checks
import workloads
from tracer import MODULES
from worker import NOMINAL_CAL_NS

SETUP_REPEATS = 5
# A query's time is scaled by the median of the calibration chunks timed
# within this many queries of it, in the same pass.
CAL_WINDOW = 5
DEADLINE_S = 160.0

END_TO_END = [
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Functions with their own self_ms and calls metrics: the ones the ROADMAP's
# open items are expected to move, on the workloads that exercise them.
TRACED_FUNCTIONS = [
    "cone_engine.fpp_points",
    "cone_engine.integer_point_transform",
    "cone_engine.specialize",
    "cli.main",
    "exact_linalg.inverse",
    "exact_linalg.adjugate_pair",
    "exact_linalg.determinant",
    "cycle_families.phi_histogram_dp",
    "cycle_families.phi_zero_histogram_dp",
    "ehrhart_reflexive.dilate_points",
    "ehrhart_reflexive.normality_probe",
    "conjecture_lab.check_near_symmetry",
    "conjecture_lab.check_conjecture_cyclic",
    "graph_core.parse_graph",
    "graph_core.laplacian_minor",
]

PER_LAYER = (
    [(f"{f}.{m}", u) for f in TRACED_FUNCTIONS for m, u in (("self_ms", "ms"), ("calls", "count"))]
    + [
        ("cone_engine.fpp_points.points", "count"),
        ("cone_engine.points_per_s", "1/s"),
        ("ehrhart_reflexive.dilate_points.points", "count"),
        ("ehrhart_reflexive.dilate_points.cells", "count"),
        ("ehrhart_reflexive.dilate_points.hit_ratio", "ratio"),
    ]
    + [(f"{mod}.{m}", u) for mod in MODULES
       for m, u in (("self_ms", "ms"), ("calls", "count"), ("refusals", "count"), ("share", "ratio"))]
    + [
        ("share.box_scan", "ratio"),
        ("share.digit_dp", "ratio"),
        ("trace.query_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


class BenchmarkError(RuntimeError):
    pass


WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def _spawn(task: str, *args):
    """Start a fresh worker interpreter and send it its task over a socket."""
    ours, theirs = socket.socketpair()
    with theirs:
        proc = subprocess.Popen([sys.executable, WORKER, str(theirs.fileno())],
                                pass_fds=(theirs.fileno(),), stdout=subprocess.DEVNULL)
    conn = Connection(ours.detach())
    conn.send((task, args))
    return proc, conn


def _stop(proc, conn) -> None:
    conn.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _recv(conn, deadline: float):
    if not conn.poll(max(0.0, deadline - time.monotonic())):
        raise BenchmarkError("worker missed the run deadline")
    return conn.recv()


def _provenance(root: str, seed: int) -> dict:
    src_hash = hashlib.sha256()
    pkg = os.path.join(root, "src", "lapcomp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file) as fh:
                    commit = fh.read().strip()
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def _layer_metrics(snap: dict, query_ns: int) -> dict:
    self_ns, calls = snap["self_ns"], snap["calls"]
    counters, refusals = snap["counters"], snap["refusals"]
    out = {}
    for f in TRACED_FUNCTIONS:
        out[f"{f}.self_ms"] = self_ns.get(f, 0) / 1e6
        out[f"{f}.calls"] = calls.get(f, 0)
    fpp_points = counters.get("cone_engine.fpp_points.points", 0)
    fpp_s = self_ns.get("cone_engine.fpp_points", 0) / 1e9
    out["cone_engine.fpp_points.points"] = fpp_points
    out["cone_engine.points_per_s"] = fpp_points / fpp_s if fpp_s else 0.0
    points = counters.get("ehrhart_reflexive.dilate_points.points", 0)
    cells = counters.get("ehrhart_reflexive.dilate_points.cells", 0)
    out["ehrhart_reflexive.dilate_points.points"] = points
    out["ehrhart_reflexive.dilate_points.cells"] = cells
    out["ehrhart_reflexive.dilate_points.hit_ratio"] = points / cells if cells else 0.0
    for mod in MODULES:
        mod_ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == mod)
        out[f"{mod}.self_ms"] = mod_ns / 1e6
        out[f"{mod}.calls"] = sum(v for k, v in calls.items() if k.split(".")[0] == mod)
        out[f"{mod}.refusals"] = refusals.get(mod, 0)
        out[f"{mod}.share"] = mod_ns / query_ns
    out["share.box_scan"] = self_ns.get("ehrhart_reflexive.dilate_points", 0) / query_ns
    out["share.digit_dp"] = (self_ns.get("cycle_families.phi_histogram_dp", 0)
                             + self_ns.get("cycle_families.phi_zero_histogram_dp", 0)) / query_ns
    out["trace.query_s"] = query_ns / 1e9
    return out


def _calibrated_ms(p: dict) -> list[float]:
    """Each query's latency in a pass, scaled to the nominal host speed."""
    cal = p["cal_ns"]
    out = []
    for i, wall_ns in enumerate(p["wall_ns"]):
        near = statistics.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 2])
        out.append(wall_ns * NOMINAL_CAL_NS / near / 1e6)
    return out


def _measure_setup(workload, seed, root, src, tiny, deadline):
    times = []
    for i in range(SETUP_REPEATS):
        workdir = os.path.join(root, ".bench_work", f"setup-{os.getpid()}-{i}")
        proc, conn = _spawn("probe_setup", workload, seed, workdir, src, tiny)
        try:
            times.append(_recv(conn, deadline))
        except EOFError:
            raise BenchmarkError("set-up probe died") from None
        finally:
            _stop(proc, conn)
    return times


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  root: str = ".", tiny: bool = False):
    """Run one workload; return (result line dict, full report dict)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    root = os.path.abspath(root)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lapcomp", "__init__.py")):
        raise BenchmarkError(f"no lapcomp package under {src}; run from a checkout root")
    loadavg_start = os.getloadavg()
    setup_times = _measure_setup(workload, seed, root, src, tiny, deadline)

    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    proc = None
    try:
        queries = workloads.build(workload, seed, workdir, tiny=tiny)
        if src not in sys.path:
            sys.path.insert(0, src)
        proc, conn = _spawn("run_queries", [q.argv for q in queries], seconds, trace, src)
        reasons: list[str | None] = []
        try:
            for q in queries:
                rc, err, error = _recv(conn, deadline)
                stdout = conn.recv_bytes().decode()
                if error is not None:
                    reasons.append(f"exception: {error.strip().splitlines()[-1]}")
                else:
                    reasons.append(checks.verify(q, rc, stdout, err))
                del stdout
                conn.send(True)
            summary = _recv(conn, deadline)
        except EOFError:
            raise BenchmarkError("query worker died") from None
    finally:
        if proc is not None:
            _stop(proc, conn)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass

    passes = summary["passes"]
    timed = [p for p in passes if not p["traced"] and not p["warmup"]]
    traced = [p for p in passes if p["traced"]]
    n = len(queries)
    failed_queries = {i for i, r in enumerate(reasons) if r is not None}
    failed = sum(len(failed_queries | set(p["mismatched"])) for p in passes)
    attempted = n * len(passes)

    # The host's speed moves between regimes up to 1.5x apart that last
    # seconds to minutes, so every time is calibrated: scaled by the
    # calibration chunk timed around it (see README, Estimators).  A query's
    # latency is the median of its calibrated times over the timed passes
    # (pass 0 is the warm-up), and wall_s the sum of those latencies.
    pass_walls = [sum(p["wall_ns"]) / 1e9 for p in timed]
    calibrated = [_calibrated_ms(p) for p in timed]
    per_query_ms = [statistics.median(c[i] for c in calibrated) for i in range(n)]
    raw_fastest_ms = [min(p["wall_ns"][i] for p in timed) / 1e6 for i in range(n)]
    p90 = statistics.quantiles(per_query_ms, n=10)[8]
    setup_s = [t * NOMINAL_CAL_NS / cal_ns for t, cal_ns in setup_times]
    e2e = {
        "wall_s": sum(per_query_ms) / 1e3,
        "query_p50_ms": statistics.median(per_query_ms),
        "query_p90_ms": p90,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }
    by_kind: dict[str, list[float]] = {}
    for q, ms in zip(queries, per_query_ms):
        by_kind.setdefault(q.kind, []).append(ms)

    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": _provenance(root, seed),
        "loadavg": {"start": loadavg_start, "end": os.getloadavg()},
        "reference_loop_ms": summary["reference_loop_ms"],
        "rss_after_import_mb": summary["import_rss_kb"] / 1024,
        "queries_per_pass": n,
        "timed_passes": len(timed),
        "traced_passes": len(traced),
        "end_to_end": e2e,
        "samples": {
            "query_p50_ms": n,
            "query_p90_ms": n,
            "beyond_p90": sum(ms > p90 for ms in per_query_ms),
            "per_query": f"median of {len(timed)} timed passes, calibrated",
        },
        "calibration_ms": {
            "nominal": NOMINAL_CAL_NS / 1e6,
            "pass_median": [statistics.median(p["cal_ns"]) / 1e6 for p in timed],
            "setup": [cal_ns / 1e6 for _, cal_ns in setup_times],
        },
        "raw": {
            "wall_s_fastest_per_query": sum(raw_fastest_ms) / 1e3,
            "query_p50_ms_fastest": statistics.median(raw_fastest_ms),
            "setup_s_median": statistics.median(t for t, _ in setup_times),
        },
        "pass_wall_s": pass_walls,
        "pass_calibrated_s": [sum(c) / 1e3 for c in calibrated],
        "warmup_pass_s": sum(passes[0]["wall_ns"]) / 1e9,
        "query_ms": [[round(p["wall_ns"][i] / 1e6, 3) for p in timed] for i in range(n)],
        "pass_cpu_s": [sum(p["cpu_ns"]) / 1e9 for p in timed],
        "setup_s_repeats": setup_s,
        "setup_s_raw_repeats": [t for t, _ in setup_times],
        "failed_frac": failed / attempted,
        "failures": [f"query {i} ({queries[i].kind}): {r}"
                     for i, r in enumerate(reasons) if r is not None][:10],
        "output_sha256": summary["output_sha256"],
        "by_kind": {k: {"count": len(v), "p50_ms": statistics.median(v),
                        "total_ms": sum(v)} for k, v in sorted(by_kind.items())},
        "run_s": time.monotonic() - start,
    }

    if trace:
        per_pass = [_layer_metrics(p["trace"], sum(p["wall_ns"])) for p in traced]
        layers = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        traced_cal = [_calibrated_ms(p) for p in traced]
        traced_ms = [statistics.median(c[i] for c in traced_cal) for i in range(n)]
        layers["trace.overhead_frac"] = sum(traced_ms) / sum(per_query_ms) - 1
        # Detail of the first traced pass: every wrapped function, and each
        # share of the traced query time together with that base.
        snap = traced[0]["trace"]
        self_sum = sum(snap["self_ns"].values())
        query_ns = sum(traced[0]["wall_ns"])
        first = per_pass[0]
        report["trace_detail"] = {
            "functions": [
                [k, snap["self_ns"][k] / 1e6, snap["calls"][k]]
                for k in sorted(snap["self_ns"], key=snap["self_ns"].get, reverse=True)
            ],
            "query_s": query_ns / 1e9,
            "self_sum_s": self_sum / 1e9,
            "unattributed_frac": 1 - self_sum / query_ns,
            "shares": {name: first[name] for name in first
                       if name.endswith(".share") or name.startswith("share.")},
            "traced_pass_wall_s": [sum(p["wall_ns"]) / 1e9 for p in traced],
        }
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
