"""Code that runs in the benchmark's fresh worker processes.

    python3 perfbench/worker.py FD

The parent passes one end of a socket pair as FD and sends the task name
and its arguments over it; results go back the same way.

`probe_setup` times one set-up: importing ``lapcomp`` and generating the
workload's inputs.  `run_queries` is the closed loop: one client, one
thread, each query one in-process ``lapcomp.cli.main(argv)`` call with
stdout and stderr captured, the next query sent only after the previous
one returned.

Pass 0 is also the verification pass: after each query the worker hands
the output to the parent, which checks it, and waits for the verdict, so
no check runs while a query is timed.  Further passes follow until the next
one would end after `seconds`; their outputs must hash the same as in
pass 0.  With tracing on, pass 1 is untraced and the rest are traced.

Pass 0 also warms the program up; only the passes after it are timed.  In
those, a fixed calibration chunk (`calibrate`) runs before each query and
after the last one, so the parent can scale each query's time by the host
speed measured right around it.  Between queries the worker holds the
captured output of one query only, so the peak RSS it reports is the
program's own peak plus that output.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from multiprocessing.connection import Connection
from time import perf_counter, perf_counter_ns, process_time_ns


def _import_program(src: str):
    os.environ.pop("LAPCOMP_BUDGET", None)
    if src not in sys.path:
        sys.path.insert(0, src)
    import lapcomp.cli

    if not os.path.abspath(lapcomp.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported lapcomp from {lapcomp.cli.__file__}, not {src}")
    return lapcomp.cli


def probe_setup(conn, workload: str, seed: int, workdir: str, src: str,
                tiny: bool) -> None:
    """Time `import lapcomp` plus input generation in a fresh process."""
    import workloads

    if any(name == "lapcomp" or name.startswith("lapcomp.") for name in sys.modules):
        raise RuntimeError("lapcomp was imported before the set-up probe")
    os.makedirs(workdir)
    try:
        start = perf_counter()
        _import_program(src)
        workloads.build(workload, seed, workdir, tiny=tiny)
        elapsed = perf_counter() - start
        cal_ns = statistics.median(calibrate() for _ in range(9))
        conn.send((elapsed, cal_ns))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def reference_loop_ms() -> float:
    """Median of three timings of a fixed pure-Python loop (host speed)."""
    times = []
    for _ in range(3):
        start = perf_counter_ns()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append((perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


# What `calibrate` takes on the host speed that calibrated times refer to.
NOMINAL_CAL_NS = 3_600_000


def calibrate() -> int:
    """Time a fixed chunk of pure-Python work like the program's own.

    Exact fractions, small tuples as dict keys and a sort: about 3.6 ms on
    a 2-core x86-64 VM.  The collector is off while it runs, so the time
    does not depend on how many objects the program keeps alive.  Returns
    nanoseconds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        x, counts = Fraction(1, 3), {}
        for i in range(600):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
            key = (i, i * 7 % 13, i & 5)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        return perf_counter_ns() - start
    finally:
        if was_enabled:
            gc.enable()


class _Capture:
    """Write-only text sink that keeps the chunks it was given."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _call(cli, argv):
    # Every query starts from a heap without the earlier queries' cyclic
    # garbage, untimed.  Otherwise the peak RSS depends on when the collector
    # last ran before the largest query (36-43 MB over five cone_series
    # seeds, against 31.6-31.7 MB with this collection).
    gc.collect()
    out, err = _Capture(), _Capture()
    error = None
    start, cpu_start = perf_counter_ns(), process_time_ns()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            error = traceback.format_exc(limit=4)
    wall, cpu = perf_counter_ns() - start, process_time_ns() - cpu_start
    return rc, out.chunks, "".join(err.chunks), error, wall, cpu


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h


def _timed_pass(cli, argvs, expected, tracer):
    if tracer is not None:
        tracer.reset()
    walls, cpus, cals, mismatched = [], [], [], []
    for i, argv in enumerate(argvs):
        cals.append(calibrate())
        rc, chunks, _, _, wall, cpu = _call(cli, argv)
        walls.append(wall)
        cpus.append(cpu)
        if (rc, _digest(chunks).hexdigest()) != expected[i]:
            mismatched.append(i)
        del chunks
    cals.append(calibrate())
    return {
        "wall_ns": walls,
        "cpu_ns": cpus,
        "cal_ns": cals,
        "mismatched": mismatched,
        "trace": None if tracer is None else tracer.snapshot(),
    }


def run_queries(conn, argvs, seconds: float, trace: bool, src: str) -> None:
    cli = _import_program(src)
    import_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = [reference_loop_ms()]

    expected, walls0, cpus0 = [], [], []
    run_digest = hashlib.sha256()
    for argv in argvs:
        rc, chunks, err, error, wall, cpu = _call(cli, argv)
        data = "".join(chunks).encode()
        del chunks
        run_digest.update(data)
        expected.append((rc, hashlib.sha256(data).hexdigest()))
        walls0.append(wall)
        cpus0.append(cpu)
        conn.send((rc, err, error))
        conn.send_bytes(data)
        del data
        conn.recv()

    passes = [{"wall_ns": walls0, "cpu_ns": cpus0, "cal_ns": None, "mismatched": [],
               "trace": None, "traced": False, "warmup": True}]
    tracer, elapsed, longest = None, 0.0, 0.0
    while True:
        if trace and len(passes) > 1 and tracer is None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = perf_counter()
        p = _timed_pass(cli, argvs, expected, tracer)
        wall = perf_counter() - start
        p["traced"] = tracer is not None
        p["warmup"] = False
        passes.append(p)
        elapsed += wall
        longest = max(longest, wall)
        if trace and tracer is None:
            continue
        if elapsed + longest > seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference.append(reference_loop_ms())
    conn.send({
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
        "import_rss_kb": import_rss_kb,
        "reference_loop_ms": reference,
        "output_sha256": run_digest.hexdigest(),
    })


if __name__ == "__main__":
    channel = Connection(int(sys.argv[1]))
    task, task_args = channel.recv()
    {"probe_setup": probe_setup, "run_queries": run_queries}[task](channel, *task_args)
    channel.close()
