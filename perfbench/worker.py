"""One workload process: set up, signal ready, run ops, check them, report.

    python worker.py <workload> <mode> <seconds> <inputs.json> <out_dir>

Modes: ``setup`` exits once ready; ``timed`` runs the closed loop (one
client, the next op starts when the previous one returns) in whole passes over
the input pool until ``seconds`` of op time have accumulated; ``batch`` runs
the fixed trace batch once untraced; ``traced`` runs the same batch with span
tracing on.  The last stdout line is a JSON report for run.py.

Reference speed: on a shared machine the speed of the whole CPU drifts by up
to 1.6x over seconds to minutes.  Every CAL_EVERY seconds, between ops, the
loop times a fixed pure-Python kernel (``calibrate``); each op's time is also
reported scaled by C_REF_S over the median kernel time within CAL_WINDOW
seconds of the op, i.e. in milliseconds at the speed where the kernel takes
C_REF_S.
"""
from __future__ import annotations

import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HARD_FACTOR = 2.5      # no pass starts after this multiple of `seconds` of wall time
C_REF_S = 0.0025       # kernel time that defines the reference speed
CAL_EVERY = 0.1        # seconds between kernel timings
CAL_WINDOW = 1.0       # kernel timings this close to an op scale it


def calibrate() -> float:
    """Seconds taken by a fixed kernel of integer, dict and Fraction arithmetic,
    the operations bdalg's exact code spends its time in."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(8000):
        d[i % 97] = d.get(i % 97, 0) + i * i % 7
    f = Fraction(1, 3)
    for _ in range(100):
        f = f * Fraction(3, 2) - Fraction(1, 7)
    return time.perf_counter() - t0


def reference_times(ops: list, cals: list) -> list:
    """Op times scaled to the reference speed.

    ``ops`` holds (start, end) pairs and ``cals`` (time, kernel seconds) pairs,
    both in time order.  An op with no kernel timing in its window uses the
    nearest one."""
    at = [t for t, _ in cals]
    out = []
    for start, end in ops:
        lo = bisect.bisect_left(at, start - CAL_WINDOW)
        hi = bisect.bisect_right(at, end + CAL_WINDOW)
        near = [c for _, c in cals[lo:hi]]
        if not near:
            i = min(bisect.bisect_left(at, start), len(cals) - 1)
            near = [cals[i][1]]
        out.append((end - start) * C_REF_S / statistics.median(near))
    return out


class Runner:
    """Times each library call as one op; with a tracer, records spans inside it.
    Between ops it times the calibration kernel every CAL_EVERY seconds."""

    def __init__(self, tracer=None):
        self.ops: list = []
        self.cals: list = []
        self.total = 0.0
        self.tracer = tracer

    def calibrate(self):
        self.cals.append((time.perf_counter(), calibrate()))

    def timed(self, fn, *args, **kwargs):
        if not self.cals or time.perf_counter() - self.cals[-1][0] >= CAL_EVERY:
            self.calibrate()
        tr = self.tracer
        if tr is not None:
            tr.op_id = len(self.ops)
            tr.on = True
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if tr is not None:
                tr.on = False
            self.ops.append((t0, t1))
            self.total += t1 - t0


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f'{blas.get("name", "?")} {blas.get("version", "?")}',
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def plain(x):
    """An output as JSON-able data, for comparing repeats."""
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


class Records:
    """Outputs kept for checking: the first output of each pool task, and any
    repeat whose output differs from it.  An identical repeat shares the
    first one's verdict, so memory and checking time do not grow with the
    number of rounds a run completes."""

    def __init__(self):
        self.items: list = []
        self.first: dict = {}
        self.repeats: dict = {}

    def add(self, k: int, task: dict, out, nops: int):
        digest = hashlib.sha1(json.dumps(plain(out)).encode()).hexdigest()
        if self.first.get(k) == digest:
            self.repeats[k] = self.repeats.get(k, 0) + nops
            return
        self.first.setdefault(k, digest)
        self.items.append((k, task, out, nops))

    def failed(self, wl) -> int:
        verdicts = wl.check(self.items)
        first_ok: dict = {}
        failed = 0
        for (k, _, _, nops), ok in zip(self.items, verdicts):
            first_ok.setdefault(k, ok)
            failed += 0 if ok else nops
        return failed + sum(n for k, n in self.repeats.items() if not first_ok[k])


def run_task(wl, task, obj, runner, records, k) -> int:
    """Run one task; returns the number of ops that raised (0 or 1)."""
    n0 = len(runner.ops)
    try:
        out = wl.run(task, obj, runner.timed)
    except Exception:  # an op that raises is a failed op, not a crashed run
        if len(runner.ops) == n0:
            now = time.perf_counter()
            runner.ops.append((now, now))
        print(f"op failed: {task['kind']} size {task['size']}", file=sys.stderr)
        traceback.print_exc(limit=4, file=sys.stderr)
        return 1
    records.add(k, task, out, len(runner.ops) - n0)
    return 0


def main(argv) -> int:
    workload, mode, seconds, inputs, out_dir = argv
    seconds = float(seconds)
    wl = importlib.import_module(f"wl_{workload}")
    with open(inputs) as fh:
        doc = json.load(fh)
    pool = [t for rnd in doc["pool"] for t in rnd]
    prepared = [wl.prepare(t) for t in pool]
    warm = Runner()
    for t in wl.warm_tasks(doc["warm"]):
        wl.run(t, wl.prepare(t), warm.timed)

    tracer = None
    if mode == "traced":
        if getattr(wl, "TRACE_IN_SHIM", False):
            wl.SHIM = True
        else:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
    print("READY", flush=True)
    if mode == "setup":
        return 0

    runner = Runner(tracer)
    records = Records()
    raised = 0
    t_loop = time.perf_counter()
    passes = 0
    if mode == "timed":
        hard = HARD_FACTOR * seconds
        while runner.total < seconds and time.perf_counter() - t_loop < hard:
            for k, task in enumerate(pool):
                obj = prepared[k] if prepared[k] is not None else wl.prepare(task)
                prepared[k] = None
                raised += run_task(wl, task, obj, runner, records, k)
            passes += 1
    else:
        if tracer is not None:
            misses0 = tracer.poly_cache.cache_info().misses
        rounds = getattr(wl, "TRACE_ROUNDS", len(doc["pool"]))
        for k in range(sum(len(r) for r in doc["pool"][:rounds])):
            raised += run_task(wl, pool[k], prepared[k], runner, records, k)
    wall = time.perf_counter() - t_loop
    runner.calibrate()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    report = {"lat": [b - a for a, b in runner.ops],
              "ref": reference_times(runner.ops, runner.cals),
              "kernel_s": statistics.median(c for _, c in runner.cals),
              "passes": passes, "attempted": len(runner.ops), "wall_s": wall,
              "rss_mb": rss_mb, "env": environment()}
    if mode == "traced":
        if tracer is not None:
            summary = tracer.summary()
            summary["poly_cache_misses"] = tracer.poly_cache.cache_info().misses - misses0
            parts = [tracer.export()]
        else:
            summary, parts = wl.trace_summary(records.items)
        from tracing import save
        save(os.path.join(out_dir, f"spans-{workload}.npz"), parts)
        report["trace"] = summary
    report["failed"] = raised + records.failed(wl)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
