"""The bdalg benchmark: seeded closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload {norms,exact,integer,cli,all} \\
        --seed N --seconds S --trace {0,1}

Run from any directory; the checkout is the parent of this file's directory
and the library is imported from its ``src/`` (``PYTHONPATH``), so the
benchmark measures the tree it sits in.  Every workload process is fresh,
single-threaded for BLAS and has a fixed ``PYTHONHASHSEED``.

``--trace 0`` prints the end-to-end metrics: set-up time (median of five
fresh set-ups), ops per second, median and 90th-percentile op latency, peak
resident memory, and the share of ops that returned a correct answer.  Times
are given at a fixed reference CPU speed (see worker.py); the table also
shows them as timed.  ``--trace 1`` runs a fixed batch twice, untraced and
traced, and prints the per-layer metrics and the tracing overhead.  The last stdout line is one JSON
object; the exit code is 1 if any answer was wrong or any op raised.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("norms", "exact", "integer", "cli")
SETUPS = 5
CALL_TIMEOUT = 170

sys.path.insert(0, HERE)
import gen  # noqa: E402
import tracing  # noqa: E402
from worker import C_REF_S, calibrate  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONUNBUFFERED="1")
    return env


def _kernel() -> float:
    """Median of five kernel timings, after five that warm the CPU and caches up."""
    return statistics.median([calibrate() for _ in range(10)][5:])


def _spawn(workload: str, mode: str, seconds: float, inputs: str):
    """Start one workload process; returns (set-up seconds, the same at the
    reference speed, report or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, mode,
           str(seconds), inputs, OUT]
    before = _kernel()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_env(), text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "READY":
            raise RuntimeError(f"{workload} worker did not start: {first!r}")
        setup_ref = setup_s * C_REF_S / before
        rest, _ = proc.communicate(timeout=CALL_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, setup_ref, (json.loads(lines[-1]) if lines else None)


def _quantiles(seconds: list):
    ms = sorted(x * 1000.0 for x in seconds)
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def end_to_end(workload: str, seconds: float, inputs: str):
    runs = [_spawn(workload, "setup", seconds, inputs) for _ in range(SETUPS - 1)]
    runs.append(_spawn(workload, "timed", seconds, inputs))
    rep = runs[-1][2]
    ref, lat = rep["ref"], rep["lat"]
    n, failed = len(ref), rep["failed"]
    p50, p90 = _quantiles(ref)
    raw50, raw90 = _quantiles(lat)
    metrics = {
        "ops_per_s": {"value": n / sum(ref), "unit": "ops/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": rep["rss_mb"], "unit": "MB"},
        "ok_rate": {"value": (n - failed) / n, "unit": "ratio"},
        "setup_s": {"value": statistics.median(r[1] for r in runs), "unit": "s"},
    }
    speed = C_REF_S / rep["kernel_s"]
    notes = {"ops_per_s": f"{n} ops in {rep['passes']} passes; as timed {n / sum(lat):.4g} "
                          f"at speed {speed:.3f} of the reference",
             "op_ms_p50": f"{n} samples; as timed {raw50:.4g}",
             "op_ms_p90": f"{n} samples, {n - int(0.9 * n)} beyond; as timed {raw90:.4g}",
             "ok_rate": f"error_rate {failed / n:.6f} ({failed} of {n})",
             "setup_s": "median of " + ", ".join(f"{r[1]:.4f}" for r in runs)
                        + "; as timed " + ", ".join(f"{r[0]:.4f}" for r in runs)}
    return rep, metrics, notes


def per_layer(workload: str, seconds: float, inputs: str):
    plain = _spawn(workload, "batch", seconds, inputs)[2]
    rep = _spawn(workload, "traced", seconds, inputs)[2]
    summary = rep["trace"]
    extra = {k: summary.get(k, 0) for k in ("poly_cache_misses", "cli_import_s", "cli_process_s")}
    metrics = tracing.layer_metrics(summary, extra)
    metrics["trace.overhead_ratio"] = {"value": sum(rep["ref"]) / sum(plain["ref"]),
                                       "unit": "ratio"}
    rep["failed"] += plain["failed"]
    rep["attempted"] += plain["attempted"]
    notes = {"trace.overhead_ratio": f"{sum(rep['ref']):.3f} s traced / "
                                     f"{sum(plain['ref']):.3f} s untraced at the reference "
                                     f"speed, {len(rep['ref'])} ops, {summary['span_count']} spans"}
    return rep, metrics, notes


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(OUT, exist_ok=True)
    inputs = os.path.join(OUT, f"inputs-{workload}.json")
    with open(inputs, "w") as fh:
        json.dump(gen.generate(workload, seed), fh)
    measure = per_layer if trace else end_to_end
    rep, metrics, notes = measure(workload, seconds, inputs)
    print(f"# workload {workload} seed {seed} trace {trace}: "
          f"{rep['attempted']} ops, {rep['failed']} failed")
    print("# env " + json.dumps(rep["env"], sort_keys=True))
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"#   {name:40s} {m['value']:>16.6g} {m['unit']:14s} {note}")
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One client: keep it and every process it starts on one CPU, so that the
    # ops and the calibration kernel see the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(ROOT, "src", "bdalg", "__init__.py")):
        print(f"no bdalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(w, args.seed, args.seconds, args.trace) for w in names]
    for res in results:
        print(json.dumps(res))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
