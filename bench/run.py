#!/usr/bin/env python3
"""wrdyn benchmark: one workload per invocation, or all three.

Usage, from the root of the repository::

    python3 bench/run.py --workload block-collapse --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

The program under test is the ``wrdyn`` package in ``src/`` next to this
directory; nothing needs installing.  Each run sets up the workload (import,
inputs, one warm-up call) seven times and reports the median set-up time,
then repeats identical rounds of program calls while another round fits in
``--seconds`` (at least three rounds) and reports median-round throughput,
then checks the last round's outputs.  With ``--trace 1`` it instead times
untraced rounds, traces one round layer by layer, and reports the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the machine fingerprint, goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy; children inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("block-collapse", "certified-sweep", "run-check")
SETUP_SAMPLES = 7
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120


def _setup(workload: str, seed: int, workdir: str):
    """Import the program, build and write the inputs, make one warm-up call."""
    t0 = time.perf_counter()
    import wrdyn

    if not Path(wrdyn.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported wrdyn from {wrdyn.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.prepare()
    wl.warm_up()
    return time.perf_counter() - t0, wl


def _setup_probe(workload: str, seed: int) -> float:
    """Set up once in a fresh interpreter and return its set-up time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form of its build config
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_rounds(wl, seconds: float, min_rounds: int, between=None):
    """Repeat identical rounds while another one fits in ``seconds``; at least ``min_rounds``.

    ``between`` runs after each round; its time does not count against ``seconds``.
    """
    times, tallies = [], []
    started, paused = time.perf_counter(), 0.0
    while len(times) < min_rounds or (
        time.perf_counter() - started - paused + statistics.median(times) <= seconds
    ):
        t0 = time.perf_counter()
        wl.execute_round()
        times.append(time.perf_counter() - t0)
        tallies.append(wl.tally_round())
        if between is not None:
            t1 = time.perf_counter()
            between()
            paused += time.perf_counter() - t1
    return times, tallies


def _measure(wl, workload: str, seed: int, seconds: float, setup_s: float):
    """Untraced rounds: the end-to-end metrics."""
    setups = [setup_s]

    def probe():
        # spread over the run, so one slow spell of the machine cannot set the median
        if len(setups) < SETUP_SAMPLES:
            setups.append(_setup_probe(workload, seed))

    times, tallies = _timed_rounds(wl, seconds, MIN_ROUNDS, between=probe)
    peak = _peak_rss_mb()
    while len(setups) < SETUP_SAMPLES:
        probe()
    per_round = statistics.median(times)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "runs_per_s": {"value": tallies[0].runs / per_round, "unit": "1/s"},
        "steps_per_s": {"value": tallies[0].steps / per_round, "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    return metrics, tallies, {"setup_samples_s": setups, "round_s": times}


def _measure_traced(wl, workload: str, seed: int, seconds: float):
    """Untraced rounds for a reference time, then one traced round: the per-layer metrics."""
    import tracing
    import wrdyn

    times, tallies = _timed_rounds(wl, seconds / 2, 2)
    untraced = statistics.median(times)
    recorder = tracing.Recorder()
    with tracing.instrument(recorder, wrdyn):
        t0 = time.perf_counter()
        wl.execute_round()
        traced = time.perf_counter() - t0
    tallies.append(wl.tally_round())
    values = tracing.layer_metrics(recorder, traced - untraced, untraced)
    metrics = {n: {"value": values[n], "unit": unit} for n, unit, _ in tracing.LAYER_METRICS}
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    recorder.save(str(spans))
    extra = {"untraced_round_s": times, "traced_round_s": traced, "spans_file": spans.name,
             "spans": len(recorder.start), "counts": dict(recorder.counts)}
    return metrics, tallies, extra


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        setup_s, wl = _setup(workload, seed, workdir)
        import checks

        if trace:
            metrics, tallies, extra = _measure_traced(wl, workload, seed, seconds)
        else:
            metrics, tallies, extra = _measure(wl, workload, seed, seconds, setup_s)

        verdict = checks.Verdict()
        first = tallies[0]
        verdict.require(
            all((t.runs, t.steps) == (first.runs, first.steps) for t in tallies),
            f"rounds disagree on runs/steps: {[(t.runs, t.steps) for t in tallies]}",
        )
        wl.verify(verdict)
        result = {
            "correct": verdict.passed,
            "attempted": sum(t.runs for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "metrics": metrics,
        }
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "fingerprint": fingerprint(), **result, **extra,
            "runs_per_round": first.runs, "steps_per_round": first.steps, "rounds": len(tallies),
            "check_worst": verdict.worst, "check_failures": verdict.failures,
        }
        name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
        with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        for line in verdict.failures[:20]:
            print(f"check failed: {line}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= 0 if res["correct"] and not res["failed"] else 1
        cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{workload:16s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wrdyn" / "__init__.py").is_file():
        print(f"error: the wrdyn sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    if args.setup_probe:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
        try:
            setup_s, _ = _setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
