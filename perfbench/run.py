#!/usr/bin/env python3
"""Wall-clock benchmark of the ParallelEVM reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload import-large --seed 1 --seconds 15 --trace 0

Workloads: ``import-large``, ``contention-roots``, ``serve-mixed`` (see
``perfbench/README.md`` for why each exists and what it should move).

Every measurement happens in a fresh worker process (one OS thread; the
executors' worker threads are simulated), so process-global caches such
as the Keccak word cache never carry over from one run to the next:

* ``--trace 0``: one ``measure`` worker sets up, runs the timed region for
  at least ``--seconds`` at nominal host speed (below) and at least the
  workload's sim window, and checks
  the outputs against a serial re-execution; four more workers only set up,
  so ``setup_s`` is a median of five.  Prints every end-to-end metric.
* ``--trace 1``: the same ``measure`` worker, then a ``traced`` worker
  that wraps each layer's public functions and runs exactly the sim
  window.  Prints every per-layer metric plus ``trace.overhead_ratio``
  (untraced over traced ``txs_per_s``); spans are written to
  ``perfbench/out/``.

Every end-to-end wall time is rescaled to a nominal host speed with the
reference kernel of ``perfbench/reference.py``, gauged between steps about
every quarter second (per-layer times stay unscaled); the first report line gives the host's slowdown and
the unscaled ``txs_per_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when a
result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from statistics import median

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("import-large", "contention-roots", "serve-mixed")
SETUP_REPEATS = 5
#: Every worker of one run must finish within this many seconds in total.
RUN_BUDGET_S = 170.0
#: A timed region never runs more than this many sim windows, so a much
#: faster program still finishes its run in bounded time.
MAX_WINDOWS = 5
#: Nor does it run longer than this many times ``--seconds`` of wall time,
#: however slow the host is.
MAX_STRETCH = 2.0

#: End-to-end metric -> (unit, noisy).  Noisy metrics are measured on the
#: host (times rescaled to nominal host speed); the others are simulated
#: and repeat exactly for a seed.
END_TO_END = {
    "txs_per_s": ("tx/s", True),
    "block_ms_p50": ("ms", True),
    "block_ms_tail": ("ms", True),
    "requests_per_s": ("req/s", True),
    "setup_s": ("s", True),
    "peak_rss_mb": ("MB", True),
    "sim_tps": ("tx/s", False),
    "sim_speedup": ("x", False),
    "sim_latency_ms_p50": ("ms", False),
    "sim_latency_ms_tail": ("ms", False),
}


# ------------------------------------------------------------------ stats


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, min(99, math.floor(100 * (1 - 10 / samples))))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------- worker


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _wall_metrics(steps, window: int) -> dict:
    busy = sum(step.busy_s for step in steps)
    blocks = [step.block_s for step in steps if step.block_s is not None]
    pct = tail_percentile(window)
    return {
        "txs_per_s": sum(step.txs for step in steps) / busy,
        "requests_per_s": sum(step.requests for step in steps) / busy,
        "block_ms_p50": median(blocks) * 1e3,
        "block_ms_tail": percentile(blocks, pct) * 1e3,
        "block_tail_pct": pct,
        "block_samples": len(blocks),
        "timed_steps": len(steps),
        "busy_s": busy,
    }


def _sim_metrics(steps, check) -> dict:
    txs = sum(step.txs for step in steps)
    advance_us = sum(step.advance_us for step in steps)
    numbers = [step.number for step in steps if step.number is not None]
    serial_us = sum(check.serial_makespan_us[number] for number in numbers)
    parallel_us = sum(step.makespan_us for step in steps)
    latencies = [us / 1e3 for step in steps for us in step.tx_latencies_us]
    pct = tail_percentile(len(latencies))
    return {
        "sim_tps": txs / (advance_us / 1e6),
        "sim_speedup": serial_us / parallel_us,
        "sim_latency_ms_p50": median(latencies),
        "sim_latency_ms_tail": percentile(latencies, pct),
        "sim_latency_tail_pct": pct,
        "sim_latency_samples": len(latencies),
    }


def _rescale(steps, marks, gauges) -> None:
    """Rescale each step's wall times by the gauges taken around it."""
    for step, mark in zip(steps, marks):
        scale = reference.factor(gauges[mark], gauges[mark + 1])
        step.busy_s *= scale
        if step.block_s is not None:
            step.block_s *= scale


def worker(args) -> dict:
    """One fresh-process measurement; returns a JSON-ready dict."""
    before = reference.gauge()
    began = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    factory, window = workloads.WORKLOADS[args.workload]
    window = args.window or window
    load = factory(args.seed)
    load.setup()
    setup_raw_s = time.perf_counter() - began
    report = {
        "setup_s": setup_raw_s * reference.factor(before, reference.gauge()),
        "setup_raw_s": setup_raw_s,
    }
    if args.worker == "setup":
        return report

    traced = args.worker == "traced"
    if traced:
        import layers
        import spans

        recorder = spans.SpanRecorder()
        layers.instrument(recorder)
        load.recorder = recorder
        before = workloads.program_counters(load)
    steps = []
    # marks[i] indexes the gauge taken last before step i.
    marks = []
    gauges = [reference.gauge()]
    gauged = region_began = time.perf_counter()
    # The region's clock runs at nominal host speed, so a slow spell on the
    # host does not shorten the work a run measures.
    nominal_s = 0.0
    while True:
        steps.append(load.step())
        marks.append(len(gauges) - 1)
        now = time.perf_counter()
        if now - gauged >= reference.GAUGE_EVERY_S:
            gauges.append(reference.gauge())
            nominal_s += (now - gauged) * reference.factor(gauges[-2], gauges[-1])
            gauged = time.perf_counter()
        if len(steps) < window:
            continue
        if traced or len(steps) >= window * MAX_WINDOWS:
            break
        if nominal_s >= args.seconds or now - region_began >= MAX_STRETCH * args.seconds:
            break
    report["peak_rss_mb"] = _peak_rss_mb()
    gauges.append(reference.gauge())
    raw = _wall_metrics(steps, window)
    report["raw_txs_per_s"] = raw["txs_per_s"]
    report["raw_block_ms_p50"] = raw["block_ms_p50"]
    report["host_slowdown"] = median(gauges) / reference.NOMINAL_S
    _rescale(steps, marks, gauges)
    report.update(_wall_metrics(steps, window))
    # The traced run covers exactly the sim window: compare like with like.
    window_busy = sum(step.busy_s for step in steps[:window])
    report["window_txs_per_s"] = sum(step.txs for step in steps[:window]) / window_busy
    if traced:
        after = workloads.program_counters(load)
        recorder.uninstall()
        load.recorder = None
        report["layers"] = layers.layer_metrics(recorder, steps, before, after)
        report["layer_units"] = layers.LAYER_UNITS
        report["spans"] = len(recorder)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        recorder.write(path)
        report["spans_file"] = os.path.relpath(path)

    check = load.check()
    report.update(_sim_metrics(steps[:window], check))
    report.update(
        attempted=check.attempted,
        failed=check.failed,
        correct=check.correct,
        problems=check.problems[:20],
    )
    return report


# ----------------------------------------------------------------- parent


def _spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker process to completion and parse its report."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--worker", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.window:
        command += ["--window", str(args.window)]
    completed = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{mode} worker exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<34} {value:>16.6f} {unit:<8} {note}".rstrip()


def run(args) -> dict:
    """Spawn the workers for one run, print the report, return the result."""
    deadline = time.monotonic() + RUN_BUDGET_S
    measured = _spawn("measure", args, deadline)
    checks = [measured]
    print(f"perfbench {args.workload} seed {args.seed}: {measured['timed_steps']} "
          f"timed steps, {measured['busy_s']:.2f} s inside timed calls "
          f"(scaled); host ran {measured['host_slowdown']:.3f}x the nominal "
          f"kernel time; unscaled txs_per_s {measured['raw_txs_per_s']:.3f}, "
          f"block_ms_p50 {measured['raw_block_ms_p50']:.6f}")
    if args.trace:
        traced = _spawn("traced", args, deadline)
        checks.append(traced)
        units = dict(traced["layer_units"])
        metrics = dict(traced["layers"])
        units["trace.overhead_ratio"] = "ratio"
        metrics["trace.overhead_ratio"] = (
            measured["window_txs_per_s"] / traced["window_txs_per_s"]
        )
        print(f"traced: {traced['timed_steps']} steps, {traced['spans']} spans "
              f"written to {traced['spans_file']}")
        for name, value in metrics.items():
            print(_line(name, value, units[name]))
    else:
        setups = [measured["setup_s"]]
        setups += [
            _spawn("setup", args, deadline)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        metrics = {name: measured[name] for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = median(setups)
        notes = {
            "block_ms_tail": f"p{measured['block_tail_pct']} of "
                             f"{measured['block_samples']} blocks",
            "sim_latency_ms_tail": f"p{measured['sim_latency_tail_pct']} of "
                                   f"{measured['sim_latency_samples']} txs",
            "setup_s": f"median of {len(setups)} fresh processes",
        }
        for name, (unit, noisy) in END_TO_END.items():
            kind = "wall, noisy" if noisy else "simulated, exact"
            note = f"{kind}; {notes[name]}" if name in notes else kind
            print(_line(name, metrics[name], unit, note))
    attempted = sum(check["attempted"] for check in checks)
    failed = sum(check["failed"] for check in checks)
    print(_line("failed_share", failed / attempted, "ratio",
                f"{failed} of {attempted} blocks and requests"))
    for check in checks:
        for problem in check["problems"]:
            print(f"  PROBLEM: {problem}")
    return {
        "correct": all(check["correct"] for check in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("measure", "setup", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--window", type=int, default=0,
                        help="override the sim window (steps); for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {os.path.relpath(SRC)}/repro; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
