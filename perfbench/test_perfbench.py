"""Tests of the benchmark itself: its output checks, determinism and spans.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
#: Per-layer units whose values are counted, not timed, so must repeat.
COUNTED_UNITS = {"count", "ratio", "bytes", "bytes/tx"}


def _small_import(**overrides) -> workloads.BlockImport:
    params = dict(
        accounts=500,
        hot_recipient_share=0.8,
        hot_owner_share=0.9,
        threads=16,
        durable=True,
        state_roots=False,
        warmup_blocks=0,
    )
    params.update(overrides)
    return workloads.BlockImport(3, **params)


def _corrupt_one_write(executor) -> None:
    """Make the live executor return one wrong value in its write set."""
    execute_block = executor.execute_block

    def corrupted(world, txs, env):
        result = execute_block(world, txs, env)
        key = sorted(result.writes, key=str)[0]
        result.writes[key] = (result.writes[key] or 0) + 1
        return result

    executor.execute_block = corrupted


@pytest.mark.parametrize("state_roots", [False, True])
def test_serial_check_passes_on_honest_run(state_roots):
    load = _small_import(state_roots=state_roots, durable=not state_roots)
    load.setup()
    for _ in range(2):
        load.step()
    check = load.check()
    assert check.correct, check.problems
    assert (check.attempted, check.failed) == (2, 0)


@pytest.mark.parametrize("state_roots", [False, True])
def test_corrupted_write_set_is_caught(state_roots):
    load = _small_import(state_roots=state_roots, durable=not state_roots)
    load.setup()
    load.step()
    _corrupt_one_write(load.executor)
    load.step()
    check = load.check()
    assert not check.correct
    assert check.failed == 1
    assert any("block" in problem for problem in check.problems)


def test_serving_conservation_catches_a_lost_tx():
    load = workloads.ServeMixed(
        2, accounts=192, clients=8, read_share=0.5, threads=4, warmup_blocks=0
    )
    load.setup()
    for _ in range(8):
        load.step()
    assert load.check().correct
    load.committed.pop(next(iter(load.committed)))
    check = load.check()
    assert not check.correct
    assert any("admitted" in problem for problem in check.problems)


def _worker(mode: str, workload: str, window: int) -> dict:
    completed = subprocess.run(
        [sys.executable, RUN, "--worker", mode, "--workload", workload,
         "--seed", "5", "--seconds", "0", "--window", str(window)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, window",
    [("import-large", 3), ("contention-roots", 3), ("serve-mixed", 40)],
)
def test_simulated_metrics_and_counts_repeat_exactly(workload, window):
    first, second = (_worker("measure", workload, window) for _ in range(2))
    for name in ("sim_tps", "sim_speedup", "sim_latency_ms_p50", "sim_latency_ms_tail"):
        assert first[name] == second[name], name
    assert first["correct"] and second["correct"]
    first, second = (_worker("traced", workload, window) for _ in range(2))
    counted = [
        name for name, unit in first["layer_units"].items()
        if unit in COUNTED_UNITS and name in first["layers"]
    ]
    assert "evm.instructions" in counted and "db.cache.hit_ratio" in counted
    for name in counted:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["core.executions_per_tx"] >= 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


# ------------------------------------------------------------------ spans


def _toy_module():
    module = types.ModuleType("perfbench_toy")
    module.__name__ = "perfbench_toy"

    def leaf(n):
        return sum(range(n))

    def outer(n, depth=0):
        if depth < 2:
            return module.outer(n, depth + 1)
        return module.leaf(n) + module.leaf(n)

    module.leaf = leaf
    module.outer = outer
    return module


def test_spans_nest_fold_recursion_and_uninstall(monkeypatch):
    module = _toy_module()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    originals = (module.leaf, module.outer)
    recorder = spans.SpanRecorder()
    recorder.wrap(module, "leaf", "toy.leaf", note=lambda args, result: args[0])
    recorder.wrap(module, "outer", "toy.outer")

    module.outer(10)  # inactive: records nothing
    assert len(recorder) == 0
    recorder.active = True
    recorder.set_tag("block-1")
    assert module.outer(1000) == 2 * sum(range(1000))
    recorder.active = False
    recorder.uninstall()
    assert (module.leaf, module.outer) == originals

    totals = recorder.totals()
    # The two direct re-entries of ``outer`` fold into its one span.
    assert totals["toy.outer"]["calls"] == 1
    assert totals["toy.leaf"]["calls"] == 2
    assert totals["toy.leaf"]["childless"] == 2
    assert recorder.notes["toy.leaf"] == 2000
    outer, leaf = totals["toy.outer"], totals["toy.leaf"]
    assert outer["self_ns"] == outer["ns"] - leaf["ns"]
    assert leaf["self_ns"] == leaf["ns"]
    assert list(recorder.parent) == [-1, 0, 0]
    assert recorder.tags == ["block-1"]


def test_spans_record_errors_and_close_the_span(monkeypatch):
    module = types.ModuleType("perfbench_toy_err")

    def boom():
        raise ValueError("no")

    module.boom = boom
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = spans.SpanRecorder()
    recorder.wrap(module, "boom", "toy.boom")
    recorder.active = True
    with pytest.raises(ValueError):
        module.boom()
    recorder.uninstall()
    assert recorder.errors == {"toy.boom": 1}
    assert recorder.end[0] >= recorder.start[0] > 0


def test_benchmark_json_names_every_printed_metric():
    import layers
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_rescale_uses_the_gauges_around_each_step():
    import reference
    import run

    def step():
        return workloads.Step(busy_s=1.0, block_s=0.5, number=0, txs=1,
                              requests=1, makespan_us=0.0, advance_us=0.0,
                              tx_latencies_us=[])

    steps = [step(), step()]
    nominal = reference.NOMINAL_S
    run._rescale(steps, [0, 1], [nominal, nominal, 2 * nominal])
    assert (steps[0].busy_s, steps[0].block_s) == (1.0, 0.5)
    assert steps[1].busy_s == pytest.approx(1 / 1.5)
    assert steps[1].block_s == pytest.approx(0.5 / 1.5)
    assert 0 < reference.gauge() < 1
