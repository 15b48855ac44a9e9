"""Chaos mode for the correctness harness.

``run_chaos_block`` re-runs the serializability certifier with every
executor operating under a :class:`repro.resilience.FaultPlan`: the serial
*reference* inside :func:`certify_block` stays fault-free, so the oracle
checks that a degraded run — retries, redo storms, worker crashes, serial
fallbacks — still converges to the exact serial state, receipts root and
gas.  Makespans are reported for visibility only; chaos runs make no
performance claims (EXPERIMENTS.md).

The block deadline is sized from a fault-free serial probe of the same
block (``deadline_factor`` × the serial makespan), so the watchdog scales
with the workload instead of needing per-block tuning.  Everything is a
pure function of ``(scenario, seed, block)``: re-running a failed chaos
seed reproduces the identical fault sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..concurrency import SerialExecutor
from ..executors import EXECUTORS
from ..resilience import (
    SCENARIOS,
    ChaosScenario,
    FaultPlan,
    RecoveryPolicy,
    scenario_recovery,
)
from ..workloads import Block, Chain
from .certify import CertificationReport, certify_block

# Deadline headroom over the fault-free serial makespan.  Generous on
# purpose: the default scenarios should recover *in place* (retries, redo
# budget, abort-storm detection); the watchdog is the backstop for
# livelock, not a scenario that fires on every run.
DEFAULT_DEADLINE_FACTOR = 25.0

# Counters summarized by ChaosBlockReport.describe()'s degradation line.
_SUMMARY_COUNTERS = (
    "storage_retries",
    "serial_tx_fallbacks",
    "serial_block_fallbacks",
)


@dataclass(slots=True)
class ChaosBlockReport:
    """One block certified under one chaos scenario."""

    scenario: str
    seed: int | str
    certification: CertificationReport
    deadline_us: float
    # Aggregated over every executor's plan; per-executor breakdowns live
    # in the metrics registry under resilience_* (labelled by executor).
    counters: dict[str, float] = field(default_factory=dict)
    faults_injected: float = 0.0

    @property
    def ok(self) -> bool:
        return self.certification.ok

    def describe(self) -> str:
        cert = self.certification
        head = (
            f"chaos[{self.scenario}] seed {self.seed} "
            f"block {cert.block_number} ({cert.tx_count} txs): "
        )
        degradation = ", ".join(
            f"{name}={self.counters[name]:g}"
            for name in _SUMMARY_COUNTERS
            if self.counters.get(name)
        )
        tail = (
            f"{self.faults_injected:g} faults injected"
            + (f", {degradation}" if degradation else "")
        )
        if self.ok:
            return head + f"serial-equivalent ({tail})"
        lines = [head + f"{len(cert.divergences)} DIVERGENCES ({tail})"]
        lines += ["  " + d.describe() for d in cert.divergences]
        return "\n".join(lines)


def run_chaos_block(
    chain: Chain,
    block: Block,
    scenario: ChaosScenario | str,
    seed: int | str = 0,
    threads: int = 8,
    deadline_factor: float = DEFAULT_DEADLINE_FACTOR,
    recovery: RecoveryPolicy | None = None,
    redo_budget: int | None = None,
    check_roots: bool = True,
    metrics=None,
) -> ChaosBlockReport:
    """Certify ``block`` with every executor running under ``scenario``.

    ``recovery`` overrides the harness-built policy entirely (the
    scenario's ``recovery_overrides`` are then NOT applied — an explicit
    policy is taken as authoritative, e.g. a test pinning a tiny redo
    budget or deadline).  ``redo_budget`` overrides just that knob on
    whichever policy is in force (the CLI's ``--budget``).
    """
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]
    if scenario.kind == "ingress":
        # Overload scenarios drive the serving stack end to end; the
        # fuzzer block plays no role (reproduce with (scenario, seed)).
        from .ingress import run_ingress_scenario

        return run_ingress_scenario(
            scenario, seed=seed, threads=threads, metrics=metrics
        )
    if scenario.kind == "replication":
        # Cluster hazards drive a replicated service end to end; like the
        # ingress kinds, the fuzzer block plays no role.
        from .failover import run_replication_scenario

        return run_replication_scenario(
            scenario,
            seed=seed,
            threads=threads,
            check_roots=check_roots,
            metrics=metrics,
        )
    if scenario.kind != "faults":
        return _run_durability_scenario(
            chain,
            block,
            scenario,
            seed=seed,
            threads=threads,
            check_roots=check_roots,
            metrics=metrics,
        )
    if recovery is None:
        probe = SerialExecutor().execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        policy = scenario_recovery(
            scenario,
            RecoveryPolicy(
                block_deadline_us=max(probe.makespan_us, 1.0) * deadline_factor
            ),
        )
    else:
        policy = recovery
    if redo_budget is not None:
        policy = replace(policy, redo_budget=redo_budget)
    # The chaos suite covers every executor, including the serial baseline
    # (which can still hit hard storage failures).  Per-executor plans
    # (seeded ``f"{seed}:{scenario}:{executor}"``) keep the fault streams
    # independent: one executor's draw count cannot shift another's fault
    # sequence, so single-executor repros replay exactly.
    plans = {
        name: FaultPlan(
            f"{seed}:{scenario.name}:{name}", scenario.config, policy
        )
        for name in EXECUTORS
    }
    certification = certify_block(
        chain,
        block,
        threads=threads,
        executors=EXECUTORS,
        include_scheduled=False,
        check_roots=check_roots,
        metrics=metrics,
        fault_plans=plans,
    )

    counters: dict[str, float] = {}
    faults = 0.0
    for name, plan in plans.items():
        plan.publish(metrics, executor=name)
        faults += plan.faults_injected
        for counter, value in plan.counters.items():
            counters[counter] = counters.get(counter, 0) + value
    return chaos_report(
        scenario,
        seed,
        certification,
        counters,
        faults,
        metrics,
        deadline_us=policy.block_deadline_us or 0.0,
    )


def chaos_report(
    scenario: ChaosScenario,
    seed: int | str,
    certification: CertificationReport,
    counters: dict[str, float],
    faults: float,
    metrics=None,
    deadline_us: float = 0.0,
) -> ChaosBlockReport:
    """Count one chaos block into ``metrics`` and wrap it as a report."""
    if metrics is not None:
        metrics.counter("chaos_blocks_total", scenario=scenario.name).inc()
        if not certification.ok:
            metrics.counter(
                "chaos_failed_blocks_total", scenario=scenario.name
            ).inc()
    return ChaosBlockReport(
        scenario=scenario.name,
        seed=seed,
        certification=certification,
        deadline_us=deadline_us,
        counters=counters,
        faults_injected=faults,
    )


def _run_durability_scenario(
    chain: Chain,
    block: Block,
    scenario: ChaosScenario,
    seed: int | str = 0,
    threads: int = 8,
    check_roots: bool = True,
    metrics=None,
) -> ChaosBlockReport:
    """Chaos kinds whose adversary is process death, not slow hardware.

    ``kind="crash"`` sweeps every crash site of the durable commit path;
    ``kind="reorg"`` runs the rollback round trip.  Both cover the same
    seven executor configs as the fault scenarios and reuse the
    certification/shrink/dump plumbing via the reports' ``certification``
    adapters; "faults injected" counts simulated process deaths (crash
    sweeps) or block rollbacks (reorgs).
    """
    from .crashfuzz import crash_sweep_block, reorg_roundtrip_block

    if scenario.kind == "crash":
        sweep = crash_sweep_block(
            chain,
            block,
            threads=threads,
            checkpoint_interval=1,
            check_roots=check_roots,
            metrics=metrics,
        )
        faults = "crashes_injected"
    elif scenario.kind == "reorg":
        sweep = reorg_roundtrip_block(
            chain,
            block,
            threads=threads,
            check_roots=check_roots,
            metrics=metrics,
        )
        faults = "rollbacks"
    else:
        raise ValueError(f"unknown chaos scenario kind {scenario.kind!r}")
    counters = {name: float(value) for name, value in sweep.counters.items()}
    return chaos_report(
        scenario, seed, sweep.certification, counters, counters[faults], metrics
    )
