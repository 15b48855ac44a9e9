"""repro.resilience — fault injection and graceful degradation.

The paper's convergence claim is only as good as its worst day.  This
package makes the bad days deterministic and the recovery from them a
tested contract:

- :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` keyed on
  ``(seed, config)`` injecting worker faults (stall/crash/slowdown),
  storage faults (latency spikes, cache thrash, transient failures) and
  redo-path faults (forced re-conflicts, corrupted guards, forced
  Block-STM aborts);
- :mod:`repro.resilience.policy` — the :class:`RecoveryPolicy` escalation
  ladder: simulated-time retry with exponential backoff, a per-transaction
  redo budget (redo -> full re-execution -> per-tx serial fallback), a
  block deadline watchdog and abort-storm detection, all backstopped by a
  whole-block serial fallback;
- :mod:`repro.resilience.scenarios` — the chaos scenario catalogue driven
  by ``repro chaos`` and the :mod:`repro.check.chaos` harness.

Determinism contract: a :class:`FaultPlan` draws each injection site from
its own named stream derived from the seed, so fault decisions are a pure
function of ``(seed, config)`` and the site's own call sequence.  With no
plan attached (the default everywhere), every hook is a ``None`` check and
makespans are bit-identical to an unfaulted build.
"""

from .faults import (
    FaultConfig,
    FaultPlan,
    MachineFaultInjector,
    RedoFaultInjector,
    SchedulerFaultInjector,
    StorageFaultInjector,
)
from .policy import EscalationLadder, RecoveryPolicy
from .scenarios import (
    SCENARIOS,
    ChaosScenario,
    default_suite,
    fault_plan_factory,
    scenario_recovery,
)

__all__ = [
    "ChaosScenario",
    "EscalationLadder",
    "FaultConfig",
    "FaultPlan",
    "MachineFaultInjector",
    "RecoveryPolicy",
    "RedoFaultInjector",
    "SCENARIOS",
    "SchedulerFaultInjector",
    "StorageFaultInjector",
    "default_suite",
    "fault_plan_factory",
    "scenario_recovery",
]
