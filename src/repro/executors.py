"""The executor registry: every block-executor config, built by name.

The paper compares ParallelEVM with 2PL, OCC and Block-STM on the same
blocks (Table 1); this repo adds the serial baseline, Saraph-Herlihy
two-phase and §6.3 pre-execution, for seven configs in all.  Benchmarks,
the correctness harness, the chain service, the RPC ingress path,
replication and the CLI all address them by name through
:func:`make_executor`, so adding a config is a one-line change here.

The module sits outside :mod:`repro.bench` and :mod:`repro.check` so that
every layer can import it without a cycle.
"""

from __future__ import annotations

from .concurrency import (
    BlockExecutor,
    BlockSTMExecutor,
    OCCExecutor,
    SerialExecutor,
    TwoPhaseExecutor,
    TwoPLExecutor,
)
from .core.executor import ParallelEVMExecutor

# Every executor config, in report order.
EXECUTORS = (
    "serial",
    "2pl",
    "occ",
    "block-stm",
    "two-phase",
    "parallelevm",
    "parallelevm-preexec",
)

_BASELINES = {
    "serial": SerialExecutor,
    "2pl": TwoPLExecutor,
    "occ": OCCExecutor,
    "block-stm": BlockSTMExecutor,
    "two-phase": TwoPhaseExecutor,
}


def make_executor(
    name: str,
    threads: int,
    *,
    observer=None,
    redo_checker=None,
    fault_plan=None,
) -> BlockExecutor:
    """Build the executor config ``name`` on ``threads`` simulated workers.

    ``observer`` and ``fault_plan`` reach every config.  ``redo_checker``
    (the slice-equivalence oracle, :mod:`repro.check.replay`) reaches only
    the two ParallelEVM configs, the only ones with a redo phase; the
    others ignore it.
    """
    if name in _BASELINES:
        return _BASELINES[name](
            threads=threads, observer=observer, fault_plan=fault_plan
        )
    if name in ("parallelevm", "parallelevm-preexec"):
        return ParallelEVMExecutor(
            threads=threads,
            preexecute=name == "parallelevm-preexec",
            observer=observer,
            redo_checker=redo_checker,
            fault_plan=fault_plan,
        )
    raise ValueError(
        f"unknown executor {name!r}; valid names: {', '.join(EXECUTORS)}"
    )
