"""The executor registry: every config is built by name, in one place."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser
from repro.executors import EXECUTORS, make_executor
from repro.obs import BlockObserver
from repro.resilience import FaultConfig, FaultPlan, RecoveryPolicy

PARALLELEVM_CONFIGS = ("parallelevm", "parallelevm-preexec")


@pytest.mark.parametrize("name", EXECUTORS)
class TestMakeExecutor:
    def test_builds_on_the_requested_workers(self, name):
        executor = make_executor(name, 3)
        assert executor.threads == 3
        assert executor.observer is None
        assert executor.fault_plan is None

    def test_observer_and_fault_plan_reach_every_config(self, name):
        observer = BlockObserver()
        plan = FaultPlan(f"0:registry:{name}", FaultConfig(), RecoveryPolicy())
        executor = make_executor(name, 2, observer=observer, fault_plan=plan)
        assert executor.observer is observer
        assert executor.fault_plan is plan
        assert executor.recovery is plan.recovery

    def test_redo_checker_reaches_only_parallelevm(self, name):
        checker = object()
        executor = make_executor(name, 2, redo_checker=checker)
        attached = getattr(executor, "redo_checker", None) is checker
        assert attached == (name in PARALLELEVM_CONFIGS)

    def test_preexecute_is_set_only_on_preexec(self, name):
        executor = make_executor(name, 2)
        assert getattr(executor, "preexecute", False) == (
            name == "parallelevm-preexec"
        )

    def test_cli_run_accepts_the_name(self, name):
        args = build_parser().parse_args(["run", "--executor", name])
        assert args.executor == name


def test_unknown_name_lists_the_valid_names():
    with pytest.raises(ValueError) as excinfo:
        make_executor("nonsense", 2)
    message = str(excinfo.value)
    assert "nonsense" in message
    for name in EXECUTORS:
        assert name in message


def test_every_cli_executor_choice_list_is_the_registry():
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    choice_lists = {
        command: action.choices
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.dest == "executor"
    }
    assert set(choice_lists) == {"run", "soak", "serve", "loadgen"}
    for command, choices in choice_lists.items():
        assert list(choices) == sorted(EXECUTORS), command
