"""An in-memory span recorder that instruments a program from outside.

``SpanRecorder.wrap`` replaces a public function or method with a thin
wrapper that records one span per call: name, start, end (``perf_counter_ns``),
parent span and the current tag (the block number or request id the
benchmark loop is working on).  A module-level function is re-bound in
every loaded module that holds it under the same name, so callers that did
``from ..crypto import keccak256`` are timed as well as callers going
through ``repro.crypto.keccak256``.  ``uninstall`` restores every binding.

A call that re-enters the span it is directly inside (``rlp.encode``
encoding its own list items, a nested ``EVM.call`` frame with no other
timed layer in between) is folded into the outer span rather than
recorded again, which keeps span counts proportional to top-level work.

Spans live in flat arrays and are written out only when the run ends.
Self time is a span's duration minus the part covered by its children;
children never overlap in this single-threaded process, so that part is
the sum of their durations.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns


class SpanRecorder:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list = []
        self._tag_ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.tag = array("i")
        self.errors: dict[str, int] = {}
        self.notes: dict[str, float] = {}
        self._stack: list[int] = []
        self._current_tag = -1
        # Spans are recorded only while active: the benchmark switches it
        # on around the calls it times, so input generation and the client
        # side of a request never count against a layer.
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ tagging

    def set_tag(self, tag) -> None:
        """Tag every span opened from now on (a block number or request id)."""
        tag_id = self._tag_ids.get(tag)
        if tag_id is None:
            tag_id = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        self._current_tag = tag_id

    # ----------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, span: str, note=None) -> None:
        """Time every call of ``owner.attr`` as span ``span``.

        ``owner`` is a module or a class.  ``note(args, result)``, when
        given, returns a number added to ``notes[span]`` after each call
        that returns normally (bytes hashed, successful redos, ...).
        """
        original = getattr(owner, attr)
        wrapper = self._wrapper(original, span, note)
        if isinstance(owner, type):
            self._rebind(owner, attr, wrapper)
            return
        package = owner.__name__.split(".")[0]
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == package and getattr(module, attr, None) is original:
                self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped binding back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, span: str, note):
        name_id = self._name_ids.get(span)
        if name_id is None:
            name_id = self._name_ids[span] = len(self.names)
            self.names.append(span)
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, tags = self.parent, self.tag
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active or (stack and names[stack[-1]] == name_id):
                return original(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            starts.append(0)
            ends.append(0)
            parents.append(stack[-1] if stack else -1)
            tags.append(recorder._current_tag)
            stack.append(index)
            starts[index] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                ends[index] = perf_counter_ns()
                stack.pop()
                recorder.errors[span] = recorder.errors.get(span, 0) + 1
                raise
            ends[index] = perf_counter_ns()
            stack.pop()
            if note is not None:
                recorder.notes[span] = recorder.notes.get(span, 0) + note(
                    args, result
                )
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # ------------------------------------------------------------ reading

    def __len__(self) -> int:
        return len(self.name)

    def durations_ns(self, span: str) -> list[int]:
        """Inclusive duration of every recorded span named ``span``."""
        name_id = self._name_ids.get(span)
        if name_id is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.name))
            if self.name[i] == name_id
        ]

    def totals(self) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``ns``, ``self_ns``, and
        ``childless`` (calls that opened no child span)."""
        count = len(self.name)
        child_ns = [0] * count
        has_child = bytearray(count)
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child_ns[parent] += self.end[i] - self.start[i]
                has_child[parent] = 1
        totals = {
            span: {"calls": 0, "ns": 0, "self_ns": 0, "childless": 0}
            for span in self.names
        }
        for i in range(count):
            entry = totals[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["ns"] += duration
            entry["self_ns"] += duration - child_ns[i]
            entry["childless"] += not has_child[i]
        return totals

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\ttag\n")
            for i in range(len(self.name)):
                tag_id = self.tag[i]
                tag = self.tags[tag_id] if tag_id >= 0 else ""
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\t{tag}\n"
                )
