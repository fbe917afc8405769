"""In-memory span tracer that instruments the library from outside.

A :class:`Tracer` replaces chosen functions and methods of the ``repro``
package with thin wrappers, records one span per call (name, start, end,
parent) in flat in-memory lists, and puts every original back on
:meth:`Tracer.restore`.  Nothing under ``src/`` knows it is being traced.

A module-level function is rebound in its defining module *and* in every
loaded ``repro.*`` module that imported it by name (``from x import f`` or
``import ... as``), so aliases such as ``monitoring.verify_signature`` are
traced too.  Classes are shared objects, so patching the class attribute
is enough for methods.

Spans must nest strictly (the library is single-threaded; forked round
workers run in other processes and their spans die with them).  A span's
*self time* is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

# (args, kwargs, result) -> amount added to the target's quantity counter.
Amount = Callable[[tuple, dict, Any], int]


@dataclass(frozen=True)
class Target:
    """One instrumentation point.

    *path* is ``"<module>:<attr>"`` or ``"<module>:<Class>.<attr>"``.  With
    ``span=False`` the wrapper only counts calls (for hot leaf functions
    whose call count matters but whose time belongs to the caller).
    *amount* feeds a per-target quantity (bytes, items) from each call.
    """

    path: str
    name: str
    span: bool = True
    amount: Optional[Amount] = None


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """Return ``(owner, attribute, raw attribute value)`` for a target path."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Spans and counters for a set of :class:`Target` functions."""

    def __init__(self, targets: List[Target]):
        self.targets = list(targets)
        self.names: List[str] = [target.name for target in self.targets]
        # Flat span columns; span i has name names[span_name[i]].
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self._stack: List[int] = []
        self.calls: List[int] = [0] * len(self.targets)
        self.amounts: List[int] = [0] * len(self.targets)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- install / restore ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for index, target in enumerate(self.targets):
                self._install(index, target)
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self, index: int, target: Target) -> None:
        owner, attr, raw = _resolve(target.path)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, index, target))
        else:
            wrapped = self._wrap(raw, index, target)
        self._patch(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # Rebind every alias a repro module imported by name.
        for module_name, module in list(sys.modules.items()):
            if module is owner or module is None or not module_name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, alias, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn: Callable, index: int, target: Target) -> Callable:
        calls, amounts, amount = self.calls, self.amounts, target.amount
        if not target.span:
            def counted(*args, **kwargs):
                calls[index] += 1
                result = fn(*args, **kwargs)
                if amount is not None:
                    amounts[index] += amount(args, kwargs, result)
                return result

            counted.__wrapped__ = fn
            return counted

        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            calls[index] += 1
            if amount is not None:
                amounts[index] += amount(args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the direct children's durations."""
        selfs = [end - start for start, end in zip(self.span_start, self.span_end)]
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                selfs[parent] -= self.span_end[span] - self.span_start[span]
        return selfs

    def counters(self) -> Dict[str, Tuple[int, int]]:
        """``(calls, amount)`` per target name, as of now."""
        return {
            name: (self.calls[i], self.amounts[i]) for i, name in enumerate(self.names)
        }

    def subtree(self, span: int) -> range:
        """*span* and its descendants (spans are stored in start order)."""
        last = span
        end = self.span_end[span]
        while last + 1 < len(self.span_start) and self.span_start[last + 1] < end:
            last += 1
        return range(span, last + 1)

    def spans_named(self, name: str) -> List[int]:
        index = self.names.index(name)
        return [span for span, nid in enumerate(self.span_name) if nid == index]

    def enclosing(self, span: int, name: str) -> Optional[int]:
        """Nearest ancestor of *span* with the given target name, if any."""
        index = self.names.index(name)
        parent = self.span_parent[span]
        while parent >= 0:
            if self.span_name[parent] == index:
                return parent
            parent = self.span_parent[parent]
        return None

    def duration(self, span: int) -> float:
        return self.span_end[span] - self.span_start[span]

    def to_dict(self) -> dict:
        """Every span as ``[name, start, end, parent]`` plus the name table."""
        return {
            "names": list(self.names),
            "spans": [
                [nid, start, end, parent]
                for nid, start, end, parent in zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent
                )
            ],
        }
