"""In-memory span recorder that wraps public callables from outside.

The benchmark measures layers without editing them: a declared table of
``(module, qualname)`` targets (:mod:`layers`) is wrapped for the length
of one traced unit and restored afterwards. Class methods are replaced
by ``setattr`` on the class; module functions are rebound in every
loaded ``repro.*`` module whose attribute *is* the original object, so
``from x import f`` call sites see the wrapper too.

Spans are kept in per-thread lists (the TCP server thread nests its own
spans correctly and never races the client thread's list) and are only
turned into numbers, or written out, after the traced unit has ended.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: One span: ``[name, start, end, parent index in the same thread, tally]``.
Span = list

_MISSING = object()


class SpanRecorder:
    """Records spans per thread; wraps and unwraps the declared targets."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(thread id, spans)`` per thread that recorded anything.
        self.threads: List[Tuple[int, List[Span]]] = []
        #: ``(holder, attribute, original, had_own_attribute)`` to restore.
        self._patched: List[Tuple[object, str, object, bool]] = []
        self._restored: List[Tuple[object, str, object, bool]] = []
        #: Targets that no longer resolve at this commit.
        self.unresolved: List[str] = []
        #: Span names whose tallies are counted as distinct values.
        self._distinct: set = set()

    # -- recording ------------------------------------------------------
    def _state(self) -> Tuple[List[Span], List[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self.threads.append((threading.get_ident(), state[0]))
        return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: Optional[Callable[[tuple, object], float]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``tally(args, result)`` may attach one number to the span (bytes
        encoded, interactions generated); it runs after the span's end
        is stamped, so its cost falls to the parent, not to this layer.
        """
        clock = time.perf_counter
        state_of = self._state

        def wrapper(*args, **kwargs):
            spans, stack = state_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tally is not None:
                span[4] = tally(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code (the root)."""
        spans, stack = self._state()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    # -- wrapping the declared targets ------------------------------------
    def install(self, targets) -> None:
        """Wrap every resolvable target; list the rest as unresolved.

        ``targets`` yields objects with ``module``, ``qualname``, ``name``
        (the span name), ``tally`` and ``distinct``. A target that no longer resolves is
        skipped, so a refactor that renames a callable costs the ledger
        one layer, never the end-to-end run.
        """
        loaded = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for target in targets:
            label = f"{target.module}:{target.qualname}"
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.unresolved.append(label)
                continue
            parts = target.qualname.split(".")
            if len(parts) == 1:
                original = getattr(module, parts[0], _MISSING)
                if original is _MISSING or not callable(original):
                    self.unresolved.append(label)
                    continue
                self._note(target)
                wrapper = self.wrap(target.name, original, target.tally)
                self._rebind_function(loaded, original, wrapper)
            elif len(parts) == 2:
                cls = getattr(module, parts[0], _MISSING)
                original = (
                    getattr(cls, parts[1], _MISSING)
                    if cls is not _MISSING
                    else _MISSING
                )
                if original is _MISSING or not callable(original):
                    self.unresolved.append(label)
                    continue
                own = parts[1] in vars(cls)
                raw = vars(cls)[parts[1]] if own else original
                if isinstance(raw, (staticmethod, classmethod)):
                    self.unresolved.append(label)
                    continue
                self._note(target)
                setattr(cls, parts[1], self.wrap(target.name, raw, target.tally))
                self._patched.append((cls, parts[1], raw, own))
            else:
                self.unresolved.append(label)

    def _note(self, target) -> None:
        if getattr(target, "distinct", False):
            self._distinct.add(target.name)

    def _rebind_function(self, loaded, original, wrapper) -> None:
        for module in loaded:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._patched.append((module, attribute, original, True))

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        for holder, attribute, original, own in reversed(self._patched):
            if own:
                setattr(holder, attribute, original)
            else:
                delattr(holder, attribute)
        self._restored = list(self._patched)
        self._patched = []

    def leftovers(self) -> List[str]:
        """Attributes that are *not* identical to their originals.

        Empty after :meth:`uninstall` — what ``--selfcheck`` asserts, so
        the tracing-off reps are provably run on the unwrapped program.
        """
        wrong = []
        for holder, attribute, original, own in self._restored:
            current = vars(holder).get(attribute, _MISSING)
            if own and current is not original:
                wrong.append(f"{getattr(holder, '__name__', holder)}.{attribute}")
            if not own and current is not _MISSING:
                wrong.append(f"{getattr(holder, '__name__', holder)}.{attribute}")
        return wrong + [
            f"{getattr(h, '__name__', h)}.{a} (still installed)"
            for h, a, _, _ in self._patched
        ]

    # -- reading the spans ----------------------------------------------
    def self_times(self) -> Dict[str, List[float]]:
        """Per span name: ``[self seconds, calls, tally]``.

        Self time is the span's duration minus the durations of its direct
        children on the same thread. The tally is the sum of the spans'
        tallies, or for a ``distinct`` target the number of different ones.
        """
        totals: Dict[str, List[float]] = {}
        seen: Dict[str, set] = {name: set() for name in self._distinct}
        for _, spans in self.threads:
            child = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                entry = totals.setdefault(span[0], [0.0, 0, 0.0])
                entry[0] += (span[2] - span[1]) - child[index]
                entry[1] += 1
                if span[0] in seen:
                    seen[span[0]].add(span[4])
                else:
                    entry[2] += span[4]
        for name, values in seen.items():
            if name in totals:
                totals[name][2] = float(len(values))
        return totals

    def write_jsonl(self, handle, unit: int) -> None:
        """Append this unit's spans to an open text file, one per line."""
        for thread_id, spans in self.threads:
            for index, span in enumerate(spans):
                handle.write(json.dumps({
                    "unit": unit, "thread": thread_id, "index": index,
                    "name": span[0], "start": span[1], "end": span[2],
                    "parent": span[3],
                }) + "\n")
