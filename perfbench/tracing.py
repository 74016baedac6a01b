"""Spans around layer boundaries, installed from outside the program.

The benchmark measures the program as shipped, so it never edits
``src/``.  Instead a :class:`Probe` names one function of one layer (a
method on a class, or a module-level function) and :func:`installed`
swaps in a wrapper for the duration of a ``with`` block, then puts the
original object back.

A :class:`Tracer` keeps an explicit span stack.  A layer's *self time*
is its span's duration minus the time its wrapped children cover; the
runs are single-threaded, so children are disjoint sub-intervals of their
parent and the covered time is the sum of their durations.  Finished
spans are kept in flat arrays so a run of a few million spans stays in
tens of megabytes; past ``capacity`` they are counted as dropped, and
:meth:`Tracer.check_complete` refuses such a run instead of reporting
partial numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy

#: A hook called after the wrapped function returns, with the tracer,
#: the call's positional arguments and its result.
After = Callable[["Tracer", tuple, Any], None]


class SpansDropped(RuntimeError):
    """The span buffer overflowed, so per-layer numbers would be partial."""


class Tracer:
    """Span stack with exact self-time and call accounting per name."""

    def __init__(
        self,
        names: Sequence[str],
        capacity: int = 4_000_000,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.capacity = capacity
        self.clock = clock
        self.counters: Dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter (the wrappers stay installed)."""
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counters.clear()
        self.dropped = 0
        self._next_id = 0
        # Open spans: [span id, name index, start, time covered by children].
        self._stack: List[list] = []
        self.span_id = array("q")
        self.parent_id = array("q")
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")

    def enter(self, idx: int) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, idx, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        sid, idx, start, covered = self._stack.pop()
        duration = end - start
        self.calls[idx] += 1
        self.self_s[idx] += duration - covered
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
        if len(self.start) >= self.capacity:
            self.dropped += 1
            return
        self.span_id.append(sid)
        self.parent_id.append(parent)
        self.name_idx.append(idx)
        self.start.append(start)
        self.end.append(end)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s)

    def check_complete(self) -> None:
        """Raise :class:`SpansDropped` unless every span was kept."""
        if self._stack:
            raise SpansDropped(f"{len(self._stack)} spans still open")
        if self.dropped:
            raise SpansDropped(
                f"{self.dropped} spans dropped past capacity {self.capacity}"
            )

    def write_spans(self, path: Path, metadata: Dict[str, Any]) -> None:
        """Write the kept spans as columnar arrays in a compressed ``.npz``.

        One row per span in exit order: ``span_id``, ``parent_id`` (0 at
        top level), ``name`` (an index into ``names``), ``start_s`` and
        ``end_s`` on the ``perf_counter`` clock; ``metadata`` is stored as
        a JSON string.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        numpy.savez_compressed(
            path,
            names=numpy.array(self.names),
            span_id=numpy.frombuffer(self.span_id, dtype=numpy.int64),
            parent_id=numpy.frombuffer(self.parent_id, dtype=numpy.int64),
            name=numpy.frombuffer(self.name_idx, dtype=numpy.int32),
            start_s=numpy.frombuffer(self.start, dtype=numpy.float64),
            end_s=numpy.frombuffer(self.end, dtype=numpy.float64),
            metadata=numpy.array(json.dumps(metadata, sort_keys=True)),
        )


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``owner.attr`` recorded as span ``name``.

    ``owner`` is a class (the method is replaced in that class's own
    ``__dict__``) or a module (the function is replaced there and in
    every loaded module under ``module_prefix`` that imported it by
    name).  With ``span=False`` the wrapper only counts calls and runs
    ``after``, e.g. to collect instances.
    """

    name: str
    owner: Any
    attr: str
    after: Optional[After] = None
    span: bool = True


def _wrap(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    after = probe.after
    if not probe.span:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(probe.name)
            if after is not None:
                after(tracer, args, result)
            return result

        return counted

    idx = tracer.index[probe.name]
    enter = tracer.enter
    exit_ = tracer.exit

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        enter(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            after(tracer, args, result)
        return result

    return spanned


def _bindings(probe: Probe, module_prefix: str) -> List[tuple]:
    """Every (namespace, attribute, original) the probe must replace."""
    owner, attr = probe.owner, probe.attr
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise AttributeError(
                f"{owner.__qualname__} defines no {attr!r} of its own"
            )
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(owner, attr)
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (
            name == module_prefix or name.startswith(module_prefix + ".")
        ):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key, original))
    if not any(ns is owner for ns, _, _ in found):
        found.append((owner, attr, original))
    return found


@contextmanager
def installed(
    tracer: Tracer, probes: Sequence[Probe], module_prefix: str = "repro"
) -> Iterator[Tracer]:
    """Wrap every probe for the duration of the block, then restore."""
    saved: List[tuple] = []
    try:
        for probe in probes:
            bindings = _bindings(probe, module_prefix)
            wrapper = _wrap(tracer, probe, bindings[0][2])
            for namespace, key, original in bindings:
                saved.append((namespace, key, original))
                setattr(namespace, key, wrapper)
        yield tracer
    finally:
        for namespace, key, original in reversed(saved):
            setattr(namespace, key, original)
