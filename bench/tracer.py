"""Outside-in tracer for the cavmech benchmark.

The tracer wraps named library functions from outside the package: it
replaces every binding of the function object in the scanned modules
(``from .fock import integrate`` in ``analysis`` is a second binding of
``fock.integrate``) and restores them on :meth:`Tracer.uninstall`.

Coarse calls become spans ``(trace_id, span_id, parent_id, name, start,
end, self_s)``.  Per-step methods, called 1e5 to 1e6 times per pass, are
folded into per-name counts and totals so the trace stays small.  A
call's self time is its duration minus the time covered by wrapped
children.  Everything is held in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable, named ``<module>.<qualname>`` under ``package``.

    ``hot`` folds calls into counts instead of spans.  ``counters`` maps a
    counter name to a function of (bound arguments, result) evaluated
    after each call, e.g. the step count of a propagation.
    """

    name: str
    hot: bool = False
    counters: tuple[tuple[str, Callable], ...] = ()


class Tracer:
    def __init__(self, targets, modules, package: str = "cavmech", clock=time.perf_counter):
        self.targets = list(targets)
        self.modules = list(modules)
        self.package = package
        self.clock = clock
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []     # [span_id or None, child seconds]
        self._next_id = 0
        self.trace_id = 0
        self.spans: list[tuple] = []
        # (trace_id, name) -> {"calls", "s", "self_s", <counter>...}
        self.totals: dict[tuple[int, str], dict[str, float]] = {}

    # -- installation ------------------------------------------------------

    def _resolve(self, name: str):
        module_name, _, qualname = name.partition(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            return owner, parts[-1], getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            return None

    def install(self) -> None:
        for target in self.targets:
            found = self._resolve(target.name)
            if found is None:
                if target.name not in self.absent:
                    self.absent.append(target.name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in self.modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        tracer = self
        name = target.name
        signature = inspect.signature(fn) if target.counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            span_id = None
            if not target.hot:
                tracer._next_id += 1
                span_id = tracer._next_id
            frame = [span_id if span_id is not None else parent, 0.0]
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                agg = tracer.totals.get((tracer.trace_id, name))
                if agg is None:
                    agg = tracer.totals[(tracer.trace_id, name)] = {"calls": 0, "s": 0.0, "self_s": 0.0}
                agg["calls"] += 1
                agg["s"] += duration
                agg["self_s"] += self_s
                if span_id is not None:
                    tracer.spans.append((tracer.trace_id, span_id, parent, name, start, end, self_s))
            if signature is not None:
                tracer._count(target, signature, args, kwargs, result, agg)
            return result

        return wrapper

    def _count(self, target, signature, args, kwargs, result, agg) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
        except TypeError:
            bound = None
        for counter, fn in target.counters:
            try:
                value = fn(bound.arguments, result)
            except (AttributeError, KeyError, TypeError, ValueError):
                key = f"{target.name}.{counter}"
                if key not in self.absent:
                    self.absent.append(key)
                continue
            agg[counter] = agg.get(counter, 0) + value

    # -- reading -----------------------------------------------------------

    def pass_totals(self, trace_id: int) -> dict[str, dict[str, float]]:
        return {name: agg for (tid, name), agg in self.totals.items() if tid == trace_id}

    def dump(self, path: str | Path, meta: dict) -> None:
        """Write spans and per-pass totals as one JSON document."""
        doc = {
            **meta,
            "absent": self.absent,
            "span_fields": ["trace_id", "span_id", "parent_id", "name", "start", "end", "self_s"],
            "spans": self.spans,
            "totals": [{"trace_id": tid, "name": name, **agg} for (tid, name), agg in self.totals.items()],
        }
        Path(path).write_text(json.dumps(doc) + "\n")
