"""Span recorder for the traced run.

``Tracer.install`` wraps named functions of the ``lshan`` modules from the
outside, in every module whose namespace holds a reference to the function
(``trainer.save_checkpoint`` as well as ``han.save_checkpoint``). A span
records its name, start, end, parent span and op id; spans stay in memory
until ``write``. Counters are bumped by per-function hooks that read the
call's arguments, so the program itself carries no timers.

A name the program no longer has is recorded in ``absent`` and skipped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Callable

# a hook receives bump(counter, amount) and the call's args, kwargs and result
Hook = Callable[[Callable[[str, float], None], tuple, dict, object], None]


class Tracer:
    def __init__(self, modules: list[ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []   # (name, start_ns, end_ns, parent, op)
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))   # op -> counter -> value
        self.absent: list[str] = []
        self.op = -1                   # -1 while setting up
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, object]] = []

    def install(self, spans: dict[str, Hook | None],
                counters: dict[str, Hook]) -> None:
        """Wrap ``module.func`` names: with a span (``spans``) or a hook only."""
        for target, hook in spans.items():
            self._wrap(target, hook, timed=True)
        for target, hook in counters.items():
            self._wrap(target, hook, timed=False)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, target: str, hook: Hook | None, timed: bool) -> None:
        mod_name, func_name = target.rsplit(".", 1)
        home = next(m for m in self.modules if m.__name__.endswith("." + mod_name))
        original = getattr(home, func_name, None)
        if original is None:
            if target not in self.absent:
                self.absent.append(target)
            return
        wrapper = self._span_wrapper(target, original, hook) if timed \
            else self._count_wrapper(original, hook)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def bump(self, counter: str, amount: float = 1.0) -> None:
        self.counts[self.op][counter] += amount

    def _span_wrapper(self, name, func, hook):
        spans, stack, bump = self.spans, self._stack, self.bump
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(bump, args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, func, hook):
        bump = self.bump

        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            hook(bump, args, kwargs, result)
            return result
        return counted

    def totals(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Per span name over the given op ids: calls, total ms and self ms."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for sid, span in enumerate(self.spans):
            if span is None or span[4] not in ops:
                continue
            name, start, end = span[:3]
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns[sid]) / 1e6
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")
