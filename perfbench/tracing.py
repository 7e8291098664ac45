"""Spans and work counts recorded around calls into mobal's modules.

The tracer replaces a function at the place its caller looks it up (a
module attribute such as ``mobal.maxsat.sat_state``, or a method on a
class) with a wrapper that times the call and updates counters, then
puts every original back on ``uninstall``.  Nothing under ``src/`` is
edited, so the traced run executes the same code as the untraced one
plus the wrappers.

A span's self time is its duration minus the time of the spans opened
inside it.  Calls are sequential (one caller, no threads), so child
spans never overlap and that difference is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

OnResult = Callable[[Counter, tuple, dict, Any], None]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs span wrappers and accumulates per-name totals in memory."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        # open spans: [name, start, child seconds]
        self._stack: list[list] = []
        self._targets: list[tuple[Any, str, str, OnResult | None, bool]] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- registration ---------------------------------------------------------

    def span(self, owner: Any, attr: str, name: str, on_result: OnResult | None = None):
        """Time every call of ``owner.attr`` as span ``name``.

        A missing attribute is skipped: its span then reports 0 calls.
        """
        self.spans.setdefault(name, SpanStats())
        self._targets.append((owner, attr, name, on_result, False))

    def count_yields(self, owner: Any, attr: str, name: str):
        """Count the items a generator function ``owner.attr`` yields."""
        self.counts.setdefault(name, 0)
        self._targets.append((owner, attr, name, None, True))

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, on_result, yields in self._targets:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = (
                self._yield_counter(original, name)
                if yields
                else self._timer(original, name, on_result)
            )
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def installed_wrappers(self) -> list[str]:
        """Targets that still resolve to a tracer wrapper (should be none
        after ``uninstall``)."""
        left = []
        for owner, attr, *_ in self._targets:
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if getattr(current, "_perfbench_span", None) is not None:
                left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return left

    # -- wrappers ---------------------------------------------------------------

    def _timer(self, original, name: str, on_result: OnResult | None):
        stack = self._stack
        stats = self.spans[name]
        counts = self.counts

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # a span re-entered directly (e.g. a delegating backend)
                # is counted once, at its outermost call
                return original(*args, **kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        wrapper._perfbench_span = name
        return wrapper

    def _yield_counter(self, original, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in original(*args, **kwargs):
                counts[name] += 1
                yield item

        wrapper._perfbench_span = name
        return wrapper

    # -- snapshots --------------------------------------------------------------

    def work_counts(self) -> dict[str, int]:
        """Call counts of every span plus every counter, for diffing."""
        out = {f"{name}.calls": s.calls for name, s in self.spans.items()}
        out.update(self.counts)
        return out


def count_len(key: str, arg: int | None = None) -> OnResult:
    """on_result hook adding len(result), or len(args[arg]), to a counter."""

    def hook(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += len(result if arg is None else args[arg])

    return hook


def hooks(*parts: OnResult) -> OnResult:
    def hook(counts, args, kwargs, result):
        for part in parts:
            part(counts, args, kwargs, result)

    return hook


def diff_counts(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items()}
