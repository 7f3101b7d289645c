"""Spans around every public call into the genspace layers, recorded from outside.

`Tracer.install()` rebinds each public function of the layer modules (the
names in their `__all__`), the `__init__` of each public class and each
classmethod of those classes to a timing wrapper, in every genspace
namespace that holds them.  Calls made inside the library therefore show
up as child spans, which gives each span a self time.  `uninstall()`
restores the original objects, so untraced ops run the unmodified code.
Nothing in `src/` is edited.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("distribution", "entropy", "coding", "joint", "born")


class Tracer:
    def __init__(self) -> None:
        # One frame per open span: [child nanoseconds].
        self._stack: list[list[int]] = []
        # (name, depth, duration_ns, self_ns, raised) for the current op.
        self.records: list[tuple[str, int, int, int, bool]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        self._class_patches: list[tuple[type, str, object]] = []
        self._prepared: set[str] = set()

    def wrap(self, name: str, fn):
        stack = self._stack
        records = self.records
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                records.append((name, len(stack), duration, duration - frame[0], raised))

        return span

    def _prepare(self) -> None:
        """Build the wrappers once per layer module; install() only swaps bindings.

        A layer the process has not imported yet is wrapped on a later
        install, once it is loaded.
        """
        for layer in LAYERS:
            module = sys.modules.get(f"genspace.{layer}")
            if module is None or layer in self._prepared:
                continue
            self._prepared.add(layer)
            for public in module.__all__:
                obj = getattr(module, public)
                if isinstance(obj, type):
                    for attr, value in list(vars(obj).items()):
                        if attr == "__init__":
                            self._class_patches.append(
                                (obj, attr, self.wrap(f"{layer}.{public}", value))
                            )
                        elif isinstance(value, classmethod):
                            self._class_patches.append(
                                (obj, attr, classmethod(self.wrap(f"{layer}.{attr}", value.__func__)))
                            )
                elif callable(obj):
                    self._wrapped[id(obj)] = self.wrap(f"{layer}.{public}", obj)

    def install(self) -> None:
        self._prepare()
        self._patches.clear()
        namespaces = [m for n, m in sys.modules.items() if n == "genspace" or n.startswith("genspace.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)
        for cls, attr, wrapper in self._class_patches:
            self._patches.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Record one span around a call the benchmark makes itself."""
        return self.wrap(name, fn)(*args, **kwargs)


class LayerStats:
    """Per-op aggregation of span records into the per-layer metrics."""

    def __init__(self) -> None:
        self.per_op_total: list[dict[str, int]] = []
        self.per_op_self: list[dict[str, int]] = []
        self.extra: dict[str, list[int]] = defaultdict(list)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.top_ns = 0
        self.op_ns = 0
        self.spans_per_op: list[int] = []

    def add_op(self, records, op_ns: int) -> None:
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for name, depth, duration, self_ns, raised in records:
            total[name] += duration
            own[name] += self_ns
            layer = name.split(".", 1)[0]
            self.layer_self_ns[layer] += self_ns
            if raised:
                self.errors[layer] += 1
            if depth == 0:
                self.top_ns += duration
        self.per_op_total.append(total)
        self.per_op_self.append(own)
        self.spans_per_op.append(len(records))
        self.op_ns += op_ns

    def add_extra(self, records) -> None:
        """Spans outside any op (the CLI import probe)."""
        for name, _, duration, _, raised in records:
            self.extra[name].append(duration)
            if raised:
                self.errors[name.split(".", 1)[0]] += 1

    def call_ms(self, name: str) -> tuple[float, float]:
        """Median inclusive and self time of one call per op, in ms.

        Taken over the ops that made the call, so a CLI command that runs
        in one op of six is not reported as zero.
        """
        inclusive = [t[name] for t in self.per_op_total if name in t]
        if not inclusive:
            return 0.0, 0.0
        own = [t[name] for t in self.per_op_self if name in t]
        return statistics.median(inclusive) / 1e6, statistics.median(own) / 1e6

    def total_ns(self, name: str) -> int:
        return sum(t.get(name, 0) for t in self.per_op_total)

    def metrics(self, calls) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.ms"], out[f"{name}.self_ms"] = self.call_ms(name)
        for name, durations in self.extra.items():
            out[f"{name}.ms"] = statistics.median(durations) / 1e6
        for layer in LAYERS + ("cli",):
            out[f"{layer}.share"] = self.layer_self_ns[layer] / self.op_ns if self.op_ns else 0.0
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.coverage"] = self.top_ns / self.op_ns if self.op_ns else 0.0
        out["trace.spans_per_op"] = statistics.median(self.spans_per_op) if self.spans_per_op else 0
        return out
