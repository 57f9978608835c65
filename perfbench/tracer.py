"""Spans and per-layer counters for the traced benchmark run.

The workloads call every library function through :meth:`Tracer.call`, so
the spans sit in the benchmark's own files, at the boundary between the
harness and the module whose public function it calls.  A call is charged to
that module: work the library does inside it is not split further.  The one
exception is the ``cli`` layer, where :meth:`Tracer.wrap` times expression
parsing and JSON serialization inside ``cli.main`` as child spans, because
those are the per-layer figures the cli-requests workload exists to show.

With tracing off, ``call`` is a plain pass-through and nothing is recorded.
"""

from __future__ import annotations

import json
import time

LAYERS = ("nc_core", "products", "coding", "stars", "negindex", "harmonic", "polylog_num", "cli")

# span record fields
NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter() - self._t0, None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter() - self._t0
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> None:
        if self.enabled:
            self._op = op_id
            self._open(f"op.{kind}", "harness")

    def end_op(self) -> None:
        if self.enabled:
            self._close(self._stack[-1])

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)``, recording a span charged to ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = self._open(f"{layer}.{fn.__name__}", layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, layer: str, name: str):
        """Replace ``module.attr`` by a spanned version; returns an undo callable."""
        original = getattr(module, attr)

        def spanned(*args, **kwargs):
            if not self._stack:  # called from a check, outside any operation
                return original(*args, **kwargs)
            idx = self._open(name, layer)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(module, attr, spanned)
        return lambda: setattr(module, attr, original)

    # -- counters ------------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def high(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- summaries -----------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per-layer calls and self time, plus the total time spent in ops.

        A call counts when the harness made it (its parent is an op span);
        self time is a span's duration minus the time its children cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {layer: {"calls": 0, "busy_s": 0.0} for layer in LAYERS}
        out["harness"] = {"calls": 0, "busy_s": 0.0}
        op_time = 0.0
        for i, span in enumerate(self.spans):
            dur = span[END] - span[START]
            out[span[LAYER]]["busy_s"] += dur - child_time[i]
            if span[PARENT] < 0:
                op_time += dur
            elif self.spans[span[PARENT]][LAYER] == "harness":
                out[span[LAYER]]["calls"] += 1
        out["harness"]["op_time_s"] = op_time
        return out

    def named_time(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s[NAME], "layer": s[LAYER], "start": s[START],
                         "end": s[END], "parent": s[PARENT], "op": s[OP]}
                    )
                    + "\n"
                )
