"""Spans around the public functions of the entdisc modules.

The traced run replaces every public function of each layer module with a
wrapper that records one span per call: its name, start, end, the span that
called it and the op it belongs to.  Spans stay in memory and are written
out when the run ends.  The three distance profiles are called about 10^4
times per scan, so they are counted instead of spanned.

The wrappers live here, in the benchmark, and are installed by replacing
module attributes.  The library calls its own functions through module
globals or module attributes, so nested calls are seen as child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "channels", "discrim", "oracle", "smallmat", "checks")

# Counted, not spanned: a scan evaluates one of these about 10^4 times.
PROFILE_FUNCTIONS = frozenset(
    {"discrim.f_entangled", "discrim.G_mixed", "discrim.g_single"}
)

# Results that split one function into rows: the formula branch taken, the
# oracle search mode, the matrix dimension and the tree leaf reached.
LABELS = {
    "discrim.max_distance_entangled": lambda r: r.branch,
    "oracle.brute_max_entangled": lambda r: r.branch,
    "smallmat.hermitian_eigensystem": lambda r: f"dim{len(r[0])}",
    "discrim.classify_pair": lambda r: r.node,
}


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "op")

    def __init__(self, name, op, parent, start=0, end=0, label=None):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = end
        self.label = label


class Tracer:
    """Records spans and profile counts while installed on the modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.profile_evals: list[int] = []  # one entry per op
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.profile_evals.append(0)

    def install(self, modules: dict) -> None:
        """Wrap the public functions defined in each ``{layer: module}``."""
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name in PROFILE_FUNCTIONS:
                    wrapper = self._counter(fn)
                else:
                    wrapper = self._spanner(name, fn)
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _counter(self, fn):
        evals = self.profile_evals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            evals[-1] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        label_of = LABELS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if label_of is not None:
                span.label = label_of(result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s.name, "label": s.label, "op": s.op,
                         "parent": s.parent, "start_ns": s.start, "end_ns": s.end}
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are the spans whose ``parent`` is the span's index.  Their
    intervals are merged before subtracting, so overlapping children are
    not counted twice, and any part outside the parent is ignored.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(spans[i])
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out
