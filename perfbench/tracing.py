"""Spans around calls into eltlab, recorded from outside the library.

``Tracer.install`` replaces every module-level binding of the traced
functions in every loaded eltlab module (``matrix.elt_roots`` as well
as ``poly.elt_roots``), and the traced methods on their classes, so
calls made inside the library pass through the wrapper too.  Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from statistics import median
from typing import Callable, Dict, List

# layer -> module-level functions whose bindings are wrapped
FUNCTIONS = {
    "cli": ("main",),
    "core": ("parse_scalar", "format_scalar"),
    "matrix": (
        "det", "adjoint", "quasi_inverse", "charpoly", "essential_trace",
        "simple_cycles", "eigen_candidates",
    ),
    "assign": ("hungarian_scaling", "karp_max_mean_cycle", "is_critical"),
    "poly": ("elt_roots", "envelope", "parse_polynomial"),
    "puiseux": ("parse_series", "eltrop"),
    "transfer": ("evaluate", "expand", "run_suite"),
}

# span name -> attribute of eltlab.matrix.ELTMatrix
METHODS = {"matrix.mul": "__mul__", "matrix.apply": "apply", "matrix.from_text": "from_text"}

SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "self_ns", "size", "error")


class Tracer:
    """Records one span per wrapped call: its parent span, the operation
    it belongs to (the id of its root span), its self time and any
    unexpected exception.

    Exceptions derived from ``expected`` (the library's documented
    error base) are part of the interface and are not counted.
    """

    def __init__(self, expected: type, max_spans: int = 300_000):
        self.expected = expected
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.sizes: Dict[tuple, List[int]] = defaultdict(list)
        self._stack: List[list] = []
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []

    def call(self, name: str, fn: Callable, args=(), kwargs=None, size=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        op = self._stack[0][0] if self._stack else span_id
        frame = [span_id, 0]
        self._stack.append(frame)
        error = None
        start = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        except self.expected:
            raise
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            own = duration - frame[1]
            self.calls[name] += 1
            self.self_ns[name] += own
            if error is not None:
                self.errors[name] += 1
            if size is not None:
                self.sizes[(name, size)].append(duration)
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id, parent, op, name, start, end, own, size, error))
            else:
                self.dropped += 1

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name == "matrix.det":  # keeps the size for matrix.det.ms.n<k>
            @functools.wraps(fn)
            def sized(a, *args, **kwargs):
                return tracer.call(name, fn, (a,) + args, kwargs, size=a.nrows)
            return sized

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    def install(self, lib) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "eltlab" or key.startswith("eltlab."))]
        for layer, names in FUNCTIONS.items():
            home = getattr(lib, layer)
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrapper(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._undo.append(functools.partial(setattr, module, attr, original))
        cls = lib.matrix.ELTMatrix
        for name, attr in METHODS.items():
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrapper(name, raw.__func__))
            else:
                replacement = self._wrapper(name, raw)
            setattr(cls, attr, replacement)
            self._undo.append(functools.partial(setattr, cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def median_ms(self, name: str, size) -> float:
        """Median duration of the calls of ``name`` at one size; 0 when
        there were none."""
        samples = self.sizes.get((name, size))
        return median(samples) / 1e6 if samples else 0.0


class ScalarCounter:
    """Counts add, mul and neg calls on the kernel's scalar class by
    patching the class; works with the pure-Python kernel only."""

    OPS = ("__add__", "__mul__", "__neg__")

    def __init__(self, scalar_cls):
        self.cls = scalar_cls
        self.count = 0
        self._saved = {}

    def __enter__(self):
        for attr in self.OPS:
            original = self.cls.__dict__[attr]
            self._saved[attr] = original
            setattr(self.cls, attr, self._counting(original))
        return self

    def __exit__(self, *exc):
        for attr, original in self._saved.items():
            setattr(self.cls, attr, original)
        return False

    def _counting(self, fn):
        counter = self

        @functools.wraps(fn)
        def wrapper(*args):
            counter.count += 1
            return fn(*args)
        return wrapper
