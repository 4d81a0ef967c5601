"""Outside-in span tracer for the sympent layers.

The tracer wraps functions from outside the package: it rebinds every module
attribute that refers to a traced function, so that a name copied by
``from .states import validate`` into ``entropy`` and ``cli`` is traced at each
binding and nested calls are counted. ``uninstall`` puts the originals back,
so untraced operations run the unmodified code.

Spans are kept in memory, one list per operation. Each thread keeps its own
span stack, because ``sympent sweep`` evaluates grid points on pool threads.
A span opened on a thread with an empty stack is a root on that thread; its
parent is the outermost span of the client thread, the span that caused it.

A span's self time is its duration minus the part of its interval that its
children cover. Children on pool threads overlap in time, so the covered part
is the length of the union of the children's intervals, not their sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "models", "states", "symplectic", "entropy", "fock")

# Functions reported under a shared group name; every other traced function
# is reported under "<module>.<name>" and summed into "other".
GROUPS = {
    "cli.build_parser": "cli.main",
    "cli.args_partition_text": "cli.main",
    "models.ModelParams.build": "models.build",
    "models.QuadraticModel.__post_init__": "models.build",
    "models.chain_model": "models.build",
    "models.two_oscillator_model": "models.build",
    "states.read_covariance": "states.read",
    "states.read_covariance_text": "states.read",
    "states.covariance_from_json_dict": "states.read",
    "states.covariance_from_csv_text": "states.read",
}

# Methods traced besides the public module-level functions.
METHODS = (
    ("models", "ModelParams", "build"),
    ("models", "QuadraticModel", "__post_init__"),
)

# LAPACK flop estimates c * d^3 for one d x d real symmetric problem
# (Golub and Van Loan, Matrix Computations, 4th ed., section 8.3): about 4/3 d^3
# for eigenvalues only and 9 d^3 with eigenvectors. A complex Hermitian problem
# costs about four times as many real flops.
LINALG = {"eigh": 9.0, "eigvalsh": 4.0 / 3.0}
COMPLEX_FACTOR = 4.0


def linalg_flops(name: str, a) -> float:
    """Computed flop count of one ``numpy.linalg`` call on array ``a``."""
    a = np.asarray(a)
    d = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    factor = COMPLEX_FACTOR if np.iscomplexobj(a) else 1.0
    return LINALG[name] * factor * batch * float(d) ** 3


@dataclass
class Span:
    sid: int
    group: str
    start: float
    end: float
    parent: int | None
    thread_root: bool
    flops: float = 0.0


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - union_length(children[s.sid], s.start, s.end)
        for s in spans
    }


class Tracer:
    """Records spans around wrapped functions; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: list[int] = []
        self._client_thread: int | None = None
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, group: str, flops=None):
        """Return ``fn`` wrapped so that each call records one span of ``group``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent, thread_root = stack[-1], False
            else:
                parent = self._client_stack[0] if self._client_stack else None
                thread_root = True
            stack.append(sid)
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self._clock()
                stack.pop()
                span = Span(sid, group, start, end, parent, thread_root)
                if flops is not None:
                    span.flops = flops(args[0] if args else kwargs.get("a"))
                with self._lock:
                    self.spans.append(span)

        return traced

    def begin_op(self) -> None:
        """Start a new operation issued from the calling (client) thread."""
        self._client_thread = threading.get_ident()
        self._client_stack.clear()
        self.spans = []

    def end_op(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, package) -> None:
        """Wrap the public functions of the sympent layers at every binding."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}

        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    key = f"{short}.{name}"
                    wrapped[id(obj)] = self.wrap(obj, GROUPS.get(key, key))
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])

        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            key = f"{short}.{cls_name}.{meth}"
            self._patch(cls, meth, self.wrap(vars(cls)[meth], GROUPS.get(key, key)))

        for name in LINALG:
            fn = getattr(np.linalg, name)
            self._patch(
                np.linalg,
                name,
                self.wrap(fn, f"linalg.{name}", flops=functools.partial(linalg_flops, name)),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


class LayerTotals:
    """Per-group call counts and self times summed over traced operations."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.flops = 0.0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.ops = 0

    def add_op(self, spans, wall_s: float) -> None:
        selfs = self_times(spans)
        for s in spans:
            self.calls[s.group] += 1
            self.self_s[s.group] += selfs[s.sid]
            self.flops += s.flops
            if s.thread_root:
                self.busy_s += s.end - s.start
        self.wall_s += wall_s
        self.ops += 1
