"""Spans around the calls into each layer of besselmp, recorded from outside.

The traced run rebinds a fixed set of library functions to wrappers that
record one span per call (name, start, end, parent span, unit id).  The
library itself is unchanged; every rebinding is undone when the
``instrument`` block exits, so untraced passes run the original code.

Spans live in flat arrays in memory and are summarized when the run ends.
The process is single-threaded (BLAS and BESSELMP_THREADS pinned to one),
so a span's children are the spans opened while it was the innermost one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import Counter

from metrics import self_times

# (module, attribute, span name).  Functions are rebound in every besselmp
# module that imported them by name, so internal calls are seen too.
FUNCTION_HOOKS = (
    ("numpy.fft", "fftn", "fft"),
    ("numpy.fft", "ifftn", "fft"),
    ("besselmp.grid", "apply_multiplier", "multiplier"),
    ("besselmp.grid", "random_field", "random_field"),
    ("besselmp.problem", "energy", "energy"),
    ("besselmp.problem", "residual", "residual"),
    ("besselmp.solvers", "probe_geometry", "probe"),
    ("besselmp.solvers", "mountain_pass_solve", "mountain_pass"),
    ("besselmp.solvers", "_armijo_step", "armijo"),
    ("besselmp.solvers", "_polish", "polish"),
    ("besselmp.solvers", "_newton_direction", "newton"),
    ("besselmp.solvers", "lgmres", "lgmres"),
    ("besselmp.solvers", "ball_min_solve", "ball"),
    ("besselmp.verify", "check_superquadratic_tail", "verify.superquadratic-tail"),
    ("besselmp.verify", "check_splitting", "verify.splitting"),
    ("besselmp.verify", "holder_estimate", "verify.holder"),
    ("besselmp.verify", "estimate_embedding_constants", "verify.embedding"),
    ("besselmp.verify", "check_norm_domination", "verify.norm-domination"),
    ("besselmp.verify", "coercivity_probe", "verify.coercivity"),
    ("besselmp.verify", "check_sublevel_l2_bound", "verify.sublevel-bound"),
    ("besselmp.verify", "sublevel_measure", "verify.sublevel-measure"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.events: Counter = Counter()  # (unit id, event) -> amount
        self.unit_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, event: str, amount=1) -> None:
        self.events[(self.unit_id, event)] += amount

    def unit_counts(self, unit_id: int) -> dict:
        """Span counts by name plus event totals for one unit."""
        out = Counter()
        for nid, u in zip(self.name_id, self.unit):
            if u == unit_id:
                out["span:" + self.names[nid]] += 1
        for (u, event), amount in self.events.items():
            if u == unit_id:
                out["event:" + event] += amount
        return dict(out)

    def summarize(self, units) -> "Summary":
        return Summary(self, set(units))


def _wrap(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer, result)
        return result
    return wrapper


def _count_fft_points(tracer, args):
    tracer.count("fft_points", getattr(args[0], "size", 0))


def _count_newton_failed(tracer, result):
    if result is None:
        tracer.count("newton_failed")


def _count_krylov_failed(tracer, result):
    if result[1] != 0:
        tracer.count("krylov_failed")


_BEFORE = {"fft": _count_fft_points}
_AFTER = {"newton": _count_newton_failed, "lgmres": _count_krylov_failed}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the hooked functions to span-recording wrappers for the block.

    A hook whose target no longer exists is reported on stderr and skipped;
    its layer then reads zero.
    """
    undo = []
    try:
        targets = [m for name, m in list(sys.modules.items())
                   if name == "besselmp" or name.startswith("besselmp.")]
        for module_name, attr, span_name in FUNCTION_HOOKS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr, None)
            if original is None:
                print(f"trace: no {module_name}.{attr}; layer {span_name!r} not traced",
                      file=sys.stderr)
                continue
            wrapper = _wrap(tracer, span_name, original,
                            _BEFORE.get(span_name), _AFTER.get(span_name))
            for module in [home] + targets:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        field_cls = importlib.import_module("besselmp.grid").Field
        original_post_init = field_cls.__post_init__
        field_cls.__post_init__ = _wrap(tracer, "field", original_post_init)
        undo.append((field_cls, "__post_init__", original_post_init))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Summary:
    """Per-name counts, inclusive and self times over a set of units.

    ``by_top`` counts spans per outermost enclosing stage (the child of the
    unit span), ``by_parent`` per name of the immediate parent span.
    """

    def __init__(self, tracer: Tracer, units: set):
        keep = [i for i, u in enumerate(tracer.unit) if u in units]
        index = {old: new for new, old in enumerate(keep)}
        names = [tracer.names[tracer.name_id[i]] for i in keep]
        parents = [index.get(tracer.parent[i], -1) for i in keep]
        starts = [tracer.start[i] for i in keep]
        ends = [tracer.end[i] for i in keep]
        selfs = self_times(starts, ends, parents)

        self.count = Counter(names)
        self.inclusive = Counter()
        self.self_time = Counter()
        self.by_top = Counter()
        self.by_parent = Counter()
        self.krylov_newton = set()
        depth = [0] * len(names)
        top = [""] * len(names)
        for i, (name, p) in enumerate(zip(names, parents)):
            self.inclusive[name] += ends[i] - starts[i]
            self.self_time[name] += selfs[i]
            if p >= 0:
                depth[i] = depth[p] + 1
                top[i] = name if depth[i] == 1 else top[p]
                self.by_parent[(names[p], name)] += 1
                if name == "lgmres" and names[p] == "newton":
                    self.krylov_newton.add(p)
            self.by_top[(top[i], name)] += 1
        self.newton_dense = [i for i, n in enumerate(names)
                             if n == "newton" and i not in self.krylov_newton]
        self.newton_krylov = sorted(self.krylov_newton)
        self._durations = [e - s for s, e in zip(starts, ends)]
        self.events = Counter()
        for (u, event), amount in tracer.events.items():
            if u in units:
                self.events[event] += amount
        self.spans = len(names)

    def duration(self, spans) -> float:
        return sum(self._durations[i] for i in spans)

    def top_count(self, prefix: str, name: str) -> int:
        return sum(c for (t, n), c in self.by_top.items() if n == name and t.startswith(prefix))
