"""Outside-in span tracing of the invlab package.

``install`` replaces every public function of the layer modules, plus the
``Matrix`` constructor and ``Rng.normals``, with a wrapper
that records one span per call: name, parent, start, end and a work count.
A function is replaced at every binding site: in each ``invlab`` module
namespace that imported it (``from .core import norm2`` makes a second
binding in ``inversion``, ``metrics``, ``matgen`` and ``cli``) and in each
module-level dict that holds it (the inversion dispatch table). The
returned ``undo`` puts the originals back, so an untraced run executes the
unmodified package.

Nothing in the package is edited: the spans come from the benchmark's own
wrappers around the calls into each layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("rng", "matgen", "core", "inversion", "metrics", "matio", "cli")

# Called once per matrix entry when text is written; a span per call would
# cost more than the call itself and mostly measure the tracer.
SKIP = frozenset({"matio.format_float"})

# (layer, class, method, span name): methods traced besides module functions.
METHODS = (
    ("core", "Matrix", "__init__", "core.Matrix"),
    ("rng", "Rng", "normals", "rng.normals"),
)


def _iterations(args, kwargs, out):
    return out.iterations


# Work recorded on a span, by span name: f(args, kwargs, result) -> number.
WORK = {
    "rng.normals": lambda a, k, out: a[1] if len(a) > 1 else k["count"],
    "core.Matrix": lambda a, k, out: a[0].data.nbytes,  # the defensive copy
    "core.lu_gepp": lambda a, k, out: 2.0 * out.n ** 3 / 3.0,  # flops
    "matio.load_matrix": lambda a, k, out: os.path.getsize(a[0]),
    "matio.matrix_to_text": lambda a, k, out: len(out),
    "inversion.invert": _iterations,
    "inversion.newton_left": _iterations,
    "inversion.newton_right": _iterations,
}

# Span fields, kept as plain lists for speed.
NAME, PARENT, START, END, WORK_DONE = range(5)


class WiringError(RuntimeError):
    """A traced function is still reachable without its wrapper."""


class Recorder:
    """Spans of one traced run, in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []  # indices of open spans, innermost last

    def wrap(self, name, fn, work=None):
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0, 0.0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if work is not None:
                span[WORK_DONE] = work(args, kwargs, out)
            return out

        return traced


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "invlab" or name.startswith("invlab."))]


def _targets():
    """(span name, function) for every public function of every layer."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"invlab.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in SKIP):
                out.append((name, obj))
    return out


def _bindings(originals):
    """(container, key) of every module-level reference to an original."""
    found = []
    for mod in _package_modules():
        ns = vars(mod)
        for key, val in ns.items():
            if key.startswith("__"):
                continue
            if id(val) in originals:
                found.append((ns, key))
            elif isinstance(val, dict):
                found.extend((val, k) for k, v in val.items() if id(v) in originals)
            elif isinstance(val, (list, tuple, set, frozenset)):
                found.extend((val, None) for v in val if id(v) in originals)
    return found


def install(rec: Recorder):
    """Trace the package into ``rec``; returns a function that undoes it."""
    originals = {id(fn): (name, fn) for name, fn in _targets()}
    wrappers = {i: rec.wrap(name, fn, WORK.get(name)) for i, (name, fn) in originals.items()}
    bindings = _bindings(originals)
    for container, key in bindings:
        if key is None:
            raise WiringError(f"a traced function sits in a {type(container).__name__}")
    undo = []
    for container, key in bindings:
        fn = container[key]
        container[key] = wrappers[id(fn)]
        undo.append((container, key, fn))
    for layer, cls_name, meth, name in METHODS:
        cls = getattr(importlib.import_module(f"invlab.{layer}"), cls_name)
        fn = cls.__dict__[meth]
        setattr(cls, meth, rec.wrap(name, fn, WORK.get(name)))
        undo.append((cls, meth, fn))

    def restore():
        for owner, key, fn in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        reach = lo
        for a, b in sorted((max(spans[c][START], lo), min(spans[c][END], hi))
                           for c in children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (outermost spans only), self_s, work."""
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        st["work"] += s[WORK_DONE]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:  # a recursive call's time is already in its outer span
            st["total_s"] += s[END] - s[START]
    return stats
