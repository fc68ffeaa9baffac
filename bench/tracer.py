"""Spans and counters around the library's public functions, from outside the library.

``Tracer.installed()`` replaces each target function by a wrapper in every
``criticalgabor`` namespace that holds it (``certainty`` does
``from .expansion import relaxed_coefficients``, so wrapping only the
defining module would miss nested calls), and patches the target methods on
their classes.  Leaving the context restores the originals, so an untraced
call runs the library unchanged.

Two kinds of target:

* span targets record (name, start, end, parent span, item id) per call;
* hot targets (``CoefficientSet.add/set``, ``atom``, ``contains``,
  ``distance``) are called up to ~10^5 times per item, so they only count
  calls and accumulate time, without a span record.

A call's self time is its duration minus the time of the traced calls inside
it, hot ones included, so the self times of one item add up to at most its
wall time.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np

# (stat name, module, attribute path, kind)
TARGETS = [
    ("numerics.theta", "numerics", "theta", "span"),
    ("numerics.upsample_periodic", "numerics", "upsample_periodic", "span"),
    ("numerics.spectral_derivative", "numerics", "spectral_derivative", "span"),
    ("zak.zak", "zak", "zak", "span"),
    ("expansion.division_field", "expansion", "division_field", "span"),
    ("expansion.relaxed_coefficients", "expansion", "relaxed_coefficients", "span"),
    ("expansion.hdelta_norm", "expansion", "hdelta_norm", "span"),
    ("higher.order_m_coefficients", "higher", "order_m_coefficients", "span"),
    ("higher.dual_atoms", "higher", "dual_atoms", "span"),
    ("higher.annihilate", "higher", "annihilate", "span"),
    ("gabor.gabor_transform", "gabor", "gabor_transform", "span"),
    ("gabor.synthesize", "gabor", "synthesize", "span"),
    ("gabor.CoefficientSet.to_json", "gabor", "CoefficientSet.to_json", "span"),
    ("gabor.CoefficientSet.from_json", "gabor", "CoefficientSet.from_json", "span"),
    ("metaplectic.metaplectic_apply", "metaplectic", "metaplectic_apply", "span"),
    ("phaseplane.lattice_points_in", "phaseplane", "lattice_points_in", "span"),
    ("certainty.decompose", "certainty", "decompose", "span"),
    ("certainty.concentration", "certainty", "concentration", "span"),
    ("certainty.nesting_satisfied", "certainty", "nesting_satisfied", "span"),
    ("gabor.atom", "gabor", "atom", "hot"),
    ("gabor.CoefficientSet.add", "gabor", "CoefficientSet.add", "hot"),
    ("gabor.CoefficientSet.set", "gabor", "CoefficientSet.set", "hot"),
    ("phaseplane.contains", "phaseplane", "PhaseDomain.contains", "hot"),
    # every domain class that defines its own distance counts under one name
    ("phaseplane.distance", "phaseplane", "*.distance", "hot"),
]


class Stat:
    __slots__ = ("calls", "total", "self", "points")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.points = 0


def _point_count(x) -> int:
    """Number of phase points in a ``contains`` argument (one point or an (n, 2) array)."""
    if hasattr(x, "p"):
        return 1
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(np.prod(shape)) // 2


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {name: Stat() for name, *_ in TARGETS}
        self.parents: Counter = Counter()  # (span name, parent span name) -> calls
        self.spans: list = []
        self.item = None
        self._stack: list = []  # [name, span index or -1, child seconds]

    # --------------------------------------------------------------- wrappers
    def _wrap(self, name, fn, kind):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        parents = self.parents
        record = kind == "span"
        count_points = name == "phaseplane.contains"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if record:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
            frame = [name, idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total += dur
                stat.self += dur - frame[2]
                if count_points:
                    stat.points += _point_count(args[1] if len(args) > 1 else kwargs["x"])
                if parent is not None:
                    parent[2] += dur
                if record:
                    parents[(name, parent[0] if parent else None)] += 1
                    spans[idx] = (name, t0, t1, parent[1] if parent else -1, self.item)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        patches = []
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "criticalgabor" or key.startswith("criticalgabor."))]
        try:
            for name, modname, path, kind in TARGETS:
                mod = importlib.import_module(f"criticalgabor.{modname}")
                if "." not in path:
                    orig = getattr(mod, path)
                    wrapper = self._wrap(name, orig, kind)
                    for m in mods:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                patches.append((m, attr, val))
                                setattr(m, attr, wrapper)
                    continue
                clsname, meth = path.split(".")
                classes = ([c for c in vars(mod).values()
                            if isinstance(c, type) and c.__module__ == mod.__name__ and meth in vars(c)]
                           if clsname == "*" else [getattr(mod, clsname)])
                for cls in classes:
                    raw = vars(cls)[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__, kind))
                    else:
                        new = self._wrap(name, raw, kind)
                    patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
            yield self
        finally:
            for obj, attr, val in reversed(patches):
                setattr(obj, attr, val)

    # ---------------------------------------------------------------- output
    def write(self, path):
        """Write the spans as JSON lines: name, start, end (s), parent index, item."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, t0, t1, parent, item = span
                fh.write(json.dumps({"i": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")
