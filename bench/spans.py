"""Spans recorded from outside the package, and their summary.

A Tracer replaces a layer's public function at every module attribute
that binds it (so `harness.binding_attack` and `adversary.binding_attack`
are both wrapped) and records one span per call: name, start, end,
parent span and job id.  Spans stay in memory until the pass ends and
are then reduced by `summarise` to call counts, total time and self
time.  Uninstalling puts every original object back.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

PACKAGE = "wiretap_commit"


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, job)
        self.counters = {}
        self.job = None
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def reset(self):
        self.spans, self.counters, self._stack = [], {}, []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name, job=None):
        """Record the enclosed block as one span; job ids are inherited."""
        outer_job = self.job
        if job is not None:
            self.job = job
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)
            self.job = outer_job

    def wrap(self, fn, name, annotate=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if annotate is not None:
                for key, amount in annotate(args, kwargs, result).items():
                    self.count(f"{name}.{key}", amount)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attribute, name, annotate=None):
        """Wrap owner.attribute wherever the package binds that object.

        A class attribute (a method) has one binding; a module function
        is also replaced in every package module that imported it.
        """
        original = getattr(owner, attribute)
        wrapper = self.wrap(original, name, annotate)
        if isinstance(owner, type):
            owners = [owner]
        else:
            owners = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
                      and getattr(m, attribute, None) is original]
        for target in owners:
            self._patched.append((target, attribute, original))
            setattr(target, attribute, wrapper)

    def install_counter(self, cls, name):
        """Count constructions of cls without recording spans."""
        original = cls.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            tracer.count(name)
            original(obj, *args, **kwargs)

        self._patched.append((cls, "__init__", original))
        cls.__init__ = counting_init

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def self_times(spans):
    """Per-span self time: duration minus the union of its children.

    Children are clipped to the parent's interval before merging, so
    overlapping or overhanging child spans are never subtracted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarise(spans):
    """name -> {"calls", "total_s", "self_s"} over a list of spans."""
    out = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return out
