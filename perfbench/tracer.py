"""Spans around the program's public functions, recorded from outside.

`Tracer.install` wraps each target function and rebinds every attribute
of the ``paraburgers.*`` modules (and of the target's owner) that holds
the same function object, so names bound by ``from ... import`` are
traced too.  `Tracer.uninstall` puts the original objects back.

A span is (id, name, start, end, parent, thread).  Spans nest through a
per-thread stack; the first span on a worker thread takes as its parent
the innermost span open on the thread that installed the tracer, which
is the study that started the worker pool.  Self time is a span's
duration minus the durations of its children on the same thread.
"""

import functools
import itertools
import sys
import threading
from collections import Counter, namedtuple
from time import perf_counter

Span = namedtuple("Span", "id name start end parent thread")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.root_thread = threading.get_ident()
        self._root_stack = self._stack()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _root_parent(self):
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def add(self, key, amount):
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name, fn, note=None):
        """fn recording a span per call; note(tracer, result) counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root_parent()
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = Span(span_id, name, start, end, parent,
                            threading.get_ident())
                with self._lock:
                    self.spans.append(span)
            if note is not None:
                note(self, result)
            return result

        return traced

    def install(self, targets, package="paraburgers"):
        """Wrap (name, owner, attribute, note) targets; missing ones are
        skipped and returned by name."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        missing = []
        for name, owner, attr, note in targets:
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original, note)
            for holder in [owner, *modules]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return missing

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []

    def take(self):
        """Spans and counters recorded since the last take."""
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = self.counters, Counter()
        return spans, counters


def self_times(spans):
    """{name: (calls, self seconds)} over a list of spans."""
    child_time = Counter()
    for span in spans:
        child_time[(span.parent, span.thread)] += span.end - span.start
    totals = {}
    for span in spans:
        calls, busy = totals.get(span.name, (0, 0.0))
        own = span.end - span.start - child_time[(span.id, span.thread)]
        totals[span.name] = (calls + 1, busy + own)
    return totals
