"""Spans, hooks and the step clock the benchmark wraps around the program.

Everything here works from outside the program: a hook replaces a public
callable of ``mocadet`` with a wrapper and puts the original back when it
is removed. Nothing in ``src/`` knows it is being measured.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time


class StopRun(BaseException):
    """Ends a time-limited training loop from inside the optimizer step.

    It derives from BaseException so that no ``except Exception`` in the
    program can swallow it.
    """


class Span:
    __slots__ = ("name", "start", "end", "parent", "count", "outer")

    def __init__(self, name, start, parent, outer):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index of the enclosing span, or -1
        self.count = 0
        self.outer = outer  # False when an enclosing span has the same name

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.gc_events: list[tuple] = []  # (start, end) of each collection
        self._open: list[int] = []
        self._gc_start = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        outer = all(self.spans[i].name != name for i in self._open)
        self.spans.append(Span(name, time.perf_counter(), parent, outer))
        self._open.append(idx)
        return idx

    def end(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.count = count
        if self._open.pop() != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def self_times(self) -> list:
        """Duration of each span minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    # -- garbage collector --------------------------------------------------
    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_events.append((self._gc_start, time.perf_counter()))
            self._gc_start = None

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        return False


class Hook:
    """One replaced callable of the program, at every place that binds it.

    ``qualname`` is ``func`` for a module-level function or ``Class.method``.
    A function is rebound in every module of its package that holds it, so
    ``from .losses import detection_loss`` in another module is wrapped
    too. A target that no longer exists leaves the hook ``missing``.
    """

    def __init__(self, module: str, qualname: str):
        self.module = module
        self.qualname = qualname
        self.status = "pending"
        self.bindings = 0
        self._undo: list[tuple] = []

    @property
    def target(self) -> str:
        return f"{self.module}.{self.qualname}"

    def _resolve(self):
        owner = importlib.import_module(self.module)
        *path, attr = self.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            return owner, attr, owner.__dict__[attr]
        return owner, attr, getattr(owner, attr)

    def install(self, make_wrapper) -> bool:
        try:
            owner, attr, original = self._resolve()
        except (ImportError, AttributeError, KeyError):
            self.status = "missing"
            return False
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            places = [(owner, attr)]
        else:
            package = self.module.split(".")[0]
            places = [(mod, key)
                      for name, mod in list(sys.modules.items())
                      if mod is not None and (name == package or name.startswith(package + "."))
                      for key, value in list(vars(mod).items()) if value is original]
        for obj, key in places:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)
        self.bindings = len(places)
        self.status = "installed"
        return True

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()


class Hooks:
    """A set of hooks removed together, in reverse order, on exit."""

    def __init__(self):
        self.hooks: list[Hook] = []

    def add(self, module: str, qualname: str, make_wrapper) -> Hook:
        hook = Hook(module, qualname)
        hook.install(make_wrapper)
        self.hooks.append(hook)
        return hook

    def missing(self) -> list:
        return [h.target for h in self.hooks if h.status == "missing"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for hook in reversed(self.hooks):
            hook.uninstall()
        return False


def traced(tracer: Tracer, name, before=None, after=None):
    """Wrapper factory: one span per call.

    ``name`` is a string, or a function of the call's arguments that gives
    the span name or None (then the call is not traced). ``before(args)``
    runs ahead of the call and ``after(state, result)`` gives the span's
    count from its result.
    """
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            if span_name is None:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            idx = tracer.begin(span_name)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    count = after(state, result)
            finally:
                tracer.end(idx, count)
            return result
        return wrapper
    return make


def stopwatch(readings: list, gauge):
    """Wrapper factory: appends (wall time s, gauge ms) of each call."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            readings.append((time.perf_counter() - t0, gauge.measure()))
            return result
        return wrapper
    return make


class StepClock:
    """Times optimizer steps and ends the loop after ``seconds``.

    Each step's return is stamped (``ends``), then the speed gauge runs and
    the time the loop resumes is stamped (``resumes``); an iteration is the
    interval from one resume to the next end. The deadline counts from the
    first step's return, so set-up and the warm-up step are outside the
    measured time. A step that would start after the deadline raises
    StopRun instead; it is not counted.
    """

    def __init__(self, seconds: float, gauge):
        self.seconds = seconds
        self.gauge = gauge
        self.ends: list[float] = []
        self.resumes: list[float] = []
        self.gauge_ms: list[float] = []
        self.deadline = None

    def wrap(self, step):
        @functools.wraps(step)
        def timed_step(*args, **kwargs):
            if self.deadline is not None and time.perf_counter() >= self.deadline:
                raise StopRun
            step(*args, **kwargs)
            self.ends.append(time.perf_counter())
            self.gauge_ms.append(self.gauge.measure())
            self.resumes.append(time.perf_counter())
            if self.deadline is None:
                self.deadline = self.ends[0] + self.seconds
        return timed_step
