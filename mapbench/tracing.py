"""Host-time attribution for the traced run, recorded from outside ``repro``.

:class:`Tracer` wraps the public functions and methods of every ``repro``
subpackage (the layers), records one span per call, and removes the
wrappers again.  Nothing under ``src/`` knows about it.

A span is ``name, layer, start, end, parent, request``; the parent is the
innermost open span of the same thread, the request id is whatever the
benchmark set for that thread (figure id, sweep phase, client request)
or the thread's name.  Spans are kept in memory per thread and written
once, at exit, by :meth:`Tracer.write`.

Self time is a span's duration minus the time its direct children cover.
Calls that only block (the parent waiting on sweep workers, a long-poll
waiting on a job) are recorded under the pseudo-layer ``wait`` so their
time is carved out of the layer that waits.  NumPy kernels are
``ndarray`` methods that cannot be wrapped from outside, so their time
counts as the calling layer's self time.  Forked sweep workers inherit
the wrappers, but their spans stay in the worker.
"""

from __future__ import annotations

import enum
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: The ``repro`` subpackages whose calls are attributed.
LAYERS = (
    "sim",
    "storage",
    "executor",
    "core",
    "optimizer",
    "systems",
    "workloads",
    "bench",
    "service",
    "obs",
    "viz",
)

#: Private callables wrapped as well, because a per-layer count or a
#: waiting time is read from them.
_PRIVATE_TARGETS = (
    ("repro.core.runner", "RobustnessSweep", "_measure_cell"),
    ("repro.core.runner", "RobustnessSweep", "_fill_stored"),
    ("repro.core.parallel", "ParallelSweep", "_measure_wave"),
    ("repro.core.parallel", "_LazyPool", "shutdown"),
)

#: Callables whose whole duration is blocking on other threads/processes.
WAIT_NAMES = frozenset(
    {
        "repro.core.parallel._LazyPool.shutdown",
        "repro.service.jobs.JobManager.wait",
        "repro.core.parallel.as_completed",
    }
)

# span record fields (lists, for cheap in-place completion)
NAME, LAYER, START, END, PARENT, REQUEST = range(6)


class Tracer:
    """Installs span-recording wrappers into ``repro`` and aggregates them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[str, list]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._archived: list[tuple[str, list]] = []
        #: Cells handed to forked workers (their spans stay there).
        self.worker_cells = 0
        #: Objects created while tracing, for counter deltas.
        self.envs: list = []
        self.stores: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.current_thread().name, spans))
        return spans, local.stack

    def set_request(self, request: str | None) -> None:
        """Tag the spans the calling thread records next."""
        self._local.request = request

    def _request(self) -> str:
        request = getattr(self._local, "request", None)
        return request if request is not None else threading.current_thread().name

    def _wrap(self, fn, name: str, layer: str, per_class: bool = False):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer._thread_state()
            span_name = name
            if per_class and args:
                span_name = f"repro.executor.{type(args[0]).__name__}.execute"
            record = [
                span_name,
                layer,
                clock(),
                0.0,
                stack[-1] if stack else -1,
                tracer._request(),
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def _wrap_iterator_waits(self, fn, name: str):
        """Time only the blocking ``next()`` steps of an iterator factory."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                spans, stack = tracer._thread_state()
                record = [name, "wait", clock(), 0.0,
                          stack[-1] if stack else -1, tracer._request()]
                spans.append(record)
                try:
                    item = next(iterator)
                except StopIteration:
                    record[END] = clock()
                    return
                record[END] = clock()
                yield item

        return wrapper

    def _counting_worker_cells(self, measure_wave):
        """Count the cells a parallel wave hands to its workers."""
        tracer = self

        @functools.wraps(measure_wave)
        def wrapper(sweep, lazy, spec, plan_filter, wave, *args, **kwargs):
            result = measure_wave(sweep, lazy, spec, plan_filter, wave, *args, **kwargs)
            tracer.worker_cells += len(wave) - (sweep._last_wave_hits or 0)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public callable of every layer, then the extras."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("repro.") and module is not None
        ]
        replaced: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.split(".")[1]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapper = self._wrap(obj, f"{module.__name__}.{obj.__qualname__}", layer)
                    replaced[id(obj)] = wrapper
                elif inspect.isclass(obj):
                    self._wrap_class(obj, module.__name__, layer)
        for module_name, class_name, method in _PRIVATE_TARGETS:
            cls = getattr(sys.modules[module_name], class_name)
            fn = cls.__dict__[method]
            qualified = f"{module_name}.{class_name}.{method}"
            layer = "wait" if qualified in WAIT_NAMES else "core"
            wrapper = self._wrap(fn, qualified, layer)
            if method == "_measure_wave":
                wrapper = self._counting_worker_cells(wrapper)
            self._patch(cls, method, wrapper)
        # Rebind every module-level reference to a wrapped function, so
        # ``from repro.x import f`` call sites see the wrapper too.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        parallel = sys.modules["repro.core.parallel"]
        self._patch(
            parallel,
            "as_completed",
            self._wrap_iterator_waits(
                parallel.as_completed, "repro.core.parallel.as_completed"
            ),
        )
        self._register_instances()

    def _wrap_class(self, cls, module_name: str, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        from repro.executor.plans import PlanNode

        is_node = issubclass(cls, PlanNode)
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{module_name}.{cls.__qualname__}.{attr}"
            span_layer = "wait" if name in WAIT_NAMES else layer
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if inspect.isgeneratorfunction(inner):
                    continue
                self._patch(cls, attr, type(value)(self._wrap(inner, name, span_layer)))
            elif isinstance(value, property):
                if value.fget is None:
                    continue
                self._patch(
                    cls,
                    attr,
                    property(
                        self._wrap(value.fget, name, span_layer),
                        value.fset,
                        value.fdel,
                        value.__doc__,
                    ),
                )
            elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                per_class = is_node and attr == "execute"
                self._patch(cls, attr, self._wrap(value, name, span_layer, per_class))

    def _register_instances(self) -> None:
        """Remember every storage environment and cell store created."""
        from repro.core.cellstore import CellStore
        from repro.storage.env import StorageEnv

        for cls, book in ((StorageEnv, self.envs), (CellStore, self.stores)):
            init = cls.__dict__["__init__"]

            def registering(self_, *args, _init=init, _book=book, **kwargs):
                _init(self_, *args, **kwargs)
                _book.append(self_)

            functools.update_wrapper(registering, init)
            self._patch(cls, "__init__", registering)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def archive(self) -> None:
        """Set the spans recorded so far aside (still written at exit)."""
        with self._lock:
            for name, spans in self._threads:
                self._archived.append((f"{name}#setup", list(spans)))
                spans.clear()
        self.worker_cells = 0

    def spans(self) -> list[tuple[str, list]]:
        """A copy of every thread's spans recorded since the last archive."""
        with self._lock:
            return [(name, list(spans)) for name, spans in self._threads]

    def summarize(self, main_thread: str, until: float | None = None) -> "SpanSummary":
        """Times of the spans recorded since the last archive.

        ``until`` drops spans that started after it: the checks that
        follow a timed pass are not part of it.
        """
        threads = self.spans()
        if until is not None:
            threads = [(name, _before(spans, until)) for name, spans in threads]
        return SpanSummary(threads, main_thread)

    def write(self, path: Path) -> int:
        """Write every recorded span as one gzipped JSON line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for thread, spans in self._archived + self.spans():
                for index, record in enumerate(spans):
                    fh.write(
                        json.dumps(
                            {
                                "thread": thread,
                                "id": index,
                                "name": record[NAME],
                                "layer": record[LAYER],
                                "start": record[START],
                                "end": record[END],
                                "parent": record[PARENT],
                                "request": record[REQUEST],
                            }
                        )
                        + "\n"
                    )
                    n += 1
        return n


def _before(spans: list, until: float) -> list:
    """The prefix of a thread's spans that started before ``until``.

    Spans are appended in start order, so a prefix keeps parents valid.
    """
    for index, record in enumerate(spans):
        if record[START] >= until:
            return spans[:index]
    return spans


class SpanSummary:
    """Self and inclusive times over a set of recorded spans."""

    def __init__(self, threads: list[tuple[str, list]], main_thread: str) -> None:
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.self_by_layer: dict[str, float] = defaultdict(float)
        self.calls_by_name: dict[str, int] = defaultdict(int)
        self.main_self = 0.0
        self._threads = threads
        for thread, spans in threads:
            child_time = [0.0] * len(spans)
            for record in spans:
                parent = record[PARENT]
                if parent >= 0:
                    child_time[parent] += record[END] - record[START]
            for index, record in enumerate(spans):
                self_time = record[END] - record[START] - child_time[index]
                self.self_by_name[record[NAME]] += self_time
                self.self_by_layer[record[LAYER]] += self_time
                self.calls_by_name[record[NAME]] += 1
                if thread == main_thread:
                    self.main_self += self_time

    def self_time(self, predicate) -> float:
        """Self time of matching spans, waits excluded."""
        return sum(
            t
            for name, t in self.self_by_name.items()
            if name not in WAIT_NAMES and predicate(name)
        )

    def calls(self, predicate) -> int:
        return sum(n for name, n in self.calls_by_name.items() if predicate(name))

    def _top_level(self, predicate):
        """Matching spans that have no matching ancestor."""
        for _thread, spans in self._threads:
            matched = [predicate(record[NAME]) for record in spans]
            for index, record in enumerate(spans):
                if not matched[index]:
                    continue
                parent = record[PARENT]
                while parent >= 0 and not matched[parent]:
                    parent = spans[parent][PARENT]
                if parent < 0:
                    yield record

    def inclusive(self, predicate) -> float:
        """Summed duration of matching spans that have no matching ancestor."""
        return sum(record[END] - record[START] for record in self._top_level(predicate))

    def top_level_calls(self, predicate) -> int:
        """Matching calls not nested in another matching call."""
        return sum(1 for _record in self._top_level(predicate))
