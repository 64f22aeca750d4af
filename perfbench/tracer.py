"""In-memory layer spans for the traced benchmark run.

The tracer wraps methods of the simulator's classes from outside (the
simulator itself carries no tracing code).  Each wrapped call is a span
owned by one layer; a layer's self time is the sum over its spans of the
span's duration minus the time covered by the spans it directly
contains.  Spans are aggregated per layer as they close, so a run with
millions of calls keeps a few counters in memory instead of a span list.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable


class Tracer:
    """Per-layer self time and per-method call counts.

    ``clock`` is injectable so tests can drive spans with fake time.
    Span stacks are per thread (the service answers HTTP requests on
    one thread and runs jobs on another); the totals are shared and
    updated under a lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a ``layer`` span named ``name``."""
        clock = self.clock
        lock = self._lock
        self_s, span_s, calls = self.self_s, self.span_s, self.calls
        get_stack = self._stack

        def traced(*args, **kwargs):
            stack = get_stack()
            # The frame accumulates the time of the spans nested in this one.
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with lock:
                    calls[name] += 1
                    span_s[layer] += duration
                    self_s[layer] += duration - frame[0]

        return traced


def _methods(cls: type) -> Iterable[str]:
    """Plain functions defined on ``cls`` itself (no dunders, no
    properties, static or class methods)."""
    for attr, value in vars(cls).items():
        if attr.startswith("__") or not callable(value):
            continue
        if isinstance(value, (staticmethod, classmethod, type)):
            continue
        yield attr


class Instrumentation:
    """Patches layer methods with tracer spans; :meth:`remove` undoes it.

    Patch before the platform is built: callbacks the simulator stores as
    bound methods resolve the class attribute when they are created.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[type, str, object]] = []

    def patch(self, layer: str, cls: type, names: Iterable[str] | None = None) -> None:
        """Wrap ``names`` of ``cls`` (default: every method it defines)."""
        for attr in list(names if names is not None else _methods(cls)):
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.tracer.wrap(layer, f"{cls.__name__}.{attr}", original))

    def remove(self) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()


def instrument_simulator(tracer: Tracer) -> Instrumentation:
    """Wrap the entry points of every simulator layer.

    The layer boundaries are the ones the benchmark reports:

    * ``events`` — ``EventQueue.run`` and ``schedule_at``;
    * ``network`` — ``FastBackend.send``, its delivery drain and
      ``Link.reserve``;
    * ``detailed`` — the flit-level backend and its router ports;
    * ``collectives`` — ``CollectiveContext.send`` and every method of the
      algorithm state machines (the algorithm steps);
    * ``stats`` — ``PhaseStats.record``, ``DelayBreakdown.record_message``
      and the system's per-message recording hook;
    * ``system`` — the system layer, scheduler and collective sets;
    * ``workload`` — the training loop;
    * ``build`` — ``PlatformSpec.build_system``.
    """
    from repro.collectives import base, direct_algorithms, hierarchical, ring_algorithms
    from repro.collectives.context import CollectiveContext, PhaseStats
    from repro.events.engine import EventQueue
    from repro.harness.runners import PlatformSpec
    from repro.network.detailed import router
    from repro.network.detailed.backend import DetailedBackend
    from repro.network.fast_backend import FastBackend
    from repro.network.link import Link
    from repro.system.collective_set import CollectiveSet
    from repro.system.scheduler import Scheduler
    from repro.system.stats import DelayBreakdown
    from repro.system.sys_layer import System
    from repro.workload.training_loop import TrainingLoop

    inst = Instrumentation(tracer)
    inst.patch("events", EventQueue, ["run", "schedule_at"])
    inst.patch("network", FastBackend, ["send", "_drain_deliveries"])
    inst.patch("network", Link, ["reserve"])
    inst.patch("detailed", DetailedBackend)
    inst.patch("detailed", router.TxPort)
    inst.patch("collectives", CollectiveContext, ["send"])
    for module in (base, ring_algorithms, direct_algorithms, hierarchical):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                inst.patch("collectives", cls)
    inst.patch("stats", PhaseStats, ["record"])
    inst.patch("stats", DelayBreakdown, ["record_message"])
    inst.patch("stats", System, ["_record"])
    inst.patch("system", System, [name for name in _methods(System)
                                  if name != "_record"])
    inst.patch("system", Scheduler)
    inst.patch("system", CollectiveSet)
    inst.patch("workload", TrainingLoop)
    inst.patch("build", PlatformSpec, ["build_system"])
    return inst


def instrument_service(tracer: Tracer) -> Instrumentation:
    """Wrap the service's admission and job-execution entry points."""
    from repro.service.daemon import SimulationService

    inst = Instrumentation(tracer)
    inst.patch("service.submit", SimulationService, ["submit"])
    inst.patch("service.run_job", SimulationService, ["run_job"])
    return inst
