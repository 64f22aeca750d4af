"""The system layer facade (Fig. 6): collective APIs over the network.

:class:`System` owns the event queue, the network backend, the scheduler
and the statistics, and exposes the collective API the workload layer
programs against: :meth:`request_collective` returns a
:class:`CollectiveSet` whose completion can be awaited via callback.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

from repro.collectives.context import CollectiveContext
from repro.collectives.types import CollectiveOp, build_phase_plan
from repro.config.parameters import SimulationConfig
from repro.errors import SimulationError
from repro.events.engine import EventQueue
from repro.network.api import NetworkBackend
from repro.network.fast_backend import FastBackend
from repro.system.collective_set import CollectiveSet, split_into_chunks
from repro.system.p2p import P2PEngine, P2PTransfer
from repro.system.scheduler import Scheduler
from repro.system.stats import DelayBreakdown
from repro.dims import Dimension
from repro.topology.logical import LogicalTopology


class System:
    """One simulated training platform: topology + system layer + network."""

    def __init__(
        self,
        topology: LogicalTopology,
        config: SimulationConfig,
        backend: Optional[NetworkBackend] = None,
        events: Optional[EventQueue] = None,
        trace: bool = False,
        sanitizer=None,
        fault_schedule=None,
        resilience=None,
        backend_factory=None,
    ):
        self.topology = topology
        self.config = config
        #: Optional repro.sanitize.runtime.RuntimeSanitizer.  When present
        #: (and no explicit queue/backend was passed) the system builds a
        #: sanitized event queue and an instrumented backend, and verifies
        #: quiescence invariants in :meth:`run_until_idle`.
        self.sanitizer = sanitizer
        if events is not None:
            self.events = events
        elif sanitizer is not None:
            self.events = sanitizer.make_event_queue()
        else:
            self.events = EventQueue()
        if backend is None:
            network = config.network if config.network is not None else topology.fabric.network
            if backend_factory is not None:
                # Harness hook for the non-default backend (the detailed
                # flit-level one), called with the queue the system built.
                backend = backend_factory(self.events, network, sanitizer)
            else:
                backend = FastBackend(self.events, network, sanitizer=sanitizer)
        #: Reliable transport wrapper, when config.system.transport enables
        #: it (required for surviving fault schedules — docs/FAULTS.md).
        self.transport = None
        if config.system.transport is not None:
            if getattr(backend, "supports_failure_callback", False):
                self.transport = backend  # caller passed a wrapped backend
            else:
                from repro.system.transport import ReliableTransport

                backend = ReliableTransport(backend, config.system.transport)
                self.transport = backend
        self.backend = backend
        #: Live fault state (repro.network.fault_schedule.FaultState) when a
        #: schedule was installed; both backends consult it at injection.
        self.fault_state = None
        if fault_schedule is not None:
            self.fault_state = fault_schedule.install(topology.fabric, self.events)
            self.backend.faults = self.fault_state
        self.scheduler = Scheduler(
            topology.fabric, config.system, now=lambda: self.events.now
        )
        #: trace=True retains finished chunk executions so the timeline
        #: tooling (repro.analysis.trace) can reconstruct phase spans.
        self.scheduler.keep_completed = trace
        self.sets: list[CollectiveSet] = []
        # Per-system set numbering: set ids appear in labels, traces and
        # error messages, so they must depend on this run alone — not on
        # how many systems the process (or a pool worker) built before.
        self._set_ids = itertools.count()
        self._p2p: Optional[P2PEngine] = None
        #: repro.resilience.monitor.ResilienceMonitor when a resilience
        #: config (checkpointing / watchdog / resume) was supplied.  The
        #: monitor observes through the queue's watcher hook and never
        #: schedules events, so attaching it cannot change the simulated
        #: trajectory.
        self.resilience = None
        if resilience is not None and resilience.enabled:
            from repro.resilience.monitor import ResilienceMonitor

            self.resilience = ResilienceMonitor(self, resilience)
            self.events.watcher = self.resilience.on_event

    # -- time ----------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.events.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """The event queue, exposed upward to the workload layer (Sec. IV)."""
        self.events.schedule(delay, callback)

    # -- collective API ---------------------------------------------------------------

    def request_collective(
        self,
        op: CollectiveOp,
        size_bytes: float,
        scope: Optional[Sequence[Dimension]] = None,
        layer_id: Optional[int] = None,
        name: str = "",
        reduction_cycles_per_kb: Optional[float] = None,
    ) -> CollectiveSet:
        """Issue one collective set; it is chunked, queued and dispatched
        by the scheduler, pipelining with everything already in flight."""
        sys_cfg = self.config.system
        if reduction_cycles_per_kb is None:
            reduction_cycles_per_kb = sys_cfg.reduction_cycles_per_kb

        if op is CollectiveOp.NONE:
            plan = []
        else:
            dims = self.topology.dim_sizes(scope)
            plan = build_phase_plan(op, dims, sys_cfg.algorithm)

        chunk_sizes = split_into_chunks(size_bytes, sys_cfg.preferred_set_splits)
        collective = CollectiveSet(
            op=op,
            total_bytes=float(size_bytes),
            plan=plan,
            chunk_sizes=chunk_sizes,
            scope=tuple(scope) if scope is not None else None,
            layer_id=layer_id,
            name=name,
            reduction_cycles_per_kb=reduction_cycles_per_kb,
            set_id=next(self._set_ids),
        )
        ctx = CollectiveContext(
            self.backend,
            endpoint_delay_cycles=sys_cfg.endpoint_delay_cycles,
            reduction_cycles_per_kb=reduction_cycles_per_kb,
            packet_routing=sys_cfg.packet_routing,
            injection_policy=sys_cfg.injection_policy,
            stats_sink=functools.partial(self._record, collective),
        )
        self.sets.append(collective)
        self.scheduler.enqueue_set(collective, ctx)
        return collective

    def request_p2p(self, src: int, dst: int, size_bytes: float,
                    name: str = "") -> P2PTransfer:
        """Issue a chunked point-to-point transfer (pipeline-parallel
        activations etc.), routed over the fabric's minimum-latency path."""
        if self._p2p is None:
            from repro.network.routing import FabricRouter

            self._p2p = P2PEngine(
                self.backend,
                FabricRouter(self.topology.fabric),
                preferred_splits=min(4, self.config.system.preferred_set_splits),
            )
        return self._p2p.send(src, dst, size_bytes, name=name)

    def _record(self, collective: CollectiveSet, phase: int, message) -> None:
        collective.breakdown.record_message(phase, message)

    @property
    def breakdown(self) -> DelayBreakdown:
        """The run's queue/network delay breakdown (Fig. 12b).

        Each message is recorded once, into its set's breakdown; this is
        their exact merge, built on each read, with the ready-queue delays
        in issue order.
        """
        total = DelayBreakdown()
        for collective in self.sets:
            total.merge_from(collective.breakdown)
        total.ready_queue_delays = list(self.scheduler.ready_queue_delays)
        return total

    # -- running -------------------------------------------------------------------------

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Drain the event queue; returns the final simulated time.

        Raises on a drain deadlock (queue empty with collectives still
        outstanding), including a wait-for summary of what never finished;
        with a sanitizer attached, also verifies the runtime conservation
        and barrier invariants at quiescence.
        """
        self.events.run(max_events=max_events)
        if not self.scheduler.idle:
            raise SimulationError(
                f"event queue drained with {self.scheduler.in_flight_count} chunks "
                f"in flight and {self.scheduler.ready_count} ready (deadlock?)\n"
                + self.wait_for_summary()
            )
        if self.resilience is not None:
            self.resilience.finalize()
        if self.sanitizer is not None:
            self.sanitizer.verify_quiescent(self)
        return self.events.now

    def run_until(self, time: float, max_events: Optional[int] = None) -> float:
        self.events.run(until=time, max_events=max_events)
        return self.events.now

    def transport_stats(self):
        """The :class:`repro.system.transport.TransportStats` of this run,
        with the backend's drop counter folded in; ``None`` without a
        reliable transport."""
        if self.transport is None:
            return None
        return self.transport.snapshot_stats()

    def progress_vector(self) -> tuple:
        """A tuple that changes iff the simulation made *real* progress.

        Sampled by the stall watchdog (:mod:`repro.resilience.watchdog`):
        deliveries, issued sets, chunk and set completions all count;
        retransmissions, drops and backoff timers deliberately do not — a
        retry storm against a dead path must read as "no progress".
        """
        return (
            self.backend.messages_delivered,
            self.backend.bytes_delivered,
            len(self.sets),
            sum(c.chunks_done for c in self.sets),
            sum(1 for c in self.sets if c.done),
        )

    def diagnostics(self) -> dict:
        """JSON-serializable snapshot of where the simulation stands.

        The payload of watchdog diagnostic bundles; everything a post-
        mortem needs without the process that hung.
        """
        per_chunk = [
            {
                "label": execution.label,
                "min_phase": execution.current_min_phase + 1,
                "phases": len(execution.plan),
                "nodes_per_phase": list(execution._nodes_in_phase[:-1]),
            }
            for execution in self.scheduler.in_flight.values()
        ]
        transport = self.transport_stats()
        return {
            "time": self.events.now,
            "events_processed": self.events.events_processed,
            "pending_events": self.events.pending,
            "heap_size": self.events.heap_size,
            "progress_vector": list(self.progress_vector()),
            "chunks_ready": self.scheduler.ready_count,
            "chunks_in_flight": per_chunk,
            "sets": [
                {"set_id": s.set_id, "name": s.name, "op": s.op.value,
                 "chunks_done": s.chunks_done, "num_chunks": s.num_chunks}
                for s in self.sets if not s.done
            ],
            "faults": (self.fault_state.snapshot()
                       if self.fault_state is not None else None),
            "transport": transport.as_dict() if transport is not None else None,
        }

    def wait_for_summary(self) -> str:
        """What the simulation is still waiting on — the deadlock report.

        Lists every unfinished collective set with its chunk progress, and
        every in-flight chunk execution with the phase its slowest nodes
        are stuck in (the wait-for relation a drain deadlock needs).
        """
        lines = [
            f"wait-for summary at t={self.events.now:,.0f}: "
            f"{self.scheduler.ready_count} chunks ready, "
            f"{self.scheduler.in_flight_count} in flight"
        ]
        for collective in self.sets:
            if collective.done:
                continue
            lines.append(
                f"  set {collective.set_id} ({collective.name or collective.op.value}): "
                f"{collective.chunks_done}/{collective.num_chunks} chunks done"
            )
        for execution in self.scheduler.in_flight.values():
            phases = len(execution.plan)
            lines.append(
                f"  chunk {execution.label}: waiting in phase "
                f"{execution.current_min_phase + 1}/{phases}, "
                f"nodes per phase {execution._nodes_in_phase[:-1]}"
            )
        return "\n".join(lines)
