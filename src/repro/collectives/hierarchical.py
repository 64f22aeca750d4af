"""Multi-phase hierarchical collective execution (Sec. III-D).

:class:`ChunkExecution` drives one chunk through its phase plan.  Every
phase instantiates per-group algorithm state machines lazily; a node
joins its group's instance in phase *p+1* the moment it finishes its role
in phase *p*, so chunks pipeline across dimensions exactly as the paper's
scheduler intends (different phases use different dedicated links).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.collectives.context import CollectiveContext
from repro.collectives.direct_algorithms import (
    DirectAllGather,
    DirectAllReduce,
    DirectAllToAll,
    DirectReduceScatter,
)
from repro.collectives.ring_algorithms import (
    RingAllGather,
    RingAllReduce,
    RingAllToAll,
    RingReduceScatter,
)
from repro.collectives.types import CollectiveOp, PhaseSpec
from repro.errors import CollectiveError
from repro.network.channel import RingChannel, SwitchChannel
from repro.network.physical.fabric import Fabric

_RING_ALGORITHMS = {
    CollectiveOp.REDUCE_SCATTER: RingReduceScatter,
    CollectiveOp.ALL_GATHER: RingAllGather,
    CollectiveOp.ALL_REDUCE: RingAllReduce,
    CollectiveOp.ALL_TO_ALL: RingAllToAll,
}

_DIRECT_ALGORITHMS = {
    CollectiveOp.REDUCE_SCATTER: DirectReduceScatter,
    CollectiveOp.ALL_GATHER: DirectAllGather,
    CollectiveOp.ALL_REDUCE: DirectAllReduce,
    CollectiveOp.ALL_TO_ALL: DirectAllToAll,
}


class ChunkExecution:
    """One chunk's journey through a multi-phase collective plan.

    ``chunk_index`` selects the dedicated channel within each phase (the
    LSQ the chunk is assigned to): ring phases use ring
    ``chunk_index % num_rings``; switch phases offset the per-peer switch
    spread by the same index.
    """

    def __init__(
        self,
        ctx: CollectiveContext,
        fabric: Fabric,
        plan: list[PhaseSpec],
        chunk_bytes: float,
        chunk_index: int = 0,
        on_done: Optional[Callable[["ChunkExecution"], None]] = None,
        on_phase_done: Optional[Callable[[int, int], None]] = None,
        label: str = "chunk",
    ):
        if chunk_bytes <= 0:
            raise CollectiveError(f"chunk size must be positive: {chunk_bytes}")
        self.ctx = ctx
        self.fabric = fabric
        self.plan = list(plan)
        self.chunk_bytes = float(chunk_bytes)
        self.chunk_index = chunk_index
        self.on_done = on_done
        self.on_phase_done = on_phase_done
        self.label = label

        self.nodes = list(range(fabric.num_npus))
        self._instances: dict[tuple[int, tuple], object] = {}
        self._finished_nodes = 0
        self._nodes_in_phase: list[int] = [0] * (len(self.plan) + 1)
        self._nodes_left_phase: list[int] = [0] * (len(self.plan) + 1)
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Per-phase [start, end] timestamps (end None while running),
        #: feeding the timeline/trace tooling.
        self.phase_spans: list[list[Optional[float]]] = [
            [None, None] for _ in self.plan
        ]

    # -- public ------------------------------------------------------------------

    def start(self) -> None:
        """All nodes enter phase 0 now (the chunk leaves the ready queue)."""
        if self.started_at is not None:
            raise CollectiveError(f"{self.label} started twice")
        self.started_at = self.ctx.now
        if not self.plan:
            self.finished_at = self.ctx.now
            if self.on_done is not None:
                self.ctx.after(0.0, lambda: self.on_done(self))
            return
        for node in self.nodes:
            self._enter_phase(node, 0)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def phase_of(self, node_count_phase: int) -> int:
        """Number of nodes currently executing ``node_count_phase``."""
        return self._nodes_in_phase[node_count_phase]

    @property
    def current_min_phase(self) -> int:
        """The earliest phase any node is still in (len(plan) when done)."""
        for p, count in enumerate(self._nodes_in_phase[:-1]):
            if count > 0:
                return p
        return len(self.plan)

    # -- internals ---------------------------------------------------------------

    def _enter_phase(self, node: int, phase_idx: int) -> None:
        self._nodes_in_phase[phase_idx] += 1
        if self.phase_spans[phase_idx][0] is None:
            self.phase_spans[phase_idx][0] = self.ctx.now
        instance = self._instance_for(node, phase_idx)
        instance.start_node(node)

    def _leave_phase(self, node: int, phase_idx: int) -> None:
        self._nodes_in_phase[phase_idx] -= 1
        self._nodes_left_phase[phase_idx] += 1
        if self._nodes_left_phase[phase_idx] == len(self.nodes):
            # Every node has passed through this phase (a transient zero
            # while slow groups are still upstream does not count).
            self.phase_spans[phase_idx][1] = self.ctx.now
            if self.on_phase_done is not None:
                self.on_phase_done(self.chunk_index, phase_idx)
        next_idx = phase_idx + 1
        if next_idx < len(self.plan):
            self._enter_phase(node, next_idx)
        else:
            self._finished_nodes += 1
            if self._finished_nodes == len(self.nodes):
                self.finished_at = self.ctx.now
                if self.on_done is not None:
                    self.on_done(self)

    def _instance_for(self, node: int, phase_idx: int):
        spec = self.plan[phase_idx]
        group = self.fabric.group_of(spec.dim, node)
        key = (phase_idx, group)
        instance = self._instances.get(key)
        if instance is None:
            instance = self._build_instance(spec, group, phase_idx)
            self._instances[key] = instance
        return instance

    def _build_instance(self, spec: PhaseSpec, group: tuple, phase_idx: int):
        channels = self.fabric.channels_for(spec.dim, group)
        size = self.chunk_bytes * spec.size_fraction
        on_node_done = lambda n, p=phase_idx: self._leave_phase(n, p)  # noqa: E731
        # The instance's callbacks point back at this execution; dropping
        # the finished instance breaks that cycle, so reference counting
        # frees the phase's state without the cyclic garbage collector.
        on_all_done = lambda key=(phase_idx, group): self._instances.pop(key)  # noqa: E731
        label = f"{self.label}/p{phase_idx + 1}:{spec.op.value}@{spec.dim}"
        # Failure context propagated into the phase's algorithm: when a
        # mid-phase link dies for good, the CollectiveError names the phase
        # and dimension of the multi-phase plan, not just the group.
        fail_context = (
            f"phase {phase_idx + 1}/{len(self.plan)} "
            f"({spec.op.value} over {spec.dim.name}) of {self.label}"
        )

        from repro.topology.mapping import MappedRingChannel

        first = channels[0]
        if isinstance(first, (RingChannel, MappedRingChannel)):
            ring = channels[self.chunk_index % len(channels)]
            algorithm = _RING_ALGORITHMS[spec.op]
            instance = algorithm(
                self.ctx, ring, size,
                on_node_done=on_node_done,
                on_all_done=on_all_done,
                phase_index=phase_idx + 1,
                label=label,
            )
        elif isinstance(first, SwitchChannel):
            nodes = self._alltoall_group_nodes(group)
            algorithm = _DIRECT_ALGORITHMS[spec.op]
            instance = algorithm(
                self.ctx, nodes, channels, size,
                on_node_done=on_node_done,
                on_all_done=on_all_done,
                phase_index=phase_idx + 1,
                lsq_offset=self.chunk_index,
                label=label,
            )
        else:
            raise CollectiveError(f"unsupported channel type {type(first)!r}")
        instance.fail_context = fail_context
        return instance

    def _alltoall_group_nodes(self, group: tuple) -> list[int]:
        """Members of an alltoall-dimension group, in package order (the
        NPUs with the same local index across all packages)."""
        from repro.dims import Dimension

        return [
            n for n in self.nodes
            if self.fabric.group_of(Dimension.ALLTOALL, n) == group
        ]
