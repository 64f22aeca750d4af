"""Execution context shared by collective algorithm instances.

Bundles the network backend with the system-layer constants every
algorithm needs (endpoint delay, local-reduction rate, routing mode) and
a stats sink used to build the Fig. 12b / Fig. 16 queue-vs-network delay
breakdowns.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Optional

from repro.config.parameters import InjectionPolicy, PacketRouting
from repro.errors import CollectiveError
from repro.network.api import NetworkBackend
from repro.network.link import Link
from repro.network.message import Message


#: Samples a :class:`PhaseStats` buffer holds before it is folded.  A
#: fold leaves at most ~40 terms (the double exponent range over 53-bit
#: terms), so the buffers stay below this size.
FOLD_SIZE = 4096


def fold_exact(buffer: array) -> array:
    """The few floats whose exact sum equals the exact sum of ``buffer``.

    Each term is the correctly rounded remainder of what the terms before
    it left over (``fsum`` is exact, rounded once), so the loop ends
    within a handful of rounds and :func:`math.fsum` over the terms plus
    any later samples equals ``fsum`` over every sample ever added.
    ``buffer`` is consumed.
    """
    terms = array("d")
    total = math.fsum(buffer)
    while total != 0.0:
        terms.append(total)
        if not math.isfinite(total):
            break  # an inf/nan sample: fsum's answer stays that from here on
        buffer.append(-total)
        total = math.fsum(buffer)
    return terms


class PhaseStats:
    """Accumulated message timing for one phase index across a run.

    Totals are exact sums rounded once (:func:`math.fsum`), so they are
    bit-identical no matter what order messages were recorded or merged
    in.  An incrementally rounded ``+=`` would drift in the last ulp
    whenever delivery order is perturbed (parallel execution, schedule
    tie permutation — see docs/DETERMINISM.md).

    Memory stays bounded: samples are appended to unboxed ``array('d')``
    buffers (invisible to the cyclic garbage collector), and every
    :data:`FOLD_SIZE` samples each buffer is folded by :func:`fold_exact`
    into a few floats with the same exact sum.
    """

    __slots__ = ("messages", "_queue", "_network", "_bytes")

    def __init__(self) -> None:
        self.messages = 0
        # Three buffers of equal length (folding pads with zeros), so
        # record() has a single length to check.
        self._queue = array("d")
        self._network = array("d")
        self._bytes = array("d")

    def record(self, message: Message) -> None:
        self.messages += 1
        self._queue.append(message.queueing_cycles)
        self._network.append(message.network_cycles)
        self._bytes.append(message.size_bytes)
        if len(self._bytes) >= FOLD_SIZE:
            self._fold()

    def _fold(self) -> None:
        folded = [fold_exact(b) for b in (self._queue, self._network, self._bytes)]
        width = max(map(len, folded))
        for terms in folded:
            terms.extend([0.0] * (width - len(terms)))
        self._queue, self._network, self._bytes = folded

    @property
    def queue_cycles(self) -> float:
        return math.fsum(self._queue)

    @property
    def network_cycles(self) -> float:
        return math.fsum(self._network)

    @property
    def bytes(self) -> float:
        return math.fsum(self._bytes)

    @property
    def mean_queue_cycles(self) -> float:
        return self.queue_cycles / self.messages if self.messages else 0.0

    @property
    def mean_network_cycles(self) -> float:
        return self.network_cycles / self.messages if self.messages else 0.0

    def merge_from(self, other: "PhaseStats") -> None:
        """Fold another phase's samples in (order-invariant: the merged
        totals are the exact sums over the union of samples)."""
        self.messages += other.messages
        self._queue.extend(other._queue)
        self._network.extend(other._network)
        self._bytes.extend(other._bytes)
        if len(self._bytes) >= FOLD_SIZE:
            self._fold()

    def as_dict(self) -> dict:
        """JSON-serializable form (run-cache payloads, bench reports)."""
        return {
            "messages": self.messages,
            "queue_cycles": self.queue_cycles,
            "network_cycles": self.network_cycles,
            "bytes": self.bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseStats":
        stats = cls()
        stats.messages = int(data["messages"])
        stats._queue.append(float(data["queue_cycles"]))
        stats._network.append(float(data["network_cycles"]))
        stats._bytes.append(float(data["bytes"]))
        return stats


class CollectiveContext:
    """Wiring between collective state machines and the platform.

    ``reduction_cycles_per_kb`` is the layer's "local update time" from the
    workload file (Fig. 8): the average cycles to reduce 1 KB of received
    data.  ``endpoint_delay`` is Table III #13.
    """

    def __init__(
        self,
        backend: NetworkBackend,
        endpoint_delay_cycles: float = 10.0,
        reduction_cycles_per_kb: float = 1.0,
        packet_routing: PacketRouting = PacketRouting.SOFTWARE,
        injection_policy: InjectionPolicy = InjectionPolicy.NORMAL,
        stats_sink: Optional[Callable[[int, Message], None]] = None,
    ):
        if endpoint_delay_cycles < 0:
            raise CollectiveError("endpoint delay must be >= 0")
        if reduction_cycles_per_kb < 0:
            raise CollectiveError("reduction rate must be >= 0")
        self.backend = backend
        #: The backend's runtime sanitizer (None unless --sanitize); state
        #: machines hand it to their CountdownBarriers for arrival checking.
        self.sanitizer = backend.sanitizer
        self.endpoint_delay_cycles = endpoint_delay_cycles
        self.reduction_cycles_per_kb = reduction_cycles_per_kb
        self.packet_routing = packet_routing
        self.injection_policy = injection_policy
        self.stats_sink = stats_sink

    @property
    def now(self) -> float:
        return self.backend.now

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        self.backend.schedule(delay, callback)

    def reduction_cycles(self, size_bytes: float) -> float:
        """Local-reduction delay for ``size_bytes`` of received data."""
        return self.reduction_cycles_per_kb * size_bytes / 1024.0

    @property
    def reliable(self) -> bool:
        """Whether the backend reports delivery failures (reliable transport)."""
        return getattr(self.backend, "supports_failure_callback", False)

    def send(
        self,
        src: int,
        dst: int,
        size_bytes: float,
        path: list[Link],
        tag: object,
        on_delivered: Callable[[Message], None],
        phase_index: int = 0,
        on_failed: Optional[Callable] = None,
    ) -> Message:
        """Inject one message and record its timing under ``phase_index``.

        ``on_failed`` receives a :class:`repro.system.transport.TransportFailure`
        when the reliable transport exhausts its retry budget; it is only
        honored when the backend supports failure reporting (a raw backend
        never reports loss — an undeliverable message simply deadlocks the
        run, surfaced by the wait-for summary).
        """
        message = Message(src=src, dst=dst, size_bytes=size_bytes, tag=tag)

        def delivered(msg: Message) -> None:
            if self.stats_sink is not None:
                self.stats_sink(phase_index, msg)
            on_delivered(msg)

        if on_failed is not None and self.reliable:
            self.backend.send(message, path, delivered, on_failed=on_failed)
        else:
            self.backend.send(message, path, delivered)
        return message
