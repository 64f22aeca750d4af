"""Discrete-event simulation engine.

ASTRA-SIM uses an event-driven execution model with a single event queue
implemented in the system layer and exposed upwards to the workload layer
(Sec. IV of the paper).  This module provides that queue — since the
PR 10 perf work, an *adaptive calendar queue*:

* Small populations run on a plain binary heap (``heapq`` compares plain
  ``(time, tiebreak, seq)`` tuples entirely in C — unbeatable below a
  couple thousand pending events).
* Once the live population crosses :attr:`EventQueue.CALENDAR_MIN_PENDING`
  the queue upgrades itself to a bucketed calendar: events land in
  power-of-two-wide time buckets (a sparse dict keyed by
  ``int(time * 2**-width_exp)``), a small min-heap of occupied bucket
  indices finds the next non-empty bucket in O(log #buckets) — the
  *idle-gap fast-forward*: a quiescent stretch of simulated time costs
  one index-heap pop no matter how many empty buckets it spans — and
  each bucket is sorted lazily when it becomes the drain target.  The
  bucket width is auto-tuned from the observed spacing of queued event
  times and re-tuned from drain-side occupancy feedback.
* Events beyond :attr:`EventQueue.CALENDAR_SPAN` buckets in the future
  sit in an *overflow* heap and migrate into buckets as the calendar
  advances; distributions the calendar cannot bucket efficiently
  (occupancy pinned at ~1 event/bucket after repeated retunes) fall
  back to the plain heap for the rest of the run.

The executed event order is ``(time, tiebreak, seq)`` in every mode and
across every mode switch, retune and compaction — the structures differ,
the schedule does not (see docs/DETERMINISM.md).

Time is kept in floating-point *cycles*.  The mapping between cycles and
wall-clock seconds is owned by the configuration layer (``ClockConfig``),
not by the engine.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import insort
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import SimulationError

EventCallback = Callable[[], None]


@dataclass(slots=True)
class _ScheduledEvent:
    """Mutable per-event state (cancellation, fired flag).

    The queue's structures store plain ``(time, tiebreak, seq, event)``
    tuples — heapq and ``list.sort`` then compare entries entirely in C
    (the ``seq`` field is unique, so the event object in slot 3 is never
    reached by a comparison), which is the engine's single hottest code
    path.  The ordering semantics: events scheduled for the same time
    fire in the order they were scheduled (deterministic FIFO tie-break);
    ``tiebreak`` is 0 unless a :attr:`EventQueue.tie_breaker` hook is
    installed, in which case it permutes the drain order of
    same-timestamp events (the schedule-perturbation race detector,
    :mod:`repro.sanitize.schedule`).  ``slots=True``: millions of these
    live in the queue of a long run, and the hot loop touches
    ``.time``/``.cancelled`` on every pop.
    """

    time: float
    tiebreak: int
    seq: int
    callback: EventCallback
    cancelled: bool = False
    fired: bool = False


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`; allows cancellation."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: _ScheduledEvent, queue: "EventQueue"):
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """The simulated time at which the event will fire."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def fired(self) -> bool:
        """Whether the event has already executed."""
        return self._event.fired

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; lazy removal.

        Cancelling an event that already fired is a no-op: the event is no
        longer queued, so counting it as cancelled-in-queue would skew
        :attr:`EventQueue.pending` permanently (the transport layer cancels
        delivery timers that may have just fired).
        """
        if not self._event.cancelled and not self._event.fired:
            self._event.cancelled = True
            self._queue._note_cancel()


class EventQueue:
    """A deterministic discrete-event queue.

    >>> q = EventQueue()
    >>> fired = []
    >>> _ = q.schedule_at(5.0, lambda: fired.append("a"))
    >>> _ = q.schedule_at(2.0, lambda: fired.append("b"))
    >>> q.run()
    >>> fired
    ['b', 'a']
    """

    #: Lazy-removal compaction: once at least this many cancelled entries
    #: sit in the queue *and* they outnumber the live ones, the structures
    #: are rebuilt without them.  Long fuzz runs under the reliable
    #: transport cancel one delivery timer per message and would otherwise
    #: grow the queue without bound.
    COMPACT_MIN_CANCELLED = 1024

    #: Live population at which the plain binary heap upgrades to the
    #: calendar.  Below this, C-implemented heapq wins outright; above it
    #: the O(1) bucket append beats the O(log n) sift.  Tests force
    #: calendar mode by lowering this on an instance.
    CALENDAR_MIN_PENDING = 2048

    #: Bucket-width tuning: the initial width targets this many queued
    #: events per bucket, derived from the observed mean spacing of
    #: queued event times at upgrade.
    TARGET_OCCUPANCY = 8
    #: Drain-side occupancy feedback band: measured events-per-drained-
    #: bucket outside [lo, hi] triggers a power-of-two width retune.
    OCCUPANCY_LO = 2.0
    OCCUPANCY_HI = 64.0
    #: Executed events between occupancy evaluations.
    RETUNE_EVERY = 8192
    #: Retunes allowed before the distribution is declared degenerate and
    #: the queue falls back to the plain heap for the rest of the run.
    MAX_RETUNES = 8
    #: Buckets the calendar covers ahead of its earliest event; events
    #: landing past the horizon go to the overflow heap and migrate in as
    #: the calendar advances.  Buckets are a sparse dict, so an empty
    #: bucket costs nothing — the span is generous and overflow only
    #: catches genuinely far-future events (watchdog deadlines, timeout
    #: guards), keeping the bucket-index heap small even for those.
    CALENDAR_SPAN = 1 << 20
    #: Power-of-two bucket width bounds (2**exp cycles).
    MIN_WIDTH_EXP = -24
    MAX_WIDTH_EXP = 40

    def __init__(self) -> None:
        # Heap mode (the boot mode): plain (time, tiebreak, seq, event)
        # tuples under heapq — identical to the pre-calendar engine.
        self._heap: list[tuple[float, int, int, _ScheduledEvent]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._batched_events = 0
        self._running = False
        self._cancelled_in_heap = 0
        self._compactions = 0
        #: Entries currently stored (live + lazily-cancelled), all modes.
        self._size = 0
        # Calendar mode state.
        self._calendar = False
        self._calendar_banned = False
        self._buckets: dict[int, list] = {}
        self._bucket_heap: list[int] = []
        self._cur_list: Optional[list] = None
        self._cur_pos = 0
        self._cur_index = 0
        self._cur_seen = False
        self._overflow: list[tuple[float, int, int, _ScheduledEvent]] = []
        self._ovf_limit = 0
        self._width_exp = 0
        self._inv_width = 1.0
        self._retune_mark = 0
        self._buckets_window = 0
        self._retunes = 0
        self._fast_forwards = 0
        self._buckets_skipped = 0
        #: Optional progress observer (see :mod:`repro.resilience`): called
        #: as ``watcher(queue)`` after every executed event.  ``None`` (the
        #: default) keeps the hot loop branch-predictable and the simulated
        #: schedule untouched — watchers observe, they never inject events.
        #: Batched handlers (delivery coalescing, link drains) count as one
        #: executed event, so the watcher fires once per *dispatch*; the
        #: work they covered is visible through :attr:`events_simulated`.
        self.watcher: Optional[Callable[["EventQueue"], None]] = None
        #: Optional same-timestamp permutation hook (see
        #: :mod:`repro.sanitize.schedule`): called as ``tie_breaker(time,
        #: seq)`` at schedule time, and the returned rank is ordered
        #: *between* time and the FIFO sequence number.  ``None`` (the
        #: default) ranks every event 0, i.e. plain FIFO — the production
        #: schedule.  A correct simulation must produce bit-identical
        #: results under any tie-break permutation; the race detector
        #: installs seeded permutations here to prove it.
        self.tie_breaker: Optional[Callable[[float, int], int]] = None

    # -- introspection ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of event-queue dispatches executed so far."""
        return self._events_processed

    @property
    def batched_events(self) -> int:
        """Logical events folded into batched dispatches (see
        :meth:`credit_batched`)."""
        return self._batched_events

    @property
    def events_simulated(self) -> int:
        """Total logical events simulated: dispatches plus the per-flit /
        per-message events that batched handlers covered in bulk.  This is
        the throughput numerator profiling reports (events/sec) — it keeps
        the figure comparable across batched and unbatched engines, which
        simulate the same logical work in different numbers of dispatches.
        """
        return self._events_processed + self._batched_events

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events still in the queue."""
        return self._size - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Raw stored population, including lazily-removed cancelled
        events, across heap, calendar buckets and overflow."""
        return self._size

    @property
    def compactions(self) -> int:
        """How many times the structures were compacted (dead entries
        purged)."""
        return self._compactions

    @property
    def calendar_active(self) -> bool:
        """Whether the queue is currently in calendar (bucketed) mode."""
        return self._calendar

    @property
    def bucket_width(self) -> float:
        """Current calendar bucket width in cycles (2**width_exp)."""
        return 2.0 ** self._width_exp

    @property
    def fast_forwards(self) -> int:
        """Idle gaps jumped: times the drain advanced past at least one
        empty bucket in a single index-heap pop."""
        return self._fast_forwards

    @property
    def buckets_skipped(self) -> int:
        """Total empty buckets jumped over by fast-forwards."""
        return self._buckets_skipped

    def credit_batched(self, count: int) -> None:
        """Record that the current dispatch covered ``count`` additional
        logical events (a batched handler standing in for ``count``
        singleton dispatches).  Feeds :attr:`events_simulated` only —
        ``events_processed``, watcher cadence and ``max_events`` keep
        counting real dispatches.
        """
        self._batched_events += count

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` when drained.

        Peeking drops lazily-cancelled heads but executes nothing; the
        gap ``next_event_time() - now`` is what the calendar fast-forward
        jumps in one step.
        """
        event = self._peek_live()
        return event.time if event is not None else None

    def live_count(self) -> int:
        """Recount live (non-cancelled) entries in O(n).

        Ground truth for :attr:`pending`, which is maintained incrementally;
        the runtime sanitizer compares the two at quiescence (a drift means
        a cancellation was double-counted or lost).
        """
        return sum(1 for entry in self._entries() if not entry[3].cancelled)

    def _entries(self):
        """Iterate every stored entry tuple, across modes (O(n) audits)."""
        if not self._calendar:
            yield from self._heap
            return
        if self._cur_list is not None:
            yield from self._cur_list[self._cur_pos:]
        for bucket in self._buckets.values():
            yield from bucket
        yield from self._overflow

    # -- cancellation / compaction ---------------------------------------------

    def _note_cancel(self) -> None:
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= self.COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap * 2 > self._size):
            self.compact()

    def compact(self) -> None:
        """Rebuild the structures without cancelled entries.

        Drain order is (time, tiebreak, seq); all three survive compaction
        unchanged, so the executed event sequence — and therefore the
        simulation — is byte-for-byte identical with or without
        compaction.

        In heap mode the heap list is mutated *in place* (slice
        assignment): a compaction triggered from inside an event callback
        must be visible to the running drain loop.  In calendar mode every
        bucket, the current bucket's unsorted remainder, and the overflow
        heap are filtered individually — positions survive because the
        current bucket is re-anchored at offset zero.
        """
        if self._cancelled_in_heap == 0:
            return
        if not self._calendar:
            self._heap[:] = [e for e in self._heap if not e[3].cancelled]
            heapq.heapify(self._heap)
            self._size = len(self._heap)
        else:
            size = 0
            if self._cur_list is not None:
                self._cur_list = [e for e in self._cur_list[self._cur_pos:]
                                  if not e[3].cancelled]
                self._cur_pos = 0
                size += len(self._cur_list)
            buckets = {}
            for idx, bucket in self._buckets.items():
                live = [e for e in bucket if not e[3].cancelled]
                if live:
                    buckets[idx] = live
                    size += len(live)
            self._buckets = buckets
            self._bucket_heap = list(buckets.keys())
            heapq.heapify(self._bucket_heap)
            self._overflow = [e for e in self._overflow if not e[3].cancelled]
            heapq.heapify(self._overflow)
            size += len(self._overflow)
            self._size = size
        self._cancelled_in_heap = 0
        self._compactions += 1

    # -- calendar management ---------------------------------------------------

    def _set_width(self, exp: int) -> None:
        self._width_exp = exp
        # Powers of two scale floats exactly, so int(time * inv_width) is
        # monotonic in time — the min occupied bucket always holds the min
        # event, whatever the width.
        self._inv_width = 2.0 ** -exp

    def _choose_width_exp(self, entries: list) -> int:
        """Initial width from the observed spacing of queued event times:
        span / population is the mean inter-event delta of everything
        queued right now; one bucket should hold ~TARGET_OCCUPANCY of
        them."""
        times = [e[0] for e in entries if not e[3].cancelled]
        if not times:
            return 0
        span = max(times) - self._now
        spacing = span / len(times)
        # Floor: the whole queued population must fit inside the
        # CALENDAR_SPAN horizon at upgrade, otherwise the overflow heap
        # would churn the bulk of the entries and the calendar would just
        # be a slower heap.
        width = max(spacing * self.TARGET_OCCUPANCY, span / self.CALENDAR_SPAN)
        if width <= 0.0:
            return self.MIN_WIDTH_EXP
        exp = math.frexp(width)[1]
        return max(self.MIN_WIDTH_EXP, min(self.MAX_WIDTH_EXP, exp))

    def _rebucket(self, entries: list) -> None:
        """Distribute ``entries`` over fresh buckets/overflow at the
        current width.  Bookkeeping counters are untouched: lazily
        cancelled entries are redistributed as-is."""
        self._buckets = {}
        self._bucket_heap = []
        self._overflow = []
        self._cur_list = None
        self._cur_pos = 0
        self._cur_seen = False
        inv = self._inv_width
        if not entries:
            self._ovf_limit = int(self._now * inv) + self.CALENDAR_SPAN
            return
        base = min(int(e[0] * inv) for e in entries)
        limit = base + self.CALENDAR_SPAN
        self._ovf_limit = limit
        buckets = self._buckets
        overflow = self._overflow
        for entry in entries:
            idx = int(entry[0] * inv)
            if idx >= limit:
                overflow.append(entry)
            else:
                bucket = buckets.get(idx)
                if bucket is None:
                    buckets[idx] = [entry]
                else:
                    bucket.append(entry)
        heapq.heapify(overflow)
        self._bucket_heap = list(buckets.keys())
        heapq.heapify(self._bucket_heap)

    def _enable_calendar(self) -> None:
        entries = self._heap
        self._heap = []
        self._calendar = True
        self._set_width(self._choose_width_exp(entries))
        self._retune_mark = self._events_processed
        self._buckets_window = 0
        self._rebucket(entries)

    def _disable_calendar(self, ban: bool) -> None:
        entries = list(self._entries())
        self._calendar = False
        if ban:
            self._calendar_banned = True
        self._buckets = {}
        self._bucket_heap = []
        self._cur_list = None
        self._cur_pos = 0
        self._cur_seen = False
        self._overflow = []
        self._heap = entries
        heapq.heapify(self._heap)

    def _maybe_retune(self) -> None:
        """Occupancy feedback: widen/narrow the bucket width by 4x when
        drained buckets run emptier/fuller than the band allows; ban the
        calendar for this run when retuning cannot fix it (degenerate
        distribution)."""
        pops = self._events_processed - self._retune_mark
        drained = self._buckets_window
        self._retune_mark = self._events_processed
        self._buckets_window = 0
        if drained == 0:
            return
        occupancy = pops / drained
        if self.OCCUPANCY_LO <= occupancy <= self.OCCUPANCY_HI:
            return
        self._retunes += 1
        step = 2 if occupancy < self.OCCUPANCY_LO else -2
        exp = self._width_exp + step
        if self._retunes > self.MAX_RETUNES or not (
                self.MIN_WIDTH_EXP <= exp <= self.MAX_WIDTH_EXP):
            self._disable_calendar(ban=True)
            return
        self._set_width(exp)
        self._rebucket(list(self._entries()))

    def _park_current(self) -> None:
        """Return the current bucket's unsorted remainder to the dict:
        a bucket with a smaller index appeared (run(until=...) left
        ``now`` below the bucket's start, then something scheduled into
        the gap)."""
        remainder = self._cur_list[self._cur_pos:]
        self._cur_list = None
        self._cur_pos = 0
        if remainder:
            self._buckets[self._cur_index] = remainder
            heapq.heappush(self._bucket_heap, self._cur_index)

    def _migrate_overflow(self) -> None:
        """Pull far-future entries into buckets now that the calendar has
        drained up to the overflow horizon."""
        overflow = self._overflow
        inv = self._inv_width
        limit = int(overflow[0][0] * inv) + self.CALENDAR_SPAN
        self._ovf_limit = limit
        buckets = self._buckets
        bucket_heap = self._bucket_heap
        # One linear partition beats heappop-per-entry: a migration moves
        # a whole span's worth of entries at once and happens only when
        # the calendar has fully drained up to the horizon.
        keep = []
        for entry in overflow:
            idx = int(entry[0] * inv)
            if idx >= limit:
                keep.append(entry)
                continue
            bucket = buckets.get(idx)
            if bucket is None:
                buckets[idx] = [entry]
                heapq.heappush(bucket_heap, idx)
            else:
                bucket.append(entry)
        heapq.heapify(keep)
        self._overflow = keep

    def _next_bucket(self) -> bool:
        """Advance the drain target to the next occupied bucket.

        This is the idle-gap fast-forward: the index min-heap jumps
        straight to the next occupied bucket, so a quiescent stretch of
        simulated time costs one heap pop no matter how many empty
        buckets it spans.  Nothing is skipped — fault-schedule flips,
        watchdog deadlines and checkpoint timers are scheduled events
        sitting in buckets of their own, and watchers fire per executed
        event exactly as before (the gap boundaries).
        """
        bucket_heap = self._bucket_heap
        while True:
            if bucket_heap:
                if self._events_processed - self._retune_mark >= self.RETUNE_EVERY:
                    self._maybe_retune()
                    if not self._calendar:
                        return False
                    bucket_heap = self._bucket_heap
                    if not bucket_heap:
                        continue
                idx = heapq.heappop(bucket_heap)
                bucket = self._buckets.pop(idx, None)
                if bucket is None:  # pragma: no cover - defensive
                    continue
                if self._cur_seen and idx > self._cur_index + 1:
                    self._fast_forwards += 1
                    self._buckets_skipped += idx - self._cur_index - 1
                bucket.sort()
                self._cur_list = bucket
                self._cur_pos = 0
                self._cur_index = idx
                self._cur_seen = True
                self._buckets_window += 1
                return True
            if self._overflow:
                self._migrate_overflow()
                continue
            return False

    # -- scheduling ------------------------------------------------------------

    def schedule_at(self, time: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to fire at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = next(self._seq)
        tie_breaker = self.tie_breaker
        tiebreak = 0 if tie_breaker is None else tie_breaker(time, seq)
        event = _ScheduledEvent(time=time, tiebreak=tiebreak, seq=seq,
                                callback=callback)
        entry = (time, tiebreak, seq, event)
        self._size += 1
        if not self._calendar:
            # Upgrading to the calendar is a *drain-side* decision (see
            # _peek_live): deferring it past a burst of scheduling means
            # the bucket width is chosen with the whole population
            # visible, not the first few thousand entries.
            heapq.heappush(self._heap, entry)
        else:
            idx = int(time * self._inv_width)
            if idx >= self._ovf_limit:
                heapq.heappush(self._overflow, entry)
            elif self._cur_list is not None and idx == self._cur_index:
                # Into the bucket being drained: keep the undrained suffix
                # sorted (events already executed live before _cur_pos and
                # must not move).
                insort(self._cur_list, entry, self._cur_pos)
            else:
                bucket = self._buckets.get(idx)
                if bucket is None:
                    self._buckets[idx] = [entry]
                    heapq.heappush(self._bucket_heap, idx)
                else:
                    bucket.append(entry)
        return EventHandle(event, self)

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback)

    # -- draining --------------------------------------------------------------

    def _peek_live(self) -> Optional[_ScheduledEvent]:
        """The next live event, dropping cancelled heads along the way.

        The *only* place cancelled entries leave the structures outside
        :meth:`compact` — :meth:`step` and :meth:`run` both pop through
        here, so the ``pending``/compaction bookkeeping cannot drift
        between the two drain paths.  The returned event is left queued
        (callers commit via :meth:`_pop_live` or the inlined run loop).
        """
        if not self._calendar:
            if (not self._calendar_banned
                    and self._size - self._cancelled_in_heap
                    >= self.CALENDAR_MIN_PENDING):
                self._enable_calendar()
                return self._peek_live()
            heap = self._heap
            pop = heapq.heappop
            dropped = 0
            while heap:
                head = heap[0][3]
                if not head.cancelled:
                    if dropped:
                        self._cancelled_in_heap -= dropped
                        self._size -= dropped
                    return head
                pop(heap)
                dropped += 1
            if dropped:
                self._cancelled_in_heap -= dropped
                self._size -= dropped
            return None
        while True:
            lst = self._cur_list
            if lst is not None:
                bucket_heap = self._bucket_heap
                if bucket_heap and bucket_heap[0] < self._cur_index:
                    self._park_current()
                    continue
                pos = self._cur_pos
                n = len(lst)
                while pos < n:
                    event = lst[pos][3]
                    if not event.cancelled:
                        self._cur_pos = pos
                        return event
                    pos += 1
                    self._cancelled_in_heap -= 1
                    self._size -= 1
                self._cur_pos = pos
                self._cur_list = None
                continue
            if not self._next_bucket():
                if not self._calendar:
                    # A retune mid-advance declared the distribution
                    # degenerate and fell back to the heap.
                    return self._peek_live()
                return None

    def _pop_live(self) -> Optional[_ScheduledEvent]:
        """Commit and return the next live event (peek + pop in one)."""
        event = self._peek_live()
        if event is None:
            return None
        if not self._calendar:
            heapq.heappop(self._heap)
        else:
            self._cur_pos += 1
        self._size -= 1
        return event

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty (or contained only cancelled events).

        Events scheduled *at* the current time from within a handler are
        pushed with a fresh FIFO sequence number and therefore execute in
        the same drain pass, after everything already scheduled for that
        timestamp — a fault-schedule flip (e.g. ``link_down``) racing an
        in-flight send at the same cycle resolves in schedule order,
        deterministically.
        """
        event = self._pop_live()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.fired = True
        event.callback()
        if self.watcher is not None:
            self.watcher(self)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an inclusive horizon: events at exactly ``until`` fire,
        including events a handler schedules at ``until`` while it runs.
        ``max_events`` guards against runaway simulations (it counts
        dispatches, not batched logical events).
        """
        if self._running:
            raise SimulationError("EventQueue.run() is not re-entrant")
        self._running = True
        executed = 0
        peek_live = self._peek_live
        try:
            if type(self).step is not EventQueue.step:
                # A subclass instrumented the per-event path (e.g. the
                # runtime sanitizer's time-travel/livelock checks); route
                # every execution through its step() override instead of
                # the inlined fast loop below.
                step = self.step
                while True:
                    head = peek_live()
                    if head is None:
                        return
                    if until is not None and head.time > until:
                        self._now = max(self._now, until)
                        return
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} (possible livelock)"
                        )
                    step()
                    executed += 1
            # Hot loop.  The mode flag is re-dispatched every bucket (and
            # every event in heap mode) because a callback's schedule_at
            # can upgrade heap -> calendar (and a retune can fall back)
            # mid-run.  In calendar mode the current bucket is drained
            # inline — one _peek_live call per *bucket*, not per event;
            # the only mid-bucket hazards are cancellation (the flag
            # check), same-bucket scheduling (in-place insort: re-read
            # len) and compaction/retune (both replace the list object:
            # the identity check drops back to the dispatcher).
            heappop = heapq.heappop
            while True:
                if not self._calendar:
                    head = peek_live()
                    if head is None:
                        return
                    if self._calendar:
                        continue
                    t = head.time
                    if until is not None and t > until:
                        # Never rewind: run(until=past) must not move time
                        # back.
                        self._now = max(self._now, until)
                        return
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} (possible livelock)"
                        )
                    heappop(self._heap)
                    self._size -= 1
                    self._now = t
                    self._events_processed += 1
                    head.fired = True
                    head.callback()
                    watcher = self.watcher
                    if watcher is not None:
                        watcher(self)
                    executed += 1
                    continue
                lst = self._cur_list
                if lst is None or (self._bucket_heap
                                   and self._bucket_heap[0] < self._cur_index):
                    if peek_live() is None:
                        return
                    continue
                pos = self._cur_pos
                n = len(lst)
                while pos < n:
                    entry = lst[pos]
                    head = entry[3]
                    if head.cancelled:
                        pos += 1
                        self._cancelled_in_heap -= 1
                        self._size -= 1
                        continue
                    t = entry[0]
                    if until is not None and t > until:
                        self._cur_pos = pos
                        self._now = max(self._now, until)
                        return
                    if max_events is not None and executed >= max_events:
                        self._cur_pos = pos
                        raise SimulationError(
                            f"exceeded max_events={max_events} (possible livelock)"
                        )
                    pos += 1
                    self._cur_pos = pos
                    self._size -= 1
                    self._now = t
                    self._events_processed += 1
                    head.fired = True
                    head.callback()
                    watcher = self.watcher
                    if watcher is not None:
                        watcher(self)
                    executed += 1
                    if self._cur_list is not lst:
                        break
                    pos = self._cur_pos
                    n = len(lst)
                else:
                    self._cur_pos = pos
                    self._cur_list = None
        finally:
            self._running = False

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Also restarts the FIFO sequence counter and the calendar tuning
        state so a reset queue schedules events with the same tie-break
        order — and the same bucket layout trajectory — as a fresh one:
        identical runs on a reused queue stay bit-identical (cross-run
        determinism).
        """
        self._heap.clear()
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._batched_events = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._size = 0
        self._calendar = False
        self._calendar_banned = False
        self._buckets = {}
        self._bucket_heap = []
        self._cur_list = None
        self._cur_pos = 0
        self._cur_index = 0
        self._cur_seen = False
        self._overflow = []
        self._ovf_limit = 0
        self._set_width(0)
        self._retune_mark = 0
        self._buckets_window = 0
        self._retunes = 0
        self._fast_forwards = 0
        self._buckets_skipped = 0


class Timeline:
    """A tiny convenience wrapper pairing an :class:`EventQueue` with helpers
    commonly needed by simulation components (barriers, deferred calls).
    """

    def __init__(self, queue: Optional[EventQueue] = None):
        self.queue = queue if queue is not None else EventQueue()

    @property
    def now(self) -> float:
        return self.queue.now

    def after(self, delay: float, callback: EventCallback) -> EventHandle:
        return self.queue.schedule(delay, callback)

    def call_soon(self, callback: EventCallback) -> EventHandle:
        """Schedule ``callback`` at the current time (after in-flight events)."""
        return self.queue.schedule(0.0, callback)


class CountdownBarrier:
    """Fires ``on_done`` once :meth:`arrive` has been called ``count`` times.

    Used by collective state machines to wait for N concurrent completions
    (e.g. the N-1 simultaneous receives of a direct alltoall step).

    When a runtime sanitizer is supplied (see
    :class:`repro.sanitize.runtime.RuntimeSanitizer`), the barrier
    registers with its barrier checker: over-arrival is reported with the
    barrier's name and expected count, and barriers still unfired at
    quiescence are surfaced as under-arrivals.  The sanitizer is passed
    duck-typed so the event engine stays import-free of the sanitizer.
    """

    def __init__(self, count: int, on_done: EventCallback,
                 name: str = "", sanitizer: Any = None):
        if count < 0:
            raise SimulationError(f"barrier count must be >= 0, got {count}")
        self.name = name
        self.count = count
        self._remaining = count
        self._on_done: Optional[EventCallback] = on_done
        self._fired = False
        self._sanitizer = sanitizer
        if sanitizer is not None:
            sanitizer.barriers.register(self)
        if count == 0:
            self._fire()

    @property
    def remaining(self) -> int:
        return self._remaining

    @property
    def done(self) -> bool:
        return self._fired

    def arrive(self, _result: Any = None) -> None:
        if self._fired:
            if self._sanitizer is not None:
                self._sanitizer.barriers.over_arrival(self)
            raise SimulationError(
                f"arrive() after barrier {self.name or 'anonymous'} "
                f"(count={self.count}) already fired"
            )
        self._remaining -= 1
        if self._remaining == 0:
            self._fire()
        elif self._remaining < 0:  # pragma: no cover - guarded above
            raise SimulationError("barrier over-arrived")

    def _fire(self) -> None:
        self._fired = True
        if self._sanitizer is not None:
            self._sanitizer.barriers.fired(self)
        # A fired barrier never calls back again; dropping the callback
        # breaks the owner -> barrier -> callback -> owner cycle, so the
        # owner is freed by reference counting.
        on_done, self._on_done = self._on_done, None
        if on_done is not None:
            on_done()
