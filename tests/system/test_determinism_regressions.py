"""Regression tests for nondeterminism the source linter flagged.

Each class pins one fixed bug: order-sensitive float accumulation in the
stats (now exact, order-invariant sums) and the process-global chunk-id
counter (now per-Scheduler).  See docs/DETERMINISM.md.
"""

import math
from types import SimpleNamespace

from repro.collectives.context import PhaseStats
from repro.collectives.types import CollectiveOp
from repro.config.parameters import TorusShape
from repro.harness.runners import run_collective, torus_platform
from repro.system.stats import DelayBreakdown

#: Values chosen so naive left-to-right += rounds differently than the
#: reverse order (1.0 absorbs the 1e-16 ulps one at a time).
ILL_CONDITIONED = [1.0, 1e-16, 1e-16, 1e-16, -1.0, 1e16, -1e16]


def message(q=0.0, n=0.0, size=0.0):
    return SimpleNamespace(queueing_cycles=q, network_cycles=n,
                           size_bytes=size)


class TestPhaseStatsOrderInvariance:
    def test_totals_independent_of_record_order(self):
        forward, backward = PhaseStats(), PhaseStats()
        for value in ILL_CONDITIONED:
            forward.record(message(q=value, n=value, size=value))
        for value in reversed(ILL_CONDITIONED):
            backward.record(message(q=value, n=value, size=value))
        assert forward.queue_cycles == backward.queue_cycles
        assert forward.network_cycles == backward.network_cycles
        assert forward.bytes == backward.bytes
        # And the total is the exact (fsum) one, not the drifted naive sum.
        assert forward.queue_cycles == math.fsum(ILL_CONDITIONED)

    def test_merge_order_invariant(self):
        def build(values):
            stats = PhaseStats()
            for value in values:
                stats.record(message(q=value))
            return stats

        a, b = build(ILL_CONDITIONED[:3]), build(ILL_CONDITIONED[3:])
        ab = PhaseStats()
        ab.merge_from(a)
        ab.merge_from(b)
        ba = PhaseStats()
        ba.merge_from(b)
        ba.merge_from(a)
        assert ab.queue_cycles == ba.queue_cycles
        assert ab.messages == ba.messages

    def test_as_dict_round_trip_preserves_totals(self):
        stats = PhaseStats()
        for value in ILL_CONDITIONED:
            stats.record(message(q=value, n=2 * value, size=1.0))
        again = PhaseStats.from_dict(stats.as_dict())
        assert again.queue_cycles == stats.queue_cycles
        assert again.network_cycles == stats.network_cycles
        assert again.messages == stats.messages


class TestReadyQueueDelayOrderInvariance:
    def test_mean_independent_of_dispatch_order(self):
        forward, backward = DelayBreakdown(), DelayBreakdown()
        for delay in ILL_CONDITIONED:
            forward.record_ready_queue(delay)
        for delay in reversed(ILL_CONDITIONED):
            backward.record_ready_queue(delay)
        assert (forward.mean_ready_queue_delay
                == backward.mean_ready_queue_delay)


class TestPerSystemChunkIds:
    def test_chunk_numbering_restarts_per_system(self):
        """Chunk ids must depend on this run alone, not on how many
        systems the process built before (they key the PRIORITY-policy
        FIFO tie-break and appear in diagnostics)."""
        spec = torus_platform(TorusShape(2, 2, 2))
        observed = []
        for _ in range(2):
            system = spec.build_system()
            system.scheduler.keep_completed = True
            system.request_collective(CollectiveOp.ALL_REDUCE, 64 * 1024,
                                      name="probe")
            system.run_until_idle()
            ids = sorted(ready.chunk_id for ready, _ in
                         system.scheduler.completed_executions)
            observed.append(ids)
        assert observed[0] == observed[1]
        assert observed[0][0] == 0
        assert observed[0] == list(range(len(observed[0])))

    def test_repeat_runs_bit_identical(self):
        spec = torus_platform(TorusShape(2, 2, 2))
        results = [run_collective(spec, CollectiveOp.ALL_REDUCE, 64 * 1024)
                   for _ in range(2)]
        assert (results[0].duration_cycles == results[1].duration_cycles)
        assert (results[0].breakdown.rows() == results[1].breakdown.rows())
