"""Tests for the collective execution context and per-phase stats."""

import math

import pytest

from repro.collectives import CollectiveContext, PhaseStats
from repro.collectives.context import FOLD_SIZE
from repro.config import LinkConfig, NetworkConfig
from repro.errors import CollectiveError
from repro.events import EventQueue
from repro.network import FastBackend, Link, Message

IDEAL = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL)


def make_ctx(**kwargs):
    events = EventQueue()
    return events, CollectiveContext(FastBackend(events, NET), **kwargs)


class TestContext:
    def test_reduction_cycles_scale_per_kb(self):
        _, ctx = make_ctx(reduction_cycles_per_kb=10.0)
        assert ctx.reduction_cycles(2048.0) == pytest.approx(20.0)
        assert ctx.reduction_cycles(0.0) == 0.0

    def test_after_uses_event_queue(self):
        events, ctx = make_ctx()
        fired = []
        ctx.after(7.0, lambda: fired.append(ctx.now))
        events.run()
        assert fired == [7.0]

    def test_send_records_stats_by_phase(self):
        recorded = []
        events, ctx = make_ctx(stats_sink=lambda p, m: recorded.append((p, m)))
        link = Link(0, 1, IDEAL)
        ctx.send(0, 1, 1000.0, [link], tag="t",
                 on_delivered=lambda m: None, phase_index=3)
        events.run()
        assert len(recorded) == 1
        phase, message = recorded[0]
        assert phase == 3
        assert message.delivered_at == pytest.approx(60.0)

    def test_send_without_sink(self):
        events, ctx = make_ctx()
        done = []
        ctx.send(0, 1, 100.0, [Link(0, 1, IDEAL)], tag=None,
                 on_delivered=done.append)
        events.run()
        assert len(done) == 1

    def test_validation(self):
        with pytest.raises(CollectiveError):
            make_ctx(endpoint_delay_cycles=-1.0)
        with pytest.raises(CollectiveError):
            make_ctx(reduction_cycles_per_kb=-1.0)


class TestPhaseStats:
    def test_record_accumulates(self):
        stats = PhaseStats()
        for q, n in ((10.0, 40.0), (20.0, 60.0)):
            m = Message(0, 1, 100.0)
            m.created_at, m.injected_at, m.delivered_at = 0.0, q, q + n
            stats.record(m)
        assert stats.messages == 2
        assert stats.mean_queue_cycles == pytest.approx(15.0)
        assert stats.mean_network_cycles == pytest.approx(50.0)
        assert stats.bytes == pytest.approx(200.0)

    def test_empty_means(self):
        stats = PhaseStats()
        assert stats.mean_queue_cycles == 0.0
        assert stats.mean_network_cycles == 0.0

    def test_folding_past_the_default_size_stays_exact_and_bounded(self):
        values = [(-1.0) ** i * 10.0 ** (i % 40 - 20) + i for i in range(10_000)]
        stats = PhaseStats()
        for v in values:
            m = Message(0, 1, 1.0 + v * v)
            m.created_at, m.injected_at, m.delivered_at = 0.0, v, 2 * v
            stats.record(m)
        assert stats.messages == len(values)
        assert stats.queue_cycles == math.fsum(values)
        assert stats.network_cycles == math.fsum(2 * v - v for v in values)
        assert stats.bytes == math.fsum(1.0 + v * v for v in values)
        assert len(stats._queue) < FOLD_SIZE
