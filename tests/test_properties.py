"""Property-based tests (hypothesis) on core invariants."""

import math
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analytical import (
    LinkParams,
    hierarchical_all_reduce_volume,
    ring_all_reduce_cycles,
)
from repro.collectives import (
    CollectiveContext,
    CollectiveOp,
    PhaseStats,
    RingAllGather,
    RingAllReduce,
    RingReduceScatter,
    build_phase_plan,
    context,
)
from repro.config import CollectiveAlgorithm, LinkConfig, NetworkConfig
from repro.dims import Dimension
from repro.events import EventQueue
from repro.network import FastBackend, Link, RingChannel
from repro.system import split_into_chunks
from repro.workload import dumps, loads

IDEAL = LinkConfig(bandwidth_gbps=100.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL)
PARAMS = LinkParams(bytes_per_cycle=100.0, latency_cycles=50.0,
                    endpoint_delay_cycles=10.0)


def make_ring(n):
    links = [Link(i, (i + 1) % n, IDEAL) for i in range(n)]
    return RingChannel(list(range(n)), links)


def run_ring(algorithm_cls, n, size):
    events = EventQueue()
    ctx = CollectiveContext(FastBackend(events, NET),
                            reduction_cycles_per_kb=0.0)
    algo = algorithm_cls(ctx, make_ring(n), size)
    algo.start_all()
    events.run(max_events=5_000_000)
    assert algo.done
    return algo.finished_at


# -- event queue ordering ------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time_order(times):
    q = EventQueue()
    fired = []
    for t in times:
        q.schedule_at(t, lambda t=t: fired.append(q.now))
    q.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


# -- ring collectives ------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=8),
       size=st.floats(min_value=1024.0, max_value=16e6))
def test_ring_all_reduce_matches_analytical(n, size):
    """On an uncontended dedicated ring, the simulation must agree with
    the closed form exactly (all nodes run in lock step)."""
    simulated = run_ring(RingAllReduce, n, size)
    analytical = ring_all_reduce_cycles(size, n, PARAMS)
    assert math.isclose(simulated, analytical, rel_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=8),
       size=st.floats(min_value=1024.0, max_value=1e6))
def test_all_reduce_equals_scatter_plus_gather(n, size):
    ar = run_ring(RingAllReduce, n, size)
    rs = run_ring(RingReduceScatter, n, size)
    ag = run_ring(RingAllGather, n, size)
    assert math.isclose(ar, rs + ag, rel_tol=1e-9)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=6),
       small=st.floats(min_value=1024.0, max_value=1e5),
       factor=st.floats(min_value=1.5, max_value=20.0))
def test_ring_time_monotone_in_size(n, small, factor):
    assert run_ring(RingAllReduce, n, small * factor) > \
        run_ring(RingAllReduce, n, small)


# -- chunking ------------------------------------------------------------------------

@given(total=st.floats(min_value=1.0, max_value=1e9),
       splits=st.integers(min_value=1, max_value=64))
def test_chunks_sum_to_total(total, splits):
    chunks = split_into_chunks(total, splits)
    assert math.isclose(sum(chunks), total, rel_tol=1e-9)
    assert 1 <= len(chunks) <= splits
    assert all(c > 0 for c in chunks)


# -- phase plans ------------------------------------------------------------------------

_dims = st.lists(
    st.sampled_from([Dimension.LOCAL, Dimension.VERTICAL, Dimension.HORIZONTAL]),
    min_size=1, max_size=3, unique=True,
).flatmap(lambda ds: st.tuples(
    st.just(ds),
    st.lists(st.integers(min_value=2, max_value=16),
             min_size=len(ds), max_size=len(ds)),
)).map(lambda pair: list(zip(*pair)))


@given(dims=_dims)
def test_reduce_scatter_and_all_gather_plans_are_inverse(dims):
    rs = build_phase_plan(CollectiveOp.REDUCE_SCATTER, dims)
    ag = build_phase_plan(CollectiveOp.ALL_GATHER, dims)
    assert [p.dim for p in rs] == [p.dim for p in reversed(ag)]
    for a, b in zip(rs, reversed(ag)):
        assert math.isclose(a.size_fraction, b.size_fraction)


@given(dims=_dims)
def test_plan_fractions_are_valid(dims):
    for op in (CollectiveOp.ALL_REDUCE, CollectiveOp.REDUCE_SCATTER,
               CollectiveOp.ALL_GATHER, CollectiveOp.ALL_TO_ALL):
        for algorithm in CollectiveAlgorithm:
            for spec in build_phase_plan(op, dims, algorithm):
                assert 0 < spec.size_fraction <= 1


@given(dims=_dims)
def test_enhanced_never_moves_more_inter_package_bytes(dims):
    sizes = [n for _, n in dims]
    baseline = hierarchical_all_reduce_volume(sizes, enhanced=False)
    enhanced = hierarchical_all_reduce_volume(sizes, enhanced=True)
    assert enhanced <= baseline + 1e-12


# -- workload parser round trip -----------------------------------------------------------

_comm = st.sampled_from(["NONE", "ALLREDUCE", "ALLGATHER", "REDUCESCATTER",
                         "ALLTOALL"])


@st.composite
def _workload_text(draw):
    num_layers = draw(st.integers(min_value=1, max_value=5))
    lines = ["DATA", str(num_layers)]
    for i in range(num_layers):
        ops = [draw(_comm) for _ in range(3)]
        sizes = [0 if op == "NONE" else draw(st.integers(1, 10**9))
                 for op in ops]
        lines.append(f"layer{i}")
        lines.append(" ".join(str(draw(st.integers(0, 10**9)))
                              for _ in range(3)))
        lines.append(" ".join(ops))
        lines.append(" ".join(str(s) for s in sizes))
        lines.append(str(draw(st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False))))
    return "\n".join(lines)


@settings(max_examples=50, deadline=None)
@given(text=_workload_text())
def test_parser_round_trip(text):
    model = loads(text, name="prop")
    again = loads(dumps(model), name="prop")
    assert again.layers == model.layers
    assert again.strategy == model.strategy


# -- per-message stats accumulator ------------------------------------------------

#: Finite floats from subnormals to 1e300, both signs: a few hundred of
#: them cannot overflow an exact sum.
_stat_values = st.lists(
    st.floats(min_value=-1e300, max_value=1e300,
              allow_nan=False, allow_infinity=False),
    max_size=400)
#: Small fold sizes so a few hundred samples fold many times.  A fold
#: leaves at most ~40 terms (2098 bits of double exponent range, >= 53
#: bits per term), so any fold size above that keeps the buffer below it.
_fold_sizes = st.integers(min_value=48, max_value=96)


def _sample(value):
    return SimpleNamespace(queueing_cycles=value, network_cycles=-value / 3,
                           size_bytes=abs(value))


def _exact_totals(values):
    return (math.fsum(values), math.fsum(-v / 3 for v in values),
            math.fsum(abs(v) for v in values))


def _totals(stats):
    return (stats.queue_cycles, stats.network_cycles, stats.bytes)


def _buffer_lengths(stats):
    return {len(stats._queue), len(stats._network), len(stats._bytes)}


@settings(max_examples=150, deadline=None)
@given(values=_stat_values, fold=_fold_sizes, data=st.data())
def test_phase_stats_totals_are_exact_in_any_order(values, fold, data):
    order = data.draw(st.permutations(values))
    with mock.patch.object(context, "FOLD_SIZE", fold):
        stats = PhaseStats()
        for value in order:
            stats.record(_sample(value))
            (length,) = _buffer_lengths(stats)
            assert length < fold
    assert stats.messages == len(values)
    assert _totals(stats) == _exact_totals(values)


@settings(max_examples=150, deadline=None)
@given(values=_stat_values, fold=_fold_sizes, data=st.data())
def test_phase_stats_split_and_merge_are_exact(values, fold, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=4)))
    bounds = [0, *cuts, len(values)]
    with mock.patch.object(context, "FOLD_SIZE", fold):
        parts = []
        for start, end in zip(bounds, bounds[1:]):
            part = PhaseStats()
            for value in values[start:end]:
                part.record(_sample(value))
            parts.append(part)
        merged = PhaseStats()
        for part in data.draw(st.permutations(parts)):
            merged.merge_from(part)
            (length,) = _buffer_lengths(merged)
            assert length < fold
    assert merged.messages == len(values)
    assert _totals(merged) == _exact_totals(values)
