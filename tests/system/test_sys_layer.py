"""End-to-end tests of the System facade's collective API."""

import pytest

from repro.collectives import CollectiveOp
from repro.config import (
    CollectiveAlgorithm,
    SimulationConfig,
    SystemConfig,
    TorusShape,
    paper_network_config,
)
from repro.config.units import KB, MB
from repro.dims import Dimension
from repro.system import System
from repro.topology import build_torus_topology

NET = paper_network_config()


def make_system(**kwargs) -> System:
    system_cfg = SystemConfig(**kwargs)
    topo = build_torus_topology(TorusShape(2, 2, 2), NET, system_cfg)
    return System(topo, SimulationConfig(system=system_cfg, network=NET))


class TestRequestCollective:
    def test_all_reduce_completes(self):
        sys_ = make_system()
        c = sys_.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB)
        end = sys_.run_until_idle(max_events=50_000_000)
        assert c.done
        assert c.finished_at == end
        assert c.duration_cycles > 0

    @pytest.mark.parametrize("op", [
        CollectiveOp.ALL_GATHER,
        CollectiveOp.REDUCE_SCATTER,
        CollectiveOp.ALL_TO_ALL,
    ])
    def test_other_collectives_complete(self, op):
        sys_ = make_system()
        c = sys_.request_collective(op, 256 * KB)
        sys_.run_until_idle(max_events=50_000_000)
        assert c.done

    def test_none_op_completes_without_traffic(self):
        sys_ = make_system()
        c = sys_.request_collective(CollectiveOp.NONE, 1 * MB)
        sys_.run_until_idle()
        assert c.done
        assert sys_.backend.messages_delivered == 0

    def test_scoped_collective_stays_in_scope(self):
        sys_ = make_system()
        c = sys_.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB,
                                    scope=[Dimension.VERTICAL])
        sys_.run_until_idle(max_events=50_000_000)
        assert c.done
        assert [p.dim for p in c.plan] == [Dimension.VERTICAL]

    def test_completion_callback_after_done(self):
        sys_ = make_system()
        c = sys_.request_collective(CollectiveOp.ALL_REDUCE, 64 * KB)
        sys_.run_until_idle(max_events=10_000_000)
        seen = []
        c.on_complete(seen.append)  # registered after completion
        assert seen == [c]

    def test_concurrent_sets_all_complete(self):
        sys_ = make_system()
        sets = [sys_.request_collective(CollectiveOp.ALL_REDUCE, 512 * KB)
                for _ in range(5)]
        sys_.run_until_idle(max_events=100_000_000)
        assert all(s.done for s in sets)

    def test_concurrent_sets_slower_than_alone(self):
        solo = make_system()
        s = solo.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB)
        solo.run_until_idle(max_events=50_000_000)

        busy = make_system()
        sets = [busy.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB)
                for _ in range(4)]
        busy.run_until_idle(max_events=100_000_000)
        assert max(x.finished_at for x in sets) > s.finished_at

    def test_per_set_breakdown_populated(self):
        sys_ = make_system(algorithm=CollectiveAlgorithm.ENHANCED)
        c = sys_.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB)
        sys_.run_until_idle(max_events=50_000_000)
        assert c.breakdown.num_phases == len(c.plan)

    def test_each_message_recorded_once(self):
        sys_ = make_system()
        for size in (1 * MB, 256 * KB):
            sys_.request_collective(CollectiveOp.ALL_REDUCE, size)
        sys_.run_until_idle(max_events=50_000_000)
        per_set = sum(stats.messages for c in sys_.sets
                      for stats in c.breakdown.phase_stats.values())
        assert per_set == sys_.backend.messages_delivered > 0
        total = sys_.breakdown
        assert sum(s.messages for s in total.phase_stats.values()) == per_set
        assert sorted(total.ready_queue_delays) == sorted(
            d for c in sys_.sets for d in c.breakdown.ready_queue_delays)

    def test_schedule_exposes_event_queue(self):
        sys_ = make_system()
        fired = []
        sys_.schedule(100.0, lambda: fired.append(sys_.now))
        sys_.run_until_idle()
        assert fired == [100.0]

    def test_run_until_partial(self):
        sys_ = make_system()
        sys_.request_collective(CollectiveOp.ALL_REDUCE, 8 * MB)
        sys_.run_until(10.0)
        assert sys_.now == pytest.approx(10.0)

    def test_reduction_rate_override_slows_collective(self):
        fast_sys = make_system()
        fast = fast_sys.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB,
                                           reduction_cycles_per_kb=0.0)
        fast_sys.run_until_idle(max_events=50_000_000)

        slow_sys = make_system()
        slow = slow_sys.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB,
                                           reduction_cycles_per_kb=100.0)
        slow_sys.run_until_idle(max_events=50_000_000)
        assert slow.duration_cycles > fast.duration_cycles

    def test_determinism(self):
        def run_once():
            sys_ = make_system()
            sets = [sys_.request_collective(CollectiveOp.ALL_REDUCE, 1 * MB)
                    for _ in range(3)]
            sys_.run_until_idle(max_events=100_000_000)
            return [s.finished_at for s in sets]

        assert run_once() == run_once()
