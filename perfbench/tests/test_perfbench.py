"""Tests of the benchmark itself: inputs, tracing, output and failure counting.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import signal
import time
import urllib.error

import hostspeed
import pytest
import run
import serve
import workloads
from tracer import Instrumentation, Tracer


def test_same_seed_gives_the_same_serve_payloads():
    assert workloads.serve_passes(7) == workloads.serve_passes(7)
    assert workloads.serve_passes(7) != workloads.serve_passes(8)


def test_serve_misses_are_distinct_and_repeats_come_from_their_pass():
    passes = workloads.serve_passes(3)
    keys = [workloads.payload_key(p) for misses, _ in passes for p in misses]
    assert len(keys) == len(set(keys)) == len(workloads.all_serve_payloads())
    for misses, repeats in passes:
        assert len(repeats) == workloads.SERVE_REPEATS
        assert all(r in misses for r in repeats)


def test_every_checked_request_has_reference_cycles():
    reference = run.load_reference()
    names = [workloads.payload_key(p) for p in workloads.all_serve_payloads()]
    for workload in workloads.WORKLOADS.values():
        names += [r.name for r in workload.requests]
        names += [r.name for p in workload.oracle for r in (p.fast, p.detailed)]
    assert not [n for n in names if n not in reference]


@pytest.mark.parametrize("periodic", [False, True])
def test_an_interval_is_its_work_time_at_the_reference_speed(monkeypatch, periodic):
    monkeypatch.setattr(hostspeed, "sample", lambda: 2.0)
    monkeypatch.setattr(hostspeed, "PERIOD_S", 0.01)
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Interval(periodic) as timed:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    assert 0.04 < timed.wall_s < 0.5
    assert timed.s == 2.0 * timed.wall_s
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_the_span_minus_its_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def child():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5

    def parent():
        clock.now += 3.0
        traced_child()
        traced_leaf()

    traced_leaf = tracer.wrap("network", "leaf", leaf)
    traced_child = tracer.wrap("collectives", "child", child)
    tracer.wrap("events", "parent", parent)()

    # parent spans 3 + (1 + 2 + 0.5) + 2 = 8.5; child spans 3.5.
    assert tracer.span_s["events"] == 8.5
    assert tracer.self_s["events"] == 8.5 - 3.5 - 2.0
    assert tracer.self_s["collectives"] == 3.5 - 2.0
    assert tracer.self_s["network"] == 4.0
    assert sum(tracer.self_s.values()) == tracer.span_s["events"]
    assert tracer.calls == {"parent": 1, "child": 1, "leaf": 2}


def test_a_span_that_raises_is_still_closed():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("system", "boom", boom)()
    assert tracer.self_s["system"] == 1.0


def test_instrumentation_is_removed():
    class Layer:
        def step(self):
            return 1

    original = Layer.step
    inst = Instrumentation(Tracer())
    inst.patch("system", Layer)
    assert Layer.step is not original and Layer().step() == 1
    inst.remove()
    assert Layer.step is original


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_metric_is_printed_with_its_unit(section):
    units = run.metric_units(section)
    line = json.loads(run.result_line(run.Tally(), dict.fromkeys(units, 1.5), units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {n: {"value": 1.5, "unit": u} for n, u in units.items()}
    assert all(units.values())
    with pytest.raises(RuntimeError, match="not measured"):
        run.result_line(run.Tally(), {}, units)


def test_a_cycle_mismatch_is_a_failed_operation():
    request = workloads.Request("probe", lambda events: workloads.RunResult(10.0, None))
    tally = run.Tally()
    assert run._run_request(request, tally, {"probe": 10.0}) is not None
    assert run._run_request(request, tally, {"probe": 11.0}) is None
    assert run._run_request(request, tally, {}) is None
    assert (tally.attempted, tally.failed) == (3, 2)


def test_a_raising_simulation_is_a_failed_operation():
    def broken(events):
        raise RuntimeError("deadlock")

    tally = run.Tally()
    assert run._run_request(workloads.Request("x", broken), tally, {"x": 1.0}) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_an_http_error_is_a_failed_request():
    def refuse(base, payload):
        raise urllib.error.HTTPError(base, 429, "queue-full", {}, None)

    answer = serve.ask("http://127.0.0.1:1", {}, post=refuse)
    assert answer.cycles is None and "HTTPError" in answer.error


def test_service_rejections_and_wrong_cycles_count_as_failures(tmp_path):
    good = workloads.serve_payload(workloads.serve_cells()[0], workloads.SERVE_VARIANTS[0])
    bad = dict(good, op="bogus")
    key = workloads.payload_key(good)
    tally, answers = run.Tally(), {}
    with serve.InProcessDaemon(str(tmp_path)) as daemon:
        misses, hits = run._serve_pass(daemon, [bad, good], [good], tally,
                                       {key: -1.0}, answers)
    assert len(misses) == 2 and len(hits) == 1
    # The 400 and both wrong-cycle answers fail; nothing is accepted.
    assert (tally.attempted, tally.failed) == (3, 3)
    assert answers == {}
