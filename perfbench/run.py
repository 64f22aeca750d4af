#!/usr/bin/env python3
"""The repository benchmark: one workload per run, metrics on stdout.

Run from the repository root::

    python3 perfbench/run.py --workload train_resnet50 --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs one untraced pass, then one pass with every simulator
layer wrapped in spans, and reports the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).

Every simulated cycle count is checked against ``perfbench/reference.json``.
A deliberate cycle change regenerates that file with ``--record`` and
commits it, so the change shows in the diff.

The workloads, metrics and the layer table are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space for daemon state; removed when the run ends.
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
#: Host seconds one setup probe may take.
PROBE_TIMEOUT_S = 120


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Tally:
    """Operations attempted and failed; a failure is printed as it happens."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, got, expected) -> bool:
        """One operation whose simulated cycles must equal ``expected``."""
        self.attempted += 1
        if got is None or expected is None or got != expected:
            self.fail(f"{what}: cycles {got!r} != reference {expected!r}", count=False)
            return False
        return True

    def fail(self, message: str, count: bool = True) -> None:
        if count:
            self.attempted += 1
        self.failed += 1
        print(f"FAIL {message}", flush=True)


def load_reference() -> dict[str, float]:
    """Reference simulated cycles by request name or serve payload key."""
    with open(REFERENCE_PATH) as f:
        return json.load(f)["cycles"]


def metric_units(section: str) -> dict[str, str]:
    with open(BENCHMARK_PATH) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def result_line(tally: Tally, values: dict[str, float], units: dict[str, str]) -> str:
    """The final JSON line: every metric of ``units``, with its unit."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


# -- library workloads ----------------------------------------------------------------


def _run_request(request, tally: Tally, reference: dict, events=None):
    """Simulate one request and check its cycles; ``None`` on failure."""
    try:
        result = request.run(events)
    except Exception:  # a failing simulation is a failed operation, not a crash
        traceback.print_exc()
        tally.fail(f"{request.name}: raised")
        return None
    if not tally.check(request.name, result.cycles, reference.get(request.name)):
        return None
    return result


def _timed_passes(workload, seconds: float, tally: Tally, reference: dict):
    """The timed section: passes over the workload's requests.

    Latencies are in reference seconds (``hostspeed``); ``wall_s`` sums
    their host seconds.
    """
    from hostspeed import Interval

    latencies, hits, pass_s, first, wall_s = [], [], [], {}, 0.0
    start = time.perf_counter()
    while len(pass_s) < workload.min_passes or time.perf_counter() - start < seconds:
        pass_latencies = []
        for request in workload.requests:
            # Each request starts on a collected heap: the garbage of the
            # previous one would otherwise slow its cyclic collections.
            gc.collect()
            with Interval() as timed:
                result = _run_request(request, tally, reference)
            pass_latencies.append(timed.s)
            wall_s += timed.wall_s
            if not pass_s and result is not None:
                first[request.name] = result.cycles
            del result
        latencies += pass_latencies
        if pass_s:
            hits += pass_latencies
        pass_s.append(sum(pass_latencies))
    return latencies, hits, pass_s, first, wall_s


def _backend_gap(workload, tally: Tally, reference: dict, measured: dict) -> float:
    """max |detailed / fast - 1| over the workload's oracle points.

    Points already simulated in the timed section reuse those cycles.
    """
    gap = 0.0
    for point in workload.oracle:
        cycles = []
        for request in (point.fast, point.detailed):
            if request.name not in measured:
                result = _run_request(request, tally, reference)
                measured[request.name] = result.cycles if result is not None else None
            cycles.append(measured[request.name])
        if None not in cycles:
            gap = max(gap, abs(cycles[1] / cycles[0] - 1.0))
    return gap


def _setup_s(workload_name: str) -> float:
    """Median time from process start to the first simulated event.

    In reference seconds: the probe samples host speed as it sets up.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", workload_name],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((probe["ready"] - start - probe["spent"]) * probe["speed"])
    return statistics.median(samples)


class _FirstEvent(Exception):
    pass


def probe_setup(workload_name: str, speed) -> None:
    """Child side of ``_setup_s``: set the workload up, stop at its first event.

    ``speed`` is the ``HostSpeed`` sampler started as the process began.
    """
    from repro.events.engine import EventQueue

    import workloads

    if workload_name == "serve_sweep":
        from serve import InProcessDaemon

        daemon = InProcessDaemon(_work_dir())
        ready, spent = time.monotonic(), speed.spent
        speed.stop()
        daemon.close()
    else:
        def stop(queue, *args, **kwargs):
            raise _FirstEvent(time.monotonic(), speed.spent)

        EventQueue.run = stop
        try:
            workloads.WORKLOADS[workload_name].requests[0].run(None)
            raise RuntimeError("the workload finished without running its event queue")
        except _FirstEvent as first:
            ready, spent = first.args
            speed.stop()
    print(json.dumps({"ready": ready, "spent": spent, "speed": speed.speed}))


def _work_dir() -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return WORK_DIR


def _print_host(passes: int, wall_s: float, reference_s: float) -> None:
    print(f"{passes} timed passes: {wall_s:.3f} host s = {reference_s:.3f} reference s "
          f"(host at {reference_s / wall_s:.3f} of the reference speed)", flush=True)


def run_library(workload, seconds: float, reference: dict, tally: Tally) -> dict:
    latencies, hits, pass_s, first, wall_s = _timed_passes(workload, seconds, tally, reference)
    peak_rss = _peak_rss_mb()
    _print_host(len(pass_s), wall_s, sum(pass_s))
    return {
        "run_s": statistics.median(pass_s),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * _quantile(latencies, 0.9),
        "hit_latency_p50_ms": 1e3 * statistics.median(hits),
        "peak_rss_mb": peak_rss,
        "setup_s": _setup_s(workload.name),
        "backend_gap": _backend_gap(workload, tally, reference, first),
    }


# -- serve_sweep ----------------------------------------------------------------------


def _serve_pass(daemon, misses, repeats, tally: Tally, reference: dict, answers: dict):
    """One pass: every miss, then the repeats.

    Returns the misses' and the repeats' timed ``Interval``s.  Host speed
    is sampled between requests, while the daemon is idle.
    """
    from hostspeed import Interval
    from serve import ask
    from workloads import payload_key

    latencies = {"miss": [], "hit": []}
    for kind, payloads in (("miss", misses), ("hit", repeats)):
        for payload in payloads:
            key = payload_key(payload)
            with Interval(periodic=False) as timed:
                answer = ask(daemon.base, payload)
            latencies[kind].append(timed)
            if answer.error is not None:
                tally.fail(f"{key}: {answer.error}")
                continue
            if tally.check(key, answer.cycles, reference.get(key)):
                answers[key] = (payload, answer.cycles)
    return latencies["miss"], latencies["hit"]


def _agree_with_library(answers: dict, tally: Tally) -> None:
    """Each distinct service answer equals a direct library run."""
    from workloads import payload_request

    for key, (payload, cycles) in answers.items():
        direct = payload_request(payload).run(None).cycles
        if direct != cycles:
            tally.fail(f"{key}: service answered {cycles!r}, library {direct!r}", count=False)


def run_serve(workload, seconds: float, seed: int, reference: dict, tally: Tally) -> dict:
    from serve import InProcessDaemon
    from workloads import serve_passes

    timed, answers = [], {}
    with InProcessDaemon(_work_dir()) as daemon:
        start = time.perf_counter()
        for miss_payloads, repeat_payloads in serve_passes(seed):
            if len(timed) >= workload.min_passes and time.perf_counter() - start >= seconds:
                break
            timed.append(_serve_pass(daemon, miss_payloads, repeat_payloads, tally,
                                     reference, answers))
    pass_s = [sum(t.s for t in m + h) for m, h in timed]
    wall_s = sum(t.wall_s for m, h in timed for t in m + h)
    misses = [t.s for m, _ in timed for t in m]
    hits = [t.s for _, h in timed for t in h]
    # The daemon's supervised workers have been reaped: their peak counts.
    peak_rss = _peak_rss_mb() + _peak_rss_mb(resource.RUSAGE_CHILDREN)
    _print_host(len(pass_s), wall_s, sum(pass_s))
    setup_s = _setup_s(workload.name)
    _agree_with_library(answers, tally)
    return {
        "run_s": statistics.median(pass_s),
        "latency_p50_ms": 1e3 * statistics.median(misses),
        "latency_p90_ms": 1e3 * _quantile(misses, 0.9),
        "hit_latency_p50_ms": 1e3 * statistics.median(hits),
        "peak_rss_mb": peak_rss,
        "setup_s": setup_s,
        "backend_gap": _backend_gap(workload, tally, reference, {}),
    }


# -- traced run -----------------------------------------------------------------------


def _engine_counters(results) -> dict:
    queues = [r.system.events for r in results]
    return {
        "events.dispatches": sum(q.events_processed for q in queues),
        "events.logical": sum(q.events_simulated for q in queues),
        "events.fast_forwards": sum(q.fast_forwards for q in queues),
        "events.compactions": sum(q.compactions for q in queues),
    }


def _link_cycles(results) -> tuple[float, float]:
    queue = busy = 0.0
    for r in results:
        for link in r.system.topology.fabric.links:
            queue += link.stats.queue_cycles
            busy += link.stats.busy_cycles
    return queue, busy


def _layer_metrics(tracer, results, detailed_results) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    counters = _engine_counters(results)
    detailed = _engine_counters(detailed_results) if detailed_results else None
    queue_cycles, busy_cycles = _link_cycles(results)
    return {
        **counters,
        "events.self_s": self_s["events"],
        "network.sends": calls["FastBackend.send"],
        "network.self_s": self_s["network"],
        "network.link_queue_cycles": queue_cycles,
        "network.link_busy_cycles": busy_cycles,
        "collectives.messages": calls["CollectiveContext.send"],
        "collectives.self_s": self_s["collectives"],
        "stats.records": calls["DelayBreakdown.record_message"],
        "stats.self_s": self_s["stats"],
        "system.self_s": self_s["system"],
        "system.collective_sets": calls["System.request_collective"],
        "workload.self_s": self_s["workload"],
        "workload.exposed_cycles": sum(r.exposed_cycles for r in results),
        "detailed.self_s": self_s["detailed"],
        "detailed.dispatches_per_logical": (
            detailed["events.dispatches"] / detailed["events.logical"] if detailed else 0.0),
        "build.platform_s": tracer.span_s["build"],
    }


def _traced_requests(requests, tally: Tally, reference: dict, untraced: dict):
    """Run ``requests`` with every layer traced; returns (tracer, results, peak pending)."""
    from repro.events.engine import EventQueue
    from tracer import Tracer, instrument_simulator

    tracer = Tracer()
    inst = instrument_simulator(tracer)
    results, peak = [], 0
    try:
        for request in requests:
            queue = EventQueue()
            high = [0]

            def watch(q, high=high):
                if q.pending > high[0]:
                    high[0] = q.pending

            queue.watcher = watch
            result = _run_request(request, tally, reference, events=queue)
            peak = max(peak, high[0])
            if result is None:
                continue
            results.append((request, result))
            expected = untraced.get(request.name)
            got = (result.cycles, result.system.events.events_simulated)
            if expected is not None and got != expected:
                tally.fail(f"{request.name}: traced (cycles, logical events) {got} "
                           f"!= untraced {expected}", count=False)
    finally:
        inst.remove()
    return tracer, results, peak


def _path_flags(workload, fast_forwards: int) -> int:
    """Engine-path expectations broken by this run (each printed as FLAG)."""
    if workload.calendar is True and fast_forwards == 0:
        print(f"FLAG {workload.name}: expected to engage the calendar queue, "
              "but made no fast-forward", flush=True)
        return 1
    if workload.calendar is False and fast_forwards > 0:
        print(f"FLAG {workload.name}: expected to stay in heap mode, "
              f"but made {fast_forwards} fast-forwards", flush=True)
        return 1
    return 0


def _is_detailed(request) -> bool:
    return request.name.endswith(".detailed")


def trace_library(workload, reference: dict, tally: Tally) -> dict:
    # Untraced pass first: its time is the tracing-overhead baseline and
    # its RSS growth (in a process that has simulated nothing yet) gives
    # bytes per logical event.
    untraced, logical = {}, 0
    rss_before = _rss_mb()
    start = time.perf_counter()
    for request in workload.requests:
        result = _run_request(request, tally, reference)
        if result is not None:
            untraced[request.name] = (result.cycles, result.system.events.events_simulated)
            logical += untraced[request.name][1]
        del result
    untraced_s = time.perf_counter() - start
    grown_bytes = (_peak_rss_mb() - rss_before) * 2**20

    gc.collect()
    start = time.perf_counter()
    tracer, pairs, peak = _traced_requests(workload.requests, tally, reference, untraced)
    traced_s = time.perf_counter() - start
    results = [r for _, r in pairs]
    metrics = _layer_metrics(tracer, results,
                             [r for q, r in pairs if _is_detailed(q)])
    metrics.update({
        "events.peak_pending": peak,
        "mem.bytes_per_event": grown_bytes / logical if logical else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return metrics


def trace_serve(workload, seed: int, reference: dict, tally: Tally) -> dict:
    from serve import InProcessDaemon, get_json
    from tracer import Tracer, instrument_service
    from workloads import payload_request, serve_passes

    (misses0, repeats0), (misses1, repeats1) = serve_passes(seed)[:2]
    answers: dict = {}
    tracer = Tracer()
    with InProcessDaemon(_work_dir()) as daemon:
        start = time.perf_counter()
        _serve_pass(daemon, misses0, repeats0, tally, reference, {})
        untraced_s = time.perf_counter() - start
        inst = instrument_service(tracer)
        try:
            start = time.perf_counter()
            _serve_pass(daemon, misses1, [], tally, reference, answers)
            before = get_json(daemon.base, "/readyz")["simulations_run"]
            _serve_pass(daemon, [], repeats1, tally, reference, answers)
            traced_s = time.perf_counter() - start
            stats = get_json(daemon.base, "/readyz")
        finally:
            inst.remove()
    resimulated = stats["simulations_run"] - before

    # The simulation layers run in the daemon's worker processes; trace
    # them here by sending the same pass's payloads through the library,
    # which must also agree with the service's answers.
    sim_tracer, pairs, peak = _traced_requests(
        [payload_request(payload) for payload in misses1], tally, reference, {})
    results = [r for _, r in pairs]
    for request, result in pairs:
        served = answers.get(request.name, (None, None))[1]
        if served != result.cycles:
            tally.fail(f"{request.name}: library {result.cycles!r} != service {served!r}",
                       count=False)
    calls, span_s = tracer.calls, tracer.span_s
    metrics = _layer_metrics(sim_tracer, results, [])
    metrics.update({
        "events.peak_pending": peak,
        "trace.overhead_s": traced_s - untraced_s,
        "service.submit_ms": 1e3 * span_s["service.submit"]
        / max(1, calls["SimulationService.submit"]),
        "service.run_job_ms": 1e3 * span_s["service.run_job"]
        / max(1, calls["SimulationService.run_job"]),
        "service.reuse_ratio": (len(repeats1) - resimulated) / len(repeats1),
        "parallel.cache_hits": stats["cache"]["hits"],
        "parallel.cache_misses": stats["cache"]["misses"],
    })
    return metrics


# -- reference recording --------------------------------------------------------------


def record_reference() -> None:
    """Re-simulate every checked request and rewrite reference.json."""
    from workloads import WORKLOADS, all_serve_payloads, payload_request

    requests = {}
    for workload in WORKLOADS.values():
        for request in workload.requests:
            requests[request.name] = request
        for point in workload.oracle:
            requests[point.fast.name] = point.fast
            requests[point.detailed.name] = point.detailed
    for payload in all_serve_payloads():
        request = payload_request(payload)
        requests[request.name] = request
    cycles = {}
    for name, request in sorted(requests.items()):
        cycles[name] = request.run(None).cycles
    with open(REFERENCE_PATH, "w") as f:
        json.dump({"cycles": cycles}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(cycles)} reference cycle counts in {REFERENCE_PATH}")


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from fresh simulations")
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 1
    # The checkout's sources, for this process and every child it starts.
    sys.path[:0] = [SRC, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    if args.probe_setup:
        from hostspeed import HostSpeed

        probe_setup(args.probe_setup, HostSpeed())
        return 0
    if args.record:
        record_reference()
        return 0

    import_start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    import_s = time.perf_counter() - import_start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference()
    tally = Tally()
    try:
        if args.trace:
            units = metric_units("per_layer")
            values = dict.fromkeys(units, 0.0)
            if workload.name == "serve_sweep":
                values.update(trace_serve(workload, args.seed, reference, tally))
            else:
                values.update(trace_library(workload, reference, tally))
            values["build.import_s"] = import_s
            values["events.path_flags"] = _path_flags(workload, values["events.fast_forwards"])
        else:
            units = metric_units("end_to_end")
            if workload.name == "serve_sweep":
                values = run_serve(workload, args.seconds, args.seed, reference, tally)
            else:
                values = run_library(workload, args.seconds, reference, tally)
    finally:
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    for name, unit in units.items():
        print(f"{name:32s} {values[name]!r} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}: "
          f"{'PASS' if tally.failed == 0 else 'FAIL'}")
    print(result_line(tally, values, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
