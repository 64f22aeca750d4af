"""The benchmark's workloads and their inputs.

Every platform parameter is spelled out, so a later change of the
simulator's defaults cannot silently change what a workload runs.  The
simulation workloads are fixed; ``--seed`` drives the ``serve_sweep``
request order and its repeat subset (``serve_passes``).

Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Optional

KB = 1024
MB = 1024 * 1024


@dataclass
class RunResult:
    """One simulation request's answer plus the system it ran on."""

    cycles: float
    system: object
    exposed_cycles: float = 0.0


@dataclass(frozen=True)
class Request:
    """A named library call; ``run(events)`` simulates it once.

    ``events`` is an optional caller-built ``EventQueue`` (the traced run
    passes one with a watcher installed).
    """

    name: str
    run: Callable[[Optional[object]], RunResult]


@dataclass(frozen=True)
class OraclePoint:
    """One collective run on both backends; the flit-level detailed
    backend is the reference for the fast one."""

    name: str
    fast: Request
    detailed: Request


@dataclass(frozen=True)
class Workload:
    name: str
    #: One pass of the timed section (serve_sweep builds its own).
    requests: tuple[Request, ...]
    #: Points ``backend_gap`` is computed over.
    oracle: tuple[OraclePoint, ...]
    #: Fewest timed passes per run.  Every later pass repeats the first
    #: pass's requests, which ``hit_latency_p50_ms`` needs.
    min_passes: int = 2
    #: Expected engine path: True = must engage the calendar queue,
    #: False = must stay in heap mode, None = no expectation.
    calendar: Optional[bool] = None


def _torus(shape, horizontal_rings: int, vertical_rings: int, splits: int):
    from repro.config import TorusShape
    from repro.config.parameters import CollectiveAlgorithm, SchedulingPolicy
    from repro.harness.runners import torus_platform

    return torus_platform(
        TorusShape(*shape),
        algorithm=CollectiveAlgorithm.BASELINE,
        symmetric=False,
        local_rings=2,
        horizontal_rings=horizontal_rings,
        vertical_rings=vertical_rings,
        scheduling_policy=SchedulingPolicy.LIFO,
        compute_scale=1.0,
        preferred_set_splits=splits,
    )


def _alltoall(shape):
    from repro.config import AllToAllShape
    from repro.config.parameters import CollectiveAlgorithm, SchedulingPolicy
    from repro.harness.runners import alltoall_platform

    return alltoall_platform(
        AllToAllShape(*shape),
        algorithm=CollectiveAlgorithm.BASELINE,
        symmetric=False,
        local_rings=2,
        global_switches=2,
        preferred_set_splits=16,
        scheduling_policy=SchedulingPolicy.LIFO,
    )


def _detailed_backend(events, network, sanitizer):
    from repro.network.detailed.backend import DetailedBackend

    return DetailedBackend(events, network, sanitizer=sanitizer)


def with_events(spec, queue):
    """``spec`` building its system on ``queue`` (when given)."""
    if queue is None:
        return spec
    cls = type(spec)
    # Resolved at call time, so a traced PlatformSpec.build_system is used.
    spec.build_system = lambda sanitize=False, events=None: cls.build_system(
        spec, sanitize=sanitize, events=queue)
    return spec


def collective_request(name: str, make_spec: Callable, op: str, size_bytes: float,
                       detailed: bool = False) -> Request:
    def run(events=None) -> RunResult:
        from repro.collectives import CollectiveOp
        from repro.harness.runners import run_collective

        spec = make_spec()
        if detailed:
            spec = dataclasses.replace(spec, backend_factory=_detailed_backend)
        result = run_collective(with_events(spec, events), CollectiveOp(op), size_bytes)
        return RunResult(result.duration_cycles, result.system)

    return Request(name, run)


def oracle_point(name: str, make_spec: Callable, op: str, size_bytes: float) -> OraclePoint:
    return OraclePoint(
        name,
        collective_request(f"{name}.fast", make_spec, op, size_bytes),
        collective_request(f"{name}.detailed", make_spec, op, size_bytes, detailed=True),
    )


def _train_platform():
    return _torus((2, 4, 4), horizontal_rings=1, vertical_rings=1, splits=16)


def _train_resnet50(events=None) -> RunResult:
    from repro.harness.runners import run_training
    from repro.models.resnet50 import resnet50

    spec = _train_platform()
    model = resnet50(spec.config.compute, minibatch=32, bytes_per_element=4,
                     local_update_cycles_per_kb=1.0)
    report, system = run_training(model, with_events(spec, events), num_iterations=1)
    return RunResult(report.total_cycles, system, report.total_exposed_cycles)


def _scale_proxy_platform():
    # A 64-NPU torus with the 1024-NPU workload's local ring and set
    # splits: a flit-level run of the 4x16x16 torus itself takes minutes.
    return _torus((4, 4, 4), horizontal_rings=1, vertical_rings=1, splits=4)


def _oracle_torus():
    return _torus((2, 4, 4), horizontal_rings=2, vertical_rings=2, splits=16)


def _oracle_switch():
    return _alltoall((4, 8))


_ORACLE = (
    oracle_point("torus_2x4x4_allreduce_256KB", _oracle_torus, "allreduce", 256 * KB),
    oracle_point("switch_4x8_alltoall_256KB", _oracle_switch, "alltoall", 256 * KB),
)

_TRAIN_ORACLE = oracle_point("torus_2x4x4_allreduce_64KB", _train_platform,
                             "allreduce", 64 * KB)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train_resnet50",
            requests=(Request("train_resnet50", _train_resnet50),),
            oracle=(_TRAIN_ORACLE,),
            calendar=False,
        ),
        Workload(
            "allreduce_1024npu",
            requests=(collective_request(
                "allreduce_1024npu",
                lambda: _torus((4, 16, 16), horizontal_rings=1, vertical_rings=1, splits=4),
                "allreduce", 1 * MB),),
            oracle=(oracle_point("torus_4x4x4_allreduce_64KB", _scale_proxy_platform,
                                 "allreduce", 64 * KB),),
            calendar=True,
        ),
        Workload(
            "detailed_oracle",
            requests=tuple(r for p in _ORACLE for r in (p.detailed, p.fast)),
            oracle=_ORACLE,
        ),
        Workload(
            "serve_sweep",
            requests=(),
            # The daemon's default platform (torus 2x4x4, one horizontal and
            # one vertical ring): the same point as train_resnet50's.
            oracle=(_TRAIN_ORACLE,),
            # 144 misses per run, so latency_p90_ms has 14 samples beyond it.
            min_passes=3,
        ),
    )
}


# -- serve_sweep inputs ---------------------------------------------------------------

#: Cells fix the properties that set a request's cost (op, platform,
#: set splits, size); every pass sends each cell once, so passes differ
#: only in the cheap axes below and their times stay comparable.
SERVE_OPS = ("allreduce", "allgather", "reducescatter", "alltoall")
SERVE_PLATFORMS = (("Torus", (2, 4, 4)), ("Torus", (2, 2, 4)), ("AllToAll", (4, 8)))
SERVE_SPLITS = (4, 16)
SERVE_SIZES_MB = (0.25, 1.0)
#: The axes a pass varies per cell: algorithm x policy x symmetric links.
SERVE_VARIANTS = tuple(
    (algorithm, policy, symmetric)
    for algorithm in ("baseline", "enhanced")
    for policy in ("LIFO", "FIFO")
    for symmetric in (False, True)
)
#: Repeats resubmitted per pass (a seeded subset of its misses).
SERVE_REPEATS = 24


def serve_cells() -> list[tuple]:
    return [(op, topology, shape, splits, size)
            for op in SERVE_OPS
            for topology, shape in SERVE_PLATFORMS
            for splits in SERVE_SPLITS
            for size in SERVE_SIZES_MB]


def serve_payload(cell: tuple, variant: tuple) -> dict:
    op, topology, shape, splits, size = cell
    algorithm, policy, symmetric = variant
    return {
        "op": op,
        "size_mb": size,
        "topology": topology,
        "shape": list(shape),
        "algorithm": algorithm,
        "scheduling_policy": policy,
        "symmetric": symmetric,
        "local_rings": 2,
        "horizontal_rings": 1,
        "vertical_rings": 1,
        "global_switches": 2,
        "preferred_set_splits": splits,
        "compute_scale": 1.0,
    }


def payload_key(payload: dict) -> str:
    """Readable identity of a payload (the reference-table key)."""
    return "|".join([
        payload["op"], payload["topology"], "x".join(map(str, payload["shape"])),
        payload["algorithm"], payload["scheduling_policy"],
        "sym" if payload["symmetric"] else "asym",
        f"s{payload['preferred_set_splits']}", f"{payload['size_mb']}MB",
    ])


def payload_request(payload: dict) -> Request:
    """The library call answering a service payload (named by its key)."""

    def run(events=None) -> RunResult:
        from repro.harness.runners import run_collective
        from repro.service.schema import build_payload_platform, parse_payload

        parsed = parse_payload(payload)
        spec = with_events(build_payload_platform(parsed.canonical()), events)
        result = run_collective(spec, parsed.op, parsed.size_bytes)
        return RunResult(result.duration_cycles, result.system)

    return Request(payload_key(payload), run)


def all_serve_payloads() -> list[dict]:
    """Every payload any seed can send (the reference table's rows)."""
    return [serve_payload(cell, variant)
            for cell in serve_cells() for variant in SERVE_VARIANTS]


def serve_passes(seed: int) -> list[tuple[list[dict], list[dict]]]:
    """``(misses, repeats)`` per pass for ``seed``.

    Pass ``k`` sends every cell once, cell ``i`` with variant
    ``(i + k) mod 8``, so no payload repeats across passes and each
    variant is sent equally often.  The seed shuffles the pass's order
    and picks the subset of its misses that it resubmits.  Which payloads
    a pass sends does not depend on the seed: the variants differ in
    cost, and a seeded draw of them would move the latency quantiles
    from seed to seed by more than the host does.
    """
    rng = random.Random(seed)
    cells = serve_cells()
    passes = []
    for k in range(len(SERVE_VARIANTS)):
        misses = [serve_payload(cell, SERVE_VARIANTS[(i + k) % len(SERVE_VARIANTS)])
                  for i, cell in enumerate(cells)]
        rng.shuffle(misses)
        passes.append((misses, rng.sample(misses, SERVE_REPEATS)))
    return passes
