"""Finished phase state must be freed by reference counting.

A chunk's per-group algorithm instances call back into their
:class:`ChunkExecution`, which indexes them; unless the execution drops
each instance when it finishes, every chunk leaves a reference cycle
that only CPython's cyclic garbage collector can free — and the full
collections that walk those leftovers cost a third of a training run.
"""

import gc

import pytest

from repro.collectives import ChunkExecution, CollectiveOp
from repro.collectives.base import CollectiveAlgorithmBase
from repro.collectives.direct_algorithms import DirectAllReduce
from repro.collectives.ring_algorithms import RingAllReduce
from repro.config.parameters import AllToAllShape, TorusShape
from repro.harness.runners import alltoall_platform, run_collective, torus_platform

PHASE_STATE = (ChunkExecution, CollectiveAlgorithmBase, RingAllReduce, DirectAllReduce)


def cyclic_garbage(run):
    """Types of the objects only the cyclic collector could free after
    ``run()`` and everything it built were dropped."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [o for o in gc.garbage if isinstance(o, PHASE_STATE)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("platform, op", [
    (lambda: torus_platform(TorusShape(2, 4, 4)), CollectiveOp.ALL_REDUCE),
    (lambda: alltoall_platform(AllToAllShape(2, 4)), CollectiveOp.ALL_REDUCE),
    (lambda: alltoall_platform(AllToAllShape(2, 4)), CollectiveOp.ALL_TO_ALL),
])
def test_finished_phases_leave_no_cycles(platform, op):
    def run():
        result = run_collective(platform(), op, 256 * 1024)
        assert result.duration_cycles > 0

    leaked = cyclic_garbage(run)
    assert leaked == [], sorted({type(o).__name__ for o in leaked})
