"""The same seed gives byte-identical inputs and arrival schedule."""

import hashlib
import itertools

import numpy as np

from perfbench import inputs


def digest(*parts) -> str:
    """Content hash of arrays and request lists."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _inputs(seed):
    pool = inputs.serve_pool(seed, num_vertices=2708)
    streams = [list(itertools.islice(inputs.request_stream(seed, phase), 5000))
               for phase in (inputs.PHASE_SINGLE, inputs.PHASE_CLOSED)]
    due, reqs = inputs.open_loop_schedule(seed, seconds=3.0)
    return digest(pool.columns, *pool.id_sets, *streams, due, reqs)


def test_same_seed_same_bytes():
    assert _inputs(7) == _inputs(7)


def test_other_seed_other_inputs():
    assert _inputs(7) != _inputs(8)


def test_schedule_shape():
    due, reqs = inputs.open_loop_schedule(3, seconds=4.0)
    assert len(due) == len(reqs)
    assert (due[1:] >= due[:-1]).all() and due[-1] < 4.0
    # Poisson at OPEN_LOOP_RPS: the count is within a few sigma of rate * seconds
    expected = inputs.OPEN_LOOP_RPS * 4.0
    assert abs(len(due) - expected) < 5 * expected ** 0.5
    share = sum(r.kind == "propagate" for r in reqs) / len(reqs)
    assert abs(share - inputs.PROPAGATE_SHARE) < 0.05


def test_phases_do_not_share_a_stream():
    a = list(itertools.islice(inputs.request_stream(1, inputs.PHASE_SINGLE), 100))
    b = list(itertools.islice(inputs.request_stream(1, inputs.PHASE_CLOSED), 100))
    assert a != b
