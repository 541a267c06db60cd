"""Seeded workload inputs.

Everything a workload feeds the program derives from ``--seed`` alone:
the same seed gives byte-identical request pools, request sequences
and open-loop arrival times (``tests/test_inputs.py`` checks it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: serve-tcp traffic mix: share of ``propagate`` requests; the rest
#: are ``predict`` requests naming 2-4 node ids.
PROPAGATE_SHARE = 0.8
#: distinct propagate columns and predict id sets per run
POOL_SIZE = 64
#: phase (c) open-loop Poisson arrival rate: about half the closed-loop
#: capacity of phase (b) (2.1-2.3k req/s on a 2-vCPU virtual machine)
OPEN_LOOP_RPS = 1100.0
#: phase (b) closed-loop concurrency on the one connection
CLOSED_OUTSTANDING = 32

#: requests drawn from the generator at a time
STREAM_BLOCK = 4096

# One stream per phase, so a phase's requests do not depend on how many
# requests an earlier, time-bounded phase managed to send.
PHASE_SINGLE, PHASE_CLOSED, PHASE_OPEN = 1, 2, 3


@dataclass(frozen=True)
class Request:
    """``kind`` is ``"propagate"`` (``index`` into the column pool) or
    ``"predict"`` (``index`` into the id-set pool)."""

    kind: str
    index: int


@dataclass
class ServePool:
    columns: np.ndarray          # (POOL_SIZE, |V|) float64
    id_sets: list[np.ndarray]    # POOL_SIZE int64 arrays of 2-4 ids


def serve_pool(seed: int, num_vertices: int) -> ServePool:
    rng = np.random.default_rng([seed, 0])
    columns = rng.standard_normal((POOL_SIZE, num_vertices))
    sizes = rng.integers(2, 5, size=POOL_SIZE)
    id_sets = [rng.integers(0, num_vertices, size=int(k)).astype(np.int64) for k in sizes]
    return ServePool(columns, id_sets)


def request_stream(seed: int, phase: int):
    """Endless, seed-determined request sequence for one phase."""
    rng = np.random.default_rng([seed, phase])
    while True:
        kinds = rng.random(STREAM_BLOCK) < PROPAGATE_SHARE
        picks = rng.integers(0, POOL_SIZE, size=STREAM_BLOCK)
        for is_prop, idx in zip(kinds, picks):
            yield Request("propagate" if is_prop else "predict", int(idx))


def open_loop_schedule(seed: int, seconds: float) -> tuple[np.ndarray, list[Request]]:
    """Poisson arrivals: due offsets (s from phase start) and requests."""
    rng = np.random.default_rng([seed, PHASE_OPEN, 1])
    n = int(OPEN_LOOP_RPS * seconds * 1.5) + 16
    due = np.cumsum(rng.exponential(1.0 / OPEN_LOOP_RPS, size=n))
    due = due[due < seconds]
    stream = request_stream(seed, PHASE_OPEN)
    return due, [next(stream) for _ in range(len(due))]

