"""ArchGym-style design-space exploration over kernel + device knobs.

The autotuner (:mod:`repro.tune.search`) answers "best config on *this*
device"; the explorer answers the co-design question: over a joint
space of kernel knobs (CACHE_SIZE, thread-group size, schedule policy)
*and* :class:`~repro.gpusim.device.DeviceSpec` knobs (SM count, DRAM
bandwidth), where does the simulated time go?  That is the ArchGym
loop — an agent proposing design points, a simulator scoring them, a
trajectory log for analysis — with this repo's simulated GPU as the
environment.

Three search strategies share one evaluation budget semantics:

* ``random`` — uniform i.i.d. sampling (the ArchGym baseline agent);
* ``hill`` — stochastic hill-climbing: mutate one dimension of the
  incumbent, accept on improvement, restart from random on stall;
* ``evolve`` — a (mu + lambda) evolutionary strategy: truncation
  selection, per-dimension mutation, uniform crossover.

Every *unique* point is simulated once and memoized, so ``budget``
counts distinct simulations — strategies are compared at equal
simulator cost, not equal proposal count.  Runs are deterministic per
``seed``: same (space, strategy, budget, seed, graph) → bit-identical
trajectory, which the test-suite asserts.

Each evaluation appends one JSONL line to the trajectory (step,
proposed point, simulated time, incumbent best), the format consumed
by ``python -m repro.tune report``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.gpusim.device import DeviceSpec, get_device
from repro.kernels.base import stand_in_operands
from repro.kernels.gnnone import (
    CONSECUTIVE,
    ROUND_ROBIN,
    GnnOneConfig,
    GnnOneSDDMM,
    GnnOneSpMM,
)
from repro.sparse.coo import COOMatrix
from repro.utils.validation import check_in

STRATEGIES = ("random", "hill", "evolve")

#: kernel-knob axes (superset of the autotuner's candidate space)
CACHE_SIZES = (32, 64, 96, 128, 192, 256, 384, 512)
THREADS_PER_CTA = (64, 128, 256)
SCHEDULES = (CONSECUTIVE, ROUND_ROBIN)
#: device-knob axes: SM count (V100 / A30 / A100 / H100-ish) and DRAM
#: bandwidth (V100 / A100-40GB / A100-80GB class)
NUM_SMS = (80, 108, 132)
DRAM_GBPS = (900.0, 1555.0, 2039.0)


@dataclass(frozen=True)
class DesignSpace:
    """The discrete axes the explorer searches, in a fixed dimension order."""

    cache_sizes: tuple[int, ...] = CACHE_SIZES
    threads_per_cta: tuple[int, ...] = THREADS_PER_CTA
    schedules: tuple[str, ...] = SCHEDULES
    num_sms: tuple[int, ...] = NUM_SMS
    dram_gbps: tuple[float, ...] = DRAM_GBPS

    @property
    def dims(self) -> tuple[tuple, ...]:
        return (
            self.cache_sizes,
            self.threads_per_cta,
            self.schedules,
            self.num_sms,
            self.dram_gbps,
        )

    @property
    def size(self) -> int:
        n = 1
        for axis in self.dims:
            n *= len(axis)
        return n

    def point(self, idx: tuple[int, ...]) -> "DesignPoint":
        """Materialize the point at per-dimension indices ``idx``."""
        cache, tpc, sched, sms, bw = (
            axis[i] for axis, i in zip(self.dims, idx)
        )
        return DesignPoint(
            cache_size=cache, threads_per_cta=tpc, schedule=sched,
            num_sms=sms, dram_gbps=bw,
        )

    def random_index(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(int(rng.integers(len(axis))) for axis in self.dims)

    def mutate_index(
        self, idx: tuple[int, ...], rng: np.random.Generator
    ) -> tuple[int, ...]:
        """Re-draw one randomly chosen dimension (guaranteed change)."""
        dim = int(rng.integers(len(self.dims)))
        axis = self.dims[dim]
        if len(axis) == 1:
            return idx
        new = int(rng.integers(len(axis) - 1))
        if new >= idx[dim]:
            new += 1
        out = list(idx)
        out[dim] = new
        return tuple(out)


@dataclass(frozen=True)
class DesignPoint:
    """One joint (kernel config, device) candidate."""

    cache_size: int
    threads_per_cta: int
    schedule: str
    num_sms: int
    dram_gbps: float

    def kernel_config(self) -> GnnOneConfig:
        return GnnOneConfig(
            cache_size=self.cache_size,
            schedule=self.schedule,
            threads_per_cta=self.threads_per_cta,
        )

    def device(self, base: DeviceSpec) -> DeviceSpec:
        return dataclasses.replace(
            base,
            name=f"{base.name}+sms{self.num_sms}+bw{int(self.dram_gbps)}",
            num_sms=self.num_sms,
            dram_bandwidth_gbps=self.dram_gbps,
        )

    def to_dict(self) -> dict:
        return {
            "cache_size": self.cache_size,
            "threads_per_cta": self.threads_per_cta,
            "schedule": self.schedule,
            "num_sms": self.num_sms,
            "dram_gbps": self.dram_gbps,
        }


@dataclass
class ExploreResult:
    """Outcome of one exploration run."""

    strategy: str
    best_point: DesignPoint
    best_us: float
    evaluations: int
    #: (step, point, time_us, best-so-far-us) per unique evaluation
    trajectory: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "best_point": self.best_point.to_dict(),
            "best_us": self.best_us,
            "evaluations": self.evaluations,
        }


class _Evaluator:
    """Simulate (and memoize) design points for one (graph, kind, F)."""

    def __init__(
        self,
        A: COOMatrix,
        feature_length: int,
        kind: str,
        base_device: DeviceSpec,
    ) -> None:
        self.A = A
        self.f = int(feature_length)
        self.kind = kind
        self.base = base_device
        self._kernel_cls = GnnOneSpMM if kind == "spmm" else GnnOneSDDMM
        # Pricing launches: simulated time never reads operand values.
        self._operands = stand_in_operands(kind, A, self.f)
        self._memo: dict[DesignPoint, float] = {}

    @property
    def unique_evals(self) -> int:
        return len(self._memo)

    def __call__(self, point: DesignPoint) -> tuple[float, bool]:
        """(simulated microseconds, was this a fresh simulation)."""
        if point in self._memo:
            return self._memo[point], False
        kernel = self._kernel_cls(point.kernel_config())
        t = kernel(
            self.A, *self._operands, device=point.device(self.base), numerics=False
        ).time_us
        self._memo[point] = t
        return t, True


def explore(
    A: COOMatrix,
    feature_length: int,
    kind: str = "spmm",
    *,
    strategy: str = "random",
    space: DesignSpace | None = None,
    budget: int = 64,
    seed: int = 0,
    device: DeviceSpec | str | None = None,
    trajectory_path: str | Path | None = None,
) -> ExploreResult:
    """Search ``space`` for the fastest joint (config, device) point.

    ``budget`` bounds *unique* simulations; re-proposed points are
    served from the memo and do not consume it.  With
    ``trajectory_path`` each fresh evaluation appends one JSONL line.
    """
    check_in(kind, "kind", ("spmm", "sddmm"))
    check_in(strategy, "strategy", STRATEGIES)
    space = space or DesignSpace()
    base = get_device(device)
    budget = min(int(budget), space.size)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    ev = _Evaluator(A, feature_length, kind, base)
    trajectory: list[tuple[int, DesignPoint, float, float]] = []
    best: tuple[float, DesignPoint] | None = None

    def consider(idx: tuple[int, ...]) -> tuple[float, bool]:
        nonlocal best
        point = space.point(idx)
        t, fresh = ev(point)
        if fresh:
            if best is None or t < best[0]:
                best = (t, point)
            trajectory.append((ev.unique_evals, point, t, best[0]))
        return t, fresh

    with obs.span(
        "tune.explore", kind=kind, f=int(feature_length),
        strategy=strategy, budget=budget,
    ) as sp:
        if strategy == "random":
            while ev.unique_evals < budget:
                consider(space.random_index(rng))
        elif strategy == "hill":
            # Stochastic hill-climbing with random restarts: mutate one
            # dimension of the incumbent; accept improvements; restart
            # after `patience` consecutive rejections.
            patience = 8
            cur = space.random_index(rng)
            cur_t, _ = consider(cur)
            stall = 0
            while ev.unique_evals < budget:
                cand = space.mutate_index(cur, rng)
                t, fresh = consider(cand)
                if t < cur_t:
                    cur, cur_t, stall = cand, t, 0
                else:
                    stall += 1 if fresh else 0
                    if stall >= patience:
                        cur = space.random_index(rng)
                        cur_t, _ = consider(cur)
                        stall = 0
        else:  # evolve: (mu + lambda) with truncation selection
            mu, lam = 4, 8
            pop = []
            while len(pop) < mu and ev.unique_evals < budget:
                idx = space.random_index(rng)
                t, fresh = consider(idx)
                if fresh:
                    pop.append((t, idx))
            while ev.unique_evals < budget:
                pop.sort(key=lambda p: p[0])
                parents = pop[:mu]
                children = []
                for _ in range(lam):
                    if ev.unique_evals >= budget:
                        break
                    a = parents[int(rng.integers(len(parents)))][1]
                    b = parents[int(rng.integers(len(parents)))][1]
                    child = tuple(
                        a[d] if rng.random() < 0.5 else b[d]
                        for d in range(len(space.dims))
                    )
                    if rng.random() < 0.7:
                        child = space.mutate_index(child, rng)
                    t, fresh = consider(child)
                    if fresh:
                        children.append((t, child))
                if not children:
                    # population converged — inject fresh randoms
                    idx = space.random_index(rng)
                    t, fresh = consider(idx)
                    if fresh:
                        children.append((t, idx))
                    else:
                        continue
                pop = parents + children
        assert best is not None
        sp.set(evaluations=ev.unique_evals, best_us=best[0])
    obs.get_metrics().counter("tune.explore.evals").inc(ev.unique_evals)

    result = ExploreResult(
        strategy=strategy,
        best_point=best[1],
        best_us=best[0],
        evaluations=ev.unique_evals,
        trajectory=trajectory,
    )
    if trajectory_path is not None:
        write_trajectory(
            trajectory_path, result,
            A=A, feature_length=feature_length, kind=kind, seed=seed,
            base_device=base,
        )
    return result


def write_trajectory(
    path: str | Path,
    result: ExploreResult,
    *,
    A: COOMatrix,
    feature_length: int,
    kind: str,
    seed: int,
    base_device: DeviceSpec,
) -> int:
    """Append the run's per-evaluation JSONL lines; return lines written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "structure_token": str(A.structure_token),
        "kind": kind,
        "f": int(feature_length),
        "strategy": result.strategy,
        "seed": int(seed),
        "base_device": base_device.name,
    }
    with path.open("a", encoding="utf-8") as fh:
        for step, point, t, best_us in result.trajectory:
            row = dict(header)
            row.update(
                step=step, point=point.to_dict(),
                time_us=t, best_us=best_us,
            )
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return len(result.trajectory)


def read_trajectory(path: str | Path) -> list[dict]:
    """Parse a trajectory JSONL file (skipping malformed lines)."""
    rows: list[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def trajectory_report(rows: list[dict]) -> dict:
    """Summarize a trajectory: best point per (structure, kind, strategy)."""
    groups: dict[tuple, dict] = {}
    for row in rows:
        key = (
            row.get("structure_token", "?"),
            row.get("kind", "?"),
            row.get("f", 0),
            row.get("strategy", "?"),
        )
        g = groups.setdefault(
            key,
            {"evaluations": 0, "best_us": float("inf"), "best_point": None},
        )
        g["evaluations"] += 1
        t = float(row.get("time_us", float("inf")))
        if t < g["best_us"]:
            g["best_us"] = t
            g["best_point"] = row.get("point")
    return {
        "groups": [
            {
                "structure_token": k[0],
                "kind": k[1],
                "f": k[2],
                "strategy": k[3],
                **v,
            }
            for k, v in sorted(groups.items(), key=lambda kv: kv[0])
        ]
    }
