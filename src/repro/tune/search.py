"""Model-pruned autotuning: rank candidates, simulate only the top-k.

Exhaustive :func:`repro.core.autotune.autotune` simulates every
(cache_size, schedule) candidate — cheap per trial but wasteful at
scale and unusable online.  :func:`learned_autotune` instead asks the
learned cost model (:mod:`repro.tune.model`) to rank the whole
candidate space from the graph census alone, then runs the *exact*
simulator only for the ``top_k`` ranked candidates and returns the
best of those.  The chosen config is therefore always backed by a real
simulated time (the model only prunes, never decides), and the final
pick degrades gracefully with model quality: a perfect model gives the
exhaustive answer at ``top_k/n`` of the cost; a mediocre one still
picks the best of a model-plausible shortlist.

The *regret* of a pruned search — ``chosen/best_exhaustive - 1`` — is
the contract quantity: :func:`measure_regret` computes it against a
fresh exhaustive search, the test-suite and ``scripts/bench_tune.py``
gate it (≤5% across the quick sweep), and every search records its
model-vs-simulator error so drift shows up in ``repro.obs`` before it
shows up as regret.

Spans: ``tune.predict`` (the batched ranking) and ``tune.search`` (the
whole pruned search, with ``trials_avoided`` / chosen-config attrs).
Counters: ``tune.search.calls``, ``tune.trials_avoided``, and the
``tune.model.rel_err`` histogram fed by the simulated top-k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.autotune import DEFAULT_CACHE_SIZES, TuneResult, autotune
from repro.gpusim.device import DeviceSpec, get_device
from repro.kernels.gnnone import CONSECUTIVE, ROUND_ROBIN, GnnOneConfig
from repro.sparse.coo import COOMatrix
from repro.sparse.stats import graph_feature_dict
from repro.tune.features import featurize_launch
from repro.tune.model import CostModel
from repro.utils.validation import check_in

#: exact simulations a pruned search may spend (the acceptance gate
#: budget: within 5% regret while simulating at most 3 of 8 candidates)
DEFAULT_TOP_K = 3


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one model-pruned search."""

    #: the chosen configuration (exact-simulated, best of the top-k)
    config: GnnOneConfig
    #: exact simulated time of the chosen configuration
    time_us: float
    #: (cache_size, schedule) -> exact simulated microseconds (top-k only)
    trials: dict
    #: (cache_size, schedule) -> model-predicted microseconds (all)
    predicted: dict
    #: candidates the model pruned away (never simulated)
    trials_avoided: int
    #: size of the full candidate space
    candidates: int

    @property
    def tune_result(self) -> TuneResult:
        """The :class:`~repro.core.autotune.TuneResult`-shaped view."""
        return TuneResult(config=self.config, time_us=self.time_us, trials=self.trials)


def rank_candidates(
    A: COOMatrix,
    feature_length: int,
    kind: str,
    model: CostModel,
    *,
    cache_sizes: tuple[int, ...] = DEFAULT_CACHE_SIZES,
    schedules: tuple[str, ...] = (CONSECUTIVE, ROUND_ROBIN),
    device: DeviceSpec | str | None = None,
) -> list[tuple[tuple[int, str], float]]:
    """((cache_size, schedule), predicted us) sorted fastest-first.

    One batched ``predict`` over the whole candidate space; the graph
    census is memoized per structure token, so ranking costs one model
    evaluation — no simulation.
    """
    check_in(kind, "kind", ("spmm", "sddmm"))
    dev = get_device(device)
    feats = graph_feature_dict(A)
    keys = [(c, s) for c in cache_sizes for s in schedules]
    with obs.span(
        "tune.predict", kind=kind, f=int(feature_length), candidates=len(keys)
    ):
        X = np.vstack(
            [
                featurize_launch(
                    feats,
                    kind=kind,
                    feature_length=feature_length,
                    cache_size=c,
                    schedule=s,
                    device=dev,
                )
                for c, s in keys
            ]
        )
        predicted = model.predict(X)
    obs.get_metrics().counter("tune.predict.calls").inc()
    order = np.argsort(predicted, kind="stable")
    return [(keys[i], float(predicted[i])) for i in order]


def learned_autotune(
    A: COOMatrix,
    feature_length: int,
    kind: str = "spmm",
    *,
    model: CostModel,
    cache_sizes: tuple[int, ...] = DEFAULT_CACHE_SIZES,
    schedules: tuple[str, ...] = (CONSECUTIVE, ROUND_ROBIN),
    device: DeviceSpec | str | None = None,
    top_k: int = DEFAULT_TOP_K,
) -> SearchResult:
    """Pick a config by ranking all candidates, simulating only ``top_k``.

    The exact simulations run through :func:`repro.core.autotune.autotune`
    restricted to the shortlist, so they share the pricing launches, the
    structural plan cache and the tune memo with every other caller.
    """
    dev = get_device(device)
    ranked = rank_candidates(
        A, feature_length, kind, model,
        cache_sizes=cache_sizes, schedules=schedules, device=dev,
    )
    k = max(1, min(int(top_k), len(ranked)))
    shortlist = [key for key, _ in ranked[:k]]
    with obs.span(
        "tune.search", kind=kind, f=int(feature_length),
        candidates=len(ranked), top_k=k,
    ) as sp:
        # Simulate the shortlist exactly.  Each (cache, schedule) runs
        # through the plain exhaustive tuner with a single-candidate
        # space so the trial-time machinery (pricing launches, plan
        # cache, memoization) stays in one place.  strategy="exact" is
        # pinned — inheriting REPRO_TUNE=learned here would recurse.
        trials: dict[tuple[int, str], float] = {}
        for cache, sched in shortlist:
            r = autotune(
                A, feature_length, kind,
                cache_sizes=(cache,), schedules=(sched,),
                device=dev, strategy="exact",
            )
            trials[(cache, sched)] = r.time_us
        best_key = min(trials, key=lambda key: trials[key])
        avoided = len(ranked) - k
        sp.set(
            trials_avoided=avoided,
            cache_size=best_key[0],
            schedule=best_key[1],
        )
        metrics = obs.get_metrics()
        metrics.counter("tune.search.calls").inc()
        metrics.counter("tune.trials_avoided").inc(avoided)
        # Model-error accounting: the simulated shortlist doubles as a
        # continuous calibration probe — relative error of the model on
        # exactly the candidates it promoted.
        predicted = dict(ranked)
        for key, sim_us in trials.items():
            rel = abs(predicted[key] - sim_us) / max(sim_us, 1e-9)
            metrics.histogram("tune.model.rel_err").observe(rel)
    return SearchResult(
        config=GnnOneConfig(cache_size=best_key[0], schedule=best_key[1]),
        time_us=trials[best_key],
        trials=trials,
        predicted={k_: v for k_, v in ranked},
        trials_avoided=avoided,
        candidates=len(ranked),
    )


@dataclass(frozen=True)
class RegretReport:
    """Pruned-vs-exhaustive comparison for one (graph, kind, F) point."""

    kind: str
    feature_length: int
    chosen: tuple[int, str]
    chosen_us: float
    best: tuple[int, str]
    best_us: float
    #: fractional simulated-time regret: ``chosen/best - 1`` (>= 0)
    regret: float
    trials_simulated: int
    trials_avoided: int
    candidates: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "f": self.feature_length,
            "chosen": list(self.chosen),
            "chosen_us": self.chosen_us,
            "best": list(self.best),
            "best_us": self.best_us,
            "regret": self.regret,
            "trials_simulated": self.trials_simulated,
            "trials_avoided": self.trials_avoided,
            "candidates": self.candidates,
        }


def measure_regret(
    A: COOMatrix,
    feature_length: int,
    kind: str,
    model: CostModel,
    *,
    cache_sizes: tuple[int, ...] = DEFAULT_CACHE_SIZES,
    schedules: tuple[str, ...] = (CONSECUTIVE, ROUND_ROBIN),
    device: DeviceSpec | str | None = None,
    top_k: int = DEFAULT_TOP_K,
) -> RegretReport:
    """Run pruned and exhaustive search side by side; report the regret.

    This is the mechanical form of the subsystem's contract: the
    pruned search must land within the regret bound of the exhaustive
    answer.  Tests and ``scripts/bench_tune.py --check`` call this per
    (seed graph, kind, F) point and gate on ``regret``.
    """
    pruned = learned_autotune(
        A, feature_length, kind, model=model,
        cache_sizes=cache_sizes, schedules=schedules,
        device=device, top_k=top_k,
    )
    exhaustive = autotune(
        A, feature_length, kind,
        cache_sizes=cache_sizes, schedules=schedules, device=device,
        strategy="exact",
    )
    best_key = min(exhaustive.trials, key=lambda key: exhaustive.trials[key])
    best_us = exhaustive.trials[best_key]
    chosen_key = min(pruned.trials, key=lambda key: pruned.trials[key])
    regret = (pruned.time_us - best_us) / best_us if best_us > 0 else 0.0
    return RegretReport(
        kind=kind,
        feature_length=int(feature_length),
        chosen=chosen_key,
        chosen_us=pruned.time_us,
        best=best_key,
        best_us=best_us,
        regret=max(0.0, regret),
        trials_simulated=len(pruned.trials),
        trials_avoided=pruned.trials_avoided,
        candidates=pruned.candidates,
    )
