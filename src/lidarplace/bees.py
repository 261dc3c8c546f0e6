"""Artificial bee colony search: a bounded black-box minimizer.

The colony keeps ``num_bees`` food sources (candidate solutions).  Each
iteration runs three phases:

* employed: every source tries one local move (one random coordinate nudged
  toward/away from a random partner) and keeps it only if strictly better;
* onlooker: ``num_bees`` fitness-proportional draws pick sources to retry the
  same local move, so good sources get more attempts;
* scout: a source that has failed ``abandonment_threshold`` times in a row is
  abandoned and resampled uniformly from the box.

Fitness is ``1 / (1 + cost)``, so lower cost means proportionally more
onlooker attention.  Candidate moves are clamped into the box, the global
best is retained across scout restarts, and every random draw happens on the
main thread before objective evaluation, so results are bit-identical for a
fixed seed no matter how many worker threads evaluate the objective.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FoodSource",
    "AbcParams",
    "SolveResult",
    "fitness",
    "roulette_many",
    "propose",
    "optimize",
]


@dataclass
class FoodSource:
    """One candidate solution with its cost, fitness, and failure streak."""

    solution: np.ndarray
    cost: float
    fitness: float
    stagnation: int = 0


@dataclass(frozen=True)
class AbcParams:
    """Colony settings.

    ``mutate_all_dims`` switches the local move from the default single
    random coordinate to nudging every coordinate at once; it is off by
    default.
    """

    num_bees: int
    max_iterations: int
    abandonment_threshold: int = 100
    rng_seed: int = 0
    mutate_all_dims: bool = False

    def __post_init__(self):
        if self.num_bees < 2:
            raise ValueError("num_bees must be >= 2 (local moves need a partner)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.abandonment_threshold < 1:
            raise ValueError("abandonment_threshold must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Best solution found plus per-iteration convergence history.

    ``history`` has one ``(best_cost, mean_cost)`` row per iteration; the
    best-cost column is non-increasing.  ``population`` is the final colony
    state and ``scout_counts`` tallies how often each source was abandoned.
    """

    best_solution: np.ndarray
    best_cost: float
    history: np.ndarray
    population: tuple[FoodSource, ...] = field(repr=False, default=())
    scout_counts: np.ndarray = field(repr=False, default=None)

    @property
    def history_best(self) -> np.ndarray:
        return self.history[:, 0]

    @property
    def history_mean(self) -> np.ndarray:
        return self.history[:, 1]


def fitness(cost):
    """Map non-negative costs to fitness ``1 / (1 + cost)`` in (0, 1], elementwise."""
    cost = np.asarray(cost, dtype=float)
    if not np.all(np.isfinite(cost)) or np.any(cost < 0.0):
        raise ValueError("costs must be finite and non-negative")
    return 1.0 / (1.0 + cost)


def roulette_many(fitnesses, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` indices, each with probability proportional to its fitness."""
    fits = np.asarray(fitnesses, dtype=float)
    if fits.ndim != 1 or fits.size == 0 or np.any(fits <= 0.0) or not np.all(np.isfinite(fits)):
        raise ValueError("fitnesses must be a non-empty vector of positive finite values")
    cumulative = np.cumsum(fits)
    draws = rng.random(count) * cumulative[-1]
    picks = np.searchsorted(cumulative, draws, side="right")
    return np.minimum(picks, fits.size - 1)


def propose(
    base_rows: np.ndarray,
    partner_rows: np.ndarray,
    rng: np.random.Generator,
    lower: np.ndarray,
    upper: np.ndarray,
    all_dims: bool = False,
) -> np.ndarray:
    """Local move of each base row along its offset from the matching partner row.

    By default one random coordinate ``j`` per row becomes
    ``x[j] + phi * (x[j] - partner[j])`` with ``phi`` uniform in [-1, 1]; with
    ``all_dims`` every coordinate moves by its own ``phi``.  Results are
    clamped into the box ``[lower, upper]``.
    """
    n, dim = base_rows.shape
    if all_dims:
        phi = rng.uniform(-1.0, 1.0, (n, dim))
        trial = base_rows + phi * (base_rows - partner_rows)
    else:
        cols = rng.integers(0, dim, n)
        phi = rng.uniform(-1.0, 1.0, n)
        rows = np.arange(n)
        trial = base_rows.copy()
        trial[rows, cols] = base_rows[rows, cols] + phi * (
            base_rows[rows, cols] - partner_rows[rows, cols]
        )
    return np.clip(trial, lower, upper)


def _partners(rng: np.random.Generator, exclude: np.ndarray, size: int) -> np.ndarray:
    """Uniform partner indices in [0, size) never equal to ``exclude``."""
    k = rng.integers(0, size - 1, exclude.size)
    return k + (k >= exclude)


def _improve_best(solutions: np.ndarray, costs: np.ndarray, best: tuple):
    """``best`` as ``(cost, solution)``, replaced by the cheapest source if strictly cheaper."""
    m = int(np.argmin(costs))
    if costs[m] < best[0]:
        return float(costs[m]), solutions[m].copy()
    return best


def optimize(
    objective: Callable[[np.ndarray], float],
    bounds: tuple[Sequence[float], Sequence[float]],
    params: AbcParams,
    threads: int = 1,
) -> SolveResult:
    """Minimize ``objective`` over the box ``bounds`` with a bee colony.

    ``objective`` must be pure, deterministic, and finite (non-negative) on
    the box.  With ``threads > 1`` candidate evaluations within each phase run
    on a thread pool; all randomness is drawn up front on the main thread and
    results are applied in source order, so the outcome is identical to the
    single-threaded run.
    """
    lower = np.asarray(bounds[0], dtype=float)
    upper = np.asarray(bounds[1], dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape:
        raise ValueError("bounds must be two equal-length vectors")
    if np.any(lower > upper):
        raise ValueError("bounds inverted: lower must not exceed upper")
    dim = lower.size
    tau = params.num_bees
    rng = np.random.default_rng(params.rng_seed)

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def evaluate(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Costs of the batch's rows and their fitness; rejects invalid costs."""
        rows = list(batch)
        if pool is None:
            costs = [float(objective(row)) for row in rows]
        else:
            costs = [float(c) for c in pool.map(objective, rows)]
        costs = np.asarray(costs, dtype=float)
        return costs, fitness(costs)

    try:
        solutions = rng.uniform(lower, upper, (tau, dim))
        costs, fits = evaluate(solutions)
        stagnation = np.zeros(tau, dtype=np.int64)
        scout_counts = np.zeros(tau, dtype=np.int64)
        best = _improve_best(solutions, costs, (math.inf, None))
        history = np.empty((params.max_iterations, 2), dtype=float)

        for iteration in range(params.max_iterations):
            # Employed phase: one trial per source.  Onlooker phase:
            # fitness-proportional retries.  Each phase builds its trials from
            # a snapshot of the colony and then applies greedy replacement.
            for onlooker in (False, True):
                targets = roulette_many(fits, rng, tau) if onlooker else np.arange(tau)
                partners = _partners(rng, targets, tau)
                trials = propose(
                    solutions[targets], solutions[partners], rng, lower, upper,
                    params.mutate_all_dims,
                )
                trial_costs, trial_fits = evaluate(trials)
                for t, i in enumerate(targets):
                    if trial_costs[t] < costs[i]:
                        solutions[i] = trials[t]
                        costs[i] = trial_costs[t]
                        fits[i] = trial_fits[t]
                        stagnation[i] = 0
                    else:
                        stagnation[i] += 1
                best = _improve_best(solutions, costs, best)

            # Scout phase: abandon exhausted sources.  The streak can grow by
            # two per iteration, so the trigger is >= rather than ==.
            scouts = np.flatnonzero(stagnation >= params.abandonment_threshold)
            if scouts.size:
                fresh = rng.uniform(lower, upper, (scouts.size, dim))
                solutions[scouts] = fresh
                costs[scouts], fits[scouts] = evaluate(fresh)
                stagnation[scouts] = 0
                scout_counts[scouts] += 1
                best = _improve_best(solutions, costs, best)

            history[iteration] = best[0], costs.mean()
    finally:
        if pool is not None:
            pool.shutdown()

    best_cost, best_solution = best
    population = tuple(
        FoodSource(
            solution=solutions[i].copy(),
            cost=float(costs[i]),
            fitness=float(fits[i]),
            stagnation=int(stagnation[i]),
        )
        for i in range(tau)
    )
    history.flags.writeable = False
    scout_counts.flags.writeable = False
    return SolveResult(
        best_solution=best_solution,
        best_cost=best_cost,
        history=history,
        population=population,
        scout_counts=scout_counts,
    )
