"""Artificial bee colony search: a bounded black-box minimizer.

The colony keeps ``num_bees`` food sources (candidate solutions).  Each
iteration runs three phases:

* employed: every source tries one local move (one random coordinate nudged
  toward/away from a random partner) and keeps it only if strictly better;
* onlooker: ``num_bees`` fitness-proportional draws pick sources to retry the
  same local move, so good sources get more attempts;
* scout: a source that has failed ``abandonment_threshold`` times in a row is
  abandoned and resampled uniformly from the box.

The colony is held as columns, one row per source (solution, cost, failure
streak, scout count); ``optimize`` returns them read-only.

Fitness is ``1 / (1 + cost)``, so lower cost means proportionally more
onlooker attention.  Candidate moves are clamped into the box, the global
best is retained across scout restarts.  Every objective call runs on the
calling thread, in source order, so results are bit-identical for a fixed
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AbcParams",
    "SolveResult",
    "fitness",
    "roulette_many",
    "propose",
    "optimize",
]


# Colony limits, ~20x and ~160x the paper's 200 bees and 800 iterations.  A
# (num_bees, dim) float array takes 2 560 bytes per bee at 64 sensors' 320 pose
# variables, so each is at most 10 MiB; ``history`` takes 16 bytes and
# convergence.csv one row of at most 60 bytes per iteration: 2 MiB and 8 MB.
MAX_BEES = 2**12
MAX_ITERATIONS = 2**17


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
        if not 2 <= self.num_bees <= MAX_BEES:
            raise ValueError(f"num_bees must lie in [2, {MAX_BEES}] (local moves need a partner)")
        if not 1 <= self.max_iterations <= MAX_ITERATIONS:
            raise ValueError(f"max_iterations must lie in [1, {MAX_ITERATIONS}]")
        if self.abandonment_threshold < 1:
            raise ValueError("abandonment_threshold must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Best solution found, per-iteration convergence history, and the final colony.

    ``history`` has one ``(best_cost, mean_cost)`` row per iteration; the
    best-cost column is non-increasing.  The colony columns have one row per
    source: ``solutions`` ``(num_bees, dim)``, ``costs``, ``stagnation`` (the
    failure streak) and ``scout_counts`` (how often the source was
    abandoned); ``fitness(costs)`` gives its fitness.  ``history`` and the
    colony columns are read-only.
    """

    best_solution: np.ndarray
    best_cost: float
    history: np.ndarray
    solutions: np.ndarray = field(repr=False)
    costs: np.ndarray = field(repr=False)
    stagnation: np.ndarray = field(repr=False)
    scout_counts: np.ndarray = field(repr=False)


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
) -> SolveResult:
    """Minimize ``objective`` over the box ``bounds`` with a bee colony.

    ``objective`` must be pure, deterministic, and finite (non-negative) on
    the box.  Each phase draws its randomness first, then calls
    ``objective`` once per candidate, in source order, on the calling
    thread.
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

    def evaluate(batch: np.ndarray) -> np.ndarray:
        """Costs of the batch's rows; :func:`fitness` rejects invalid ones."""
        costs = np.fromiter(map(objective, batch), dtype=float, count=len(batch))
        fitness(costs)
        return costs

    solutions = rng.uniform(lower, upper, (tau, dim))
    costs = evaluate(solutions)
    stagnation = np.zeros(tau, dtype=np.int64)
    scout_counts = np.zeros(tau, dtype=np.int64)
    best = _improve_best(solutions, costs, (math.inf, None))
    history = np.empty((params.max_iterations, 2), dtype=float)

    for iteration in range(params.max_iterations):
        # Employed phase: one trial per source.  Onlooker phase:
        # fitness-proportional retries.  Each phase builds its trials from
        # a snapshot of the colony and then applies greedy replacement.
        for onlooker in (False, True):
            targets = roulette_many(fitness(costs), rng, tau) if onlooker else np.arange(tau)
            partners = _partners(rng, targets, tau)
            trials = propose(
                solutions[targets], solutions[partners], rng, lower, upper,
                params.mutate_all_dims,
            )
            trial_costs = evaluate(trials)
            for t, i in enumerate(targets):
                if trial_costs[t] < costs[i]:
                    solutions[i] = trials[t]
                    costs[i] = trial_costs[t]
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
            costs[scouts] = evaluate(fresh)
            stagnation[scouts] = 0
            scout_counts[scouts] += 1
            best = _improve_best(solutions, costs, best)

        history[iteration] = best[0], costs.mean()

    best_cost, best_solution = best
    for column in (history, solutions, costs, stagnation, scout_counts):
        column.flags.writeable = False
    return SolveResult(
        best_solution=best_solution,
        best_cost=best_cost,
        history=history,
        solutions=solutions,
        costs=costs,
        stagnation=stagnation,
        scout_counts=scout_counts,
    )
