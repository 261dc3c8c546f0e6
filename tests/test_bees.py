import numpy as np
import pytest
from scipy import stats

import lidarplace as lp


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class _FixedDraws:
    """rng stand-in for ``propose``: every row moves coordinate ``column``.

    ``phi`` is the fixed move factor, or a Generator to draw it from.
    """

    def __init__(self, column, phi):
        self.column = column
        self.phi = phi

    def integers(self, low, high, size):
        return np.full(size, self.column)

    def uniform(self, low, high, size):
        if isinstance(self.phi, np.random.Generator):
            return self.phi.uniform(low, high, size)
        return np.full(size, self.phi)


def move(x, k, column, phi, lower, upper):
    """One local move of ``x`` toward/away from partner ``k`` along ``column``."""
    rows = lp.propose(np.array([x]), np.array([k]), _FixedDraws(column, phi), lower, upper)
    return rows[0]


class TestFitness:
    def test_reference_points(self):
        assert lp.fitness(0.0) == 1.0
        assert lp.fitness(1.0) == 0.5
        assert lp.fitness([0.0, 1.0]).tolist() == [1.0, 0.5]

    def test_strictly_decreasing(self):
        costs = np.linspace(0, 10, 50)
        fits = [lp.fitness(c) for c in costs]
        assert all(a > b for a, b in zip(fits, fits[1:]))

    def test_rejects_bad_costs(self):
        for bad in (-1.0, float("nan"), float("inf"), [0.0, -1.0]):
            with pytest.raises(ValueError):
                lp.fitness(bad)


class TestRouletteSelect:
    def test_uniform_fitness_uniform_frequencies(self):
        rng = np.random.default_rng(41)
        fits = np.ones(4)
        draws = lp.roulette_many(fits, rng, 100_000)
        freq = np.bincount(draws, minlength=4) / draws.size
        assert np.abs(freq - 0.25).max() < 0.02

    def test_three_to_one_odds(self):
        rng = np.random.default_rng(42)
        fits = np.array([3.0, 1.0])
        draws = lp.roulette_many(fits, rng, 100_000)
        freq = np.bincount(draws, minlength=2) / draws.size
        assert abs(freq[0] - 0.75) < 0.02
        assert abs(freq[1] - 0.25) < 0.02

    def test_selection_law_chi_square(self):
        rng = np.random.default_rng(43)
        fits = np.array([0.5, 0.25, 0.15, 0.10])
        n = 50_000
        draws = lp.roulette_many(fits, rng, n)
        counts = np.bincount(draws, minlength=4)
        expected = fits / fits.sum() * n
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-6

    def test_dominant_source_takes_nearly_all_draws(self):
        rng = np.random.default_rng(47)
        fits = np.array([1.0, 1e-9, 1e-9, 1e-9])
        n = 20_000
        draws = lp.roulette_many(fits, rng, n)
        assert np.count_nonzero(draws == 0) >= n - 2

    def test_rejects_non_positive(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError):
            lp.roulette_many([1.0, 0.0], rng, 1)


class TestNeighbor:
    def test_equal_partner_is_noop(self):
        rng = np.random.default_rng(45)
        x = np.array([1.0, 2.0, 3.0])
        lo, hi = np.full(3, -10.0), np.full(3, 10.0)
        for j in range(3):
            assert np.array_equal(move(x, x.copy(), j, rng, lo, hi), x)

    def test_zero_phi_is_noop(self):
        x = np.array([1.0, 2.0])
        k = np.array([0.5, -1.0])
        lo, hi = np.full(2, -5.0), np.full(2, 5.0)
        assert np.array_equal(move(x, k, 1, 0.0, lo, hi), x)

    def test_clamped_to_upper_bound(self):
        x = np.array([1.0])
        k = np.array([0.0])
        v = move(x, k, 0, 0.9, np.array([0.0]), np.array([1.5]))
        assert v[0] == 1.5  # 1 + 0.9 * (1 - 0) = 1.9, clamped

    def test_only_chosen_dimension_moves(self):
        rng = np.random.default_rng(46)
        x = np.array([1.0, 2.0, 3.0])
        k = np.array([0.0, 0.0, 0.0])
        lo, hi = np.full(3, -10.0), np.full(3, 10.0)
        v = move(x, k, 2, rng, lo, hi)
        assert v[0] == x[0] and v[1] == x[1]


class TestOptimize:
    BOUNDS = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))

    def test_sphere_reaches_near_zero(self):
        params = lp.AbcParams(num_bees=30, max_iterations=200, rng_seed=1)
        result = lp.optimize(sphere, self.BOUNDS, params)
        assert result.best_cost < 1e-3
        # independent check: ABC beats a coarse grid search (even point count,
        # so the lattice does not contain the exact optimum)
        axis = np.linspace(-5, 5, 100)
        grid_best = min(sphere(np.array([a, b])) for a in axis for b in axis)
        assert result.best_cost <= grid_best

    def test_history_contract(self):
        params = lp.AbcParams(num_bees=10, max_iterations=50, rng_seed=2)
        result = lp.optimize(sphere, self.BOUNDS, params)
        assert result.history.shape == (50, 2)
        assert np.all(np.diff(result.history[:, 0]) <= 0)
        assert result.history[-1, 0] == result.best_cost

    def test_fixed_seed_bit_identical(self):
        params = lp.AbcParams(num_bees=12, max_iterations=40, rng_seed=3)
        a = lp.optimize(sphere, self.BOUNDS, params)
        b = lp.optimize(sphere, self.BOUNDS, params)
        assert np.array_equal(a.best_solution, b.best_solution)
        assert a.best_cost == b.best_cost
        assert np.array_equal(a.history, b.history)

    def test_threads_do_not_change_results(self):
        params = lp.AbcParams(num_bees=12, max_iterations=40, rng_seed=4)
        serial = lp.optimize(sphere, self.BOUNDS, params, threads=1)
        parallel = lp.optimize(sphere, self.BOUNDS, params, threads=4)
        assert np.array_equal(serial.best_solution, parallel.best_solution)
        assert np.array_equal(serial.history, parallel.history)

    def test_every_candidate_stays_in_box(self):
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return sphere(x)

        params = lp.AbcParams(num_bees=8, max_iterations=30, abandonment_threshold=5, rng_seed=5)
        result = lp.optimize(recording, self.BOUNDS, params)
        stacked = np.vstack(seen)
        assert np.all(stacked >= self.BOUNDS[0]) and np.all(stacked <= self.BOUNDS[1])
        for source in result.population:
            assert np.all(source.solution >= self.BOUNDS[0])
            assert np.all(source.solution <= self.BOUNDS[1])
            assert source.stagnation >= 0
            assert source.fitness == 1.0 / (1.0 + source.cost)

    def test_constant_objective_scouts_every_source(self):
        params = lp.AbcParams(num_bees=4, max_iterations=60, abandonment_threshold=5, rng_seed=6)
        result = lp.optimize(lambda x: 1.0, self.BOUNDS, params)
        assert np.all(result.scout_counts >= 1)
        assert np.all(result.history[:, 0] == result.history[0, 0])

    def test_improvement_resets_streak_before_threshold(self):
        # A strictly improvable objective with a tiny threshold still
        # converges without abandoning the best source every iteration.
        params = lp.AbcParams(num_bees=6, max_iterations=80, abandonment_threshold=3, rng_seed=7)
        result = lp.optimize(sphere, self.BOUNDS, params)
        assert result.best_cost < 1.0

    def test_negative_cost_rejected(self):
        params = lp.AbcParams(num_bees=4, max_iterations=5, rng_seed=8)
        with pytest.raises(ValueError):
            lp.optimize(lambda x: -1.0, self.BOUNDS, params)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            lp.AbcParams(num_bees=1, max_iterations=10)
        with pytest.raises(ValueError):
            lp.AbcParams(num_bees=5, max_iterations=0)
        with pytest.raises(ValueError):
            lp.AbcParams(num_bees=5, max_iterations=10, abandonment_threshold=0)

    def test_inverted_bounds_rejected(self):
        params = lp.AbcParams(num_bees=4, max_iterations=5)
        with pytest.raises(ValueError):
            lp.optimize(sphere, (np.array([1.0]), np.array([0.0])), params)

    def test_degenerate_dimension_stays_fixed(self):
        lo = np.array([-5.0, 2.0])
        hi = np.array([5.0, 2.0])
        params = lp.AbcParams(num_bees=6, max_iterations=30, rng_seed=9)
        result = lp.optimize(sphere, (lo, hi), params)
        assert result.best_solution[1] == 2.0

    def test_mutate_all_dims_toggle(self):
        params = lp.AbcParams(num_bees=10, max_iterations=60, rng_seed=10, mutate_all_dims=True)
        result = lp.optimize(sphere, self.BOUNDS, params)
        assert result.best_cost < 1e-2
