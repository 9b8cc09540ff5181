"""Random-walk sampling and the displacement-exponent estimators."""

import hashlib
import math
import multiprocessing

import numpy as np
import pytest

from wreathlab import walk
from wreathlab.errors import EstimationError, ValidationError
from wreathlab.group import IDENTITY, canonical_generators, multiply
from wreathlab.metric import witness_for

from conftest import FULL_TIMES, FULL_TRIALS


class TestSimulate:
    def test_time_zero_displacement(self):
        sample = walk.simulate("z", (0,), 20, 1)
        assert np.array_equal(sample.displacements, np.zeros((20, 1), dtype=np.int64))

    def test_displacement_never_exceeds_time(self):
        for group in walk.GROUPS:
            sample = walk.simulate(group, (1, 4, 16, 64), 100, 5)
            assert (sample.displacements <= np.array([1, 4, 16, 64])).all()
            assert (sample.displacements >= 0).all()

    def test_same_seed_bitwise_identical(self):
        a = walk.simulate("zwrz", (8, 32), 50, 9)
        b = walk.simulate("zwrz", (8, 32), 50, 9)
        assert np.array_equal(a.displacements, b.displacements)

    def test_different_seeds_differ(self):
        a = walk.simulate("zwrz", (64,), 50, 1)
        b = walk.simulate("zwrz", (64,), 50, 2)
        assert not np.array_equal(a.displacements, b.displacements)

    def test_trials_independent_of_batch(self):
        # per-trial streams: the first 10 trials of a 50-trial run match a 10-trial run
        small = walk.simulate("z", (16, 64), 10, 33)
        large = walk.simulate("z", (16, 64), 50, 33)
        assert np.array_equal(small.displacements, large.displacements[:10])

    def test_parity_on_the_line(self):
        # |position| at time t has the parity of t
        sample = walk.simulate("z", (5, 8), 200, 2)
        assert ((sample.displacements[:, 0] % 2) == 1).all()
        assert ((sample.displacements[:, 1] % 2) == 0).all()

    @pytest.mark.parametrize(
        "times",
        [(0,), (1,), (1, 2), (0, 1, 2, 3, 5, 8, 13, 64)],
        ids=["no-steps", "one-step", "one-step-intervals", "irregular"],
    )
    def test_wreath_split_matches_metric_witness(self, times):
        # replay each trial's step codes through the group law and compare the
        # recorded lamp/travel split with the closed-form metric witness; the
        # grids are no steps at all, one-step intervals, and an irregular grid
        # that starts at time 0 (no lamps, cursor at 0)
        seed = 11
        sample = walk.simulate("zwrz", times, 8, seed)
        assert sample.lamp_mass.shape == sample.displacements.shape
        assert sample.lamp_mass.dtype == sample.displacements.dtype
        if times[0] == 0:
            assert not sample.displacements[:, 0].any()
            assert not sample.lamp_mass[:, 0].any()
        generators = canonical_generators()
        sampled_cursors = []
        for trial in range(sample.trials):
            codes = walk._trial_rng(seed, trial).integers(0, 4, size=times[-1]).tolist()
            g = IDENTITY
            for step, code in enumerate(codes, start=1):
                g = multiply(g, generators[code])
                if step in times:
                    column = times.index(step)
                    witness = witness_for(g.lamps, g.cursor)
                    lamp = int(sample.lamp_mass[trial, column])
                    assert lamp == witness.lamp_cost
                    assert int(sample.displacements[trial, column]) - lamp == witness.travel_cost
                    sampled_cursors.append(g.cursor)
        if times[-1] == 64:
            assert min(sampled_cursors) < 0  # the lamp table offset is exercised

    def test_wreath_golden_sample(self, zwrz_sample):
        # sha256 of the seed-7 sample (2000 trials, 2^4..2^14) as the step-loop
        # kernel produced it; any change to the draws or the split shows here
        assert (
            hashlib.sha256(zwrz_sample.displacements.tobytes()).hexdigest()
            == "1d6415e9c535b67eb670e05b5a451042a2b2f227bbe03ebc499a4e62571d5908"
        )
        assert (
            hashlib.sha256(zwrz_sample.lamp_mass.tobytes()).hexdigest()
            == "552539801e029f881af391468b936358947135f569f522361fdf3c90b7b0fbcc"
        )

    def test_golden_sample_takes_the_pool_path(self):
        # on two or more CPUs the fixture splits into blocks, so the golden
        # hashes above check the pool's concatenation
        assert FULL_TRIALS * FULL_TIMES[-1] >= 2 * walk._WORK_FLOOR

    def test_split_into_lamp_mass_and_travel(self):
        sample = walk.simulate("zwrz", (4, 16, 64), 20, 2)
        lamp, travel = sample.split()
        assert np.array_equal(lamp.displacements, sample.lamp_mass)
        assert np.array_equal(lamp.displacements + travel.displacements, sample.displacements)
        assert (travel.displacements >= 0).all()
        with pytest.raises(ValidationError):
            walk.simulate("z", (4, 16), 5, 1).split()

    def test_lamp_mass_only_for_the_wreath_walk(self):
        assert walk.simulate("z", (4, 16), 5, 1).lamp_mass is None
        assert np.array_equal(walk.simulate("zwrz", (0,), 5, 1).lamp_mass, np.zeros((5, 1)))

    def test_line_matches_binomial_within_three_sigma(self):
        # mean |S_t| for the simple walk, computed from exact binomial weights
        t, trials = 256, 4000
        sample = walk.simulate("z", (t,), trials, 17)
        k = np.arange(0, t + 1)
        log_weights = (
            np.array([math.lgamma(t + 1) - math.lgamma(i + 1) - math.lgamma(t - i + 1) for i in k])
            - t * math.log(2.0)
        )
        weights = np.exp(log_weights)
        positions = np.abs(2 * k - t)
        exact_mean = float((weights * positions).sum())
        exact_second = float((weights * positions**2).sum())
        sigma = math.sqrt((exact_second - exact_mean**2) / trials)
        observed = float(sample.displacements.mean())
        assert abs(observed - exact_mean) <= 3 * sigma

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            walk.simulate("z", (4, 2), 10, 0)
        with pytest.raises(ValidationError):
            walk.simulate("z", (-1, 2), 10, 0)
        with pytest.raises(ValidationError):
            walk.simulate("z", (2, 4), 0, 0)
        with pytest.raises(ValidationError):
            walk.simulate("heisenberg", (2, 4), 10, 0)


def _fork_spy(monkeypatch):
    """The start methods simulate asks multiprocessing for, in order."""
    methods = []
    get_context = multiprocessing.get_context

    def spy(method):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return methods


FORK = ["fork"] if "fork" in multiprocessing.get_all_start_methods() else []


class TestBlocks:
    @pytest.mark.parametrize("group", walk.GROUPS)
    def test_pool_equals_trial_by_trial(self, monkeypatch, group):
        methods = _fork_spy(monkeypatch)
        monkeypatch.setattr(walk, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(walk, "_WORK_FLOOR", 1)
        times, seed = (0, 3, 16, 64), 13
        assert walk._block_bounds(7, times[-1]) == [(0, 2), (2, 4), (4, 7)]
        sample = walk.simulate(group, times, 7, seed)
        assert methods == FORK
        if group == "z":
            expected = np.stack([walk._line_trial(seed, i, times) for i in range(7)])
        else:
            split = [walk._wreath_trial(seed, i, times) for i in range(7)]
            expected = np.stack([out for out, _ in split])
            assert np.array_equal(sample.lamp_mass, np.stack([mass for _, mass in split]))
            assert sample.lamp_mass.dtype == np.int64
        assert np.array_equal(sample.displacements, expected)
        assert sample.displacements.dtype == np.int64

    def test_one_block_on_a_large_walk(self, monkeypatch):
        times, trials = (16, 1024, 2**14), 300
        assert trials * times[-1] >= walk._WORK_FLOOR
        pooled = walk.simulate("zwrz", times, trials, 4)
        methods = _fork_spy(monkeypatch)
        monkeypatch.setattr(walk, "_usable_cpus", lambda: 1)
        assert walk._block_bounds(trials, times[-1]) == [(0, trials)]
        single = walk.simulate("zwrz", times, trials, 4)
        assert methods == []
        assert np.array_equal(single.displacements, pooled.displacements)
        assert np.array_equal(single.lamp_mass, pooled.lamp_mass)

    def test_small_walks_stay_in_process(self, monkeypatch):
        methods = _fork_spy(monkeypatch)
        monkeypatch.setattr(walk, "_usable_cpus", lambda: 8)
        assert walk._block_bounds(20, 1024) == [(0, 20)]
        walk.simulate("zwrz", (16, 1024), 20, 3)
        assert methods == []
        # a block is never empty, even when steps alone would earn more blocks
        assert walk._block_bounds(2, walk._WORK_FLOOR * 4) == [(0, 1), (1, 2)]

    def test_many_short_trials_earn_blocks(self, monkeypatch):
        # 200,000 steps are far under the floor, but 50,000 trials' fixed costs are not
        monkeypatch.setattr(walk, "_usable_cpus", lambda: 2)
        assert walk._block_bounds(50000, 4) == [(0, 25000), (25000, 50000)]


class TestEstimateBeta:
    def test_exact_linear_growth(self):
        times = (2, 4, 8, 16, 32)
        displacements = np.tile(np.array(times, dtype=np.int64), (3, 1))
        sample = walk.WalkSample("z", times, displacements, 0)
        fit = walk.estimate_beta(sample)
        assert fit.beta_hat == pytest.approx(1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_power_law(self):
        times = (4, 16, 64, 256)
        displacements = np.array([[int(round(t**0.5)) for t in times]], dtype=np.int64)
        # perfect squares make the square-root law exact
        sample = walk.WalkSample("z", times, displacements, 0)
        fit = walk.estimate_beta(sample)
        assert fit.beta_hat == pytest.approx(0.5, abs=1e-12)

    def test_line_walk_in_diffusive_window(self, z_sample):
        fit = walk.estimate_beta(z_sample)
        assert 0.45 <= fit.beta_hat <= 0.55
        assert fit.r2 > 0.999

    def test_median_statistic_available(self, z_sample):
        fit = walk.estimate_beta(z_sample, statistic="median")
        assert 0.4 <= fit.beta_hat <= 0.6

    def test_wreath_walk_reproduces_frozen_fit(self, zwrz_sample):
        # frozen value of this exact deterministic computation; a drift here
        # means the stepping or fitting code changed behavior
        fit = walk.estimate_beta(zwrz_sample)
        assert fit.beta_hat == pytest.approx(0.6939980934690178, abs=1e-9)

    def test_wreath_median_envelope(self, zwrz_sample):
        # the median displacement rises strictly between the 0.7 and 0.8
        # power laws on the whole dyadic grid
        medians = zwrz_sample.median_displacement()
        for t, med in zip(zwrz_sample.times, medians):
            assert t**0.7 < med < t**0.8, (t, med)

    def test_needs_enough_positive_times(self):
        times = (1, 2, 4)
        displacements = np.ones((5, 3), dtype=np.int64)
        sample = walk.WalkSample("z", times, displacements, 0)
        with pytest.raises(EstimationError):
            walk.estimate_beta(sample)

    @pytest.mark.parametrize("x, y", [
        ([1, 2, 4], [1, 2, 4]),  # fewer than 4 points
        ([1, 2, 4, 8], [1, 0, 4, 8]),  # a nonpositive value
        ([0, 2, 4, 8], [1, 2, 4, 8]),
        ([10**6, 10**6 + 1, 10**6 + 2, 10**6 + 3], [1, 2, 3, 4]),  # one abscissa within allclose
    ])
    def test_power_law_fit_refusals(self, x, y):
        with pytest.raises(EstimationError):
            walk.fit_power_law(x, y)

    def test_power_law_fit_is_the_walk_fit(self, zwrz_sample):
        means = zwrz_sample.mean_displacement()
        assert walk.fit_power_law(zwrz_sample.times, means) == walk.estimate_beta(zwrz_sample)

    def test_mean_over_sqrt_t_stabilizes(self, z_sample):
        means = z_sample.mean_displacement()
        ratios = [m / math.sqrt(t) for t, m in zip(z_sample.times, means)]
        tail = ratios[-5:]
        assert max(tail) - min(tail) < 0.05 * np.mean(tail)


class TestEstimateTail:
    def test_threshold_below_one_gives_certainty(self):
        sample = walk.simulate("zwrz", (16, 64), 100, 3)
        estimate = walk.estimate_tail(sample, c=1e-9, beta=1.0)
        assert all(v == 1.0 for v in estimate.delta_hat.values())

    def test_threshold_above_t_gives_zero(self):
        sample = walk.simulate("zwrz", (16, 64), 100, 3)
        estimate = walk.estimate_tail(sample, c=10.0, beta=1.0)
        assert all(v == 0.0 for v in estimate.delta_hat.values())

    def test_values_are_probabilities_with_errors(self):
        sample = walk.simulate("zwrz", (16, 64, 256), 200, 4)
        estimate = walk.estimate_tail(sample, c=0.4, beta=0.75)
        for t in sample.times:
            v = estimate.delta_hat[t]
            se = estimate.standard_errors[t]
            assert 0.0 <= v <= 1.0
            assert se == pytest.approx(math.sqrt(v * (1 - v) / sample.trials))

    def test_input_validation(self):
        sample = walk.simulate("z", (16,), 10, 0)
        with pytest.raises(ValidationError):
            walk.estimate_tail(sample, c=-1.0, beta=0.5)
        with pytest.raises(ValidationError):
            walk.estimate_tail(sample, c=1.0, beta=1.5)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_rejects_non_finite_constant(self, c):
        # such a threshold is never met, so it would report an all-zero table
        sample = walk.simulate("z", (16,), 10, 0)
        with pytest.raises(ValidationError, match="finite"):
            walk.estimate_tail(sample, c=c, beta=0.5)


class TestRuleConstant:
    def test_definition(self, zwrz_sample):
        c = walk.median_rule_constant(zwrz_sample, 0.75, reference_time=1024)
        medians = dict(zip(zwrz_sample.times, zwrz_sample.median_displacement()))
        assert c == pytest.approx(0.5 * medians[1024] / 1024**0.75)

    def test_frozen_value(self, zwrz_sample):
        c = walk.median_rule_constant(zwrz_sample, 0.75)
        assert c == pytest.approx(0.40327183614545287, abs=1e-12)

    def test_reference_must_be_on_grid(self, zwrz_sample):
        with pytest.raises(ValidationError):
            walk.median_rule_constant(zwrz_sample, 0.75, reference_time=1000)

    def test_exceedance_stays_high_for_rule_constant(self, zwrz_sample):
        c = walk.median_rule_constant(zwrz_sample, 0.75)
        estimate = walk.estimate_tail(zwrz_sample, c, 0.75)
        tested = [t for t in zwrz_sample.times if t >= 64]
        assert min(estimate.delta_hat[t] for t in tested) >= 0.25
