"""Half-line embedding: coefficients, certified norms, and distortion bounds."""

import math

import numpy as np
import pytest
import scipy.special

from wreathlab import embedding as emb, metric, walk
from wreathlab.errors import EstimationError, ResourceLimitError, ValidationError
from wreathlab.group import IDENTITY, GroupElement, LampConfig, element_from_text, inverse, multiply

from oracles import embedding_image
from test_group import random_element

ALPHA = 0.45


def direct_step_norm_squared(alpha: float, window: int = 20_000_000):
    """Independent bracket for the squared norm of the embedded unit step.

    Sums the explicit series in chunks, then closes it with the integral
    comparison: each remaining term ((j+1)^a - j^a)^2 lies between the values
    of (a d x^(a-1))^2 at the two window ends.
    """
    total = 0.0
    chunk = 5_000_000
    for start in range(1, window, chunk):
        j = np.arange(start, min(start + chunk, window), dtype=float)
        total += float((((j + 1) ** alpha - j**alpha) ** 2).sum())
    n = float(window)
    lo = alpha**2 * (n + 1) ** (2 * alpha - 1) / (1 - 2 * alpha)
    hi = alpha**2 * n ** (2 * alpha - 1) / (1 - 2 * alpha)
    return (3.0 + 2.0 * (total + lo), 3.0 + 2.0 * (total + hi))


class TestCoefficients:
    """The key-level oracle's coefficients of g minus the identity follow the definition."""

    def test_empty_restriction_right_of_origin(self):
        _, _, coefficients = embedding_image(element_from_text("-3;"), ALPHA)
        assert coefficients[("right", 2, ())] == pytest.approx(5**ALPHA - 2**ALPHA)

    def test_mismatched_restriction_gives_zero(self):
        # g's key at 2 carries its lamp, so the identity's empty key is left unmatched
        _, _, coefficients = embedding_image(element_from_text("0; 3:1"), ALPHA)
        assert coefficients[("right", 2, ((3, 1),))] == pytest.approx(2**ALPHA)
        assert coefficients[("right", 2, ())] == pytest.approx(-(2**ALPHA))

    def test_lamp_behind_the_cut_is_invisible(self):
        # a lamp at 0 restricted to [1, inf) vanishes, so g shares the empty key
        _, _, coefficients = embedding_image(element_from_text("-1; 0:1"), ALPHA)
        assert coefficients[("right", 1, ())] == pytest.approx(2**ALPHA - 1.0)

    def test_wrong_side_of_cursor_gives_zero(self):
        _, _, coefficients = embedding_image(element_from_text("5;"), ALPHA)
        assert coefficients[("right", 2, ())] == pytest.approx(-(2**ALPHA))

    def test_left_side(self):
        _, _, coefficients = embedding_image(element_from_text("0; -4:2, 1:1"), ALPHA)
        assert coefficients[("left", -3, ((-4, 2),))] == pytest.approx(3**ALPHA)

    def test_alpha_domain(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValidationError):
                emb.embedding_norm(element_from_text("1;"), bad)


class TestHurwitzZeta:
    """The in-package port returns scipy's double exactly, on the tail series' domain."""

    @staticmethod
    def assert_equals_scipy(s, q):
        assert emb.hurwitz_zeta(s, q) == float(scipy.special.zeta(s, q)), (s, q)

    def test_equals_scipy_on_the_series_grid(self):
        # the orders and shifts shifted_power_tail meets, where s log q < 700;
        # every point takes the Euler-Maclaurin tail and its early exit
        rng = np.random.default_rng(2024)
        shifts = [16.0, 17.0, 64.0, 1000.0, 4.0 * 2**17, 1e7]
        shifts += [float(q) for q in np.exp(rng.uniform(math.log(16), math.log(1e8), 12))]
        for alpha in (0.05, 0.25, 0.45, 0.49):
            for p in range(2, 61):
                s = p - 2 * alpha
                for q in shifts:
                    if s * math.log(q) < 700.0:
                        self.assert_equals_scipy(s, q)

    @pytest.mark.parametrize("s, q", [
        # the direct sum's terms fall below MACHEP relative: early exit, and at
        # (30.8, 4.0) a looser threshold would move the last bit
        (99.1, 16.0), (30.8, 4.0), (40.5, 0.5),
        # the Euler-Maclaurin tail: s near 1, and 9 of its 12 terms, the most any
        # point of the domain takes (so the last three coefficients never act)
        (1.02, 16.0), (150.8, 74.5),
        (2.0, 1.0),  # a shift below 9: the direct sum runs on past a = 9
        (3.1, 1e8),  # the last shift summed directly
        (3.1, 1e8 + 1), (38.0, 1e8 + 1),  # the asymptotic branch
    ])
    def test_equals_scipy_on_each_branch(self, s, q):
        self.assert_equals_scipy(s, q)

    @pytest.mark.parametrize("s, q", [
        (1.0, 16.0), (0.5, 16.0), (2.0, 0.0), (2.0, -1.5), (math.nan, 16.0), (2.0, math.nan),
        (700.0 / math.log(16.0), 16.0), (300.0, 0.05),  # q^-s near the ends of the float range
    ])
    def test_outside_the_domain_is_refused(self, s, q):
        with pytest.raises(ValidationError):
            emb.hurwitz_zeta(s, q)


class TestTailSeries:
    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            alpha = float(rng.uniform(0.05, 0.499))
            m0 = int(rng.integers(5, 300))
            delta = min(float(rng.uniform(0.1, 30.0)), 0.25 * m0)
            estimate, remainder = emb.shifted_power_tail(delta, m0, alpha, 1e-10)
            m = np.arange(m0, m0 + 1_500_000, dtype=float)
            window = float((((m + delta) ** alpha - m**alpha) ** 2).sum())
            n = m[-1] + 1.0
            lo = (alpha * delta) ** 2 * (n + delta) ** (2 * alpha - 1) / (1 - 2 * alpha)
            hi = (alpha * delta) ** 2 * n ** (2 * alpha - 1) / (1 - 2 * alpha)
            assert estimate - remainder <= window + hi + 1e-12
            assert window + lo - 1e-12 <= estimate + remainder

    def test_zero_shift(self):
        assert emb.shifted_power_tail(0, 10, ALPHA, 1e-12) == (0.0, 0.0)

    def test_requires_small_ratio(self):
        with pytest.raises(ValidationError):
            emb.shifted_power_tail(5, 10, ALPHA, 1e-9)

    def test_refuses_past_the_order_cap(self, monkeypatch):
        monkeypatch.setattr(emb, "SERIES_MAX_ORDER", 2)
        with pytest.raises(ResourceLimitError, match="^tail series did not certify within the order cap$"):
            emb.shifted_power_tail.__wrapped__(1, 4, ALPHA, 1e-12)  # past the cache

    def test_remainder_below_tolerance(self):
        for tol in (1e-6, 1e-9, 1e-12):
            _, remainder = emb.shifted_power_tail(3, 40, ALPHA, tol)
            assert remainder <= tol

    def test_cached_value_equals_uncached(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            m0 = int(rng.integers(1, 400))
            args = (
                int(rng.integers(0, m0 // 4 + 1)), m0,
                float(rng.uniform(0.05, 0.499)), float(10.0 ** -rng.integers(6, 13)),
            )
            expected = emb.shifted_power_tail.__wrapped__(*args)
            assert emb.shifted_power_tail(*args) == expected
            assert emb.shifted_power_tail(*args) == expected  # now from the cache

    def test_orders_past_the_float_range_take_the_bracket(self, monkeypatch):
        # at m0 = 8,000,001 the orders from 45 on have s ln m0 >= 700; a tolerance
        # of 1.25e-19 certifies only at order 49, 1e-12 at order 38
        delta, m0, alpha, tol = 2_000_000, 8_000_001, 0.45, 1.25e-19
        orders = []
        zeta = emb.hurwitz_zeta

        def recorded(s, q):
            orders.append(round(s + 2 * alpha))
            return zeta(s, q)

        monkeypatch.setattr(emb, "hurwitz_zeta", recorded)
        estimate, bound = emb.shifted_power_tail.__wrapped__(delta, m0, alpha, tol)
        assert orders == list(range(2, 45))
        assert (44 - 2 * alpha) * math.log(m0) < 700.0 <= (45 - 2 * alpha) * math.log(m0)
        # the rigorous remainder after order 44 alone is above tol: the series went on
        u = delta / m0
        assert 2 * alpha**2 * m0 ** (2 * alpha) * (1 + m0 / (44 - 2 * alpha)) * u**45 / (1 - u) > tol
        assert bound <= tol
        assert estimate == emb.shifted_power_tail.__wrapped__(delta, m0, alpha, 1e-12)[0]

    def test_bracket_holds_against_hurwitz_zeta(self):
        # the integral comparison behind the bracket: q^s zeta(s, q) lies in
        # [q/(s-1), 1 + q/(s-1)]
        for alpha in (0.05, 0.25, 0.45, 0.49):
            for p in (2, 10, 40, 100):
                s = p - 2 * alpha
                for q in (17, 1000, 4 * 2**17 + 1):
                    if s * math.log(q) < 700.0:
                        scaled = q**s * emb.hurwitz_zeta(s, q)
                        assert q / (s - 1) <= scaled <= 1 + q / (s - 1), (alpha, p, q)

    @pytest.mark.parametrize("args", [(-1, 10, ALPHA, 1e-9), (5, 10, ALPHA, 1e-9), (1, 0, ALPHA, 1e-9)])
    def test_refused_input_raises_on_every_call(self, args):
        for _ in range(3):
            with pytest.raises(ValidationError):
                emb.shifted_power_tail(*args)

    def test_pipeline_scan_computes_few_series(self):
        # ball 6 plus the balanced families: 1,200 norms, two tails each
        elements = emb.ball_elements(6)
        for prefactor in emb.BALANCED_PREFACTORS:
            elements += emb.balanced_family(ALPHA, prefactor)
        emb.shifted_power_tail.cache_clear()
        emb.norm_observations(elements, ALPHA, 1e-6)
        info = emb.shifted_power_tail.cache_info()
        assert info.hits + info.misses == 2 * len(elements) == 2400
        assert info.misses <= 32
        assert emb.tail_cache_info() == info


class TestNorms:
    def test_lamp_generator_is_exactly_one(self):
        value, bound = emb.embedding_norm(element_from_text("0; 0:1"), ALPHA)
        assert value == 1.0
        assert bound == 0.0

    def test_step_generator_matches_direct_summation(self):
        value, bound = emb.embedding_norm(element_from_text("1;"), ALPHA, 1e-6)
        lo, hi = direct_step_norm_squared(ALPHA)
        slack = bound * (2 * value + bound)
        assert lo - slack <= value * value <= hi + slack
        assert hi - lo < 1e-8

    def test_error_bound_respects_request(self, rng):
        for eps in (1e-6, 1e-7, 1e-9):
            for _ in range(10):
                a, b = random_element(rng), random_element(rng)
                if a == b:
                    continue
                _, bound = emb.embedding_distance(a, b, ALPHA, eps)
                assert bound <= eps

    def test_identical_elements(self):
        g = element_from_text("2; 1:4")
        assert emb.embedding_distance(g, g, ALPHA) == (0.0, 0.0)

    def test_refinement_stays_within_original_bound(self, rng):
        # recomputing at eps/10 is the certified-precision contract check
        for _ in range(100):
            a, b = random_element(rng), random_element(rng)
            if a == b:
                continue
            v1, e1 = emb.embedding_distance(a, b, ALPHA, 1e-6)
            v2, _ = emb.embedding_distance(a, b, ALPHA, 1e-7)
            assert abs(v1 - v2) <= e1

    def test_translation_invariance(self, rng):
        # (g b)^-1 (g a) is b^-1 a in exact arithmetic, so the distance is the same float
        for _ in range(60):
            a, b, g = (random_element(rng) for _ in range(3))
            assert emb.embedding_distance(multiply(g, a), multiply(g, b), ALPHA) == (
                emb.embedding_distance(a, b, ALPHA)
            )

    def test_wider_window_agrees(self, monkeypatch):
        a = element_from_text("3; -2:1, 5:-4")
        b = element_from_text("-1; 0:2")
        v1, e1 = emb.embedding_distance(a, b, ALPHA, 1e-6)
        monkeypatch.setattr(emb, "BASE_MARGIN", 128)
        v2, e2 = emb.embedding_distance(a, b, ALPHA, 1e-6)
        assert abs(v1 - v2) <= e1 + e2

    def test_eps_floor(self):
        with pytest.raises(ValidationError):
            emb.embedding_norm(element_from_text("1;"), ALPHA, 1e-12)

    def test_symmetry(self, rng):
        for _ in range(30):
            a, b = random_element(rng), random_element(rng)
            v1, e1 = emb.embedding_distance(a, b, ALPHA)
            v2, e2 = emb.embedding_distance(b, a, ALPHA)
            assert abs(v1 - v2) <= e1 + e2


def restriction(g, side, n):
    """The lamps of g on [n, inf) ("right") or (-inf, n] ("left")."""
    return tuple((p, v) for p, v in g.lamps.entries if (p >= n if side == "right" else p <= n))


def mirror(g):
    """The image of g under n -> -n: lamps (p -> f(-p)) and cursor -k."""
    return GroupElement(LampConfig(tuple((-p, v) for p, v in reversed(g.lamps.entries))), -g.cursor)


def nearby_pairs(rng, count):
    """Random pairs, half of them b = a g for a small g, so lamps partly agree."""
    for index in range(count):
        a = random_element(rng)
        if index % 2:
            yield a, random_element(rng)
        else:
            g = GroupElement(
                LampConfig(((int(rng.integers(-3, 4)), 1),)), int(rng.integers(-3, 4))
            )
            yield a, multiply(a, g)


class TestHalfLineWindow:
    """The distance is the norm of b^-1 a, whose window sum compares restrictions
    by one threshold, and the left side is the right side of the mirror image."""

    def test_threshold_rule_matches_restrictions(self, rng):
        # a and b agree on a half-line at n exactly when b^-1 a is empty on it at
        # n - k_b, which is when n - k_b lies past its last (or before its first) lamp
        for a, b in nearby_pairs(rng, 80):
            h = multiply(inverse(b), a)
            last = max(h.lamps.support(), default=-math.inf)
            first = min(h.lamps.support(), default=math.inf)
            margin = max(4 * abs(a.cursor - b.cursor), emb.BASE_MARGIN)
            ends = list(a.lamps.support()) + list(b.lamps.support()) + [a.cursor, b.cursor]
            for n in range(min(ends) - margin, max(ends) + margin + 1):
                m = n - b.cursor
                for side, empty in (("right", m > last), ("left", m < first)):
                    assert (restriction(a, side, n) == restriction(b, side, n)) == empty, (a, b, side, n)
                    assert (restriction(h, side, m) == ()) == empty

    def test_distance_is_the_norm_of_b_inverse_a(self, rng):
        for a, b in nearby_pairs(rng, 80):
            for alpha, eps in ((ALPHA, 1e-6), (0.2, 1e-8)):
                assert emb.embedding_distance(a, b, alpha, eps) == (
                    emb.embedding_norm(multiply(inverse(b), a), alpha, eps)
                )
            assert emb.embedding_distance(a, IDENTITY, ALPHA) == emb.embedding_norm(a, ALPHA)

    def test_shared_far_lamp_leaves_the_distance_alone(self, rng):
        # a lamp equal in a and b cancels in b^-1 a, so however far out it lies
        # it changes no bit, and the key-level oracle of b^-1 a still agrees
        for a, b in nearby_pairs(rng, 40):
            far = 40 + int(rng.integers(0, 40))
            for position in (far, -far):
                lit = [
                    GroupElement(LampConfig(tuple(sorted({**dict(g.lamps.entries), position: 2}.items()))), g.cursor)
                    for g in (a, b)
                ]
                value, bound = emb.embedding_distance(*lit, ALPHA)
                assert (value, bound) == emb.embedding_distance(a, b, ALPHA)
                squared, slack, _ = embedding_image(multiply(inverse(lit[1]), lit[0]), ALPHA)
                assert abs(value * value - squared) <= slack + bound * (2 * value + bound) + 1e-12 * squared

    def test_every_distance_and_scan_element_is_one_norm_call(self, monkeypatch, rng):
        calls = []
        norm = emb.embedding_norm

        def counted(g, alpha, eps=1e-6):
            calls.append(g)
            return norm(g, alpha, eps)

        monkeypatch.setattr(emb, "embedding_norm", counted)
        pairs = list(nearby_pairs(rng, 20))
        for a, b in pairs:
            emb.embedding_distance(a, b, ALPHA)
        assert calls == [multiply(inverse(b), a) for a, b in pairs]
        calls.clear()
        elements = emb.random_elements(30, 3)
        emb.compression_scan(ALPHA, elements, 1e-6)
        assert calls == elements

    def test_mirror_is_a_symmetry_to_the_bit(self, rng):
        for a, b in nearby_pairs(rng, 80):
            assert mirror(mirror(a)) == a
            assert metric.distance(mirror(a), mirror(b)).total == metric.distance(a, b).total
            for alpha, eps in ((ALPHA, 1e-6), (0.2, 1e-8)):
                assert emb.embedding_distance(mirror(a), mirror(b), alpha, eps) == (
                    emb.embedding_distance(a, b, alpha, eps)
                )


class TestImage:
    """embedding_norm against the key-level oracle."""

    def test_norm_agrees_with_distance(self, rng):
        for _ in range(20):
            g = random_element(rng)
            if g == IDENTITY:
                continue
            squared, slack, _ = embedding_image(g, ALPHA)
            value, bound = emb.embedding_norm(g, ALPHA)
            assert abs(value * value - squared) <= slack + bound * (2 * value + bound) + 1e-12 * squared

    def test_explicit_coefficients_are_differences(self, rng):
        for _ in range(10):
            g = random_element(rng)
            _, _, coefficients = embedding_image(g, ALPHA)
            for (side, n, lamps), coefficient in coefficients.items():
                # a key's lamps never leak outside its half-line
                assert all((p >= n) if side == "right" else (p <= n) for p, _ in lamps)
                gap = n - g.cursor if side == "right" else g.cursor - n
                cg = float(gap) ** ALPHA if gap > 0 and lamps == restriction(g, side, n) else 0.0
                ce = float(abs(n)) ** ALPHA if n and (n > 0) == (side == "right") and not lamps else 0.0
                assert coefficient == pytest.approx(cg - ce, abs=1e-12)
                assert coefficient != 0.0

    def test_parts_decompose_the_norm(self, monkeypatch):
        g = element_from_text("2; 1:3")
        squared, slack, _ = embedding_image(g, ALPHA)
        calls = []
        norm_parts = emb._norm_parts
        monkeypatch.setattr(emb, "_norm_parts", lambda *args: calls.append(args) or norm_parts(*args))
        value, bound = emb.embedding_norm(g, ALPHA, 1e-6)
        assert calls == [(2, 1, 1, 9, ALPHA, 1e-6)]  # cursor, first and last lamp, sum v^2
        k, _, _, sumsq = calls[0][:4]
        exact = k * k + sumsq
        assert exact == 4 + 9  # cursor and lamp parts
        # value^2 is exact + phi, and the squared value is certified to bound (2 value + bound)
        phi = value * value - exact
        assert phi == pytest.approx(squared - exact, rel=1e-12, abs=slack + bound * (2 * value + bound))

    def test_lamp_generator_image_has_no_phi_keys(self):
        squared, slack, coefficients = embedding_image(element_from_text("0; 0:1"), ALPHA)
        assert coefficients == {}
        assert (squared, slack) == (1.0, 0.0)


def interior_twin(g, rng):
    """An element with g's cursor, first and last lamp positions and sum v^2 but
    other interior positions, its lamp values permuted and their signs flipped."""
    support = g.lamps.support()
    inner = rng.choice(np.arange(support[0] + 1, support[-1]), len(support) - 2, replace=False)
    positions = [support[0], *sorted(int(p) for p in inner), support[-1]]
    values = [int(v) * int(rng.choice((-1, 1))) for _, v in g.lamps.entries]
    rng.shuffle(values)
    return GroupElement(LampConfig(tuple(zip(positions, values))), g.cursor)


class TestFourIntegers:
    """The norm reads g through its cursor, first and last lamp and sum v^2 alone."""

    def test_equal_integers_give_equal_norms(self):
        rng = np.random.default_rng(15)
        cases = 0
        while cases < 60:
            g = random_element(rng)
            if len(g.lamps.entries) < 3:
                continue
            twin = interior_twin(g, rng)
            if twin == g:
                continue
            cases += 1
            for alpha, eps in ((0.05, 1e-9), (ALPHA, 1e-6), (0.49, 0.5)):
                assert emb.embedding_norm(twin, alpha, eps) == emb.embedding_norm(g, alpha, eps), (g, twin)


class TestLipschitz:
    def test_audit_is_step_norm(self):
        audit = emb.lipschitz_audit(ALPHA).lipschitz
        step, _ = emb.embedding_norm(element_from_text("1;"), ALPHA, emb.EPS_FLOOR)
        assert audit == pytest.approx(step, abs=1e-12)
        assert audit >= 1.0

    def test_single_constant_across_alphas(self):
        for alpha in (0.30, 0.40, 0.45, 0.49):
            audit = emb.lipschitz_audit(alpha).lipschitz
            assert audit**2 * (1 - 2 * alpha) <= 2.0

    def test_norm_is_lipschitz_on_ball(self, ball4_elements):
        audit = emb.lipschitz_audit(ALPHA).lipschitz
        for g in ball4_elements:
            value, err = emb.embedding_norm(g, ALPHA)
            d = metric.distance(IDENTITY, g).total
            assert value <= audit * d + err + 1e-12


def lower_bound_terms(g):
    """k^2, the squared lamp mass, and sum_{l=1}^{spread} l^(2 alpha) with spread
    the farthest lamp from the cursor: each sits inside the squared norm."""
    spread = max((abs(p - g.cursor) for p in g.lamps.support()), default=0)
    travel = math.fsum(float(l) ** (2 * ALPHA) for l in range(1, spread + 1))
    return (float(g.cursor**2), float(sum(v * v for _, v in g.lamps.entries)), travel)


class TestLowerBound:
    def test_identity_is_all_zero(self):
        assert emb.embedding_norm(IDENTITY, ALPHA) == (0.0, 0.0)
        assert emb._norm_parts(0, math.inf, -math.inf, 0, ALPHA, 1e-6) == (0.0, 0.0)
        assert lower_bound_terms(IDENTITY) == (0.0, 0.0, 0.0)

    def test_three_lamps_example(self):
        k_term, lamp_term, travel_term = lower_bound_terms(element_from_text("0; 2:3"))
        assert k_term == 0.0
        assert lamp_term == 9.0
        assert travel_term == pytest.approx(1.0 + 2 ** (2 * ALPHA))

    def test_terms_below_norm_on_ball(self, ball4_elements):
        for g in ball4_elements:
            value, bound = emb.embedding_norm(g, ALPHA)
            ceiling = (value + bound) ** 2 * (1 + 1e-10) + 1e-12
            assert max(lower_bound_terms(g)) <= ceiling

    def test_shape_exponent(self):
        assert emb.lower_shape_exponent(ALPHA) == pytest.approx(
            (2 * ALPHA + 1) / (2 * ALPHA + 2)
        )


class TestScan:
    def test_observation_distances_positive(self, ball4_elements):
        observations = emb.norm_observations(ball4_elements, ALPHA, 1e-6)
        assert all(d >= 1 for d, _, _ in observations)

    def test_identity_rejected(self):
        with pytest.raises(ValidationError):
            emb.norm_observations([IDENTITY], ALPHA, 1e-6)

    def test_fit_requires_spread(self):
        observations = [(3, 2.0, 0.0)] * 10
        with pytest.raises(EstimationError):
            walk.fit_power_law([d for d, _, _ in observations], [v for _, v, _ in observations])

    def test_scan_smoke(self):
        report = emb.compression_scan(ALPHA, emb.random_elements(50, 3), 1e-6)
        assert len(report.observations) == 50
        assert report.fitted_lower_constant > 0
        assert report.lipschitz_max <= emb.lipschitz_audit(ALPHA).lipschitz + 1e-9

    def test_pure_cursor_ratio_diverges(self):
        family = emb.pure_cursor_family(100)
        observations = emb.norm_observations(family, ALPHA, 1e-6)
        shape = emb.lower_shape_exponent(ALPHA)
        ratios = [v / d**shape for d, v, _ in observations]
        # norms grow linearly in the distance, so the shape-normalized
        # ratio keeps climbing on this family
        assert ratios[-1] > 2 * ratios[0]
        assert ratios[-1] > ratios[len(ratios) // 2] > ratios[0]

    @pytest.mark.parametrize("family, match", [
        (lambda: emb.pure_cursor_family(0), "^k_max must be >= 1$"),
        (lambda: emb.pure_lamp_family(-1, 1), "^spread must be >= 0 and max_mass >= 1$"),
    ])
    def test_families_refuse_empty_ranges(self, family, match):
        with pytest.raises(ValidationError, match=match):
            family()

    def test_balanced_family_distances_exact(self):
        for prefactor in (1, 4):
            for g in emb.balanced_family(ALPHA, prefactor):
                spread = g.lamps.support()[-1]
                mass = sum(abs(v) for _, v in g.lamps.entries)
                assert metric.distance(IDENTITY, g).total == 2 * spread + mass

    def test_worst_balanced_exponent_near_shape(self):
        worst, fits = emb.worst_balanced_exponent(ALPHA)
        assert worst == min(fits.values())
        assert abs(worst - emb.lower_shape_exponent(ALPHA)) <= 0.05


class TestSampledElements:
    @pytest.mark.parametrize("spec, family", [
        ("random", lambda: emb.random_elements(30, 5)),
        ("ball:3", lambda: emb.ball_elements(3)[:30]),
        ("ball", lambda: emb.ball_elements(4)[:30]),
        ("cursor:12", lambda: emb.pure_cursor_family(12)),
        ("cursor", lambda: emb.pure_cursor_family(30)),
        ("lamp:2:20", lambda: emb.pure_lamp_family(2, 20)),
        ("lamp", lambda: emb.pure_lamp_family(3, 30)),
        ("balanced:2", lambda: emb.balanced_family(ALPHA, 2.0)[:30]),
        ("balanced", lambda: emb.balanced_family(ALPHA, 1.0)[:30]),
    ])
    def test_each_family(self, spec, family):
        assert emb.sampled_elements(spec, ALPHA, 30, 5) == family()

    def test_cursor_and_lamp_build_at_most_count(self, monkeypatch):
        built = []
        monkeypatch.setattr(emb, "pure_cursor_family", lambda k: built.append(k) or [])
        monkeypatch.setattr(emb, "pure_lamp_family", lambda spread, mass: built.append(mass) or [])
        emb.sampled_elements("cursor:1000000000000", ALPHA, 20, 0)
        emb.sampled_elements("lamp:3:1000000000000", ALPHA, 20, 0)
        assert built == [20, 20]

    @pytest.mark.parametrize("spec, match", [
        ("mystery", "^unknown sampler 'mystery'$"),
        ("ball:x", "^sampler 'ball:x' has a malformed number$"),
        ("cursor:abc", "^sampler 'cursor:abc' has a malformed number$"),
        ("lamp:3:q", "^sampler 'lamp:3:q' has a malformed number$"),
        ("balanced:zz", "^sampler 'balanced:zz' has a malformed number$"),
        ("balanced:nan", "^prefactor must be positive and finite$"),
        ("random:junk", "^sampler 'random:junk': random takes no argument$"),
    ])
    def test_unknown_and_malformed_specs_are_refused(self, spec, match):
        with pytest.raises(ValidationError, match=match):
            emb.sampled_elements(spec, ALPHA, 30, 5)
