"""Half-line embedding: coefficients, certified norms, and distortion bounds."""

import math

import numpy as np
import pytest

from wreathlab import embedding as emb, metric
from wreathlab.errors import EstimationError, InvariantViolation, ValidationError
from wreathlab.group import IDENTITY, GroupElement, LampConfig, element_from_text, multiply

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
    def test_empty_restriction_right_of_origin(self):
        key = emb.EmbeddingKey("right", 2, LampConfig(()))
        value = emb.half_line_coefficient(LampConfig(()), 0, key, ALPHA)
        assert value == pytest.approx(2**ALPHA)

    def test_mismatched_restriction_gives_zero(self):
        key = emb.EmbeddingKey("right", 2, LampConfig(((3, 1),)))
        assert emb.half_line_coefficient(LampConfig(()), 0, key, ALPHA) == 0.0

    def test_lamp_behind_the_cut_is_invisible(self):
        # a lamp at 0 restricted to [1, inf) vanishes, so the zero key matches
        key = emb.EmbeddingKey("right", 1, LampConfig(()))
        value = emb.half_line_coefficient(LampConfig(((0, 1),)), 0, key, ALPHA)
        assert value == pytest.approx(1.0)

    def test_wrong_side_of_cursor_gives_zero(self):
        key = emb.EmbeddingKey("right", 2, LampConfig(()))
        assert emb.half_line_coefficient(LampConfig(()), 5, key, ALPHA) == 0.0

    def test_left_side(self):
        key = emb.EmbeddingKey("left", -3, LampConfig(((-4, 2),)))
        lamps = LampConfig(((-4, 2), (1, 1)))
        assert emb.half_line_coefficient(lamps, 0, key, ALPHA) == pytest.approx(3**ALPHA)

    def test_key_rejects_leaking_restriction(self):
        with pytest.raises(ValidationError):
            emb.EmbeddingKey("right", 2, LampConfig(((0, 1),)))

    def test_restriction_helper(self):
        lamps = LampConfig(((-2, 1), (0, 3), (5, -1)))
        assert emb.half_line_restriction(lamps, "right", 0).entries == ((0, 3), (5, -1))
        assert emb.half_line_restriction(lamps, "left", 0).entries == ((-2, 1), (0, 3))
        assert emb.half_line_restriction(lamps, "right", 6).entries == ()

    def test_alpha_domain(self):
        key = emb.EmbeddingKey("right", 1, LampConfig(()))
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValidationError):
                emb.half_line_coefficient(LampConfig(()), 0, key, bad)


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

    def test_remainder_below_tolerance(self):
        for tol in (1e-6, 1e-9, 1e-12):
            _, remainder = emb.shifted_power_tail(3, 40, ALPHA, tol)
            assert remainder <= tol


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
        for _ in range(60):
            a, b, g = (random_element(rng) for _ in range(3))
            v1, e1 = emb.embedding_distance(a, b, ALPHA)
            v2, e2 = emb.embedding_distance(multiply(g, a), multiply(g, b), ALPHA)
            assert abs(v1 - v2) <= e1 + e2

    def test_wider_window_agrees(self):
        a = element_from_text("3; -2:1, 5:-4")
        b = element_from_text("-1; 0:2")
        v1, e1 = emb.embedding_distance(a, b, ALPHA, 1e-6)
        v2, e2 = emb.embedding_distance(a, b, ALPHA, 1e-6, margin=128)
        assert abs(v1 - v2) <= e1 + e2

    def test_margin_floor_enforced(self):
        a = element_from_text("8;")
        with pytest.raises(ValidationError):
            emb.embedding_distance(a, IDENTITY, ALPHA, 1e-6, margin=4)

    def test_eps_floor(self):
        with pytest.raises(ValidationError):
            emb.embedding_norm(element_from_text("1;"), ALPHA, 1e-12)

    def test_symmetry(self, rng):
        for _ in range(30):
            a, b = random_element(rng), random_element(rng)
            v1, e1 = emb.embedding_distance(a, b, ALPHA)
            v2, e2 = emb.embedding_distance(b, a, ALPHA)
            assert abs(v1 - v2) <= e1 + e2


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
    """The window sum compares restrictions by one threshold, and the left side
    is the right side of the mirror image."""

    def test_threshold_rule_matches_restrictions(self, rng):
        for a, b in nearby_pairs(rng, 80):
            support = set(a.lamps.support()) | set(b.lamps.support())
            differ = [p for p in support if a.lamps.value_at(p) != b.lamps.value_at(p)]
            last_diff = max(differ, default=-math.inf)
            first_diff = min(differ, default=math.inf)
            margin = max(4 * abs(a.cursor - b.cursor), emb.BASE_MARGIN)
            ends = list(support) + [a.cursor, b.cursor]
            for n in range(min(ends) - margin, max(ends) + margin + 1):
                for side, agree in (("right", n > last_diff), ("left", n < first_diff)):
                    ra = emb.half_line_restriction(a.lamps, side, n)
                    rb = emb.half_line_restriction(b.lamps, side, n)
                    assert (ra == rb) == agree, (a, b, side, n)

    def test_mirror_is_a_symmetry_to_the_bit(self, rng):
        for a, b in nearby_pairs(rng, 80):
            assert mirror(mirror(a)) == a
            assert metric.distance(mirror(a), mirror(b)).total == metric.distance(a, b).total
            for alpha, eps in ((ALPHA, 1e-6), (0.2, 1e-8)):
                assert emb.embedding_distance(mirror(a), mirror(b), alpha, eps) == (
                    emb.embedding_distance(a, b, alpha, eps)
                )


class TestImage:
    def test_norm_agrees_with_distance(self, rng):
        for _ in range(20):
            g = random_element(rng)
            if g == IDENTITY:
                continue
            image = emb.embedding_image(g, ALPHA)
            value, err = image.norm()
            direct, derr = emb.embedding_norm(g, ALPHA)
            assert abs(value - direct) <= err + derr

    def test_explicit_coefficients_are_differences(self, rng):
        for _ in range(10):
            g = random_element(rng)
            image = emb.embedding_image(g, ALPHA)
            for key, coefficient in image.phi_part.coefficients.items():
                cg = emb.half_line_coefficient(g.lamps, g.cursor, key, ALPHA)
                ce = emb.half_line_coefficient(LampConfig(()), 0, key, ALPHA)
                assert coefficient == pytest.approx(cg - ce, abs=1e-12)
                assert coefficient != 0.0

    def test_parts_decompose_the_norm(self):
        g = element_from_text("2; 1:3")
        image = emb.embedding_image(g, ALPHA)
        assert image.cursor_part == 2.0
        assert image.lamp_part == g.lamps
        value, _ = image.norm()
        phi2, phi_slack = image.phi_part.squared_norm()
        assert value**2 == pytest.approx(4.0 + 9.0 + phi2, rel=1e-12, abs=phi_slack)

    def test_tails_certify_their_mass(self):
        g = element_from_text("3;")
        image = emb.embedding_image(g, ALPHA)
        assert len(image.phi_part.tails) == 2
        for tail in image.phi_part.tails:
            assert tail.mass >= 0.0
            assert tail.certified_mass_bound >= tail.mass
            # recompute a stretch of the closed-form family explicitly
            direction = 1 if tail.side == "right" else -1
            total = 0.0
            for i in range(1, 2001):
                n = tail.cutoff + direction * i
                ca = abs(n - tail.cursor_a) ** ALPHA
                cb = abs(n - tail.cursor_b) ** ALPHA
                total += (ca - cb) ** 2
            assert total <= tail.certified_mass_bound

    def test_lamp_generator_image_has_no_phi_keys(self):
        image = emb.embedding_image(element_from_text("0; 0:1"), ALPHA)
        assert image.phi_part.coefficients == {}
        assert all(t.mass == 0.0 for t in image.phi_part.tails)


class TestLipschitz:
    def test_audit_is_step_norm(self):
        audit = emb.lipschitz_audit(ALPHA)
        step, _ = emb.embedding_norm(element_from_text("1;"), ALPHA, emb.EPS_FLOOR)
        assert audit == pytest.approx(step, abs=1e-12)
        assert audit >= 1.0

    def test_single_constant_across_alphas(self):
        for alpha in (0.30, 0.40, 0.45, 0.49):
            audit = emb.lipschitz_audit(alpha)
            assert audit**2 * (1 - 2 * alpha) <= 2.0

    def test_norm_is_lipschitz_on_ball(self, ball4_elements):
        audit = emb.lipschitz_audit(ALPHA)
        for g in ball4_elements:
            value, err = emb.embedding_norm(g, ALPHA)
            d = metric.distance(IDENTITY, g).total
            assert value <= audit * d + err + 1e-12


class TestLowerBound:
    def test_identity_is_all_zero(self):
        audit = emb.lower_bound_audit(IDENTITY, ALPHA)
        assert audit == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_three_lamps_example(self):
        audit = emb.lower_bound_audit(element_from_text("0; 2:3"), ALPHA)
        assert audit.k_term == 0.0
        assert audit.lamp_term == 9.0
        assert audit.travel_term == pytest.approx(1.0 + 2 ** (2 * ALPHA))

    def test_terms_below_norm_on_ball(self, ball4_elements):
        for g in ball4_elements:
            audit = emb.lower_bound_audit(g, ALPHA)
            ceiling = audit.norm2 * (1 + 1e-10) + 1e-12
            assert max(audit.k_term, audit.lamp_term, audit.travel_term) <= ceiling

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
            emb.fit_exponent(observations)

    def test_scan_smoke(self):
        report = emb.compression_scan(ALPHA, emb.random_elements(50, 3), 1e-6)
        assert len(report.observations) == 50
        assert report.fitted_lower_constant > 0
        assert report.lipschitz_max <= emb.lipschitz_audit(ALPHA) + 1e-9

    def test_pure_cursor_ratio_diverges(self):
        family = emb.pure_cursor_family(100)
        observations = emb.norm_observations(family, ALPHA, 1e-6)
        shape = emb.lower_shape_exponent(ALPHA)
        ratios = [v / d**shape for d, v, _ in observations]
        # norms grow linearly in the distance, so the shape-normalized
        # ratio keeps climbing on this family
        assert ratios[-1] > 2 * ratios[0]
        assert ratios[-1] > ratios[len(ratios) // 2] > ratios[0]

    def test_balanced_family_distances_exact(self):
        for prefactor in (1, 4):
            for g in emb.balanced_family(ALPHA, prefactor, 150):
                spread = g.lamps.support()[-1]
                mass = sum(abs(v) for _, v in g.lamps.entries)
                assert metric.distance(IDENTITY, g).total == 2 * spread + mass

    def test_worst_balanced_exponent_near_shape(self):
        worst, fits = emb.worst_balanced_exponent(ALPHA)
        assert worst == min(fits.values())
        assert abs(worst - emb.lower_shape_exponent(ALPHA)) <= 0.05
