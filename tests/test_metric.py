"""Word metric: closed form, its array form, search oracle, balls, and a size bracket."""

import numpy as np
import pytest

from wreathlab import hosts, metric
from wreathlab.errors import RadiusExceededError, ResourceLimitError, ValidationError
from wreathlab.group import IDENTITY, element_from_text, inverse, multiply

from test_group import random_element


class TestClosedForm:
    def test_generators_have_length_one(self):
        from wreathlab.group import canonical_generators

        for g in canonical_generators():
            assert metric.distance(IDENTITY, g).total == 1

    def test_three_lamps_off_to_the_side(self):
        # frozen output of the exhaustive search oracle
        w = metric.distance(IDENTITY, element_from_text("0; 2:3"))
        assert (w.total, w.lamp_cost, w.travel_cost) == (7, 3, 4)

    def test_lamps_on_both_sides(self):
        w = metric.distance(IDENTITY, element_from_text("0; -1:1, 1:1"))
        assert (w.total, w.lamp_cost, w.travel_cost) == (6, 2, 4)

    def test_pure_translation_is_degenerate(self):
        w = metric.distance(IDENTITY, element_from_text("5;"))
        assert (w.total, w.direction) == (5, "degenerate")

    def test_witness_accounting(self, rng):
        for _ in range(200):
            g = random_element(rng)
            w = metric.distance(IDENTITY, g)
            assert w.total == w.lamp_cost + w.travel_cost
            assert w.travel_cost >= abs(g.cursor)
            assert w.lamp_cost == sum(abs(v) for _, v in g.lamps.entries)

    def test_symmetry_and_left_invariance(self, rng):
        for _ in range(100):
            a, b, c = (random_element(rng) for _ in range(3))
            assert metric.distance(a, b).total == metric.distance(b, a).total
            assert (
                metric.distance(multiply(c, a), multiply(c, b)).total
                == metric.distance(a, b).total
            )

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (random_element(rng) for _ in range(3))
            ab = metric.distance(a, b).total
            bc = metric.distance(b, c).total
            ac = metric.distance(a, c).total
            assert ac <= ab + bc


def array_distances(pairs):
    """metric.distances over (a, b) pairs, all packed into one set of wreath rows."""
    a_rows = np.arange(0, 2 * len(pairs), 2)
    elements = [g for pair in pairs for g in pair]
    return hosts.WreathCayley().distances(elements, a_rows, a_rows + 1).tolist()


class TestArrayForm:
    """metric.distances against the scalar closed form it must equal."""

    def test_identity_to_ball8(self, ball8):
        pairs = [(IDENTITY, g) for g in ball8]
        got = array_distances(pairs)
        assert got == [metric.distance(a, b).total for a, b in pairs]
        assert got == [ball8.distance_of(g) for g in ball8]

    def test_ball8_from_a_base_point(self, ball8):
        base = element_from_text("-3; -5:2, 1:-1, 4:3")
        pairs = [(base, multiply(base, g)) for g in ball8]
        got = array_distances(pairs)
        assert got == [metric.distance(a, b).total for a, b in pairs]
        assert got == [ball8.distance_of(g) for g in ball8]

    def test_random_pairs(self, rng):
        pairs = [(random_element(rng), random_element(rng)) for _ in range(300)]
        for a, _ in pairs[:100]:
            # equal lamps: an empty lamp difference, with and without a cursor gap
            shifted = multiply(a, element_from_text(f"{int(rng.integers(-9, 10))};"))
            pairs += [(a, a), (a, shifted), (shifted, a)]
        assert any(a.cursor < 0 and b.cursor < 0 for a, b in pairs)
        assert any(a.lamps == b.lamps and a.cursor != b.cursor for a, b in pairs)
        assert array_distances(pairs) == [metric.distance(a, b).total for a, b in pairs]


class TestSearchOracle:
    def test_trivial(self):
        assert metric.distance_bfs(IDENTITY, IDENTITY, 0) == 0

    def test_agrees_on_moderate_random_elements(self, rng):
        for _ in range(40):
            g = random_element(rng)
            claimed = metric.distance(IDENTITY, g).total
            if claimed > 12:
                continue
            assert metric.distance_bfs(IDENTITY, g, claimed) == claimed

    def test_radius_too_small(self):
        with pytest.raises(RadiusExceededError):
            metric.distance_bfs(IDENTITY, element_from_text("0; 2:3"), 6)

    def test_negative_radius(self):
        with pytest.raises(ValidationError, match="^max_radius must be nonnegative$"):
            metric.distance_bfs(IDENTITY, IDENTITY, -1)


class TestBall:
    def test_radius_zero(self):
        table = metric.ball(0)
        assert len(table) == 1
        assert table.distance_of(IDENTITY) == 0

    def test_radius_one(self):
        table = metric.ball(1)
        assert len(table) == 5
        assert table.layer_sizes() == [1, 4]

    def test_layer_sizes_radius_eight(self, ball8):
        # frozen from an exhaustive breadth-first enumeration
        assert ball8.layer_sizes() == [1, 4, 12, 36, 100, 268, 704, 1812, 4600]

    def test_membership_and_lookup(self, ball8):
        g = element_from_text("0; 2:3")
        assert g in ball8
        assert ball8.distance_of(g) == 7

    def test_neighbors_of_interior_points_present(self, ball8):
        import itertools

        checked = 0
        for g in itertools.islice(iter(ball8), 300):
            if ball8.distance_of(g) >= ball8.radius:
                continue
            for n in metric.neighbors(g):
                assert n in ball8
            checked += 1
        assert checked > 0

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(metric, "DEFAULT_BALL_CAP", 100)
        with pytest.raises(ResourceLimitError):
            metric.ball(8)

    def test_cap_admits_the_exact_bound(self, monkeypatch):
        # |B_3| = 53 = 2 * 3^3 - 1: the 4-regular bound is exact up to radius 3
        monkeypatch.setattr(metric, "DEFAULT_BALL_CAP", 53)
        assert len(metric.ball(3)) == 53

    def test_cap_refused_before_any_search(self, monkeypatch):
        def no_search(g):
            raise AssertionError("the search started")

        monkeypatch.setattr(metric, "neighbors", no_search)
        monkeypatch.setattr(metric, "DEFAULT_BALL_CAP", 52)
        with pytest.raises(ResourceLimitError):
            metric.ball(3)

    def test_search_refuses_a_negative_radius(self):
        with pytest.raises(ValidationError, match="^radius must be nonnegative$"):
            metric.breadth_first([IDENTITY], metric.neighbors, -1)

    def test_search_stops_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(metric, "DEFAULT_BALL_CAP", 10)
        with pytest.raises(ResourceLimitError, match="^breadth-first search exceeded cap 10$"):
            metric.breadth_first([IDENTITY], metric.neighbors, 3)

    def test_oracle_reads_the_cap_at_call_time(self, monkeypatch):
        target = element_from_text("3;")
        monkeypatch.setattr(metric, "DEFAULT_BALL_CAP", 53)
        assert metric.distance_bfs(IDENTITY, target, 3) == 3
        monkeypatch.setattr(metric, "DEFAULT_BALL_CAP", 52)
        with pytest.raises(ResourceLimitError):
            metric.distance_bfs(IDENTITY, target, 3)


class TestProfile:
    def test_bracket_on_ball(self, ball8):
        # with spread the farthest lamp from the cursor k and mass the lamp
        # mass, the two sweeps sum to 4 (R - L), so the better one is at most
        # 2 (R - L) <= 2 (|k| + 2 spread)
        for g in ball8:
            k = abs(g.cursor)
            spread = max((abs(p - g.cursor) for p in g.lamps.support()), default=0)
            mass = sum(abs(v) for _, v in g.lamps.entries)
            assert max(k, spread, mass) <= ball8.distance_of(g) <= 2 * (k + 2 * spread) + mass
