"""Finite reversible chains, the delayed subset walk, and the replay bounds."""

import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from wreathlab import hosts, markov, metric
from wreathlab.errors import ResourceLimitError, ValidationError
from wreathlab.group import IDENTITY, encode


def two_state_flip():
    return markov.FiniteChain(
        (0, 1), np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


class TestChainValidation:
    def test_flip_chain_valid(self):
        chain = two_state_flip()
        assert chain.validate() == markov.chain_residuals(chain)

    def test_residuals_zero_for_exact_chain(self):
        residuals = markov.chain_residuals(two_state_flip())
        assert all(v == 0.0 for v in residuals.values())

    def test_rejects_non_stochastic_rows(self):
        chain = markov.FiniteChain(
            (0, 1), np.array([0.5, 0.5]), np.array([[0.2, 0.2], [0.5, 0.5]])
        )
        with pytest.raises(ValidationError):
            chain.validate()

    def test_rejects_non_reversible(self):
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        pi = np.full(3, 1 / 3)
        with pytest.raises(ValidationError):
            markov.FiniteChain((0, 1, 2), pi, a).validate()

    def test_random_chains_are_valid(self):
        for seed in range(30):
            chain = markov.random_reversible_chain(1 + seed % 9, seed)
            chain.validate()


def dense_residuals(chain):
    """The chain axioms' residuals with detailed balance as a dense n x n formula."""
    pi, a = chain.pi, chain.a
    balance = pi[:, None] * a
    return {
        "row-stochasticity": float(np.abs(a.sum(axis=1) - 1.0).max()),
        "pi-normalization": float(abs(math.fsum(pi.tolist()) - 1.0)),
        "stationarity": float(np.abs(pi @ a - pi).max()),
        "detailed-balance": float(np.abs(balance - balance.T).max()),
    }


class TestResidualsOracle:
    """chain_residuals on the nonzeros of a against the dense formulas."""

    def test_random_reversible_chains(self):
        for seed in range(40):
            chain = markov.random_reversible_chain(1 + seed % 11, seed)
            assert markov.chain_residuals(chain) == dense_residuals(chain)

    def test_wreath_delayed_walk(self):
        host = hosts.host_by_name("zwrz")
        fattened = hosts.union_of_balls(host, hosts.wreath_truncation(1, 1, 1), 1)
        chain = markov.delayed_walk(host, fattened)
        assert markov.chain_residuals(chain) == dense_residuals(chain)

    def test_broken_detailed_balance_keeps_its_residual(self):
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        chain = markov.FiniteChain((0, 1, 2), np.full(3, 1 / 3), a)
        residuals = markov.chain_residuals(chain)
        assert residuals == dense_residuals(chain)
        assert residuals["detailed-balance"] > markov.CHAIN_TOL
        with pytest.raises(ValidationError, match="detailed-balance"):
            chain.validate()

    def test_one_sided_entries(self):
        # random zero patterns leave pairs with a_ij > 0 but a_ji = 0 on both
        # sides of the diagonal, each with its own imbalance
        rng = np.random.default_rng(5)
        for n in range(2, 12):
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
            a[np.arange(n), np.arange(n)] += 0.1
            a /= a.sum(axis=1, keepdims=True)
            pi = rng.random(n)
            chain = markov.FiniteChain(tuple(range(n)), pi / pi.sum(), a)
            assert markov.chain_residuals(chain) == dense_residuals(chain)


class TestTypeInequality:
    def test_flip_alternates_and_satisfies_bound(self):
        chain = two_state_flip()
        points = np.array([[0.0], [1.0]])
        # odd powers of the flip move every state, so lhs stays 1
        lhs, rhs = markov.markov_type_sides(chain, points, 2.0, 3)
        assert lhs[2] == pytest.approx(1.0, abs=1e-15)
        assert 3 * rhs == pytest.approx(3.0, abs=1e-15)

    def test_t_one_is_equality(self):
        chain = markov.random_reversible_chain(6, 3)
        points = np.random.default_rng(0).standard_normal((6, 3))
        lhs, rhs = markov.markov_type_sides(chain, points, 2.0, 1)
        assert lhs == [pytest.approx(rhs, rel=1e-12)]

    def test_constant_embedding_gives_zero(self):
        chain = markov.random_reversible_chain(5, 1)
        points = np.ones((5, 2))
        lhs, rhs = markov.markov_type_sides(chain, points, 2.0, 7)
        assert (lhs, rhs) == ([0.0] * 7, 0.0)

    def test_requires_valid_inputs(self):
        chain = two_state_flip()
        points = np.array([[0.0], [1.0]])
        with pytest.raises(ValidationError):
            markov.markov_type_sides(chain, points, 2.0, 0)
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(ValidationError):
                markov.markov_type_sides(chain, points, p, 1)
        # one row per state: a flat array of one coordinate per state is refused too
        for bad in (np.zeros((3, 1)), np.array([0.0, 1.0])):
            with pytest.raises(ValidationError, match="one row"):
                markov.markov_type_sides(chain, bad, 2.0, 1)

    def test_quick_random_campaign(self):
        report = markov.markov_type_campaign(40, 8, 32, seed=11)
        assert report["pass"]
        assert report["maxViolation"] <= report["tolerance"]
        assert report["checks"] == 40 * 32

    def test_weighted_sum_is_frozen(self):
        # t = 1 makes the two sides one sum, so every campaign peaks at 0.0
        report = markov.markov_type_campaign(40, 8, 32, seed=11)
        assert report["maxViolation"] == 0.0
        assert report["worst"] == {"chain": 0, "states": 2, "t": 1}
        # on this chain, forming a term as pi_i (a_ij dp_ij), or summing with
        # plain float addition, moves the last bits; t = 1 keeps BLAS out
        chain = markov.random_reversible_chain(10, 6)
        points = np.random.default_rng(6).standard_normal((10, 3))
        assert markov.markov_type_sides(chain, points, 2.0, 1) == (
            [8.68228107690547], 8.68228107690547
        )


def dense_sides(chain, points, p, t):
    """Both sides at time t as dense formulas over np.linalg.matrix_power."""
    dp = ((points[:, None] - points[None]) ** 2).sum(axis=-1) ** (p / 2.0)
    pi = chain.pi[:, None]
    at = np.linalg.matrix_power(chain.a, t)
    return (
        math.fsum((pi * at * dp).ravel().tolist()),
        math.fsum((pi * chain.a * dp).ravel().tolist()),
    )


class TestSidesOracle:
    """markov_type_sides, which builds a^t step by step, against matrix_power."""

    @pytest.mark.parametrize(
        "host_name, subset, coordinates",
        [
            ("z", hosts.interval(-6, 6), lambda v: (v,)),
            ("z2", hosts.box(-2, 2, -1, 2), lambda v: v),
            ("zwrz", hosts.wreath_truncation(1, 1, 1),
             lambda g: (g.cursor,) + tuple(g.lamps.value_at(p) for p in range(-2, 3))),
        ],
    )
    def test_equal_on_delayed_walks(self, host_name, subset, coordinates):
        # every entry of a^t is a multiple of degree^-t, exact in any order of
        # products and sums, and the integer points make every |x_i - x_j|^2 exact
        chain = markov.delayed_walk(hosts.host_by_name(host_name), subset)
        points = np.array([coordinates(v) for v in chain.states], dtype=float)
        for p in (1.0, 2.0):
            lhs, rhs = markov.markov_type_sides(chain, points, p, 8)
            assert len(lhs) == 8
            for t in range(1, 9):
                want_lhs, want_rhs = dense_sides(chain, points, p, t)
                assert lhs[t - 1] == want_lhs, (p, t)
                assert rhs == want_rhs

    def test_random_chains_within_rounding(self):
        # each entry of a product of nonnegative n x n matrices is within
        # gamma_n ~ n u of its exact value, relatively (u = 2^-53), so a power
        # formed by t - 1 products, step by step or by squaring, is within about
        # (t - 1) n u of a^t entrywise. The sums have nonnegative terms, each
        # two rounded products, and fsum rounds once: the two lhs differ by at
        # most (2 t n + 6) u of the dense one.
        rng = np.random.default_rng(2)
        for seed in range(40):
            n = 1 + seed % 10
            chain = markov.random_reversible_chain(n, seed)
            points = rng.integers(-5, 6, size=(n, 3)).astype(float)
            lhs, rhs = markov.markov_type_sides(chain, points, 2.0, 8)
            for t in range(1, 9):
                want_lhs, want_rhs = dense_sides(chain, points, 2.0, t)
                assert abs(lhs[t - 1] - want_lhs) <= (2 * t * n + 6) * 2.0**-53 * want_lhs
                assert rhs == want_rhs


class TestDelayedWalk:
    def test_interval_matrix_is_exact(self):
        host = hosts.host_by_name("z")
        chain = markov.delayed_walk(host, hosts.interval(0, 2))
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
        assert np.array_equal(chain.a, expected)
        assert np.array_equal(chain.pi, np.full(3, 1 / 3))

    def test_interior_states_have_no_delay(self):
        host = hosts.host_by_name("z")
        chain = markov.delayed_walk(host, hosts.interval(-5, 5))
        interior = chain.states.index(0)
        assert chain.a[interior, interior] == 0.0

    def test_singleton_subset_is_absorbing(self):
        host = hosts.host_by_name("z")
        chain = markov.delayed_walk(host, (0,))
        assert chain.a == pytest.approx(np.array([[1.0]]))

    def test_disconnected_subset_still_reversible(self):
        host = hosts.host_by_name("z")
        chain = markov.delayed_walk(host, (0, 10))
        chain.validate()

    def test_grid_subset(self):
        host = hosts.host_by_name("z2")
        chain = markov.delayed_walk(host, hosts.box(0, 1, 0, 1))
        chain.validate()
        # corner of the 2x2 box keeps two of four moves inside
        assert chain.a[0, 0] == 0.5

    def test_rejects_duplicates(self):
        host = hosts.host_by_name("z")
        with pytest.raises(ValidationError, match="duplicate"):
            markov.delayed_walk(host, (0, 0, 1))

    def test_rejects_empty_subset(self):
        with pytest.raises(ValidationError, match="nonempty"):
            markov.delayed_walk(hosts.host_by_name("z"), ())

    def test_matrix_stays_off_huge_pages(self):
        # 2,001 states, 32 MB: numpy would ask huge pages for an array this large
        chain = markov.delayed_walk(hosts.host_by_name("z"), hosts.interval(-1000, 1000))
        # numpy's advice covers the 2 MiB-aligned middle of an array, not its ends
        eligible = _thp_eligible(chain.a.ctypes.data + chain.a.nbytes // 2)
        if eligible is None:
            pytest.skip("no THPeligible field in /proc/self/smaps")
        assert eligible == 0
        assert np.array_equal(np.diag(chain.a)[[0, 1, -1]], [0.5, 0.0, 0.5])


def _thp_eligible(address: int):
    """THPeligible of the mapping that holds address, or None where the kernel does not say."""
    try:
        with open("/proc/self/smaps", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    inside = False
    for line in lines:
        span = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
        if span:
            inside = int(span.group(1), 16) <= address < int(span.group(2), 16)
        elif inside and line.startswith("THPeligible:"):
            return int(line.split()[1])
    return None


class TestHostDistances:
    """host.distances in one array pass against the scalar host.distance."""

    @pytest.mark.parametrize(
        "host_name, core, radius",
        [
            ("z", hosts.interval(-6, 6), 3),
            ("z2", hosts.box(-2, 2, -2, 2), 2),
            ("zwrz", hosts.wreath_truncation(1, 1, 1), 1),
        ],
    )
    def test_equal_to_scalar_on_a_fattened_set(self, host_name, core, radius):
        host = hosts.host_by_name(host_name)
        vertices = hosts.union_of_balls(host, core, radius)
        i, j = np.triu_indices(len(vertices))
        got = host.distances(vertices, i, j)
        assert got.dtype == np.int64
        assert got.tolist() == [
            host.distance(vertices[a], vertices[b]) for a, b in zip(i.tolist(), j.tolist())
        ]


def test_interval_whose_chain_cannot_fit_is_refused_before_it_is_built():
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    n = math.isqrt(physical // 8) + 1  # one n x n float64 matrix alone is too big
    with pytest.raises(ResourceLimitError, match="physical memory"):
        hosts.interval(0, n)


class TestFattening:
    def test_single_point_interval(self):
        host = hosts.host_by_name("z")
        core = hosts.interval(0, 0)
        fattened = hosts.union_of_balls(host, core, 2)
        assert sorted(fattened) == [-2, -1, 0, 1, 2]
        assert len(fattened) - len(core) == 4

    def test_interval_growth_ratio(self):
        host = hosts.host_by_name("z")
        n, t = 30, 3
        core = hosts.interval(-n, n)
        fattened = hosts.union_of_balls(host, core, t)
        assert len(fattened) - len(core) == 2 * t
        # the replay reports the fattening's overhead ratio
        report = markov.delayed_walk_replay(
            host, hosts.interval(-n, n), t, lambda v: (float(v),), lambda s: s
        )
        assert report.ratio == pytest.approx(2 * t / (2 * n + 1))

    @pytest.mark.parametrize("radius", range(6))
    def test_union_of_one_ball_is_the_ball(self, radius):
        # hosts.union_of_balls and metric.ball share one breadth-first search
        fattened = hosts.union_of_balls(hosts.WreathCayley(), [IDENTITY], radius)
        assert fattened == sorted(metric.ball(radius), key=encode)

    def test_core_is_contained(self):
        host = hosts.host_by_name("z2")
        core = hosts.box(-2, 2, -2, 2)
        fattened = hosts.union_of_balls(host, core, 2)
        assert set(core) <= set(fattened)


class TestEmpiricalModulus:
    def test_suffix_minimum(self):
        rho = markov.empirical_modulus([3, 1, 2, 3], [5.0, 2.0, 4.0, 3.0])
        assert [rho(s) for s in (0.5, 1, 1.5, 2, 3)] == [2.0, 2.0, 3.0, 3.0, 3.0]
        with pytest.raises(ValidationError, match="beyond"):
            rho(3.5)

    @pytest.mark.parametrize(
        "distances, norms", [([], []), ([1, 2], [1.0]), ([1], [1.0, 2.0])]
    )
    def test_rejects_empty_or_unpaired_inputs(self, distances, norms):
        with pytest.raises(ValidationError, match="one norm per distance"):
            markov.empirical_modulus(distances, norms)


class TestReplay:
    def test_interval_sandwich_and_exact_upper(self):
        host = hosts.host_by_name("z")
        report = markov.delayed_walk_replay(
            host, hosts.interval(-20, 20), 4, lambda v: (float(v),), lambda s: s
        )
        assert report.upper == 4.0  # equals t for a 1-Lipschitz target at p = 2
        assert report.chain_lower <= report.markov_lhs <= report.markov_rhs <= report.upper
        assert report.restricted_avg == pytest.approx(report.chain_lower, abs=1e-9)
        assert report.lipschitz_max <= 1.0 + 1e-12

    def test_zero_modulus_collapses_lower(self):
        host = hosts.host_by_name("z")
        report = markov.delayed_walk_replay(
            host, hosts.interval(-5, 5), 2, lambda v: (float(v),), lambda s: 0.0
        )
        assert report.chain_lower == 0.0

    def test_time_zero(self):
        host = hosts.host_by_name("z")
        report = markov.delayed_walk_replay(
            host, hosts.interval(-5, 5), 0, lambda v: (float(v),), lambda s: s
        )
        assert report.chain_lower == 0.0
        assert report.upper == 0.0

    def test_grid_replay(self):
        host = hosts.host_by_name("z2")
        report = markov.delayed_walk_replay(
            host,
            hosts.box(-4, 4, -4, 4),
            2,
            lambda v: (float(v[0]), float(v[1])),
            lambda s: s / math.sqrt(2.0),
        )
        assert report.chain_lower <= report.upper

    def test_wreath_replay_with_empirical_modulus(self):
        host = hosts.host_by_name("zwrz")
        core = hosts.wreath_truncation(1, 1, 1)

        def emb(g):
            return (float(g.cursor),) + tuple(
                float(g.lamps.value_at(p)) for p in range(-2, 3)
            )

        report = markov.delayed_walk_replay(host, core, 1, emb, None)
        assert report.core_size == 81
        assert report.fattened_size == 189
        assert report.chain_lower <= report.markov_lhs <= report.upper

    def test_non_lipschitz_embedding_rejected(self):
        host = hosts.host_by_name("z")
        with pytest.raises(ValidationError):
            markov.delayed_walk_replay(
                host, hosts.interval(-3, 3), 1, lambda v: (2.0 * v,), lambda s: s
            )

    def test_modulus_exceeding_embedding_gap_rejected(self):
        host = hosts.host_by_name("z")
        with pytest.raises(ValidationError):
            markov.delayed_walk_replay(
                host, hosts.interval(-3, 3), 1, lambda v: (float(v),), lambda s: 2.0 * s
            )

    def test_nan_modulus_rejected(self):
        # nan fails every comparison, so no check against a gap can catch it
        with pytest.raises(ValidationError):
            markov.delayed_walk_replay(
                hosts.host_by_name("z"), hosts.interval(0, 5), 2, lambda v: (float(v),),
                lambda s: math.nan,
            )

    @pytest.mark.parametrize(
        "emb", [lambda v: float(v), lambda v: (float(v),) * (1 + v % 2)], ids=["scalar", "ragged"]
    )
    def test_embedding_without_one_row_per_state_rejected(self, emb):
        # emb returns a point, a sequence of coordinates, not a bare number; and
        # every point has the same number of coordinates
        with pytest.raises(ValidationError, match="one row"):
            markov.delayed_walk_replay(hosts.host_by_name("z"), hosts.interval(-3, 3), 1, emb, lambda s: s)

    def test_asymmetric_power_is_summed_term_by_term(self, monkeypatch):
        # no symmetry of a^t is assumed: each ordered pair is its own dense term
        power = np.linalg.matrix_power
        taken = []

        def skewed(a, t):
            at = power(a, t)
            at[0, 1] = np.nextafter(at[0, 1], np.inf)  # one ulp in the dtype of a^t
            taken.append(at)
            return at

        monkeypatch.setattr(np.linalg, "matrix_power", skewed)
        host, core = hosts.host_by_name("z"), hosts.interval(0, 5)
        report = markov.delayed_walk_replay(host, core, 2, lambda v: (float(v),), lambda s: s)
        (at,) = taken
        assert at[0, 1] != at[1, 0]
        x = np.array(hosts.union_of_balls(host, core, 2), dtype=float)
        pi = np.full(len(x), 1.0 / len(x))
        gap_p = (x[:, None] - x[None, :]) ** 2  # rho is the identity: both sums weigh the same
        want = math.fsum((pi[:, None] * at.astype(float) * gap_p).ravel().tolist())
        assert report.full_avg == want
        assert report.markov_lhs == want

    def test_core_order_does_not_matter_and_empty_is_refused(self, monkeypatch):
        host = hosts.host_by_name("zwrz")
        core = hosts.wreath_truncation(1, 1, 1)
        want = markov.delayed_walk_replay(host, core, 2, wreath_coordinates, None)
        for given in (list(reversed(core)), set(core)):
            assert markov.delayed_walk_replay(host, given, 2, wreath_coordinates, None) == want

        def unreachable(*args):
            raise AssertionError("a chain was built")

        monkeypatch.setattr(markov, "delayed_walk", unreachable)
        with pytest.raises(ValidationError, match="at least one center"):
            markov.delayed_walk_replay(host, [], 2, wreath_coordinates, None)


def dense_replay(host, core, t, emb, rho, p=2.0):
    """The replay's sums as dense n x n formulas over the full matrix power."""
    core, fattened = set(core), hosts.union_of_balls(host, core, t)
    chain = markov.delayed_walk(host, fattened)
    n, vertices, pi = chain.n, chain.states, chain.pi
    points = np.array([emb(v) for v in vertices], dtype=float).reshape(n, -1)
    at = np.linalg.matrix_power(chain.a, t)
    coupled = (chain.a > 0) | (at > 0)
    host_dist = np.zeros((n, n), dtype=int)
    emb_dist = np.zeros((n, n))
    for i, j in zip(*np.nonzero(coupled)):
        host_dist[i, j] = host.distance(vertices[i], vertices[j])
        emb_dist[i, j] = np.linalg.norm(points[i] - points[j])
    if rho is None:
        rho = markov.empirical_modulus(host_dist[coupled].astype(float), emb_dist[coupled])
    rho_p = np.zeros((n, n))
    for i, j in zip(*np.nonzero(coupled)):
        rho_p[i, j] = float(rho(float(host_dist[i, j]))) ** p
    emb_p = emb_dist**p
    core_rows = [vertices.index(v) for v in core]

    def weighted(w, x):
        return math.fsum((pi[:, None] * w * x).ravel().tolist())

    return {
        "core_size": len(core_rows),
        "fattened_size": n,
        "ratio": (len(fattened) - len(core)) / len(core),
        "t": t,
        "p": p,
        "lipschitz_max": float(emb_dist[coupled & (host_dist == 1)].max(initial=0.0)),
        "restricted_avg": math.fsum((at[core_rows] * rho_p[core_rows]).ravel().tolist()) / n,
        "full_avg": weighted(at, rho_p),
        "markov_lhs": weighted(at, emb_p) if t else 0.0,
        "markov_rhs": t * weighted(chain.a, emb_p) if t else 0.0,
        "upper": float(t),
    }


def wreath_coordinates(g):
    return (float(g.cursor),) + tuple(float(g.lamps.value_at(p)) for p in range(-3, 4))


class TestReplayOracle:
    """The pairwise replay against the dense n x n formulas."""

    @pytest.mark.parametrize(
        "host_name, core, t, emb, rho",
        [("z", hosts.interval(-15, 15), t, lambda v: (float(v),), lambda s: s) for t in range(5)]
        + [
            ("z2", hosts.box(-4, 4, -4, 4), 2,
             lambda v: (float(v[0]), float(v[1])), lambda s: s / math.sqrt(2.0)),
            ("zwrz", hosts.wreath_truncation(1, 1, 1), 1, wreath_coordinates, None),
            ("zwrz", hosts.wreath_truncation(1, 1, 1), 2, wreath_coordinates, None),
            # 4^13 = 2^26, past float32: a^t is taken in float64
            ("z2", [(0, 0)], 13, lambda v: (float(v[0]), float(v[1])), lambda s: s / math.sqrt(2.0)),
        ],
    )
    def test_bit_identical_on_integer_embeddings(self, host_name, core, t, emb, rho):
        host = hosts.host_by_name(host_name)
        report = markov.delayed_walk_replay(host, core, t, emb, rho)
        for field, want in dense_replay(host, core, t, emb, rho).items():
            assert getattr(report, field) == want, field
        links = {
            "chain_lower <= restricted_avg": (report.chain_lower, report.restricted_avg),
            "restricted_avg <= full_avg": (report.restricted_avg, report.full_avg),
            "full_avg <= markov_lhs": (report.full_avg, report.markov_lhs),
            "markov_lhs <= markov_rhs": (report.markov_lhs, report.markov_rhs),
            "markov_lhs <= upper": (report.markov_lhs, report.upper),
            "markov_rhs <= upper": (report.markov_rhs, report.upper),
        }
        assert [name for name, _ in report.slack] == list(links)
        for name, slack in report.slack:
            lo, hi = links[name]
            assert slack == hi - lo

    @pytest.mark.parametrize("t", range(5))
    def test_non_integer_embedding_within_rounding(self, t):
        host = hosts.host_by_name("z")
        core = hosts.interval(-15, 15)
        emb, rho = (lambda v: (0.6 * v, 0.8 * v)), (lambda s: 0.5 * s)
        report = markov.delayed_walk_replay(host, core, t, emb, rho)
        for field, want in dense_replay(host, core, t, emb, rho).items():
            assert getattr(report, field) == pytest.approx(want, rel=1e-12, abs=0.0), field

    @pytest.mark.parametrize(
        "host_name, core, t, emb, narrowest",
        [
            ("z2", [(0, 0)], 12, lambda v: (float(v[0]), float(v[1])), np.float32),  # 4^12 = 2^24
            ("z2", [(0, 0)], 13, lambda v: (float(v[0]), float(v[1])), np.float64),
            ("z", [0], 24, lambda v: (float(v),), np.float32),  # 2^24
            ("zwrz", hosts.wreath_truncation(1, 1, 1), 3, wreath_coordinates, np.float32),
        ],
    )
    def test_narrow_power_is_the_float64_power(self, monkeypatch, host_name, core, t, emb, narrowest):
        host = hosts.host_by_name(host_name)
        power = np.linalg.matrix_power
        taken = []

        def recorded(a, t):
            taken.append(power(a, t))
            return taken[-1]

        monkeypatch.setattr(np.linalg, "matrix_power", recorded)
        markov.delayed_walk_replay(host, core, t, emb, None)
        (at,) = taken
        chain = markov.delayed_walk(host, hosts.union_of_balls(host, core, t))
        assert at.dtype == narrowest
        assert np.array_equal(at, power(chain.a, t))

    def test_rejections_name_the_first_offending_pair(self):
        host = hosts.host_by_name("z")
        core = hosts.interval(-3, 3)
        with pytest.raises(ValidationError, match=r"pair \(-4, -3\) stretches to 2\.0$"):
            markov.delayed_walk_replay(host, core, 1, lambda v: (2.0 * v,), lambda s: s)
        with pytest.raises(ValidationError, match=r"pair \(-6, -3\): rho\(3\) = 3\.5 > 3\.0$"):
            markov.delayed_walk_replay(
                host, core, 3, lambda v: (float(v),), lambda s: s if s < 3 else 3.5
            )


class TestBoundCalculator:
    def test_exact_rational_values(self):
        assert markov.alpha_upper(Fraction(3, 4)) == Fraction(2, 3)
        assert markov.alpha_upper(Fraction(1, 2)) == 1
        assert markov.alpha_upper(Fraction(7, 8)) == Fraction(4, 7)

    def test_cap_at_one(self):
        assert markov.alpha_upper(Fraction(1, 4)) == 1

    def test_rejects_out_of_range(self):
        for beta in (0, Fraction(3, 2), math.nan, math.inf):
            with pytest.raises(ValidationError):
                markov.alpha_upper(beta)

    def test_iterated_table(self):
        table = markov.iterated_wreath_table(6)
        assert [row[1] for row in table] == [
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(7, 8),
            Fraction(15, 16),
            Fraction(31, 32),
            Fraction(63, 64),
        ]
        for k, beta, bound in table:
            assert bound == Fraction(1, 1) / (2 - Fraction(2) ** (1 - k))

    def test_display_sides(self):
        assert markov.compression_bound(0.25, 16) == 8.0

    @pytest.mark.parametrize("delta, t", [(0.0, 4), (1.5, 4), (math.nan, 4), (0.5, 0)])
    def test_compression_bound_rejects_bad_delta_or_t(self, delta, t):
        with pytest.raises(ValidationError):
            markov.compression_bound(delta, t)
