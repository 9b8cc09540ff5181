"""Finite reversible chains, the delayed subset walk, and the replay bounds."""

import hashlib
import json
import math
import os
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wreathlab import cli, errors, hosts, markov, metric, walk
from wreathlab.errors import InvariantViolation, ResourceLimitError, ValidationError
from wreathlab.group import IDENTITY, GroupElement, LampConfig, encode

import oracles


def two_state_flip():
    return markov.FiniteChain.from_dense(
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
        chain = markov.FiniteChain.from_dense(
            (0, 1), np.array([0.5, 0.5]), np.array([[0.2, 0.2], [0.5, 0.5]])
        )
        with pytest.raises(ValidationError):
            chain.validate()

    def test_rejects_non_reversible(self):
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        pi = np.full(3, 1 / 3)
        with pytest.raises(ValidationError):
            markov.FiniteChain.from_dense((0, 1, 2), pi, a).validate()

    def test_random_chains_are_valid(self):
        for seed in range(30):
            chain = markov.random_reversible_chain(1 + seed % 9, seed)
            chain.validate()

    def test_rows_must_be_an_n_by_n_matrix_in_row_major_order(self):
        pi = np.full(2, 0.5)
        with pytest.raises(ValidationError, match="shape mismatch"):
            markov.FiniteChain.from_dense((0, 1), pi, np.eye(3))
        for rows, cols in (([1, 0], [0, 1]), ([0, 0], [1, 1]), ([0, 1], [1, 2]), ([0, -1], [1, 0])):
            chain = markov.FiniteChain((0, 1), pi, np.array(rows), np.array(cols), np.ones(2))
            with pytest.raises(ValidationError, match="row-major"):
                chain.validate()


def exact_residuals(chain):
    """The chain axioms' residuals in exact rational arithmetic over the float
    entries: each product pi_i a_ij rounded once, every sum exact, every
    residual rounded once. pi's residual is its correctly rounded sum minus 1."""
    a, pi, n = chain.dense(), chain.pi, chain.n
    flow = [[Fraction(float(pi[i] * a[i, j])) for j in range(n)] for i in range(n)]
    rows = [abs(sum(map(Fraction, a[i].tolist())) - 1) for i in range(n)]
    columns = [abs(sum(flow[i][j] for i in range(n)) - Fraction(pi[j])) for j in range(n)]
    balance = [abs(flow[i][j] - flow[j][i]) for i in range(n) for j in range(n)]
    return {
        "row-stochasticity": float(max(rows)),
        "pi-normalization": abs(float(sum(map(Fraction, pi.tolist()))) - 1.0),
        "stationarity": float(max(columns)),
        "detailed-balance": float(max(balance)),
    }


class TestResidualsOracle:
    """chain_residuals on the nonzeros of a against exact rational arithmetic."""

    def test_random_reversible_chains(self):
        for seed in range(40):
            chain = markov.random_reversible_chain(1 + seed % 11, seed)
            assert markov.chain_residuals(chain) == exact_residuals(chain)

    def test_wreath_delayed_walk(self):
        host = hosts.host_by_name("zwrz")
        fattened = hosts.union_of_balls(host, hosts.wreath_truncation(1, 1, 1), 1)
        chain = markov.delayed_walk(host, fattened)
        assert markov.chain_residuals(chain) == exact_residuals(chain)

    def test_broken_detailed_balance_keeps_its_residual(self):
        a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        chain = markov.FiniteChain.from_dense((0, 1, 2), np.full(3, 1 / 3), a)
        residuals = markov.chain_residuals(chain)
        assert residuals == exact_residuals(chain)
        assert residuals["detailed-balance"] > markov.CHAIN_TOL
        with pytest.raises(ValidationError, match="detailed-balance"):
            chain.validate()

    def test_state_no_row_enters(self):
        # column 1 holds no nonzero, so its stationarity sum is empty
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        chain = markov.FiniteChain.from_dense((0, 1), np.array([0.25, 0.75]), a)
        residuals = markov.chain_residuals(chain)
        assert residuals == exact_residuals(chain)
        assert residuals["stationarity"] == 0.75

    def test_one_sided_entries(self):
        # random zero patterns leave pairs with a_ij > 0 but a_ji = 0 on both
        # sides of the diagonal, each with its own imbalance
        rng = np.random.default_rng(5)
        for n in range(2, 12):
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
            a[np.arange(n), np.arange(n)] += 0.1
            a /= a.sum(axis=1, keepdims=True)
            pi = rng.random(n)
            chain = markov.FiniteChain.from_dense(range(n), pi / pi.sum(), a)
            assert markov.chain_residuals(chain) == exact_residuals(chain)


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

    def test_campaign_sides_are_frozen(self):
        # the campaign's report peaks at 0.0 at t = 1, so pin every side's bits:
        # the 40 chains and points markov_type_campaign(40, 8, 32, seed=11) draws
        rng = np.random.default_rng(11)
        digest = hashlib.sha256()
        for _ in range(40):
            n = int(rng.integers(1, 9))
            chain = markov.random_reversible_chain(n, seed=int(rng.integers(0, 2**31)))
            dim = int(rng.integers(1, 5))
            points = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
            lhs, rhs = markov.markov_type_sides(chain, points, 2.0, 32)
            digest.update(np.array([*lhs, rhs]).tobytes())
        assert digest.hexdigest() == "beed427bfc495243c64a925e8013567ecbcc8a347b6975a8571c24680a6f882f"

    def test_workload_campaign_is_frozen(self):
        # the replay benchmark's campaign, 500 chains of up to 10 states to t = 64:
        # its report, and every side of every chain it draws
        assert markov.markov_type_campaign(500, 10, 64, seed=7) == WORKLOAD_CAMPAIGN
        digest = hashlib.sha256()
        for chain, points in campaign_draws(500, 10, 7):
            lhs, rhs = markov.markov_type_sides(chain, points, 2.0, 64)
            digest.update(np.array([*lhs, rhs]).tobytes())
        assert digest.hexdigest() == WORKLOAD_SIDES_SHA256

    @pytest.mark.parametrize("entries", [200, 4])
    def test_stack_boundaries_keep_every_side(self, monkeypatch, entries):
        # 60 chains of up to 3 states to t = 16: at 200 entries a window holds
        # 22 chains, so each state count's chains fall in several stacks, and
        # some stack of m >= 2 chains is too large for 16 of its powers to fit
        # in 200 entries; at 4 entries every chain is its own stack
        want_report = markov.markov_type_campaign(60, 3, 16, seed=5)
        want = [(chain.n, *markov.markov_type_sides(chain, points, 2.0, 16))
                for chain, points in campaign_draws(60, 3, 5)]
        stacks = []
        stacked_sides = markov._stacked_sides

        def spy(chains, dps, tmax):
            stacks.append((len(chains), chains[0].n))
            return stacked_sides(chains, dps, tmax)

        monkeypatch.setattr(markov, "_STACK_ENTRIES", entries)
        monkeypatch.setattr(markov, "_stacked_sides", spy)
        assert list(markov._campaign_sides(60, 3, 16, 5)) == want
        assert markov.markov_type_campaign(60, 3, 16, seed=5) == want_report
        assert sum(m for m, _ in stacks) == 2 * 60
        if entries == 200:
            assert any(m >= 2 and entries // (m * n * n) < 16 for m, n in stacks)
            assert any(sum(size == n for _, size in stacks) > 2 for n in (1, 2, 3))
        else:
            assert {m for m, _ in stacks} == {1}

    def test_weighted_sum_reads_the_bits_of_the_list(self):
        # subnormals, signed zeros and magnitudes 1e-300..1e300, float32 and
        # float64 weights, in C and Fortran order: the buffer holds the floats
        # tolist() would, so every sum keeps its bits
        rng = np.random.default_rng(29)
        for trial in range(60):
            shape = (int(rng.integers(0, 12)), int(rng.integers(1, 12)))
            values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            kind = rng.integers(0, 4, shape)
            values[kind == 0] = rng.integers(1, 2**20, shape)[kind == 0] * 5e-324
            values[kind == 1] = np.copysign(0.0, rng.standard_normal(shape))[kind == 1]
            weights = rng.uniform(0.0, 2.0, shape).astype(np.float32 if trial % 2 else np.float64)
            weights[rng.random(shape) < 0.1] = -0.0
            if trial % 3 == 0:
                values, weights = np.asfortranarray(values), np.asfortranarray(weights)
            want = math.fsum((weights * values).ravel().tolist())
            got = markov._weighted_sum(weights, values)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), trial

    def test_campaign_memory_does_not_grow_with_chains(self):
        # chains are drawn and held one window at a time
        peaks = []
        for chains in (500, 4000):
            tracemalloc.start()
            try:
                markov.markov_type_campaign(chains, 10, 64, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


WORKLOAD_CAMPAIGN = {
    "chains": 500, "checks": 32000, "maxViolation": 0.0, "tolerance": 1e-09,
    "worst": {"chain": 0, "states": 10, "t": 1}, "pass": True,
}
WORKLOAD_SIDES_SHA256 = "030d5810c87c85849dceb7956c7341153f97e23360cffbce9fd7417c27c425ac"


def campaign_draws(chains, max_states, seed):
    """The chains and points markov_type_campaign draws, in its order."""
    rng = np.random.default_rng(seed)
    for _ in range(chains):
        n = int(rng.integers(1, max_states + 1))
        chain = markov.random_reversible_chain(n, seed=int(rng.integers(0, 2**31)))
        dim = int(rng.integers(1, 5))
        yield chain, rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)


def dense_sides(chain, points, p, t):
    """Both sides at time t as dense formulas over np.linalg.matrix_power."""
    dp = ((points[:, None] - points[None]) ** 2).sum(axis=-1) ** (p / 2.0)
    pi = chain.pi[:, None]
    a = chain.dense()
    at = np.linalg.matrix_power(a, t)
    return (
        math.fsum((pi * at * dp).ravel().tolist()),
        math.fsum((pi * a * dp).ravel().tolist()),
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
            # 101^2 entries a power: the eight sides come from two stacks
            ("z", hosts.interval(-50, 50), lambda v: (v,)),
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
        assert np.array_equal(chain.dense(), expected)
        assert np.array_equal(chain.pi, np.full(3, 1 / 3))
        # the nonzeros, in row-major order
        assert chain.rows.tolist() == [0, 0, 1, 1, 2, 2]
        assert chain.cols.tolist() == [0, 1, 0, 2, 1, 2]
        assert chain.values.tolist() == [0.5] * 6

    def test_interior_states_have_no_delay(self):
        host = hosts.host_by_name("z")
        chain = markov.delayed_walk(host, hosts.interval(-5, 5))
        interior = chain.states.index(0)
        assert chain.dense()[interior, interior] == 0.0
        # a zero stay is no nonzero
        assert interior not in chain.cols[chain.rows == interior]

    def test_singleton_subset_is_absorbing(self):
        host = hosts.host_by_name("z")
        chain = markov.delayed_walk(host, (0,))
        assert chain.dense() == pytest.approx(np.array([[1.0]]))

    def test_disconnected_subset_still_reversible(self):
        host = hosts.host_by_name("z")
        chain = markov.delayed_walk(host, (0, 10))
        chain.validate()

    def test_grid_subset(self):
        host = hosts.host_by_name("z2")
        chain = markov.delayed_walk(host, hosts.box(0, 1, 0, 1))
        chain.validate()
        # corner of the 2x2 box keeps two of four moves inside
        assert chain.dense()[0, 0] == 0.5

    def test_rejects_duplicates(self):
        host = hosts.host_by_name("z")
        with pytest.raises(ValidationError, match="duplicate"):
            markov.delayed_walk(host, (0, 0, 1))

    def test_rejects_empty_subset(self):
        with pytest.raises(ValidationError, match="nonempty"):
            markov.delayed_walk(hosts.host_by_name("z"), ())

    def test_chain_is_linear_in_its_states(self):
        # 2,001 states, whose dense matrix would take 32 MB: neither building
        # the chain nor validating it allocates an n x n array
        host = hosts.host_by_name("z")
        subset = hosts.interval(-1000, 1000)
        n, linear = len(subset), len(subset) * (host.degree + 1)
        tracemalloc.start()
        try:
            chain = markov.delayed_walk(host, subset)
            chain.validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(x.nbytes for x in (chain.pi, chain.rows, chain.cols, chain.values))
        assert held <= 8 * (n + 3 * linear)
        # a few arrays and lists of the nonzeros; the dense matrix is 20 times more
        assert peak <= 256 * linear <= 8 * n * n // 20
        stay = chain.values[chain.rows == chain.cols]
        assert stay.tolist() == [0.5, 0.5]  # only the two ends keep mass
        assert np.array_equal(np.diag(chain.dense())[[0, 1, -1]], [0.5, 0.0, 0.5])


def _shuffled(vertices, seed=0):
    vertices = list(vertices)
    random.Random(seed).shuffle(vertices)
    return vertices


def _lamp(cursor, *entries):
    return GroupElement(LampConfig(tuple(entries)), cursor)


# vertex sets for the one-step lookup: unsorted, disconnected, single, wreath
# cursors outside every lamp support, and the replay's fattened sets
NEIGHBOR_SETS = [
    ("z", _shuffled(hosts.interval(-6, 6))),
    ("z", [0, 10, 5, 6, -3, 11]),
    ("z", [7]),
    # both ends of int64: a step past either wraps to the other, which is no neighbor
    ("z", [2**63 - 1, -(2**63), 2**63 - 2]),
    ("z", hosts.union_of_balls(hosts.ZLine(), hosts.interval(0, 5), 3)),
    ("z2", _shuffled(hosts.box(-2, 2, -1, 2))),
    ("z2", [(0, 0), (10**12, -10**12), (10**12 + 1, -10**12), (1, 0), (0, 5)]),
    ("z2", [(3, 4)]),
    ("z2", [(2**63 - 1, 0), (-(2**63), 0), (0, -(2**63)), (0, 2**63 - 1), (-1, 2**63 - 1)]),
    ("z2", hosts.union_of_balls(hosts.ZGrid(), hosts.box(0, 6, 0, 6), 2)),
    ("zwrz", _shuffled(hosts.wreath_truncation(1, 1, 1))),
    ("zwrz", [_lamp(5, (0, 1)), _lamp(-7), _lamp(-6), _lamp(4, (0, 1)), _lamp(5, (0, 2)), _lamp(0, (9, -1))]),
    ("zwrz", [_lamp(3)]),
    # cursors far apart, and lamp values and cursors at both ends of int64
    ("zwrz", [IDENTITY, _lamp(10**12), _lamp(10**12 + 1), _lamp(0, (10**12, 1)), _lamp(1, (10**12, 1))]),
    ("zwrz", [_lamp(2**63 - 1), _lamp(-(2**63)), _lamp(0, (0, 2**63 - 1)), _lamp(0, (0, -(2**63))),
              _lamp(0, (0, 2**63 - 2)), _lamp(-(2**63) + 1)]),
    ("zwrz", hosts.union_of_balls(hosts.WreathCayley(), hosts.wreath_truncation(1, 1, 1), 2)),
    ("zwrz", _shuffled(hosts.union_of_balls(hosts.WreathCayley(), hosts.wreath_truncation(2, 1, 1), 3))),
]


# near 0, +-2^62 and the ends of int64
_EDGE = st.builds(
    lambda anchor, offset: min(max(anchor + offset, -(2**63)), 2**63 - 1),
    st.sampled_from([0, 2**62, -(2**62), 2**63 - 1, -(2**63)]),
    st.integers(-3, 3),
)


def _edge_vertex(host_name):
    if host_name == "z":
        return _EDGE
    if host_name == "z2":
        return st.tuples(_EDGE, _EDGE)
    lamps = st.dictionaries(_EDGE, _EDGE.filter(bool), max_size=3)
    return st.builds(lambda d, k: GroupElement(LampConfig(tuple(sorted(d.items()))), k), lamps, _EDGE)


def _edge_coordinates(host_name, vertices):
    """The coordinate groups whose spans bound each host's distances."""
    if host_name == "z":
        return [vertices]
    if host_name == "z2":
        return [[x for x, _ in vertices], [y for _, y in vertices]]
    places = [g.cursor for g in vertices] + [p for g in vertices for p in g.lamps.support()]
    return [places, [0] + [v for g in vertices for _, v in g.lamps.entries]]


def _span(values):
    return max(values) - min(values)


class TestNeighborIndex:
    """host.neighbor_index and the row-form delayed walk against the dict loops."""

    @pytest.mark.parametrize("host_name, vertices", NEIGHBOR_SETS)
    def test_equal_to_the_dict_lookup(self, host_name, vertices):
        host = hosts.host_by_name(host_name)
        got = host.neighbor_index(vertices)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracles.neighbor_index(host, vertices))

    @pytest.mark.parametrize("host_name, vertices", NEIGHBOR_SETS)
    def test_delayed_walk_is_the_dense_loop(self, host_name, vertices):
        host = hosts.host_by_name(host_name)
        chain = markov.delayed_walk(host, vertices)
        want = oracles.delayed_walk_matrix(host, vertices)
        assert np.array_equal(chain.dense(), want)
        assert chain.rows.tolist() == np.nonzero(want)[0].tolist()
        assert chain.cols.tolist() == np.nonzero(want)[1].tolist()

    @pytest.mark.parametrize(
        "host_name, vertices",
        [("z", [0, 3, 0]), ("z2", [(0, 0), (1, 0), (0, 0)]), ("zwrz", [IDENTITY, _lamp(1), IDENTITY])],
    )
    def test_duplicates_are_refused(self, host_name, vertices):
        host = hosts.host_by_name(host_name)
        with pytest.raises(ValidationError, match="duplicate"):
            host.neighbor_index(vertices)

    @pytest.mark.parametrize(
        "host_name, vertices",
        [("z", [0, 2**63]), ("z2", [(0, 0), (0, -(2**63) - 1)]), ("zwrz", [IDENTITY, _lamp(2**63)])],
    )
    def test_vertex_outside_int64_is_refused(self, host_name, vertices):
        host = hosts.host_by_name(host_name)
        with pytest.raises(ValidationError, match=r"outside int64, \[-2\^63, 2\^63 - 1\]"):
            host.neighbor_index(vertices)


class TestHostDistances:
    """host.distances in one array pass against the scalar host.distance."""

    @pytest.mark.parametrize("host_name, vertices", [("z", [-(2**63) - 1, 0]), ("z2", [(0, 0), (2**63, 0)])])
    def test_coordinate_outside_int64_is_refused(self, host_name, vertices):
        host = hosts.host_by_name(host_name)
        with pytest.raises(ValidationError, match="outside int64"):
            host.distances(vertices, np.array([0]), np.array([1]))

    @pytest.mark.parametrize(
        "element",
        [_lamp(2**63), _lamp(0, (-(2**63) - 1, 1)), _lamp(0, (0, 2**63))],
        ids=["cursor", "lamp-position", "lamp-value"],
    )
    def test_wreath_coordinate_outside_int64_is_refused(self, element):
        with pytest.raises(ValidationError, match=r"outside int64, \[-2\^63, 2\^63 - 1\]"):
            hosts.WreathCayley().distances([IDENTITY, element], np.array([0]), np.array([1]))

    @pytest.mark.parametrize(
        "host_name, core, radius",
        [
            ("z", hosts.interval(-6, 6), 3),
            ("z2", hosts.box(-2, 2, -2, 2), 2),
            ("zwrz", hosts.wreath_truncation(1, 1, 1), 1),
            # fattened by nothing: cursors 10^12 apart and sets at the ends of int64
            *((host_name, vertices, 0) for host_name, vertices in NEIGHBOR_SETS),
        ],
    )
    def test_equal_to_scalar_on_a_fattened_set(self, host_name, core, radius):
        host = hosts.host_by_name(host_name)
        vertices = hosts.union_of_balls(host, core, radius)
        i, j = np.triu_indices(len(vertices))
        # every pair, or an even stride of 20,000 on the two largest sets
        stride = max(1, len(i) // 20_000)
        i, j = i[::stride], j[::stride]
        want = [host.distance(vertices[a], vertices[b]) for a, b in zip(i.tolist(), j.tolist())]
        try:
            got = host.distances(vertices, i, j)
        except ValidationError:
            assert max(want) > 2**62  # only a set near the ends of int64 is refused
        else:
            assert got.dtype == np.int64
            assert got.tolist() == want

    @pytest.mark.parametrize(
        "host_name, vertices",
        [
            ("z", [-(2**62), 2**62]),
            ("z2", [(0, -(2**62)), (2**62, 2**62)]),
            ("zwrz", [IDENTITY, _lamp(2**63 - 1, (-1, 1))]),
            ("zwrz", [_lamp(0, (0, -(2**62))), _lamp(0, (0, 2**62))]),
            ("zwrz", [_lamp(0, (-(2**40), 1)), _lamp(0, (2**40, 1))]),
            ("z", [-(2**63), -(2**63) + 1]),
        ],
        ids=[
            "line-wrap", "grid-wrap", "wreath-lo-shift", "wreath-lamps-2^62", "wreath-lamps-at-2^40", "line-narrow"
        ],
    )
    def test_int64_edges_give_the_scalar_value_or_are_refused(self, host_name, vertices):
        host = hosts.host_by_name(host_name)
        want = host.distance(*vertices)
        if want > 2**63 - 1:
            with pytest.raises(ValidationError, match="a distance may pass int64"):
                host.distances(vertices, np.array([0]), np.array([1]))
        else:
            assert host.distances(vertices, np.array([0]), np.array([1])).tolist() == [want]

    @pytest.mark.parametrize("host_name", ["z", "z2", "zwrz"])
    def test_empty_set_has_no_distances(self, host_name):
        none = np.array([], dtype=np.int64)
        assert hosts.host_by_name(host_name).distances([], none, none).tolist() == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_scalar_value_or_refusal_near_the_ends_of_int64(self, data):
        host_name = data.draw(st.sampled_from(["z", "z2", "zwrz"]))
        host = hosts.host_by_name(host_name)
        vertices = data.draw(st.lists(_edge_vertex(host_name), min_size=2, max_size=4))
        n = len(vertices)
        i, j = np.divmod(np.arange(n * n), n)
        want = [host.distance(vertices[a], vertices[b]) for a, b in zip(i, j)]
        try:
            got = host.distances(vertices, i, j)
        except ValidationError:
            # every bound holds on a set whose coordinates, and lamp values with
            # 0, each span less than 2^58
            assert max(map(_span, _edge_coordinates(host_name, vertices))) >= 2**58
        else:
            assert got.tolist() == want


def test_interval_whose_chain_cannot_fit_is_refused_before_it_is_built():
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    n = math.isqrt(physical // 8) + 1  # one n x n float64 matrix alone is too big
    # physical memory, or the cgroup limit where that binds
    with pytest.raises(ResourceLimitError, match=re.escape(errors._memory_limit()[1])):
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
        pairs_of = markov._power_pairs
        taken = []

        def skewed(chain, t, dtype):
            pairs, at_pairs = pairs_of(chain, t, dtype)
            (k,) = np.flatnonzero(pairs == 1)  # the pair (0, 1)
            at_pairs[k] = np.nextafter(dtype(at_pairs[k]), dtype(np.inf))  # one ulp in a^t's dtype
            at = np.zeros(chain.n**2)
            at[pairs] = at_pairs
            taken.append(at.reshape(chain.n, chain.n))
            return pairs, at_pairs

        monkeypatch.setattr(markov, "_power_pairs", skewed)
        host, core = hosts.host_by_name("z"), hosts.interval(0, 5)
        report = markov.delayed_walk_replay(host, core, 2, lambda v: (float(v),), lambda s: s)
        (at,) = taken
        assert at[0, 1] != at[1, 0]
        x = np.array(hosts.union_of_balls(host, core, 2), dtype=float)
        pi = np.full(len(x), 1.0 / len(x))
        gap_p = (x[:, None] - x[None, :]) ** 2  # rho is the identity: both sums weigh the same
        want = math.fsum((pi[:, None] * at * gap_p).ravel().tolist())
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


def dense_power_pairs(chain, t):
    """The nonzeros of the float64 n x n power of a united with a's, as flat
    n x n indices, and a^t at each."""
    at = np.linalg.matrix_power(chain.dense(), t)
    pairs = np.union1d(np.flatnonzero(at), chain.rows * chain.n + chain.cols)
    return pairs, at.ravel()[pairs]


class TestPowerPairs:
    """_power_pairs' stacked powers over each row's ball against the one dense power."""

    @pytest.mark.parametrize(
        "host_name, core, t, whole",
        [("z", hosts.interval(-15, 15), t, None) for t in range(5)]
        + [("z2", hosts.box(-4, 4, -4, 4), t, None) for t in range(5)]
        + [("zwrz", hosts.wreath_truncation(1, 1, 1), t, None) for t in range(5)]
        + [
            ("zwrz", hosts.wreath_truncation(2, 1, 1), 3, False),  # 2,703 states, balls of 53
            ("z2", [(0, 0)], 12, None),  # 4^12 = 2^24, the last float32 power
            ("z2", [(0, 0)], 13, True),  # every ball is most of the set
        ],
    )
    def test_byte_equal_to_the_dense_power(self, monkeypatch, host_name, core, t, whole):
        host = hosts.host_by_name(host_name)
        chain = markov.delayed_walk(host, hosts.union_of_balls(host, core, t))
        n = chain.n
        want = dense_power_pairs(chain, t)
        power = np.linalg.matrix_power
        shapes = []

        def recorded(a, t):
            shapes.append(a.shape)
            return power(a, t)

        monkeypatch.setattr(np.linalg, "matrix_power", recorded)
        narrowest = np.float32 if host.degree**t <= 2**24 else np.float64
        pairs, at_pairs = markov._power_pairs(chain, t, narrowest)
        assert pairs.dtype == want[0].dtype and pairs.tobytes() == want[0].tobytes()
        assert at_pairs.dtype == want[1].dtype and at_pairs.tobytes() == want[1].tobytes()
        if shapes == [(n, n)]:  # one group, the whole set
            assert whole is not False
        else:  # one k x k matrix a row, k < n, in windows of rows
            assert whole is not True
            assert all(len(shape) == 3 and shape[1:] == shapes[0][1:] for shape in shapes)
            assert shapes[0][1] < n
            assert sum(shape[0] for shape in shapes) == n

    def test_windows_hold_at_most_the_stack_entries(self, monkeypatch):
        host = hosts.host_by_name("z2")
        chain = markov.delayed_walk(host, hosts.union_of_balls(host, hosts.box(-4, 4, -4, 4), 3))
        want = dense_power_pairs(chain, 3)
        power = np.linalg.matrix_power
        shapes = []

        def recorded(a, t):
            shapes.append(a.shape)
            return power(a, t)

        monkeypatch.setattr(np.linalg, "matrix_power", recorded)
        monkeypatch.setattr(markov, "_STACK_ENTRIES", 25**2 * 10)
        pairs, at_pairs = markov._power_pairs(chain, 3, np.float32)
        assert shapes == [(10, 25, 25)] * 20 + [(1, 25, 25)]  # 201 rows, balls of 25
        assert pairs.tobytes() == want[0].tobytes() and at_pairs.tobytes() == want[1].tobytes()


def dense_replay(host, core, t, emb, rho, p=2.0):
    """The replay's sums as dense n x n formulas over the full matrix power."""
    core, fattened = set(core), hosts.union_of_balls(host, core, t)
    chain = markov.delayed_walk(host, fattened)
    n, vertices, pi, a = chain.n, chain.states, chain.pi, chain.dense()
    points = np.array([emb(v) for v in vertices], dtype=float).reshape(n, -1)
    at = np.linalg.matrix_power(a, t)
    coupled = (a > 0) | (at > 0)
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
        "markov_rhs": t * weighted(a, emb_p) if t else 0.0,
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
        want = dense_power_pairs(markov.delayed_walk(host, hosts.union_of_balls(host, core, t)), t)
        power, pairs_of = np.linalg.matrix_power, markov._power_pairs
        dtypes, taken = [], []

        def recorded_power(a, t):
            dtypes.append(a.dtype)
            return power(a, t)

        def recorded_pairs(*args):
            taken.append(pairs_of(*args))
            return taken[-1]

        monkeypatch.setattr(np.linalg, "matrix_power", recorded_power)
        monkeypatch.setattr(markov, "_power_pairs", recorded_pairs)
        markov.delayed_walk_replay(host, core, t, emb, None)
        ((pairs, at_pairs),) = taken
        assert dtypes and set(dtypes) == {np.dtype(narrowest)}
        assert np.array_equal(pairs, want[0])
        assert np.array_equal(at_pairs, want[1])

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
        _, (row,) = markov.compression_checks(_tail({64: 0.25}), 0.5, [(1, 1.0, 0.0), (8, 2.0, 0.0)])
        assert row == {"t": 64, "threshold": 8.0, "rhoHat": 2.0, "bound": 16.0, "pass": True}


def _tail(delta_hat, c=1.0):
    return walk.TailEstimate(c, 0.75, delta_hat, {t: 0.0 for t in delta_hat})


class TestCompressionChecks:
    # distances 1..64 at norm 1: rho is 1 up to the largest threshold, 4096^0.5
    FLAT = [(d, 1.0, 0.0) for d in range(1, 65)]

    def test_tests_only_the_times_in_64_to_4096(self):
        tail = _tail({16: 0.0, 32: 0.9, 64: 0.5, 4096: 0.25, 8192: 0.0})
        delta_min, rows = markov.compression_checks(tail, 0.5, self.FLAT)
        assert delta_min == 0.25
        assert [row["t"] for row in rows] == [64, 4096]
        assert [row["bound"] for row in rows] == [16.0, 128.0]

    def test_a_vanished_tail_at_one_tested_time_raises(self):
        tail = _tail({64: 0.5, 128: 0.0, 256: 0.5})
        with pytest.raises(InvariantViolation, match="^empirical tail probability vanished on the tested grid$"):
            markov.compression_checks(tail, 0.5, self.FLAT)

    def test_a_modulus_above_the_bound_raises_naming_its_time(self):
        # thresholds 8 and 16, bounds 8 and 16: rho(8) = 7 passes, rho(16) = 17 fails
        observations = [(8, 7.0, 0.0), (16, 17.0, 0.0)]
        message = r"^compression bound failed at t=256: rhoHat 17\.0 > bound 16\.0$"
        with pytest.raises(InvariantViolation, match=message):
            markov.compression_checks(_tail({64: 1.0, 256: 1.0}), 0.5, observations)

    def test_a_grid_with_no_tested_time_is_refused(self):
        with pytest.raises(ValidationError, match="^the tail's grid has no time in 64..4096"):
            markov.compression_checks(_tail({16: 0.5, 32: 0.5, 8192: 0.5}), 0.5, self.FLAT)

    @pytest.mark.parametrize("delta", [1.5, -0.5, math.nan])
    def test_frequencies_outside_0_1_are_refused(self, delta):
        with pytest.raises(ValidationError, match=r"^tail frequencies must lie in \[0, 1\]$"):
            markov.compression_checks(_tail({64: 0.5, 128: delta}), 0.5, self.FLAT)

    def test_seed_7_rows_are_the_pipelines(self, tmp_path, capsys, monkeypatch, zwrz_sample, scan_observations):
        c = walk.median_rule_constant(zwrz_sample, 0.75)
        tail = walk.estimate_tail(zwrz_sample, c, 0.75)
        beta_hat = walk.estimate_beta(zwrz_sample).beta_hat
        delta_min, rows = markov.compression_checks(tail, beta_hat, scan_observations)
        monkeypatch.setattr(walk, "simulate", lambda *args: zwrz_sample)
        assert cli.run(["pipeline", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (delta_min, rows) == (payload["deltaMin"], payload["checks"])


@pytest.mark.parametrize("build, match", [
    (lambda: hosts.host_by_name("q"), r"^unknown host 'q'; expected one of \['z', 'z2', 'zwrz'\]$"),
    (lambda: hosts.interval(1, 0), "^empty interval$"),
    (lambda: hosts.box(0, -1, 0, 0), "^empty box$"),
    (lambda: hosts.wreath_truncation(-1, 0, 0), "^truncation bounds must be nonnegative$"),
])
def test_host_lookup_and_sets_refuse_bad_input(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def _two_state_chain(pi):
    return markov.FiniteChain.from_dense((0, 1), np.asarray(pi), np.full((2, 2), 0.5))


def _line_replay(core, t, emb, rho):
    return markov.delayed_walk_replay(hosts.ZLine(), core, t, emb, rho)


@pytest.mark.parametrize("call, match", [
    (lambda: markov.random_reversible_chain(0, 1), "^n must be >= 1$"),
    (lambda: markov.markov_type_campaign(0, 10, 64, 0), "^chains must be >= 1$"),
    (lambda: markov.markov_type_campaign(1, 0, 64, 0), "^max_states must be >= 1$"),
    (lambda: markov.markov_type_campaign(1, 10, 0, 0), "^tmax must be >= 1$"),
    (lambda: markov.chain_residuals(_two_state_chain([1.0])), "^shape mismatch between states, pi, and a$"),
    (lambda: markov.chain_residuals(_two_state_chain([1.5, -0.5])), "^negative probabilities$"),
    (lambda: _line_replay([0], -1, lambda v: (float(v),), None), "^t must be nonnegative$"),
    (lambda: _line_replay([0, 1], 1, lambda v: (math.nan,), None), "^points must be finite$"),
    (lambda: _line_replay([0, 1], 1, lambda v: (float(v),), lambda s: 1 / (1 + s)),
     "^rho is not nondecreasing at argument 1$"),
])
def test_chain_inputs_are_refused(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
