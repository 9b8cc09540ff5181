"""Finite stationary reversible chains and the inequalities they certify.

A FiniteChain holds its transition matrix a as its nonzeros in row-major
order; dense(dtype) scatters them into a matrix for the callers that need one.
chain_residuals reads only the nonzeros: row sums and the stationarity sums of
pi a are exact, each residual rounded once. Three jobs live here:

* exact two-sided evaluation of the Markov-type inequality
  E[||f(Z_t) - f(Z_0)||^p] <= K^p t E[||f(Z_1) - f(Z_0)||^p]
  on explicit chains: _stacked_sides builds a^t step by step up to tmax for a
  stack of chains with the same state count, one stacked product per step,
  and takes every side as one fsum read from the terms' buffer.
  markov_type_sides is its one-chain stack; the random-chain campaign draws
  its chains in bounded windows and evaluates each window's chains of equal
  size as one stack;
* construction of the delayed walk on a subset A of a host Cayley graph
  (step to an in-subset neighbor with probability 1/degree, stay put with the
  leftover mass), whose rows come from host.neighbor_index in one array pass,
  at most degree + 1 nonzeros each; the replay runs it on the core's ball
  union of radius t (hosts.union_of_balls), where it is indistinguishable
  from the free walk for t steps when started in the core set;
* a replay of the resulting sandwich on concrete finite instances: the
  compression lower term never exceeds the Markov-type upper term. The
  replay takes row i of a^t, the identity at t = 0, as row i of the power
  of a restricted to i's ball of radius t, which holds every path of t
  steps from i: _power_pairs grows the balls from the nonzeros of a and
  takes one np.linalg.matrix_power per window of stacked k x k matrices, k
  the largest ball. Where k^3 >= n^2 the rows share one ball, the whole
  set, and that power is the one n x n power of a. Each power is taken in
  the narrowest float that holds it exactly. Every entry of a is a multiple
  of 1/degree (the hosts have degree 2 or 4), so every entry of every
  partial product and partial sum of a^t is a multiple of degree^-t in
  [0, 1], which a float with an m-bit significand holds in any summation
  order when degree^t <= 2^m: a^t is float32 up to degree^t = 2^24, float64
  up to 2^53, and refused past that. Only the whole-set power holds n x n
  arrays, its input, its output and its temporaries, freed once its pairs
  are read. The replay then sums over every ordered pair the chain can couple, in
  row-major order (the nonzeros of a^t united with those of a): these are
  the nonzero terms of the dense n x n sums, so each fsum is theirs bit for
  bit, and no symmetry of a or a^t is assumed. One guard,
  errors.check_dense_chain, refuses n states whose dense n x n arrays would
  not fit in physical memory, whichever form the replay's power takes (it
  sizes the whole-set power); delayed_walk calls it, the replay calls it on
  the core before it fattens it, the hosts' set builders call it before they
  build a set at all, and the random-chain campaign calls it on max_states
  before its first chain.

The bound calculator at the bottom turns a displacement exponent into an upper
bound on the compression exponent, exactly, in rational arithmetic, and
compression_checks holds the pipeline's one theorem check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import hosts
from .errors import InvariantViolation, ResourceLimitError, ValidationError, check_dense_chain

__all__ = [
    "FiniteChain",
    "chain_residuals",
    "markov_type_sides",
    "random_reversible_chain",
    "delayed_walk",
    "empirical_modulus",
    "ReplayReport",
    "delayed_walk_replay",
    "alpha_upper",
    "iterated_wreath_table",
    "compression_checks",
]

CHAIN_TOL = 1e-12
# tolerance of the campaign's and the replay's inequality checks
CHECK_TOL = 1e-9
# entries of each m x n x n array that one window of the random-chain campaign
# holds at max_states states (one chain at least, whatever its size), and of
# each m x k x k stack of the replay's powers over balls of k states (one row
# at least)
_STACK_ENTRIES = 2**16
# most chains one window of the random-chain campaign holds before it evaluates
# them: each drawn chain also holds a few Python objects, which the entries of
# its arrays do not count
_WINDOW_CHAINS = 2**10


@dataclass(frozen=True)
class FiniteChain:
    """States, stationary distribution pi, and row-stochastic transitions a,
    held as the nonzeros of a in row-major order: a[rows[k], cols[k]] = values[k]."""

    states: tuple
    pi: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def from_dense(cls, states: Sequence, pi: np.ndarray, a: np.ndarray) -> FiniteChain:
        states, a = tuple(states), np.asarray(a, dtype=float)
        if a.shape != (len(states),) * 2:
            raise ValidationError("shape mismatch between states, pi, and a")
        rows, cols = np.nonzero(a)
        return cls(states, pi, rows, cols, a[rows, cols])

    @property
    def n(self) -> int:
        return len(self.states)

    def dense(self, dtype=np.float64) -> np.ndarray:
        """a as an n x n matrix of dtype."""
        a = np.zeros((self.n, self.n), dtype=dtype)
        a[self.rows, self.cols] = self.values
        return a

    def validate(self) -> dict[str, float]:
        residuals = chain_residuals(self)
        for name, value in residuals.items():
            if value > CHAIN_TOL:
                raise ValidationError(f"chain fails {name}: residual {value:.3e} > {CHAIN_TOL:.1e}")
        return residuals


def _worst_residual(groups: np.ndarray, terms: np.ndarray, targets: np.ndarray) -> float:
    """max over g of |sum of the terms in group g - targets[g]|, each exact and rounded once."""
    # each group's terms in their order, then its -target: one fsum a group
    keys = np.concatenate([groups, np.arange(len(targets))])
    order = np.argsort(keys, kind="stable")
    ends = np.searchsorted(keys[order], np.arange(len(targets)), side="right").tolist()
    flat = memoryview(np.concatenate([terms, -targets])[order])
    return max([0.0] + [abs(math.fsum(flat[start:end])) for start, end in zip([0, *ends], ends)])


def chain_residuals(chain: FiniteChain) -> dict[str, float]:
    """Worst-case violations of the chain axioms, for validation and reports.

    Row sums and the stationarity sums pi a are exact, each residual rounded
    once; every array is as long as pi or as the nonzeros of a.
    """
    pi, i, j, a = chain.pi, chain.rows, chain.cols, chain.values
    n = chain.n
    if pi.shape != (n,) or a.ndim != 1 or not i.shape == j.shape == a.shape:
        raise ValidationError("shape mismatch between states, pi, and a")
    keys = i * n + j
    inside = not a.size or (min(i.min(), j.min()) >= 0 and max(i.max(), j.max()) < n)
    if not inside or np.any(keys[1:] <= keys[:-1]):
        raise ValidationError("the nonzeros of a must be distinct n x n entries in row-major order")
    if np.any(pi < 0) or np.any(a < 0):
        raise ValidationError("negative probabilities")
    # pi_i a_ij - pi_j a_ji vanishes where both are zero, and each pair with a
    # nonzero entry is met from that entry's side, so the nonzeros suffice; a
    # key past every entry stands for the zeros
    mirrored = j * n + i
    place = np.searchsorted(keys, mirrored)
    keys, padded = np.append(keys, n * n), np.append(a, 0.0)
    transposed = np.where(keys[place] == mirrored, padded[place], 0.0)
    flow = pi[i] * a
    return {
        "row-stochasticity": _worst_residual(i, a, np.ones(n)),
        "pi-normalization": float(abs(math.fsum(memoryview(pi.ravel())) - 1.0)),
        "stationarity": _worst_residual(j, flow, pi),
        "detailed-balance": float(np.abs(flow - pi[j] * transposed).max(initial=0.0)),
    }


def _pairwise_power(points: np.ndarray, p: float) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff) ** (p / 2.0)  # x ** 1.0 is x, bit for bit


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """fsum of weights * values, each term one float product."""
    return math.fsum(memoryview((weights * values).ravel()))


def _run_sums(terms: np.ndarray, size: int) -> list[float]:
    """fsum of each run of size consecutive terms in C order, read from a buffer."""
    flat = memoryview(terms.ravel())
    return [math.fsum(flat[k : k + size]) for k in range(0, len(flat), size)]


def _state_points(points, n: int) -> np.ndarray:
    """points as floats, one finite row per state."""
    try:
        points = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or an entry that is not a number
        points = np.empty(0)
    if points.ndim != 2 or points.shape[0] != n:
        raise ValidationError("points must be one row of coordinates per state")
    if not np.isfinite(points).all():
        raise ValidationError("points must be finite")
    return points


def _stacked_sides(
    chains: Sequence[FiniteChain], dps: Sequence[np.ndarray], tmax: int
) -> tuple[list[list[float]], list[float]]:
    """Both sides for m validated chains of n states each, dps their n x n
    ||x_i - x_j||^p.

    Every chain's a^t is built one step at a time from the identity, one
    stacked product per step, and each step's sides are taken before the
    next: a, dp and a^t, three m x n x n arrays, are held at a time, with the
    step's terms. Returns each chain's lhs for t = 1..tmax and its one-step
    rhs; every side is one fsum of the terms (pi_i w_ij) dp_ij, w = a^t or a.
    """
    m, n = len(chains), chains[0].n
    pi = np.stack([chain.pi for chain in chains])[:, :, None]
    a = np.stack([chain.dense() for chain in chains])
    dp = np.stack(dps)
    lhs: list[list[float]] = [[] for _ in range(m)]
    at = np.broadcast_to(np.eye(n), a.shape)
    for _ in range(tmax):
        at = np.matmul(at, a)
        for row, side in zip(lhs, _run_sums(pi * at * dp, n * n)):
            row.append(side)
    return lhs, _run_sums(pi * a * dp, n * n)


def markov_type_sides(
    chain: FiniteChain, points: np.ndarray, p: float, tmax: int
) -> tuple[list[float], float]:
    """Both sides of the Markov-type inequality at constant K = 1.

    Returns (lhs, rhs) with lhs[t - 1] = sum_i pi_i (a^t)_ij ||x_i - x_j||^p for
    t = 1..tmax and the one-step rhs = sum_i pi_i a_ij ||.||^p, so the caller
    may test lhs[t - 1] <= K^p t rhs for any K: the one-chain stack of
    _stacked_sides.
    """
    if tmax < 1:
        raise ValidationError("tmax must be >= 1")
    if not 1 <= p < math.inf:  # nan fails too
        raise ValidationError("p must be finite and >= 1")
    chain.validate()
    dp = _pairwise_power(_state_points(points, chain.n), p)
    (lhs,), (rhs,) = _stacked_sides([chain], [dp], tmax)
    return lhs, rhs


def _campaign_sides(chains: int, max_states: int, tmax: int, seed: int):
    """Yield (n, lhs, rhs) at p = 2 for every chain markov_type_campaign draws, in order.

    Chains and points are drawn a window at a time, in the order of one
    stream; a window's chains of equal state count are one stack of
    _stacked_sides. Each of a window's m x n x n arrays holds at most
    _STACK_ENTRIES entries, unless one chain is already past it, and a window
    holds at most _WINDOW_CHAINS chains, so memory does not grow with chains.
    """
    rng = np.random.default_rng(seed)
    window = max(1, min(_STACK_ENTRIES // max_states**2, _WINDOW_CHAINS))
    for first in range(0, chains, window):
        drawn = []
        for _ in range(min(window, chains - first)):
            n = int(rng.integers(1, max_states + 1))
            chain = random_reversible_chain(n, seed=int(rng.integers(0, 2**31)))
            dim = int(rng.integers(1, 5))
            points = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
            chain.validate()
            drawn.append((chain, points))
        groups: dict[int, list[int]] = {}
        for k, (chain, _) in enumerate(drawn):
            groups.setdefault(chain.n, []).append(k)
        sides: list = [None] * len(drawn)
        for n, members in groups.items():
            lhs, rhs = _stacked_sides(
                [drawn[k][0] for k in members], [_pairwise_power(drawn[k][1], 2.0) for k in members], tmax
            )
            for k, chain_lhs, chain_rhs in zip(members, lhs, rhs):
                sides[k] = (n, chain_lhs, chain_rhs)
        yield from sides


def markov_type_campaign(chains: int, max_states: int, tmax: int, seed: int) -> dict:
    """Check the p = 2, K = 1 inequality on a batch of random chains.

    Each chain gets a random Euclidean embedding and is tested at every
    t = 1..tmax, its sides from _campaign_sides. Returns a summary dict; the
    caller decides whether maxViolation > tolerance is fatal.
    """
    if chains < 1:
        raise ValidationError("chains must be >= 1")
    if max_states < 1:
        raise ValidationError("max_states must be >= 1")
    check_dense_chain(max_states)  # every chain has at most max_states states
    if tmax < 1:
        raise ValidationError("tmax must be >= 1")
    max_violation = -math.inf
    worst = None
    checks = 0
    for index, (n, lhs, rhs_step) in enumerate(_campaign_sides(chains, max_states, tmax, seed)):
        for t, value in enumerate(lhs, start=1):
            violation = value - t * rhs_step
            checks += 1
            if violation > max_violation:
                max_violation = violation
                worst = {"chain": index, "states": n, "t": t}
    return {
        "chains": chains,
        "checks": checks,
        "maxViolation": max_violation,
        "tolerance": CHECK_TOL,
        "worst": worst,
        "pass": max_violation <= CHECK_TOL,
    }


def random_reversible_chain(n: int, seed: int) -> FiniteChain:
    """Random-walk chain on a random connected weighted graph.

    a_ij = w_ij / sum_k w_ik with pi proportional to row weight, so detailed
    balance holds by construction: pi_i a_ij = w_ij / total.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n == 1:
        return FiniteChain.from_dense((0,), np.array([1.0]), np.array([[1.0]]))
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(1, n):
        j = int(rng.integers(0, i))  # random tree keeps the graph connected
        weight = rng.uniform(0.5, 2.0)
        w[i, j] += weight
        w[j, i] += weight
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        weight = rng.uniform(0.5, 2.0)
        w[i, j] += weight
        w[j, i] += weight
    row = w.sum(axis=1)
    a = w / row[:, None]
    pi = row / row.sum()
    return FiniteChain.from_dense(range(n), pi, a)


def delayed_walk(host, subset: Sequence) -> FiniteChain:
    """The delayed standard walk restricted to the subset.

    From x: step to each in-subset neighbor with probability 1/degree, stay at
    x with the remaining mass. Uniform pi is stationary and the chain is
    reversible because in-subset adjacency is symmetric. Each row is read off
    host.neighbor_index, at most degree + 1 nonzeros.
    """
    subset = tuple(subset)
    n = len(subset)
    check_dense_chain(n)
    if not n:
        raise ValidationError("subset must be nonempty")
    inside = host.neighbor_index(subset)
    deg = host.degree
    stay = 1.0 - (inside >= 0).sum(axis=1) / deg
    # row i: 1/degree at each in-subset neighbor, the stay at i where it is
    # nonzero, -1 for the rest; sorted, the columns fall in row-major order
    cols = np.column_stack([inside, np.where(stay > 0, np.arange(n), -1)])
    values = np.column_stack([np.full(inside.shape, 1.0 / deg), stay])
    order = np.argsort(cols, axis=1)
    cols, values = np.take_along_axis(cols, order, axis=1), np.take_along_axis(values, order, axis=1)
    kept = cols >= 0
    rows = np.nonzero(kept)[0]
    return FiniteChain(subset, np.full(n, 1.0 / n), rows, cols[kept], values[kept])


def empirical_modulus(distances: Sequence[float], norms: Sequence[float]) -> Callable[[float], float]:
    """Largest nondecreasing minorant: s -> min of norms over distance >= s."""
    distances = np.asarray(distances, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if not distances.size or distances.shape != norms.shape:
        raise ValidationError("the modulus needs one norm per distance, and at least one")
    order = np.argsort(distances)
    suffix = np.minimum.accumulate(norms[order][::-1])[::-1]
    d_list = distances[order].tolist()

    def rho(s: float) -> float:
        i = bisect_left(d_list, s)
        if i >= len(d_list):
            raise ValidationError(f"empirical modulus queried beyond observed distance {d_list[-1]}")
        return float(suffix[i])

    return rho


def _balls(cols: np.ndarray, t: int) -> Optional[np.ndarray]:
    """Each state's in-subset ball of radius t, one ascending row of states
    padded with n, grown from a's columns one radius at a time; None once the
    largest ball holds k states with k^3 >= n^2, where one n x n power costs
    less than a k x k power a row.

    cols is _power_pairs' table: row r holds the columns of a's row r padded
    with n, and row n, the padding, only n.
    """
    n = len(cols) - 1
    table = np.column_stack([np.arange(n + 1), cols])  # each state reaches itself
    balls = np.arange(n)[:, None]
    for _ in range(t):
        reach = np.sort(table[balls].reshape(n, -1), axis=1)
        reach[:, 1:][reach[:, 1:] == reach[:, :-1]] = n  # each state once
        reach.sort(axis=1)
        k = int((reach < n).sum(axis=1).max())
        if k**3 >= n**2:
            return None
        balls = reach[:, :k]
    return balls


def _power_pairs(chain: FiniteChain, t: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair the chain can couple, as flat n x n indices in
    row-major order (the nonzeros of a^t united with those of a), and a^t at
    each pair in float64.

    A path of t steps from state i stays in i's ball of radius t, so row i of
    a^t is row i of (a restricted to that ball)^t. Each row's restriction is
    scattered into a k x k matrix, k the largest ball, and the powers are
    taken in dtype, one np.linalg.matrix_power a window of rows, each window
    of at most _STACK_ENTRIES entries (one row at least). Where k^3 >= n^2,
    every row shares one ball, the whole set, and this is the one n x n power
    of a.
    """
    n = chain.n
    counts = np.bincount(chain.rows, minlength=n)
    place = np.arange(len(chain.rows)) - (np.cumsum(counts) - counts)[chain.rows]
    # row r: the columns of a's row r and their values, padded with state n
    # and 0; row n stands for the padding
    cols = np.full((n + 1, counts.max()), n)
    values = np.zeros(cols.shape, dtype)
    cols[chain.rows, place] = chain.cols
    values[chain.rows, place] = chain.values
    balls = _balls(cols, t)
    if balls is None:
        at = np.linalg.matrix_power(chain.dense(dtype), t)
        at_keys = np.flatnonzero(at)
        at_values = at.ravel()[at_keys]
    else:
        k = balls.shape[1]
        window = max(1, _STACK_ENTRIES // k**2)
        found_keys, found_values = [], []
        for first in range(0, n, window):
            ball = balls[first : first + window]
            m = len(ball)
            # ball b's states as keys b (n + 1) + state, ascending over the
            # window; a's entries from each ball state land at their column's
            # place in the same ball, where it has one
            offset = (n + 1) * np.arange(m)
            ball_keys = (ball + offset[:, None]).ravel()
            reached = cols[ball]
            targets = reached + offset[:, None, None]
            spot = np.minimum(np.searchsorted(ball_keys, targets), m * k - 1)
            inside = (ball_keys[spot] == targets) & (reached < n)
            b, row, _ = np.nonzero(inside)
            local = np.zeros((m, k, k), dtype)
            local[b, row, spot[inside] - b * k] = values[ball][inside]
            power = np.linalg.matrix_power(local, t)
            own = np.searchsorted(ball_keys, first + np.arange(m) + offset) - k * np.arange(m)
            row_values = power[np.arange(m), own]
            b, col = np.nonzero(row_values)
            found_keys.append((first + b) * n + ball[b, col])
            found_values.append(row_values[b, col])
        at_keys, at_values = np.concatenate(found_keys), np.concatenate(found_values)
    pairs = np.union1d(at_keys, chain.rows * n + chain.cols)
    at_pairs = np.zeros(len(pairs))
    at_pairs[np.searchsorted(pairs, at_keys)] = at_values  # float32 widens to float64 exactly
    return pairs, at_pairs


@dataclass(frozen=True)
class ReplayReport:
    """Every intermediate quantity of the sandwich, already asserted.

    The chain that is checked (tolerances aside):
        chain_lower == restricted_avg <= full_avg <= markov_lhs <= upper
    with markov_lhs <= markov_rhs additionally asserted when p = 2. slack
    holds (link, hi - lo) for every checked link, in the order checked.
    """

    core_size: int
    fattened_size: int
    ratio: float
    t: int
    p: float
    lipschitz_max: float
    free_term: float
    chain_lower: float
    restricted_avg: float
    full_avg: float
    markov_lhs: float
    markov_rhs: float
    upper: float
    slack: tuple[tuple[str, float], ...]


def delayed_walk_replay(
    host,
    core: Sequence,
    t: int,
    emb: Callable[[object], Sequence[float]],
    rho: Optional[Callable[[float], float]],
    p: float = 2.0,
) -> ReplayReport:
    """Replay the compression-vs-Markov-type sandwich on one finite instance.

    emb must be 1-Lipschitz from the host metric (checked on in-subset edges)
    and rho must be nondecreasing with rho(d(x, y)) <= ||emb(x) - emb(y)|| on
    every pair the chain can couple (checked; rho=None derives the empirical
    modulus of emb, which satisfies both by construction). The upper term is
    t itself: Markov type 2 with constant 1 for Euclidean targets bounds the
    p-th moment by t^(p/2) <= t for p in [1, 2], and only there, so p must lie
    in [1, 2].
    """
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if not 1 <= p <= 2:  # nan fails too
        raise ValidationError("p must lie in [1, 2], where the upper term t bounds the p-th moment")
    # a float with an m-bit significand holds a^t exactly if scale <= 2^m; the
    # exponent is clamped so scale stays a small integer (degree >= 2, so any
    # t past 53 is still refused)
    scale = host.degree ** min(t, 54)
    if scale > 2**53:
        raise ValidationError(
            f"degree^t = {host.degree}^{t} exceeds 2^53, past which float64 cannot hold a^t exactly"
        )
    core = set(core)  # the fattened set holds it, so refuse a core too big before the search
    check_dense_chain(len(core))
    chain = delayed_walk(host, hosts.union_of_balls(host, core, t))
    chain.validate()
    n, vertices = chain.n, chain.states
    in_core = np.fromiter((v in core for v in vertices), dtype=bool, count=n)
    points = _state_points([emb(v) for v in vertices], n)

    narrowest = np.float32 if scale <= 2**24 else np.float64
    pairs, at_pairs = _power_pairs(chain, t, narrowest)
    i, j = np.divmod(pairs, n)
    host_dist = host.distances(vertices, i, j)
    diff = points[i] - points[j]
    emb_dist = np.sqrt(np.einsum("kd,kd->k", diff, diff))

    edges = host_dist == 1
    lipschitz_max = float(np.max(emb_dist[edges], initial=0.0))
    stretched = np.flatnonzero(edges & (emb_dist > 1.0 + CHECK_TOL))
    if stretched.size:
        k = stretched[0]
        raise ValidationError(
            f"embedding is not 1-Lipschitz: pair ({vertices[i[k]]}, {vertices[j[k]]}) "
            f"stretches to {float(emb_dist[k])}"
        )

    attained, level = np.unique(host_dist, return_inverse=True)
    if rho is None:
        rho = empirical_modulus(host_dist.astype(float), emb_dist)
    rho_at = []
    previous = None
    for d in attained.tolist():
        value = float(rho(float(d)))
        if not value >= -CHECK_TOL:  # nan fails too
            raise ValidationError(f"rho({d}) = {value} is not a nonnegative number")
        if previous is not None and value < previous - CHECK_TOL:
            raise ValidationError(f"rho is not nondecreasing at argument {d}")
        previous = value
        rho_at.append(value)
    rho_pair = np.asarray(rho_at)[level]
    exceeded = np.flatnonzero(rho_pair > emb_dist + CHECK_TOL)
    if exceeded.size:
        k = exceeded[0]
        raise ValidationError(
            f"rho exceeds the embedding gap on pair ({vertices[i[k]]}, {vertices[j[k]]}): "
            f"rho({int(host_dist[k])}) = {rho_at[level[k]]} > {float(emb_dist[k])}"
        )

    # finite: a coupled pair is joined by at most t in-subset edges, each
    # stretched by at most 1 + CHECK_TOL, rho is at most the gap, and p <= 2
    rho_p = np.asarray([r**p for r in rho_at])[level]
    emb_p = emb_dist**p

    # each term is (pi_i * w_ij) * x_ij, as in a dense n x n sum; the pairs
    # left out contribute exact zeros, which fsum ignores
    pi = chain.pi
    pair_weight = pi[i] * at_pairs
    full_avg = _weighted_sum(pair_weight, rho_p)
    from_core = in_core[i]
    restricted_avg = _weighted_sum(at_pairs[from_core], rho_p[from_core]) / n

    # free walk for t steps from one core vertex; the host is vertex-transitive
    # so the start does not matter
    start = min(core, key=host.sort_key)
    deg = host.degree
    dist_now = {start: 1.0}
    for _ in range(t):
        nxt: dict = {}
        for v, mass in dist_now.items():
            share = mass / deg
            for w in host.neighbors(v):
                nxt[w] = nxt.get(w, 0.0) + share
        dist_now = nxt
    free_term = math.fsum(
        mass * float(rho(float(host.distance(start, v)))) ** p for v, mass in dist_now.items()
    )
    chain_lower = len(core) / n * free_term

    markov_lhs = _weighted_sum(pair_weight, emb_p)
    one_step = np.searchsorted(pairs, chain.rows * n + chain.cols)  # a's nonzeros among the pairs
    markov_rhs = t * _weighted_sum(pi[chain.rows] * chain.values, emb_p[one_step])
    upper = float(t)  # K^p t with K = 1

    if abs(restricted_avg - chain_lower) > CHECK_TOL * max(1.0, abs(chain_lower)):
        raise InvariantViolation(
            "restricted average disagrees with the free-walk identity: "
            f"{restricted_avg} vs {chain_lower}"
        )
    links = [
        ("chain_lower <= restricted_avg", chain_lower, restricted_avg),
        ("restricted_avg <= full_avg", restricted_avg, full_avg),
        ("full_avg <= markov_lhs", full_avg, markov_lhs),
        ("markov_lhs <= upper", markov_lhs, upper),
    ]
    if p == 2.0:
        links.insert(3, ("markov_lhs <= markov_rhs", markov_lhs, markov_rhs))
        links.append(("markov_rhs <= upper", markov_rhs, upper))
    for name, lo, hi in links:
        if lo > hi + CHECK_TOL * max(1.0, abs(hi)):
            raise InvariantViolation(f"sandwich link failed: {name} ({lo} > {hi})")

    return ReplayReport(
        core_size=len(core),
        fattened_size=n,
        ratio=(n - len(core)) / len(core),
        t=t,
        p=p,
        lipschitz_max=lipschitz_max,
        free_term=free_term,
        chain_lower=chain_lower,
        restricted_avg=restricted_avg,
        full_avg=full_avg,
        markov_lhs=markov_lhs,
        markov_rhs=markov_rhs,
        upper=upper,
        slack=tuple((name, hi - lo) for name, lo, hi in links),
    )


def alpha_upper(beta) -> Fraction:
    """Upper bound on the compression exponent from a displacement exponent.

    Exact: min(1 / (2 beta), 1). Accepts int, float, or Fraction.
    """
    b = Fraction(beta) if math.isfinite(beta) else math.nan  # nan fails the range check
    if not 0 < b <= 1:
        raise ValidationError("beta must lie in (0, 1]")
    return min(Fraction(1, 2) / b, Fraction(1))


def iterated_wreath_table(k_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """Rows (k, beta_k, alpha_upper(beta_k)) for k = 1..k_max, with beta_k =
    1 - 2^{-k} the displacement exponent of the k-fold iterated construction."""
    if k_max < 1:
        raise ValidationError("k must be >= 1")
    if k_max > 14_284:  # the last k whose 2^k prints within Python's default 4,300 digits
        raise ResourceLimitError("k must be <= 14284: past it, 2^k prints in more than 4300 digits")
    betas = (Fraction(2**k - 1, 2**k) for k in range(1, k_max + 1))
    return [(k, beta, alpha_upper(beta)) for k, beta in enumerate(betas, start=1)]


def compression_checks(tail, beta_hat: float, observations: Sequence[tuple]) -> tuple[float, list[dict]]:
    """The pipeline's Markov-type step at each t of the tail's grid in 64..4096:
    rho(c t^beta_hat) <= delta_min^(-1/2) t^(1/2), with rho the empirical_modulus
    of the scan's (distance, norm, error bound) observations and delta_min the
    least tail frequency there, the bound Markov type 2 with constant 1 gives a
    map of unit one-step energy. Returns delta_min and one row per tested t;
    raises InvariantViolation where delta_min is 0 or a row fails."""
    tested = [t for t in tail.delta_hat if 64 <= t <= 4096]
    if not tested:
        raise ValidationError("the tail's grid has no time in 64..4096, where the bound is tested")
    frequencies = [tail.delta_hat[t] for t in tested]
    if not all(0 <= f <= 1 for f in frequencies):  # nan fails too
        raise ValidationError("tail frequencies must lie in [0, 1]")
    delta_min = min(frequencies)
    if delta_min <= 0:
        raise InvariantViolation("empirical tail probability vanished on the tested grid")
    rho_hat = empirical_modulus([d for d, _, _ in observations], [v for _, v, _ in observations])
    rows = []
    for t in tested:
        threshold = tail.c * t**beta_hat
        lhs = rho_hat(threshold)
        rhs = delta_min ** -0.5 * t ** 0.5
        rows.append({"t": t, "threshold": threshold, "rhoHat": lhs, "bound": rhs, "pass": lhs <= rhs})
        if lhs > rhs:
            raise InvariantViolation(f"compression bound failed at t={t}: rhoHat {lhs} > bound {rhs}")
    return delta_min, rows
