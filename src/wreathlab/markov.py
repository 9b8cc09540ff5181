"""Finite stationary reversible chains and the inequalities they certify.

Three jobs live here:

* exact two-sided evaluation of the Markov-type inequality
  E[||f(Z_t) - f(Z_0)||^p] <= K^p t E[||f(Z_1) - f(Z_0)||^p]
  on explicit chains: markov_type_sides builds a^t step by step up to tmax
  and takes every side as one fsum (_weighted_sum), once per campaign chain;
* construction of the delayed walk on a subset A of a host Cayley graph
  (step to an in-subset neighbor with probability 1/degree, stay put with the
  leftover mass), which the replay runs on the core's ball union of radius t
  (hosts.union_of_balls), where it is indistinguishable from the free walk for
  t steps when started in the core set;
* a replay of the resulting sandwich on concrete finite instances: the
  compression lower term never exceeds the Markov-type upper term. The
  replay takes a^t as a dense matrix power, the identity at t = 0, in the
  narrowest float that holds it exactly. Every entry of a is a multiple of
  1/degree (the hosts have degree 2 or 4), so every entry of every partial
  product and partial sum of a^t is a multiple of degree^-t in [0, 1], which
  a float with an m-bit significand holds in any summation order when
  degree^t <= 2^m: a^t is float32 up to degree^t = 2^24, float64 up to 2^53,
  and refused past that. The replay then sums over every ordered pair the
  chain can couple, in row-major order: these are the nonzero terms of the
  dense n x n sums, so each fsum is theirs bit for bit, and no symmetry of a
  or a^t is assumed. One guard, check_dense_chain, refuses n states whose
  dense n x n arrays would not fit in physical memory; delayed_walk calls it,
  the replay calls it on the core before it fattens it, and the hosts' set
  builders call it before they build a set at all. delayed_walk keeps a off
  huge pages: its few nonzeros touch a fraction of its 4 KiB pages, while a
  huge page (numpy asks for them, the kernel grants one only when it has one
  free) makes the 2 MiB around each touched entry resident.

The bound calculator at the bottom turns a displacement exponent into an upper
bound on the compression exponent, exactly, in rational arithmetic.
"""

from __future__ import annotations

import math
import mmap
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvariantViolation, ValidationError, check_physical_memory

__all__ = [
    "FiniteChain",
    "chain_residuals",
    "markov_type_sides",
    "random_reversible_chain",
    "check_dense_chain",
    "delayed_walk",
    "empirical_modulus",
    "ReplayReport",
    "delayed_walk_replay",
    "alpha_upper",
    "iterated_wreath_table",
    "compression_bound",
]

CHAIN_TOL = 1e-12
# tolerance of the campaign's and the replay's inequality checks
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class FiniteChain:
    """States, stationary distribution pi, and row-stochastic transitions a."""

    states: tuple
    pi: np.ndarray
    a: np.ndarray

    @property
    def n(self) -> int:
        return len(self.states)

    def validate(self) -> dict[str, float]:
        residuals = chain_residuals(self)
        for name, value in residuals.items():
            if value > CHAIN_TOL:
                raise ValidationError(f"chain fails {name}: residual {value:.3e} > {CHAIN_TOL:.1e}")
        return residuals


def chain_residuals(chain: FiniteChain) -> dict[str, float]:
    """Worst-case violations of the chain axioms, for validation and reports."""
    pi, a = chain.pi, chain.a
    n = chain.n
    if pi.shape != (n,) or a.shape != (n, n):
        raise ValidationError("shape mismatch between states, pi, and a")
    if np.any(pi < 0) or np.any(a < -0.0):
        raise ValidationError("negative probabilities")
    # pi_i a_ij - pi_j a_ji vanishes where both are zero, and each pair with a
    # nonzero entry is met from that entry's side, so the nonzeros suffice
    i, j = np.nonzero(a)
    imbalance = pi[i] * a[i, j] - pi[j] * a[j, i]
    return {
        "row-stochasticity": float(np.abs(a.sum(axis=1) - 1.0).max()),
        "pi-normalization": float(abs(math.fsum(pi.tolist()) - 1.0)),
        "stationarity": float(np.abs(pi @ a - pi).max()),
        "detailed-balance": float(np.abs(imbalance).max(initial=0.0)),
    }


def _pairwise_power(points: np.ndarray, p: float) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff) ** (p / 2.0)  # x ** 1.0 is x, bit for bit


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """fsum of weights * values, each term one float product."""
    return math.fsum((weights * values).ravel().tolist())


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


def markov_type_sides(
    chain: FiniteChain, points: np.ndarray, p: float, tmax: int
) -> tuple[list[float], float]:
    """Both sides of the Markov-type inequality at constant K = 1.

    Returns (lhs, rhs) with lhs[t - 1] = sum_i pi_i (a^t)_ij ||x_i - x_j||^p for
    t = 1..tmax and the one-step rhs = sum_i pi_i a_ij ||.||^p, so the caller
    may test lhs[t - 1] <= K^p t rhs for any K. a^t is built one step at a
    time from the identity; every side is one fsum.
    """
    if tmax < 1:
        raise ValidationError("tmax must be >= 1")
    if not 1 <= p < math.inf:  # nan fails too
        raise ValidationError("p must be finite and >= 1")
    chain.validate()
    dp = _pairwise_power(_state_points(points, chain.n), p)
    pi = chain.pi[:, None]
    lhs = []
    at = np.eye(chain.n)
    for _ in range(tmax):
        at = at @ chain.a
        lhs.append(_weighted_sum(pi * at, dp))
    return lhs, _weighted_sum(pi * chain.a, dp)


def markov_type_campaign(chains: int, max_states: int, tmax: int, seed: int) -> dict:
    """Check the p = 2, K = 1 inequality on a batch of random chains.

    Each chain gets a random Euclidean embedding and is tested at every
    t = 1..tmax by markov_type_sides. Returns a summary dict; the caller
    decides whether maxViolation > tolerance is fatal.
    """
    if chains < 1:
        raise ValidationError("chains must be >= 1")
    if max_states < 1:
        raise ValidationError("max_states must be >= 1")
    rng = np.random.default_rng(seed)
    max_violation = -math.inf
    worst = None
    checks = 0
    for index in range(chains):
        n = int(rng.integers(1, max_states + 1))
        chain = random_reversible_chain(n, seed=int(rng.integers(0, 2**31)))
        dim = int(rng.integers(1, 5))
        points = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
        lhs, rhs_step = markov_type_sides(chain, points, 2.0, tmax)
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
        return FiniteChain((0,), np.array([1.0]), np.array([[1.0]]))
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
    return FiniteChain(tuple(range(n)), pi, a)


# n x n float64 arrays a replay holds at its peak: a, a^t and the temporaries
# of the matrix power and the validation. An upper bound: a^t and the power's
# temporaries are float32 wherever that holds them exactly
_DENSE_ARRAYS = 4


def check_dense_chain(n: int) -> None:
    """Refuse, before anything is built, n states whose dense chain would not
    fit in physical memory."""
    check_physical_memory(_DENSE_ARRAYS * 8 * n * n, f"the dense n x n arrays of {n} states")


def delayed_walk(host, subset: Sequence) -> FiniteChain:
    """The delayed standard walk restricted to the subset.

    From x: step to each in-subset neighbor with probability 1/degree, stay at
    x with the remaining mass. Uniform pi is stationary and the chain is
    reversible because in-subset adjacency is symmetric.
    """
    subset = tuple(subset)
    n = len(subset)
    check_dense_chain(n)
    if not n:
        raise ValidationError("subset must be nonempty")
    index = {v: i for i, v in enumerate(subset)}
    if len(index) != n:
        raise ValidationError("subset has duplicate vertices")
    deg = host.degree
    buf = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)  # zeros; why off huge pages: module docstring
    buf.madvise(getattr(mmap, "MADV_NOHUGEPAGE", mmap.MADV_NORMAL))  # the flag is Linux's
    a = np.frombuffer(buf).reshape(n, n)
    for i, v in enumerate(subset):
        inside = 0
        for w in host.neighbors(v):
            j = index.get(w)
            if j is not None:
                a[i, j] += 1.0 / deg
                inside += 1
        a[i, i] += 1.0 - inside / deg
    return FiniteChain(subset, np.full(n, 1.0 / n), a)


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
    from . import hosts  # hosts imports this module

    core = set(core)  # the fattened set holds it, so refuse a core too big before the search
    check_dense_chain(len(core))
    chain = delayed_walk(host, hosts.union_of_balls(host, core, t))
    chain.validate()
    n, vertices = chain.n, chain.states
    in_core = np.fromiter((v in core for v in vertices), dtype=bool, count=n)
    points = _state_points([emb(v) for v in vertices], n)

    narrowest = np.float32 if scale <= 2**24 else np.float64
    at = np.linalg.matrix_power(chain.a.astype(narrowest, copy=False), t)
    # every ordered pair the chain can couple, in row-major order
    i, j = np.nonzero((chain.a > 0) | (at > 0))
    at_pairs = at[i, j].astype(float)  # float32 widens to float64 exactly
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
    markov_rhs = t * _weighted_sum(pi[i] * chain.a[i, j], emb_p)
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
    betas = (Fraction(2**k - 1, 2**k) for k in range(1, k_max + 1))
    return [(k, beta, alpha_upper(beta)) for k, beta in enumerate(betas, start=1)]


def compression_bound(delta: float, t: int) -> float:
    """delta^{-1/2} t^{1/2}, the bound on rho(c t^beta) that Markov type 2 with
    constant 1 (Hilbert space) gives when Pr(d(W_t, e) >= c t^beta) >= delta."""
    if not 0 < delta <= 1:
        raise ValidationError("delta must lie in (0, 1]")
    if t < 1:
        raise ValidationError("t must be >= 1")
    return delta ** -0.5 * t ** 0.5
