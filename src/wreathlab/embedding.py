"""The explicit Hilbert-space embedding and its certified norms.

An element (f, k) maps to cursor (+) lamps (+) phi, where phi assigns, to each
abstract orthonormal coordinate keyed by (half-line side, endpoint n,
restriction of f to that half-line), the coefficient (n - k)^alpha on the
right side (n > k) and (k - n)^alpha on the left (n < k). Only disjoint
supports and unit norms of the underlying vectors matter, so the coordinates
stay abstract keys and no function space is materialized.

The embedding is left-invariant (left multiplication permutes the phi keys
and translates cursor and lamps), so embedding_distance(a, b) is the norm of
the one element b^-1 a, its distance to the identity; with b the identity
that is embedding_norm(a) to the bit. The norm reads g through four integers
alone, its cursor, first and last lamp and squared lamp mass, and one routine
of those four, _norm_parts, holds the whole certificate. Norms are certified:
coefficients are enumerated inside an explicit window, and the infinite tail
(where the element's restrictions vanish, as the identity's do, and the
per-endpoint difference is (m + delta)^alpha - m^alpha with delta = |cursor|)
is summed in closed form as a binomial series in Hurwitz zeta values,

    sum_{m >= m0} ((m + delta)^alpha - m^alpha)^2
        = sum_{p >= 2} c_p delta^p zeta(p - 2 alpha, m0),

with c_p the convolution of binomial coefficients C(alpha, j), built one order
at a time, and a rigorous geometric remainder once delta/m0 <= 1/4. The series
stops at the first order whose remainder certifies; the reported errorBound
covers that truncation and always lands at or below the requested eps. The
series depends only on (delta, m0, alpha, tol), and a scan meets few distinct
ones (21 in the pipeline's 1,200 norms), so each is computed once per process
and kept in a bounded cache. The zeta values come from hurwitz_zeta, a
line-for-line port of the Cephes routine behind scipy.special.zeta (direct
sum, Euler-Maclaurin tail, asymptotic form past q = 1e8). It returns scipy's
double bit for bit, which the tests check over the series' orders and shifts
and on each branch, and it keeps scipy off the import path. Like scipy's
value, it enters the series with no error term of its own.

One routine sums the window of the right half-lines; the left side is its
mirror image n -> -n (cursor and support negated). It never compares
restrictions: the element's restriction to [n, inf) is empty, as the
identity's is, exactly when n is past its last lamp. A window longer than
metric.DEFAULT_BALL_CAP positions is refused before it is summed.
compression_scan fits the shape of given elements (a family below, the ball,
or random_elements; sampled_elements picks one by a text spec) with
walk.fit_power_law, and worst_balanced_exponent is one scan per balanced family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import metric, walk
from .errors import ResourceLimitError, ValidationError
from .group import (
    GroupElement, IDENTITY, LampConfig, canonical_generators, encode, generator_names, inverse, multiply,
)

__all__ = [
    "hurwitz_zeta",
    "embedding_distance",
    "embedding_norm",
    "LipschitzAudit",
    "lipschitz_audit",
    "CompressionReport",
    "norm_observations",
    "compression_scan",
    "ball_elements",
    "pure_cursor_family",
    "pure_lamp_family",
    "balanced_family",
    "worst_balanced_exponent",
    "random_elements",
    "sampled_elements",
    "lower_shape_exponent",
]

EPS_FLOOR = 1e-9
BASE_MARGIN = 16
SERIES_MAX_ORDER = 400
# distinct tail series kept per process; an entry is a few hundred bytes
TAIL_CACHE_SIZE = 4096
# the balanced families that the worst-case fit and the pipeline scan sweep
BALANCED_PREFACTORS = (1, 2, 4, 8, 16)
BALANCED_MAX_DISTANCE = 200


# Cephes: machine epsilon 2^-53, and the Euler-Maclaurin coefficients (2k)!/B_2k
MACHEP = 1.11022302462515654042e-16
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9,  # 1.307674368e12/691
    7.47242496e10,
    -2.950130727918164224e12,  # 1.067062284288e16/3617
    1.1646782814350067249e14,  # 5.109094217170944e18/43867
    -4.5979787224074726105e15,  # 8.028576626982912e20/174611
    1.8152105401943546773e17,  # 1.5511210043330985984e23/854513
    -7.1661652561756670113e18,  # 1.6938241367317436694528e27/236364091
)


def hurwitz_zeta(s: float, q: float) -> float:
    """zeta(s, q) = sum_{m >= 0} (m + q)^-s for s > 1, q > 0 and |s log q| < 700,
    where q^-s lies well inside the float range.

    A line-for-line port of Cephes zeta (scipy.special.zeta), operation for
    operation through math.pow, so it returns the same double: sum terms
    directly, at least 9 and on until m + q > 9, stopping once a term drops
    below MACHEP relative; then add the Euler-Maclaurin tail at w = m + q,
    b w/(s-1) - b/2 + sum_k (s)_{2k-1} b / w^(2k-1) / ((2k)!/B_2k), stopping
    at the first term below MACHEP relative. Past q = 1e8 it returns the
    asymptotic form (1/(s-1) + 1/(2q)) q^(1-s) (DLMF 25.11.43).
    """
    if not (s > 1.0 and q > 0.0 and abs(s * math.log(q)) < 700.0):
        raise ValidationError("hurwitz_zeta needs s > 1, q > 0 and |s log q| < 700")
    if q > 1e8:
        return (1 / (s - 1) + 1 / (2 * q)) * math.pow(q, 1 - s)
    total = math.pow(q, -s)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -s)
        total += b
        if abs(b / total) < MACHEP:
            return total
    w = a
    total += b * w / (s - 1.0)
    total -= 0.5 * b
    a = 1.0
    k = 0.0
    for coefficient in _ZETA_A:
        a *= s + k
        b /= w
        t = a * b / coefficient
        total = total + t
        if abs(t / total) < MACHEP:
            return total
        k += 1.0
        a *= s + k
        b /= w
        k += 1.0
    return total


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValidationError("alpha must lie in the open interval (0, 1/2)")
    return alpha


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps >= EPS_FLOOR:  # NaN fails too
        raise ValidationError(f"eps must be >= {EPS_FLOOR} (floating accumulation floor)")
    return eps


@functools.lru_cache(maxsize=TAIL_CACHE_SIZE)
def shifted_power_tail(delta: int, m0: int, alpha: float, tol: float) -> tuple[float, float]:
    """(estimate, remainder bound) for sum_{m >= m0} ((m+delta)^a - m^a)^2.

    Requires delta/m0 <= 1/4 so the binomial series in delta/m converges
    geometrically. The remainder bound is rigorous:
    |c_p| <= 2 alpha^2 and zeta(s, m0) <= m0^{-s} (1 + m0/(s - 1)).
    A pure function of its arguments, so results are cached; a refused input
    raises again on every call, since an exception is never cached.
    """
    if delta == 0:
        return (0.0, 0.0)
    if delta < 0 or m0 <= 0:
        raise ValidationError("delta must be >= 0 and m0 positive")
    u = delta / m0
    if u > 0.25:
        raise ValidationError("window margin too small: delta/m0 must be <= 1/4")
    b = [alpha]  # b[j - 1] = C(alpha, j), one more per order by the downward recurrence
    log_m0 = math.log(m0)
    m0_2a = m0 ** (2 * alpha)
    terms: list[float] = []
    slack = 0.0
    for p in range(2, SERIES_MAX_ORDER + 1):
        c_p = math.fsum(b[j - 1] * b[p - j - 1] for j in range(1, p))
        s = p - 2 * alpha
        if s * log_m0 < 700.0:
            zr = hurwitz_zeta(s, float(m0)) * m0**s  # in [1, 1 + m0/(s-1)]
        else:
            # beyond float range; bracket zeta by the integral comparison
            zr = 0.5 + m0 / (s - 1)
            slack += abs(c_p) * u**p * m0_2a * 0.5
        terms.append(c_p * u**p * m0_2a * zr)
        remainder = (
            2 * alpha**2 * m0_2a * (1 + m0 / (p - 2 * alpha)) * u ** (p + 1) / (1 - u)
        )
        if remainder + slack <= tol:
            return (math.fsum(terms), remainder + slack)
        b.append(b[-1] * (alpha - (p - 1)) / p)
    raise ResourceLimitError("tail series did not certify within the order cap")


# the cache's statistics, bound here so they stay readable where the module
# attribute shifted_power_tail is replaced by a wrapper
tail_cache_info = shifted_power_tail.cache_info


def _half_line_sum(k: int, last: float, alpha: float, margin: int, tail_tol: float) -> tuple[float, float, float]:
    """(window sum, tail estimate, tail remainder) of the right half-line keys
    of (f, k) minus the identity.

    last is the last lamp position of f (-inf when there is none): the
    restriction of f to [n, inf) is empty, as the identity's, exactly when
    n > last. A window over metric.DEFAULT_BALL_CAP positions is refused.
    """
    k_hi = max(k, 0)
    cutoff = max(k_hi + margin, last)
    k_lo = min(k, 0)
    if cutoff - k_lo > metric.DEFAULT_BALL_CAP:
        raise ResourceLimitError(
            f"embedding window of {cutoff - k_lo} positions exceeds the cap {metric.DEFAULT_BALL_CAP}"
        )
    terms: list[float] = []
    for n in range(k_lo + 1, cutoff + 1):
        cg = float(n - k) ** alpha if n > k else 0.0
        ce = float(n) ** alpha if n > 0 else 0.0
        if n > last:
            terms.append((cg - ce) ** 2)
        else:
            terms.append(cg * cg + ce * ce)
    tail, remainder = shifted_power_tail(abs(k), cutoff - k_hi + 1, alpha, tail_tol)
    return math.fsum(terms), tail, remainder


def _norm_parts(k: int, first: float, last: float, sumsq: int, alpha: float, eps: float) -> tuple[float, float]:
    """(value, error_bound) of the element with cursor k, lamps from first to
    last (inf and -inf when it has none) and squared lamp mass sumsq."""
    if k == 0 and sumsq == 0:
        return (0.0, 0.0)
    # the tail series needs |k|/m0 <= 1/4, and m0 is at least margin + 1
    margin = max(4 * abs(k), BASE_MARGIN)
    # clamp so the slack stays below the squared norm of a nonidentity element
    # (>= 1), keeping error_bound <= eps even for generous eps requests
    tail_tol = min(eps, 1.0) ** 2 / 8.0
    right_window, right_tail, right_rem = _half_line_sum(k, last, alpha, margin, tail_tol)
    # the left half-lines are the right ones of the mirror image n -> -n
    left_window, left_tail, left_rem = _half_line_sum(-k, -first, alpha, margin, tail_tol)
    total = k * k + sumsq + math.fsum([right_window, left_window, right_tail, left_tail])
    slack = right_rem + left_rem
    # a nonidentity element moves its cursor or lamps, so total >= 1 and the
    # square root inflates the squared-value error by at most 1/2
    value = math.sqrt(total)
    return (value, slack / (math.sqrt(max(total - slack, 0.0)) + value))


def embedding_norm(g: GroupElement, alpha: float, eps: float = 1e-6) -> tuple[float, float]:
    """Certified norm of one embedded element: its distance to the identity.

    Returns (value, error_bound) with |value - true| <= error_bound <= eps.
    """
    alpha = _check_alpha(alpha)
    eps = _check_eps(eps)
    support = g.lamps.support()
    first, last = min(support, default=math.inf), max(support, default=-math.inf)
    return _norm_parts(g.cursor, first, last, sum(v * v for _, v in g.lamps.entries), alpha, eps)


def embedding_distance(a: GroupElement, b: GroupElement, alpha: float, eps: float = 1e-6) -> tuple[float, float]:
    """Certified distance between two embedded elements: the norm of b^-1 a."""
    return embedding_norm(multiply(inverse(b), a), alpha, eps)


class LipschitzAudit(NamedTuple):
    """Each generator's certified norm and error bound, keyed by its name; the
    largest norm, which by invariance bounds the Lipschitz constant of the
    whole embedding; and the audit constant lipschitz^2 (1 - 2 alpha)."""

    generators: dict[str, dict[str, float]]
    lipschitz: float
    audit_constant: float


def lipschitz_audit(alpha: float, eps: float = EPS_FLOOR) -> LipschitzAudit:
    """The certified norms of the four generators. The lamp generators give
    exactly 1; the cursor generators carry the half-line series and dominate."""
    generators = {}
    for name, g in zip(generator_names(), canonical_generators()):
        value, bound = embedding_norm(g, alpha, eps)
        generators[name] = {"norm": value, "errorBound": bound}
    lipschitz = max(entry["norm"] for entry in generators.values())
    return LipschitzAudit(generators, lipschitz, lipschitz * lipschitz * (1 - 2 * alpha))


@dataclass(frozen=True)
class CompressionReport:
    """Distance/norm observations with fitted shape constants."""

    alpha: float
    observations: tuple[tuple[int, float, float], ...]  # (distance, norm, error bound)
    fitted_exponent: float
    fitted_lower_constant: float
    lipschitz_max: float


def lower_shape_exponent(alpha: float) -> float:
    """The lower-bound shape exponent (2 alpha + 1) / (2 alpha + 2)."""
    alpha = _check_alpha(alpha)
    return (2 * alpha + 1) / (2 * alpha + 2)


def norm_observations(
    elements: Iterable[GroupElement], alpha: float, eps: float
) -> list[tuple[int, float, float]]:
    out = []
    for g in elements:
        d = metric.distance(IDENTITY, g).total
        if d < 1:
            raise ValidationError("sampler produced the identity (distance 0)")
        value, bound = embedding_norm(g, alpha, eps)
        out.append((d, value, bound))
    return out


def compression_scan(alpha: float, elements: list[GroupElement], eps: float) -> CompressionReport:
    """Record (distance, certified norm, error bound) of each element, fit the shape.

    fitted_lower_constant is the smallest ratio norm / distance^shape for the
    lower-bound shape exponent; lipschitz_max is the largest norm / distance.
    """
    alpha = _check_alpha(alpha)
    eps = _check_eps(eps)
    observations = norm_observations(elements, alpha, eps)
    fit = walk.fit_power_law([d for d, _, _ in observations], [v for _, v, _ in observations])
    shape = lower_shape_exponent(alpha)
    lower_constant = min(v / d**shape for d, v, _ in observations)
    lipschitz_max = max(v / d for d, v, _ in observations)
    return CompressionReport(alpha, tuple(observations), fit.beta_hat, lower_constant, lipschitz_max)


def ball_elements(radius: int) -> list[GroupElement]:
    """Every element at distance 1..radius, deterministically ordered."""
    out = [g for g, d in metric.ball(radius).items() if d >= 1]
    out.sort(key=encode)
    return out


def pure_cursor_family(k_max: int) -> list[GroupElement]:
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    return [GroupElement(LampConfig(), k) for k in range(1, k_max + 1)]


def pure_lamp_family(spread: int, max_mass: int) -> list[GroupElement]:
    """Single lamp of growing value at a fixed position (cursor stays home)."""
    if spread < 0 or max_mass < 1:
        raise ValidationError("spread must be >= 0 and max_mass >= 1")
    return [GroupElement(LampConfig(((spread, w),)), 0) for w in range(1, max_mass + 1)]


def balanced_family(alpha: float, prefactor: float) -> list[GroupElement]:
    """Lamp mass ~ prefactor * spread^(1 + alpha) spread evenly over 1..spread,
    up to distance BALANCED_MAX_DISTANCE.

    These are the elements whose travel and lamp costs trade off at the
    lower-bound shape exponent; distance is exactly 2 spread + mass.
    """
    alpha = _check_alpha(alpha)
    if not 0 < prefactor < math.inf:
        raise ValidationError("prefactor must be positive and finite")
    out = []
    m = 1
    while True:
        mass = max(m, round(prefactor * m ** (1 + alpha)))
        if 2 * m + mass > BALANCED_MAX_DISTANCE:
            break
        base, extra = divmod(mass, m)
        entries = tuple(
            (position, base + 1 if position <= extra else base)
            for position in range(1, m + 1)
        )
        out.append(GroupElement(LampConfig(entries), 0))
        m += 1
    return out


def worst_balanced_exponent(alpha: float, eps: float = 1e-6) -> tuple[float, dict[float, float]]:
    """Fitted exponent of each balanced family; the minimum is the worst case.

    Larger prefactors weight lamp mass over travel, which is where the
    lower-bound shape is tight; the sweep's minimum is the honest worst case.
    """
    fits = {
        prefactor: compression_scan(alpha, balanced_family(alpha, prefactor), eps).fitted_exponent
        for prefactor in BALANCED_PREFACTORS
    }
    return (min(fits.values()), fits)


def random_elements(count: int, seed: int) -> list[GroupElement]:
    """count random nonidentity elements: cursor in [-6, 6], each position of
    [-4, 4] lit with probability 0.35, lamp values of size 1 to 3."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        cursor = int(rng.integers(-6, 7))
        entries = []
        for position in range(-4, 5):
            if rng.random() < 0.35:
                value = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
                entries.append((position, value))
        g = GroupElement(LampConfig(tuple(entries)), cursor)
        if g != IDENTITY:
            out.append(g)
    return out


def sampled_elements(spec: str, alpha: float, count: int, seed: int) -> list[GroupElement]:
    """The first count elements of the sampler spec: random (random_elements at
    seed, no argument), ball:R, cursor:K, lamp:SPREAD:MASS or balanced:PREFACTOR,
    each number defaulting to 4, 100, 3:50 and 1. random, cursor and lamp build
    no more; ball and balanced build their whole family first."""
    head, _, arg = spec.partition(":")
    if head == "random":
        if arg:
            raise ValidationError(f"sampler {spec!r}: random takes no argument")
        return random_elements(count, seed)
    try:
        if head == "ball":
            family = ball_elements(int(arg or "4"))
        elif head == "cursor":
            family = pure_cursor_family(min(int(arg or "100"), count))
        elif head == "lamp":
            first, _, second = arg.partition(":")
            family = pure_lamp_family(int(first or "3"), min(int(second or "50"), count))
        elif head == "balanced":
            family = balanced_family(alpha, float(arg or "1"))
        else:
            raise ValidationError(f"unknown sampler {spec!r}")
    except ValueError:
        raise ValidationError(f"sampler {spec!r} has a malformed number") from None
    return family[:count]
