"""The explicit Hilbert-space embedding and its certified norms.

An element (f, k) maps to cursor (+) lamps (+) phi, where phi assigns, to each
abstract orthonormal coordinate keyed by (half-line side, endpoint n,
restriction of f to that half-line), the coefficient (n - k)^alpha on the
right side (n > k) and (k - n)^alpha on the left (n < k). Only disjoint
supports and unit norms of the underlying vectors matter, so the coordinates
stay abstract keys and no function space is materialized.

Norms and distances are certified: coefficients are enumerated inside an
explicit window, and the infinite tail (where both restrictions vanish and the
per-endpoint difference is (m + delta)^alpha - m^alpha with delta the cursor
gap) is summed in closed form as a binomial series in Hurwitz zeta values,

    sum_{m >= m0} ((m + delta)^alpha - m^alpha)^2
        = sum_{p >= 2} c_p delta^p zeta(p - 2 alpha, m0),

with c_p the convolution of binomial coefficients C(alpha, j), built one order
at a time, and a rigorous geometric remainder once delta/m0 <= 1/4. The series
stops at the first order whose remainder certifies; the reported errorBound
covers that truncation and always lands at or below the requested eps. The
series depends only on (delta, m0, alpha, tol), and a scan meets few distinct
ones (21 in the pipeline's 1,200 norms), so each is computed once per process
and kept in a bounded cache.

One routine sums the window of the right half-lines; the left side is its
mirror image n -> -n (cursors, support and differing positions negated). It
never compares restrictions: those of a and b to [n, inf) agree exactly when
n is past the last position where their lamps differ. A window longer than
metric.DEFAULT_BALL_CAP positions is refused before it is summed.
compression_scan fits the shape of given elements: a family below, the ball,
or random_elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import zeta

from . import metric
from .errors import EstimationError, ResourceLimitError, ValidationError
from .group import GroupElement, IDENTITY, LampConfig, canonical_generators, encode, generator_names

__all__ = [
    "embedding_distance",
    "embedding_norm",
    "LipschitzAudit",
    "lipschitz_audit",
    "CompressionReport",
    "norm_observations",
    "fit_exponent",
    "compression_scan",
    "ball_elements",
    "pure_cursor_family",
    "pure_lamp_family",
    "balanced_family",
    "worst_balanced_exponent",
    "random_elements",
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
            zr = float(zeta(s, m0)) * m0**s  # in [1, 1 + m0/(s-1)]
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


def _half_line_sum(
    k1: int, k2: int, reach: float, last_diff: float, alpha: float, margin: int, tail_tol: float
) -> tuple[float, float, float]:
    """(window sum, tail estimate, tail remainder) of the right half-line keys.

    reach is the last lamp position of either element and last_diff the last
    position where their lamps differ (-inf when there is none), so the two
    restrictions to [n, inf) agree exactly when n > last_diff. A window longer
    than metric.DEFAULT_BALL_CAP positions is refused before it is summed.
    """
    k_hi = max(k1, k2)
    cutoff = max(k_hi + margin, reach)
    k_lo = min(k1, k2)
    if cutoff - k_lo > metric.DEFAULT_BALL_CAP:
        raise ResourceLimitError(
            f"embedding window of {cutoff - k_lo} positions exceeds the cap {metric.DEFAULT_BALL_CAP}"
        )
    terms: list[float] = []
    for n in range(k_lo + 1, cutoff + 1):
        ca = float(n - k1) ** alpha if n > k1 else 0.0
        cb = float(n - k2) ** alpha if n > k2 else 0.0
        if n > last_diff:
            terms.append((ca - cb) ** 2)
        else:
            terms.append(ca * ca + cb * cb)
    tail, remainder = shifted_power_tail(abs(k1 - k2), cutoff - k_hi + 1, alpha, tail_tol)
    return math.fsum(terms), tail, remainder


def _squared_parts(a: GroupElement, b: GroupElement, alpha: float, eps: float) -> tuple[int, float, float]:
    """(exact cursor+lamp part, phi part estimate, certified phi error)."""
    delta = abs(a.cursor - b.cursor)
    # the tail series needs delta/m0 <= 1/4, and m0 is at least margin + 1
    margin = max(4 * delta, BASE_MARGIN)
    lamp_diff = dict(a.lamps.entries)
    for p, v in b.lamps.entries:
        q = lamp_diff.get(p, 0) - v
        if q:
            lamp_diff[p] = q
        else:
            lamp_diff.pop(p, None)
    exact = delta * delta + sum(v * v for v in lamp_diff.values())
    # clamp so the slack stays below the squared gap of distinct elements
    # (>= 1), keeping error_bound <= eps even for generous eps requests
    tail_tol = min(eps, 1.0) ** 2 / 8.0
    support = [p for p, _ in a.lamps.entries + b.lamps.entries]
    k1, k2 = a.cursor, b.cursor
    right_window, right_tail, right_rem = _half_line_sum(
        k1, k2, max(support, default=-math.inf), max(lamp_diff, default=-math.inf),
        alpha, margin, tail_tol,
    )
    # the left half-lines are the right ones of the mirror image n -> -n
    left_window, left_tail, left_rem = _half_line_sum(
        -k1, -k2, -min(support, default=math.inf), -min(lamp_diff, default=math.inf),
        alpha, margin, tail_tol,
    )
    phi = math.fsum([right_window, left_window, right_tail, left_tail])
    return exact, phi, right_rem + left_rem


def embedding_distance(a: GroupElement, b: GroupElement, alpha: float, eps: float = 1e-6) -> tuple[float, float]:
    """Certified distance between two embedded elements.

    Returns (value, error_bound) with |value - true| <= error_bound <= eps.
    """
    alpha = _check_alpha(alpha)
    eps = _check_eps(eps)
    if a == b:
        return (0.0, 0.0)
    exact, phi, slack = _squared_parts(a, b, alpha, eps)
    total = exact + phi
    # distinct elements differ in cursor or lamps, so total >= 1 and the
    # square root inflates the squared-value error by at most 1/2
    value = math.sqrt(total)
    error_bound = slack / (math.sqrt(max(total - slack, 0.0)) + value)
    return (value, error_bound)


def embedding_norm(g: GroupElement, alpha: float, eps: float = 1e-6) -> tuple[float, float]:
    """Certified norm of one embedded element (distance to the identity)."""
    return embedding_distance(g, IDENTITY, alpha, eps)


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


def fit_exponent(observations: Sequence[tuple[int, float, float]]) -> tuple[float, float]:
    """(slope, intercept) of log norm against log distance."""
    if len(observations) < 4:
        raise EstimationError("need >= 4 observations for the exponent fit")
    distances = np.array([d for d, _, _ in observations], dtype=float)
    norms = np.array([v for _, v, _ in observations], dtype=float)
    if np.all(distances == distances[0]):
        raise EstimationError("degenerate sample: all observations at one distance")
    if np.any(norms <= 0):
        raise EstimationError("nonpositive norm in observations")
    x = np.log(distances)
    y = np.log(norms)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return (float(slope), float(intercept))


def compression_scan(alpha: float, elements: list[GroupElement], eps: float) -> CompressionReport:
    """Record (distance, certified norm, error bound) of each element, fit the shape.

    fitted_lower_constant is the smallest ratio norm / distance^shape for the
    lower-bound shape exponent; lipschitz_max is the largest norm / distance.
    """
    alpha = _check_alpha(alpha)
    eps = _check_eps(eps)
    observations = norm_observations(elements, alpha, eps)
    slope, _ = fit_exponent(observations)
    shape = lower_shape_exponent(alpha)
    lower_constant = min(v / d**shape for d, v, _ in observations)
    lipschitz_max = max(v / d for d, v, _ in observations)
    return CompressionReport(alpha, tuple(observations), slope, lower_constant, lipschitz_max)


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
    fits: dict[float, float] = {}
    for prefactor in BALANCED_PREFACTORS:
        family = balanced_family(alpha, prefactor)
        observations = norm_observations(family, alpha, eps)
        slope, _ = fit_exponent(observations)
        fits[prefactor] = slope
    worst = min(fits.values())
    return (worst, fits)


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
