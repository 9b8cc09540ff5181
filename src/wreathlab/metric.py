"""Exact left-invariant word metric for the canonical four-generator set.

The closed form: reduce distance(a, b) to h = inverse(a) * b = (f, k). The
lamp cost is the total absolute lamp mass of f. The cursor must visit every
support position, starting at 0 and ending at k, so with
L = min(supp(f) + {0, k}) and R = max(supp(f) + {0, k}) the travel cost is the
better of sweeping left first or right first:

    left-first  : (0 - L) + (R - L) + (R - k)
    right-first : (R - 0) + (R - L) + (k - L)

When the support already lies between 0 and k both sweeps degenerate to |k|.
Correctness is gated on the breadth-first oracle over the Cayley graph; the
two agree exactly on the whole radius-8 ball.

The array form takes many pairs in one numpy pass. distances reads each pair
(a, b) of rows of an int64 lamp table off a^-1 b = (shift by -k_a of f_b - f_a,
k_b - k_a); column c is at positions[c] (hosts.WreathCayley: each lamp or
cursor position; the walk: a dense window). The scalar distance is its reference.
ball and hosts.union_of_balls share one breadth_first search; distance_bfs,
the oracle, keeps its own; both refuse an oversized radius before they search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import RadiusExceededError, ResourceLimitError, ValidationError
from .group import (
    GroupElement,
    IDENTITY,
    LampConfig,
    canonical_generators,
    inverse,
    multiply,
)

__all__ = [
    "MetricWitness",
    "BallTable",
    "distance",
    "distances",
    "distance_bfs",
    "breadth_first",
    "ball",
    "neighbors",
]

DEFAULT_BALL_CAP = 10_000_000
# built once: neighbors runs for every vertex of every search
_GENERATORS = canonical_generators()


@dataclass(frozen=True, slots=True)
class MetricWitness:
    """Distance plus its decomposition. total == lamp_cost + travel_cost."""

    total: int
    lamp_cost: int
    travel_cost: int
    direction: str  # "left-first" | "right-first" | "degenerate"


def witness_for(lamps: LampConfig, cursor: int) -> MetricWitness:
    """Witness for the distance from the identity to (lamps, cursor)."""
    lamp_cost = sum(abs(v) for _, v in lamps.entries)
    ends = (0, cursor, *lamps.support())
    left, right = min(ends), max(ends)
    left_first = (0 - left) + (right - left) + (right - cursor)
    right_first = (right - 0) + (right - left) + (cursor - left)
    travel = min(left_first, right_first)
    segment_lo, segment_hi = min(0, cursor), max(0, cursor)
    if left == segment_lo and right == segment_hi:
        direction = "degenerate"  # support inside the 0..cursor segment
    elif left_first <= right_first:
        direction = "left-first"
    else:
        direction = "right-first"
    return MetricWitness(lamp_cost + travel, lamp_cost, travel, direction)


def distance(a: GroupElement, b: GroupElement) -> MetricWitness:
    """Exact graph distance in the canonical Cayley graph, with witness."""
    h = multiply(inverse(a), b)
    return witness_for(h.lamps, h.cursor)


def distances(
    lamps: np.ndarray, cursors: np.ndarray, positions: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Exact distances from row i[m] to row j[m] of a lamp table, for every m.

    Column c of lamps is at positions[c], which are sorted, and every cursor
    is one of the positions. Equal to distance(a, b).total on every pair whose
    values stay in int64; the caller checks that they do.
    """
    diff = lamps[j] - lamps[i]
    lamp_cost = np.abs(diff).sum(axis=1)
    lit = diff != 0
    if not positions.size:
        return lamp_cost  # no positions: no rows, so no pairs
    nonempty = lit.any(axis=1)
    k_a = cursors[i]
    k = cursors[j] - k_a
    # support ends of f_b - f_a shifted by -k_a; an empty support adds no end
    first = np.where(nonempty, positions[lit.argmax(axis=1)] - k_a, 0)
    last = np.where(nonempty, positions[lit.shape[1] - 1 - lit[:, ::-1].argmax(axis=1)] - k_a, 0)
    left = np.minimum(np.minimum(first, 0), k)
    right = np.maximum(np.maximum(last, 0), k)
    # the better sweep of witness_for: both cost 2 (right - left) -/+ k
    return lamp_cost + 2 * (right - left) - np.abs(k)


def neighbors(g: GroupElement) -> list[GroupElement]:
    """The four Cayley-graph neighbors g * s."""
    return [multiply(g, s) for s in _GENERATORS]


def _check_radius(radius: int) -> None:
    """Refuse a radius whose ball may exceed DEFAULT_BALL_CAP: the graph is
    4-regular, so |B_R| <= 1 + 4 (3^R - 1) / 2 = 2 3^R - 1 (exact up to R = 3).
    The exponent is clamped at the cap's bit length, as in
    hosts.wreath_truncation, so a huge radius is refused at once."""
    cap = DEFAULT_BALL_CAP
    if 2 * 3 ** min(radius, cap.bit_length()) - 1 > cap:
        raise ResourceLimitError(f"the radius-{radius} ball may exceed the cap {cap}")


def distance_bfs(a: GroupElement, b: GroupElement, max_radius: int) -> int:
    """Breadth-first oracle. Exact, but cost grows with the ball volume.

    Raises RadiusExceededError when the target is farther than max_radius.
    """
    if max_radius < 0:
        raise ValidationError("max_radius must be nonnegative")
    _check_radius(max_radius)
    target = multiply(inverse(a), b)
    if target == IDENTITY:
        return 0
    seen = {IDENTITY}
    frontier = [IDENTITY]
    for radius in range(1, max_radius + 1):
        next_frontier = []
        for g in frontier:
            for h in neighbors(g):
                if h in seen:
                    continue
                if h == target:
                    return radius
                seen.add(h)
                next_frontier.append(h)
        frontier = next_frontier
    raise RadiusExceededError(f"no path within radius {max_radius}")


class BallTable(dict):
    """Each element within a radius of the identity, mapped to its exact distance."""

    def __init__(self, radius: int, distances: dict[GroupElement, int]):
        super().__init__(distances)
        self.radius = radius

    distance_of = dict.__getitem__

    def layer_sizes(self) -> list[int]:
        sizes = [0] * (self.radius + 1)
        for d in self.values():
            sizes[d] += 1
        return sizes


def breadth_first(centers: Iterable, neighbors: Callable[[object], Iterable], radius: int) -> dict:
    """Multi-source breadth-first search: vertex -> distance to the nearest
    center for every vertex within radius, in the order reached; more than
    DEFAULT_BALL_CAP vertices raise ResourceLimitError."""
    cap = DEFAULT_BALL_CAP
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    found = dict.fromkeys(centers, 0)
    if not found:
        raise ValidationError("at least one center required")
    frontier = deque(found)
    while frontier:
        v = frontier.popleft()
        d = found[v]
        if d == radius:
            continue
        for w in neighbors(v):
            if w not in found:
                found[w] = d + 1
                if len(found) > cap:
                    raise ResourceLimitError(f"breadth-first search exceeded cap {cap}")
                frontier.append(w)
    return found


def ball(radius: int) -> BallTable:
    """Enumerate the radius ball around the identity by breadth-first search."""
    _check_radius(radius)
    return BallTable(radius, breadth_first([IDENTITY], neighbors, radius))

