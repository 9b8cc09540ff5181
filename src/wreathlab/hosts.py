"""Host Cayley graphs for the finite-chain experiments.

Each host exposes uniform-degree adjacency, an exact graph metric, and a
deterministic vertex ordering. The line and the grid use their closed-form
metrics; the wreath host delegates to the exact word metric, so none of the
chain constructions ever needs a graph search for distances. Besides the
scalar distance(u, v), each host takes distances(vertices, i, j): the int64
distances from vertices[i[m]] to vertices[j[m]] for every m, in one array pass.
Besides neighbors(v), each host takes neighbor_index(vertices): the
(n, degree) int64 index in vertices of each vertex's neighbors, in neighbors'
order, -1 for a neighbor outside, in one array pass. The line and the grid key
a vertex by an integer; the wreath host keys it by the bytes of its row of a
lamp table whose columns are the positions that hold a lamp or a cursor. Each
looks its neighbors' keys up with argsort and searchsorted, and refuses
duplicate vertices. Coordinates, cursors and lamp values are int64 in both
array forms; a neighbor past either end of int64 is in no vertex set.
union_of_balls runs metric.breadth_first over any host's neighbors.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from . import markov, metric
from .errors import ResourceLimitError, ValidationError
from .group import GroupElement, LampConfig, encode

__all__ = [
    "ZLine",
    "ZGrid",
    "WreathCayley",
    "host_by_name",
    "interval",
    "box",
    "wreath_truncation",
    "union_of_balls",
]


class ZLine:
    """The integers with steps of one."""

    degree = 2

    def neighbors(self, v: int) -> list[int]:
        return [v - 1, v + 1]

    def distance(self, u: int, v: int) -> int:
        return abs(u - v)

    def distances(self, vertices: Sequence[int], i: np.ndarray, j: np.ndarray) -> np.ndarray:
        x = np.asarray(vertices, dtype=np.int64)
        return np.abs(x[i] - x[j])

    def neighbor_index(self, vertices: Sequence[int]) -> np.ndarray:
        x = np.asarray(vertices, dtype=np.int64)[:, None]
        return np.where(_leaves_int64(x), -1, _index_of(x[:, 0], x + np.array([-1, 1])))

    def sort_key(self, v: int):
        return v


class ZGrid:
    """The square grid: two independent integer coordinates, L1 metric."""

    degree = 4

    def neighbors(self, v: tuple[int, int]) -> list[tuple[int, int]]:
        x, y = v
        return [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]

    def distance(self, u: tuple[int, int], v: tuple[int, int]) -> int:
        return abs(u[0] - v[0]) + abs(u[1] - v[1])

    def distances(self, vertices: Sequence[tuple[int, int]], i: np.ndarray, j: np.ndarray) -> np.ndarray:
        xy = np.asarray(vertices, dtype=np.int64).reshape(-1, 2)
        return np.abs(xy[i] - xy[j]).sum(axis=1)

    def neighbor_index(self, vertices: Sequence[tuple[int, int]]) -> np.ndarray:
        xy = np.asarray(vertices, dtype=np.int64).reshape(-1, 2)
        # each coordinate by its rank among the values it and its neighbors
        # take, so a key stays below (3n)^2 however far apart the vertices lie
        ranks = []
        for c in xy.T:
            taken = np.unique(np.concatenate([c - 1, c, c + 1]))
            ranks.append(np.searchsorted(taken, c))
        stride = len(taken)
        keys = ranks[0] * stride + ranks[1]
        steps = np.array([-stride, stride, -1, 1])
        return np.where(_leaves_int64(xy), -1, _index_of(keys, keys[:, None] + steps))

    def sort_key(self, v: tuple[int, int]):
        return v


class WreathCayley:
    """The wreath product's Cayley graph under the canonical four generators."""

    degree = 4

    def neighbors(self, v: GroupElement) -> list[GroupElement]:
        return metric.neighbors(v)

    def distance(self, u: GroupElement, v: GroupElement) -> int:
        return metric.distance(u, v).total

    def distances(self, vertices: Sequence[GroupElement], i: np.ndarray, j: np.ndarray) -> np.ndarray:
        lamps, cursors = metric.lamp_table(vertices)
        return metric.distances(lamps, cursors, i, j)

    def neighbor_index(self, vertices: Sequence[GroupElement]) -> np.ndarray:
        # a row is the lamp values at every position that holds a lamp or a
        # cursor, then the cursor, keyed by its bytes; unlike lamp_table's
        # window, no column stands for a position between them
        cursors = np.array([g.cursor for g in vertices], dtype=np.int64)
        lit = [(r, p, v) for r, g in enumerate(vertices) for p, v in g.lamps.entries]
        r, p, v = np.array(lit, dtype=np.int64).reshape(-1, 3).T
        positions = np.unique(np.concatenate([p, cursors]))
        rows = np.zeros((len(cursors), len(positions) + 1), dtype=np.int64)
        rows[r, np.searchsorted(positions, p)] = v
        rows[:, -1] = cursors
        # one copy of each row per generator, in metric.neighbors' order
        steps = np.repeat(rows[:, None, :], 4, axis=1)
        at, under = np.arange(len(rows)), np.searchsorted(positions, cursors)
        steps[at, 0, under] += 1  # lamp+
        steps[at, 1, under] -= 1  # lamp-
        steps[:, 2, -1] += 1  # move+
        steps[:, 3, -1] -= 1  # move-
        wraps = _leaves_int64(np.column_stack([rows[at, under], cursors]))[:, [1, 0, 3, 2]]
        key = np.dtype((np.void, 8 * rows.shape[1]))
        return np.where(wraps, -1, _index_of(rows.view(key)[:, 0], steps.view(key)[..., 0]))

    def sort_key(self, v: GroupElement):
        return encode(v)


def _leaves_int64(coordinates: np.ndarray) -> np.ndarray:
    """Where a step of -1 or +1 in each int64 coordinate, in neighbors' order,
    wraps around: no vertex lies there, whatever the wrapped key matches."""
    ends = np.iinfo(np.int64)
    edge = np.stack([coordinates == ends.min, coordinates == ends.max], axis=-1)
    return edge.reshape(len(coordinates), -1)


def _index_of(keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The index in keys of each target, -1 where it is none of them."""
    order = np.argsort(keys)
    ranked = keys[order]
    if np.any(ranked[1:] == ranked[:-1]):
        raise ValidationError("subset has duplicate vertices")
    place = np.minimum(np.searchsorted(ranked, targets), len(ranked) - 1)
    return np.where(ranked[place] == targets, order[place], -1)


_HOSTS = {"z": ZLine(), "z2": ZGrid(), "zwrz": WreathCayley()}


def host_by_name(name: str):
    try:
        return _HOSTS[name]
    except KeyError:
        raise ValidationError(f"unknown host {name!r}; expected one of {sorted(_HOSTS)}") from None


def _check_count(count: int, what: str) -> None:
    """Refuse, before it is built, a vertex set over metric.DEFAULT_BALL_CAP or
    one whose dense chain cannot fit."""
    if count > metric.DEFAULT_BALL_CAP:
        raise ResourceLimitError(f"{what} would have more than {metric.DEFAULT_BALL_CAP} elements, the cap")
    markov.check_dense_chain(count)


def interval(lo: int, hi: int) -> list[int]:
    if lo > hi:
        raise ValidationError("empty interval")
    _check_count(hi - lo + 1, "interval")
    return list(range(lo, hi + 1))


def box(x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list[tuple[int, int]]:
    if x_lo > x_hi or y_lo > y_hi:
        raise ValidationError("empty box")
    _check_count((x_hi - x_lo + 1) * (y_hi - y_lo + 1), "box")
    return [(x, y) for x in range(x_lo, x_hi + 1) for y in range(y_lo, y_hi + 1)]


def wreath_truncation(max_cursor: int, max_support: int, max_value: int) -> list[GroupElement]:
    """Every element with cursor in [-max_cursor, max_cursor], lamps supported
    in [-max_support, max_support], and values in [-max_value, max_value]."""
    if min(max_cursor, max_support, max_value) < 0:
        raise ValidationError("truncation bounds must be nonnegative")
    # a power of 3 or more past the cap's bit length is over the cap anyway, and
    # clamping the exponent there keeps the count a small integer
    exponent = min(2 * max_support + 1, metric.DEFAULT_BALL_CAP.bit_length())
    _check_count((2 * max_value + 1) ** exponent * (2 * max_cursor + 1), "truncation")
    positions = range(-max_support, max_support + 1) if max_value else ()  # all lamps off
    values = range(-max_value, max_value + 1)
    configs: list[tuple[tuple[int, int], ...]] = [()]
    for p in positions:
        configs = [c + ((p, v),) if v else c for c in configs for v in values]
    out = [
        GroupElement(LampConfig(c), k)
        for c in configs
        for k in range(-max_cursor, max_cursor + 1)
    ]
    out.sort(key=encode)
    return out


def union_of_balls(host, centers: Iterable[Hashable], radius: int) -> list:
    """Every vertex within radius of a center, sorted by host.sort_key (the replay's fattening)."""
    found = metric.breadth_first(centers, host.neighbors, radius)
    return sorted(found, key=host.sort_key)
