"""Host Cayley graphs for the finite-chain experiments.

Each host exposes uniform-degree adjacency, an exact graph metric, and a
deterministic vertex ordering. The line and the grid share one L1 lattice base,
_Lattice; the wreath host delegates to the exact word metric, so no chain
construction needs a graph search for distances. Besides the scalar
distance(u, v), each host takes distances(vertices, i, j): the int64 distances
from vertices[i[m]] to vertices[j[m]] for every m, in one array pass, each
distance's value; a set is refused where a bound on the pass's values, from the
spans (max - min) of its coordinates, passes int64. Besides neighbors(v), each
host takes neighbor_index(vertices): the (n, degree) int64 index in vertices of
each vertex's neighbors, in neighbors' order, -1 for a neighbor outside, in one
array pass: each host writes its vertices as the rows of one int64 table (a
lattice's coordinates, the wreath's from _wreath_rows) and names the column and
sign of each generator's step, and _neighbor_index keys rows by their bytes,
refuses duplicates and finds each step with argsort and searchsorted. A
coordinate outside int64 is refused; a step past either end of int64 is in no
vertex set. union_of_balls runs metric.breadth_first over any host's neighbors.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from . import metric
from .errors import ResourceLimitError, ValidationError, check_dense_chain
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


class _Lattice:
    """Z^dim with unit steps along each axis and the L1 metric; a vertex is one int64 row."""

    dim = 1

    def distances(self, vertices: Sequence, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        x = _int64(vertices).reshape(-1, self.dim)
        _check_span(sum(_span(column) for column in x.T))
        return np.abs(x[i] - x[j]).sum(axis=1)

    def neighbor_index(self, vertices: Sequence) -> np.ndarray:
        moves = [(axis, sign) for axis in range(self.dim) for sign in (-1, 1)]
        return _neighbor_index(_int64(vertices).reshape(-1, self.dim), moves)

    def sort_key(self, v):
        return v


class ZLine(_Lattice):
    """The integers with steps of one."""

    degree = 2

    def neighbors(self, v: int) -> list[int]:
        return [v - 1, v + 1]

    def distance(self, u: int, v: int) -> int:
        return abs(u - v)


class ZGrid(_Lattice):
    """The square grid: two independent integer coordinates, L1 metric."""

    degree = 4
    dim = 2

    def neighbors(self, v: tuple[int, int]) -> list[tuple[int, int]]:
        x, y = v
        return [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]

    def distance(self, u: tuple[int, int], v: tuple[int, int]) -> int:
        return abs(u[0] - v[0]) + abs(u[1] - v[1])


class WreathCayley:
    """The wreath product's Cayley graph under the canonical four generators."""

    degree = 4

    def neighbors(self, v: GroupElement) -> list[GroupElement]:
        return metric.neighbors(v)

    def distance(self, u: GroupElement, v: GroupElement) -> int:
        return metric.distance(u, v).total

    def distances(self, vertices: Sequence[GroupElement], i: np.ndarray, j: np.ndarray) -> np.ndarray:
        rows, positions = _wreath_rows(vertices)
        # a pair's lamp cost is at most a table span per column, its sweeps twice the positions' span
        _check_span(len(positions) * _span(rows[:, :-1]) + 2 * _span(positions))
        return metric.distances(rows[:, :-1], rows[:, -1], positions, i, j)

    def neighbor_index(self, vertices: Sequence[GroupElement]) -> np.ndarray:
        rows, positions = _wreath_rows(vertices)
        under = np.searchsorted(positions, rows[:, -1])  # the lamp under the cursor
        # lamp+, lamp-, move+, move-: metric.neighbors' order
        return _neighbor_index(rows, [(under, 1), (under, -1), (-1, 1), (-1, -1)])

    def sort_key(self, v: GroupElement):
        return encode(v)


def _int64(values) -> np.ndarray:
    """values as an int64 array; a value outside int64 is refused."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValidationError("a vertex coordinate lies outside int64, [-2^63, 2^63 - 1]") from None


def _span(values: np.ndarray) -> int:
    """max - min of an int64 array, as a Python int; 0 when it is empty."""
    return int(values.max()) - int(values.min()) if values.size else 0


def _check_span(bound: int) -> None:
    """Refuse a vertex set whose bound on its distances' int64 values passes int64."""
    if bound > np.iinfo(np.int64).max:
        raise ValidationError("the vertices' coordinates span too far: a distance may pass int64, 2^63 - 1")


def _wreath_rows(vertices: Sequence[GroupElement]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, positions): a row holds a vertex's lamp values at positions, the
    sorted positions of every lamp and cursor, then its cursor. A cursor,
    position or value outside int64 is refused."""
    lit = [(r, p, v) for r, g in enumerate(vertices) for p, v in g.lamps.entries]
    cursors = _int64([g.cursor for g in vertices])
    r, p, v = _int64(lit).reshape(-1, 3).T
    positions = np.unique(np.concatenate([p, cursors]))
    rows = np.zeros((len(cursors), len(positions) + 1), dtype=np.int64)
    rows[r, np.searchsorted(positions, p)] = v
    rows[:, -1] = cursors
    return rows, positions


def _neighbor_index(rows: np.ndarray, moves) -> np.ndarray:
    """The index in rows of each row stepped by each move, -1 where it is none
    of them. A move (column, sign) adds sign to one column of each row, the
    same for every row or one per row; a step that would wrap past either end
    of int64 lands on no row, whatever the wrapped bytes match. Rows are keyed
    by their bytes."""
    at = np.arange(len(rows))
    steps = np.repeat(rows[:, None, :], len(moves), axis=1)
    wraps = np.empty(steps.shape[:2], dtype=bool)
    end = {1: np.iinfo(np.int64).max, -1: np.iinfo(np.int64).min}
    for m, (column, sign) in enumerate(moves):
        wraps[:, m] = rows[at, column] == end[sign]
        steps[at, m, column] += sign
    key = np.dtype((np.void, 8 * rows.shape[1]))
    keys, targets = rows.view(key)[:, 0], steps.view(key)[..., 0]
    order = np.argsort(keys)
    ranked = keys[order]
    if np.any(ranked[1:] == ranked[:-1]):
        raise ValidationError("subset has duplicate vertices")
    place = np.minimum(np.searchsorted(ranked, targets), len(ranked) - 1)
    return np.where(wraps | (ranked[place] != targets), -1, order[place])


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
    check_dense_chain(count)


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
