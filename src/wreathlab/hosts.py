"""Host Cayley graphs for the finite-chain experiments.

Each host exposes uniform-degree adjacency, an exact graph metric, and a
deterministic vertex ordering. The line and the grid use their closed-form
metrics; the wreath host delegates to the exact word metric, so none of the
chain constructions ever needs a graph search for distances. Besides the
scalar distance(u, v), each host takes distances(vertices, i, j): the int64
distances from vertices[i[m]] to vertices[j[m]] for every m, in one array pass.
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

    def sort_key(self, v: GroupElement):
        return encode(v)


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
