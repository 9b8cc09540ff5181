"""Independent oracles that the tests check the shipped library against."""

import math

import numpy as np

from wreathlab.embedding import shifted_power_tail
from wreathlab.group import GroupElement


def embedding_image(g: GroupElement, alpha: float, eps: float = 1e-6):
    """The embedded g minus the embedded identity, summed key by key.

    An element (f, k) has the coefficient (n - k)^alpha on the key
    ("right", n, f restricted to [n, inf)) for each n > k, and (k - n)^alpha on
    ("left", n, f restricted to (-inf, n]) for each n < k. The keys are built
    explicitly over a window covering 0, k, every lamp and 4|k| + 16 endpoints
    beyond on each side. Past it both restrictions are empty and each side's
    coefficients differ by (m + |k|)^alpha - m^alpha for m >= m0, a family that
    shifted_power_tail sums. Returns (squared norm, certified error of the
    squared norm, the window's nonzero coefficients by key).
    """
    k = g.cursor
    margin = 4 * abs(k) + 16
    ends = [0, k, *g.lamps.support()]
    lo, hi = min(ends) - margin, max(ends) + margin
    coefficients: dict[tuple, float] = {}
    for entries, cursor, sign in ((g.lamps.entries, k, 1.0), ((), 0, -1.0)):
        for n in range(lo, hi + 1):
            for side, gap, restriction in (
                ("right", n - cursor, tuple(e for e in entries if e[0] >= n)),
                ("left", cursor - n, tuple(e for e in entries if e[0] <= n)),
            ):
                if gap > 0:
                    key = (side, n, restriction)
                    coefficients[key] = coefficients.get(key, 0.0) + sign * float(gap) ** alpha
    coefficients = {key: c for key, c in coefficients.items() if c}
    tails = [
        shifted_power_tail(abs(k), m0, alpha, eps * eps / 8)
        for m0 in (hi + 1 - max(k, 0), min(k, 0) + 1 - lo)
    ]
    squared = math.fsum(
        [k * k, *(v * v for _, v in g.lamps.entries), *(c * c for c in coefficients.values())]
        + [mass for mass, _ in tails]
    )
    return squared, sum(remainder for _, remainder in tails), coefficients


def neighbor_index(host, vertices):
    """Each vertex's neighbors as indices into vertices, -1 outside, by a dict
    over host.neighbors."""
    index = {v: i for i, v in enumerate(vertices)}
    rows = [[index.get(w, -1) for w in host.neighbors(v)] for v in vertices]
    return np.array(rows, dtype=np.int64).reshape(len(vertices), host.degree)


def delayed_walk_matrix(host, subset):
    """The delayed walk's dense transition matrix, entry by entry: 1/degree to
    each in-subset neighbor, the remaining mass on the diagonal."""
    index = {v: i for i, v in enumerate(subset)}
    deg = host.degree
    a = np.zeros((len(subset), len(subset)))
    for i, v in enumerate(subset):
        inside = 0
        for w in host.neighbors(v):
            j = index.get(w)
            if j is not None:
                a[i, j] += 1.0 / deg
                inside += 1
        a[i, i] += 1.0 - inside / deg
    return a
