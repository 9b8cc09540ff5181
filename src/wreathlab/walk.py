"""Canonical simple random walks and displacement-exponent estimation.

Each trial draws its own counter-based stream (Philox keyed by seed and trial
index), so a trial's row does not depend on which trials ran before it or in
which process. simulate splits the trials into contiguous blocks, at most one
per usable CPU, runs them in a fork pool and concatenates the blocks' rows in
trial order: the sample is bit-identical to a one-by-one run. A block gets at
least _WORK_FLOOR steps, a trial's fixed cost counted as _TRIAL_STEPS more, so a
small walk stays one block in this process, with no pool and no multiprocessing
import. Workers are forked rather than spawned: a spawned worker imports numpy
and wreathlab afresh, which costs about as much as the walk it would take over.
A worker calls no BLAS routine, so the BLAS threads of the parent do not matter
to it. Where fork does not exist, the blocks run here, one after another.

A trial's step codes are the top bits of each 32-bit half of its Philox
stream, low half first, cut from the raw 64-bit words in one pass: the codes
Generator.integers(0, 2) or (0, 4) draws from the same stream. A block builds
one Philox and its step buffers once; each trial resets the Philox to its own
key and writes into the buffers, so it allocates no step-long array but its
raw words. On a 2-vCPU Xeon VM, 2^14 codes take about 42 us where a fresh
Generator takes 77 us, and 2000 wreath trials of 2^14 steps take about one
minor page fault each, where arrays allocated per trial took eight.

Both walks are vectorized per trial, and each reads its row off a path that
starts at 0. The line walk's path counts the right steps. The wreath walk
takes the cursor as a cumulative sum of a lookup of the step codes, and keeps
the lamps at each requested time as one row of a lamp table over the cursor's
window: one bincount, keyed by row and cursor column and weighted +-1 by the
lamp steps, collects each interval's increments, and a cumulative sum down
the rows turns them into the lamps. One metric.distances call per trial reads
every displacement off that table, and each row's lamp mass splits it exactly
into lamp mass plus cursor travel.

fit_power_law is the package's one log-log least-squares line: estimate_beta
fits displacement against time with it, embedding.compression_scan norm
against distance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.random import Philox

from . import metric
from .errors import EstimationError, ValidationError, check_physical_memory

__all__ = [
    "WalkSample",
    "BetaFit",
    "TailEstimate",
    "DYADIC_TIMES",
    "simulate",
    "fit_power_law",
    "estimate_beta",
    "estimate_tail",
    "median_rule_constant",
]

GROUPS = ("z", "zwrz")
# the default time grid 2^4 .. 2^14
DYADIC_TIMES = tuple(2**k for k in range(4, 15))
# 8-byte arrays of one entry per step that a block holds at its peak: its
# buffers (on the line the step codes and the path; on the wreath product the
# step codes, then the bincount's keys in their place, the cursor path, the
# weights and each step's row) and a trial's raw Philox words, half an array:
# 4.5, rounded up
_STEP_ARRAYS = 5
# copies of the sample's rows held at once: a block's rows in its worker, their
# unpickled copy here, and the concatenation
_ROW_COPIES = 3
# fewest steps that earn a block of their own: on a 2-vCPU Xeon VM a fork pool
# takes 5-15 ms to start, and 2^22 steps take about 25 ms on the line and
# 40 ms on the wreath product
_WORK_FLOOR = 2**22
# the fixed cost of a trial (resetting its Philox and some twenty numpy calls),
# in steps: on the same VM about 13 us on the line (2^11 steps of 6 ns) and
# 38 us on the wreath product (2^12 steps of 9.5 ns)
_TRIAL_STEPS = 2**12


@dataclass(frozen=True)
class WalkSample:
    """Displacement samples d(W_t, identity), one row per trial.

    For the wreath walk, lamp_mass holds the lamp part of each displacement
    (the total absolute lamp value); displacements - lamp_mass is the cursor
    travel. It is None for the line walk, which has no lamps.
    """

    group: str
    times: tuple[int, ...]
    displacements: np.ndarray  # shape (trials, len(times)), integer
    seed: int
    lamp_mass: np.ndarray | None = None  # same shape and dtype as displacements

    @property
    def trials(self) -> int:
        return self.displacements.shape[0]

    def mean_displacement(self) -> np.ndarray:
        return self.displacements.mean(axis=0)

    def median_displacement(self) -> np.ndarray:
        return np.median(self.displacements, axis=0)

    def split(self) -> tuple[WalkSample, WalkSample]:
        """The lamp-mass and cursor-travel parts, each as a sample of its own."""
        if self.lamp_mass is None:
            raise ValidationError(f"the {self.group!r} walk has no lamp/travel split")
        travel = self.displacements - self.lamp_mass
        return (
            WalkSample(self.group, self.times, self.lamp_mass, self.seed),
            WalkSample(self.group, self.times, travel, self.seed),
        )


class BetaFit(NamedTuple):
    beta_hat: float
    intercept_hat: float
    r2: float
    stderr: float


@dataclass(frozen=True)
class TailEstimate:
    """Empirical exceedance frequencies Pr(d(W_t, e) >= c t^beta)."""

    c: float
    beta: float
    delta_hat: dict[int, float]
    standard_errors: dict[int, float]


# a fresh Philox's counter and its buffer of 4 words, all spent (buffer_pos 4)
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _draw_codes(bitgen: Philox, seed: int, trial: int, bits: int, codes: np.ndarray) -> None:
    """Fill codes (of even length) with the trial's step codes: the top bits of
    each 32-bit half of the Philox stream keyed by (seed, trial), low half first.

    Generator(Philox(key=[seed, trial])).integers(0, 2**bits, size=T) draws the
    same codes: it takes one 32-bit half per draw, and Lemire's method keeps its
    top bits and never rejects when the range is a power of two. bitgen is
    reset to the state of a fresh Philox(key=[seed, trial]), which costs a
    fifth of building one.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": np.array([seed, trial], dtype=np.uint64)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    raw = bitgen.random_raw(len(codes) // 2)
    np.right_shift(raw.astype("<u8", copy=False).view("<u4"), 32 - bits, out=codes, casting="unsafe")


def _line_walk(seed: int, times: tuple[int, ...]) -> Callable[[int], np.ndarray]:
    """The line walk's trial: trial -> |position| at each time, into buffers
    allocated once.

    Code 1 steps right and code 0 left, so the position after t steps is
    2 path[t] - t, where path[t] counts the right steps among the first t.
    """
    steps = times[-1]
    bitgen = Philox(0)
    codes = np.empty(steps + steps % 2, dtype=np.int64)
    path = np.zeros(steps + 1, dtype=np.int64)
    at = np.asarray(times)

    def trial(i: int) -> np.ndarray:
        _draw_codes(bitgen, seed, i, 1, codes)
        np.cumsum(codes[:steps], out=path[1:])
        return np.abs(2 * path[at] - at)

    return trial


# per step code: the cursor move, and the lamp increment at the cursor
_CURSOR_STEP = np.array([0, 0, 1, -1], dtype=np.int64)
_LAMP_STEP = np.array([1.0, -1.0, 0.0, 0.0])


def _wreath_walk(seed: int, times: tuple[int, ...]) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
    """The wreath walk's trial: trial -> displacements and their lamp masses at
    each time, into buffers allocated once.

    cursor[s] is the cursor after s steps, and lamp step s + 1 (code 0 adds
    one, code 1 takes one away) acts at cursor[s]. Row 0 of the lamp table is
    the identity and row c + 1 the lamps at times[c]; column c stands for
    position c, cursor positions minus their minimum, for metric.distances. One
    bincount keyed by (row, column) adds each step's lamp increment into the
    first row whose time is past it, and a cumulative sum down the rows gives
    the table. Every code is below 4, so the lookups take in clip mode, which
    is exact here and, unlike the raise mode, writes straight into the buffer.
    """
    steps, rows = times[-1], len(times) + 1
    bitgen = Philox(0)
    codes = np.empty(steps + steps % 2, dtype=np.int64)
    cursor = np.zeros(steps + 1, dtype=np.int64)
    weights = np.empty(steps)
    # the steps from times[c - 1] (0 for c = 0) up to times[c] land in row c + 1
    row_of_step = np.repeat(np.arange(1, rows), np.diff(times, prepend=0))
    at = np.array((0,) + times)  # cursor[0] is the identity's cursor, 0
    sampled = np.arange(1, rows)
    origin = np.zeros_like(sampled)

    def trial(i: int) -> tuple[np.ndarray, np.ndarray]:
        _draw_codes(bitgen, seed, i, 2, codes)
        _CURSOR_STEP.take(codes[:steps], out=cursor[1:], mode="clip")
        _LAMP_STEP.take(codes[:steps], out=weights, mode="clip")
        np.cumsum(cursor[1:], out=cursor[1:])
        lo = int(cursor.min())
        width = int(cursor.max()) - lo + 1
        # key = row * width + cursor - lo, in the buffer of the codes, spent by now
        key = codes[:steps]
        np.multiply(row_of_step, width, out=key)
        np.add(key, cursor[:-1], out=key)
        np.subtract(key, lo, out=key)
        # each bin sums at most times[-1] increments of +-1, and the memory check
        # keeps times[-1] far below 2^53: the float64 sums are exact integers
        increments = np.bincount(key, weights=weights, minlength=rows * width)
        lamps = np.cumsum(increments.reshape(rows, width), axis=0, dtype=np.int64)
        cursors = cursor[at] - lo
        # no int64 check, unlike host.distances: the memory guard keeps every span here tiny
        return metric.distances(lamps, cursors, np.arange(width), origin, sampled), np.abs(lamps[1:]).sum(axis=1)

    return trial


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _block_bounds(trials: int, steps: int) -> list[tuple[int, int]]:
    """Contiguous trial ranges [lo, hi), at most one per usable CPU, each of at
    least _WORK_FLOOR steps unless there is only one; a trial weighs its steps
    plus _TRIAL_STEPS."""
    count = max(1, min(_usable_cpus(), trials, trials * (steps + _TRIAL_STEPS) // _WORK_FLOOR))
    edges = [trials * k // count for k in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _block(
    group: str, seed: int, lo: int, hi: int, times: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows lo..hi-1 of the sample: displacements, and lamp masses (None on the line)."""
    rows = np.empty((hi - lo, len(times)), dtype=np.int64)
    if group == "z":
        line = _line_walk(seed, times)
        for i in range(lo, hi):
            rows[i - lo] = line(i)
        return rows, None
    wreath = _wreath_walk(seed, times)
    mass = np.empty_like(rows)
    for i in range(lo, hi):
        rows[i - lo], mass[i - lo] = wreath(i)
    return rows, mass


def _run_blocks(args: list[tuple]) -> list[tuple]:
    """_block on each argument tuple, in order; more than one runs in a fork pool."""
    if len(args) > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(len(args)) as pool:
                return pool.starmap(_block, args)
    return [_block(*a) for a in args]


def _checked_run(group: str, times: Sequence[int], trials: int) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """simulate's refusals, all before any draw: (its times as ints, its trial blocks)."""
    if group not in GROUPS:
        raise ValidationError(f"unknown group {group!r}; expected one of {GROUPS}")
    times = tuple(int(t) for t in times)
    if not times:
        raise ValidationError("at least one time required")
    if times[0] < 0:
        raise ValidationError("times must be nonnegative")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError("times must be strictly increasing")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    blocks = _block_bounds(trials, times[-1])
    arrays = 1 if group == "z" else 2
    check_physical_memory(
        len(blocks) * _STEP_ARRAYS * 8 * times[-1] + _ROW_COPIES * arrays * 8 * trials * len(times),
        f"the step arrays and rows of {trials} trials of {times[-1]} steps",
    )
    return times, blocks


def simulate(group: str, times: Sequence[int], trials: int, seed: int) -> WalkSample:
    """Run the uniform-generator walk and record exact displacements.

    times must be strictly increasing and nonnegative; trials >= 1. For
    "zwrz" the sample also carries the lamp mass of every displacement.
    """
    times, blocks = _checked_run(group, times, trials)
    parts = _run_blocks([(group, seed, lo, hi, times) for lo, hi in blocks])
    rows = np.concatenate([out for out, _ in parts])
    lamp_mass = None if group == "z" else np.concatenate([mass for _, mass in parts])
    return WalkSample(group, times, rows, seed, lamp_mass)


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> BetaFit:
    """The least-squares line of log y against log x: the exponent (beta_hat)
    and log prefactor of y ~ x^beta, its r2 and the exponent's standard error.

    Requires at least 4 points, every value positive, and abscissas that do
    not all agree (np.allclose on their logs).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 4:
        raise EstimationError("need >= 4 points for the power-law fit")
    if np.any(x <= 0) or np.any(y <= 0):
        raise EstimationError("nonpositive value in the power-law fit")
    x, y = np.log(x), np.log(y)
    if np.allclose(x, x[0]):
        raise EstimationError("degenerate sample: every point at one abscissa")
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_res = float(np.sum((y - design @ np.array([slope, intercept])) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (len(x) - 2) / float(np.sum((x - x.mean()) ** 2)))
    return BetaFit(float(slope), float(intercept), r2, stderr)


def estimate_beta(sample: WalkSample, statistic: str = "mean") -> BetaFit:
    """fit_power_law of the per-time summary ("mean" is the contract default,
    "median" is reported alongside by the CLI) against time, where both are positive."""
    if statistic not in ("mean", "median"):
        raise ValidationError("statistic must be 'mean' or 'median'")
    summary = sample.mean_displacement() if statistic == "mean" else sample.median_displacement()
    times = np.array(sample.times, dtype=float)
    keep = (times > 0) & (summary > 0)
    zero = [t for t, value in zip(sample.times, summary) if t > 0 and value <= 0]
    if zero and keep.sum() < 4:
        raise EstimationError(
            f"the {statistic} displacement is 0 at t = {zero} with trials = {sample.trials}; the power-law"
            " fit needs it positive at 4 or more times, so more trials are needed"
        )
    return fit_power_law(times[keep], summary[keep])


def estimate_tail(sample: WalkSample, c: float, beta: float) -> TailEstimate:
    """Exceedance frequency of the threshold c t^beta at every sampled time."""
    if not 0 < c < math.inf:  # nan fails too
        raise ValidationError("c must be positive and finite")
    if not 0 < beta <= 1:
        raise ValidationError("beta must lie in (0, 1]")
    delta_hat: dict[int, float] = {}
    errors: dict[int, float] = {}
    trials = sample.trials
    for column, t in enumerate(sample.times):
        threshold = c * t**beta
        hit = float((sample.displacements[:, column] >= threshold).mean())
        delta_hat[t] = hit
        errors[t] = math.sqrt(hit * (1.0 - hit) / trials)
    return TailEstimate(c, beta, delta_hat, errors)


def median_rule_constant(sample: WalkSample, beta: float, reference_time: int = 1024) -> float:
    """The rule-fixed tail constant: 0.5 x median(d at the reference time) /
    reference_time^beta."""
    if reference_time not in sample.times:
        raise ValidationError(f"reference time {reference_time} not in the sample grid")
    column = sample.times.index(reference_time)
    med = float(np.median(sample.displacements[:, column]))
    if med <= 0:
        raise EstimationError(
            f"the median displacement is 0 at the reference time t = {reference_time} with trials ="
            f" {sample.trials}; the tail constant needs it positive, so more trials are needed"
        )
    return 0.5 * med / reference_time**beta
