"""Spans around wreathlab's public functions, patched on from outside ``src/``.

``Tracer.install`` replaces module attributes with timing wrappers; callers
inside the package look those attributes up at call time, so nested calls
(``embedding.norm_observations`` -> ``metric.distance``) become child spans.
``group`` gets no span: wrapping ``multiply`` would add millions of wrapper
calls per run. Its cost shows up in ``metric.ball`` and ``hosts.*``.

A span is ``[name, start, end, parent index, group, child seconds]``. The
group is the op's phase: ``"setup"`` or the index of a traced pass. Spans stay
in memory until ``write_spans``.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import math
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _norm_counts(bound_args, result):
    value, bound = result
    return {
        "embedding.norms_certified": int(bound <= bound_args.arguments["eps"]),
        "embedding.bound_below_ulp": int(bound < math.ulp(value)),
    }


# (span name, module, attribute, counts taken from the bound arguments and result)
WRAPPERS = (
    ("walk.simulate", "wreathlab.walk", "simulate",
     lambda a, r: {"walk.steps": r.trials * r.times[-1]}),
    ("walk.fit", "wreathlab.walk", "estimate_beta", None),
    ("walk.fit", "wreathlab.walk", "median_rule_constant", None),
    ("walk.fit", "wreathlab.walk", "estimate_tail", None),
    ("embedding.norm", "wreathlab.embedding", "embedding_norm", _norm_counts),
    ("embedding.tail", "wreathlab.embedding", "shifted_power_tail", None),
    ("embedding.ball_elements", "wreathlab.embedding", "ball_elements", None),
    ("metric.ball", "wreathlab.metric", "ball", lambda a, r: {"metric.ball.elements": len(r)}),
    ("metric.distance", "wreathlab.metric", "distance", None),
    ("metric.distance_bfs", "wreathlab.metric", "distance_bfs", None),
    ("hosts.union_of_balls", "wreathlab.hosts", "union_of_balls",
     lambda a, r: {"hosts.fattened_states": len(r)}),
    ("hosts.wreath_truncation", "wreathlab.hosts", "wreath_truncation", None),
    ("markov.campaign", "wreathlab.markov", "markov_type_campaign",
     lambda a, r: {"markov.campaign.checks": r["checks"]}),
    ("markov.replay", "wreathlab.markov", "delayed_walk_replay",
     lambda a, r: {"markov.replay.states": r.fattened_size}),
    ("markov.delayed_walk", "wreathlab.markov", "delayed_walk", None),
    # only the replay calls it; the campaign multiplies step by step
    ("markov.matrix_power", "numpy.linalg", "matrix_power", None),
    ("cli.run", "wreathlab.cli", "run", None),
)
SPAN_NAMES = frozenset(name for name, *_ in WRAPPERS)

# The metrics each traced run reports, with their units. BENCHMARK.json's
# per_layer list names the same metrics.
PER_LAYER_UNITS = {
    "walk.simulate.s": "s",
    "walk.steps": "count",
    "walk.steps_per_s": "1/s",
    "walk.fit.s": "s",
    "embedding.norm.calls": "count",
    "embedding.norm.s": "s",
    "embedding.norm.us_per_call": "us",
    "embedding.norms_certified": "count",
    "embedding.bound_below_ulp": "count",
    "embedding.tail.calls": "count",
    "embedding.tail.s": "s",
    "embedding.ball_elements.s": "s",
    "metric.ball.s": "s",
    "metric.ball.elements": "count",
    "metric.ball.elements_per_s": "1/s",
    "metric.distance.calls": "count",
    "metric.distance.s": "s",
    "metric.distance_bfs.calls": "count",
    "metric.distance_bfs.s": "s",
    "hosts.union_of_balls.s": "s",
    "hosts.wreath_truncation.s": "s",
    "hosts.fattened_states": "count",
    "markov.replay.s": "s",
    "markov.replay.self_s": "s",
    "markov.replay.matrix_power_s": "s",
    "markov.replay.states": "count",
    "markov.delayed_walk.s": "s",
    "markov.campaign.s": "s",
    "markov.campaign.checks": "count",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "bench.check_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)
        self.group = "setup"
        self._stack: list[int] = []
        self._originals: list = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.group, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[index]
        span[2] = end
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[self.group].update(hook(bound, result))
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attribute, hook in WRAPPERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._originals.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._originals:
            module, attribute, original = self._originals.pop()
            setattr(module, attribute, original)

    def group_stats(self, group) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) within one group."""
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, span_group, child in self.spans:
            if span_group == group:
                entry = stats[name]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - child
        return {name: tuple(entry) for name, entry in stats.items()}

    def top_level_seconds(self, group) -> float:
        return math.fsum(
            end - start for _, start, end, parent, span_group, _ in self.spans
            if span_group == group and parent < 0
        )

    def fired(self) -> set[str]:
        return {span[0] for span in self.spans}

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "group"])
            for index, (name, start, end, parent, group, _) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent, group])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def pass_metrics(stats: dict, counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced pass; an unused layer reads 0."""

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    return {
        "walk.simulate.s": seconds("walk.simulate"),
        "walk.steps": counts["walk.steps"],
        "walk.steps_per_s": _ratio(counts["walk.steps"], seconds("walk.simulate")),
        "walk.fit.s": seconds("walk.fit"),
        "embedding.norm.calls": calls("embedding.norm"),
        "embedding.norm.s": seconds("embedding.norm"),
        "embedding.norm.us_per_call": 1e6 * _ratio(seconds("embedding.norm"), calls("embedding.norm")),
        "embedding.norms_certified": counts["embedding.norms_certified"],
        "embedding.bound_below_ulp": counts["embedding.bound_below_ulp"],
        "embedding.tail.calls": calls("embedding.tail"),
        "embedding.tail.s": seconds("embedding.tail"),
        "embedding.ball_elements.s": seconds("embedding.ball_elements"),
        "metric.ball.s": seconds("metric.ball"),
        "metric.ball.elements": counts["metric.ball.elements"],
        "metric.ball.elements_per_s": _ratio(counts["metric.ball.elements"], seconds("metric.ball")),
        "metric.distance.calls": calls("metric.distance"),
        "metric.distance.s": seconds("metric.distance"),
        "metric.distance_bfs.calls": calls("metric.distance_bfs"),
        "metric.distance_bfs.s": seconds("metric.distance_bfs"),
        "hosts.union_of_balls.s": seconds("hosts.union_of_balls"),
        "hosts.fattened_states": counts["hosts.fattened_states"],
        "markov.replay.s": seconds("markov.replay"),
        "markov.replay.self_s": self_seconds("markov.replay"),
        "markov.replay.matrix_power_s": seconds("markov.matrix_power"),
        "markov.replay.states": counts["markov.replay.states"],
        "markov.delayed_walk.s": seconds("markov.delayed_walk"),
        "markov.campaign.s": seconds("markov.campaign"),
        "markov.campaign.checks": counts["markov.campaign.checks"],
        "cli.run.s": seconds("cli.run"),
        "cli.self_s": self_seconds("cli.run"),
        "cli.output_bytes": counts["cli.output_bytes"],
        # time in the benchmark's own op bodies: output checks and loops
        "bench.check_s": math.fsum(s[2] for name, s in stats.items() if name not in SPAN_NAMES),
    }


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    """Per-metric median over passes; a count that repeats stays an int."""
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
