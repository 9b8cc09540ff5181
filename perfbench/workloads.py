"""The benchmark's workloads: inputs built from a seed, ops, and output checks.

Each workload is a closed loop: one client issues one op at a time. An op is
one call into a public wreathlab function (or one ``wreathlab.cli.run`` call)
followed by the check of its output. A failed check raises ``CheckFailed``;
the runner counts any exception as a failed op.

``reference.json`` holds outputs recorded at commit 0cce525 (the code before
any performance work): the seed-7 pipeline bodies, the seed-7 far norms and
the replay reports. A later change must reproduce them.

Library calls go through module attributes (``metric.distance``, not a name
imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
from typing import Callable, NamedTuple, Optional

from wreathlab import cli, embedding, hosts, markov, metric
from wreathlab.group import IDENTITY, GroupElement, LampConfig, multiply

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

ALPHA = 0.45
EPS = 1e-6
DEFAULT_SEED = 7  # the CLI's default seed; the seed the references were recorded at
BALL_LAYERS = (1, 4, 12, 36, 100, 268, 704, 1812, 4600, 11556, 28788)
PIPELINE_FILES = {
    "walk_samples.csv",
    "walk_tail.csv",
    "compression_observations.csv",
    "pipeline_summary.json",
}

# "full" defines the workloads; "smoke" is a seconds-long size of each for the
# harness's own tests. Only the full size is checked against reference.json.
SIZES = {
    "full": {
        "pipeline": {"argv": []},  # the CLI defaults: 2000 trials x 2^14, ball 6
        "ball-scan": {"radius": 10, "pairs": 16, "pair_distance": 8, "norm_radius": 7},
        "far-norms": {"gap_exponents": list(range(6, 18))},
        "replay": {
            "chains": 500,
            "max_states": 10,
            "tmax": 64,
            "instances": [("z2", (0, 30, 0, 30), 4), ("zwrz", (1, 1, 1), 3), ("zwrz", (2, 1, 1), 3)],
        },
    },
    "smoke": {
        "pipeline": {"argv": ["--trials", "20", "--tmax", "1024"]},
        "ball-scan": {"radius": 6, "pairs": 4, "pair_distance": 5, "norm_radius": 4},
        "far-norms": {"gap_exponents": list(range(6, 10))},
        "replay": {
            "chains": 20,
            "max_states": 10,
            "tmax": 8,
            "instances": [("z2", (0, 6, 0, 6), 2), ("zwrz", (1, 1, 1), 1)],
        },
    },
}

# The tracer's span names each workload must fire at least once.
LAYERS = {
    "pipeline": {
        "cli.run", "walk.simulate", "walk.fit", "embedding.ball_elements",
        "embedding.norm", "embedding.tail", "metric.ball", "metric.distance",
    },
    "ball-scan": {
        "metric.ball", "metric.distance", "metric.distance_bfs",
        "embedding.ball_elements", "embedding.norm", "embedding.tail",
    },
    "far-norms": {"embedding.norm", "embedding.tail"},
    "replay": {
        "markov.campaign", "markov.replay", "markov.delayed_walk", "markov.matrix_power",
        "hosts.union_of_balls", "hosts.wreath_truncation", "metric.distance",
    },
}
WORKLOADS = tuple(LAYERS)


class CheckFailed(AssertionError):
    """An op's output differs from what the workload expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Op(NamedTuple):
    """One op. ``run`` returns extra counts measured from the op's output."""

    name: str
    run: Callable[[], Optional[dict]]


def build(workload: str, seed: int, size: str, work_dir: str) -> list[Op]:
    """Build the workload's inputs from the seed and return its ops, in order."""
    params = SIZES[size][workload]
    reference = size == "full"
    return _BUILDERS[workload](params, seed, reference, work_dir)


# ------------------------------------------------------------------ pipeline


def _pipeline(params, seed, reference, work_dir):
    out_dir = os.path.join(work_dir, "pipeline-out")
    argv = ["pipeline", "--seed", str(seed), "--out", out_dir, *params["argv"]]
    recorded = REFERENCE["pipeline_seed7_sha256"] if reference and seed == DEFAULT_SEED else None
    first: dict[str, str] = {}

    def run():
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        check(code == 0, f"wreathlab pipeline exited {code}")
        with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)["outputs"]
        check(set(manifest) == PIPELINE_FILES, f"unexpected outputs {sorted(manifest)}")
        digests = {}
        size = 0
        for name in manifest:
            with open(os.path.join(out_dir, name), "rb") as fh:
                body = fh.read()
            size += len(body)
            digests[name] = hashlib.sha256(body).hexdigest()
        check(digests == manifest, "manifest sha256 differs from the bodies written")
        if not first:
            first.update(digests)
        check(digests == first, "bodies differ across repeats")
        if recorded is not None:
            check(digests == recorded, "seed-7 bodies differ from the recorded ones")
        return {"cli.output_bytes": size}

    return [Op("pipeline", run)]


# ----------------------------------------------------------------- ball-scan


def _random_element(rng: random.Random, reach: int) -> GroupElement:
    entries = tuple(
        (p, rng.choice((-2, -1, 1, 2))) for p in range(-reach, reach + 1) if rng.random() < 0.3
    )
    return GroupElement(LampConfig(entries), rng.randint(-reach, reach))


def _pairs_at_distance(rng: random.Random, count: int, d: int):
    pairs = []
    while len(pairs) < count:
        h = _random_element(rng, d // 2)
        if metric.distance(IDENTITY, h).total == d:
            a = _random_element(rng, d)
            pairs.append((a, multiply(a, h)))
    return pairs


def _ball_scan(params, seed, reference, work_dir):
    radius, d = params["radius"], params["pair_distance"]
    pairs = _pairs_at_distance(random.Random(seed), params["pairs"], d)
    norm_radius = params["norm_radius"]
    state = {}

    def ball():
        table = metric.ball(radius)
        state["table"] = table
        check(tuple(table.layer_sizes()) == BALL_LAYERS[: radius + 1], "ball layer sizes differ")

    def closed_form():
        table = state.pop("table")
        wrong = sum(metric.distance(IDENTITY, g).total != table.distance_of(g) for g in table)
        check(wrong == 0, f"closed form differs from the BFS layer on {wrong} elements")

    def bfs_pairs():
        for a, b in pairs:
            found = metric.distance_bfs(a, b, d)
            check(found == d == metric.distance(a, b).total, f"pair distance {found} != {d}")

    def norms():
        elements = embedding.ball_elements(norm_radius)
        observations = embedding.norm_observations(elements, ALPHA, EPS)
        check(len(observations) == sum(BALL_LAYERS[1 : norm_radius + 1]), "norm count differs")
        check(all(bound <= EPS for _, _, bound in observations), "an errorBound exceeds eps")

    return [Op("ball", ball), Op("closed-form", closed_form), Op("bfs-pairs", bfs_pairs), Op("norms", norms)]


# ----------------------------------------------------------------- far-norms


def _far_elements(rng: random.Random, exponents):
    """One element per cursor gap 2^e, with three lamps within 8 of the cursor."""
    out = []
    for e in exponents:
        k = 2**e
        offsets = sorted(rng.sample(range(-8, 9), 3))
        entries = tuple((k + o, rng.choice((-3, -2, -1, 1, 2, 3))) for o in offsets)
        out.append(GroupElement(LampConfig(entries), k))
    return out


def _far_norms(params, seed, reference, work_dir):
    elements = _far_elements(random.Random(seed), params["gap_exponents"])
    recorded = REFERENCE["far_norms_seed7"] if reference and seed == DEFAULT_SEED else None

    def op(index: int, g: GroupElement):
        # the cursor and lamp summands alone bound the norm from below
        floor = math.sqrt(g.cursor**2 + sum(v * v for _, v in g.lamps.entries))

        def run():
            value, bound = embedding.embedding_norm(g, ALPHA, EPS)
            check(bound <= EPS, f"errorBound {bound} exceeds eps")
            check(value >= floor, f"norm {value} below its cursor/lamp floor {floor}")
            if recorded is not None:
                check(abs(value - recorded[index]) <= 2 * EPS, f"norm {value} != {recorded[index]}")

        return run

    return [Op(f"gap-{g.cursor}", op(i, g)) for i, g in enumerate(elements)]


# -------------------------------------------------------------------- replay


def _wreath_embedding(radius: int):
    """Cursor plus the lamp values on [-radius, radius]: 1-Lipschitz into R^n."""
    span = range(-radius, radius + 1)
    return lambda g: (float(g.cursor),) + tuple(float(g.lamps.value_at(p)) for p in span)


def _replay_instance(host_name, spec, t):
    """The same instance as ``wreathlab markov replay`` with that host and core."""
    host = hosts.host_by_name(host_name)
    if host_name == "z2":
        core = hosts.box(*spec)
        return host, core, t, (lambda v: (float(v[0]), float(v[1]))), (lambda s: s / math.sqrt(2.0))
    core = hosts.wreath_truncation(*spec)
    reach = max(abs(v) for g in core for v in (g.cursor, *g.lamps.support()))
    return host, core, t, _wreath_embedding(reach + t), None


def _replay(params, seed, reference, work_dir):
    chains, tmax = params["chains"], params["tmax"]
    ops = []

    def campaign():
        report = markov.markov_type_campaign(chains, params["max_states"], tmax, seed)
        check(report["pass"], f"Markov-type inequality violated by {report['maxViolation']}")
        check(report["checks"] == chains * tmax, f"{report['checks']} checks, not {chains * tmax}")

    ops.append(Op("campaign", campaign))
    for host_name, spec, t in params["instances"]:
        name = f"{host_name}-{':'.join(map(str, spec))}-t{t}"
        instance = _replay_instance(host_name, spec, t)
        recorded = REFERENCE["replay"][name] if reference else None
        ops.append(Op(name, _replay_op(instance, recorded)))
    return ops


def _replay_op(instance, recorded):
    def run():
        # delayed_walk_replay raises if a link of its sandwich fails
        report = dataclasses.asdict(markov.delayed_walk_replay(*instance))
        if recorded is not None:
            for key, want in recorded.items():
                got = report[key]
                check(math.isclose(got, want, rel_tol=1e-12), f"replay {key} = {got!r}, recorded {want!r}")

    return run


_BUILDERS = {
    "pipeline": _pipeline,
    "ball-scan": _ball_scan,
    "far-norms": _far_norms,
    "replay": _replay,
}
