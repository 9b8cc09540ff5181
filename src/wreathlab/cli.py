"""Reproducible experiment front end.

Exit codes: 0 success, 1 validation or usage error, 2 a mathematical invariant
was observed to fail (the test-facing signal), 3 resource limit. Every file
output lands under --out together with a manifest carrying the exact config,
the seed, and a checksum per artifact; identical config and seed reproduce
byte-identical CSV bodies.

Parameter precedence: explicit flags, then a plain key=value --config file,
then the WREATH_SEED environment variable (seed only), then defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__, embedding, hosts, markov, metric, walk
from .errors import EstimationError, InvariantViolation, ResourceLimitError, ValidationError, WreathError
from .group import GroupElement, element_from_text

# name -> (type, default) of each option that a flag or --config may set
OPTIONS = {
    "seed": (int, 7),
    "trials": (int, 2000),
    "tmax": (int, 16384),
    "alpha": (float, 0.45),
    "eps": (float, 1e-6),
    "count": (int, 200),
    "chains": (int, 500),
    "max_states": (int, 10),
    "p": (float, 2.0),
    "t": (int, 2),
    "out": (str, "./out"),
}

# --host -> (host name, subset builder, spec format) of the markov subcommands
_SUBSETS = {
    "z": ("z", hosts.interval, "lo:hi"),
    "z2": ("z2", hosts.box, "x_lo:x_hi:y_lo:y_hi"),
    "zwrz-trunc": ("zwrz", hosts.wreath_truncation, "cursor:support:value"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config(path: Optional[str]) -> dict[str, str]:
    if not path:
        return {}
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _resolve(ns, config: dict[str, str], name: str):
    flag = getattr(ns, name)
    if flag is not None:
        return flag
    cast, default = OPTIONS[name]
    if name in config:
        try:
            return cast(config[name])
        except ValueError:
            raise ValidationError(f"config value for {name!r} is not valid") from None
    if name == "seed":
        env = os.environ.get("WREATH_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ValidationError("WREATH_SEED must be an integer") from None
    return default


def _float_cell(x: float) -> str:
    return repr(float(x))


class _OutputSink:
    """Collects named text artifacts, then writes them plus the manifest.

    Each command builds its sink before doing any work, so the manifest's
    wallClockSeconds covers the whole command, not just the file writes. The
    manifest's stages hold the seconds spent inside each stage() block (the
    file writes count under "write"), and its counters and margins what the
    command put there.
    """

    def __init__(self, out_dir: str, command: str, config: dict, seed):
        self.out_dir = out_dir
        self.command = command
        self.config = config
        self.seed = seed
        self.started = time.monotonic()
        self.files: dict[str, str] = {}
        self.stages: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.margins: dict[int, float] = {}

    def add(self, name: str, body: str) -> None:
        self.files[name] = body

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.monotonic()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.monotonic() - start

    def flush(self) -> None:
        checksums = {}
        with self.stage("write"):
            os.makedirs(self.out_dir, exist_ok=True)
            for name, body in sorted(self.files.items()):
                data = body.encode("utf-8")
                path = os.path.join(self.out_dir, name)
                with open(path, "wb") as fh:
                    fh.write(data)
                checksums[name] = hashlib.sha256(data).hexdigest()
        manifest = {
            "toolVersion": __version__,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "wallClockSeconds": time.monotonic() - self.started,
            "stages": self.stages,
            "counters": self.counters,
            "margins": self.margins,
            "outputs": checksums,
        }
        payload = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        tmp = os.path.join(self.out_dir, ".run_manifest.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, os.path.join(self.out_dir, "run_manifest.json"))


def _walk_csv(sample: walk.WalkSample) -> str:
    lines = ["group,t,trial,displacement"]
    for trial in range(sample.trials):
        row = sample.displacements[trial]
        for column, t in enumerate(sample.times):
            lines.append(f"{sample.group},{t},{trial},{int(row[column])}")
    return "\n".join(lines) + "\n"


def _tail_csv(estimate: walk.TailEstimate) -> str:
    lines = ["t,c,beta,deltaHat,stderr"]
    for t in sorted(estimate.delta_hat):
        lines.append(
            f"{t},{_float_cell(estimate.c)},{_float_cell(estimate.beta)},"
            f"{_float_cell(estimate.delta_hat[t])},{_float_cell(estimate.standard_errors[t])}"
        )
    return "\n".join(lines) + "\n"


def _compression_csv(report: embedding.CompressionReport) -> str:
    lines = ["alpha,distance,norm,errorBound"]
    for d, value, bound in report.observations:
        lines.append(f"{_float_cell(report.alpha)},{d},{_float_cell(value)},{_float_cell(bound)}")
    return "\n".join(lines) + "\n"


def _fields(report, *skip: str) -> dict:
    """A dataclass's or NamedTuple's fields under their camelCase JSON names,
    less those named in skip."""
    names = getattr(report, "_fields", None) or [f.name for f in dataclasses.fields(report)]
    payload = {}
    for name in names:
        if name not in skip:
            head, *rest = name.split("_")
            payload[head + "".join(word.capitalize() for word in rest)] = getattr(report, name)
    return payload


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------- subcommands


def _cmd_metric(ns) -> int:
    a = element_from_text(ns.a)
    b = element_from_text(ns.b)
    witness = metric.distance(a, b)
    payload = _fields(witness)
    if ns.oracle:
        max_radius = ns.max_radius if ns.max_radius is not None else witness.total
        oracle = metric.distance_bfs(a, b, max_radius)
        payload["oracle"] = oracle
        if oracle != witness.total:
            _print_json(payload)
            raise InvariantViolation(
                f"closed form {witness.total} disagrees with search oracle {oracle}"
            )
    _print_json(payload)
    return 0


def _default_times(tmax: int) -> tuple[int, ...]:
    times = tuple(t for t in walk.DYADIC_TIMES if t <= tmax)
    return times if times else (tmax,)


def _mean_fit_or_none(sample: walk.WalkSample) -> Optional[float]:
    try:
        return walk.estimate_beta(sample).beta_hat
    except EstimationError:  # fewer than 4 times with a positive mean
        return None


def _calibrated_tail(sample: walk.WalkSample, beta: float) -> tuple[int, float, walk.TailEstimate]:
    """(reference time, median-rule constant, tail estimate) at exponent beta."""
    reference = 1024 if 1024 in sample.times else sample.times[len(sample.times) // 2]
    c = walk.median_rule_constant(sample, beta, reference_time=reference)
    return reference, c, walk.estimate_tail(sample, c, beta)


def _cmd_walk(ns) -> int:
    group, seed, trials, tmax = ns.group, ns.seed, ns.trials, ns.tmax
    if ns.times:
        try:
            times = tuple(int(tok) for tok in ns.times.split(","))
        except ValueError:
            raise ValidationError(f"--times {ns.times!r} must be comma-separated integers") from None
    else:
        times = _default_times(tmax)
    snapshot = {"group": group, "trials": trials, "tmax": tmax, "times": list(times)}
    sink = _OutputSink(ns.out, "walk", snapshot, seed)
    sample = walk.simulate(group, times, trials, seed)
    fit = walk.estimate_beta(sample)
    fit_median = walk.estimate_beta(sample, statistic="median")
    calibration_beta = 0.75 if group == "zwrz" else 0.5
    reference, c, tail = _calibrated_tail(sample, calibration_beta)
    summary = {
        **_fields(fit, "stderr"),
        "group": group,
        "seed": seed,
        "trials": trials,
        "times": list(sample.times),
        "betaCI": [fit.beta_hat - 2 * fit.stderr, fit.beta_hat + 2 * fit.stderr],
        "medianBetaHat": fit_median.beta_hat,
        "tailConstant": c,
        "tailBeta": calibration_beta,
        "referenceTime": reference,
        "deltaHat": {str(t): tail.delta_hat[t] for t in sample.times},
        "deltaStderr": {str(t): tail.standard_errors[t] for t in sample.times},
    }
    if sample.lamp_mass is not None:
        for key, part in zip(("lampMass", "travel"), sample.split()):
            means = part.mean_displacement()
            summary[f"{key}Mean"] = {str(t): float(m) for t, m in zip(sample.times, means)}
            summary[f"{key}BetaHat"] = _mean_fit_or_none(part)
    sink.add("walk_samples.csv", _walk_csv(sample))
    sink.add("walk_tail.csv", _tail_csv(tail))
    sink.add("walk_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    sink.flush()
    _print_json(summary)
    return 0


def _cmd_markov_verify(ns) -> int:
    tmax = ns.tmax if ns.tmax is not None else 64
    report = markov.markov_type_campaign(ns.chains, ns.max_states, tmax, ns.seed)
    _print_json(report)
    if not report["pass"]:
        raise InvariantViolation(
            f"Markov-type inequality violated by {report['maxViolation']:.3e}"
        )
    return 0


def _subset_for(host_flag: str, spec: str):
    name, build, form = _SUBSETS[host_flag]
    try:
        parts = [int(tok) for tok in spec.split(":")]
    except ValueError:
        raise ValidationError(f"subset spec {spec!r} must be colon-separated integers") from None
    if len(parts) != form.count(":") + 1:
        raise ValidationError(f"{host_flag} subset spec is {form}")
    return hosts.host_by_name(name), build(*parts)


def _cmd_markov_delayed(ns) -> int:
    host, subset = _subset_for(ns.host, ns.subset)
    chain = markov.delayed_walk(host, subset)
    residuals = chain.validate()
    _print_json(
        {
            "host": ns.host,
            "states": chain.n,
            "residuals": residuals,
            "tolerance": markov.CHAIN_TOL,
            "pass": True,
        }
    )
    return 0


def _wreath_demo_embedding(radius: int):
    span = range(-radius, radius + 1)

    def emb(g: GroupElement):
        return (float(g.cursor),) + tuple(float(g.lamps.value_at(p)) for p in span)

    return emb


def _cmd_markov_replay(ns) -> int:
    host, core = _subset_for(ns.host, ns.F)
    if ns.host == "z":
        emb = lambda v: (float(v),)
        rho = lambda s: s
    elif ns.host == "z2":
        emb = lambda v: (float(v[0]), float(v[1]))
        rho = lambda s: s / math.sqrt(2.0)  # L1 arguments, L2 gaps
    else:
        span = max(abs(v) for g in core for v in (g.cursor, *g.lamps.support()))
        emb = _wreath_demo_embedding(span + ns.t)
        rho = None  # empirical modulus of the demo embedding
    report = markov.delayed_walk_replay(host, core, ns.t, emb, rho, p=ns.p)
    _print_json({**_fields(report, "free_term"), "host": ns.host, "slack": dict(report.slack), "pass": True})
    return 0


def _cmd_embed_norms(ns) -> int:
    _print_json({**_fields(embedding.lipschitz_audit(ns.alpha, ns.eps)), "alpha": ns.alpha})
    return 0


def _cmd_embed_pair(ns) -> int:
    a = element_from_text(ns.a)
    b = element_from_text(ns.b)
    value, bound = embedding.embedding_distance(a, b, ns.alpha, ns.eps)
    witness = metric.distance(a, b)
    _print_json(
        {
            "alpha": ns.alpha,
            "distance": witness.total,
            "norm": value,
            "errorBound": bound,
        }
    )
    return 0


def _scan_elements(spec: str, alpha: float, count: int, seed: int) -> list[GroupElement]:
    """The first count elements of the sampler spec. random, cursor and lamp
    build no more; ball:R and balanced build their whole family first."""
    head, _, arg = spec.partition(":")
    if head == "random":
        return embedding.random_elements(count, seed)
    try:
        if head == "ball":
            family = embedding.ball_elements(int(arg or "4"))
        elif head == "cursor":
            family = embedding.pure_cursor_family(min(int(arg or "100"), count))
        elif head == "lamp":
            first, _, second = arg.partition(":")
            family = embedding.pure_lamp_family(int(first or "3"), min(int(second or "50"), count))
        elif head == "balanced":
            prefactor = float(arg or "1")
            family = embedding.balanced_family(alpha, prefactor)
        else:
            raise ValidationError(f"unknown sampler {spec!r}")
    except ValueError:
        raise ValidationError(f"sampler {spec!r} has a malformed number") from None
    return family[:count]


def _cmd_embed_scan(ns) -> int:
    alpha, eps, count = ns.alpha, ns.eps, ns.count
    if count < 10:
        raise ValidationError("count must be >= 10")
    snapshot = {"alpha": alpha, "eps": eps, "count": count, "sampler": ns.sampler}
    sink = _OutputSink(ns.out, "embed scan", snapshot, ns.seed)
    elements = _scan_elements(ns.sampler, alpha, count, ns.seed)
    report = embedding.compression_scan(alpha, elements, eps)
    summary = {
        **_fields(report, "observations"),
        "count": len(report.observations),
        "lowerShapeExponent": embedding.lower_shape_exponent(alpha),
    }
    sink.add("compression_observations.csv", _compression_csv(report))
    sink.add("compression_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    sink.flush()
    _print_json(summary)
    return 0


def _cmd_bound(ns) -> int:
    if ns.beta is None and ns.iterated_k is None:
        raise ValidationError("bound requires --beta or --iterated-k")
    rows = []
    if ns.beta is not None:
        value = markov.alpha_upper(ns.beta)
        print(f"alpha upper bound for displacement exponent {ns.beta}: {float(value)} (= {value})")
        beta_fraction = Fraction(ns.beta)
        rows += [row for row in markov.iterated_wreath_table(12) if row[1] == beta_fraction]
    if ns.iterated_k is not None:
        rows += markov.iterated_wreath_table(ns.iterated_k)
    for k, beta_k, bound_k in rows:
        print(
            f"iterated level k={k}: displacement exponent {beta_k} "
            f"-> compression bound {bound_k} (= {float(bound_k)})"
        )
    return 0


def _cmd_pipeline(ns) -> int:
    alpha, eps, seed, trials, tmax = ns.alpha, ns.eps, ns.seed, ns.trials, ns.tmax
    snapshot = {"alpha": alpha, "eps": eps, "trials": trials, "tmax": tmax}
    sink = _OutputSink(ns.out, "pipeline", snapshot, seed)

    times = _default_times(tmax)
    with sink.stage("simulate"):
        sample = walk.simulate("zwrz", times, trials, seed)
    sink.counters["walkSteps"] = sample.trials * sample.times[-1]
    with sink.stage("fit"):
        fit = walk.estimate_beta(sample)
        _, c, tail = _calibrated_tail(sample, 0.75)
        tested = [t for t in sample.times if 64 <= t <= 4096]
        delta_min = min(tail.delta_hat[t] for t in tested)
    if delta_min <= 0:
        raise InvariantViolation("empirical tail probability vanished on the tested grid")

    with sink.stage("scan"):
        scan_elements = embedding.ball_elements(6)
        for prefactor in embedding.BALANCED_PREFACTORS:
            scan_elements += embedding.balanced_family(alpha, prefactor)
        tail_series = embedding.tail_cache_info().misses
        scan = embedding.compression_scan(alpha, scan_elements, eps)
        sink.counters["tailSeries"] = embedding.tail_cache_info().misses - tail_series
        observations = scan.observations
        sink.counters["normsCertified"] = sum(bound <= eps for _, _, bound in observations)
        rho_hat = markov.empirical_modulus(
            [d for d, _, _ in observations], [v for _, v, _ in observations]
        )

    checks = []
    with sink.stage("checks"):
        for t in tested:
            threshold = c * t**fit.beta_hat
            lhs = rho_hat(threshold)
            rhs = markov.compression_bound(delta_min, t)
            sink.margins[t] = rhs - lhs
            checks.append(
                {"t": t, "threshold": threshold, "rhoHat": lhs, "bound": rhs, "pass": lhs <= rhs}
            )
            if lhs > rhs:
                raise InvariantViolation(
                    f"compression bound failed at t={t}: rhoHat {lhs} > bound {rhs}"
                )

    summary = {
        "alpha": alpha,
        "seed": seed,
        "trials": trials,
        "betaHat": fit.beta_hat,
        "tailConstant": c,
        "deltaMin": delta_min,
        "alphaUpperAtCalibration": float(markov.alpha_upper(Fraction(3, 4))),
        "alphaUpperAtFittedBeta": float(markov.alpha_upper(min(1.0, fit.beta_hat))),
        "checks": checks,
        "pass": True,
    }
    with sink.stage("write"):
        sink.add("walk_samples.csv", _walk_csv(sample))
        sink.add("walk_tail.csv", _tail_csv(tail))
        sink.add("compression_observations.csv", _compression_csv(scan))
        sink.add("pipeline_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    sink.flush()
    _print_json(summary)
    return 0


# ------------------------------------------------------------------- parsing


def _add_options(parser: _Parser, *names: str) -> None:
    """Flags for table options; run resolves each before the command runs."""
    for name in names:
        cast = OPTIONS[name][0]
        parser.add_argument(f"--{name.replace('_', '-')}", type=None if cast is str else cast)
    parser.set_defaults(options=(parser.get_default("options") or ()) + names)


def build_parser() -> _Parser:
    parser = _Parser(prog="wreathlab", description=__doc__)
    parser.add_argument("--config", help="plain key = value parameter file")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_metric = sub.add_parser("metric", help="exact word-metric witness")
    p_metric.add_argument("--a", required=True, help="element encoding, e.g. '2; -1:3, 4:-2'")
    p_metric.add_argument("--b", required=True)
    p_metric.add_argument("--oracle", action="store_true", help="cross-check against search")
    p_metric.add_argument("--max-radius", type=int, dest="max_radius")
    p_metric.set_defaults(func=_cmd_metric)

    p_walk = sub.add_parser("walk", help="displacement samples and exponent fit")
    p_walk.add_argument("--group", choices=walk.GROUPS, required=True)
    _add_options(p_walk, "tmax", "trials", "seed")
    p_walk.add_argument("--times", help="comma-separated override of the time grid")
    _add_options(p_walk, "out")
    p_walk.set_defaults(func=_cmd_walk)

    p_markov = sub.add_parser("markov", help="chain construction and verification")
    markov_sub = p_markov.add_subparsers(dest="markov_command", parser_class=_Parser)

    p_verify = markov_sub.add_parser("verify", help="random reversible-chain campaign")
    _add_options(p_verify, "chains", "max_states")
    p_verify.add_argument("--tmax", type=int)  # its own default, not read from --config
    _add_options(p_verify, "seed")
    p_verify.set_defaults(func=_cmd_markov_verify)

    p_delayed = markov_sub.add_parser("delayed", help="build and validate a subset walk")
    p_delayed.add_argument("--host", choices=tuple(_SUBSETS), required=True)
    p_delayed.add_argument("--subset", required=True)
    p_delayed.set_defaults(func=_cmd_markov_delayed)

    p_replay = markov_sub.add_parser("replay", help="replay the sandwich on one instance")
    p_replay.add_argument("--host", choices=tuple(_SUBSETS), required=True)
    p_replay.add_argument("--F", required=True, help="core-set spec, same format as --subset")
    _add_options(p_replay, "t", "p")
    p_replay.set_defaults(func=_cmd_markov_replay)

    p_embed = sub.add_parser("embed", help="embedding norms, pairs, and scans")
    embed_sub = p_embed.add_subparsers(dest="embed_command", parser_class=_Parser)

    p_norms = embed_sub.add_parser("norms", help="generator norm audit")
    _add_options(p_norms, "alpha", "eps")
    p_norms.set_defaults(func=_cmd_embed_norms)

    p_pair = embed_sub.add_parser("pair", help="certified distance between two elements")
    p_pair.add_argument("--a", required=True)
    p_pair.add_argument("--b", required=True)
    _add_options(p_pair, "alpha", "eps")
    p_pair.set_defaults(func=_cmd_embed_pair)

    p_scan = embed_sub.add_parser("scan", help="distance-vs-norm scan")
    _add_options(p_scan, "alpha", "count", "eps", "seed")
    p_scan.add_argument(
        "--sampler",
        default="random",
        help="ball:R | cursor:K | lamp:SPREAD:MASS | balanced:PREFACTOR | random",
    )
    _add_options(p_scan, "out")
    p_scan.set_defaults(func=_cmd_embed_scan)

    p_bound = sub.add_parser("bound", help="compression bound from a displacement exponent")
    p_bound.add_argument("--beta", type=float)
    p_bound.add_argument("--iterated-k", type=int, dest="iterated_k")
    p_bound.set_defaults(func=_cmd_bound)

    p_pipe = sub.add_parser("pipeline", help="walk + embed + bound, end to end")
    _add_options(p_pipe, "alpha", "eps", "seed", "trials", "tmax", "out")
    p_pipe.set_defaults(func=_cmd_pipeline)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not getattr(ns, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = _load_config(ns.config)
        for name in getattr(ns, "options", ()):
            setattr(ns, name, _resolve(ns, config, name))
        result = ns.func(ns)
        return 0 if result is None else result
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 3
    except WreathError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
