"""Command-line surface: exit codes, artifacts, manifests, and precedence."""

import argparse
import hashlib
import json
import math
import os
import time

import pytest

from wreathlab import cli, embedding, hosts, markov, metric


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(out: str):
    return json.loads(out)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--frobnicate")
        assert code == 1
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_bad_element_encoding(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--a", "zzz", "--b", "0;")
        assert code == 1
        assert "offset" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "metric" in out

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/nonexistent/cfg", "bound", "--beta", "0.75")
        assert code == 1


class TestMetricCommand:
    def test_witness_json(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--a", "0; 2:3", "--b", "0;")
        assert code == 0
        payload = read_json(out)
        assert payload["total"] == 7
        assert payload["lampCost"] == 3
        assert payload["travelCost"] == 4

    def test_oracle_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--a", "0;", "--b", "1; 0:1, 1:-2", "--oracle")
        assert code == 0
        payload = read_json(out)
        assert payload["oracle"] == payload["total"]


class TestBoundCommand:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--beta", "0.75")
        assert code == 0
        assert "0.666666" in out
        assert "2/3" in out

    def test_iterated_table(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--iterated-k", "3")
        assert code == 0
        assert "4/7" in out

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_iterated_table_refuses_k_below_1(self, capsys, k):
        code, out, err = run_cli(capsys, "bound", "--iterated-k", k)
        assert (code, out, err) == (1, "", "error: k must be >= 1\n")

    def test_requires_an_argument(self, capsys):
        code, _, _ = run_cli(capsys, "bound")
        assert code == 1

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_is_an_error(self, capsys, beta):
        code, _, err = run_cli(capsys, "bound", "--beta", beta)
        assert code == 1
        assert err.startswith("error: ")


class TestWalkCommand:
    def test_artifacts_and_manifest(self, capsys, tmp_path):
        out_dir = str(tmp_path / "w")
        code, out, _ = run_cli(
            capsys, "walk", "--group", "z", "--trials", "25", "--tmax", "256",
            "--seed", "5", "--out", out_dir,
        )
        assert code == 0
        names = sorted(os.listdir(out_dir))
        assert names == [
            "run_manifest.json", "walk_samples.csv", "walk_summary.json", "walk_tail.csv",
        ]
        manifest = json.load(open(os.path.join(out_dir, "run_manifest.json")))
        for name, digest in manifest["outputs"].items():
            body = open(os.path.join(out_dir, name), "rb").read()
            assert hashlib.sha256(body).hexdigest() == digest
        header = open(os.path.join(out_dir, "walk_samples.csv")).readline().strip()
        assert header == "group,t,trial,displacement"
        header = open(os.path.join(out_dir, "walk_tail.csv")).readline().strip()
        assert header == "t,c,beta,deltaHat,stderr"

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        args = ("walk", "--group", "zwrz", "--trials", "10", "--tmax", "128", "--seed", "3")
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            assert cli.run(list(args) + ["--out", d]) == 0
        capsys.readouterr()
        for name in ("walk_samples.csv", "walk_tail.csv", "walk_summary.json"):
            bodies = [open(os.path.join(d, name), "rb").read() for d in dirs]
            assert bodies[0] == bodies[1]

    def test_wreath_summary_reports_the_split(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "walk", "--group", "zwrz", "--trials", "30", "--tmax", "512",
            "--seed", "2", "--out", str(tmp_path / "w"),
        )
        assert code == 0
        payload = read_json(out)
        times = {str(t) for t in payload["times"]}
        for key in ("lampMassMean", "travelMean"):
            assert set(payload[key]) == times
        assert 0.5 <= payload["lampMassBetaHat"] <= 1.0
        assert 0.2 <= payload["travelBetaHat"] <= 0.8

    def test_split_fit_too_short_is_null(self, capsys, tmp_path):
        # travel is 0 at t = 1 and 2 here, leaving 3 positive means: too few to fit
        code, out, _ = run_cli(
            capsys, "walk", "--group", "zwrz", "--trials", "1", "--times", "1,2,3,4,5",
            "--seed", "0", "--out", str(tmp_path / "w"),
        )
        assert code == 0
        payload = read_json(out)
        assert payload["travelBetaHat"] is None
        assert payload["travelMean"]["1"] == 0.0

    def test_manifest_clock_covers_the_command(self, capsys, tmp_path, monkeypatch):
        simulate = cli.walk.simulate

        def slow_simulate(*args):
            time.sleep(0.2)
            return simulate(*args)

        monkeypatch.setattr(cli.walk, "simulate", slow_simulate)
        out_dir = str(tmp_path / "w")
        code, _, _ = run_cli(
            capsys, "walk", "--group", "z", "--trials", "5", "--tmax", "256", "--out", out_dir,
        )
        assert code == 0
        manifest = json.load(open(os.path.join(out_dir, "run_manifest.json")))
        assert manifest["wallClockSeconds"] >= 0.2

    def test_malformed_times_is_an_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "walk", "--group", "z", "--times", "4,x", "--out", str(tmp_path / "w")
        )
        assert code == 1
        assert err.startswith("error:") and "--times" in err

    @pytest.mark.parametrize("group", ["z", "zwrz"])
    def test_walk_over_physical_memory_exits_3(self, capsys, tmp_path, group):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        steps = physical // 8 + 1  # one int64 entry per step alone is too big
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "walk", "--group", group, "--trials", "1", "--times", str(steps),
            "--out", str(tmp_path / "w"),
        )
        assert code == 3
        assert "physical memory" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("group", ["z", "zwrz"])
    def test_walk_rows_over_physical_memory_exits_3(self, capsys, tmp_path, monkeypatch, group):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        trials = physical // 8 + 1  # one int64 entry per trial alone is too big

        def no_draws(args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(cli.walk, "_run_blocks", no_draws)
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "walk", "--group", group, "--trials", str(trials), "--times", "1",
            "--out", str(tmp_path / "w"),
        )
        assert code == 3
        assert "physical memory" in err
        assert time.perf_counter() - start < 5.0

    def test_summary_contents(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "walk", "--group", "z", "--trials", "30", "--tmax", "512",
            "--seed", "2", "--out", str(tmp_path / "w"),
        )
        payload = read_json(out)
        assert payload["group"] == "z"
        assert payload["trials"] == 30
        assert 0.3 <= payload["betaHat"] <= 0.7
        assert set(payload["deltaHat"]) == {str(t) for t in payload["times"]}


class TestConfigPrecedence:
    def write_config(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_config_file_supplies_values(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, "trials = 7\nseed = 4\n# comment\n")
        code, out, _ = run_cli(
            capsys, "--config", cfg, "walk", "--group", "z", "--tmax", "256",
            "--out", str(tmp_path / "w"),
        )
        payload = read_json(out)
        assert (payload["seed"], payload["trials"]) == (4, 7)

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, "trials = 7\nseed = 4\n")
        code, out, _ = run_cli(
            capsys, "--config", cfg, "walk", "--group", "z", "--tmax", "256",
            "--seed", "9", "--trials", "11", "--out", str(tmp_path / "w"),
        )
        payload = read_json(out)
        assert (payload["seed"], payload["trials"]) == (9, 11)

    def test_env_seed_used_when_unset(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WREATH_SEED", "123")
        code, out, _ = run_cli(
            capsys, "walk", "--group", "z", "--tmax", "256", "--trials", "5",
            "--out", str(tmp_path / "w"),
        )
        assert read_json(out)["seed"] == 123

    def test_config_beats_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WREATH_SEED", "123")
        cfg = self.write_config(tmp_path, "seed = 4\n")
        code, out, _ = run_cli(
            capsys, "--config", cfg, "walk", "--group", "z", "--tmax", "256",
            "--trials", "5", "--out", str(tmp_path / "w"),
        )
        assert read_json(out)["seed"] == 4

    def test_malformed_config(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, "no equals sign here\n")
        code, _, err = run_cli(capsys, "--config", cfg, "bound", "--beta", "0.75")
        assert code == 1


class TestMarkovCommands:
    def test_verify_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "markov", "verify", "--chains", "15", "--max-states", "6",
            "--tmax", "16", "--seed", "2",
        )
        assert code == 0
        payload = read_json(out)
        assert payload["pass"] is True
        assert payload["maxViolation"] <= payload["tolerance"]

    def test_delayed_interval(self, capsys):
        code, out, _ = run_cli(capsys, "markov", "delayed", "--host", "z", "--subset", "0:2")
        assert code == 0
        payload = read_json(out)
        assert payload["states"] == 3
        assert all(v <= 1e-12 for v in payload["residuals"].values())

    def test_delayed_bad_spec(self, capsys):
        code, _, _ = run_cli(capsys, "markov", "delayed", "--host", "z", "--subset", "0:1:2")
        assert code == 1

    def test_replay_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "markov", "replay", "--host", "z", "--F=-20:20", "--t", "4"
        )
        assert code == 0
        payload = read_json(out)
        assert payload["upper"] == 4.0
        assert payload["chainLower"] <= payload["markovLhs"] <= payload["upper"]

    def test_replay_wreath(self, capsys):
        code, out, _ = run_cli(
            capsys, "markov", "replay", "--host", "zwrz-trunc", "--F", "1:1:1", "--t", "1"
        )
        assert code == 0
        payload = read_json(out)
        assert payload["coreSize"] == 81
        assert payload["fattenedSize"] == 189

    def test_replay_reports_the_slack_of_each_link(self, capsys):
        code, out, _ = run_cli(
            capsys, "markov", "replay", "--host", "z", "--F=-20:20", "--t", "4"
        )
        assert code == 0
        payload = read_json(out)
        slack = payload["slack"]
        assert set(slack) == {
            "chain_lower <= restricted_avg",
            "restricted_avg <= full_avg",
            "full_avg <= markov_lhs",
            "markov_lhs <= markov_rhs",
            "markov_lhs <= upper",
            "markov_rhs <= upper",
        }
        assert slack["markov_lhs <= upper"] == payload["upper"] - payload["markovLhs"]
        assert slack["restricted_avg <= full_avg"] == payload["fullAvg"] - payload["restrictedAvg"]

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_replay_rejects_non_finite_p(self, capsys, p):
        code, out, err = run_cli(
            capsys, "markov", "replay", "--host", "z", "--F", "0:5", "--t", "2", "--p", p
        )
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    @pytest.mark.parametrize("p", ["2.5", "3", "1e308"])
    def test_replay_refuses_p_above_2(self, capsys, p):
        # the upper term t bounds the p-th moment only for p <= 2; past 2 the
        # last link fails with nothing wrong (6.49 > 4.0 at p = 2.5)
        code, out, err = run_cli(
            capsys, "markov", "replay", "--host", "z", "--F=-20:20", "--t", "4", "--p", p
        )
        assert code == 1
        assert err == "error: p must lie in [1, 2], where the upper term t bounds the p-th moment\n"
        assert out == ""

    def test_delayed_over_physical_memory_exits_3(self, capsys):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n = math.isqrt(physical // 8) + 1  # one n x n float64 matrix alone is too big
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "markov", "delayed", "--host", "z", "--subset", f"0:{n}")
        assert code == 3
        assert "physical memory" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("host, spec", [("z", "0:100"), ("z2", "0:10:0:9")])
    def test_subset_over_the_cap_exits_3_before_it_is_built(self, capsys, monkeypatch, host, spec):
        monkeypatch.setattr(metric, "DEFAULT_BALL_CAP", 100)

        def unreachable(*args):
            raise AssertionError("the oversized subset reached delayed_walk")

        monkeypatch.setattr(markov, "delayed_walk", unreachable)
        code, out, err = run_cli(capsys, "markov", "delayed", "--host", host, "--subset", spec)
        assert (code, out) == (3, "")
        assert "more than 100 elements" in err

    def test_replay_core_over_physical_memory_exits_3_before_fattening(self, capsys, monkeypatch):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n = math.isqrt(physical // 8) + 1  # one n x n float64 matrix alone is too big

        def unreachable(*args):
            raise AssertionError("the oversized core reached the fattening search")

        monkeypatch.setattr(hosts, "union_of_balls", unreachable)
        code, out, err = run_cli(capsys, "markov", "replay", "--host", "z", "--F", f"0:{n}", "--t", "1")
        assert (code, out) == (3, "")
        assert "physical memory" in err

    def test_truncation_of_wide_support_exits_3_at_once(self, capsys):
        # 3^200001 elements: a count too long to print, and too slow to compute at wider supports
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "markov", "delayed", "--host", "zwrz-trunc", "--subset", "0:100000:1")
        assert code == 3
        assert "truncation" in err
        assert time.perf_counter() - start < 5.0

    def test_truncation_with_every_lamp_off_skips_its_support(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "markov", "delayed", "--host", "zwrz-trunc", "--subset", "1:100000000:0")
        assert code == 0
        assert read_json(out)["states"] == 3
        assert time.perf_counter() - start < 5.0

    def test_oversized_wreath_truncation_exits_3(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "markov", "replay", "--host", "zwrz-trunc", "--F", "5:5:5", "--t", "1"
        )
        assert code == 3
        assert "truncation" in err
        assert time.perf_counter() - start < 5.0


# sha256 of the whole stdout of each stdout-only subcommand at a small size; any
# change to a key, a value or the layout moves one of them
STDOUT_SHA256 = [
    (("metric", "--a", "1; 0:1, 1:-2", "--b", "0;"),
     "623c25c554fcc38221567c892a9b07ddaedad95c295f683cfaae1ced31e0f694"),
    (("metric", "--a", "1; 0:1, 1:-2", "--b", "0;", "--oracle"),
     "2e51d86198caf44e208b3ad28941f344216cb419f7af4d55fb22d653e58cbd3a"),
    (("markov", "delayed", "--host", "z2", "--subset", "0:1:0:1"),
     "fac93955fb107767545b228d77362b9973d88696fc05610ce41f6f8ab6eacc30"),
    (("markov", "replay", "--host", "z", "--F", "0:5", "--t", "2"),
     "d20eba37f171869657826ce5885b3036be3904a22cf8a4c980aad3470056135f"),
    (("markov", "replay", "--host", "z", "--F", "0:5", "--t", "2", "--p", "1.5"),
     "f7b32832cbe91f836b410908416c0015b08380ca67fc0d7c9f101c1e40e660fc"),
    (("markov", "replay", "--host", "z2", "--F", "0:2:0:2", "--t", "2"),
     "7a7af2c5ec1388008fb2dd9027561f8c2e696301153d51c282627aa02ee58a7a"),
    (("markov", "replay", "--host", "zwrz-trunc", "--F", "1:1:1", "--t", "1"),
     "e04966647c96c42860a1771fc226fc667414dbf71284c7b037691bd52c5584bb"),
    (("embed", "pair", "--a", "1; 0:1", "--b", "0;"),
     "39438e1c4ff75f8417f0ec69df401636ffd0ab8022a5fafc7d517bee69d1b176"),
    (("bound", "--beta", "0.75"),
     "19606afd4863c37feb40f3d1a023ae2b40edf76e675e0a07dfcac183dbe0a4c6"),
    (("bound", "--iterated-k", "3"),
     "5e459f893dd22b41816c32ac3ff8a1e65d5697ae9c12a00bfac0b90172f2bbf0"),
    (("embed", "norms"),
     "565982294d23a58766887af727bd79a06317c66ef56f42501b0bce4ffa71405f"),
    (("embed", "norms", "--alpha", "0.3", "--eps", "1e-9"),
     "47dc9d65f637c4733bca2aab99fe405168246cb658b99c354c8d095aef24f864"),
    (("markov", "verify", "--chains", "20", "--tmax", "8"),
     "56fa9d29327f6bc7346ca31c7f85289b91d41efc16dcd3efd13cb9a9707912de"),
]


@pytest.mark.parametrize("argv, digest", STDOUT_SHA256, ids=[" ".join(a) for a, _ in STDOUT_SHA256])
def test_stdout_is_byte_identical(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestEmbedCommands:
    def test_norms(self, capsys):
        code, out, _ = run_cli(capsys, "embed", "norms", "--alpha", "0.45")
        assert code == 0
        payload = read_json(out)
        assert payload["generators"]["lamp+"]["norm"] == 1.0
        assert payload["lipschitz"] >= 1.0

    def test_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "embed", "pair", "--a", "0; 0:1", "--b", "0;", "--alpha", "0.45"
        )
        assert code == 0
        payload = read_json(out)
        assert payload["norm"] == 1.0
        assert payload["distance"] == 1

    def test_scan_with_family_sampler(self, capsys, tmp_path):
        out_dir = str(tmp_path / "scan")
        code, out, _ = run_cli(
            capsys, "embed", "scan", "--alpha", "0.45", "--sampler", "ball:3",
            "--count", "100", "--out", out_dir,
        )
        assert code == 0
        payload = read_json(out)
        assert payload["fittedLowerConstant"] > 0
        header = open(os.path.join(out_dir, "compression_observations.csv")).readline().strip()
        assert header == "alpha,distance,norm,errorBound"

    def test_scan_rejects_unknown_sampler(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "embed", "scan", "--sampler", "mystery", "--out", str(tmp_path / "s")
        )
        assert code == 1

    @pytest.mark.parametrize(
        "spec", ["ball:x", "cursor:abc", "lamp:3:q", "balanced:zz", "balanced:inf", "balanced:nan"]
    )
    def test_scan_rejects_malformed_sampler_numbers(self, capsys, tmp_path, spec):
        code, _, err = run_cli(
            capsys, "embed", "scan", "--sampler", spec, "--out", str(tmp_path / "s")
        )
        assert code == 1
        assert err.startswith("error: ")
        assert not os.path.exists(tmp_path / "s")

    @pytest.mark.parametrize(
        "argv",
        [["norms"], ["pair", "--a", "0; 0:1", "--b", "0;"], ["scan", "--sampler", "ball:2", "--out", "s"]],
    )
    def test_nan_eps_is_an_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "embed", *argv, "--eps", "nan")
        assert code == 1
        assert err.startswith("error: eps")

    def test_scan_over_the_ball_cap_exits_3_at_once(self, capsys, tmp_path):
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "embed", "scan", "--sampler", "ball:40", "--out", str(tmp_path / "s")
        )
        assert code == 3
        assert "cap" in err
        assert time.perf_counter() - start < 5.0

    def test_scan_count_floor(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "embed", "scan", "--count", "5", "--out", str(tmp_path / "s")
        )
        assert code == 1
        assert err.startswith("error: count")

    def test_scan_count_floor_checked_before_the_sampler(self, capsys, tmp_path, monkeypatch):
        def no_ball(radius):
            raise AssertionError("the ball was built")

        monkeypatch.setattr(cli.embedding, "ball_elements", no_ball)
        code, _, err = run_cli(
            capsys, "embed", "scan", "--sampler", "ball:10", "--count", "5", "--out", str(tmp_path / "s")
        )
        assert code == 1
        assert err.startswith("error: count")
        assert not os.path.exists(tmp_path / "s")

    def test_scan_builds_at_most_count_elements(self, capsys, tmp_path):
        bodies = []
        for spec in ("cursor:1000000000000", "cursor:20"):
            out_dir = tmp_path / spec.replace(":", "-")
            start = time.perf_counter()
            code, out, _ = run_cli(
                capsys, "embed", "scan", "--sampler", spec, "--count", "20", "--out", str(out_dir)
            )
            assert code == 0
            assert time.perf_counter() - start < 5.0
            bodies.append((out, (out_dir / "compression_observations.csv").read_bytes()))
        assert bodies[0] == bodies[1]
        assert read_json(bodies[0][0])["count"] == 20

    def test_far_cursor_window_exits_3_at_once(self, capsys, monkeypatch):
        def no_window(*args):
            raise AssertionError("the window sum started")

        # the window sum is the one loop of the embedding module on this path
        monkeypatch.setattr(cli.embedding, "range", no_window, raising=False)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "embed", "pair", "--a", "1000000000;", "--b", "0;")
        assert code == 3
        assert "cap" in err
        assert time.perf_counter() - start < 5.0

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "embed", "norms", "--alpha", "0.75")
        assert code == 1


class TestPipeline:
    def test_reduced_run(self, capsys, tmp_path):
        out_dir = str(tmp_path / "pipe")
        embedding.shifted_power_tail.cache_clear()  # so every tail series counts
        code, out, _ = run_cli(
            capsys, "pipeline", "--trials", "200", "--tmax", "4096",
            "--seed", "7", "--out", out_dir,
        )
        assert code == 0
        payload = read_json(out)
        assert payload["pass"] is True
        assert all(check["pass"] for check in payload["checks"])
        names = sorted(os.listdir(out_dir))
        assert "pipeline_summary.json" in names
        assert "run_manifest.json" in names
        with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        stages = manifest["stages"]
        assert set(stages) == {"simulate", "fit", "scan", "checks", "write"}
        assert all(seconds >= 0 for seconds in stages.values())
        assert sum(stages.values()) <= manifest["wallClockSeconds"]
        assert manifest["counters"] == {
            "walkSteps": 200 * 4096, "normsCertified": 1200, "tailSeries": 21,
        }


def _flag_table(parser, path=()):
    """(subcommand path, option strings, dest, type, default, required, choices) per flag."""
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                rows += _flag_table(sub, path + (name,))
        elif action.option_strings and action.dest != "help":
            rows.append(
                (" ".join(path), tuple(action.option_strings), action.dest, action.type,
                 action.default, action.required, action.choices)
            )
    return rows


class TestParserFlags:
    HOSTS = ("z", "z2", "zwrz-trunc")
    EXPECTED = [
        ("", ("--config",), "config", None, None, False, None),
        ("metric", ("--a",), "a", None, None, True, None),
        ("metric", ("--b",), "b", None, None, True, None),
        ("metric", ("--oracle",), "oracle", None, False, False, None),
        ("metric", ("--max-radius",), "max_radius", int, None, False, None),
        ("walk", ("--group",), "group", None, None, True, ("z", "zwrz")),
        ("walk", ("--tmax",), "tmax", int, None, False, None),
        ("walk", ("--trials",), "trials", int, None, False, None),
        ("walk", ("--seed",), "seed", int, None, False, None),
        ("walk", ("--times",), "times", None, None, False, None),
        ("walk", ("--out",), "out", None, None, False, None),
        ("markov verify", ("--chains",), "chains", int, None, False, None),
        ("markov verify", ("--max-states",), "max_states", int, None, False, None),
        ("markov verify", ("--tmax",), "tmax", int, None, False, None),
        ("markov verify", ("--seed",), "seed", int, None, False, None),
        ("markov delayed", ("--host",), "host", None, None, True, HOSTS),
        ("markov delayed", ("--subset",), "subset", None, None, True, None),
        ("markov replay", ("--host",), "host", None, None, True, HOSTS),
        ("markov replay", ("--F",), "F", None, None, True, None),
        ("markov replay", ("--t",), "t", int, None, False, None),
        ("markov replay", ("--p",), "p", float, None, False, None),
        ("embed norms", ("--alpha",), "alpha", float, None, False, None),
        ("embed norms", ("--eps",), "eps", float, None, False, None),
        ("embed pair", ("--a",), "a", None, None, True, None),
        ("embed pair", ("--b",), "b", None, None, True, None),
        ("embed pair", ("--alpha",), "alpha", float, None, False, None),
        ("embed pair", ("--eps",), "eps", float, None, False, None),
        ("embed scan", ("--alpha",), "alpha", float, None, False, None),
        ("embed scan", ("--count",), "count", int, None, False, None),
        ("embed scan", ("--eps",), "eps", float, None, False, None),
        ("embed scan", ("--seed",), "seed", int, None, False, None),
        ("embed scan", ("--sampler",), "sampler", None, "random", False, None),
        ("embed scan", ("--out",), "out", None, None, False, None),
        ("bound", ("--beta",), "beta", float, None, False, None),
        ("bound", ("--iterated-k",), "iterated_k", int, None, False, None),
        ("pipeline", ("--alpha",), "alpha", float, None, False, None),
        ("pipeline", ("--eps",), "eps", float, None, False, None),
        ("pipeline", ("--seed",), "seed", int, None, False, None),
        ("pipeline", ("--trials",), "trials", int, None, False, None),
        ("pipeline", ("--tmax",), "tmax", int, None, False, None),
        ("pipeline", ("--out",), "out", None, None, False, None),
    ]

    def test_every_flag_is_pinned(self):
        assert _flag_table(cli.build_parser()) == self.EXPECTED
