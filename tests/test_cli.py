"""Command line surface: every subcommand runs and emits its artifacts."""

import json

import numpy as np
import pytest

from lola.attention import AttentionConfig, FeatureMapParams, save_feature_map
from lola.harness.cli import main
from lola.harness.experiments import ExperimentConfig, resolve_feature_map
from lola.harness.synthetic import SyntheticTaskSpec


def test_recall_subcommand(tmp_path, capsys):
    status = main(
        [
            "recall",
            "--n", "24", "--d", "8", "--codebook", "4",
            "--eta", "8", "--lam", "4", "--trials", "3",
            "--feature-map", "random", "--seed", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert status == 0
    assert (tmp_path / "recall.csv").exists()
    assert "accuracy" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 2
    assert "recall.csv" in manifest["files"]


def test_distilled_map_reusable_across_runs(tmp_path):
    # a map saved by distill reproduces --feature-map distill at the same seed and shape
    shape = ["--d", "8", "--codebook", "4", "--seed", "3"]
    assert main(["distill", *shape, "--out-dir", str(tmp_path), "--out", "m.json"]) == 0
    recall = ["recall", *shape, "--n", "24", "--eta", "8", "--lam", "4", "--trials", "4"]
    for fmap, out in ((str(tmp_path / "m.json"), "saved"), ("distill", "fitted")):
        assert main([*recall, "--feature-map", fmap, "--out-dir", str(tmp_path / out)]) == 0
    saved = (tmp_path / "saved" / "recall.csv").read_bytes()
    assert saved == (tmp_path / "fitted" / "recall.csv").read_bytes()


def test_recall_json_format(tmp_path):
    status = main(
        [
            "recall",
            "--n", "16", "--d", "4", "--codebook", "4", "--trials", "2",
            "--feature-map", "random", "--format", "json",
            "--out-dir", str(tmp_path),
        ]
    )
    assert status == 0
    rows = json.loads((tmp_path / "recall.json").read_text())
    assert rows[0]["policy"] == "lola"


def test_ablate_scores_subcommand(tmp_path):
    status = main(
        [
            "ablate-scores",
            "--n", "24", "--d", "8", "--codebook", "4",
            "--budget", "8", "--trials", "2",
            "--feature-map", "random",
            "--out-dir", str(tmp_path),
        ]
    )
    assert status == 0
    text = (tmp_path / "score_ablation.csv").read_text()
    assert "self-recall" in text and "window-extension" in text


def test_collisions_subcommand(tmp_path):
    status = main(
        [
            "collisions",
            "--n", "24", "--d", "8", "--codebook", "4",
            "--eta", "4", "--lam", "4", "--relative",
            "--feature-map", "random",
            "--out-dir", str(tmp_path),
        ]
    )
    assert status == 0
    for policy in ("linear-only", "window-only", "lola"):
        assert (tmp_path / f"collisions-{policy}.csv").exists()
        assert (tmp_path / f"collisions-{policy}-relative.csv").exists()


def assert_cli_writes_what_the_suite_writes(tmp_path, cli_args, exp, seed):
    """Run ``lola <cli_args>`` and ``lola suite`` on the one-entry config
    ``exp``; both must write the same CSV files, byte for byte."""
    cli_dir = tmp_path / "cli"
    assert main([*cli_args, "--seed", str(seed), "--out-dir", str(cli_dir)]) == 0
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"seed": seed, "experiments": [exp]}))
    assert main(["suite", "--config", str(cfg_path), "--out-dir", str(tmp_path / "suite")]) == 0
    (suite_dir,) = list((tmp_path / "suite").iterdir())
    cli_csvs = sorted(p.name for p in cli_dir.glob("*.csv"))
    assert sorted(p.name for p in suite_dir.glob("*.csv")) == cli_csvs
    for name in cli_csvs:
        assert (cli_dir / name).read_bytes() == (suite_dir / name).read_bytes(), name
    return cli_csvs


def test_collisions_subcommand_matches_a_one_entry_suite(tmp_path, capsys):
    n, d, eta, lam, seed = 40, 8, 6, 5, 4
    exp = {
        "kind": "collisions",
        "name": "collisions",
        "n": n,
        "d": d,
        "codebook": 4,
        "window": eta,
        "sparse": lam,
        "feature_map": "random",
        "relative": True,
    }
    cli_args = [
        "collisions",
        "--n", str(n), "--d", str(d), "--codebook", "4",
        "--eta", str(eta), "--lam", str(lam), "--relative",
        "--feature-map", "random",
    ]
    cli_csvs = assert_cli_writes_what_the_suite_writes(tmp_path, cli_args, exp, seed)
    assert len(cli_csvs) == 6
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in lines] == ["linear-only", "window-only", "lola"]
    assert lines[2].endswith(f"wrote {tmp_path / 'cli' / 'collisions-lola.csv'}")


@pytest.mark.parametrize(
    "cli_args, exp",
    [
        (
            ["recall", "--n", "24", "--d", "8", "--codebook", "4", "--eta", "6", "--lam", "5",
             "--chunk", "4", "--trials", "3", "--feature-map", "random"],
            {"kind": "recall", "name": "recall", "n": 24, "d": 8, "codebook": 4, "trials": 3,
             "feature_map": "random",
             "variants": [{"name": "recall", "policy": "lola", "window": 6, "sparse": 5, "chunk": 4}]},
        ),
        (
            ["ablate-scores", "--n", "24", "--d", "8", "--codebook", "4", "--budget", "8",
             "--trials", "2", "--feature-map", "random"],
            {"kind": "ablation", "name": "score_ablation", "n": 24, "d": 8, "codebook": 4,
             "budget": 8, "trials": 2, "feature_map": "random"},
        ),
        # the command line sorts its lists, as the suite does
        (
            ["gram-study", "--n-list", "16,8", "--d-list", "6,4"],
            {"kind": "gram-study", "name": "gram_study", "n_list": [8, 16], "d_list": [4, 6]},
        ),
    ],
    ids=["recall", "ablate-scores", "gram-study-unsorted"],
)
def test_analysis_subcommands_write_what_a_one_entry_suite_writes(tmp_path, cli_args, exp):
    # collisions has its own test above, which also checks what it prints
    assert assert_cli_writes_what_the_suite_writes(tmp_path, cli_args, exp, seed=3)
    if exp["kind"] == "gram-study":
        rows = (tmp_path / "cli" / "gram_study.csv").read_text().splitlines()[1:]
        shapes = [tuple(int(x) for x in row.split(",")[:2]) for row in rows]
        assert shapes == sorted(shapes, key=lambda nd: (nd[1], nd[0]))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--trials", "0"], "'trials' must be >= 1, got 0"),
        (["--n", "-5"], "'n' must be >= 1, got -5"),
        (["--needles", "30", "--n", "24"], "'needles' must be <= the haystack length 24, got 30"),
    ],
    ids=["trials-0", "n-negative", "needles-over-n"],
)
def test_recall_bad_sizes_exit_2_before_any_file_is_written(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "out"
    status = main(["recall", *flags, "--feature-map", "random", "--out-dir", str(out_dir)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lola recall: ") and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gram-study", "--n-list", "0,8"], "'n_list' must be a non-empty list of integers >= 1"),
        (["gram-study", "--n-list", "a,8"], "--n-list must be comma-separated integers, got 'a,8'"),
        # seed 0's inputs at d=1000 reach 34.23, over the kernel guard's 30
        (["gram-study", "--n-list", "8", "--d-list", "1000"],
         "'d_list' entry 1000 draws inputs at seed 0 whose Gram exponent reaches 34.23"),
        (["recall", "--feature-dim", "3"], "'feature_dim' must be a positive even integer, got 3"),
        (["recall", "--policy", "nope"], "'policy' 'nope' is not a policy the decode path runs"),
        (["recall", "--chunk", "4", "--policy", "linear-only"],
         "'policy' 'linear-only' is not a policy the chunked path runs"),
    ],
    ids=[
        "n-list-zero",
        "n-list-not-int",
        "d-list-overflows",
        "feature-dim-odd",
        "policy-unknown",
        "policy-not-chunked",
    ],
)
def test_bad_values_exit_2_before_any_file_is_written(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "out"
    status = main([*argv, "--out-dir", str(out_dir)])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: lola {argv[0]}: ") and message in err
    assert not out_dir.exists()


def test_suite_config_errors_exit_2_naming_experiment_and_field(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    exp = {"kind": "recall", "name": "r", "n": "12"}
    cfg_path.write_text(json.dumps({"seed": 0, "experiments": [exp]}))
    status = main(["suite", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert status == 2
    err = capsys.readouterr().err
    assert "'r'" in err and "'n' must be an int, got '12'" in err
    assert list(tmp_path.glob("suite-*")) == []


@pytest.mark.parametrize(
    "second, message",
    [
        ({"kind": "recall", "name": "a-lola"}, "'a-lola.csv' is also written by experiments[0]"),
        ({"kind": "recall", "name": "r", "variants": [5]}, "variants[0]: must be an object"),
        ({"kind": "recall", "name": "r", "trials": 0}, "'trials' must be >= 1"),
        ({"kind": "recall", "name": "r", "n": -5}, "'n' must be >= 1"),
        (
            {"kind": "recall", "name": "r", "variants": [{"name": "v"}, {"name": "v", "sparse": 0}]},
            "variants[1]: 'name' 'v' (the policy when unset) repeats variants[0]",
        ),
        (
            {"kind": "recall", "name": "r", "variants": [{"name": ["a"], "policy": "lola"}]},
            "variants[0]: 'name' must be a string, got ['a']",
        ),
        (
            {"kind": "recall", "name": "r", "feature_map": 5},
            "'feature_map' must be 'distill', 'random' or a path to a saved map, got 5",
        ),
    ],
)
def test_suite_config_errors_exit_2_before_any_file_is_written(tmp_path, capsys, second, message):
    first = {"kind": "collisions", "name": "a", "n": 16, "d": 4, "window": 2, "sparse": 2,
             "feature_map": "random"}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": 0, "experiments": [first, second]}))
    status = main(["suite", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs")])
    assert status == 2
    assert message in capsys.readouterr().err
    assert list((tmp_path / "runs").rglob("*")) == []


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path: None, "'feature_map' cannot be read"),
        (
            lambda path: path.write_text('{"format": "paired-exp-feature-map-v1"}'),
            "'feature_map' is malformed",
        ),
        (
            lambda path: save_feature_map(FeatureMapParams(np.zeros((4, 4))), path),
            "does not fit: feature map is 8x4, config wants 16x8",
        ),
    ],
    ids=["missing", "malformed", "wrong-d"],
)
def test_a_bad_saved_map_exits_2_before_any_file_is_written(tmp_path, capsys, write, message):
    path = tmp_path / "map.json"
    write(path)
    first = {"kind": "gram-study", "name": "g", "n_list": [8], "d_list": [2]}
    second = {"kind": "recall", "name": "r", "n": 16, "d": 8, "feature_map": str(path)}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": 0, "experiments": [first, second]}))
    out_dir = tmp_path / "out"
    assert main(["suite", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "experiments[1] ('r')" in err and message in err
    argv = ["recall", "--d", "8", "--feature-map", str(path), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_gram_study_subcommand(tmp_path):
    status = main(
        ["gram-study", "--n-list", "8,16", "--d-list", "4", "--out-dir", str(tmp_path)]
    )
    assert status == 0
    assert (tmp_path / "gram_study.csv").read_text().startswith("n,d,rank")


def test_distill_subcommand(tmp_path):
    status = main(
        [
            "distill",
            "--d", "4", "--codebook", "4", "--seed", "5",
            "--out-dir", str(tmp_path), "--out", "map.json",
        ]
    )
    assert status == 0
    payload = json.loads((tmp_path / "map.json").read_text())
    assert payload["head_dim"] == 4 and payload["feature_dim"] == 8
    task = SyntheticTaskSpec(8, head_dim=4, key_distribution="clustered", value_codebook_size=4)
    attn = AttentionConfig(4)
    save_feature_map(resolve_feature_map(ExperimentConfig(seed=5), task, attn), tmp_path / "ref.json")
    assert (tmp_path / "map.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--d", "0"], "'d' must be >= 1, got 0"),
        (["--codebook", "1"], "'codebook' must be >= 2, got 1"),
        (["--feature-dim", "3"], "'feature_dim' must be a positive even integer, got 3"),
    ],
    ids=["d-0", "codebook-1", "feature-dim-odd"],
)
def test_distill_bad_values_exit_2_before_any_file_is_written(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "out"
    assert main(["distill", *flags, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: lola distill: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("flags", [["--d", "0"], ["--codebook", "1"], ["--feature-dim", "3"]], ids=" ".join)
def test_distill_and_recall_print_the_same_rule_for_a_flag(tmp_path, capsys, flags):
    rules = []
    for command in ("distill", "recall"):
        assert main([command, *flags, "--out-dir", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: lola {command}: ")
        rules.append(err.rsplit(": ", 1)[1])
    assert rules[0] == rules[1]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        *(
            [command, "--config", "c.json"]
            for command in ("recall", "ablate-scores", "collisions", "gram-study", "distill")
        ),
        *([command, "--format", "csv"] for command in ("collisions", "gram-study", "distill")),
        ["suite", "--seed", "99"],
        ["distill", "--n", "8"],
        ["distill", "--needles", "9", "--n", "8"],
        ["distill", "--feature-map", "random"],
        ["distill", "--steps", "2"],
        ["distill", "--lr", "0.1"],
    ],
    ids=" ".join,
)
def test_a_flag_the_subcommand_does_not_read_is_rejected(tmp_path, argv):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out-dir", str(out_dir)])
    assert info.value.code == 2
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["recall", "--n", "16", "--trials", "1", "--feature-map", "random"],
        ["ablate-scores", "--n", "16", "--trials", "1", "--feature-map", "random"],
        ["collisions", "--n", "16", "--feature-map", "random"],
        ["gram-study"],
        ["distill"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_negative_seed_exits_2_before_any_file_is_written(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    assert main([*argv, "--seed", "-1", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: lola {argv[0]}: 'seed' must be >= 0, got -1\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: None, "cannot be read: No such file or directory"),
        (lambda path: path.mkdir(), "cannot be read: Is a directory"),
        (lambda path: path.write_bytes(b'{"seed": 7\xff}'), "not UTF-8 text: byte 10"),
    ],
    ids=["missing", "unreadable", "not-utf8"],
)
def test_a_config_file_that_cannot_be_read_exits_2_and_writes_nothing(tmp_path, capsys, make, message):
    cfg_path = tmp_path / "suite.json"
    make(cfg_path)
    out_dir = tmp_path / "runs"
    assert main(["suite", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {message}") and err.count("\n") == 1
    assert not out_dir.exists()


def test_suite_subcommand_with_config(tmp_path):
    config = {
        "seed": 1,
        "experiments": [
            {"kind": "gram-study", "name": "g", "n_list": [8, 16], "d_list": [4], "check_dominance": False}
        ],
    }
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(config))
    status = main(["suite", "--config", str(cfg_path), "--out-dir", str(tmp_path / "runs")])
    assert status == 0


def test_suite_malformed_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{]")
    status = main(["suite", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert status == 2
    assert "line" in capsys.readouterr().err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["defrag"])


def test_a_gram_grid_that_overflows_the_guard_exits_2_before_any_file_is_written(tmp_path, capsys):
    # before, the suite wrote the first entry's file and then failed in rank_study
    cfg_path = tmp_path / "bad.json"
    first = {"kind": "gram-study", "name": "g", "n_list": [8], "d_list": [2]}
    bad = {"kind": "gram-study", "name": "g2", "n_list": [8], "d_list": [4, 1000]}
    cfg_path.write_text(json.dumps({"seed": 0, "experiments": [first, bad]}))
    out_dir = tmp_path / "out"
    status = main(["suite", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert status == 2
    err = capsys.readouterr().err
    assert "experiments[1] ('g2'): 'd_list' entry 1000 draws inputs" in err
    assert not out_dir.exists()


def test_suite_with_unknown_ablation_strategy_exits_2_before_any_file_is_written(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    first = {"kind": "gram-study", "name": "g", "n_list": [8], "d_list": [2]}
    bad = {"kind": "ablation", "name": "abl", "n": 16, "trials": 1, "strategies": ["nope"]}
    cfg_path.write_text(json.dumps({"seed": 0, "experiments": [first, bad]}))
    out_dir = tmp_path / "out"
    status = main(["suite", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert status == 2
    err = capsys.readouterr().err
    assert "experiments[1] ('abl')" in err and "'strategies'" in err
    assert not out_dir.exists()
