"""Task generator, recall evaluation, ablation, config and suite plumbing."""

import dataclasses
import json

import numpy as np
import pytest
from scipy import stats

from lola.harness import (
    ABLATION_ROW_ORDER,
    ConfigError,
    ExperimentConfig,
    SyntheticTaskSpec,
    eval_recall,
    gen_niah,
    load_config,
    run_ablation,
    run_suite,
    validate_config,
)
import lola.attention as attention
from lola import AttentionConfig, SeededRng, init_feature_map, save_feature_map
from lola.analysis import engine_for_policy, rank_study
from lola.harness.experiments import decode_answer, resolve_feature_map
from lola.harness.synthetic import KEY_SCALE, NEEDLE_KEY_BOOST, NEEDLE_VALUE_BOOST


# -- generator ------------------------------------------------------------------


def test_single_token_stream_is_the_needle():
    task = SyntheticTaskSpec(haystack_len=1, needle_count=1, head_dim=4, value_codebook_size=4, seed=5)
    inst = gen_niah(task)
    assert inst.needle_positions.tolist() == [1]
    np.testing.assert_array_equal(inst.probe, inst.keys[0])
    np.testing.assert_allclose(
        inst.values[0], inst.codebook[inst.target_value_id] * NEEDLE_VALUE_BOOST
    )


def test_generator_deterministic():
    task = SyntheticTaskSpec(haystack_len=32, head_dim=4, value_codebook_size=4, seed=9)
    a = gen_niah(task, seed=123)
    b = gen_niah(task, seed=123)
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.target_value_id == b.target_value_id
    c = gen_niah(task, seed=124)
    assert not np.array_equal(a.keys, c.keys)


def test_needle_norm_is_pinned():
    task = SyntheticTaskSpec(haystack_len=16, head_dim=9, value_codebook_size=4, seed=2)
    expected = NEEDLE_KEY_BOOST * KEY_SCALE * 3.0
    for seed in range(5):
        inst = gen_niah(task, seed=seed)
        assert np.linalg.norm(inst.probe) == pytest.approx(expected, rel=1e-12)


def test_needle_positions_uniform_chi_square():
    n = 32
    task = SyntheticTaskSpec(haystack_len=n, head_dim=2, value_codebook_size=2, seed=0)
    counts = np.zeros(n)
    for seed in range(10_000):
        inst = gen_niah(task, seed=seed)
        counts[inst.needle_positions[0] - 1] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_gaussian_mode_values_follow_key_association():
    task = SyntheticTaskSpec(
        haystack_len=64, head_dim=8, key_distribution="gaussian", value_codebook_size=8, seed=3
    )
    inst = gen_niah(task)
    distractors = [i for i in range(64) if (i + 1) not in set(inst.needle_positions.tolist())]
    for i in distractors[:20]:
        vid = int(np.argmax(inst.codebook @ inst.keys[i]))
        np.testing.assert_array_equal(inst.values[i], inst.codebook[vid])


def test_clustered_mode_repeats_pairs():
    task = SyntheticTaskSpec(
        haystack_len=128, head_dim=8, key_distribution="clustered", value_codebook_size=8, seed=4
    )
    inst = gen_niah(task)
    distinct_values = {tuple(np.round(v, 9)) for v in inst.values}
    assert len(distinct_values) <= 9  # 8 cluster values + the needle value


def test_task_spec_validation():
    with pytest.raises(ValueError):
        SyntheticTaskSpec(haystack_len=4, needle_count=5)
    with pytest.raises(ValueError):
        SyntheticTaskSpec(haystack_len=4, value_codebook_size=1)
    with pytest.raises(ValueError):
        SyntheticTaskSpec(haystack_len=4, key_distribution="laplace")


def test_decode_answer_nearest_entry():
    codebook = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert decode_answer(np.array([0.9, 0.1]), codebook) == 0
    assert decode_answer(np.array([-2.0, 0.0]), codebook) == 2


# -- recall evaluation ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_task():
    # head_dim 16 keeps the probe's self-similarity clear of distractor tails
    return SyntheticTaskSpec(
        haystack_len=48, head_dim=16, key_distribution="clustered", value_codebook_size=8, seed=1
    )


def test_window_covering_everything_is_perfect(small_task):
    exp = ExperimentConfig(
        policy="window-only", window_capacity=64, sparse_capacity=0, trials=40,
        feature_map="distill", seed=1,
    )
    rec = eval_recall(exp, small_task)
    assert rec.accuracy == 1.0
    assert rec.mean_self_recall_error == 0.0  # nothing was ever absorbed


def test_lola_with_covering_window_is_perfect(small_task):
    exp = ExperimentConfig(
        policy="lola", window_capacity=64, sparse_capacity=8, trials=40,
        feature_map="distill", seed=1,
    )
    assert eval_recall(exp, small_task).accuracy == 1.0


def test_accuracy_is_exact_fraction(small_task):
    exp = ExperimentConfig(policy="lola", window_capacity=8, sparse_capacity=4, trials=7,
                           feature_map="random", seed=3)
    rec = eval_recall(exp, small_task)
    assert rec.accuracy * 7 == int(round(rec.accuracy * 7))


def test_window_only_equals_lola_lambda_zero_record_for_record(small_task):
    a = eval_recall(
        ExperimentConfig(policy="window-only", window_capacity=12, sparse_capacity=0,
                         trials=25, feature_map="distill", seed=2),
        small_task,
    )
    b = eval_recall(
        ExperimentConfig(policy="lola", window_capacity=12, sparse_capacity=0,
                         trials=25, feature_map="distill", seed=2),
        small_task,
    )
    skip = {"policy", "wall_time_s", "name"}
    for field in dataclasses.fields(a):
        if field.name in skip:
            continue
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def test_effective_cache_size_reporting(small_task):
    decode = eval_recall(
        ExperimentConfig(policy="lola", window_capacity=12, sparse_capacity=4, trials=2,
                         feature_map="random", seed=0),
        small_task,
    )
    assert decode.effective_cache_size == 16
    chunked = eval_recall(
        ExperimentConfig(policy="lola", window_capacity=0, sparse_capacity=4, chunk_size=8,
                         trials=2, feature_map="random", seed=0),
        small_task,
    )
    assert chunked.effective_cache_size == 3 * 8 + 4


@pytest.mark.parametrize(
    "policy, chunk_size, size",
    [
        ("linear-only", None, 0),
        ("window-only", None, 12),
        ("lola", None, 16),
        ("lola-altscore:overestimate", None, 16),
        ("lola", 8, 28),
        ("window-only", 8, 24),
    ],
)
def test_each_policy_reports_the_full_rank_budget_it_holds(small_task, policy, chunk_size, size):
    # eta 12, lambda 4; a chunked run holds 3c + lambda, its own window 2c plus the chunk in flight
    exp = ExperimentConfig(policy=policy, window_capacity=12, sparse_capacity=4,
                           chunk_size=chunk_size, trials=1, feature_map="random", seed=0)
    assert eval_recall(exp, small_task).effective_cache_size == size


@pytest.mark.parametrize(
    "policy, chunk_size, capacities",
    [
        ("linear-only", None, (0, 0)),
        ("window-only", None, (12, 0)),
        ("lola", None, (12, 4)),
        ("lola-altscore:overestimate", None, (12, 4)),
        ("lola", 8, (16, 4)),
        ("window-only", 8, (16, 0)),
    ],
)
def test_each_policy_reports_the_capacities_its_engine_holds(small_task, policy, chunk_size, capacities):
    # eta 12, lambda 4 asked for; a policy drops tiers, and a chunked run
    # holds a window of two chunks whatever window it was given
    exp = ExperimentConfig(policy=policy, window_capacity=12, sparse_capacity=4,
                           chunk_size=chunk_size, trials=1, feature_map="random", seed=0)
    record = eval_recall(exp, small_task)
    assert (record.window_capacity, record.sparse_capacity) == capacities


def test_altscore_policy_requires_decode_path(small_task):
    with pytest.raises(ValueError, match="is not a policy the chunked path runs"):
        eval_recall(ExperimentConfig(policy="lola-altscore:overestimate", chunk_size=8, trials=1), small_task)


def test_run_ablation_rows_and_determinism(small_task):
    a = run_ablation(small_task, budget=16, trials=10, seed=4, feature_map="random")
    b = run_ablation(small_task, budget=16, trials=10, seed=4, feature_map="random")
    assert [r.name for r in a] == ABLATION_ROW_ORDER
    assert "self-recall" in [r.name for r in a]
    for ra, rb in zip(a, b):
        assert ra.accuracy == rb.accuracy
    # matched budget across every row
    assert {r.effective_cache_size for r in a} == {16}


# -- config and suite ---------------------------------------------------------------


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown top-level"):
        validate_config({"seed": 0, "experiments": [], "extra": 1})
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config(
            {"seed": 0, "experiments": [{"kind": "gram-study", "name": "g", "bogus": 2}]}
        )
    with pytest.raises(ConfigError, match="unknown kind"):
        validate_config({"seed": 0, "experiments": [{"kind": "warp", "name": "w"}]})


def _recall(name, **fields):
    return {"kind": "recall", "name": name, **fields}


def test_validate_rejects_duplicate_names():
    # a recall entry and a gram-study entry named alike would both write r.csv
    config = {
        "seed": 0,
        "experiments": [_recall("r"), {"kind": "gram-study", "name": "r"}],
    }
    with pytest.raises(ConfigError, match=r"experiments\[1\]: 'name' 'r' repeats experiments\[0\]"):
        validate_config(config)


@pytest.mark.parametrize("name", ["a/b", "../up", "a\\b", "", ".", "..", "nul\0"])
def test_validate_rejects_names_that_are_not_plain_file_names(name):
    with pytest.raises(ConfigError, match=r"experiments\[0\]: 'name' .* is not a plain file name"):
        validate_config({"seed": 0, "experiments": [_recall(name)]})


@pytest.mark.parametrize(
    "field, bad",
    [("n", "12"), ("d", 12.0), ("codebook", True), ("needles", None), ("trials", [12]), ("seed", "3")],
)
def test_validate_rejects_non_integer_task_fields(field, bad):
    config = {"seed": 0, "experiments": [_recall("r", **{field: bad})]}
    with pytest.raises(ConfigError, match=rf"experiments\[0\] \('r'\): '{field}' must be an int, got"):
        validate_config(config)


_SEED_AT = {
    "top-level": lambda seed: {"seed": seed, "experiments": []},
    "experiment": lambda seed: {"seed": 0, "experiments": [_recall("r", seed=seed)]},
    "gram-study": lambda seed: {"seed": 0, "experiments": [{"kind": "gram-study", "name": "g", "seed": seed}]},
}


@pytest.mark.parametrize("bad", [-1, True, False], ids=["negative", "true", "false"])
@pytest.mark.parametrize("where", _SEED_AT)
def test_validate_rejects_a_negative_or_bool_seed(where, bad):
    # SeededRng cannot take a negative seed, and a bool is not one
    with pytest.raises(ConfigError, match=r"'seed' must be (>= 0|an int), got"):
        validate_config(_SEED_AT[where](bad))


def test_validate_accepts_seed_zero_everywhere():
    gram = {"kind": "gram-study", "name": "g", "seed": 0}
    validate_config({"seed": 0, "experiments": [_recall("r", seed=0), gram]})


@pytest.mark.parametrize(
    "exp, field",
    [
        ({"kind": "ablation", "name": "x", "budget": "64"}, "budget"),
        ({"kind": "collisions", "name": "x", "window": 4.0}, "window"),
        ({"kind": "collisions", "name": "x", "sparse": "4"}, "sparse"),
        (_recall("x", variants=[{"name": "v", "window": "8"}]), "window"),
        (_recall("x", variants=[{"name": "v", "sparse": 8.5}]), "sparse"),
        (_recall("x", variants=[{"name": "v", "chunk": "32"}]), "chunk"),
    ],
)
def test_validate_rejects_non_integer_budget_fields(exp, field):
    with pytest.raises(ConfigError, match=rf"experiments\[0\] \('x'\).*'{field}' must be an int, got"):
        validate_config({"seed": 0, "experiments": [exp]})


@pytest.mark.parametrize(
    "first, second, artifact",
    [
        ({"kind": "collisions", "name": "a"}, _recall("a-lola"), "a-lola.csv"),
        ({"kind": "collisions", "name": "a", "relative": True}, _recall("a-window-only-relative"),
         "a-window-only-relative.csv"),
        (_recall("a-linear-only"), {"kind": "collisions", "name": "a"}, "a-linear-only.csv"),
        ({"kind": "gram-study", "name": "a-lola"}, {"kind": "collisions", "name": "a"}, "a-lola.csv"),
    ],
)
def test_validate_rejects_colliding_artifact_names(first, second, artifact):
    config = {"seed": 0, "experiments": [first, second]}
    with pytest.raises(ConfigError, match=rf"experiments\[1\].*'{artifact}' is also written by experiments\[0\]"):
        validate_config(config)


def test_validate_rejects_an_experiment_that_writes_the_manifest():
    with pytest.raises(ConfigError, match="'manifest.json' is also written by the manifest"):
        validate_config({"seed": 0, "experiments": [_recall("manifest")]})


@pytest.mark.parametrize(
    "exp, match",
    [
        (_recall("x", variants=[5]), r"variants\[0\]: must be an object, got 5"),
        (_recall("x", variants=[{"name": "v"}, "w"]), r"variants\[1\]: must be an object"),
        (_recall("x", checks=[["min-accuracy"]]), r"checks\[0\]: must be an object"),
        (_recall("x", variants={"name": "v"}), "'variants' must be a list"),
        (_recall("x", checks="min-gap"), "'checks' must be a list"),
    ],
)
def test_validate_rejects_entries_that_are_not_objects(exp, match):
    with pytest.raises(ConfigError, match=match):
        validate_config({"seed": 0, "experiments": [exp]})


@pytest.mark.parametrize(
    "exp, field",
    [
        (_recall("x", n=-5), "n"),
        (_recall("x", n=0), "n"),
        (_recall("x", trials=0), "trials"),
        (_recall("x", d=0), "d"),
        (_recall("x", codebook=1), "codebook"),
        (_recall("x", needles=0), "needles"),
        (_recall("x", variants=[{"name": "v", "window": -1}]), "window"),
        (_recall("x", variants=[{"name": "v", "sparse": -3}]), "sparse"),
        (_recall("x", variants=[{"name": "v", "chunk": 0}]), "chunk"),
        ({"kind": "ablation", "name": "x", "budget": -2}, "budget"),
        ({"kind": "collisions", "name": "x", "window": -1}, "window"),
        ({"kind": "collisions", "name": "x", "sparse": -1}, "sparse"),
    ],
)
def test_validate_rejects_out_of_range_sizes(exp, field):
    with pytest.raises(ConfigError, match=rf"experiments\[0\] \('x'\).*'{field}' must be >= "):
        validate_config({"seed": 0, "experiments": [exp]})


@pytest.mark.parametrize(
    "exp, match",
    [
        ({"kind": "gram-study", "name": "x", "n_list": [0, 8]}, "'n_list' must be a non-empty list"),
        ({"kind": "gram-study", "name": "x", "n_list": []}, "'n_list' must be a non-empty list"),
        ({"kind": "gram-study", "name": "x", "d_list": [4.0]}, "'d_list' must be a non-empty list"),
        ({"kind": "gram-study", "name": "x", "d_list": "8,16"}, "'d_list' must be a non-empty list"),
        (_recall("x", feature_dim=3), "'feature_dim' must be a positive even integer, got 3"),
        (_recall("x", feature_dim=0), "'feature_dim' must be a positive even integer, got 0"),
        ({"kind": "ablation", "name": "x", "feature_dim": "8"}, "'feature_dim' must be None or an int, got '8'"),
        ({"kind": "collisions", "name": "x", "distribution": "nope"}, "'distribution' must be one of"),
        (_recall("x", variants=[{"name": "v", "policy": "nope"}]), "'policy' 'nope' is not a policy"),
        (_recall("x", variants=[{"name": "v", "policy": "lola-altscore:nope"}]), "the decode path"),
        (_recall("x", variants=[{"name": "v", "policy": "linear-only", "chunk": 4}]), "the chunked path"),
        (_recall("x", variants=[{"name": "v", "policy": "lola-altscore:overestimate", "chunk": 4}]),
         "the chunked path"),
    ],
    ids=[
        "n-list-zero", "n-list-empty", "d-list-float", "d-list-string", "feature-dim-odd",
        "feature-dim-zero", "feature-dim-string", "distribution", "policy-unknown",
        "altscore-unknown", "chunked-linear-only", "chunked-altscore",
    ],
)
def test_validate_rejects_values_a_run_would_reject(exp, match):
    with pytest.raises(ConfigError, match=rf"experiments\[0\] \('x'\).*{match}"):
        validate_config({"seed": 0, "experiments": [exp]})


def test_validate_accepts_every_policy_on_its_path():
    variants = [{"name": p, "policy": p} for p in ("linear-only", "window-only", "lola")]
    variants += [{"name": f"alt-{s}", "policy": f"lola-altscore:{s}"} for s in ("attnerr-sq", "overestimate")]
    variants += [{"name": f"chunk-{p}", "policy": p, "chunk": 4} for p in ("lola", "window-only")]
    validate_config({"seed": 0, "experiments": [_recall("x", feature_dim=None, variants=variants)]})


def test_validate_rejects_more_needles_than_tokens():
    with pytest.raises(ConfigError, match="'needles' must be <= the haystack length 8, got 9"):
        validate_config({"seed": 0, "experiments": [_recall("x", n=8, needles=9)]})


def test_validate_accepts_the_least_sizes():
    validate_config(
        {
            "seed": 0,
            "experiments": [
                _recall("x", n=1, d=1, codebook=2, needles=1, trials=1,
                        variants=[{"name": "v", "window": 0, "sparse": 0, "chunk": 1}]),
                {"kind": "ablation", "name": "y", "budget": 0},
            ],
        }
    )


def test_validate_accepts_a_null_chunk():
    validate_config({"seed": 0, "experiments": [_recall("x", variants=[{"name": "v", "chunk": None}])]})


def test_validate_accepts_full_documented_schema():
    validate_config(
        {
            "seed": 3,
            "experiments": [
                {
                    "kind": "recall",
                    "name": "r",
                    "n": 64,
                    "d": 8,
                    "feature_dim": 32,
                    "distribution": "gaussian",
                    "codebook": 8,
                    "needles": 2,
                    "seed": 11,
                    "trials": 5,
                    "feature_map": "random",
                    "variants": [{"name": "a", "policy": "lola", "window": 8, "sparse": 8, "chunk": 8}],
                    "checks": [{"type": "min-accuracy", "variant": "a", "value": 0.0}],
                },
                {"kind": "gram-study", "name": "g", "n_list": [8], "d_list": [4], "seed": 2},
            ],
        }
    )


def test_per_experiment_seed_override(tmp_path):
    base = {
        "kind": "recall",
        "name": "r",
        "n": 24,
        "d": 8,
        "codebook": 4,
        "trials": 4,
        "feature_map": "random",
        "variants": [{"name": "a", "policy": "lola", "window": 4, "sparse": 4}],
    }
    blobs = []
    for sub, exp_seed in (("x", 5), ("y", 5), ("z", 6)):
        d = tmp_path / sub
        run_suite({"seed": 0, "experiments": [dict(base, seed=exp_seed)]}, out_dir=d)
        (out,) = list(d.iterdir())
        blobs.append((out / "r.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]


def test_load_config_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "seed": 0,\n  "experiments": [,]\n}\n')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_config(path)


@pytest.mark.parametrize("entry", ["run_suite", "cli"])
def test_a_config_file_is_validated_once(tmp_path, monkeypatch, entry):
    import lola.harness.suite as suite
    from lola.harness.cli import main

    calls = []

    def counted(config, source="<config>"):
        calls.append(source)
        return validate_config(config, source)

    monkeypatch.setattr(suite, "validate_config", counted)
    path = tmp_path / "c.json"
    gram = {"kind": "gram-study", "name": "g", "n_list": [4], "d_list": [2]}
    path.write_text(json.dumps({"seed": 0, "experiments": [gram]}))
    out = tmp_path / "out"
    if entry == "cli":
        assert main(["suite", "--config", str(path), "--out-dir", str(out)]) == 0
    else:
        assert run_suite(path, out_dir=out) == 0
    assert calls == [str(path)]


def test_empty_suite_succeeds(tmp_path):
    status = run_suite({"seed": 0, "experiments": []}, out_dir=tmp_path)
    assert status == 0
    (out,) = list(tmp_path.iterdir())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == {}
    assert manifest["checks"] == []


def test_suite_single_recall_experiment_artifacts(tmp_path):
    config = {
        "seed": 3,
        "experiments": [
            {
                "kind": "recall",
                "name": "tiny",
                "n": 32,
                "d": 8,
                "distribution": "clustered",
                "codebook": 8,
                "trials": 5,
                "feature_map": "random",
                "variants": [{"name": "lola", "policy": "lola", "window": 8, "sparse": 8}],
                "checks": [{"type": "min-accuracy", "variant": "lola", "value": 0.0}],
            }
        ],
    }
    status = run_suite(config, out_dir=tmp_path)
    assert status == 0
    (out,) = list(tmp_path.iterdir())
    names = {p.name for p in out.iterdir()}
    assert names == {"tiny.csv", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["files"]) == ["tiny.csv"]
    assert manifest["checks"][0]["passed"] is True
    header = (out / "tiny.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "name"
    assert "wall_time_s" not in header


def test_suite_failing_check_returns_nonzero(tmp_path):
    config = {
        "seed": 3,
        "experiments": [
            {
                "kind": "recall",
                "name": "fail",
                "n": 16,
                "d": 4,
                "codebook": 4,
                "trials": 3,
                "feature_map": "random",
                "variants": [{"name": "lin", "policy": "linear-only"}],
                "checks": [{"type": "min-accuracy", "variant": "lin", "value": 1.1}],
            }
        ],
    }
    status = run_suite(config, out_dir=tmp_path)
    assert status == 1
    (out,) = list(tmp_path.iterdir())
    assert (out / "fail.csv").exists()  # partial results preserved


def test_suite_record_csv_deterministic(tmp_path):
    config = {
        "seed": 11,
        "experiments": [
            {
                "kind": "recall",
                "name": "det",
                "n": 24,
                "d": 4,
                "codebook": 4,
                "trials": 6,
                "feature_map": "random",
                "variants": [{"name": "w", "policy": "window-only", "window": 8}],
            }
        ],
    }
    outputs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        run_suite(config, out_dir=d)
        (out,) = list(d.iterdir())
        outputs.append((out / "det.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_suite_replays_each_collision_policy_once(tmp_path, monkeypatch):
    import lola.analysis
    import lola.harness.suite as suite_mod

    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return lola.analysis.collision_matrix(*args, **kwargs)

    monkeypatch.setattr(suite_mod, "collision_matrix", spy)
    exp = {
        "kind": "collisions",
        "name": "c",
        "n": 24,
        "d": 8,
        "codebook": 4,
        "window": 4,
        "sparse": 4,
        "feature_map": "random",
        "relative": True,
    }
    assert run_suite({"seed": 0, "experiments": [exp]}, out_dir=tmp_path) == 0
    assert calls == ["linear-only", "window-only", "lola"]
    (out,) = list(tmp_path.iterdir())
    assert len(list(out.glob("c-*-relative.csv"))) == 3


@pytest.mark.parametrize(
    "strategies",
    [["nope"], ["overestimate", "window-extension"], "overestimate", [1], [["overestimate"]], {}],
    ids=["unknown", "baseline-row", "string", "int", "nested-list", "object"],
)
def test_validate_rejects_ablation_strategies_a_run_would_reject(strategies):
    exp = {"kind": "ablation", "name": "x", "strategies": strategies}
    with pytest.raises(ConfigError, match=r"experiments\[0\] \('x'\): 'strategies' must be"):
        validate_config({"seed": 0, "experiments": [exp]})


@pytest.mark.parametrize(
    "strategies",
    [["overestimate", "overestimate"], ["self-recall", "attnerr-sq", "self-recall"]],
    ids=["adjacent", "apart"],
)
def test_validate_rejects_repeated_ablation_strategies(strategies):
    exp = {"kind": "ablation", "name": "x", "strategies": strategies}
    with pytest.raises(ConfigError, match=r"\('x'\): 'strategies' must be .* distinct names"):
        validate_config({"seed": 0, "experiments": [exp]})


@pytest.mark.parametrize(
    "variants, name",
    [
        ([{"name": "v", "policy": "lola"}, {"name": "v", "policy": "window-only"}], "v"),
        ([{"policy": "window-only"}, {"policy": "window-only", "window": 8}], "window-only"),
        ([{}, {"name": "lola", "sparse": 0}], "lola"),
    ],
    ids=["named", "unnamed-same-policy", "default-policy"],
)
def test_validate_rejects_repeated_variant_names(variants, name):
    with pytest.raises(
        ConfigError, match=rf"\('r'\)\.variants\[1\]: 'name' '{name}' .* repeats variants\[0\]"
    ):
        validate_config({"seed": 0, "experiments": [_recall("r", variants=variants)]})


def test_validate_accepts_variants_named_apart_on_one_policy():
    variants = [{"name": "a", "policy": "lola"}, {"name": "b", "policy": "lola"}, {"policy": "lola"}]
    validate_config({"seed": 0, "experiments": [_recall("r", variants=variants)]})


def test_run_ablation_rejects_repeated_strategies(small_task):
    with pytest.raises(ValueError, match="strategies must be a list of distinct names"):
        run_ablation(small_task, strategies=["overestimate", "overestimate"], trials=1)
    with pytest.raises(ValueError, match="strategies must be a list of distinct names"):
        run_ablation(small_task, strategies=["nope"], trials=1)


def test_validate_accepts_every_ablation_strategy():
    names = ["self-recall", "attnerr-sq", "attnerr-abs", "overestimate"]
    for strategies in (None, [], names, names[1:]):
        validate_config({"seed": 0, "experiments": [{"kind": "ablation", "name": "x", "strategies": strategies}]})


def test_a_saved_map_is_parsed_once_per_contents(tmp_path, monkeypatch):
    monkeypatch.setattr(attention, "_parsed_maps", {})
    parses = []
    loads = json.loads
    monkeypatch.setattr(attention.json, "loads", lambda data: parses.append(1) or loads(data))
    attn = AttentionConfig(4)
    task = SyntheticTaskSpec(haystack_len=8, head_dim=4, value_codebook_size=4)
    path = tmp_path / "map.json"
    exp = ExperimentConfig(feature_map=str(path))
    for seed in (1, 2):
        params = init_feature_map(SeededRng(seed), attn)
        save_feature_map(params, path)  # the second map rewrites the same path
        for _ in range(3):
            got = resolve_feature_map(exp, task, attn)
            np.testing.assert_array_equal(got.weights, params.weights)
        got.weights[0, 0] += 1.0  # a caller's edit reaches no later call
    assert len(parses) == 2
    np.testing.assert_array_equal(resolve_feature_map(exp, task, attn).weights, params.weights)


# -- the API rejects what the config rejects -------------------------------------

_TINY = SyntheticTaskSpec(8, head_dim=4, value_codebook_size=4)
_ATTN = AttentionConfig(4)
_MAP = init_feature_map(SeededRng(0), _ATTN)
_COLLISIONS = {"kind": "collisions", "name": "x"}
_ABLATION = {"kind": "ablation", "name": "x"}
_GRAM = {"kind": "gram-study", "name": "x"}


def _variant(**fields):
    return _recall("x", variants=[{"name": "v", **fields}])


# (bad config entry, the spec or function call that holds the same value);
# the entries are those of the config tables above
API_EQUIVALENTS = {
    "n-negative": (_recall("x", n=-5), lambda: SyntheticTaskSpec(-5)),
    "n-zero": (_recall("x", n=0), lambda: SyntheticTaskSpec(0)),
    "n-string": (_recall("x", n="12"), lambda: SyntheticTaskSpec("12")),
    "d-zero": (_recall("x", d=0), lambda: SyntheticTaskSpec(8, head_dim=0)),
    "d-float": (_recall("x", d=12.0), lambda: SyntheticTaskSpec(8, head_dim=12.0)),
    "codebook-one": (_recall("x", codebook=1), lambda: SyntheticTaskSpec(8, value_codebook_size=1)),
    "codebook-bool": (_recall("x", codebook=True), lambda: SyntheticTaskSpec(8, value_codebook_size=True)),
    "needles-zero": (_recall("x", needles=0), lambda: SyntheticTaskSpec(8, needle_count=0)),
    "needles-null": (_recall("x", needles=None), lambda: SyntheticTaskSpec(8, needle_count=None)),
    "needles-over-n": (_recall("x", n=8, needles=9), lambda: SyntheticTaskSpec(8, needle_count=9)),
    "seed-string": (_recall("x", seed="3"), lambda: SyntheticTaskSpec(8, seed="3")),
    "distribution": (_recall("x", distribution="nope"), lambda: SyntheticTaskSpec(8, key_distribution="nope")),
    "feature-dim-odd": (_recall("x", feature_dim=3), lambda: AttentionConfig(16, 3)),
    "feature-dim-string": (_ABLATION | {"feature_dim": "8"}, lambda: AttentionConfig(16, "8")),
    "trials-zero": (_recall("x", trials=0), lambda: ExperimentConfig(trials=0)),
    "trials-list": (_recall("x", trials=[12]), lambda: ExperimentConfig(trials=[12])),
    "window-negative": (_variant(window=-1), lambda: ExperimentConfig(window_capacity=-1)),
    "window-string": (_variant(window="8"), lambda: ExperimentConfig(window_capacity="8")),
    "sparse-negative": (_variant(sparse=-3), lambda: ExperimentConfig(sparse_capacity=-3)),
    "sparse-float": (_variant(sparse=8.5), lambda: ExperimentConfig(sparse_capacity=8.5)),
    "chunk-zero": (_variant(chunk=0), lambda: ExperimentConfig(chunk_size=0)),
    "chunk-string": (_variant(chunk="32"), lambda: ExperimentConfig(chunk_size="32")),
    "policy-unknown": (_variant(policy="nope"), lambda: ExperimentConfig(policy="nope")),
    "altscore-unknown": (_variant(policy="lola-altscore:nope"), lambda: ExperimentConfig(policy="lola-altscore:nope")),
    "chunked-linear-only": (_variant(policy="linear-only", chunk=4),
                            lambda: ExperimentConfig(policy="linear-only", chunk_size=4)),
    "chunked-altscore": (_variant(policy="lola-altscore:overestimate", chunk=4),
                         lambda: ExperimentConfig(policy="lola-altscore:overestimate", chunk_size=4)),
    "budget-negative": (_ABLATION | {"budget": -2}, lambda: run_ablation(_TINY, budget=-2, trials=1)),
    "budget-string": (_ABLATION | {"budget": "64"}, lambda: run_ablation(_TINY, budget="64", trials=1)),
    "strategies": (_ABLATION | {"strategies": ["nope"]}, lambda: run_ablation(_TINY, strategies=["nope"], trials=1)),
    "strategies-object": (_ABLATION | {"strategies": {}}, lambda: run_ablation(_TINY, strategies={}, trials=1)),
    "collisions-window-negative": (_COLLISIONS | {"window": -1}, lambda: engine_for_policy("lola", _ATTN, _MAP, -1, 4)),
    "collisions-window-float": (_COLLISIONS | {"window": 4.0}, lambda: engine_for_policy("lola", _ATTN, _MAP, 4.0, 4)),
    "collisions-sparse-negative": (_COLLISIONS | {"sparse": -1}, lambda: engine_for_policy("lola", _ATTN, _MAP, 4, -1)),
    "collisions-sparse-string": (_COLLISIONS | {"sparse": "4"}, lambda: engine_for_policy("lola", _ATTN, _MAP, 4, "4")),
    "n-list-zero": (_GRAM | {"n_list": [0, 8]}, lambda: rank_study([0, 8], [4], seed=0)),
    "d-list-float": (_GRAM | {"d_list": [4.0]}, lambda: rank_study([8], [4.0], seed=0)),
    "gram-seed-negative": (_GRAM | {"seed": -1}, lambda: rank_study([8], [4], seed=-1)),
}


@pytest.mark.parametrize("exp, call", API_EQUIVALENTS.values(), ids=API_EQUIVALENTS.keys())
def test_the_api_rejects_what_the_config_rejects_with_the_same_rule(exp, call):
    with pytest.raises(ConfigError) as config_error:
        validate_config({"seed": 0, "experiments": [exp]})
    with pytest.raises(ValueError) as api_error:
        call()
    assert not isinstance(api_error.value, ConfigError)
    # the spec names its own field; the config error names the key, with the same rule
    field, rule = str(api_error.value).split(" ", 1)
    assert str(config_error.value).endswith(f"' {rule}"), (field, str(config_error.value))
