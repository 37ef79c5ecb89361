"""Byte parity of the CSV writers with the per-cell writers they replaced,
and the input checks of the records they write.

The reference functions below are verbatim copies of the earlier
``write_collision_csv`` and ``write_gram_csv``, which formatted every cell
through a numpy scalar (``np.isnan(x)``, ``repr(float(x))``) and a
``csv.writer``. The current writers build each row as one string from a
single ``repr`` of the row's values; the bytes on disk must not change,
including blanks, NaN holes, signed zeros, subnormals and infinities.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lola import AttentionConfig, SeededRng, init_feature_map
from lola.analysis import (
    CollisionMatrix,
    GramStudyResult,
    collision_matrix,
    rank_study,
    relative_to_absorption,
    write_collision_csv,
    write_gram_csv,
)
from lola.harness import ExperimentConfig, SyntheticTaskSpec, gen_niah, run_suite


def reference_collision_csv(cm: CollisionMatrix, path) -> None:
    t_total = cm.errors.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"pair_{j}" for j in range(1, t_total + 1)])
        for i in range(t_total):
            row = [str(i + 1)]
            for j in range(t_total):
                x = cm.errors[i, j]
                row.append("" if np.isnan(x) else repr(float(x)))
            writer.writerow(row)


def reference_gram_csv(results, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "d", "rank", "singular_value", "truncated_error"])
        for res in results:
            for r in range(res.truncated_errors.shape[0]):
                sv = repr(float(res.singular_values[r - 1])) if r >= 1 else ""
                writer.writerow([res.n, res.d, r, sv, repr(float(res.truncated_errors[r]))])


def same_bytes(tmp_path, write, reference, obj) -> bytes:
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(obj, new)
    reference(obj, ref)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_bytes()


EDGE_VALUES = [
    np.nan,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    np.inf,
    -np.inf,
    1e300,
    -1e300,
    0.1 + 0.2,
    1.0,
    -2.5,
    123456789.125,
    1e-7,
]


def test_edge_values_square_matrix(tmp_path):
    k = len(EDGE_VALUES)
    errors = np.array([EDGE_VALUES[(i + j) % k] for i in range(k) for j in range(k)]).reshape(k, k)
    cm = CollisionMatrix("edge", errors, np.zeros(k, dtype=np.int64))
    text = same_bytes(tmp_path, write_collision_csv, reference_collision_csv, cm).decode()
    assert "\r\n" in text
    for cell in ("-0.0", "5e-324", "-inf", "-1e+300", "0.30000000000000004"):
        assert cell in text.split("\r\n")[1].split(",")


@pytest.mark.parametrize("errors", [[[np.nan]], [[-0.0]], [[0.25]], np.full((3, 3), np.nan)])
def test_one_by_one_and_all_blank_matrices(tmp_path, errors):
    errors = np.asarray(errors, dtype=np.float64)
    cm = CollisionMatrix("small", errors, np.zeros(errors.shape[0], dtype=np.int64))
    same_bytes(tmp_path, write_collision_csv, reference_collision_csv, cm)


def test_relative_matrix_with_negative_cells(tmp_path):
    cfg = AttentionConfig(head_dim=8, feature_dim=16)
    params = init_feature_map(SeededRng(0), cfg)
    task = SyntheticTaskSpec(
        haystack_len=64, head_dim=8, key_distribution="clustered", value_codebook_size=8, seed=3
    )
    inst = gen_niah(task)
    rel = relative_to_absorption(
        collision_matrix(inst.keys, inst.values, "lola", 8, 4, cfg, params)
    )
    assert np.nanmin(rel.errors) < 0.0
    same_bytes(tmp_path, write_collision_csv, reference_collision_csv, rel)


def test_rank_study_curves(tmp_path):
    results = rank_study([1, 8, 16], [2, 4], seed=5)
    text = same_bytes(tmp_path, write_gram_csv, reference_gram_csv, results).decode()
    first = text.split("\r\n")[1].split(",")
    assert first[:4] == ["1", "2", "0", ""]  # rank 0 has no singular value


# -- fuzzed parity ------------------------------------------------------------

# NaN on its own as well, so holes inside a row's filled prefix are common
CELLS = st.one_of(
    st.just(np.nan), st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
# the writers overwrite the same two files on every example
fuzz = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def collision_matrices(draw):
    """Square matrices of n <= 8 whose rows are a filled prefix of random
    length (0 is an all-blank row) followed by a NaN tail."""
    n = draw(st.integers(1, 8))
    errors = np.full((n, n), np.nan)
    for i in range(n):
        k = draw(st.integers(0, n))
        errors[i, :k] = draw(st.lists(CELLS, min_size=k, max_size=k))
    absorbed_at = np.array(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)), dtype=np.int64)
    return CollisionMatrix("fuzz", errors, absorbed_at)


@fuzz
@given(cm=collision_matrices())
def test_collision_writer_matches_the_reference_on_fuzzed_matrices(tmp_path, cm):
    text = same_bytes(tmp_path, write_collision_csv, reference_collision_csv, cm).decode()
    n = cm.errors.shape[0]
    assert all(line.count(",") == n for line in text.split("\r\n")[:-1])


# GramStudyResult takes only finite curves
FINITE_CELLS = st.one_of(
    st.sampled_from([x for x in EDGE_VALUES if np.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def gram_results(draw):
    results = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        sv = draw(st.lists(FINITE_CELLS, min_size=n, max_size=n))
        errs = draw(st.lists(FINITE_CELLS, min_size=n + 1, max_size=n + 1))
        results.append(GramStudyResult(n, draw(st.integers(1, 64)), np.array(sv), np.array(errs)))
    return results


@fuzz
@given(results=gram_results())
def test_gram_writer_matches_the_reference_on_fuzzed_curves(tmp_path, results):
    same_bytes(tmp_path, write_gram_csv, reference_gram_csv, results)


def test_nan_holes_and_blank_rows(tmp_path):
    nan = np.nan
    errors = np.array([[nan, nan, nan], [0.5, nan, -0.0], [nan, 1e-7, nan]])
    cm = CollisionMatrix("holes", errors, np.array([0, 3, 1]))
    text = same_bytes(tmp_path, write_collision_csv, reference_collision_csv, cm).decode()
    assert text.split("\r\n")[1:4] == ["1,,,", "2,0.5,,-0.0", "3,,1e-07,"]


# -- input checks --------------------------------------------------------------


@pytest.mark.parametrize(
    "errors, message",
    [
        (np.zeros((3, 2)), r"errors must be .*square.*\(3, 2\)"),
        (np.zeros(3), r"errors must be .*\(3,\)"),
        (np.zeros((0, 0)), r"errors must be a non-empty .*\(0, 0\)"),
        (np.zeros((2, 2), dtype=np.float32), r"errors must be .*float64.*float32"),
        (np.zeros((2, 2), dtype=np.int64), r"errors must be .*float64.*int64"),
        ([[0.0]], r"errors must be .*, got list"),
    ],
    ids=["3x2", "1-d", "0x0", "float32", "int", "list"],
)
def test_collision_matrix_rejects_a_bad_errors_array(errors, message):
    with pytest.raises(ValueError, match=message):
        CollisionMatrix("bad", errors, np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize(
    "absorbed_at, message",
    [
        (np.zeros(3, dtype=np.int64), r"absorbed_at must be an int array of shape \(2,\), got shape \(3,\)"),
        (np.zeros((2, 1), dtype=np.int64), r"absorbed_at .*got shape \(2, 1\)"),
        (np.zeros(2), r"absorbed_at must be an int array .*float64"),
        (np.zeros(2, dtype=bool), r"absorbed_at must be an int array .*bool"),
        ([0, 0], r"absorbed_at .*, got list"),
        (np.array([5, 0]), r"absorbed_at entries must be in \[0, 2\], got 0 to 5"),
        (np.array([0, -1]), r"absorbed_at entries must be in \[0, 2\], got -1 to 0"),
    ],
    ids=["long", "2-d", "float", "bool", "list", "past-end", "negative"],
)
def test_collision_matrix_rejects_a_bad_absorbed_at(absorbed_at, message):
    with pytest.raises(ValueError, match=message):
        CollisionMatrix("bad", np.zeros((2, 2)), absorbed_at)


@pytest.mark.parametrize(
    "n, d, sv, errs, message",
    [
        # the writer raised a bare IndexError on this one
        (3, 2, np.array([1.0]), np.array([1.0, 2.0, 3.0, 4.0]),
         r"singular_values must be a float64 array of shape \(3,\), got shape \(1,\)"),
        # and silently wrote a single row for this one
        (5, 2, np.ones(5), np.ones(1), r"truncated_errors must be a float64 array of shape \(6,\), got shape \(1,\)"),
        (0, 2, np.ones(0), np.ones(1), "n must be >= 1, got 0"),
        (True, 2, np.ones(1), np.ones(2), "n must be an int, got True"),
        (2.0, 2, np.ones(2), np.ones(3), "n must be an int, got 2.0"),
        (1, 0, np.ones(1), np.ones(2), "d must be >= 1, got 0"),
        (1, "2", np.ones(1), np.ones(2), "d must be an int, got '2'"),
        (1, 2, [1.0], np.ones(2), r"singular_values must be .*, got list"),
        (1, 2, np.ones(1, dtype=np.int64), np.ones(2), "singular_values must be a float64 array .*int64"),
        (1, 2, np.ones(1), np.ones((2, 1)), r"truncated_errors must be .*got shape \(2, 1\)"),
        (2, 2, np.array([1.0, np.nan]), np.ones(3), "singular_values has non-finite entries"),
        (1, 2, np.ones(1), np.array([np.inf, 0.0]), "truncated_errors has non-finite entries"),
    ],
    ids=["short-sv", "short-errors", "n-0", "n-bool", "n-float", "d-0", "d-string", "sv-list",
         "sv-int", "errors-2d", "sv-nan", "errors-inf"],
)
def test_gram_result_checks_its_fields(n, d, sv, errs, message):
    with pytest.raises(ValueError, match=message):
        GramStudyResult(n, d, sv, errs)


@pytest.mark.parametrize(
    "n_list, d_list, field",
    [([4.7], [2], "n_list"), (["8"], [2], "n_list"), ([True], [2], "n_list"),
     ([8], [2.0], "d_list"), ([8], [False], "d_list"), ([8], "8", "d_list")],
    ids=["float", "string", "bool", "d-float", "d-bool", "d-string"],
)
def test_rank_study_rejects_entries_that_are_not_ints(n_list, d_list, field):
    # int() used to run [4.7] as n=4, ["8"] as 8 and [True] as 1
    with pytest.raises(ValueError, match=f"^{field} must be a non-empty list of integers >= 1"):
        rank_study(n_list, d_list, seed=0)


def test_rank_study_takes_numpy_ints_as_plain_ints():
    (res,) = rank_study([np.int64(4)], [np.int32(2)], seed=0)
    assert (type(res.n), type(res.d)) == (int, int)
    assert res.singular_values.tobytes() == rank_study([4], [2], seed=0)[0].singular_values.tobytes()


def test_collision_matrix_accepts_any_int_dtype_and_the_full_range():
    cm = CollisionMatrix("ok", np.zeros((2, 2)), np.array([2, 0], dtype=np.int32))
    assert relative_to_absorption(cm).absorbed_at.tolist() == [2, 0]


def test_run_suite_rejects_an_unknown_format_before_writing(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="fmt must be 'csv' or 'json', got 'xml'"):
        run_suite({"seed": 0, "experiments": []}, out_dir=out, fmt="xml")
    assert not out.exists()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"haystack_len": 2.5}, "haystack_len must be an int, got 2.5"),
        ({"haystack_len": 8, "needle_count": True}, "needle_count must be an int, got True"),
        ({"haystack_len": 8, "head_dim": "4"}, "head_dim must be an int, got '4'"),
        ({"haystack_len": 8, "value_codebook_size": 4.0}, "value_codebook_size must be an int"),
        ({"haystack_len": 8, "seed": None}, "seed must be an int, got None"),
        ({"haystack_len": 8, "seed": -1}, "seed must be >= 0, got -1"),
    ],
)
def test_task_spec_rejects_bad_sizes_and_seeds(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SyntheticTaskSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": True, "window_capacity": 2.5, "seed": -1}, "window_capacity must be an int, got 2.5"),
        ({"trials": True}, "trials must be an int, got True"),
        ({"sparse_capacity": None}, "sparse_capacity must be an int, got None"),
        ({"seed": 1.0}, "seed must be an int, got 1.0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"chunk_size": 8.0}, "chunk_size must be an int, got 8.0"),
        ({"feature_dim": "32"}, "feature_dim must be None or an int, got '32'"),
        ({"feature_dim": False}, "feature_dim must be None or an int, got False"),
    ],
)
def test_experiment_config_rejects_bad_sizes_and_seeds(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)


def test_specs_accept_numpy_ints_and_keep_their_range_messages():
    task = SyntheticTaskSpec(np.int64(8), head_dim=np.int32(4), seed=np.uint64(3))
    assert task.haystack_len == 8
    exp = ExperimentConfig(chunk_size=np.int64(4), feature_dim=np.int64(8), seed=np.int64(0))
    assert exp.chunk_size == 4
    for kwargs, message in (
        ({"window_capacity": -1}, "window_capacity must be >= 0, got -1"),
        ({"chunk_size": 0}, "chunk_size must be >= 1, got 0"),
        ({"trials": 0}, "trials must be >= 1"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)
    with pytest.raises(ValueError, match="haystack_len must be >= 1, got 0"):
        SyntheticTaskSpec(0)
