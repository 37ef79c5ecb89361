"""Byte parity of the row-at-a-time CSV writers with the per-cell writers
they replaced.

The reference functions below are verbatim copies of the earlier
``write_collision_csv`` and ``write_gram_csv``, which formatted every cell
through a numpy scalar (``np.isnan(x)``, ``repr(float(x))``). The current
writers take each row out of numpy with one ``tolist()`` call; the bytes on
disk must not change, including blanks, signed zeros, subnormals and
infinities.
"""

import csv

import numpy as np
import pytest

from lola import AttentionConfig, SeededRng, init_feature_map
from lola.analysis import (
    CollisionMatrix,
    collision_matrix,
    rank_study,
    relative_to_absorption,
    write_collision_csv,
    write_gram_csv,
)
from lola.harness import SyntheticTaskSpec, gen_niah


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
