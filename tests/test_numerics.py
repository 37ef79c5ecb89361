"""Substrate checks: input validation, the gram study's spectra, seeded sampling."""

import numpy as np
import pytest

from lola.analysis import gram_matrix, rank_study
from lola.numerics import SeededRng, as_vector, gaussian_sample


def test_as_vector_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_vector([1.0, 2.0, 3.0], dim=2)


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])


def test_singular_values_count_and_order():
    for res in rank_study([6, 24], [4, 9], seed=11):
        sv = res.singular_values
        assert sv.shape == (res.n,)
        assert np.all(np.diff(sv) <= 0)
        assert np.all(sv >= 0)


def test_singular_values_frobenius_identity_random_64():
    # the study's inputs for dimension d are the seed's child stream d
    for seed in range(10):
        (res,) = rank_study([64], [8], seed=seed)
        xs = gaussian_sample(SeededRng(seed).child(8), 64, 8, 8 ** -0.25)
        g = gram_matrix(xs)
        assert (res.singular_values**2).sum() == pytest.approx((g**2).sum(), rel=1e-8)


def test_gaussian_sample_deterministic():
    rng = SeededRng(7)
    a = gaussian_sample(rng, 2, 3, 1.0)
    b = gaussian_sample(rng, 2, 3, 1.0)
    np.testing.assert_array_equal(a, b)


def test_gaussian_sample_law_of_large_numbers():
    xs = gaussian_sample(SeededRng(3), 100_000, 1, 1.0)
    assert abs(xs.mean()) < 0.02


def test_gaussian_sample_scale_is_std():
    xs = gaussian_sample(SeededRng(4), 200_000, 1, 0.5)
    assert xs.std() == pytest.approx(0.5, rel=0.02)


@pytest.mark.parametrize("n,d,scale", [(0, 3, 1.0), (2, 0, 1.0), (2, 3, 0.0), (2, 3, -1.0)])
def test_gaussian_sample_rejects_bad_arguments(n, d, scale):
    with pytest.raises(ValueError):
        gaussian_sample(SeededRng(0), n, d, scale)


def test_child_streams_are_independent_and_stable():
    rng = SeededRng(42)
    c1 = rng.child(0)
    c2 = rng.child(1)
    assert c1.seed != c2.seed
    assert rng.child(0).seed == c1.seed
    a = gaussian_sample(c1, 4, 2, 1.0)
    b = gaussian_sample(c2, 4, 2, 1.0)
    assert not np.allclose(a, b)
