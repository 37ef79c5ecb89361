"""Substrate checks: input validation, the gram study's spectra, seeded sampling."""

import warnings

import numpy as np
import pytest

import test_lean_decode as earlier
from lola.analysis import gram_matrix, rank_study
from lola.attention import DEFAULT_MAX_LOGIT, OverflowGuardError, _guard
from lola.numerics import SeededRng, as_matrix, as_vector, gaussian_sample


def test_as_vector_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_vector([1.0, 2.0, 3.0], dim=2)


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])


def outcome(fn, *args):
    """What a call gives: the result's dtype, shape and bits, or the error."""
    try:
        r = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return r.dtype.str, r.shape, r.tobytes()


def _ramp(n):
    return np.linspace(-1.0, 1.0, n)


def _poisoned(n, at, bad):
    v = _ramp(n)
    v[at] = bad
    return v


HOSTILE_VECTORS = {
    **{
        f"{name}-at-{where}": (_poisoned(5, at, bad), 5, "vector has non-finite entries")
        for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))
        for where, at in (("first", 0), ("middle", 2), ("last", 4))
    },
    "too-short": (_ramp(4), 5, "dimension mismatch: expected 5, got 4"),
    "too-long": (_ramp(6), 5, "dimension mismatch: expected 5, got 6"),
    "0-d": (np.float64(1.5), None, "expected a 1-D vector, got shape ()"),
    "2-D": (np.ones((1, 5)), 5, "expected a 1-D vector, got shape (1, 5)"),
    # ndim is checked before finiteness, finiteness before length
    "2-D-with-nan": (np.full((2, 2), np.nan), 4, "expected a 1-D vector, got shape (2, 2)"),
    "nan-and-too-short": (_poisoned(3, 1, np.nan), 5, "vector has non-finite entries"),
    "strided-view-with-inf": (_poisoned(10, 4, np.inf)[::2], 5, "vector has non-finite entries"),
    "column-view-with-nan": (_poisoned(10, 7, np.nan).reshape(5, 2)[:, 1], 5,
                             "vector has non-finite entries"),
    "inf-after-overflowing-finite": (np.array([1e308, np.inf]), 2, "vector has non-finite entries"),
    "nan-after-overflowing-finite": (np.array([1e308, 1e308, np.nan]), 3, "vector has non-finite entries"),
    "list-with-nan": ([0.0, float("nan")], 2, "vector has non-finite entries"),
}


@pytest.mark.parametrize("x, dim, message", HOSTILE_VECTORS.values(), ids=HOSTILE_VECTORS)
def test_as_vector_rejects_hostile_input_with_the_earlier_text(x, dim, message):
    with pytest.raises(ValueError) as raised:
        as_vector(x, dim)
    assert str(raised.value) == message
    assert outcome(as_vector, x, dim) == outcome(earlier.as_vector, x, dim)


ACCEPTED_VECTORS = {
    # the sum overflows, but every entry is finite
    "sum-overflows": (np.array([1e308, 1e308]), 2),
    "sum-overflows-negative": (np.array([-1e308, -1e308, 1.0]), 3),
    "largest-and-smallest": (np.array([np.finfo(float).max, 5e-324, -0.0]), 3),
    "empty": (np.empty(0), 0),
    "strided-view": (np.arange(10.0)[::2], 5),
    "column-view": (np.arange(10.0).reshape(5, 2)[:, 1], 5),
    "int": (np.arange(4), 4),
    "bool": (np.array([True, False, True]), 3),
    "float32": (np.linspace(0, 1, 3, dtype=np.float32), 3),
    "big-endian": (np.arange(3.0).astype(">f8"), 3),
    "list": ([1, 2.5, -3], None),
    "tuple-of-bools": ((True, False), 2),
    # np.asarray returns a subclass's base-class view, not the subclass
    "subclass": (np.arange(3.0).view(type("Sub", (np.ndarray,), {})), 3),
}


@pytest.mark.parametrize("x, dim", ACCEPTED_VECTORS.values(), ids=ACCEPTED_VECTORS)
def test_as_vector_accepts_and_coerces_as_before(x, dim):
    got, want = as_vector(x, dim), earlier.as_vector(x, dim)
    assert outcome(as_vector, x, dim) == outcome(earlier.as_vector, x, dim)
    # a float64 ndarray comes back as itself, as np.asarray returns it
    assert (got is x) == (want is x)
    assert type(got) is np.ndarray


HOSTILE_MATRICES = {
    **{
        f"{name}-at-{where}": (_poisoned(6, at, bad).reshape(2, 3), "matrix has non-finite entries")
        for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))
        for where, at in (("first", 0), ("middle", 3), ("last", 5))
    },
    "1-D": (_ramp(3), "expected a 2-D matrix, got shape (3,)"),
    "transposed-with-inf": (_poisoned(6, 4, np.inf).reshape(2, 3).T, "matrix has non-finite entries"),
    "sum-overflows-then-inf": (np.array([[1e308, 1e308], [np.inf, 0.0]]), "matrix has non-finite entries"),
    "too-many-rows": (np.ones((3, 2)), "dimension mismatch: expected 2 rows, got 3"),
    "too-many-columns": (np.ones((2, 3)), "dimension mismatch: expected 2 columns, got 3"),
}


@pytest.mark.parametrize("x, message", HOSTILE_MATRICES.values(), ids=HOSTILE_MATRICES)
def test_as_matrix_rejects_hostile_input_with_the_earlier_text(x, message):
    rows = cols = 2 if message.startswith("dimension") else None
    with pytest.raises(ValueError) as raised:
        as_matrix(x, rows, cols)
    assert str(raised.value) == message
    assert outcome(as_matrix, x, rows, cols) == outcome(earlier.as_matrix, x, rows, cols)


@pytest.mark.parametrize(
    "x",
    [np.array([[1e308, 1e308]]), np.arange(6.0).reshape(2, 3).T, np.eye(2, dtype=int), [[True, False]],
     np.empty((0, 3))],
    ids=["sum-overflows", "transposed", "int", "bool-list", "empty"],
)
def test_as_matrix_accepts_and_coerces_as_before(x):
    assert outcome(as_matrix, x) == outcome(earlier.as_matrix, x)


@pytest.mark.parametrize(
    "x, accepted",
    [([1e308, 1e308], True), ([-1e308, -1e308], True), ([np.inf, -np.inf], False), ([1e308, np.inf], False)],
)
def test_validation_neither_warns_nor_trips_errstate(x, accepted):
    # summing these would overflow or meet inf - inf; the checks must not
    # warn, nor raise FloatingPointError in place of ValueError
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for check, arg in ((as_vector, np.array(x)), (as_matrix, np.array([x]))):
            if accepted:
                assert check(arg) is arg
            else:
                with pytest.raises(ValueError, match="non-finite entries"):
                    check(arg)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_guard_bound_is_inclusive_with_the_earlier_message(sign):
    edge = sign * DEFAULT_MAX_LOGIT
    _guard(np.array([0.0, edge, 1.0]))
    _guard(np.array([[edge], [-edge]]))
    _guard(np.empty((0, 4)))
    over = np.array([0.0, sign * np.nextafter(DEFAULT_MAX_LOGIT, np.inf)])
    for guard in (_guard, earlier._guard):
        with pytest.raises(OverflowGuardError) as raised:
            guard(over)
        assert str(raised.value) == (
            "pre-exponential magnitude 30 exceeds the bound 30; rescale the inputs"
        )


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
