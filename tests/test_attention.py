"""Feature map, exact oracle, and linear state contracts."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lola import (
    AttentionConfig,
    FeatureMapParams,
    LinearState,
    LolaCache,
    OverflowGuardError,
    SeededRng,
    feature_map_apply,
    feature_map_batch,
    init_feature_map,
    load_feature_map,
    prefill,
    save_feature_map,
    softmax_attention_oracle,
)
from lola import attention
from lola.analysis import gram_matrix
from lola.cache import _mix_tiers
from lola.chunkwise import ChunkConfig, attend_after_prefill


@pytest.fixture
def small_map():
    cfg = AttentionConfig(head_dim=2, feature_dim=4)
    return cfg, init_feature_map(SeededRng(1), cfg)


def test_config_defaults():
    cfg = AttentionConfig(16)
    assert cfg.feature_dim == 32
    assert cfg.scale == pytest.approx(0.25)


def test_config_rejects_odd_feature_dim():
    with pytest.raises(ValueError):
        AttentionConfig(4, feature_dim=5)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"head_dim": True}, "head_dim"),
        ({"head_dim": 4.0}, "head_dim"),
        ({"head_dim": "4"}, "head_dim"),
        ({"head_dim": None}, "head_dim"),
        ({"head_dim": 0}, "head_dim"),
        ({"head_dim": 4, "feature_dim": 8.0}, "feature_dim"),
        ({"head_dim": 4, "feature_dim": False}, "feature_dim"),
        ({"head_dim": 4, "feature_dim": np.float64(8)}, "feature_dim"),
        ({"head_dim": 4, "scale": float("nan")}, "scale"),
        ({"head_dim": 4, "scale": float("inf")}, "scale"),
        ({"head_dim": 4, "scale": -float("inf")}, "scale"),
        ({"head_dim": 4, "scale": np.float32("nan")}, "scale"),
        ({"head_dim": 4, "scale": "1"}, "scale"),
        ({"head_dim": 4, "scale": True}, "scale"),
        ({"head_dim": 4, "scale": 1 + 0j}, "scale"),
        ({"head_dim": 4, "scale": 0.0}, "scale"),
        ({"head_dim": 4, "scale": -0.5}, "scale"),
    ],
)
def test_config_rejects_fields_of_the_wrong_kind(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        AttentionConfig(**kwargs)


@pytest.mark.parametrize(
    "feature_dim, message",
    [(5, "feature_dim must be a positive even integer, got 5"),
     (0, "feature_dim must be a positive even integer, got 0")],
)
def test_config_keeps_its_feature_dim_messages(feature_dim, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AttentionConfig(4, feature_dim=feature_dim)


def test_config_takes_numpy_ints_and_reals():
    cfg = AttentionConfig(np.int64(4), np.int32(8), np.float64(0.5))
    assert (cfg.head_dim, cfg.feature_dim, cfg.scale) == (4, 8, 0.5)
    assert AttentionConfig(np.int16(4)).feature_dim == 8
    assert AttentionConfig(4, scale=1).scale == 1


def test_feature_map_zero_input_gives_ones(small_map):
    cfg, params = small_map
    np.testing.assert_array_equal(feature_map_apply(params, np.zeros(2)), np.ones(4))


def test_feature_map_paired_entries_multiply_to_one(small_map):
    cfg, params = small_map
    gen = SeededRng(2).generator()
    for _ in range(20):
        phi = feature_map_apply(params, gen.normal(size=2))
        np.testing.assert_allclose(phi[:2] * phi[2:], 1.0, rtol=1e-12)


def test_feature_map_matches_per_entry_evaluation(small_map):
    cfg, params = small_map
    gen = SeededRng(3).generator()
    x = gen.normal(size=2)
    phi = feature_map_apply(params, x)
    for i in range(2):
        z = float(params.weights[i] @ x)
        assert phi[i] == pytest.approx(np.exp(z), rel=1e-14)
        assert phi[i + 2] == pytest.approx(np.exp(-z), rel=1e-14)


def test_feature_map_strictly_positive(small_map):
    cfg, params = small_map
    gen = SeededRng(4).generator()
    for _ in range(50):
        assert (feature_map_apply(params, gen.normal(size=2) * 3) > 0).all()


def test_feature_map_overflow_guard():
    params = FeatureMapParams(np.array([[10.0, 0.0], [0.0, 10.0]]))
    with pytest.raises(OverflowGuardError, match="exceeds the bound"):
        feature_map_apply(params, np.array([4.0, 0.0]))
    # just inside the bound is fine
    feature_map_apply(params, np.array([2.9, 0.0]))


_SAFE = np.array([0.1, 0.0])


def _engine(cfg, params):
    eng = LolaCache(cfg, params, 2, 1)
    eng.update(_SAFE, _SAFE)
    return eng


def _after_prefill(cfg, params, x):
    _, state = prefill([_SAFE], [_SAFE], [_SAFE], ChunkConfig(1, 1), cfg, params)
    return attend_after_prefill(state, x, cfg, params)


# each call puts x where its entry point exponentiates w.x (= 10 x_0 here)
GUARDED_ENTRY_POINTS = {
    "feature_map_apply": lambda cfg, params, x: feature_map_apply(params, x),
    "feature_map_batch": lambda cfg, params, x: feature_map_batch(params, [_SAFE, x]),
    "LolaCache.update": lambda cfg, params, x: _engine(cfg, params).update(x, _SAFE),
    "LolaCache.ingest": lambda cfg, params, x: LolaCache(cfg, params, 2, 1).ingest(
        [_SAFE, x], [_SAFE, _SAFE]
    ),
    "LolaCache.attend": lambda cfg, params, x: _engine(cfg, params).attend(x),
    "prefill": lambda cfg, params, x: prefill(
        [_SAFE, x], [_SAFE, _SAFE], [_SAFE, _SAFE], ChunkConfig(1, 1), cfg, params
    ),
    "attend_after_prefill": _after_prefill,
    # the kernel exponent is |row|^2, which is 10 x_0 for this row
    "gram_matrix": lambda cfg, params, x: gram_matrix([np.sqrt(10.0 * np.abs(x))]),
}


@pytest.mark.parametrize(
    "call", GUARDED_ENTRY_POINTS.values(), ids=GUARDED_ENTRY_POINTS.keys()
)
def test_every_entry_point_enforces_the_fixed_bound(call):
    cfg = AttentionConfig(head_dim=2, feature_dim=4)
    params = FeatureMapParams(np.array([[10.0, 0.0], [0.0, 10.0]]))
    call(cfg, params, np.array([2.9, 0.0]))
    with pytest.raises(OverflowGuardError, match="exceeds the bound 30"):
        call(cfg, params, np.array([3.1, 0.0]))


def test_feature_map_batch_matches_single(small_map):
    cfg, params = small_map
    xs = SeededRng(5).generator().normal(size=(6, 2))
    batch = feature_map_batch(params, xs)
    for i in range(6):
        np.testing.assert_allclose(batch[i], feature_map_apply(params, xs[i]), rtol=1e-14)


@pytest.mark.parametrize("n, d, half", [(1, 1, 1), (7, 3, 5), (512, 16, 16), (33, 64, 64)])
def test_feature_map_batch_keeps_the_bits_of_the_concatenated_halves(n, d, half):
    gen = SeededRng(n + d).generator()
    params = FeatureMapParams(gen.normal(size=(half, d)) * d ** -0.5)
    xs = gen.normal(size=(n, d)) * 3.0
    before = xs.copy()
    z = xs @ params.weights.T
    want = np.concatenate([np.exp(z), np.exp(-z)], axis=1)
    got = feature_map_batch(params, xs)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert xs.tobytes() == before.tobytes()


def test_feature_map_roundtrip(tmp_path, small_map):
    cfg, params = small_map
    path = tmp_path / "map.json"
    save_feature_map(params, path)
    loaded = load_feature_map(path)
    np.testing.assert_array_equal(loaded.weights, params.weights)


_MAP = {"format": "paired-exp-feature-map-v1", "head_dim": 2, "feature_dim": 4, "weights": [0.1] * 4}


@pytest.mark.parametrize(
    "text, message",
    [
        ("{]", "not JSON"),
        (json.dumps([_MAP]), "top level must be an object, got list"),
        (json.dumps({**_MAP, "format": "v0"}), "'format' is not 'paired-exp-feature-map-v1'"),
        (json.dumps({**_MAP, "head_dim": "2"}), "'head_dim' must be an int, got '2'"),
        (json.dumps({**_MAP, "head_dim": True}), "'head_dim' must be an int, got True"),
        (json.dumps({**_MAP, "head_dim": 0, "weights": []}), "'head_dim' must be >= 1, got 0"),
        (json.dumps({**_MAP, "feature_dim": 3}), "'feature_dim' must be a positive even integer, got 3"),
        (json.dumps({**_MAP, "feature_dim": 0}), "'feature_dim' must be a positive even integer, got 0"),
        (json.dumps({k: v for k, v in _MAP.items() if k != "weights"}), "'weights' must be a list"),
        (json.dumps({**_MAP, "weights": [0.1, "x", 0.1, 0.1]}), "'weights': could not convert"),
        (json.dumps({**_MAP, "weights": [0.1] * 3}), "need 4 'weights', got shape (3,)"),
        (json.dumps({**_MAP, "weights": [[0.1, 0.1], [0.1, 0.1]]}), "got shape (2, 2)"),
        (json.dumps({**_MAP, "weights": [0.1, float("nan"), 0.1, 0.1]}), "non-finite"),
        (json.dumps({**_MAP, "weights": ["0.12"] * 4}), "'weights': could not convert '0.12' to a number"),
        (json.dumps({**_MAP, "weights": [True] * 4}), "'weights': could not convert True to a number"),
        (json.dumps({**_MAP, "weights": [0.1, 0.1, 0.1, False]}), "could not convert False to a number"),
    ],
    ids=[
        "not-json", "list", "format", "head-dim-str", "head-dim-bool", "head-dim-0",
        "feature-dim-odd", "feature-dim-0", "weights-missing", "weights-str", "weights-short",
        "weights-nested", "weights-nan", "weights-numeric-str", "weights-bools", "weights-one-bool",
    ],
)
def test_malformed_map_file_names_the_file_and_field(tmp_path, text, message):
    path = tmp_path / "map.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        load_feature_map(path)
    assert str(path) in str(info.value)
    assert path.read_bytes() not in attention._parsed_maps  # checked before it is cached


def test_oracle_single_token_returns_value():
    gen = SeededRng(6).generator()
    q, k, v = gen.normal(size=(3, 1, 4))
    out = softmax_attention_oracle(q, k, v, 0.5)
    np.testing.assert_allclose(out[0], v[0], rtol=1e-12)


def test_oracle_identical_keys_give_running_mean():
    gen = SeededRng(7).generator()
    n, d = 5, 3
    ks = np.tile(gen.normal(size=d), (n, 1))
    qs = gen.normal(size=(n, d))
    vs = gen.normal(size=(n, d))
    out = softmax_attention_oracle(qs, ks, vs, d**-0.5)
    for t in range(n):
        np.testing.assert_allclose(out[t], vs[: t + 1].mean(axis=0), rtol=1e-10)


def test_oracle_matches_independent_two_loop_reference():
    gen = SeededRng(8).generator()
    n, d = 3, 4
    qs, ks, vs = gen.normal(size=(3, n, d))
    scale = d**-0.5
    out = softmax_attention_oracle(qs, ks, vs, scale)
    for t in range(n):
        num = np.zeros(d)
        den = 0.0
        for i in range(t + 1):
            w = np.exp(scale * float(qs[t] @ ks[i]))
            num += w * vs[i]
            den += w
        np.testing.assert_allclose(out[t], num / den, rtol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_oracle_outputs_stay_in_value_hull(seed):
    gen = SeededRng(seed).generator()
    n, d = 8, 3
    qs, ks, vs = gen.normal(size=(3, n, d)) * 1.5
    out = softmax_attention_oracle(qs, ks, vs, d**-0.5)
    for t in range(n):
        lo = vs[: t + 1].min(axis=0) - 1e-9
        hi = vs[: t + 1].max(axis=0) + 1e-9
        assert (out[t] >= lo).all() and (out[t] <= hi).all()


def test_linear_state_single_update_forced():
    state = LinearState.zeros(2, 1)
    state.update(np.array([1.0, 0.0]), np.array([2.0]))
    assert state.hidden.tolist() == [[2.0], [0.0]]
    assert state.normalizer.tolist() == [1.0, 0.0]
    assert state.count == 1


def test_linear_state_update_order_commutes():
    gen = SeededRng(9).generator()
    phis = np.abs(gen.normal(size=(2, 6)))
    vals = gen.normal(size=(2, 3))
    a = LinearState.zeros(6, 3)
    b = LinearState.zeros(6, 3)
    a.update(phis[0], vals[0])
    a.update(phis[1], vals[1])
    b.update(phis[1], vals[1])
    b.update(phis[0], vals[0])
    np.testing.assert_allclose(a.hidden, b.hidden, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.normalizer, b.normalizer, rtol=1e-12)


def test_linear_state_recurrent_equals_batch():
    cfg = AttentionConfig(4, feature_dim=8)
    params = init_feature_map(SeededRng(10), cfg)
    gen = SeededRng(11).generator()
    n = 512
    ks = gen.normal(size=(n, 4))
    vs = gen.normal(size=(n, 4))
    phis = feature_map_batch(params, ks)
    state = LinearState.zeros(8, 4)
    for i in range(n):
        state.update(phis[i], vs[i])
    np.testing.assert_allclose(state.hidden, phis.T @ vs, rtol=1e-9)
    np.testing.assert_allclose(state.normalizer, phis.sum(axis=0), rtol=1e-9)


def test_linear_state_update_keeps_the_bits_and_the_replaced_state():
    gen = SeededRng(14).generator()
    phis = np.exp(gen.normal(size=(6, 16)))
    vals = gen.normal(size=(6, 8))
    state = LinearState.zeros(16, 8)
    hidden, normalizer = state.hidden.copy(), state.normalizer.copy()
    for phi, v in zip(phis, vals):
        before = (state.hidden, state.normalizer)
        expected_before = (hidden.tobytes(), normalizer.tobytes())
        state.update(phi, v)
        hidden = hidden + phi[:, None] * v
        normalizer = normalizer + phi
        assert state.hidden.tobytes() == hidden.tobytes()
        assert state.normalizer.tobytes() == normalizer.tobytes()
        # the arrays the update replaced still hold the state before it
        assert (before[0].tobytes(), before[1].tobytes()) == expected_before
    assert state.count == 6


def test_linear_state_update_takes_a_state_of_any_layout():
    # ``update`` writes with np.dot, which needs C-contiguous float64 output;
    # a state built from a Fortran-ordered or integer array still updates
    gen = SeededRng(16).generator()
    phis = np.exp(gen.normal(size=(3, 6)))
    vals = gen.normal(size=(3, 4))
    for hidden in (np.asfortranarray(np.ones((6, 4))), np.ones((6, 4), dtype=np.int64)):
        state = LinearState(hidden, np.zeros(6))
        want = LinearState(np.ones((6, 4)), np.zeros(6))
        for phi, v in zip(phis, vals):
            state.update(phi, v)
            want.update(phi, v)
        assert state.hidden.tobytes() == want.hidden.tobytes()


def test_linear_state_update_allocates_no_outer_product():
    # large enough that one f x d temporary outweighs numpy's own loop buffers
    f, d = 1024, 64
    gen = SeededRng(15).generator()
    phis = np.exp(gen.normal(size=(8, f)))
    vals = gen.normal(size=(8, d))
    state = LinearState.zeros(f, d)
    state.update(phis[0], vals[0])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for phi, v in zip(phis[1:], vals[1:]):
            state.update(phi, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < f * d * 8 // 2


def test_linear_state_absorb_matches_loop():
    gen = SeededRng(12).generator()
    phis = np.abs(gen.normal(size=(7, 6)))
    vals = gen.normal(size=(7, 3))
    a = LinearState.zeros(6, 3)
    a.absorb(phis, vals)
    b = LinearState.zeros(6, 3)
    for i in range(7):
        b.update(phis[i], vals[i])
    np.testing.assert_allclose(a.hidden, b.hidden, rtol=1e-12)
    assert a.count == b.count == 7


@pytest.mark.parametrize(
    "phi_shape, v_shape",
    [
        ((3, 1), (3, 4)),  # a 1-column φ block would broadcast across F
        ((3, 8), (3, 1)),  # a 1-column value block would broadcast across d
        ((8,), (1, 4)),
        ((3, 8), (4,)),
        ((8,), (4,)),
        ((3, 8), (2, 4)),
    ],
)
def test_linear_state_absorb_rejects_wrong_shapes(phi_shape, v_shape):
    state = LinearState.zeros(8, 4)
    with pytest.raises(ValueError, match="dimension mismatch") as err:
        state.absorb(np.ones(phi_shape), np.ones(v_shape))
    assert str(phi_shape) in str(err.value) and str(v_shape) in str(err.value)
    assert state.count == 0
    assert not state.hidden.any() and not state.normalizer.any()


# the linear-attention forward pass is the hidden-state term of the tier mix:
# a cache with neither window nor sparse cache (η=λ=0) answers from it alone


def test_forward_single_pair_recalls_value(small_map):
    # normalizer cancels: any query recovers the one absorbed value
    cfg, params = small_map
    eng = LolaCache(cfg, params, 0, 0)
    v = np.array([3.0, -1.0])
    eng.update(np.array([0.5, -1.5]), v)
    assert eng.linear.count == 1
    gen = SeededRng(13).generator()
    for _ in range(10):
        np.testing.assert_allclose(eng.attend(gen.normal(size=2)), v, rtol=1e-10)


def test_forward_orthogonal_recall_is_exact():
    state = LinearState.zeros(4, 2)
    state.update(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 2.0]))
    state.update(np.array([0.0, 1.0, 0.0, 0.0]), np.array([-5.0, 7.0]))
    none = np.zeros((0, 2))
    out = _mix_tiers(np.zeros(2), np.array([1.0, 0.0, 0.0, 0.0]), 1.0, none, none, state)
    np.testing.assert_allclose(out, [1.0, 2.0], rtol=1e-12)


def test_forward_matches_explicit_summation():
    cfg = AttentionConfig(3, feature_dim=6)
    params = init_feature_map(SeededRng(14), cfg)
    gen = SeededRng(15).generator()
    ks = gen.normal(size=(20, 3))
    vs = gen.normal(size=(20, 3))
    q = gen.normal(size=3)
    phis = feature_map_batch(params, ks)
    phi_q = feature_map_apply(params, q)
    eng = LolaCache(cfg, params, 0, 0)
    for i in range(20):
        eng.update(ks[i], vs[i])
    num = np.zeros(3)
    den = 0.0
    for i in range(20):
        w = float(phi_q @ phis[i])
        num += w * vs[i]
        den += w
    np.testing.assert_allclose(eng.attend(q), num / den, rtol=1e-9)


def test_forward_errors(small_map):
    cfg, params = small_map
    eng = LolaCache(cfg, params, 0, 0)
    with pytest.raises(ValueError, match="before any pair"):
        eng.attend(np.ones(2))
    eng.update(np.ones(2), np.ones(2))
    eng.linear.normalizer = -eng.linear.normalizer
    with pytest.raises(ValueError, match="is not positive"):
        eng.attend(np.ones(2))
