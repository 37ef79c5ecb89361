"""Prefill path: oracle degeneration, policy conservation, slow reference."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lola import (
    AttentionConfig,
    FeatureMapParams,
    LolaCache,
    SeededRng,
    compression_rate,
    effective_cache_size,
    feature_map_apply,
    init_feature_map,
    prefill,
    softmax_attention_oracle,
)
from lola import chunkwise
from lola.chunkwise import ChunkConfig, ChunkEvent, attend_after_prefill


@pytest.fixture
def setup():
    cfg = AttentionConfig(head_dim=4, feature_dim=8)
    params = init_feature_map(SeededRng(0), cfg)
    return cfg, params


def test_effective_cache_size_accounting():
    assert effective_cache_size(ChunkConfig(64, 64)) == 256
    assert effective_cache_size(ChunkConfig(64, 0)) == 192
    assert compression_rate(4096, ChunkConfig(64, 64)) == pytest.approx(16.0)


def test_compression_rates_land_in_reported_bracket():
    # equal chunk and sparse sizes around 100-160 keep the 2-4K compression
    # rates inside the 2.3x-13x band the fixed-cache design targets
    for c in (96, 128, 160):
        cfg = ChunkConfig(c, c)
        for n in (2048, 4096):
            rate = compression_rate(n, cfg)
            assert 2.3 <= rate <= 13.0, (c, n, rate)


def test_full_coverage_matches_oracle(setup):
    cfg, params = setup
    gen = SeededRng(1).generator()
    n = 15
    qs, ks, vs = gen.normal(size=(3, n, 4))
    oracle = softmax_attention_oracle(qs, ks, vs, cfg.scale)
    out, state = prefill(qs, ks, vs, ChunkConfig(8, 4), cfg, params)
    np.testing.assert_allclose(out, oracle, rtol=1e-9, atol=1e-12)
    assert state.linear.count == 0  # nothing ever left the lookback


@settings(max_examples=200, deadline=None)
@given(
    d=st.sampled_from([1, 2, 4, 16]),
    chunk=st.integers(1, 8),
    lam=st.integers(0, 4),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_prefill_matches_oracle_while_the_lookback_covers_the_stream(d, chunk, lam, data, seed):
    # with n <= 3 chunks every query sees its whole prefix in full rank
    n = data.draw(st.integers(1, 3 * chunk), label="n")
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), cfg)
    qs, ks, vs = SeededRng(seed + 1).generator().normal(size=(3, n, d))
    oracle = softmax_attention_oracle(qs, ks, vs, cfg.scale)
    out, _ = prefill(qs, ks, vs, ChunkConfig(chunk, lam), cfg, params)
    assert np.max(np.abs(out - oracle)) <= 1e-12


def slow_reference(qs, ks, vs, chunk, cfg, params):
    """Independent per-query reimplementation of the prefill policy.

    Materializes the sparse pool and eligible sets with plain dictionaries
    and evaluates each query by explicit summation, no fused passes.
    """
    n, d = qs.shape
    c = chunk.chunk_size
    lam = chunk.sparse_capacity
    phi_k = [feature_map_apply(params, ks[i]) for i in range(n)]
    hidden = np.zeros((cfg.feature_dim, d))
    norm = np.zeros(cfg.feature_dim)
    absorbed = 0
    sparse: dict[int, float] = {}  # 0-based stream index -> score
    out = np.zeros_like(vs)
    n_chunks = -(-n // c)
    for m in range(n_chunks):
        c0, c1 = m * c, min(n, (m + 1) * c)
        lb0 = max(0, c0 - 2 * c)
        for t in range(c0, c1):
            visible = sorted(sparse) + list(range(lb0, t + 1))
            phi_q = feature_map_apply(params, qs[t])
            num = phi_q @ hidden
            den = float(phi_q @ norm)
            for j in visible:
                w = float(np.exp(cfg.scale * (qs[t] @ ks[j])))
                num = num + w * vs[j]
                den += w
            out[t] = num / den
        if m >= 2:
            eligible = sorted(sparse) + list(range((m - 2) * c, (m - 1) * c))
            scored = []
            for j in eligible:
                if absorbed == 0:
                    s = float(np.linalg.norm(vs[j]))
                else:
                    pred = (phi_k[j] @ hidden) / float(phi_k[j] @ norm)
                    s = float(np.linalg.norm(pred - vs[j]))
                scored.append((j, s))
            scored.sort(key=lambda js: (-js[1], js[0]))
            keep = {j for j, _ in scored[:lam]}
            for j, _ in sorted(scored[lam:]):
                hidden = hidden + np.outer(phi_k[j], vs[j])
                norm = norm + phi_k[j]
                absorbed += 1
            sparse = {j: s for j, s in scored if j in keep}
    return out


def test_matches_slow_reference(setup):
    cfg, params = setup
    gen = SeededRng(2).generator()
    n = 64
    qs, ks, vs = gen.normal(size=(3, n, 4))
    chunk = ChunkConfig(8, 8)
    out, _ = prefill(qs, ks, vs, chunk, cfg, params)
    ref = slow_reference(qs, ks, vs, chunk, cfg, params)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)


def test_matches_slow_reference_lambda_zero(setup):
    cfg, params = setup
    gen = SeededRng(3).generator()
    n = 32
    qs, ks, vs = gen.normal(size=(3, n, 4))
    chunk = ChunkConfig(8, 0)
    out, state = prefill(qs, ks, vs, chunk, cfg, params)
    ref = slow_reference(qs, ks, vs, chunk, cfg, params)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)
    assert state.engine.sparse_size == 0
    # every pair outside the final two chunks was absorbed
    assert state.linear.count == 16


def test_partial_final_chunk(setup):
    cfg, params = setup
    gen = SeededRng(4).generator()
    n = 29  # not a multiple of the chunk size
    qs, ks, vs = gen.normal(size=(3, n, 4))
    out, state = prefill(qs, ks, vs, ChunkConfig(8, 4), cfg, params)
    ref = slow_reference(qs, ks, vs, ChunkConfig(8, 4), cfg, params)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)


def test_policy_conservation(setup):
    cfg, params = setup
    gen = SeededRng(5).generator()
    n, c = 64, 8
    qs, ks, vs = gen.normal(size=(3, n, 4))
    _, state = prefill(qs, ks, vs, ChunkConfig(c, 4), cfg, params)
    boundary = (state.processed - 2) * c
    sparse = set(state.sparse_indices.tolist())
    # every pair older than the final two chunks is sparse or absorbed
    assert state.linear.count + len(sparse) == boundary
    assert all(1 <= i <= n for i in sparse)
    assert state.recent_indices.tolist() == list(range(boundary + 1, n + 1))


def test_peak_storage_is_bounded(setup):
    cfg, params = setup
    gen = SeededRng(6).generator()
    n, c, lam = 128, 8, 4
    qs, ks, vs = gen.normal(size=(3, n, 4))
    _, state = prefill(qs, ks, vs, ChunkConfig(c, lam), cfg, params)
    assert state.peak_full_rank <= 3 * c + lam


def test_a_sequence_shorter_than_a_chunk_sizes_the_buffers_by_the_sequence(setup):
    cfg, params = setup
    qs, ks, vs = SeededRng(8).generator().normal(size=(3, 5, 4))
    want, _ = prefill(qs, ks, vs, ChunkConfig(5, 1), cfg, params)
    tracemalloc.start()
    try:
        got, _ = prefill(qs, ks, vs, ChunkConfig(3000, 1), cfg, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    # the hand-off engine's 6000-row ring is about 0.9 MB; buffers sized by
    # the chunk would take about 240 MB
    assert peak < 2e6


def test_fused_pass_equals_per_pair_summation(setup):
    # the fused masked pass must equal naive per-pair accumulation
    cfg, params = setup
    gen = SeededRng(7).generator()
    n = 24
    qs, ks, vs = gen.normal(size=(3, n, 4))
    out, _ = prefill(qs, ks, vs, ChunkConfig(4, 2), cfg, params)
    ref = slow_reference(qs, ks, vs, ChunkConfig(4, 2), cfg, params)
    np.testing.assert_allclose(out, ref, rtol=1e-9)


def test_attend_after_prefill_matches_fresh_chunk_query(setup):
    cfg, params = setup
    gen = SeededRng(8).generator()
    n, c = 40, 8
    qs, ks, vs = gen.normal(size=(3, n, 4))
    _, state = prefill(qs, ks, vs, ChunkConfig(c, 4), cfg, params)
    q = gen.normal(size=4)
    got = attend_after_prefill(state, q, cfg, params)

    phi_q = feature_map_apply(params, q)
    num = phi_q @ state.linear.hidden
    den = float(phi_q @ state.linear.normalizer)
    for i in (*state.sparse_indices, *state.recent_indices):
        w = float(np.exp(cfg.scale * (q @ ks[i - 1])))
        num = num + w * vs[i - 1]
        den += w
    np.testing.assert_allclose(got, num / den, rtol=1e-9)


def test_empty_input_rejected(setup):
    cfg, params = setup
    with pytest.raises(ValueError):
        prefill(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros((0, 4)), ChunkConfig(4, 2), cfg, params)


def test_boundary_scores_respect_empty_state_convention(setup):
    cfg, params = setup
    gen = SeededRng(9).generator()
    n, c = 24, 8
    qs, ks, vs = gen.normal(size=(3, n, 4))
    _, state = prefill(qs, ks, vs, ChunkConfig(c, 30), cfg, params)
    # capacity exceeds evictions: first boundary scored against an empty state
    first = state.events[0]
    np.testing.assert_allclose(
        first.eligible_scores, np.linalg.norm(vs[:c], axis=1), rtol=1e-12
    )


def test_attend_after_prefill_rejects_a_non_finite_denominator(setup):
    cfg, params = setup
    gen = SeededRng(10).generator()
    qs, ks, vs = gen.normal(size=(3, 40, 4))
    _, state = prefill(qs, ks, vs, ChunkConfig(8, 4), cfg, params)
    state.linear.normalizer[:] = np.nan
    with pytest.raises(ValueError, match="shared denominator nan"):
        attend_after_prefill(state, qs[0], cfg, params)


def test_prefill_rejects_a_non_finite_denominator():
    # logits of 1e320 overflow: the shift is inf and every exponential NaN
    cfg = AttentionConfig(4, feature_dim=4)
    params = FeatureMapParams(np.zeros((2, 4)))
    ks, vs = SeededRng(11).generator().normal(size=(2, 40, 4))
    ks *= 1e160
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match=r"^chunk 0: shared denominator nan is not positive$"
    ):
        prefill(ks, ks, vs, ChunkConfig(8, 4), cfg, params)


@pytest.mark.parametrize(
    "weights, shape",
    [(np.ones((2, 4)), "4x4"), (np.ones((4, 3)), "8x3")],
    ids=["feature-width", "head-dim"],
)
def test_a_map_that_does_not_fit_the_config_fails_before_any_work(monkeypatch, weights, shape):
    # one rule, one text, for the decode engine and for prefill; before, prefill
    # failed inside chunk 0 with numpy's matmul message
    cfg, params = AttentionConfig(4, feature_dim=8), FeatureMapParams(weights)
    ks = SeededRng(13).generator().normal(size=(6, 4))
    text = f"^feature map is {shape}, config wants 8x4$"
    with pytest.raises(ValueError, match=text):
        LolaCache(cfg, params, 2, 1)

    def no_work(*args):
        raise AssertionError("prefill mapped rows before checking the map")

    monkeypatch.setattr(chunkwise, "_feature_batch", no_work)
    with pytest.raises(ValueError, match=text):
        prefill(ks, ks, ks, ChunkConfig(2, 1), cfg, params)


def test_prefill_returns_arrays_it_does_not_reuse(setup):
    cfg, params = setup
    gen = SeededRng(12).generator()
    runs = []
    for _ in range(2):
        qs, ks, vs = gen.normal(size=(3, 45, 4))
        out, state = prefill(qs, ks, vs, ChunkConfig(4, 3), cfg, params)
        runs.append((qs, ks, vs, out, state))

    def arrays(out, state):
        # the engine's pair rows hold its window and sparse tiers
        eng = state.engine
        got = [out, eng.linear.hidden, eng.linear.normalizer, eng._wrows, eng._srows]
        for event in state.events:
            got += [getattr(event, f.name) for f in dataclasses.fields(ChunkEvent)[1:]]
        return got

    first, second = (arrays(r[3], r[4]) for r in runs)
    assert len(first) == 5 + 4 * len(runs[0][4].events)
    every = first + second + [a for r in runs for a in r[:3]]
    for i, a in enumerate(first + second):
        for b in every[i + 1 :]:
            assert not np.shares_memory(a, b)

    kept = [a.copy() for a in first]
    for qs, ks, vs, *_ in runs:
        qs[:] = np.nan
        ks[:] = 7.0
        vs[:] = -7.0
    for a, b in zip(first, kept):
        assert a.tobytes() == b.tobytes()


def test_keys_passed_as_queries_are_mapped_once(setup, monkeypatch):
    import lola.chunkwise as chunkwise_mod
    from lola.attention import _feature_batch

    cfg, params = setup
    gen = SeededRng(30).generator()
    ks, vs = gen.normal(size=(2, 50, 4)) * 0.5
    calls = []

    def spy(p, xs):
        calls.append(xs.shape[0])
        return _feature_batch(p, xs)

    monkeypatch.setattr(chunkwise_mod, "_feature_batch", spy)
    cc = ChunkConfig(8, 6)
    out_shared, st_shared = prefill(ks, ks, vs, cc, cfg, params)
    assert calls == [50]
    out_apart, st_apart = prefill(ks.copy(), ks, vs, cc, cfg, params)
    assert calls == [50, 50, 50]
    assert out_shared.tobytes() == out_apart.tobytes()
    assert st_shared.linear.hidden.tobytes() == st_apart.linear.hidden.tobytes()
    assert st_shared.sparse_indices.tolist() == st_apart.sparse_indices.tolist()
    assert st_shared.engine.sparse_scores.tobytes() == st_apart.engine.sparse_scores.tobytes()


@pytest.mark.parametrize(
    "chunk_size, sparse_capacity, field",
    [
        (2.5, 1, "chunk_size"),
        (2, 1.5, "sparse_capacity"),
        (True, 1, "chunk_size"),
        (2, False, "sparse_capacity"),
        ("3", 1, "chunk_size"),
        (2, None, "sparse_capacity"),
        (0, 1, "chunk_size"),
        (2, -1, "sparse_capacity"),
    ],
)
def test_chunk_config_rejects_sizes_that_are_not_ints(chunk_size, sparse_capacity, field):
    with pytest.raises(ValueError, match=field):
        ChunkConfig(chunk_size, sparse_capacity)


def test_chunk_config_takes_numpy_ints(setup):
    cfg, params = setup
    ks, vs = SeededRng(31).generator().normal(size=(2, 20, 4))
    out, _ = prefill(ks, ks, vs, ChunkConfig(np.int64(4), np.int32(2)), cfg, params)
    ref, _ = prefill(ks, ks, vs, ChunkConfig(4, 2), cfg, params)
    assert out.tobytes() == ref.tobytes()


def test_attend_after_prefill_rejects_another_config_or_map(setup):
    cfg, params = setup
    qs, ks, vs = SeededRng(31).generator().normal(size=(3, 20, 4))
    _, state = prefill(qs, ks, vs, ChunkConfig(4, 2), cfg, params)
    same = FeatureMapParams(params.weights.copy())
    answer = attend_after_prefill(state, qs[0], cfg, same)
    assert answer.tobytes() == state.engine.attend(qs[0]).tobytes()
    other_cfg = AttentionConfig(4, feature_dim=8, scale=0.3)
    with pytest.raises(ValueError, match="^'attn' .* is not the config the prefill ran with"):
        attend_after_prefill(state, qs[0], other_cfg, params)
    other_map = FeatureMapParams(params.weights + 1e-3)
    with pytest.raises(ValueError, match="^'params' are not the feature map the prefill ran with"):
        attend_after_prefill(state, qs[0], cfg, other_map)


def test_decoding_goes_on_from_the_handoff(setup):
    # every output stays a convex combination of stored values, and the
    # tiers account for every pair
    cfg, params = setup
    qs, ks, vs = SeededRng(32).generator().normal(size=(3, 60, 4))
    _, state = prefill(qs[:37], ks[:37], vs[:37], ChunkConfig(4, 3), cfg, params)
    eng = state.engine
    assert (eng.t, eng.window_capacity, eng.sparse_capacity) == (37, 8, 3)
    lo, hi = vs.min(axis=0), vs.max(axis=0)
    for t in range(37, 60):
        out = eng.decode_step(qs[t], ks[t], vs[t])
        assert ((out >= lo - 1e-12) & (out <= hi + 1e-12)).all()
        assert eng.window_size + eng.sparse_size + eng.linear.count == t + 1
        # the lookback, pairs 33..37, fills the window before anything leaves it
        assert eng.window_indices.tolist() == list(range(max(33, t - 6), t + 2))


def test_decoding_after_a_covering_prefill_matches_the_oracle(setup):
    # while the window still holds the whole stream (n plus the decoded
    # steps <= 2c), every output is exact softmax attention
    cfg, params = setup
    qs, ks, vs = SeededRng(33).generator().normal(size=(3, 8, 4))
    oracle = softmax_attention_oracle(qs, ks, vs, cfg.scale)
    _, state = prefill(qs[:5], ks[:5], vs[:5], ChunkConfig(4, 2), cfg, params)
    for t in range(5, 8):
        out = state.engine.decode_step(qs[t], ks[t], vs[t])
        np.testing.assert_allclose(out, oracle[t], rtol=1e-9, atol=1e-12)
