"""Bulk ingest against the per-token update loop it replaces.

``LolaCache.ingest`` validates and feature-maps a whole stream once and then
runs the same per-pair step as ``update``. The tiers, the hidden state, the
last ``StepEvent`` and the absorbed-score total must match a loop of
``update`` calls (plus ``accumulate_window_scores`` under a static rule) bit
for bit, and bad input must be rejected before any pair is admitted.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lola.cache as cache_mod
from lola import AttentionConfig, LolaCache, SeededRng, feature_map_apply, init_feature_map
from lola.attention import OverflowGuardError, _feature_rows
from lola.cache import SCORING_STRATEGIES

POLICIES = ["self-recall", "overestimate", "attnerr-sq", "attnerr-abs"]


def scoring_for(name):
    return SCORING_STRATEGIES[name]()


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


def assert_same_tiers(a: LolaCache, b: LolaCache):
    assert a.t == b.t
    assert bits(a.window_indices) == bits(b.window_indices)
    assert bits(a.sparse_indices) == bits(b.sparse_indices)
    assert bits(a.sparse_scores) == bits(b.sparse_scores)
    assert bits(a.linear.hidden) == bits(b.linear.hidden)
    assert bits(a.linear.normalizer) == bits(b.linear.normalizer)
    assert a.linear.count == b.linear.count


def assert_same_state(a: LolaCache, b: LolaCache):
    assert_same_tiers(a, b)
    assert a.absorbed_score_sum.hex() == b.absorbed_score_sum.hex()
    ea, eb = a.last_event, b.last_event
    assert (ea is None) == (eb is None)
    if ea is not None:
        assert (ea.index, ea.evicted_index) == (eb.index, eb.evicted_index)
        for name in (
            "eligible_indices",
            "eligible_scores",
            "kept_indices",
            "absorbed_indices",
            "absorbed_scores",
        ):
            assert bits(getattr(ea, name)) == bits(getattr(eb, name)), name


def pooled_stream(seed, d, pool, n):
    """``n`` steps drawn with repeats from ``pool`` triples, so scores tie exactly."""
    gen = SeededRng(seed + 1).generator()
    qs, ks, vs = gen.normal(size=(3, pool, d))
    picks = gen.integers(0, pool, size=n)
    return qs[picks], ks[picks], vs[picks]


@settings(max_examples=150, deadline=None)
@given(
    eta=st.integers(0, 5),
    lam=st.integers(0, 8),
    d=st.sampled_from([1, 2, 4, 16]),
    policy=st.sampled_from(POLICIES),
    pool=st.integers(1, 6),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
def test_ingest_matches_update_loop_bit_for_bit(eta, lam, d, policy, pool, n, seed):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), cfg)
    qs, ks, vs = pooled_stream(seed, d, pool, n)
    bulk = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    loop = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    static = not loop.scoring.dynamic
    expected_sum = 0.0
    for t in range(n):
        loop.update(ks[t], vs[t])
        if static:
            loop.accumulate_window_scores(qs[t])
        for score in loop.last_event.absorbed_scores:
            expected_sum += float(score)
    bulk.ingest(ks, vs, qs if static else None)
    assert_same_state(bulk, loop)
    assert bulk.absorbed_score_sum.hex() == expected_sum.hex()
    assert bits(bulk.attend(qs[0])) == bits(loop.attend(qs[0]))


@settings(max_examples=60, deadline=None)
@given(
    eta=st.integers(0, 5),
    lam=st.integers(0, 8),
    policy=st.sampled_from(POLICIES),
    n=st.integers(1, 40),
    cut=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_ingest_in_two_halves_equals_one_call(eta, lam, policy, n, cut, seed):
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(seed), cfg)
    qs, ks, vs = pooled_stream(seed, 4, 5, n)
    m = int(cut * n)
    whole = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    halves = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    whole.ingest(ks, vs, qs)
    halves.ingest(ks[:m], vs[:m], qs[:m])
    halves.ingest(ks[m:], vs[m:], qs[m:])
    assert_same_state(halves, whole)


@settings(max_examples=150, deadline=None)
@given(
    eta=st.integers(0, 5),
    lam=st.integers(0, 8),
    policy=st.sampled_from(POLICIES),
    n=st.integers(1, 60),
    cut=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    bounded=st.booleans(),
)
# restoring this window in arrival order flipped a static score's last bit
@example(eta=3, lam=1, policy="overestimate", n=26, cut=0.5, seed=1, bounded=False)
@example(eta=2, lam=6, policy="self-recall", n=60, cut=0.5, seed=3, bounded=True)
def test_snapshot_at_a_cut_continues_bit_for_bit(eta, lam, policy, n, cut, seed, bounded):
    # a restored cache recomputes its feature rows and refills its window
    # ring; both must match the running cache's bits and row order, or later
    # scores, absorptions and outputs drift from it. ``bounded`` lowers the
    # size from which a full eviction takes the bounded settle to zero.
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(seed), cfg)
    qs, ks, vs = pooled_stream(seed, 4, 5, n)
    m = max(1, int(cut * n))
    with pytest.MonkeyPatch.context() as mp:
        if bounded:
            mp.setattr(cache_mod, "_BOUNDED_MIN_WORK", 0)
        whole = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
        whole.ingest(ks, vs, qs)
        first = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
        first.ingest(ks[:m], vs[:m], qs[:m])
        restored = LolaCache.from_snapshot(first.to_snapshot())
    assert restored._bounded == whole._bounded == (bounded and policy == "self-recall" and lam > 0)
    restored.ingest(ks[m:], vs[m:], qs[m:])
    assert_same_tiers(restored, whole)
    assert bits(restored.attend(qs[0])) == bits(whole.attend(qs[0]))
    assert restored.absorbed_score_sum.hex() == whole.absorbed_score_sum.hex()


@pytest.mark.parametrize("d", [1, 2, 4, 16, 64])
def test_row_batch_kernel_equals_feature_map_apply(d):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(d), cfg)
    xs = SeededRng(100 + d).generator().normal(size=(500, d))
    rows = _feature_rows(params, xs)
    for x, row in zip(xs, rows):
        assert bits(row) == bits(feature_map_apply(params, x))


def test_decode_step_validates_each_input_once(monkeypatch):
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(0), cfg), 2, 2)
    checked = []
    real = cache_mod.as_vector

    def spy(x, dim=None):
        checked.append(dim)
        return real(x, dim)

    monkeypatch.setattr(cache_mod, "as_vector", spy)
    gen = SeededRng(1).generator()
    for q, k, v in gen.normal(size=(6, 3, 4)):
        eng.decode_step(q, k, v)
    # key, value and query, once each per step
    assert len(checked) == 3 * 6


# -- hostile input -------------------------------------------------------------


def primed(policy="self-recall"):
    """An engine with pairs in every tier, and a 500-step stream for it."""
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(2), cfg), 3, 2, scoring=scoring_for(policy))
    gen = SeededRng(3).generator()
    qs, ks, vs = gen.normal(size=(3, 500, 4)) * 0.5
    eng.ingest(ks[:10], vs[:10], qs[:10])
    assert eng.window_size and eng.sparse_size and eng.linear.count
    return eng, qs, ks, vs


def snapshot_of(eng):
    return (eng.t, bits(eng.window_indices), bits(eng.sparse_indices), bits(eng.linear.hidden))


def rejects(eng, match, *args, error=ValueError):
    before = snapshot_of(eng)
    with pytest.raises(error, match=match):
        eng.ingest(*args)
    assert snapshot_of(eng) == before


def test_ingest_rejects_nan_in_late_row():
    eng, qs, ks, vs = primed()
    vs[400, 1] = np.nan
    rejects(eng, "non-finite", ks, vs)


def test_ingest_rejects_wrong_column_count():
    eng, qs, ks, vs = primed()
    rejects(eng, "expected 4 columns", ks[:, :3], vs[:, :3])


def test_ingest_rejects_row_count_mismatch():
    eng, qs, ks, vs = primed()
    rejects(eng, "expected 500 rows", ks, vs[:499])


def test_ingest_rejects_vector_input():
    eng, qs, ks, vs = primed()
    rejects(eng, "2-D matrix", ks[0], vs[0])


def test_ingest_static_rule_needs_queries():
    eng, qs, ks, vs = primed("attnerr-sq")
    rejects(eng, "needs the stream's queries", ks, vs)
    # a dynamic rule ignores queries, as accumulate_window_scores does
    dyn, _, _, _ = primed()
    dyn.ingest(ks, vs, "not a query matrix")
    assert dyn.t == 510


def test_ingest_rejects_overflowing_late_row():
    eng, qs, ks, vs = primed()
    ks[400] *= 1e3
    rejects(eng, "exceeds the bound", ks, vs, error=OverflowGuardError)
