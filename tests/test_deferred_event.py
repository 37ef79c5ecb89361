"""``last_event`` is built when read.

An eviction stores only what it decided; ``LolaCache.last_event`` builds the
``StepEvent`` from that and the residents left behind. Reading the event
after every step must not change what the engine does, an eviction into a
sparse cache with room must not score anything until the event is read, and
a cache that has taken no step has no event.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lola.cache as cache_mod
from lola import AttentionConfig, LolaCache, SeededRng, init_feature_map
from lola.cache import SCORING_STRATEGIES, _self_recall_scores

POLICIES = ["self-recall", "overestimate", "attnerr-sq", "attnerr-abs"]
EVENT_FIELDS = (
    "eligible_indices",
    "eligible_scores",
    "kept_indices",
    "absorbed_indices",
    "absorbed_scores",
)


def scoring_for(name):
    return SCORING_STRATEGIES[name]()


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


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
def test_reading_every_event_changes_nothing(eta, lam, d, policy, pool, n, seed):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), cfg)
    qs, ks, vs = pooled_stream(seed, d, pool, n)
    watched = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    unread = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    for t in range(n):
        out_watched = watched.decode_step(qs[t], ks[t], vs[t])
        event = watched.last_event
        assert event.index == t + 1
        # a second read returns the event built by the first
        assert watched.last_event is event
        assert bits(unread.decode_step(qs[t], ks[t], vs[t])) == bits(out_watched)
    assert bits(watched.window_indices) == bits(unread.window_indices)
    assert bits(watched.sparse_indices) == bits(unread.sparse_indices)
    assert bits(watched.sparse_scores) == bits(unread.sparse_scores)
    assert bits(watched.linear.hidden) == bits(unread.linear.hidden)
    assert bits(watched.linear.normalizer) == bits(unread.linear.normalizer)
    assert watched.absorbed_score_sum.hex() == unread.absorbed_score_sum.hex()
    a, b = watched.last_event, unread.last_event
    assert (a.index, a.evicted_index) == (b.index, b.evicted_index)
    for name in EVENT_FIELDS:
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name


@pytest.mark.parametrize("eta,lam,n", [(3, 4, 40), (0, 4, 40), (3, 0, 40), (0, 0, 9), (5, 6, 11)])
def test_unread_ingest_scores_only_full_evictions(monkeypatch, eta, lam, n):
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(5), cfg), eta, lam)
    ks, vs = SeededRng(6).generator().normal(size=(2, n, 4))
    rows = []

    def spy(phi, values, state):
        rows.append(phi.shape[0])
        return _self_recall_scores(phi, values, state)

    monkeypatch.setattr(cache_mod, "_self_recall_scores", spy)
    eng.ingest(ks, vs)
    # the first eta pairs fill the window and the next lam fill the sparse
    # cache; only the evictions after that absorb a pair
    assert rows == [lam + 1] * (n - eta - lam)
    assert eng.linear.count == n - eta - lam


def test_event_of_an_eviction_with_room_is_scored_on_first_read(monkeypatch):
    eta, lam = 2, 3
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(7), cfg), eta, lam)
    ks, vs = SeededRng(8).generator().normal(size=(2, eta + 2, 4))
    rows = []

    def spy(phi, values, state):
        rows.append(phi.shape[0])
        return _self_recall_scores(phi, values, state)

    monkeypatch.setattr(cache_mod, "_self_recall_scores", spy)
    eng.ingest(ks, vs)
    assert rows == []
    event = eng.last_event
    assert rows == [2]
    assert event.evicted_index == 2
    assert event.eligible_indices.tolist() == event.kept_indices.tolist() == [1, 2]
    assert event.absorbed_indices.size == 0
    eng.last_event
    assert rows == [2]


def test_no_event_before_the_first_step(tmp_path):
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(9), cfg)
    assert LolaCache(cfg, params, 3, 2).last_event is None
    eng = LolaCache(cfg, params, 3, 2)
    eng.ingest(*SeededRng(10).generator().normal(size=(2, 12, 4)))
    assert eng.last_event is not None
    assert LolaCache.from_snapshot(eng.to_snapshot()).last_event is None
