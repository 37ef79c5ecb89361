"""``last_event`` is built when read.

An eviction stores only what it decided; ``LolaCache.last_event`` builds the
``StepEvent`` from that and the residents left behind. That reading the
event after every step changes nothing is checked on every path in
``test_reference_engine.py``. Here: an eviction into a sparse cache with
room scores nothing until the event is read, and a cache that has taken no
step, fresh or handed over by a prefill, has no event.
"""

import pytest

import lola.cache as cache_mod
from lola import AttentionConfig, ChunkConfig, LolaCache, SeededRng, init_feature_map, prefill
from lola.cache import _self_recall_scores

@pytest.mark.parametrize("eta,lam,n", [(3, 4, 40), (0, 4, 40), (3, 0, 40), (0, 0, 9), (5, 6, 11)])
def test_unread_ingest_scores_only_full_evictions(monkeypatch, eta, lam, n):
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(5), cfg), eta, lam)
    ks, vs = SeededRng(6).generator().normal(size=(2, n, 4))
    rows = []

    def spy(phi, values, state, out=None):
        rows.append(phi.shape[0])
        return _self_recall_scores(phi, values, state, out)

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

    def spy(phi, values, state, out=None):
        rows.append(phi.shape[0])
        return _self_recall_scores(phi, values, state, out)

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


def test_no_event_before_the_first_step():
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(9), cfg)
    assert LolaCache(cfg, params, 3, 2).last_event is None
    eng = LolaCache(cfg, params, 3, 2)
    ks, vs = SeededRng(10).generator().normal(size=(2, 12, 4))
    eng.ingest(ks, vs)
    assert eng.last_event is not None
    assert prefill(ks, ks, vs, ChunkConfig(2, 2), cfg, params)[1].engine.last_event is None
