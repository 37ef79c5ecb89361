"""Ring-free bulk ingest over the sparse row store.

Under a dynamic rule ``LolaCache.ingest`` stages each evicted pair straight
from its input rows, takes evictions into a sparse cache with room as one
block, and writes only the last η rows into the window ring. That it leaves
every bit where a loop of ``update`` calls leaves it, from a fresh engine, a
prefix of ``update`` calls whose ring has wrapped or a prefill's hand-off, is
checked in ``test_reference_engine.py``. Here: a pending event keeps the
scores of its own eviction, the block path scores nothing, and a handed-over
window with room fills its own slots.
"""

import pytest

import lola.cache as cache_mod
from lola import AttentionConfig, ChunkConfig, LolaCache, SeededRng, init_feature_map, prefill
from lola.attention import _feature_rows
from reference_engine import EVENT_FIELDS, assert_same_engine, bits, stream


@pytest.mark.parametrize("read", ["sparse_scores", "attend"])
@pytest.mark.parametrize("bounded", [False, True])
def test_an_event_keeps_the_scores_of_its_own_eviction(monkeypatch, read, bounded):
    if bounded:
        monkeypatch.setattr(cache_mod, "_BOUNDED_MIN_WORK", 0)
    eta, lam, d, n = 3, 4, 4, 40
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(3), cfg)
    qs, ks, vs = stream(3, d, None, n + 5)
    eng = LolaCache(cfg, params, eta, lam)
    twin = LolaCache(cfg, params, eta, lam)
    eng.ingest(ks[:n], vs[:n])
    twin.ingest(ks[:n], vs[:n])
    assert twin.last_event.absorbed_indices.size == 1
    # reading the residents' scores or an answer first leaves the pending
    # event's scores as the eviction computed them
    if read == "sparse_scores":
        eng.sparse_scores
    else:
        eng.attend(qs[0])
    held = eng.last_event
    expected = twin.last_event
    for name in EVENT_FIELDS:
        assert bits(getattr(held, name)) == bits(getattr(expected, name)), name
    # later steps do not reach into an event already read
    kept = {name: bits(getattr(held, name)) for name in EVENT_FIELDS}
    eng.ingest(ks[n:], vs[n:])
    assert eng.last_event is not held
    for name in EVENT_FIELDS:
        assert bits(getattr(held, name)) == kept[name], name


def test_evictions_into_room_are_one_block(monkeypatch):
    # the block path absorbs nothing and scores nothing
    eta, lam = 4, 6
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(5), cfg), eta, lam)
    qs, ks, vs = stream(5, 4, None, eta + lam)
    calls = []
    monkeypatch.setattr(cache_mod.LolaCache, "_settle", lambda self, i, run=None: calls.append(i))
    eng.ingest(ks, vs)
    assert calls == []
    assert eng.window_size == eta and eng.sparse_size == lam and eng.linear.count == 0
    assert eng.sparse_indices.tolist() == list(range(1, lam + 1))
    assert eng.window_indices.tolist() == list(range(lam + 1, lam + eta + 1))
    event = eng.last_event
    assert (event.index, event.evicted_index) == (eta + lam, lam)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_a_restored_window_with_room_fills_its_own_slots(n):
    # a prefill whose last chunk is short hands over a ring with room, here 6
    # pairs in a window of 8 beside 2 residents. It holds its pairs from slot
    # 0, oldest first, each with its φ row beside it, and writes next into
    # its first free slot. At an odd chunk count, slot 0 is not the slot
    # (i - 1) mod η of a fresh engine
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(8), cfg)
    qs, ks, vs = stream(8, 4, None, 11 + n)
    eng, loop = (
        prefill(qs[:10], ks[:10], vs[:10], ChunkConfig(4, 2), cfg, params)[1].engine for _ in range(2)
    )
    assert (eng.t, eng.window_size, eng._wnext, eng.sparse_size) == (10, 6, 6, 2)
    assert eng._widx[:6].tolist() == [5, 6, 7, 8, 9, 10]
    assert bits(eng._wk[:6]) == bits(ks[4:10]) and bits(eng._wv[:6]) == bits(vs[4:10])
    assert bits(eng._wphi[:6]) == bits(_feature_rows(params, ks[4:10]))
    assert not eng._wrows[6:].any()
    for engine in (eng, loop):
        engine.update(ks[10], vs[10])
    assert eng.window_indices.tolist() == [5, 6, 7, 8, 9, 10, 11]
    assert (eng._widx[:7].tolist(), eng._wnext) == ([5, 6, 7, 8, 9, 10, 11], 7)
    eng.ingest(ks[11:], vs[11:])
    for k, v in zip(ks[11:], vs[11:]):
        loop.update(k, v)
    assert_same_engine(eng, loop)
    assert eng.window_indices.tolist() == list(range(max(5, n + 4), n + 12))
    assert bits(eng.attend(qs[0])) == bits(loop.attend(qs[0]))
