"""Ring-free bulk ingest over the sparse row store, against the per-pair loop.

Under a dynamic rule ``LolaCache.ingest`` stages each evicted pair straight
from its input rows, takes evictions into a sparse cache with room as one
block, and writes only the last η rows into the window ring. Whatever the
state it starts from (a prefix of ``update`` calls, or a restored snapshot
whose ring has wrapped), it must leave every bit where a loop of ``update``
calls leaves it: the tiers, the ring's slot order, the hidden state, the
scores, the absorbed-score total and the last event.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lola.cache as cache_mod
from lola import AttentionConfig, LolaCache, SeededRng, init_feature_map
from lola.cache import SCORING_STRATEGIES

EVENT_FIELDS = (
    "eligible_indices",
    "eligible_scores",
    "kept_indices",
    "absorbed_indices",
    "absorbed_scores",
)


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


def stream(seed, d, pool, n):
    """``n`` rows, drawn with repeats from ``pool`` triples when ``pool`` is
    set, so that scores tie exactly."""
    gen = SeededRng(seed + 1).generator()
    if pool:
        qs, ks, vs = gen.normal(size=(3, pool, d))
        picks = gen.integers(0, pool, size=n)
        return qs[picks], ks[picks], vs[picks]
    return gen.normal(size=(3, n, d)) * 0.5


def assert_same_engine(a: LolaCache, b: LolaCache):
    assert a.t == b.t
    assert a.to_snapshot() == b.to_snapshot()
    # the ring's slot order, which sets the bits of every window sum, and
    # every resident's row and score bounds
    assert bits(a._wrows) == bits(b._wrows)
    assert a._wnext == b._wnext
    ns = a.sparse_size
    for name in ("_srows", "_slo", "_shi", "_svnorm"):
        assert bits(getattr(a, name)[:ns]) == bits(getattr(b, name)[:ns]), name
    assert bits(a.sparse_indices) == bits(b.sparse_indices)
    assert bits(a.sparse_scores) == bits(b.sparse_scores)
    assert bits(a.linear.hidden) == bits(b.linear.hidden)
    assert bits(a.linear.normalizer) == bits(b.linear.normalizer)
    assert a.linear.count == b.linear.count
    assert a.absorbed_score_sum.hex() == b.absorbed_score_sum.hex()
    ea, eb = a.last_event, b.last_event
    assert (ea is None) == (eb is None)
    if ea is not None:
        assert (ea.index, ea.evicted_index) == (eb.index, eb.evicted_index)
        for name in EVENT_FIELDS:
            assert bits(getattr(ea, name)) == bits(getattr(eb, name)), name


@settings(max_examples=200, deadline=None)
@given(
    eta=st.integers(0, 6),
    lam=st.integers(0, 8),
    d=st.sampled_from([1, 2, 4, 16]),
    policy=st.sampled_from(["self-recall", "self-recall", "overestimate"]),
    pool=st.sampled_from([None, 1, 2, 5]),
    prefix=st.integers(0, 30),
    length=st.sampled_from(["short", "window", "long"]),
    extra=st.integers(0, 40),
    restore=st.booleans(),
    bounded=st.booleans(),
    seed=st.integers(0, 2**16),
)
# a restored ring that has wrapped, then a stream that fills the sparse cache
@example(eta=3, lam=4, d=4, policy="self-recall", pool=2, prefix=5, length="long", extra=9,
         restore=True, bounded=False, seed=0)
@example(eta=3, lam=4, d=4, policy="self-recall", pool=None, prefix=5, length="long", extra=9,
         restore=True, bounded=True, seed=1)
@example(eta=0, lam=0, d=2, policy="self-recall", pool=1, prefix=0, length="long", extra=5,
         restore=False, bounded=False, seed=2)
def test_ingest_after_any_prefix_equals_the_update_loop(
    eta, lam, d, policy, pool, prefix, length, extra, restore, bounded, seed
):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), cfg)
    # n < η, n = η, or long enough to cross from room to a full sparse cache
    n = {"short": max(1, eta - 1), "window": max(1, eta), "long": eta + lam + 1 + extra}[length]
    qs, ks, vs = stream(seed, d, pool, prefix + n + 1)

    def scoring():
        return SCORING_STRATEGIES[policy]()

    def feed(eng, lo, hi):
        for t in range(lo, hi):
            eng.update(ks[t], vs[t])
            eng.accumulate_window_scores(qs[t])

    with pytest.MonkeyPatch.context() as mp:
        if bounded:
            mp.setattr(cache_mod, "_BOUNDED_MIN_WORK", 0)
        if restore:
            first = LolaCache(cfg, params, eta, lam, scoring=scoring())
            feed(first, 0, prefix)
            snap = first.to_snapshot()
            bulk = LolaCache.from_snapshot(snap)
            loop = LolaCache.from_snapshot(snap)
        else:
            bulk = LolaCache(cfg, params, eta, lam, scoring=scoring())
            loop = LolaCache(cfg, params, eta, lam, scoring=scoring())
            feed(bulk, 0, prefix)
            feed(loop, 0, prefix)
    assert bulk._bounded == loop._bounded == (bounded and policy == "self-recall" and lam > 0)

    bulk.ingest(ks[prefix : prefix + n], vs[prefix : prefix + n], qs[prefix : prefix + n])
    feed(loop, prefix, prefix + n)
    assert_same_engine(bulk, loop)
    # a later read and a later step see the ring in the same order
    assert bits(bulk.attend(qs[-1])) == bits(loop.attend(qs[-1]))
    feed(bulk, prefix + n, prefix + n + 1)
    feed(loop, prefix + n, prefix + n + 1)
    assert_same_engine(bulk, loop)
    assert bits(bulk.attend(qs[0])) == bits(loop.attend(qs[0]))


@pytest.mark.parametrize("read", ["sparse_scores", "to_snapshot", "attend"])
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
    # reading the residents' scores or a snapshot first leaves the pending
    # event's scores as the eviction computed them
    if read == "sparse_scores":
        eng.sparse_scores
    elif read == "to_snapshot":
        eng.to_snapshot()
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
    monkeypatch.setattr(cache_mod.LolaCache, "_settle", lambda self, i: calls.append(i))
    eng.ingest(ks, vs)
    assert calls == []
    assert eng.window_size == eta and eng.sparse_size == lam and eng.linear.count == 0
    assert eng.sparse_indices.tolist() == list(range(1, lam + 1))
    assert eng.window_indices.tolist() == list(range(lam + 1, lam + eta + 1))
    event = eng.last_event
    assert (event.index, event.evicted_index) == (eta + lam, lam)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_a_restored_window_with_room_fills_its_own_slots(n):
    # a snapshot may hold fewer window pairs than its capacity after pairs
    # have left the stream (here: one saved with a smaller window). Pair i
    # still sits in slot (i - 1) % capacity, with its φ row beside it
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(8), cfg)
    qs, ks, vs = stream(8, 4, None, 10 + n)
    first = LolaCache(cfg, params, 3, 2)
    first.ingest(ks[:10], vs[:10])
    snap = first.to_snapshot()
    snap["config"]["window_capacity"] = 5
    bulk, loop = LolaCache.from_snapshot(snap), LolaCache.from_snapshot(snap)
    assert bulk.window_size == 3 and bulk.t == 10
    bulk.ingest(ks[10:], vs[10:])
    for k, v in zip(ks[10:], vs[10:]):
        loop.update(k, v)
    assert_same_engine(bulk, loop)
    assert bits(bulk.attend(qs[0])) == bits(loop.attend(qs[0]))
