"""Every decode path against the per-token reference engine, bit for bit.

Each path feeds one stream to a ``LolaCache`` and checks it against
``ReferenceEngine`` after every step it can see: ``t``, the window and sparse
members, the sparse scores, the hidden state, the absorbed-score total, the
ring's slot bytes (pair i in slot (i - 1 - r) mod η, r = 0 for a fresh
engine) and next slot, outputs, and every field of ``last_event``. A run
reads ``last_event`` after every step, or not before a piece of its path
ends. ``bounded`` forces the bounded settle on, which only the self-recall
rule takes. Where a path uses ``ingest``, an engine fed
the same pairs by ``update`` also runs, for the internals the reference does
not hold: the residents' rows and score bounds. The ``handoff`` paths start
from a chunked prefill's engine (chunk η/2) and the reference from the tiers
it hands over, compare an answer at once, then decode on: ``handoff`` with
``update`` first, ``handoff-ingest`` with ``ingest`` first.

The collision replay is checked against the reference's residency, and
prefill's chunk boundary against ``keep_highest``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lola.cache as cache_mod
from lola import AttentionConfig, LolaCache, SeededRng, feature_map_batch, init_feature_map, prefill
from lola.analysis import POLICIES, collision_matrix
from lola.attention import LinearState
from lola.cache import _self_recall_scores
from lola.chunkwise import ChunkConfig
from lola.harness import ExperimentConfig, SyntheticTaskSpec
from lola.harness.experiments import resolve_feature_map
from reference_engine import (
    RULES,
    ReferenceEngine,
    assert_same_engine,
    assert_same_event,
    assert_same_tiers,
    bits,
    keep_highest,
    scoring_for,
    stream,
)

# head and feature widths (d, F). The bounded settle draws only the first
# five: at the others its rows do not yet get the bits of the one call over
# all λ+1 rows (ROADMAP item 3)
WIDTHS = [(1, 2), (2, 4), (4, 8), (16, 32), (64, 128), (17, 34), (18, 36), (1, 32), (2, 32)]
BOUNDED_WIDTHS = WIDTHS[:5]


def pieces(path, n, cut, prefix):
    """How ``path`` feeds rows [0, n): ("update", lo, hi) one step at a time,
    ("decode_step", lo, hi), ("ingest", lo, hi) in one call, or ("prefill",
    0, hi) as the engine a chunked prefill hands over."""
    m, p = int(cut * n), min(prefix, n - 1)
    h = min(max(1, prefix), n)
    a = h + int(cut * (n - h))
    return {
        "update": [("update", 0, n)],
        "decode_step": [("decode_step", 0, n)],
        "ingest": [("ingest", 0, n)],
        "ingest-cut": [("ingest", 0, m), ("ingest", m, n)],
        "prefix": [("update", 0, p), ("ingest", p, n - 1), ("update", n - 1, n)],
        "handoff": [
            ("prefill", 0, h), ("update", h, a), ("decode_step", a, (a + n) // 2),
            ("ingest", (a + n) // 2, n),
        ],
        "handoff-ingest": [("prefill", 0, h), ("ingest", h, a), ("decode_step", a, n)],
    }[path]


def run(path, bounded, eta, lam, d, f, rule, pool, n, cut, prefix, read, seed):
    attn = AttentionConfig(d, f)
    params = init_feature_map(SeededRng(seed), attn)
    qs, ks, vs = stream(seed, d, pool, n)
    plan = pieces(path, n, cut, prefix)
    ref = ReferenceEngine(attn, params, eta, lam, scoring=scoring_for(rule))
    stepped = False  # whether the engine has taken a step

    def check(step=False):
        assert_same_tiers(eng, ref)
        assert bits(eng._wrows) == bits(ref.window)
        assert eng._wnext == ((ref.t - ref.r) % eta if eta else 0)
        if twin is not None and not step:
            assert_same_engine(eng, twin)
        if read:
            event = eng.last_event
            assert_same_event(event, ref.last_event if stepped else None)
            assert eng.last_event is event

    with pytest.MonkeyPatch.context() as mp:
        if bounded:
            mp.setattr(cache_mod, "_BOUNDED_MIN_WORK", 0)
        eng = LolaCache(attn, params, eta, lam, scoring=scoring_for(rule))
        # an engine fed by ``update`` alone, for the internals of ``ingest``
        twin = None
        if any(piece[0] == "ingest" for piece in plan):
            twin = LolaCache(attn, params, eta, lam, scoring=scoring_for(rule))
        for kind, *span in plan:
            if kind == "prefill":
                # the engine a prefill of rows [0, p) hands over, its twin
                # from a second prefill, and the reference from its tiers:
                # the lookback, the residents and the hidden state
                p, c = span[1], eta // 2
                eng, twin = (
                    prefill(qs[:p], ks[:p], vs[:p], ChunkConfig(c, lam), attn, params)[1].engine
                    for _ in range(2)
                )
                r0 = max(0, (-(-p // c) - 2) * c)
                sidx = eng.sparse_indices
                lin = eng.linear
                ref = ReferenceEngine.from_tiers(
                    attn, params, eta, lam, p, (ks[r0:p], vs[r0:p]),
                    (ks[sidx - 1], vs[sidx - 1], sidx),
                    LinearState(lin.hidden.copy(), lin.normalizer.copy(), lin.count),
                    eng.absorbed_score_sum,
                )
                assert eng.last_event is None
            else:
                lo, hi = span
                if kind == "ingest":
                    eng.ingest(ks[lo:hi], vs[lo:hi], qs[lo:hi])
                for t in range(lo, hi):
                    if kind == "decode_step":
                        assert bits(eng.decode_step(qs[t], ks[t], vs[t])) == bits(
                            ref.decode_step(qs[t], ks[t], vs[t])
                        )
                    else:
                        ref.update(ks[t], vs[t])
                        ref.accumulate_window_scores(qs[t])
                        if kind == "update":
                            eng.update(ks[t], vs[t])
                            eng.accumulate_window_scores(qs[t])
                    if twin is not None:
                        twin.update(ks[t], vs[t])
                        twin.accumulate_window_scores(qs[t])
                    stepped = True
                    if kind != "ingest":
                        check(step=True)
            check()
            if ref.t:
                for q in (qs[0], qs[-1]):
                    assert bits(eng.attend(q)) == bits(ref.attend(q))
    assert eng._bounded == bounded
    assert_same_event(eng.last_event, ref.last_event if stepped else None)


@st.composite
def cases(draw, bounded, handoff):
    """One stream and engine shape. The bounded settle draws λ up to 64 and
    a stream that reaches a full sparse cache; the rest draw every rule. A
    hand-off runs the self-recall rule with a window of two chunks."""
    eta = 2 * draw(st.integers(1, 3)) if handoff else draw(st.integers(0, 6))
    if bounded:
        rule, lam = "self-recall", draw(st.integers(1, 64))
        d, f = draw(st.sampled_from(BOUNDED_WIDTHS))
    else:
        rule = "self-recall" if handoff else draw(st.sampled_from(RULES))
        lam = draw(st.integers(0, 8))
        d, f = draw(st.sampled_from(WIDTHS))
    n = draw(st.integers(1, 60)) + (eta + lam if bounded else 0)
    return dict(
        eta=eta, lam=lam, d=d, f=f, rule=rule, n=n,
        pool=draw(st.sampled_from([None, 1, 2, 3, 4, 5, 6])),
        cut=draw(st.floats(0.0, 1.0)),
        prefix=draw(st.integers(0, 30)),
        read=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def case(**fields):
    """A drawn case written out, for ``@example``."""
    defaults = dict(d=4, f=8, rule="self-recall", pool=5, cut=0.5, prefix=0, read=False)
    return {**defaults, **fields}


# (path, bounded): examples per run, at least those of the property each
# replaces; the retired properties' @examples, by the run that replays them
RUNS = {
    ("update", False): 40,
    ("update", True): 20,
    ("decode_step", False): 150,
    ("decode_step", True): 60,
    ("ingest", False): 150,
    ("ingest", True): 20,
    ("ingest-cut", False): 60,
    ("ingest-cut", True): 20,
    ("prefix", False): 50,
    ("prefix", True): 50,
    ("handoff", False): 100,
    ("handoff", True): 40,
    ("handoff-ingest", False): 60,
    ("handoff-ingest", True): 20,
}
# a hand-off whose ring has room beside a non-empty sparse tier, with
# ``ingest`` the first call after it; only a hand-off reaches that state
ROOM_BESIDE_RESIDENTS = case(eta=4, lam=3, prefix=5, n=6, cut=0.0, seed=9)
# the same state, then one ``ingest`` that fills the ring's room, fills the
# sparse cache's and goes on evicting into a full one
ROOM_THEN_EVICTIONS = case(eta=4, lam=3, prefix=5, n=14, cut=1.0, seed=10)
# a 41-row scoring call at d=16 on a stream of 3 repeated pairs, so that
# each full eviction breaks ties among 41 rows
LONG_BLOCK_TIES = case(eta=4, lam=40, d=16, f=32, pool=3, n=120, read=True, seed=12)
EXAMPLES = {
    ("ingest", False): [LONG_BLOCK_TIES],
    # a ring that has wrapped, then a stream that fills the sparse cache
    ("prefix", False): [
        case(eta=3, lam=4, pool=2, prefix=5, n=23, seed=0),
        case(eta=0, lam=0, d=2, f=4, pool=1, n=7, seed=2),
    ],
    ("prefix", True): [case(eta=3, lam=4, pool=None, prefix=5, n=23, seed=1)],
    # a full ring at an odd chunk count (its oldest pair in slot 0, r = 2 and
    # r = 3), and a window with room, each decoding right after the hand-off
    ("handoff", False): [
        case(eta=4, lam=3, prefix=6, n=30, cut=0.0, seed=4),
        case(eta=6, lam=5, pool=None, prefix=27, n=60, cut=0.0, seed=5),
        case(eta=4, lam=3, prefix=5, n=30, cut=0.0, seed=6),
        ROOM_BESIDE_RESIDENTS,
    ],
    ("handoff", True): [
        case(eta=4, lam=8, prefix=18, n=50, cut=0.0, seed=7),
        case(eta=4, lam=8, pool=None, prefix=17, n=50, cut=0.0, seed=8),
    ],
    ("handoff-ingest", False): [ROOM_THEN_EVICTIONS],
    ("handoff-ingest", True): [case(eta=4, lam=8, pool=None, prefix=17, n=50, cut=1.0, seed=11)],
}


@pytest.mark.parametrize("path, bounded", list(RUNS))
def test_every_path_matches_the_reference(path, bounded):
    @settings(max_examples=RUNS[path, bounded], deadline=None)
    @given(drawn=cases(bounded, path.startswith("handoff")))
    def check(drawn):
        run(path, bounded, **drawn)

    for drawn in EXAMPLES.get((path, bounded), []):
        check = example(drawn=drawn)(check)
    check()


def test_the_room_example_ingests_into_a_ring_with_room_beside_residents():
    drawn = ROOM_BESIDE_RESIDENTS
    d, eta, lam, seed = drawn["d"], drawn["eta"], drawn["lam"], drawn["seed"]
    plan = pieces("handoff", drawn["n"], drawn["cut"], drawn["prefix"])
    h = plan[0][2]
    assert [piece[0] for piece in plan[1:] if piece[1] < piece[2]] == ["ingest"]
    attn = AttentionConfig(d, drawn["f"])
    qs, ks, vs = stream(seed, d, drawn["pool"], drawn["n"])
    config = ChunkConfig(eta // 2, lam)
    eng = prefill(qs[:h], ks[:h], vs[:h], config, attn, init_feature_map(SeededRng(seed), attn))[1].engine
    assert 0 < eng.window_size < eng.window_capacity == eta
    assert eng.sparse_size > 0


def test_the_room_then_evictions_example_fills_the_room_and_evicts_in_one_ingest():
    drawn = ROOM_THEN_EVICTIONS
    d, eta, lam, seed, n = drawn["d"], drawn["eta"], drawn["lam"], drawn["seed"], drawn["n"]
    plan = pieces("handoff-ingest", n, drawn["cut"], drawn["prefix"])
    h = plan[0][2]
    assert [piece for piece in plan[1:] if piece[1] < piece[2]] == [("ingest", h, n)]
    attn = AttentionConfig(d, drawn["f"])
    qs, ks, vs = stream(seed, d, drawn["pool"], n)
    config = ChunkConfig(eta // 2, lam)
    eng = prefill(qs[:h], ks[:h], vs[:h], config, attn, init_feature_map(SeededRng(seed), attn))[1].engine
    assert 0 < eng.window_size < eng.window_capacity == eta
    assert 0 < eng.sparse_size < eng.sparse_capacity == lam
    absorbed = eng.linear.count
    # more rows than the ring's and the sparse cache's room together, so the
    # one call fills both and then settles into a full sparse cache
    assert n - h > (eta - eng.window_size) + (lam - eng.sparse_size)
    eng.ingest(ks[h:], vs[h:])
    assert (eng.window_size, eng.sparse_size) == (eta, lam)
    assert eng.linear.count > absorbed


def test_the_long_block_example_breaks_ties_among_41_rows():
    drawn = LONG_BLOCK_TIES
    d, eta, lam, seed, n = drawn["d"], drawn["eta"], drawn["lam"], drawn["seed"], drawn["n"]
    attn = AttentionConfig(d, drawn["f"])
    qs, ks, vs = stream(seed, d, drawn["pool"], n)
    eng = LolaCache(attn, init_feature_map(SeededRng(seed), attn), eta, lam)
    tied = 0
    for k, v in zip(ks, vs):
        eng.update(k, v)
        scores = eng.last_event.eligible_scores
        if eng.last_event.absorbed_indices.size:
            assert scores.size == lam + 1
            tied += int((scores == scores.min()).sum() > 1)
    assert not eng._bounded and eng.linear.count == n - eta - lam
    assert tied > 0


# -- the collision replay ------------------------------------------------------

D = 4
ATTN = AttentionConfig(D)
MAPS = {
    "random": init_feature_map(SeededRng(3), ATTN),
    "distilled": resolve_feature_map(
        ExperimentConfig(seed=3), SyntheticTaskSpec(haystack_len=16, head_dim=D, seed=3), ATTN
    ),
}


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    fmap=st.sampled_from(sorted(MAPS)),
    eta=st.integers(0, 5),
    lam=st.integers(0, 5),
    n=st.integers(1, 40),
    pool=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
@example(policy="lola", fmap="distilled", eta=2, lam=3, n=40, pool=3, seed=0)
@example(policy="linear-only", fmap="random", eta=0, lam=0, n=1, pool=1, seed=0)
@example(policy="lola", fmap="random", eta=5, lam=5, n=10, pool=2, seed=1)
def test_collision_replay_matches_the_reference(policy, fmap, eta, lam, n, pool, seed):
    """``errors`` holds every arrived pair's self-recall error against the
    state at each step, with the feature map's batch bits, and 0.0 while
    the reference holds the pair in full rank; ``absorbed_at`` is the first
    step it does not."""
    gen = SeededRng(seed).generator()
    # keys drawn from a small pool, so equal keys (and equal scores) recur
    keys = gen.normal(size=(pool, D))[gen.integers(0, pool, n)]
    values = gen.normal(size=(n, D))
    params = MAPS[fmap]
    cm = collision_matrix(keys, values, policy, eta, lam, ATTN, params)
    sizes = {"linear-only": (0, 0), "window-only": (eta, 0), "lola": (eta, lam)}[policy]
    ref = ReferenceEngine(ATTN, params, *sizes)
    phi = feature_map_batch(params, keys)
    errors = np.full((n, n), np.nan)
    absorbed_at = np.zeros(n, dtype=np.int64)
    for t in range(1, n + 1):
        ref.update(keys[t - 1], values[t - 1])
        held = np.concatenate([ref.window_indices, ref.sparse_indices]) - 1
        errors[t - 1, :t] = _self_recall_scores(phi[:t], values[:t], ref.linear)
        errors[t - 1, held] = 0.0
        absorbed = np.ones(t, dtype=bool)
        absorbed[held] = False
        absorbed_at[:t][absorbed & (absorbed_at[:t] == 0)] = t
    assert bits(cm.errors) == bits(errors)
    assert bits(cm.absorbed_at) == bits(absorbed_at)


# -- the selection rule at prefill's chunk boundary ----------------------------


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 4, 16]),
    chunk=st.integers(1, 8),
    lam=st.integers(0, 8),
    pool=st.sampled_from([None, 1, 2, 3, 6]),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
def test_every_chunk_boundary_keeps_the_highest(d, chunk, lam, pool, n, seed):
    attn = AttentionConfig(d)
    qs, ks, vs = stream(seed, d, pool, n)
    _, state = prefill(qs, ks, vs, ChunkConfig(chunk, lam), attn, init_feature_map(SeededRng(seed), attn))
    assert len(state.events) == max(0, -(-n // chunk) - 2)
    for event in state.events:
        elig = event.eligible_indices
        assert (np.diff(elig) > 0).all()  # arrival order
        kept = keep_highest(event.eligible_scores, lam)
        assert bits(event.kept_indices) == bits(elig[kept])
        assert bits(event.absorbed_indices) == bits(elig[~kept])


# -- a hand-off that covers the stream -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 4, 16, 17]),
    chunk=st.integers(1, 8),
    lam=st.integers(0, 8),
    pool=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_a_handoff_of_at_most_two_chunks_is_a_fresh_engine(d, chunk, lam, pool, seed, data):
    """While nothing has left the lookback (n <= 2c), the engine a prefill
    hands over is the engine an ``ingest`` of the same pairs builds, slots
    and rows included."""
    n = data.draw(st.integers(1, 2 * chunk))
    attn = AttentionConfig(d)
    params = init_feature_map(SeededRng(seed), attn)
    qs, ks, vs = stream(seed, d, pool, n + 1)
    eng = prefill(qs[:n], ks[:n], vs[:n], ChunkConfig(chunk, lam), attn, params)[1].engine
    fresh = LolaCache(attn, params, 2 * chunk, lam)
    fresh.ingest(ks[:n], vs[:n])
    # a hand-off has taken no step of its own, so it has no event to compare
    assert eng.last_event is None
    assert_same_tiers(eng, fresh)
    for name in ("_wrows", "_srows"):
        assert bits(getattr(eng, name)) == bits(getattr(fresh, name)), name
    assert (eng._wnext, eng._rmax) == (fresh._wnext, fresh._rmax)
    out = eng.decode_step(qs[n], ks[n], vs[n])
    assert bits(out) == bits(fresh.decode_step(qs[n], ks[n], vs[n]))
    assert_same_engine(eng, fresh)
