"""Prefill's chunk boundary on the pair-row store against the column-array
boundary it replaced.

``reference_prefill`` keeps that earlier ``prefill`` verbatim: it holds the
sparse residents in four column arrays, concatenates them with the chunk
that left the lookback, ranks all of them with a ``lexsort`` (ties keep the
older pair), and sorts the kept and absorbed pairs back into arrival order.
The row store must match it bit for bit: outputs, the tiers the engine
hands over (the lookback as its window, oldest first from slot 0, the
residents, the hidden state and the absorbed-score total), the answer after
the prefill and every ``ChunkEvent`` array. The answer is the engine's mix
over one block of pair rows, [lookback | residents], and stays within 1e-12
relative of the earlier mix, which took each tier on its own. The earlier end-of-run scoring
of the residents is left out: the engine scores them when they are read.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lola.chunkwise as chunkwise_mod
from lola import AttentionConfig, SeededRng, init_feature_map
from lola.attention import LinearState, _feature_batch, _feature_row
from lola.cache import _mix_tiers, _pair_rows, _pair_views, _self_recall_scores
from lola.chunkwise import ChunkConfig, ChunkEvent, attend_after_prefill, prefill
from lola.harness.synthetic import SyntheticTaskSpec, gen_niah
from lola.numerics import as_matrix
from reference_engine import assert_near, two_tier_mix


def reference_prefill(qs, ks, vs, config, attn, params):
    # a caller may pass the keys as the queries (``run_trial`` does): map them once
    shared = ks is qs
    qs = as_matrix(qs, cols=attn.head_dim)
    n = qs.shape[0]
    if n < 1:
        raise ValueError("need at least one token")
    ks = as_matrix(ks, rows=n, cols=attn.head_dim)
    vs = as_matrix(vs, rows=n, cols=attn.head_dim)
    c = config.chunk_size
    lam = config.sparse_capacity

    phi_q = _feature_batch(params, qs)
    phi_k = phi_q if shared else _feature_batch(params, ks)
    linear = LinearState.zeros(attn.feature_dim, attn.head_dim)
    sk = np.zeros((lam, attn.head_dim))
    sv = np.zeros((lam, attn.head_dim))
    sphi = np.zeros((lam, attn.feature_dim))
    sidx = np.zeros(lam, dtype=np.int64)
    slen = 0

    out = np.empty_like(vs)
    events: list[ChunkEvent] = []
    peak = 0
    absorbed_score_sum = 0.0
    n_chunks = -(-n // c)
    # queries may not look ahead inside their own chunk; a short last chunk
    # takes the top-left corner
    ahead = np.triu(np.ones((c, c), dtype=bool), k=1)

    for m in range(n_chunks):
        c0 = m * c
        c1 = min(n, c0 + c)
        lb0 = max(0, c0 - 2 * c)
        kb = np.concatenate([sk[:slen], ks[lb0:c1]], axis=0)
        vb = np.concatenate([sv[:slen], vs[lb0:c1]], axis=0)
        peak = max(peak, kb.shape[0])
        if kb.shape[0] > 3 * c + lam:
            raise RuntimeError("full-rank storage exceeded its fixed bound")

        logits = (qs[c0:c1] @ kb.T) * attn.scale
        width = c1 - c0
        col0 = slen + (c0 - lb0)
        logits[:, col0:][ahead[:width, :width]] = -np.inf
        shift = np.maximum(logits.max(axis=1), 0.0)
        e = np.exp(logits - shift[:, None])
        damp = np.exp(-shift)
        num = e @ vb + damp[:, None] * (phi_q[c0:c1] @ linear.hidden)
        den = e.sum(axis=1) + damp * (phi_q[c0:c1] @ linear.normalizer)
        out[c0:c1] = num / den[:, None]

        # the chunk two behind just left the lookback: settle it
        if m >= 2:
            e0, e1 = (m - 2) * c, (m - 1) * c
            elig_k = np.concatenate([sk[:slen], ks[e0:e1]], axis=0)
            elig_v = np.concatenate([sv[:slen], vs[e0:e1]], axis=0)
            elig_phi = np.concatenate([sphi[:slen], phi_k[e0:e1]], axis=0)
            elig_idx = np.concatenate(
                [sidx[:slen], np.arange(e0 + 1, e1 + 1, dtype=np.int64)]
            )
            scores = _self_recall_scores(elig_phi, elig_v, linear)
            order = np.lexsort((elig_idx, -scores))
            kept = order[:lam]
            dropped = order[lam:]
            dropped = dropped[np.argsort(elig_idx[dropped])]
            linear.absorb(elig_phi[dropped], elig_v[dropped])
            absorbed_score_sum += float(scores[dropped].sum())

            kept = kept[np.argsort(elig_idx[kept])]
            nk = kept.shape[0]
            sk[:nk] = elig_k[kept]
            sv[:nk] = elig_v[kept]
            sphi[:nk] = elig_phi[kept]
            sidx[:nk] = elig_idx[kept]
            slen = nk
            events.append(
                ChunkEvent(
                    chunk=m - 2,
                    eligible_indices=elig_idx,
                    eligible_scores=scores,
                    kept_indices=elig_idx[kept].copy(),
                    absorbed_indices=elig_idx[dropped].copy(),
                )
            )

    r0 = max(0, (n_chunks - 2) * c)
    state = SimpleNamespace(
        linear=linear,
        sparse_keys=sk[:slen].copy(),
        sparse_values=sv[:slen].copy(),
        sparse_indices=sidx[:slen].copy(),
        recent_keys=ks[r0:].copy(),
        recent_values=vs[r0:].copy(),
        recent_indices=np.arange(r0 + 1, n + 1, dtype=np.int64),
        processed=n_chunks,
        peak_full_rank=peak,
        absorbed_score_sum=absorbed_score_sum,
        events=events,
    )
    return out, state


def assert_same_bits(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, what
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def as_pair_rows(keys, values, attn):
    """Key and value views of ``keys`` and ``values`` laid out as the engine's
    pair rows, so that products over them see the engine's strides."""
    rows = _pair_rows(values, np.zeros((len(keys), attn.feature_dim)), keys, 1)
    v, _, k = _pair_views(rows, attn.head_dim, attn.feature_dim)
    return k, v


def assert_prefill_matches_reference(qs, ks, vs, config, attn, params, probe):
    out, state = prefill(qs, ks, vs, config, attn, params)
    ref_out, ref = reference_prefill(qs, ks, vs, config, attn, params)
    assert_same_bits(out, ref_out, "outputs")
    eng = state.engine
    nw, ns = eng.window_size, eng.sparse_size
    for got, want, what in (
        (eng._wk[:nw], ref.recent_keys, "recent keys"),
        (eng._wv[:nw], ref.recent_values, "recent values"),
        (eng._widx[:nw], ref.recent_indices, "recent indices"),
        (eng._sk[:ns], ref.sparse_keys, "sparse keys"),
        (eng._sv[:ns], ref.sparse_values, "sparse values"),
        (eng.sparse_indices, ref.sparse_indices, "sparse indices"),
        (eng.linear.hidden, ref.linear.hidden, "linear.hidden"),
        (eng.linear.normalizer, ref.linear.normalizer, "linear.normalizer"),
    ):
        assert_same_bits(got, want, what)
    assert eng.linear.count == ref.linear.count
    # the float's repr pins its bits
    assert repr(eng.absorbed_score_sum) == repr(ref.absorbed_score_sum)
    assert (eng.t, state.processed, state.peak_full_rank) == (
        len(ref_out), ref.processed, ref.peak_full_rank
    )
    q = np.asarray(probe, dtype=float)
    phi_q = _feature_row(params, q)
    # the engine mixes one block, [lookback | residents]; the earlier mix
    # took each tier on its own
    block = (np.concatenate((ref.recent_keys, ref.sparse_keys)),
             np.concatenate((ref.recent_values, ref.sparse_values)))
    want = _mix_tiers(q, phi_q, attn.scale, *as_pair_rows(*block, attn), ref.linear)
    answer = attend_after_prefill(state, probe, attn, params)
    assert_same_bits(answer, want, "answer after prefill")
    assert_near(answer, two_tier_mix(
        q, phi_q, attn.scale,
        *as_pair_rows(ref.recent_keys, ref.recent_values, attn),
        *as_pair_rows(ref.sparse_keys, ref.sparse_values, attn),
        ref.linear,
    ))
    assert len(state.events) == len(ref.events)
    for eg, ew in zip(state.events, ref.events):
        assert eg.chunk == ew.chunk
        for g in dataclasses.fields(ChunkEvent)[1:]:
            assert_same_bits(getattr(eg, g.name), getattr(ew, g.name), g.name)
    return state


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([1, 2, 4, 16]),
    chunk=st.integers(1, 8),
    lam=st.integers(0, 6),
    n=st.integers(1, 80),
    distinct=st.integers(1, 80),
    shared=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_row_store_matches_the_column_boundary_bit_for_bit(d, chunk, lam, n, distinct, shared, seed):
    attn = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), attn)
    gen = SeededRng(seed + 1).generator()
    # drawing pairs from a pool of `distinct` repeats whole pairs: their
    # scores tie exactly, so the older-pair rule decides
    ks0, vs0 = gen.normal(size=(2, distinct, d))
    pick = gen.integers(0, distinct, size=n)
    ks, vs = ks0[pick], vs0[pick]
    qs = ks if shared else gen.normal(size=(n, d))
    assert_prefill_matches_reference(
        qs, ks, vs, ChunkConfig(chunk, lam), attn, params, gen.normal(size=d)
    )


def test_row_store_matches_at_the_prefill_long_shape():
    spec = SyntheticTaskSpec(
        haystack_len=8192, head_dim=16, key_distribution="clustered",
        value_codebook_size=16, seed=3,
    )
    inst = gen_niah(spec, seed=3)
    attn = AttentionConfig(16)
    params = init_feature_map(SeededRng(3), attn)
    state = assert_prefill_matches_reference(
        inst.keys, inst.keys, inst.values, ChunkConfig(64, 64), attn, params, inst.probe
    )
    assert state.linear.count == 8192 - 2 * 64 - 64


def test_row_store_matches_at_d64_with_a_wide_sparse_cache():
    gen = SeededRng(4).generator()
    attn = AttentionConfig(64)
    params = init_feature_map(SeededRng(4), attn)
    ks, vs, qs = gen.normal(size=(3, 1500, 64)) * 0.3
    for queries in (ks, qs):
        state = assert_prefill_matches_reference(
            queries, ks, vs, ChunkConfig(64, 256), attn, params, qs[0]
        )
        assert state.sparse_indices.shape == (256,)


@pytest.mark.parametrize("n, chunk, lam", [(1, 4, 2), (11, 4, 0), (40, 4, 3), (61, 8, 20), (64, 3, 5)])
def test_boundary_probes_count_one_scoring_call_per_boundary(monkeypatch, n, chunk, lam):
    # perfbench counts chunkwise.score_rows through the module's
    # ``_self_recall_scores`` and attention.absorb_rows through
    # ``LinearState.absorb``: pin what each boundary passes them
    scored, absorbed = [], []
    absorb = LinearState.absorb

    def score_spy(phi, values, state):
        scored.append(phi.shape[0])
        return _self_recall_scores(phi, values, state)

    def absorb_spy(self, phi_rows, v_rows):
        absorbed.append(phi_rows.shape[0])
        absorb(self, phi_rows, v_rows)

    monkeypatch.setattr(chunkwise_mod, "_self_recall_scores", score_spy)
    monkeypatch.setattr(LinearState, "absorb", absorb_spy)
    attn = AttentionConfig(4)
    params = init_feature_map(SeededRng(5), attn)
    ks, vs = SeededRng(6).generator().normal(size=(2, n, 4))
    _, state = prefill(ks, ks, vs, ChunkConfig(chunk, lam), attn, params)

    boundaries = max(0, -(-n // chunk) - 2)
    residents = [min(lam, b * chunk) for b in range(boundaries + 1)]
    # slen + c rows per boundary; the hand-off scores nothing
    assert scored == [r + chunk for r in residents[:-1]]
    assert absorbed == [r + chunk - min(lam, r + chunk) for r in residents[:-1]]
    assert sum(absorbed) == state.linear.count
    assert len(state.events) == boundaries
