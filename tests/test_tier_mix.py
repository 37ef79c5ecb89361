"""The shared-denominator tier mix against the inline body it replaced.

``LolaCache.attend`` used to compute the three-tier ratio inline; it now
calls ``cache._mix_tiers``. ``reference_attend`` below is that body, over
one block of whole pair rows, [ring slots 0..nw | residents], as the engine
mixes them, so every output must match it bit for bit, and a denominator
that is not positive must still raise. Each output also stays within 1e-12
relative of the earlier two-tier mix (``two_tier_attend``), which took
each step once per tier. A prefill hands over a ``LolaCache``, and
``attend_after_prefill`` is its ``attend``: it is checked against the same
inline mix over the handed-over engine's own rows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lola import AttentionConfig, LolaCache, SeededRng, init_feature_map, prefill
from lola.attention import _feature_row
from lola.cache import _pair_views
from lola.chunkwise import ChunkConfig, attend_after_prefill
from lola.numerics import as_vector
from reference_engine import assert_near, two_tier_attend


def reference_attend(self, query):
    if self.t < 1:
        raise ValueError("attend called before any pair was admitted")
    q = as_vector(query, self.config.head_dim)
    phi_q = _feature_row(self.params, q)
    scale = self.config.scale
    nw, ns = self._wlen, self._slen
    rows = np.concatenate((self._wrows[:nw], self._srows[:ns]))
    values, _, keys = _pair_views(rows, self.config.head_dim, self.config.feature_dim)
    logit = (keys @ q) * scale
    shift = float(logit.max(initial=0.0))
    e = np.exp(logit - shift)
    damp = np.exp(-shift)
    num = e @ values + damp * (phi_q @ self.linear.hidden)
    den = float(e.sum()) + damp * float(phi_q @ self.linear.normalizer)
    if not den > 0.0:
        raise ValueError(f"shared denominator {den:g} is not positive")
    return num / den


def stream(d, n, key_scale, seed):
    cfg = AttentionConfig(d)
    params = init_feature_map(SeededRng(seed), cfg)
    gen = SeededRng(seed).child(1).generator()
    ks = gen.normal(0.0, key_scale, (n, d))
    vs = gen.normal(size=(n, d))
    qs = gen.normal(0.0, key_scale, (4, d))
    return cfg, params, ks, vs, qs


def same_outcome(got, want, *args):
    """Both calls return the same bits, or both raise the same ValueError."""
    try:
        expected = want(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            got(*args)
        assert str(raised.value) == str(exc)
        return False
    assert got(*args).tobytes() == expected.tobytes()
    return True


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([1, 4, 16]),
    eta=st.integers(0, 6),
    lam=st.integers(0, 4),
    n=st.integers(1, 30),
    key_scale=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**16),
)
@example(d=4, eta=0, lam=0, n=5, key_scale=1.0, seed=0)  # linear-only
@example(d=4, eta=3, lam=0, n=12, key_scale=1.0, seed=1)  # no sparse tier
@example(d=4, eta=0, lam=3, n=12, key_scale=1.0, seed=2)  # no window
@example(d=16, eta=8, lam=2, n=6, key_scale=2.0, seed=3)  # nothing evicted yet
def test_attend_matches_the_inline_mix_bit_for_bit(d, eta, lam, n, key_scale, seed):
    cfg, params, ks, vs, qs = stream(d, n, key_scale, seed)
    eng = LolaCache(cfg, params, eta, lam)
    eng.ingest(ks, vs)
    for q in qs:
        if same_outcome(eng.attend, lambda q: reference_attend(eng, q), q):
            assert_near(eng.attend(q), two_tier_attend(eng, q))


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([1, 4, 16]),
    chunk=st.sampled_from([1, 3, 7, 64]),
    lam=st.integers(0, 4),
    n=st.integers(1, 40),
    key_scale=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**16),
)
@example(d=4, chunk=7, lam=0, n=30, key_scale=1.0, seed=0)  # a window with room
@example(d=4, chunk=3, lam=0, n=30, key_scale=1.0, seed=1)  # a full window
@example(d=4, chunk=1, lam=2, n=3, key_scale=1.0, seed=2)  # no sparse resident
@example(d=1, chunk=3, lam=2, n=20, key_scale=1.0, seed=3)  # a window with room beside residents
def test_attend_after_prefill_matches_the_inline_mix_bit_for_bit(d, chunk, lam, n, key_scale, seed):
    cfg, params, ks, vs, qs = stream(d, n, key_scale, seed)
    _, state = prefill(ks, ks, vs, ChunkConfig(chunk, lam), cfg, params)
    for q in qs:
        if same_outcome(
            lambda q: attend_after_prefill(state, q, cfg, params),
            lambda q: reference_attend(state.engine, q),
            q,
        ):
            assert_near(attend_after_prefill(state, q, cfg, params), two_tier_attend(state.engine, q))


@pytest.mark.parametrize("eta, lam", [(0, 0), (3, 0), (0, 3), (3, 3)])
def test_attend_still_rejects_a_nan_normalizer(eta, lam):
    cfg, params, ks, vs, qs = stream(4, 12, 1.0, 5)
    eng = LolaCache(cfg, params, eta, lam)
    eng.ingest(ks, vs)
    eng.linear.normalizer = np.full(cfg.feature_dim, np.nan)
    assert not same_outcome(eng.attend, lambda q: reference_attend(eng, q), qs[0])
    with pytest.raises(ValueError, match="shared denominator nan is not positive"):
        eng.attend(qs[0])


@pytest.mark.parametrize("lam, full_ring", [(0, False), (2, False), (2, True)])
def test_attend_after_prefill_still_rejects_a_nan_normalizer(lam, full_ring):
    # 21 pairs in chunks of 3 leave a full window of 6 whose ring starts at
    # its oldest pair; 20 leave 5 pairs and a free slot
    n = 21 if full_ring else 20
    cfg, params, ks, vs, qs = stream(4, n, 1.0, 6)
    _, state = prefill(ks, ks, vs, ChunkConfig(3, lam), cfg, params)
    assert state.engine.window_size == (6 if full_ring else 5)
    state.linear.normalizer[:] = np.nan
    args = (state, qs[0], cfg, params)
    assert not same_outcome(attend_after_prefill, lambda s, q, *_: reference_attend(s.engine, q), *args)
    with pytest.raises(ValueError, match="shared denominator nan is not positive"):
        attend_after_prefill(*args)
