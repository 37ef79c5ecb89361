"""The staging-row settle against the concatenate + lexsort settle it replaced.

``ReferenceCache`` keeps that earlier ``update``/``_settle`` pair verbatim: it
concatenates the residents with the evicted pair, ranks all of them with a
``lexsort`` (ties keep the older pair), absorbs the losers in arrival order,
and re-scores the survivors so that stored scores stay current. The engine
must match it bit for bit on every step, including exact ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lola.cache as cache_mod
from lola import AttentionConfig, LolaCache, SeededRng, init_feature_map
from lola.attention import feature_map_apply
from lola.cache import SCORING_STRATEGIES, StepEvent, _self_recall_scores
from lola.numerics import as_vector

POLICIES = ["self-recall", "overestimate", "attnerr-sq", "attnerr-abs"]


def scoring_for(name):
    return SCORING_STRATEGIES[name]()


class ReferenceCache(LolaCache):
    """The engine with its earlier settle; scores are stored, not read live."""

    @property
    def sparse_scores(self) -> np.ndarray:
        return self._sscore[: self._slen].copy()

    def update(self, key, value, index: int | None = None) -> None:
        """Admit the next pair: window in; on overflow the oldest pair is
        scored against the sparse residents and the losers are absorbed."""
        idx = self.t + 1
        if index is not None and index != idx:
            raise ValueError(f"index discontinuity: expected {idx}, got {index}")
        key = as_vector(key, self.config.head_dim)
        value = as_vector(value, self.config.head_dim)
        phi_k = feature_map_apply(self.params, key)

        evicted = None
        if self.window_capacity == 0:
            evicted = (key, value, phi_k, idx, 0.0)
        else:
            slot = self._wnext
            if self._wlen == self.window_capacity:
                evicted = (
                    self._wk[slot].copy(),
                    self._wv[slot].copy(),
                    self._wphi[slot].copy(),
                    int(self._widx[slot]),
                    float(self._wacc[slot]),
                )
            else:
                self._wlen += 1
            self._wk[slot] = key
            self._wv[slot] = value
            self._wphi[slot] = phi_k
            self._widx[slot] = idx
            self._wacc[slot] = 0.0
            self._wnext = (slot + 1) % self.window_capacity

        self.t = idx
        if evicted is None:
            self._step = StepEvent(idx, None)
        else:
            self._settle(evicted, idx)
        self._assert_conserved()

    def _settle(self, evicted, step_index: int) -> None:
        ek, ev, ephi, eidx, eacc = evicted
        ns = self._slen
        lam = self.sparse_capacity
        elig_k = np.concatenate([self._sk[:ns], ek[None]], axis=0)
        elig_v = np.concatenate([self._sv[:ns], ev[None]], axis=0)
        elig_phi = np.concatenate([self._sphi[:ns], ephi[None]], axis=0)
        elig_idx = np.append(self._sidx[:ns], eidx)
        if self.scoring.dynamic:
            scores = _self_recall_scores(elig_phi, elig_v, self.linear)
        else:
            scores = np.append(self._sscore[:ns], eacc)

        # top-lam by score; ties keep the older pair
        order = np.lexsort((elig_idx, -scores))
        kept = order[:lam]
        dropped = order[lam:]
        dropped = dropped[np.argsort(elig_idx[dropped])]
        for row in dropped:
            self.linear.update(elig_phi[row], elig_v[row])

        kept = kept[np.argsort(elig_idx[kept])]
        nk = kept.shape[0]
        self._sk[:nk] = elig_k[kept]
        self._sv[:nk] = elig_v[kept]
        self._sphi[:nk] = elig_phi[kept]
        self._sidx[:nk] = elig_idx[kept]
        self._slen = nk
        if self.scoring.dynamic and nk:
            self._sscore[:nk] = _self_recall_scores(self._sphi[:nk], self._sv[:nk], self.linear)
        else:
            self._sscore[:nk] = scores[kept]

        self._step = StepEvent(
            index=step_index,
            evicted_index=eidx,
            eligible_indices=elig_idx,
            eligible_scores=scores,
            kept_indices=elig_idx[kept].copy(),
            absorbed_indices=elig_idx[dropped].copy(),
            absorbed_scores=scores[dropped].copy(),
        )


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


def assert_same_step(new: LolaCache, ref: ReferenceCache, out_new, out_ref):
    assert bits(out_new) == bits(out_ref)
    a, b = new.last_event, ref.last_event
    assert (a.index, a.evicted_index) == (b.index, b.evicted_index)
    for name in (
        "eligible_indices",
        "eligible_scores",
        "kept_indices",
        "absorbed_indices",
        "absorbed_scores",
    ):
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name
    assert bits(new.window_indices) == bits(ref.window_indices)
    assert bits(new.sparse_indices) == bits(ref.sparse_indices)
    assert bits(new.sparse_scores) == bits(ref.sparse_scores)
    assert bits(new.linear.hidden) == bits(ref.linear.hidden)
    assert bits(new.linear.normalizer) == bits(ref.linear.normalizer)
    assert new.linear.count == ref.linear.count


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
def test_settle_matches_reference_bit_for_bit(eta, lam, d, policy, pool, n, seed):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), cfg)
    gen = SeededRng(seed + 1).generator()
    # a small pool of pairs, drawn with repeats, so equal scores happen often
    qs, ks, vs = gen.normal(size=(3, pool, d))
    picks = gen.integers(0, pool, size=n)
    new = LolaCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    ref = ReferenceCache(cfg, params, eta, lam, scoring=scoring_for(policy))
    for i in picks:
        out_new = new.decode_step(qs[i], ks[i], vs[i])
        out_ref = ref.decode_step(qs[i], ks[i], vs[i])
        assert_same_step(new, ref, out_new, out_ref)
    assert bits(new.attend(qs[0])) == bits(ref.attend(qs[0]))


@pytest.mark.parametrize("policy", ["self-recall", "attnerr-sq"])
def test_exact_ties_drop_the_newer_pair(policy):
    cfg = AttentionConfig(head_dim=2)
    params = init_feature_map(SeededRng(3), cfg)
    k, v = np.array([0.3, -0.2]), np.array([1.0, 2.0])
    new = LolaCache(cfg, params, 1, 2, scoring=scoring_for(policy))
    ref = ReferenceCache(cfg, params, 1, 2, scoring=scoring_for(policy))
    ties = 0
    for _ in range(12):
        out_new, out_ref = new.decode_step(k, k, v), ref.decode_step(k, k, v)
        assert_same_step(new, ref, out_new, out_ref)
        scores = new.last_event.eligible_scores
        ties += scores.size > 1 and np.unique(scores).size < scores.size
    assert ties > 0
    # identical pairs tie; the cache keeps the two oldest
    assert new.sparse_indices.tolist() == [1, 2]


def test_full_eviction_makes_one_scoring_call_of_lambda_plus_one_rows(monkeypatch):
    eta, lam = 3, 4
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(5), cfg), eta, lam)
    gen = SeededRng(6).generator()
    for _ in range(eta + lam):
        eng.update(gen.normal(size=4), gen.normal(size=4))
    assert eng.window_size == eta and eng.sparse_size == lam

    rows = []

    def spy(phi, values, state):
        rows.append(phi.shape[0])
        return _self_recall_scores(phi, values, state)

    monkeypatch.setattr(cache_mod, "_self_recall_scores", spy)
    eng.update(gen.normal(size=4), gen.normal(size=4))
    assert rows == [lam + 1]
    assert eng.last_event.absorbed_indices.size == 1
