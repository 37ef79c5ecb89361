"""The bounded settle against the one-call settle it stands in for.

At large shapes an eviction into a full sparse cache under the self-recall
rule scores exactly only the rows whose lower score bound does not exceed the
least upper bound. It must absorb the same pair with the same bits as the
reference engine (checked on every path in ``test_reference_engine.py``),
keep every bound sound, pad a lone candidate to two rows, and be taken only
where the shape makes it pay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lola.cache as cache_mod
import lola.chunkwise as chunkwise
from lola import AttentionConfig, ChunkConfig, LolaCache, SeededRng, init_feature_map, prefill
from lola.cache import _BOUND_FLOOR, _BOUND_SLACK, _norm, _recall_rows, _self_recall_scores
from lola.harness.suite import DEFAULT_SUITE
from lola.harness.synthetic import SyntheticTaskSpec, gen_niah
from reference_engine import ReferenceEngine, assert_same_step, bits, stream


def bounded_engine(make, *args, **kwargs):
    """An engine that takes the bounded settle whatever its shape."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache_mod, "_BOUNDED_MIN_WORK", 0)
        return make(*args, **kwargs)


class CheckedCache(LolaCache):
    """Checks every bound against the exact scores before each bounded settle."""

    settles = 0

    def _settle_bounded(self, step_index):
        ns = self._slen
        exact = _self_recall_scores(self._sphi[: ns + 1], self._sv[: ns + 1], self.linear)
        lo, hi = self._slo[:ns], self._shi[:ns]
        assert (lo <= exact[:ns]).all(), (lo - exact[:ns]).max()
        assert (exact[:ns] <= hi).all(), (exact[:ns] - hi).max()
        # the staged row's bound: its prediction lies within _rmax of zero
        assert exact[ns] <= (_norm(self._sv[ns]) + self._rmax) * (1.0 + _BOUND_SLACK) + _BOUND_FLOOR
        self.settles += 1
        super()._settle_bounded(step_index)


@settings(max_examples=60, deadline=None)
@given(
    eta=st.integers(0, 5),
    lam=st.integers(1, 32),
    d=st.sampled_from([1, 4, 16, 64]),
    pool=st.sampled_from([None, 2, 6]),
    scale=st.sampled_from([0.01, 1.0, 100.0]),
    extra=st.integers(1, 80),
    seed=st.integers(0, 2**16),
)
def test_bounds_hold_at_every_bounded_settle(eta, lam, d, pool, scale, extra, seed):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), cfg)
    qs, ks, vs = stream(seed, d, pool, eta + lam + extra)
    eng = bounded_engine(CheckedCache, cfg, params, eta, lam)
    eng.ingest(ks, vs * scale)
    assert eng.settles == extra


def test_bounds_hold_after_a_restore(monkeypatch):
    # a prefill's hand-off restores residents whose bounds are open and an
    # _rmax bounded from the hidden state alone
    cfg = AttentionConfig(head_dim=16)
    params = init_feature_map(SeededRng(4), cfg)
    qs, ks, vs = stream(4, 16, None, 300)
    monkeypatch.setattr(chunkwise, "LolaCache", CheckedCache)
    _, state = bounded_engine(prefill, qs[:100], ks[:100], vs[:100], ChunkConfig(2, 24), cfg, params)
    eng = state.engine
    assert type(eng) is CheckedCache and eng.sparse_size == 24
    assert eng._bounded and np.isfinite(eng._rmax)
    eng.ingest(ks[100:], vs[100:])
    assert eng.settles == 200


def test_a_lone_candidate_is_padded_to_two_rows(monkeypatch):
    # large values fill the sparse cache first; every later pair is small,
    # so no resident's lower bound reaches the staged row's upper bound
    eta, lam, d = 1, 3, 4
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(11), cfg)
    gen = SeededRng(12).generator()
    n = 40
    ks = gen.normal(size=(n, d)) * 0.5
    vs = gen.normal(size=(n, d))
    vs[:lam] *= 100.0
    qs = gen.normal(size=(n, d))
    calls = []

    def spy(phi, values, state, den, *out):
        calls.append(phi.copy())
        return _recall_rows(phi, values, state, den, *out)

    new = bounded_engine(LolaCache, cfg, params, eta, lam)
    ref = ReferenceEngine(cfg, params, eta, lam)
    one_call = LolaCache(cfg, params, eta, lam)
    assert not one_call._bounded
    monkeypatch.setattr(cache_mod, "_recall_rows", spy)
    for q, k, v in zip(qs, ks, vs):
        out_new, out_ref = new.decode_step(q, k, v), ref.decode_step(q, k, v)
        assert_same_step(new, ref, out_new, out_ref)
        one_call.decode_step(q, k, v)
        assert new.absorbed_score_sum.hex() == one_call.absorbed_score_sum.hex()
    lone = [c for c in calls if c.shape[0] == 2 and bits(c[0]) == bits(c[1])]
    assert len(lone) > n // 2


@pytest.mark.parametrize("scale", [1e-160, 1e154])
def test_extreme_values_absorb_the_same_pairs(scale):
    # squares of such values underflow or overflow: the bounds must stay
    # sound on the rounded scores, and an infinite score bounds nothing
    eta, lam, d, n = 2, 6, 4, 120
    cfg = AttentionConfig(head_dim=d)
    for seed in range(15):
        params = init_feature_map(SeededRng(seed), cfg)
        gen = SeededRng(seed + 1).generator()
        pool = gen.normal(size=(5, d))
        ks = gen.normal(size=(n, d)) * 0.5
        vs = pool[gen.integers(0, 5, size=n)] * np.exp(2.0 * gen.normal(size=(n, 1))) * scale
        new = bounded_engine(LolaCache, cfg, params, eta, lam)
        one_call = LolaCache(cfg, params, eta, lam)
        with np.errstate(over="ignore", invalid="ignore"):
            new.ingest(ks, vs)
            one_call.ingest(ks, vs)
        assert bits(new.sparse_indices) == bits(one_call.sparse_indices), seed
        assert bits(new.linear.hidden) == bits(one_call.linear.hidden), seed
        assert new.absorbed_score_sum.hex() == one_call.absorbed_score_sum.hex(), seed


def test_bounded_settle_scores_few_rows_on_a_clustered_stream(monkeypatch):
    eta, lam, d = 16, 64, 16
    task = SyntheticTaskSpec(haystack_len=800, head_dim=d, key_distribution="clustered", seed=2)
    inst = gen_niah(task, seed=2)
    cfg = AttentionConfig(head_dim=d)
    eng = bounded_engine(LolaCache, cfg, init_feature_map(SeededRng(2), cfg), eta, lam)
    rows = []

    def spy(phi, values, state, den):
        rows.append(phi.shape[0])
        return _recall_rows(phi, values, state, den)

    monkeypatch.setattr(cache_mod, "_recall_rows", spy)
    eng.ingest(inst.keys, inst.values)
    assert len(rows) == 800 - eta - lam
    assert np.mean(rows) < (lam + 1) / 2


def _suite_shapes():
    """(d, feature_dim, λ) of every engine the default suite builds."""
    for exp in DEFAULT_SUITE["experiments"]:
        if exp["kind"] == "gram-study":
            continue
        d = exp["d"]
        f = exp.get("feature_dim") or 2 * d
        if exp["kind"] == "recall":
            yield from ((d, f, var["sparse"]) for var in exp["variants"])
        elif exp["kind"] == "ablation":
            yield d, f, exp["budget"] - exp["budget"] // 2
        else:
            yield d, f, exp["sparse"]


@pytest.mark.parametrize(
    "d, feature_dim, lam, bounded",
    [
        *((d, f, lam, False) for d, f, lam in _suite_shapes()),
        (16, 32, 128, False),  # acceptance criterion 05, largest sparse cache
        (16, 32, 64, False),  # criterion 06 at budget 128, and the recall-batch benchmark
        (64, 128, 256, True),  # the decode-long benchmark
    ],
)
def test_the_path_follows_the_shape(d, feature_dim, lam, bounded):
    cfg = AttentionConfig(head_dim=d, feature_dim=feature_dim)
    eng = LolaCache(cfg, init_feature_map(SeededRng(0), cfg), 8, lam)
    assert eng._bounded is bounded


def test_static_rules_never_take_the_bounded_path(monkeypatch):
    monkeypatch.setattr(cache_mod, "_BOUNDED_MIN_WORK", 0)
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(0), cfg)
    for name, rule in cache_mod.SCORING_STRATEGIES.items():
        if not rule.dynamic:
            assert not LolaCache(cfg, params, 2, 4, scoring=rule())._bounded, name
    assert not LolaCache(cfg, params, 2, 0)._bounded
