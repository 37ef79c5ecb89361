"""Which pair an eviction into a full sparse cache absorbs, on the live engine.

Every path is checked against the per-token reference engine in
``test_reference_engine.py``. Here: identical pairs tie exactly and the
older ones stay cached, and a full eviction scores its λ+1 rows in one call.
"""

import numpy as np
import pytest

import lola.cache as cache_mod
from lola import AttentionConfig, LolaCache, SeededRng, init_feature_map
from lola.cache import _self_recall_scores
from reference_engine import ReferenceEngine, assert_same_step, scoring_for


@pytest.mark.parametrize("policy", ["self-recall", "attnerr-sq"])
def test_exact_ties_drop_the_newer_pair(policy):
    cfg = AttentionConfig(head_dim=2)
    params = init_feature_map(SeededRng(3), cfg)
    k, v = np.array([0.3, -0.2]), np.array([1.0, 2.0])
    new = LolaCache(cfg, params, 1, 2, scoring=scoring_for(policy))
    ref = ReferenceEngine(cfg, params, 1, 2, scoring=scoring_for(policy))
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

    def spy(phi, values, state, out=None):
        rows.append(phi.shape[0])
        return _self_recall_scores(phi, values, state, out)

    monkeypatch.setattr(cache_mod, "_self_recall_scores", spy)
    eng.update(gen.normal(size=4), gen.normal(size=4))
    assert rows == [lam + 1]
    assert eng.last_event.absorbed_indices.size == 1
