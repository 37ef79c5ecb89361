"""Bulk ingest: its kernels, its validation, and hostile input.

``LolaCache.ingest`` validates and feature-maps a whole stream once; its
tiers, hidden state, events and absorbed-score total are checked against the
per-token reference engine in ``test_reference_engine.py``. Here: the row
batch feature kernel has the bits of the per-row one, each decode input is
validated once, and bad input is rejected before any pair is admitted.
"""

import numpy as np
import pytest

import lola.cache as cache_mod
from lola import AttentionConfig, LolaCache, SeededRng, feature_map_apply, init_feature_map
from lola.attention import OverflowGuardError, _feature_rows
from reference_engine import bits, scoring_for

@pytest.mark.parametrize("d", [1, 2, 4, 16, 64])
def test_row_batch_kernel_equals_feature_map_apply(d):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(d), cfg)
    xs = SeededRng(100 + d).generator().normal(size=(500, d))
    rows = _feature_rows(params, xs)
    for x, row in zip(xs, rows):
        assert bits(row) == bits(feature_map_apply(params, x))


def test_decode_step_validates_each_input_once(monkeypatch):
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(0), cfg), 2, 2)
    checked = []
    real = cache_mod.as_vector

    def spy(x, dim=None):
        checked.append(dim)
        return real(x, dim)

    monkeypatch.setattr(cache_mod, "as_vector", spy)
    gen = SeededRng(1).generator()
    for q, k, v in gen.normal(size=(6, 3, 4)):
        eng.decode_step(q, k, v)
    # key, value and query, once each per step
    assert len(checked) == 3 * 6


# -- hostile input -------------------------------------------------------------


def primed(policy="self-recall"):
    """An engine with pairs in every tier, and a 500-step stream for it."""
    cfg = AttentionConfig(head_dim=4)
    eng = LolaCache(cfg, init_feature_map(SeededRng(2), cfg), 3, 2, scoring=scoring_for(policy))
    gen = SeededRng(3).generator()
    qs, ks, vs = gen.normal(size=(3, 500, 4)) * 0.5
    eng.ingest(ks[:10], vs[:10], qs[:10])
    assert eng.window_size and eng.sparse_size and eng.linear.count
    return eng, qs, ks, vs


def state_of(eng):
    return (eng.t, bits(eng.window_indices), bits(eng.sparse_indices), bits(eng.linear.hidden))


def rejects(eng, match, *args, error=ValueError):
    before = state_of(eng)
    with pytest.raises(error, match=match):
        eng.ingest(*args)
    assert state_of(eng) == before


def test_ingest_rejects_nan_in_late_row():
    eng, qs, ks, vs = primed()
    vs[400, 1] = np.nan
    rejects(eng, "non-finite", ks, vs)


def test_ingest_rejects_wrong_column_count():
    eng, qs, ks, vs = primed()
    rejects(eng, "expected 4 columns", ks[:, :3], vs[:, :3])


def test_ingest_rejects_row_count_mismatch():
    eng, qs, ks, vs = primed()
    rejects(eng, "expected 500 rows", ks, vs[:499])


def test_ingest_rejects_vector_input():
    eng, qs, ks, vs = primed()
    rejects(eng, "2-D matrix", ks[0], vs[0])


def test_ingest_static_rule_needs_queries():
    eng, qs, ks, vs = primed("attnerr-sq")
    rejects(eng, "needs the stream's queries", ks, vs)
    # a dynamic rule ignores queries, as accumulate_window_scores does
    dyn, _, _, _ = primed()
    dyn.ingest(ks, vs, "not a query matrix")
    assert dyn.t == 510


def test_ingest_rejects_overflowing_late_row():
    eng, qs, ks, vs = primed()
    ks[400] *= 1e3
    rejects(eng, "exceeds the bound", ks, vs, error=OverflowGuardError)
