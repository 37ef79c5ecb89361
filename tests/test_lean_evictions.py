"""Evictions into a full sparse cache, settled as one run over reused buffers.

Under a dynamic rule ``ingest`` hands all of its evictions into a full sparse
cache to ``LolaCache._settle`` at once, and ``update`` hands it a run of one.
Each eviction scores its λ+1 rows into the engine's own buffers. Every path is
checked bit for bit against the per-token reference engine in
``test_reference_engine.py``, at λ of at most 8 where drawn. Here: the same
at the recall benchmark's shape (d=16, η=λ=64, n=512, clustered keys, the
distilled map), where each eviction scores 65 rows; and an event once read
keeps its scores while later evictions reuse the buffers.
"""

import pytest

from lola import AttentionConfig, SeededRng, init_feature_map
from lola.analysis import engine_for_policy
from lola.harness import ExperimentConfig, SyntheticTaskSpec
from lola.harness.experiments import resolve_feature_map
from lola.harness.synthetic import gen_niah
from reference_engine import EVENT_FIELDS, assert_same_engine, bits, stream

ETA = LAM = 64
TASK = SyntheticTaskSpec(
    haystack_len=512, head_dim=16, key_distribution="clustered", value_codebook_size=16, seed=0
)


@pytest.mark.parametrize("policy", ["lola", "window-only", "linear-only", "lola-altscore:overestimate"])
def test_ingest_matches_update_at_the_recall_benchmark_shape(policy):
    attn = AttentionConfig(TASK.head_dim)
    params = resolve_feature_map(ExperimentConfig(feature_map="distill", seed=3), TASK, attn)
    inst = gen_niah(TASK, seed=4)
    bulk = engine_for_policy(policy, attn, params, ETA, LAM)
    loop = engine_for_policy(policy, attn, params, ETA, LAM)
    assert not bulk._bounded
    # queries equal keys, as in a recall trial; a dynamic rule ignores them
    bulk.ingest(inst.keys, inst.values, inst.keys)
    for k, v in zip(inst.keys, inst.values):
        loop.update(k, v)
        loop.accumulate_window_scores(k)
    held = bulk.window_capacity + bulk.sparse_capacity
    assert bulk.linear.count == TASK.haystack_len - held
    assert bits(bulk._rows) == bits(loop._rows)
    assert_same_engine(bulk, loop)
    assert bits(bulk.attend(inst.probe)) == bits(loop.attend(inst.probe))


@pytest.mark.parametrize("first", ["update", "ingest"])
@pytest.mark.parametrize("rule", ["self-recall", "overestimate"])
def test_a_read_event_keeps_its_scores_while_the_buffers_are_reused(first, rule):
    eta, lam, d, n = 3, 4, 4, 60
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(13), cfg)
    qs, ks, vs = stream(13, d, None, n)
    policy = "lola" if rule == "self-recall" else f"lola-altscore:{rule}"
    eng = engine_for_policy(policy, cfg, params, eta, lam)
    m = 20  # past eta + lam, so the last step is a full eviction
    if first == "update":
        for t in range(m):
            eng.update(ks[t], vs[t])
            eng.accumulate_window_scores(qs[t])
    else:
        eng.ingest(ks[:m], vs[:m], qs[:m])
    held = eng.last_event
    assert held.absorbed_indices.size == 1
    kept = {name: bits(getattr(held, name)) for name in EVENT_FIELDS}
    for t in range(m, m + 10):
        eng.update(ks[t], vs[t])
        eng.accumulate_window_scores(qs[t])
    eng.ingest(ks[m + 10 :], vs[m + 10 :], qs[m + 10 :])
    # the later evictions rewrote the buffers: the held event is not read from them
    assert bits(eng.last_event.eligible_scores) != kept["eligible_scores"]
    for name in EVENT_FIELDS:
        assert bits(getattr(held, name)) == kept[name], name
