"""Engine contracts: scoring, eviction, conservation, tier-combined outputs."""

import itertools
import json

import numpy as np
import pytest

from lola import (
    AttentionConfig,
    LinearState,
    LolaCache,
    SeededRng,
    feature_map_apply,
    feature_map_batch,
    init_feature_map,
    load_feature_map,
    load_snapshot,
    save_snapshot,
    self_recall_score,
    softmax_attention_oracle,
)
from lola.cache import SCORING_STRATEGIES, StaticScoring, _self_recall_scores


@pytest.fixture
def setup():
    cfg = AttentionConfig(head_dim=4, feature_dim=8)
    params = init_feature_map(SeededRng(0), cfg)
    return cfg, params


def make_engine(setup, eta, lam, **kw):
    cfg, params = setup
    return LolaCache(cfg, params, eta, lam, **kw)


# -- self-recall score -------------------------------------------------------


def test_score_zero_for_sole_stored_pair(setup):
    cfg, params = setup
    gen = SeededRng(1).generator()
    k, v = gen.normal(size=4), gen.normal(size=4)
    phi_k = feature_map_apply(params, k)
    state = LinearState.zeros(8, 4)
    state.update(phi_k, v)
    assert self_recall_score(phi_k, v, state) <= 1e-10


def test_score_is_distance_to_predicted_value(setup):
    cfg, params = setup
    gen = SeededRng(2).generator()
    k, v, v2 = gen.normal(size=4), gen.normal(size=4), gen.normal(size=4)
    phi_k = feature_map_apply(params, k)
    state = LinearState.zeros(8, 4)
    state.update(phi_k, v)
    expected = float(np.linalg.norm(v - v2))
    assert self_recall_score(phi_k, v2, state) == pytest.approx(expected, rel=1e-10)


def test_score_empty_state_convention(setup):
    cfg, params = setup
    v = np.array([3.0, 4.0, 0.0, 0.0])
    state = LinearState.zeros(8, 4)
    assert self_recall_score(np.ones(8), v, state) == pytest.approx(5.0)


def test_score_matches_direct_formula_on_random_states(setup):
    cfg, params = setup
    gen = SeededRng(3).generator()
    ks = gen.normal(size=(20, 4))
    vs = gen.normal(size=(20, 4))
    phis = feature_map_batch(params, ks)
    state = LinearState.zeros(8, 4)
    for i in range(20):
        state.update(phis[i], vs[i])
    hidden = phis.T @ vs
    norm = phis.sum(axis=0)
    for i in range(20):
        pred = (phis[i] @ hidden) / float(phis[i] @ norm)
        expected = float(np.linalg.norm(pred - vs[i]))
        assert self_recall_score(phis[i], vs[i], state) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("absorbed", [0, 1, 5], ids=["empty", "one", "five"])
def test_the_scalar_score_is_the_row_score_of_one_row(setup, absorbed):
    cfg, params = setup
    gen = SeededRng(31).generator()
    state = LinearState.zeros(8, 4)
    for _ in range(absorbed):
        state.update(feature_map_apply(params, gen.normal(size=4)), gen.normal(size=4))
    phi, v = feature_map_apply(params, gen.normal(size=4)), gen.normal(size=4)
    got = self_recall_score(phi, v, state)
    assert type(got) is float
    assert got.hex() == float(_self_recall_scores(phi[None], v[None], state)[0]).hex()


# -- update / eviction --------------------------------------------------------


def test_no_eviction_before_window_fills(setup):
    eng = make_engine(setup, eta=8, lam=4)
    gen = SeededRng(4).generator()
    for t in range(8):
        eng.update(gen.normal(size=4), gen.normal(size=4))
        assert eng.sparse_size == 0
        assert eng.linear.count == 0
    assert eng.window_size == 8


def test_lambda_zero_absorbs_every_eviction(setup):
    eng = make_engine(setup, eta=4, lam=0)
    gen = SeededRng(5).generator()
    for t in range(10):
        eng.update(gen.normal(size=4), gen.normal(size=4))
    assert eng.sparse_size == 0
    assert eng.linear.count == 6
    assert eng.window_size == 4


def test_index_discontinuity_rejected(setup):
    eng = make_engine(setup, eta=2, lam=1)
    eng.update(np.ones(4), np.ones(4), index=1)
    with pytest.raises(ValueError, match="discontinuity"):
        eng.update(np.ones(4), np.ones(4), index=5)


def brute_force_top_lam(indices, scores, lam):
    """Best lam-subset by total score; ties prefer the lexicographically
    smallest sorted index tuple, i.e. older pairs."""
    best = None
    for combo in itertools.combinations(range(len(indices)), min(lam, len(indices))):
        total = sum(scores[i] for i in combo)
        key = (-total, tuple(sorted(indices[i] for i in combo)))
        if best is None or key < best[0]:
            best = (key, combo)
    return {int(indices[i]) for i in best[1]}


@pytest.mark.parametrize("lam", [1, 2, 3, 4])
def test_top_lam_matches_subset_enumeration(setup, lam):
    cfg, params = setup
    gen = SeededRng(6 + lam).generator()
    for trial in range(60):
        eng = make_engine(setup, eta=1, lam=lam)
        n = int(gen.integers(lam + 2, 11))
        for t in range(n):
            eng.update(gen.normal(size=4), gen.normal(size=4))
        event = eng.last_event
        if event.evicted_index is None:
            continue
        expected = brute_force_top_lam(
            event.eligible_indices, event.eligible_scores, lam
        )
        assert set(event.kept_indices.tolist()) == expected
        assert set(eng.sparse_indices.tolist()) == expected


def test_tie_break_keeps_older_pair(setup):
    cfg, params = setup

    class ConstantScoring(StaticScoring):
        name = "constant"

        def term(self, e, p):
            return np.zeros_like(e)

    # all static scores equal (zero): the kept resident must be the oldest
    eng = make_engine(setup, eta=1, lam=1, scoring=ConstantScoring())
    gen = SeededRng(9).generator()
    for t in range(5):
        eng.update(gen.normal(size=4), gen.normal(size=4))
    assert eng.sparse_indices.tolist() == [1]


def test_top_lam_ordering_invariant(setup):
    # min kept score >= max absorbed score, measured at selection time
    eng = make_engine(setup, eta=2, lam=3)
    gen = SeededRng(10).generator()
    for t in range(40):
        eng.update(gen.normal(size=4), gen.normal(size=4))
        event = eng.last_event
        if event.evicted_index is None or not event.absorbed_indices.size:
            continue
        sel = {int(i): s for i, s in zip(event.eligible_indices, event.eligible_scores)}
        kept_min = min(sel[int(i)] for i in event.kept_indices)
        absorbed_max = max(sel[int(i)] for i in event.absorbed_indices)
        assert kept_min >= absorbed_max


def test_conservation_across_configs(setup):
    gen = SeededRng(11).generator()
    for eta, lam in [(0, 0), (1, 0), (0, 3), (3, 2), (8, 4)]:
        eng = make_engine(setup, eta=eta, lam=lam)
        for t in range(60):
            eng.update(gen.normal(size=4), gen.normal(size=4))
            assert eng.window_size + eng.sparse_size + eng.linear.count == eng.t


def test_tier_membership_invariants(setup):
    # window indices are the contiguous newest block; sparse is disjoint,
    # duplicate-free, and index-sorted
    eng = make_engine(setup, eta=5, lam=3)
    gen = SeededRng(30).generator()
    for t in range(1, 41):
        eng.update(gen.normal(size=4), gen.normal(size=4))
        window = eng.window_indices.tolist()
        sparse = eng.sparse_indices.tolist()
        expected_window = list(range(max(1, t - 4), t + 1))
        assert window == expected_window
        assert len(set(sparse)) == len(sparse)
        assert sparse == sorted(sparse)
        assert not set(window) & set(sparse)


# -- attend / decode ----------------------------------------------------------


def test_attend_matches_oracle_while_window_covers(setup):
    cfg, params = setup
    gen = SeededRng(12).generator()
    n = 10
    qs, ks, vs = gen.normal(size=(3, n, 4))
    oracle = softmax_attention_oracle(qs, ks, vs, cfg.scale)
    eng = make_engine(setup, eta=16, lam=3)
    for t in range(n):
        out = eng.decode_step(qs[t], ks[t], vs[t])
        np.testing.assert_allclose(out, oracle[t], rtol=1e-9, atol=1e-12)


def test_attend_empty_hidden_state_is_plain_softmax(setup):
    # one sparse resident + full window, nothing absorbed
    cfg, params = setup

    class FifoScoring(StaticScoring):
        name = "fifo"

        def term(self, e, p):
            return np.zeros_like(e)

    eng = make_engine(setup, eta=2, lam=3, scoring=FifoScoring())
    gen = SeededRng(13).generator()
    ks = gen.normal(size=(3, 4))
    vs = gen.normal(size=(3, 4))
    for t in range(3):
        eng.update(ks[t], vs[t])
    assert eng.linear.count == 0 and eng.sparse_size == 1
    q = gen.normal(size=4)
    logits = (ks @ q) * cfg.scale
    w = np.exp(logits - logits.max())
    expected = (w @ vs) / w.sum()
    np.testing.assert_allclose(eng.attend(q), expected, rtol=1e-9)


def test_attend_matches_direct_three_term_formula(setup):
    cfg, params = setup
    eng = make_engine(setup, eta=3, lam=2)
    gen = SeededRng(14).generator()
    ks = gen.normal(size=(12, 4))
    vs = gen.normal(size=(12, 4))
    for t in range(12):
        eng.update(ks[t], vs[t])
    assert eng.linear.count > 0 and eng.sparse_size == 2 and eng.window_size == 3
    q = gen.normal(size=4)
    phi_q = feature_map_apply(params, q)

    # independent evaluation from the engine's reported tier contents
    snap = eng.to_snapshot()
    num = phi_q @ eng.linear.hidden
    den = float(phi_q @ eng.linear.normalizer)
    for pair in snap["sparse"] + snap["window"]:
        w = float(np.exp(cfg.scale * (q @ np.array(pair["key"]))))
        num = num + w * np.array(pair["value"])
        den += w
    np.testing.assert_allclose(eng.attend(q), num / den, rtol=1e-9)


def test_first_token_output_is_its_value(setup):
    eng = make_engine(setup, eta=4, lam=2)
    gen = SeededRng(15).generator()
    k, v, q = gen.normal(size=4), gen.normal(size=4), gen.normal(size=4)
    np.testing.assert_allclose(eng.decode_step(q, k, v), v, rtol=1e-12)


def test_decode_outputs_stay_in_value_hull(setup):
    eng = make_engine(setup, eta=16, lam=8)
    gen = SeededRng(16).generator()
    n = 128
    ks = gen.normal(size=(n, 4))
    vs = gen.normal(size=(n, 4))
    qs = gen.normal(size=(n, 4))
    for t in range(n):
        out = eng.decode_step(qs[t], ks[t], vs[t])
        lo = vs[: t + 1].min(axis=0) - 1e-9
        hi = vs[: t + 1].max(axis=0) + 1e-9
        assert (out >= lo).all() and (out <= hi).all()


def test_lambda_zero_equals_window_plus_linear_baseline(setup):
    cfg, params = setup
    gen = SeededRng(17).generator()
    n = 48
    qs, ks, vs = gen.normal(size=(3, n, 4))
    a = make_engine(setup, eta=6, lam=0)
    b = make_engine(setup, eta=6, lam=0)
    outs_a = [a.decode_step(qs[t], ks[t], vs[t]) for t in range(n)]
    outs_b = [b.decode_step(qs[t], ks[t], vs[t]) for t in range(n)]
    np.testing.assert_array_equal(np.array(outs_a), np.array(outs_b))
    np.testing.assert_array_equal(a.linear.hidden, b.linear.hidden)


def test_attend_before_first_token_rejected(setup):
    eng = make_engine(setup, eta=2, lam=1)
    with pytest.raises(ValueError):
        eng.attend(np.ones(4))


def test_window_capacity_zero_is_pure_linear(setup):
    cfg, params = setup
    eng = make_engine(setup, eta=0, lam=0)
    gen = SeededRng(18).generator()
    k, v = gen.normal(size=4), gen.normal(size=4)
    eng.update(k, v)
    assert eng.linear.count == 1 and eng.window_size == 0
    # single-pair recall: output equals the stored value for any query
    np.testing.assert_allclose(eng.attend(gen.normal(size=4)), v, rtol=1e-9)


# -- snapshots ----------------------------------------------------------------


def test_snapshot_roundtrip_preserves_behavior(tmp_path, setup):
    cfg, params = setup
    eng = make_engine(setup, eta=3, lam=2)
    gen = SeededRng(19).generator()
    stream = gen.normal(size=(20, 2, 4))
    for k, v in stream:
        eng.update(k, v)
    path = tmp_path / "state.json"
    save_snapshot(eng, path)
    restored = load_snapshot(path)
    assert restored.t == eng.t
    assert restored.sparse_indices.tolist() == eng.sparse_indices.tolist()

    q = gen.normal(size=4)
    np.testing.assert_allclose(restored.attend(q), eng.attend(q), rtol=1e-12)

    # both continue identically
    k, v = gen.normal(size=4), gen.normal(size=4)
    a = eng.decode_step(q, k, v)
    b = restored.decode_step(q, k, v)
    np.testing.assert_allclose(a, b, rtol=1e-12)
    assert restored.window_indices.tolist() == eng.window_indices.tolist()


def snapshot_after(setup, eta, lam, n, seed=20):
    eng = make_engine(setup, eta=eta, lam=lam)
    gen = SeededRng(seed).generator()
    for _ in range(n):
        eng.update(gen.normal(size=4), gen.normal(size=4))
    return eng.to_snapshot()


@pytest.mark.parametrize("tier", ["window", "sparse"])
def test_snapshot_over_capacity_rejected(setup, tier):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    snap[tier].append(dict(snap[tier][0]))
    with pytest.raises(ValueError, match=tier):
        LolaCache.from_snapshot(snap)


def test_snapshot_window_not_ending_at_t_rejected(setup):
    snap = snapshot_after(setup, eta=2, lam=1, n=5)
    assert [e["index"] for e in snap["window"]] == [5, 4]  # ring-slot order
    snap["t"] = 99
    with pytest.raises(ValueError, match="window"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize("fault", ["descending", "inside-window"])
def test_snapshot_sparse_order_rejected(setup, fault):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    if fault == "descending":
        snap["sparse"].reverse()
    else:
        snap["sparse"][-1]["index"] = snap["window"][0]["index"]
    with pytest.raises(ValueError, match="sparse"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize("field", ["hidden", "normalizer"])
def test_snapshot_state_shape_rejected(setup, field):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    snap[field] = snap[field][:-1]
    with pytest.raises(ValueError, match=field):
        LolaCache.from_snapshot(snap)


def test_snapshot_carries_the_absorbed_score_sum(setup):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    assert snap["format"] == "lola-cache-snapshot-v3"
    assert snap["absorbed_score_sum"] > 0.0
    restored = LolaCache.from_snapshot(snap)
    assert restored.absorbed_score_sum.hex() == float(snap["absorbed_score_sum"]).hex()


def test_a_v1_snapshot_is_rejected(setup):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    v1 = {k: v for k, v in snap.items() if k != "absorbed_score_sum"}
    v1["format"] = "lola-cache-snapshot-v1"
    with pytest.raises(ValueError, match="unrecognized snapshot format"):
        LolaCache.from_snapshot(v1)


def test_a_v2_snapshot_is_rejected(setup):
    # v2 listed the window oldest first; read as slot order it would rotate the ring
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    snap["format"] = "lola-cache-snapshot-v2"
    snap["window"].sort(key=lambda pair: pair["index"])
    with pytest.raises(ValueError, match="unrecognized snapshot format"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize("order", ["swapped", "reversed", "room-rotated"])
def test_a_window_out_of_ring_slot_order_is_rejected(setup, order):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    window = snap["window"]
    # pair i in slot (i - 1) % 3; a full ring may start at any slot
    assert [pair["index"] for pair in window] == [19, 20, 18]
    if order == "swapped":
        window[1], window[2] = window[2], window[1]
    elif order == "reversed":
        window.reverse()
    else:
        # a ring with room holds its oldest pair in slot 0
        snap["config"]["window_capacity"] = 4
    with pytest.raises(ValueError, match="'window' indices .* in ring-slot order"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize(
    "total, n", [(None, 20), ([1.0], 20), ("x", 20), (float("nan"), 20), (float("inf"), 20),
                 (-1.0, 20), (True, 20), (10**400, 20), (0.5, 4)],
)
def test_snapshot_absorbed_score_sum_must_be_a_finite_total(setup, total, n):
    # n=4 leaves every pair in a tier, so the only total that fits is 0
    snap = snapshot_after(setup, eta=3, lam=2, n=n)
    snap["absorbed_score_sum"] = total
    with pytest.raises(ValueError, match="'absorbed_score_sum'"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize("field", ["hidden", "normalizer"])
@pytest.mark.parametrize("bad", [["x", 1.0], [[1.0], [2.0, 3.0]], {"a": 1}])
def test_snapshot_state_that_is_not_numbers_raises_naming_the_field(setup, field, bad):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    snap[field] = bad
    with pytest.raises(ValueError, match=f"^snapshot '{field}'"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize("field", ["weights", "hidden", "normalizer"])
@pytest.mark.parametrize("kind", ["strings", "bools", "one-bool", "none", "huge-int"])
def test_snapshot_numbers_given_as_strings_or_bools_raise_naming_the_field(setup, field, kind):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    good = snap[field]
    bad = {
        "strings": [repr(x) for x in good],  # "0.12"-style
        "bools": [True] * len(good),
        "one-bool": [*good[:-1], True],
        "none": [*good[:-1], None],
        "huge-int": [*good[:-1], 10**400],
    }[kind]
    snap[field] = bad
    with pytest.raises(ValueError, match=f"^snapshot '{field}'"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_snapshot_non_positive_normalizer_rejected(setup, value):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    assert snap["absorbed_count"] > 0
    snap["normalizer"][0] = value
    with pytest.raises(ValueError, match="normalizer"):
        LolaCache.from_snapshot(snap)


def test_snapshot_state_without_absorptions_must_be_zero(setup):
    snap = snapshot_after(setup, eta=3, lam=2, n=4)
    assert snap["absorbed_count"] == 0
    LolaCache.from_snapshot(snap)
    snap["normalizer"][0] = 1.0
    with pytest.raises(ValueError, match="absorbed nothing"):
        LolaCache.from_snapshot(snap)


@pytest.mark.parametrize("count", [14, 16, -1, 15.5, "15", True])
def test_snapshot_absorbed_count_must_close_conservation(setup, count):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    assert snap["absorbed_count"] == 15
    snap["absorbed_count"] = count
    with pytest.raises(ValueError, match="'absorbed_count'"):
        LolaCache.from_snapshot(snap)


def test_snapshot_scores_are_current_after_restore(setup):
    snap = snapshot_after(setup, eta=3, lam=2, n=20)
    restored = LolaCache.from_snapshot(snap)
    assert restored.sparse_scores.tolist() == [e["score"] for e in snap["sparse"]]


@pytest.mark.parametrize("name", list(SCORING_STRATEGIES))
def test_snapshot_restores_its_own_rule(tmp_path, setup, name):
    eng = make_engine(setup, eta=3, lam=2, scoring=SCORING_STRATEGIES[name]())
    gen = SeededRng(22).generator()
    for q, k, v in gen.normal(size=(20, 3, 4)):
        eng.decode_step(q, k, v)
    save_snapshot(eng, tmp_path / "state.json")
    restored = load_snapshot(tmp_path / "state.json")
    assert restored.scoring.name == name
    for q, k, v in gen.normal(size=(10, 3, 4)):
        assert restored.decode_step(q, k, v).tobytes() == eng.decode_step(q, k, v).tobytes()
        assert restored.sparse_scores.tobytes() == eng.sparse_scores.tobytes()
    assert restored.sparse_indices.tolist() == eng.sparse_indices.tolist()


def test_every_rule_the_package_defines_is_in_the_table():
    import importlib
    import pkgutil

    import lola
    from lola.cache import ScoringStrategy

    for mod in pkgutil.walk_packages(lola.__path__, "lola."):
        importlib.import_module(mod.name)
    found, todo = set(), [ScoringStrategy]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("lola.") and sub is not StaticScoring:
                found.add(sub)
    assert found == set(SCORING_STRATEGIES.values())
    assert all(rule.name == name for name, rule in SCORING_STRATEGIES.items())


def _set_pair(tier, field, value):
    def mutate(snap):
        snap[tier][0][field] = value
        return snap
    return mutate


def _drop(field):
    def mutate(snap):
        del snap[field]
        return snap
    return mutate


def _set_t(snap):
    snap["t"] = str(snap["t"])
    return snap


def _set_max_logit(snap):
    snap["config"]["max_logit"] = 50.0
    return snap


MALFORMED_SNAPSHOTS = {
    "window-key-one-entry": (_set_pair("window", "key", [1.0]), r"'window'\[0\] 'key'"),
    "window-value-one-entry": (_set_pair("window", "value", [1.0]), r"'window'\[0\] 'value'"),
    "sparse-key-one-entry": (_set_pair("sparse", "key", [1.0]), r"'sparse'\[0\] 'key'"),
    "sparse-value-one-entry": (_set_pair("sparse", "value", [1.0]), r"'sparse'\[0\] 'value'"),
    "window-value-nan": (_set_pair("window", "value", [float("nan")] * 4), r"'window'\[0\] 'value'"),
    "sparse-value-inf": (_set_pair("sparse", "value", [float("inf")] * 4), r"'sparse'\[0\] 'value'"),
    "window-key-strings": (_set_pair("window", "key", ["0.1"] * 4), r"'window'\[0\] 'key': could not"),
    "sparse-value-bools": (_set_pair("sparse", "value", [True] * 4), r"'sparse'\[0\] 'value': could not"),
    "acc-nan": (_set_pair("window", "acc", float("nan")), r"'window'\[0\] 'acc'"),
    "acc-inf": (_set_pair("window", "acc", float("inf")), r"'window'\[0\] 'acc'"),
    "score-nan": (_set_pair("sparse", "score", float("nan")), r"'sparse'\[0\] 'score'"),
    "score-inf": (_set_pair("sparse", "score", -float("inf")), r"'sparse'\[0\] 'score'"),
    "missing-t": (_drop("t"), "missing 't'"),
    "missing-config": (_drop("config"), "missing 'config'"),
    "missing-window": (_drop("window"), "missing 'window'"),
    "t-string": (_set_t, "'t' '20' is not an int"),
    "not-an-object": (lambda snap: list(snap.items()), "snapshot must be an object"),
    "other-max-logit": (_set_max_logit, "'max_logit' 50.0 is not the fixed bound 30"),
}


@pytest.mark.parametrize(
    "mutate, match", MALFORMED_SNAPSHOTS.values(), ids=MALFORMED_SNAPSHOTS.keys()
)
def test_malformed_snapshot_raises_naming_the_field(setup, mutate, match):
    snap = mutate(snapshot_after(setup, eta=3, lam=2, n=20))
    with pytest.raises(ValueError, match=match):
        LolaCache.from_snapshot(snap)


# -- numeric guards -----------------------------------------------------------


def test_attend_rejects_non_positive_denominator(setup):
    eng = make_engine(setup, eta=0, lam=0)
    eng.update(np.ones(4), np.ones(4))
    eng.linear.normalizer[:] = 0.0
    with pytest.raises(ValueError, match="denominator"):
        eng.attend(np.ones(4))


@pytest.mark.parametrize("name, sign", [("attnerr-sq", 1.0), ("overestimate", -1.0)])
def test_static_score_overflow_rejected(name, sign):
    cfg = AttentionConfig(head_dim=4, feature_dim=8, scale=1e3)
    params = init_feature_map(SeededRng(0), cfg)
    eng = LolaCache(cfg, params, 2, 1, scoring=SCORING_STRATEGIES[name]())
    eng.update(np.ones(4), np.ones(4))
    before = eng.to_snapshot()["window"]
    # logits of +-4000 overflow or underflow exp
    with np.errstate(over="ignore", divide="ignore"), pytest.raises(ValueError, match="finite"):
        eng.accumulate_window_scores(sign * np.ones(4))
    assert eng.to_snapshot()["window"] == before


def _set_config(field, value):
    def mutate(snap):
        snap["config"][field] = value
        return snap
    return mutate


BAD_SNAPSHOT_CONFIGS = {
    "window-capacity-string": (_set_config("window_capacity", "3"), "'window_capacity' must be an int, got '3'"),
    "window-capacity-bool": (_set_config("window_capacity", True), "'window_capacity' must be an int, got True"),
    "window-capacity-negative": (_set_config("window_capacity", -1), "'window_capacity' must be >= 0, got -1"),
    "sparse-capacity-float": (_set_config("sparse_capacity", 2.0), "'sparse_capacity' must be an int, got 2.0"),
    "head-dim-string": (_set_config("head_dim", "4"), "'head_dim' must be an int, got '4'"),
    "head-dim-zero": (_set_config("head_dim", 0), "'head_dim' must be >= 1, got 0"),
    "feature-dim-bool": (_set_config("feature_dim", False), "'feature_dim' must be None or an int, got False"),
    "feature-dim-odd": (_set_config("feature_dim", 7), "'feature_dim' must be a positive even integer, got 7"),
    "feature-dim-null": (_set_config("feature_dim", None), "'feature_dim' is null, not the saved map's width"),
    "feature-dim-mismatch": (_set_config("feature_dim", 6), "'feature_dim' 6 and 'head_dim' 4 need 12 'weights'"),
    "scale-null": (_set_config("scale", None), "'scale' is null, not the saved engine's value"),
    "scale-string": (_set_config("scale", "0.5"), "'scale' must be a finite positive real, got '0.5'"),
    "scale-bool": (_set_config("scale", True), "'scale' must be a finite positive real, got True"),
    "scale-zero": (_set_config("scale", 0.0), "'scale' must be a finite positive real, got 0.0"),
    "scale-negative": (_set_config("scale", -0.5), "'scale' must be a finite positive real, got -0.5"),
    "scale-nan": (_set_config("scale", float("nan")), "'scale' must be a finite positive real, got nan"),
    "scale-inf": (_set_config("scale", float("inf")), "'scale' must be a finite positive real, got inf"),
    "scoring-unknown": (_set_config("scoring", "nope"), "'scoring' 'nope' is not one of"),
    # a test fake's rule is not in the table either
    "scoring-fake": (_set_config("scoring", "constant"), "'scoring' 'constant' is not one of"),
    "scoring-null": (_set_config("scoring", None), "'scoring' None is not one of"),
    "scoring-list": (_set_config("scoring", ["self-recall"]), r"'scoring' \['self-recall'\] is not one of"),
    "weights-not-numbers": (lambda snap: {**snap, "weights": ["a"] * 16}, "'weights'"),
    "weights-non-finite": (lambda snap: {**snap, "weights": [float("nan")] * 16}, "'weights'"),
}


@pytest.mark.parametrize(
    "mutate, match", BAD_SNAPSHOT_CONFIGS.values(), ids=BAD_SNAPSHOT_CONFIGS.keys()
)
def test_snapshot_config_values_raise_naming_the_field(setup, mutate, match):
    snap = mutate(snapshot_after(setup, eta=3, lam=2, n=20))
    with pytest.raises(ValueError, match=match):
        LolaCache.from_snapshot(snap)


# a bad field of a saved map, as (map header fields, weights or None) and the
# one rule text a map file and a snapshot both give
BAD_SAVED_MAPS = {
    "head-dim-str": ({"head_dim": "2"}, None, "'head_dim' must be an int, got '2'"),
    "head-dim-bool": ({"head_dim": True}, None, "'head_dim' must be an int, got True"),
    "head-dim-0": ({"head_dim": 0}, None, "'head_dim' must be >= 1, got 0"),
    "feature-dim-odd": ({"feature_dim": 3}, None, "'feature_dim' must be a positive even integer, got 3"),
    "feature-dim-0": ({"feature_dim": 0}, None, "'feature_dim' must be a positive even integer, got 0"),
    "feature-dim-null": ({"feature_dim": None}, None, "'feature_dim' is null, not the saved map's width"),
    "weights-short": ({}, [0.1] * 3, "'feature_dim' 4 and 'head_dim' 2 need 4 'weights', got shape (3,)"),
    "weights-nan": ({}, [0.1, float("nan"), 0.1, 0.1], "'weights' has non-finite entries"),
    "weights-str": ({}, ["0.1"] * 4, "'weights': could not convert '0.1' to a number"),
}


@pytest.mark.parametrize(
    "header, weights, rule", BAD_SAVED_MAPS.values(), ids=BAD_SAVED_MAPS.keys()
)
def test_a_map_file_and_a_snapshot_reject_a_bad_map_with_one_rule_text(tmp_path, header, weights, rule):
    cfg = AttentionConfig(2, 4)
    snap = LolaCache(cfg, init_feature_map(SeededRng(0), cfg), 2, 1).to_snapshot()
    snap["config"].update(header)
    if weights is not None:
        snap["weights"] = weights
    saved = {"format": "paired-exp-feature-map-v1", "head_dim": 2, "feature_dim": 4, **header}
    path = tmp_path / "map.json"
    path.write_text(json.dumps({**saved, "weights": snap["weights"]}))
    with pytest.raises(ValueError) as from_file:
        load_feature_map(path)
    assert str(from_file.value) == f"feature map {path}: {rule}"
    with pytest.raises(ValueError) as from_snapshot:
        LolaCache.from_snapshot(snap)
    assert str(from_snapshot.value) == f"snapshot {rule}"


def test_snapshot_restores_the_recorded_scale(setup):
    cfg, params = setup
    eng = LolaCache(AttentionConfig(4, 8, 0.25), params, 3, 2)
    gen = SeededRng(21).generator()
    for _ in range(9):
        eng.update(gen.normal(size=4), gen.normal(size=4))
    restored = LolaCache.from_snapshot(eng.to_snapshot())
    assert restored.config.scale == 0.25 != cfg.scale
    q = gen.normal(size=4)
    assert restored.attend(q).tobytes() == eng.attend(q).tobytes()


@pytest.mark.parametrize(
    "eta, lam, field",
    [
        (True, 2, "window_capacity"),
        (2.5, 2, "window_capacity"),
        ("3", 2, "window_capacity"),
        (2, True, "sparse_capacity"),
        (2, 2.5, "sparse_capacity"),
        (2, "3", "sparse_capacity"),
        (-1, 2, "window_capacity"),
        (2, -1, "sparse_capacity"),
    ],
)
def test_capacities_that_are_not_sizes_raise_naming_the_field(setup, eta, lam, field):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        make_engine(setup, eta, lam)


def test_numpy_int_capacities_run_as_ints(setup):
    gen = SeededRng(41).generator()
    ks, vs = gen.normal(size=(2, 12, 4))
    a, b = make_engine(setup, np.int64(3), np.int32(2)), make_engine(setup, 3, 2)
    a.ingest(ks, vs)
    b.ingest(ks, vs)
    assert a.attend(ks[0]).tobytes() == b.attend(ks[0]).tobytes()


@pytest.mark.parametrize("feed", ["update", "ingest", "restore"])
def test_numpy_int_capacities_keep_t_and_event_indices_plain_ints(setup, feed):
    eng = make_engine(setup, np.int64(3), np.int64(2))
    ks, vs = SeededRng(42).generator().normal(size=(2, 12, 4))
    if feed == "update":
        for k, v in zip(ks, vs):
            eng.update(k, v)
    else:
        eng.ingest(ks[:11], vs[:11])
    if feed == "restore":
        eng = LolaCache.from_snapshot(eng.to_snapshot())
        assert type(eng.t) is int
        eng.update(ks[11], vs[11])
    elif feed == "ingest":
        eng.ingest(ks[11:], vs[11:])
    assert type(eng.t) is int and type(eng.last_event.index) is int
    assert eng.t == eng.last_event.index == 12


@pytest.mark.parametrize("feed", ["update", "ingest"])
def test_numpy_int_sizes_save_and_load_as_plain_numbers(tmp_path, feed):
    # numpy ints are sizes, so a snapshot of such an engine is still JSON
    cfg = AttentionConfig(np.int64(4))
    params = init_feature_map(SeededRng(0), cfg)
    eng = LolaCache(cfg, params, np.int64(3), np.int64(2))
    gen = SeededRng(43).generator()
    ks, vs = gen.normal(size=(2, 12, 4))
    if feed == "ingest":
        eng.ingest(ks, vs)
    else:
        for k, v in zip(ks, vs):
            eng.update(k, v)
    path = tmp_path / "state.json"
    save_snapshot(eng, path)
    header = json.loads(path.read_text())["config"]
    assert [type(header[name]) for name in ("head_dim", "feature_dim", "window_capacity")] == [int] * 3
    assert type(header["sparse_capacity"]) is int and type(header["scale"]) is float
    restored = load_snapshot(path)
    assert (restored.t, restored.linear.count) == (eng.t, eng.linear.count)
    assert restored.window_indices.tolist() == eng.window_indices.tolist()
    assert restored.sparse_indices.tolist() == eng.sparse_indices.tolist()
    assert restored.attend(ks[0]).tobytes() == eng.attend(ks[0]).tobytes()
