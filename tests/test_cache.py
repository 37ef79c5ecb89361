"""Engine contracts: scoring, eviction, conservation, tier-combined outputs."""

import itertools
import json

import numpy as np
import pytest

from lola import (
    AttentionConfig,
    ChunkConfig,
    FeatureMapParams,
    LinearState,
    LolaCache,
    SeededRng,
    feature_map_apply,
    feature_map_batch,
    init_feature_map,
    load_feature_map,
    prefill,
    softmax_attention_oracle,
)
from lola.analysis import engine_for_policy
from lola.attention import _read_map
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
    assert _self_recall_scores(phi_k[None], v[None], state)[0] <= 1e-10


def test_score_is_distance_to_predicted_value(setup):
    cfg, params = setup
    gen = SeededRng(2).generator()
    k, v, v2 = gen.normal(size=4), gen.normal(size=4), gen.normal(size=4)
    phi_k = feature_map_apply(params, k)
    state = LinearState.zeros(8, 4)
    state.update(phi_k, v)
    expected = float(np.linalg.norm(v - v2))
    assert _self_recall_scores(phi_k[None], v2[None], state)[0] == pytest.approx(expected, rel=1e-10)


def test_score_empty_state_convention(setup):
    cfg, params = setup
    v = np.array([3.0, 4.0, 0.0, 0.0])
    state = LinearState.zeros(8, 4)
    assert _self_recall_scores(np.ones((1, 8)), v[None], state)[0] == pytest.approx(5.0)


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
    scores = _self_recall_scores(phis, vs, state)
    for i in range(20):
        pred = (phis[i] @ hidden) / float(phis[i] @ norm)
        expected = float(np.linalg.norm(pred - vs[i]))
        assert scores[i] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("absorbed", [0, 1, 5], ids=["empty", "one", "five"])
def test_the_scalar_score_is_the_row_score_of_one_row(setup, absorbed):
    # one pair's score is its row's score: a row keeps its bits among any two
    # or more rows, and a lone row, which takes a matrix-vector kernel, agrees
    # up to rounding
    cfg, params = setup
    gen = SeededRng(31).generator()
    state = LinearState.zeros(8, 4)
    for _ in range(absorbed):
        state.update(feature_map_apply(params, gen.normal(size=4)), gen.normal(size=4))
    phis, vs = feature_map_batch(params, gen.normal(size=(6, 4))), gen.normal(size=(6, 4))
    many = _self_recall_scores(phis, vs, state)
    assert _self_recall_scores(phis[:2], vs[:2], state).tobytes() == many[:2].tobytes()
    one = _self_recall_scores(phis[:1], vs[:1], state)
    assert one.shape == (1,)
    assert one[0] == pytest.approx(many[0], rel=1e-12)


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

    # independent evaluation from the stream's pairs the engine reports held
    num = phi_q @ eng.linear.hidden
    den = float(phi_q @ eng.linear.normalizer)
    for i in np.concatenate((eng.sparse_indices, eng.window_indices)):
        w = float(np.exp(cfg.scale * (q @ ks[i - 1])))
        num = num + w * vs[i - 1]
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


# -- the prefill hand-off -----------------------------------------------------
# A chunked prefill is the one way to load an engine's tiers other than by
# its own steps. The tests below are named for the engine snapshots that
# once loaded tiers too; each checks its rule on the engine a prefill hands
# over.


def handoff_after(setup, n, chunk=3, lam=2, seed=20, attn=None):
    attn = attn or setup[0]
    params = init_feature_map(SeededRng(0), attn)
    qs, ks, vs = SeededRng(seed).generator().normal(size=(3, n, attn.head_dim))
    state = prefill(qs, ks, vs, ChunkConfig(chunk, lam), attn, params)[1]
    return state, (qs, ks, vs), params


def test_snapshot_roundtrip_preserves_behavior(setup):
    # the engine holds what the pass carried over: the lookback as its window,
    # the last boundary's survivors and every absorbed pair
    state, (qs, ks, vs), params = handoff_after(setup, 20)
    eng = state.engine
    absorbed = np.concatenate([event.absorbed_indices for event in state.events])
    # seven chunks of 3: the last two, [16, 20], are the lookback
    assert eng.t == 20 and eng.window_capacity == 6
    assert eng.window_indices.tolist() == list(range(16, 21))
    assert eng.sparse_indices.tolist() == state.events[-1].kept_indices.tolist()
    assert eng.linear.count == absorbed.size
    assert sorted([*absorbed, *eng.sparse_indices, *eng.window_indices]) == list(range(1, 21))
    # decoding goes on from those tiers
    out = eng.decode_step(qs[0], ks[0], vs[0])
    assert eng.t == 21 and eng.window_indices[-1] == 21 and np.isfinite(out).all()


def test_snapshot_carries_the_absorbed_score_sum(setup):
    state, _, _ = handoff_after(setup, 20)
    total = 0.0
    for event in state.events:
        drop = np.isin(event.eligible_indices, event.absorbed_indices)
        total += float(event.eligible_scores[drop].sum())
    assert total > 0.0
    assert state.engine.absorbed_score_sum.hex() == total.hex()


def test_snapshot_scores_are_current_after_restore(setup):
    state, (_, ks, vs), params = handoff_after(setup, 20)
    eng = state.engine
    rows = eng.sparse_indices - 1
    assert eng.sparse_size == 2 and eng.linear.count > 0
    expected = _self_recall_scores(feature_map_batch(params, ks[rows]), vs[rows], eng.linear)
    assert eng.sparse_scores.tobytes() == expected.tobytes()


def test_snapshot_state_without_absorptions_must_be_zero(setup):
    # two chunks never leave the lookback, so nothing is absorbed
    state, _, _ = handoff_after(setup, 6)
    eng = state.engine
    assert state.events == [] and eng.linear.count == 0
    assert not eng.linear.hidden.any() and not eng.linear.normalizer.any()
    assert eng.absorbed_score_sum == 0.0 and eng.sparse_size == 0


def test_snapshot_restores_the_recorded_scale(setup):
    cfg, _ = setup
    attn = AttentionConfig(4, 8, 0.25)
    state, (qs, ks, vs), params = handoff_after(setup, 5, attn=attn)
    eng = state.engine
    assert eng.config.scale == 0.25 != cfg.scale
    fresh = LolaCache(attn, params, 6, 2)
    fresh.ingest(ks, vs)
    assert eng.attend(qs[0]).tobytes() == fresh.attend(qs[0]).tobytes()


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
    before = eng._wrows.tobytes()
    # logits of +-4000 overflow or underflow exp
    with np.errstate(over="ignore", divide="ignore"), pytest.raises(ValueError, match="finite"):
        eng.accumulate_window_scores(sign * np.ones(4))
    assert eng._wrows.tobytes() == before


# a bad field of a saved map, as (map header fields, weights or None) and the
# rule text a map file gives, a size's text wherever None is refused. The
# test keeps the name it had when a snapshot carried a saved map too
BAD_SAVED_MAPS = {
    "head-dim-str": ({"head_dim": "2"}, None, "'head_dim' must be an int, got '2'"),
    "head-dim-bool": ({"head_dim": True}, None, "'head_dim' must be an int, got True"),
    "head-dim-0": ({"head_dim": 0}, None, "'head_dim' must be >= 1, got 0"),
    "feature-dim-bool": ({"feature_dim": False}, None, "'feature_dim' must be an int, got False"),
    "feature-dim-str": ({"feature_dim": "4"}, None, "'feature_dim' must be an int, got '4'"),
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
    if weights is None:
        weights = init_feature_map(SeededRng(0), cfg).weights.reshape(-1).tolist()
    saved = {"format": "paired-exp-feature-map-v1", "head_dim": 2, "feature_dim": 4, **header}
    path = tmp_path / "map.json"
    path.write_text(json.dumps({**saved, "weights": weights}))
    with pytest.raises(ValueError) as from_file:
        load_feature_map(path)
    assert str(from_file.value) == f"feature map {path}: {rule}"


# The fields an engine is built from, as parsed JSON would give them: the
# sizes and scale go to ``AttentionConfig`` and ``LolaCache``, the weights to
# a saved map's reader, the scoring rule by name to a policy. The two tests
# below are named for the engine snapshots that once carried these fields;
# each bad value still raises naming its field
ENGINE_FIELDS = {
    "head_dim": 4,
    "feature_dim": 12,
    "scale": 0.5,
    "window_capacity": 3,
    "sparse_capacity": 2,
    "scoring": "self-recall",
    "weights": [0.1] * 24,
}


def engine_from_fields(fields):
    attn = AttentionConfig(fields["head_dim"], fields["feature_dim"], fields["scale"])
    rows = _read_map(attn.head_dim, attn.feature_dim, fields["weights"])
    name = fields["scoring"]
    policy = "lola" if name == "self-recall" else f"lola-altscore:{name}"
    return engine_for_policy(
        policy, attn, FeatureMapParams(rows), fields["window_capacity"], fields["sparse_capacity"]
    )


def _set_field(field, value):
    return lambda fields: {**fields, field: value}


BAD_ENGINE_FIELDS = {
    "window-capacity-string": (_set_field("window_capacity", "3"), "^window_capacity must be an int, got '3'$"),
    "window-capacity-bool": (_set_field("window_capacity", True), "^window_capacity must be an int, got True$"),
    "window-capacity-negative": (_set_field("window_capacity", -1), "^window_capacity must be >= 0, got -1$"),
    "sparse-capacity-float": (_set_field("sparse_capacity", 2.0), "^sparse_capacity must be an int, got 2.0$"),
    "head-dim-string": (_set_field("head_dim", "4"), "^head_dim must be an int, got '4'$"),
    "head-dim-zero": (_set_field("head_dim", 0), "^head_dim must be >= 1, got 0$"),
    # a config, unlike a saved map, takes None for the default width
    "feature-dim-bool": (_set_field("feature_dim", False), "^feature_dim must be None or an int, got False$"),
    "feature-dim-odd": (_set_field("feature_dim", 7), "^feature_dim must be a positive even integer, got 7$"),
    # the default width, 8, does not fit weights for 12
    "feature-dim-null": (
        _set_field("feature_dim", None), r"^'feature_dim' 8 and 'head_dim' 4 need 16 'weights', got shape \(24,\)$"
    ),
    "feature-dim-mismatch": (
        _set_field("feature_dim", 6), r"^'feature_dim' 6 and 'head_dim' 4 need 12 'weights', got shape \(24,\)$"
    ),
    "scale-string": (_set_field("scale", "0.5"), "^scale must be a finite positive real, got '0.5'$"),
    "scale-bool": (_set_field("scale", True), "^scale must be a finite positive real, got True$"),
    "scale-zero": (_set_field("scale", 0.0), "^scale must be a finite positive real, got 0.0$"),
    "scale-negative": (_set_field("scale", -0.5), "^scale must be a finite positive real, got -0.5$"),
    "scale-nan": (_set_field("scale", float("nan")), "^scale must be a finite positive real, got nan$"),
    "scale-inf": (_set_field("scale", float("inf")), "^scale must be a finite positive real, got inf$"),
    "scoring-unknown": (_set_field("scoring", "nope"), "^unknown scoring strategy 'nope'"),
    # a test fake's rule is not in the table either
    "scoring-fake": (_set_field("scoring", "constant"), "^unknown scoring strategy 'constant'"),
    "weights-not-numbers": (_set_field("weights", ["a"] * 24), "^'weights': could not convert 'a' to a number$"),
    "weights-non-finite": (_set_field("weights", [float("nan")] * 24), "^'weights' has non-finite entries$"),
}


def test_the_engine_fields_build_an_engine():
    eng = engine_from_fields(ENGINE_FIELDS)
    assert (eng.config.feature_dim, eng.window_capacity, eng.sparse_capacity) == (12, 3, 2)
    assert eng.scoring.name == "self-recall"
    assert engine_from_fields({**ENGINE_FIELDS, "scoring": "overestimate"}).scoring.name == "overestimate"


@pytest.mark.parametrize(
    "mutate, match", BAD_ENGINE_FIELDS.values(), ids=BAD_ENGINE_FIELDS.keys()
)
def test_snapshot_config_values_raise_naming_the_field(mutate, match):
    with pytest.raises(ValueError, match=match):
        engine_from_fields(mutate(ENGINE_FIELDS))


@pytest.mark.parametrize("field", ["weights"])
@pytest.mark.parametrize("kind", ["strings", "bools", "one-bool", "none", "huge-int"])
def test_snapshot_numbers_given_as_strings_or_bools_raise_naming_the_field(field, kind):
    good = ENGINE_FIELDS[field]
    bad = {
        "strings": [repr(x) for x in good],  # "0.1"-style
        "bools": [True] * len(good),
        "one-bool": [*good[:-1], True],
        "none": [*good[:-1], None],
        "huge-int": [*good[:-1], 10**400],
    }[kind]
    with pytest.raises(ValueError, match=f"^'{field}'"):
        engine_from_fields({**ENGINE_FIELDS, field: bad})


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
    elif feed == "ingest":
        eng.ingest(ks[:11], vs[:11])
        eng.ingest(ks[11:], vs[11:])
    else:
        # the tiers a prefill at numpy-int sizes hands over
        cfg, params = setup
        config = ChunkConfig(np.int64(2), np.int64(2))
        eng = prefill(ks[:11], ks[:11], vs[:11], config, cfg, params)[1].engine
        assert type(eng.t) is int
        eng.update(ks[11], vs[11])
    assert type(eng.t) is int and type(eng.last_event.index) is int
    assert eng.t == eng.last_event.index == 12


@pytest.mark.parametrize("feed", ["update", "ingest"])
def test_numpy_int_sizes_save_and_load_as_plain_numbers(feed):
    # numpy ints are sizes: an engine built from them, head dimension
    # included, reads back as one built from plain ints
    engines = []
    for size in (np.int64, int):
        cfg = AttentionConfig(size(4))
        engines.append(LolaCache(cfg, init_feature_map(SeededRng(0), cfg), size(3), size(2)))
    gen = SeededRng(43).generator()
    ks, vs = gen.normal(size=(2, 12, 4))
    for eng in engines:
        if feed == "ingest":
            eng.ingest(ks, vs)
        else:
            for k, v in zip(ks, vs):
                eng.update(k, v)
    eng, plain = engines
    assert eng.config.feature_dim == 8 and type(eng.t) is int
    assert (eng.t, eng.linear.count) == (plain.t, plain.linear.count)
    assert eng.window_indices.tolist() == plain.window_indices.tolist()
    assert eng.sparse_indices.tolist() == plain.sparse_indices.tolist()
    assert eng.attend(ks[0]).tobytes() == plain.attend(ks[0]).tobytes()
