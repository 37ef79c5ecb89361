"""Spectral study, collision matrices, alternative scores."""

import math

import numpy as np
import pytest

from lola import (
    AttentionConfig,
    OverflowGuardError,
    SeededRng,
    feature_map_apply,
    init_feature_map,
)
from lola import analysis
from lola.analysis import (
    collision_matrix,
    engine_for_policy,
    gram_matrix,
    mean_absorbed_error,
    rank_study,
    relative_to_absorption,
    truncated_errors,
    write_collision_csv,
)
from lola.cache import (
    AttentionErrorAbsScoring,
    AttentionErrorSquaredScoring,
    OverestimateRatioScoring,
)
from lola.harness import SyntheticTaskSpec, gen_niah


# -- gram matrix / rank study -------------------------------------------------


def test_gram_single_vector():
    x = np.array([[1.0, 2.0]])
    got = gram_matrix(x)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(math.exp(5.0))


def test_gram_orthonormal_rows_analytic_form():
    got = gram_matrix(np.eye(4))
    expected = (math.e - 1.0) * np.eye(4) + np.ones((4, 4))
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_gram_matches_entrywise_loop():
    xs = SeededRng(1).generator().normal(size=(6, 3)) * 0.7
    got = gram_matrix(xs)
    for i in range(6):
        for j in range(6):
            assert got[i, j] == pytest.approx(math.exp(float(xs[i] @ xs[j])), rel=1e-12)


def test_gram_symmetric_psd():
    xs = SeededRng(2).generator().normal(size=(32, 8)) * 0.4
    g = gram_matrix(xs)
    np.testing.assert_allclose(g, g.T, rtol=1e-12)
    eigmin = np.linalg.eigvalsh(g).min()
    assert eigmin >= -1e-8 * np.linalg.norm(g)


def test_gram_overflow_guard():
    with pytest.raises(ValueError, match="exceeds the bound"):
        gram_matrix(np.array([[10.0, 0.0]]))


def test_truncated_errors_shape_and_endpoints():
    sv = np.array([3.0, 2.0, 1.0])
    t = truncated_errors(sv)
    assert t.tolist() == [14.0, 5.0, 1.0, 0.0]
    assert np.all(np.diff(t) <= 0)


def test_rank_study_dominance_in_n_and_d():
    # more samples dominate at every shared rank (inputs are nested prefixes);
    # a clearly larger input dimension dominates at every rank
    results = rank_study([64, 128], [8, 64], seed=5)
    by = {(r.n, r.d): r for r in results}
    for d in (8, 64):
        big, small = by[(128, d)], by[(64, d)]
        assert np.all(big.truncated_errors[:65] >= small.truncated_errors[:65])
    for n in (64, 128):
        hi, lo = by[(n, 64)], by[(n, 8)]
        assert np.all(hi.truncated_errors >= lo.truncated_errors)


def test_rank_study_full_rank_error_is_zero():
    (res,) = rank_study([32], [8], seed=6)
    assert res.truncated_errors[32] == pytest.approx(0.0, abs=1e-6)
    assert res.truncated_errors[0] == pytest.approx((res.singular_values**2).sum(), rel=1e-12)


def test_rank_study_deterministic():
    a = rank_study([32], [8], seed=7)[0]
    b = rank_study([32], [8], seed=7)[0]
    np.testing.assert_array_equal(a.singular_values, b.singular_values)


def study_inputs(n_list, d, seed):
    """The inputs ``rank_study`` draws for dimension ``d``, at the largest n."""
    return analysis.gaussian_sample(SeededRng(seed).child(d), max(n_list), d, d ** -0.25)


def repeated_rows(rng, n, d, scale):
    # every row twice: the Gram matrix has rank n // 2, so half its spectrum is
    # zero up to rounding, where eigvalsh can return small negative values
    half = SeededRng(rng.seed).generator().normal(0.0, scale, size=((n + 1) // 2, d))
    return np.repeat(half, 2, axis=0)[:n]


@pytest.mark.parametrize(
    "n_list, d_list, singular",
    [
        ([64, 128, 256], [8, 64], False),  # the suite's grid
        ([128, 256, 512], [8, 16, 64], False),  # criterion 07's grid
        ([16, 40], [4, 8], True),
    ],
    ids=["suite-grid", "criterion-07-grid", "repeated-rows"],
)
def test_rank_study_spectra_match_an_svd_of_each_leading_block(
    monkeypatch, n_list, d_list, singular
):
    if singular:
        monkeypatch.setattr(analysis, "gaussian_sample", repeated_rows)
    results = rank_study(n_list, d_list, seed=7)
    by = {(r.n, r.d): r for r in results}
    assert len(by) == len(n_list) * len(d_list)
    for d in d_list:
        xs = study_inputs(n_list, d, 7)
        big = gram_matrix(xs)
        top = by[(max(n_list), d)].singular_values
        for n in n_list:
            res = by[(n, d)]
            sv = res.singular_values
            assert sv.dtype == np.float64 and sv.shape == (n,)
            assert np.all(sv >= 0.0) and np.all(np.diff(sv) <= 0.0)
            # the reference: an SVD of the Gram matrix of the first n inputs
            ref = truncated_errors(np.linalg.svd(gram_matrix(xs[:n]), compute_uv=False))
            tol = 1e-10 * ref[0]
            np.testing.assert_allclose(res.truncated_errors, ref, rtol=0.0, atol=tol)
            # the matrix decomposed is the leading block of the one Gram
            # matrix, so its spectrum interlaces the largest n's
            block = np.sort(np.abs(np.linalg.eigvalsh(big[:n, :n])))[::-1]
            np.testing.assert_array_equal(sv, block)
            slack = 1e-12 * top[0]
            assert np.all(sv <= top[:n] + slack)
            assert np.all(sv >= top[max(n_list) - n :] - slack)
        if singular:
            assert by[(max(n_list), d)].truncated_errors[max(n_list) // 2] <= 1e-10 * top[0] ** 2


@pytest.mark.parametrize(
    "n_list, seed, last_ok",
    [([8], 0, 622), ([64, 128, 256], 7, 612)],
    ids=["n8-seed0", "suite-grid-seed7"],
)
def test_a_dimension_that_overflows_the_kernel_guard_is_rejected_before_any_gram(
    n_list, seed, last_ok
):
    # the first d whose inputs trip the guard at this seed, scanning d upward,
    # is last_ok + 1; the grid check and the guard agree on both sides of it
    assert [r.d for r in rank_study(n_list, [last_ok], seed)] == [last_ok] * len(n_list)
    gram_matrix(study_inputs(n_list, last_ok, seed))
    with pytest.raises(OverflowGuardError):
        gram_matrix(study_inputs(n_list, last_ok + 1, seed))
    with pytest.raises(ValueError, match=f"^d_list entry {last_ok + 1} draws inputs at seed {seed}"):
        rank_study(n_list, [8, last_ok + 1], seed)


# -- collision matrices --------------------------------------------------------


@pytest.fixture
def collision_setup():
    cfg = AttentionConfig(head_dim=8, feature_dim=16)
    params = init_feature_map(SeededRng(0), cfg)
    task = SyntheticTaskSpec(
        haystack_len=96, head_dim=8, key_distribution="clustered", value_codebook_size=8, seed=3
    )
    inst = gen_niah(task, seed=3)
    return cfg, params, inst


def test_window_only_short_stream_all_resident(collision_setup):
    cfg, params, inst = collision_setup
    cm = collision_matrix(inst.keys[:10], inst.values[:10], "window-only", 16, 0, cfg, params)
    tri = np.tril_indices(10)
    assert np.all(cm.errors[tri] == 0.0)  # nothing absorbed: explicit zeros
    assert np.all(np.isnan(cm.errors[np.triu_indices(10, 1)]))
    assert np.all(cm.absorbed_at == 0)


def test_linear_only_first_pair_has_zero_error(collision_setup):
    cfg, params, inst = collision_setup
    cm = collision_matrix(inst.keys[:1], inst.values[:1], "linear-only", 0, 0, cfg, params)
    assert cm.errors[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert cm.absorbed_at[0] == 1


def test_collision_scores_match_direct_evaluation(collision_setup):
    cfg, params, inst = collision_setup
    keys, values = inst.keys[:24], inst.values[:24]
    cm = collision_matrix(keys, values, "linear-only", 0, 0, cfg, params)
    # rebuild the state by hand at t=24 and check the final row
    hidden = np.zeros((16, 8))
    norm = np.zeros(16)
    phis = [feature_map_apply(params, keys[i]) for i in range(24)]
    for i in range(24):
        hidden += np.outer(phis[i], values[i])
        norm += phis[i]
    for j in range(24):
        pred = (phis[j] @ hidden) / float(phis[j] @ norm)
        assert cm.errors[23, j] == pytest.approx(float(np.linalg.norm(pred - values[j])), rel=1e-9)


def test_collision_policy_ordering(collision_setup):
    cfg, params, inst = collision_setup
    means = {}
    for policy in ("lola", "window-only", "linear-only"):
        cm = collision_matrix(inst.keys, inst.values, policy, 16, 16, cfg, params)
        means[policy] = mean_absorbed_error(cm)
    assert means["lola"] <= means["window-only"] <= means["linear-only"]


def test_sparse_resident_columns_are_zero(collision_setup):
    cfg, params, inst = collision_setup
    eta = lam = 16
    engine = engine_for_policy("lola", cfg, params, eta, lam)
    for t in range(inst.keys.shape[0]):
        engine.update(inst.keys[t], inst.values[t])
    cm = collision_matrix(inst.keys, inst.values, "lola", eta, lam, cfg, params)
    final = inst.keys.shape[0] - 1
    for idx in engine.sparse_indices:
        assert cm.errors[final, idx - 1] == 0.0
    for idx in engine.window_indices:
        assert cm.errors[final, idx - 1] == 0.0


def test_relative_zero_at_absorption_row(collision_setup):
    cfg, params, inst = collision_setup
    cm = collision_matrix(inst.keys[:48], inst.values[:48], "lola", 8, 4, cfg, params)
    rel = relative_to_absorption(cm)
    for j in range(48):
        ta = int(rel.absorbed_at[j])
        if ta > 0:
            assert rel.errors[ta - 1, j] == pytest.approx(0.0, abs=1e-12)


def test_relative_of_an_existing_matrix_matches_a_fresh_replay(collision_setup):
    cfg, params, inst = collision_setup
    cm = collision_matrix(inst.keys[:64], inst.values[:64], "lola", 8, 4, cfg, params)
    before = cm.errors.copy()
    rel = relative_to_absorption(cm)
    np.testing.assert_array_equal(cm.errors, before)
    fresh = relative_to_absorption(
        collision_matrix(inst.keys[:64], inst.values[:64], "lola", 8, 4, cfg, params)
    )
    assert rel.errors.tobytes() == fresh.errors.tobytes()
    assert rel.absorbed_at.tobytes() == fresh.absorbed_at.tobytes()


def test_relative_linear_only_early_pairs_drift_up(collision_setup):
    cfg, params, inst = collision_setup
    rel = relative_to_absorption(
        collision_matrix(inst.keys, inst.values, "linear-only", 0, 0, cfg, params)
    )
    final = inst.keys.shape[0] - 1
    assert rel.errors[final, :5].mean() > 0.0


def test_relative_mean_drift_ordering(collision_setup):
    cfg, params, inst = collision_setup
    drifts = {}
    for policy in ("lola", "linear-only"):
        cm = collision_matrix(inst.keys, inst.values, policy, 16, 16, cfg, params)
        rel = relative_to_absorption(cm)
        drifts[policy] = mean_absorbed_error(rel)
    assert drifts["lola"] <= drifts["linear-only"]


def test_collision_csv_reproducible(tmp_path, collision_setup):
    cfg, params, inst = collision_setup
    paths = []
    for run in range(2):
        cm = collision_matrix(inst.keys[:64], inst.values[:64], "lola", 8, 8, cfg, params)
        cm = relative_to_absorption(cm)
        path = tmp_path / f"run{run}.csv"
        write_collision_csv(cm, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    header = paths[0].decode().splitlines()[0]
    assert header.startswith("time,pair_1,")


# -- alternative scores ---------------------------------------------------------


def alt_score(cls, e, p):
    """A static rule's total over the co-resident queries' terms."""
    return cls().term(e, p).sum()


def test_alt_scores_perfect_kernel():
    e = np.full(6, 2.5)
    assert alt_score(AttentionErrorSquaredScoring, e, e) == 0.0
    assert alt_score(AttentionErrorAbsScoring, e, e) == 0.0
    # one per co-resident query
    assert alt_score(OverestimateRatioScoring, e, e) == pytest.approx(6.0)


def test_alt_scores_hand_values():
    e = np.array([2.0])
    p = np.array([1.5])
    assert alt_score(AttentionErrorSquaredScoring, e, p) == pytest.approx(0.25)
    assert alt_score(AttentionErrorAbsScoring, e, p) == pytest.approx(0.5)
    assert alt_score(OverestimateRatioScoring, e, p) == pytest.approx(0.75)


def test_alt_scores_match_formula_on_random_input():
    gen = SeededRng(8).generator()
    e = np.exp(gen.normal(size=12))
    p = np.exp(gen.normal(size=12))
    assert alt_score(AttentionErrorSquaredScoring, e, p) == pytest.approx(
        sum((a - b) ** 2 for a, b in zip(e, p))
    )
    assert alt_score(AttentionErrorAbsScoring, e, p) == pytest.approx(
        sum(abs(a - b) for a, b in zip(e, p))
    )
    assert alt_score(OverestimateRatioScoring, e, p) == pytest.approx(
        sum(a / b for a, b in zip(p, e))
    )


def test_engine_accumulates_alt_scores_over_coresident_queries():
    cfg = AttentionConfig(head_dim=4, feature_dim=8)
    params = init_feature_map(SeededRng(10), cfg)
    eta = 3
    eng = engine_for_policy("lola-altscore:attnerr-sq", cfg, params, eta, 2)
    gen = SeededRng(11).generator()
    n = 10
    ks = gen.normal(size=(n, 4))
    vs = gen.normal(size=(n, 4))
    qs = gen.normal(size=(n, 4))
    events = []
    for t in range(n):
        eng.decode_step(qs[t], ks[t], vs[t])
        if eng.last_event.evicted_index is not None:
            events.append(eng.last_event)
    # pair i (1-based) co-resides with queries i..i+eta-1
    for ev in events:
        i = ev.evicted_index
        expected = 0.0
        for t in range(i, i + eta):
            e = float(np.exp(cfg.scale * (qs[t - 1] @ ks[i - 1])))
            p = float(
                feature_map_apply(params, qs[t - 1]) @ feature_map_apply(params, ks[i - 1])
            )
            expected += (e - p) ** 2
        got = float(ev.eligible_scores[-1])
        assert got == pytest.approx(expected, rel=1e-9)


def test_pair_with_no_queries_scores_zero():
    cfg = AttentionConfig(head_dim=4, feature_dim=8)
    params = init_feature_map(SeededRng(12), cfg)
    eng = engine_for_policy("lola-altscore:overestimate", cfg, params, 2, 1)
    gen = SeededRng(13).generator()
    # update without accumulate: no query ever observed
    for t in range(5):
        eng.update(gen.normal(size=4), gen.normal(size=4))
    assert eng.last_event.eligible_scores[-1] == 0.0


def test_engine_for_policy_rejects_unknown():
    cfg = AttentionConfig(head_dim=4)
    params = init_feature_map(SeededRng(14), cfg)
    with pytest.raises(ValueError, match="unknown policy"):
        engine_for_policy("lru", cfg, params, 4, 4)
    with pytest.raises(ValueError, match="unknown scoring strategy"):
        engine_for_policy("lola-altscore:entropy", cfg, params, 4, 4)
    # the ``lola`` policy runs self-recall; it has no alternative-score name
    with pytest.raises(ValueError, match="unknown scoring strategy 'self-recall'"):
        engine_for_policy("lola-altscore:self-recall", cfg, params, 4, 4)
