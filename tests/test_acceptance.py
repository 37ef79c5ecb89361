"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Seeds are frozen; every
threshold is pinned here, not tuned at runtime. A failing criterion shows up
as an ordinary pytest failure for that test.
"""

import itertools
import time

import numpy as np

from lola import (
    AttentionConfig,
    FeatureMapParams,
    LinearState,
    LolaCache,
    SeededRng,
    feature_map_apply,
    feature_map_batch,
    init_feature_map,
    prefill,
    softmax_attention_oracle,
)
from lola.analysis import (
    collision_matrix,
    gram_matrix,
    mean_absorbed_error,
    rank_study,
    relative_to_absorption,
    write_collision_csv,
)
from lola.attention import distill_feature_map, distillation_gradient, distillation_loss
from lola.cache import StaticScoring, _self_recall_scores
from lola.chunkwise import ChunkConfig
from lola.harness import (
    EXPECTED_ACCURACY_ORDER,
    ExperimentConfig,
    SyntheticTaskSpec,
    eval_recall,
    run_ablation,
    run_suite,
)
from lola.harness.experiments import resolve_feature_map


def report(num, name, detail):
    print(f"\n[acceptance] criterion {num} ({name}): PASS - {detail}")


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = SeededRng(1001)
    streams = 0
    worst_decode = worst_prefill = 0.0
    for i in range(200):
        gen = rng.child(i).generator()
        d = int(gen.integers(2, 9))          # d <= 8
        n = int(gen.integers(4, 65))         # n <= 64
        cfg = AttentionConfig(d)             # feature_dim = 2d
        params = init_feature_map(rng.child(i, 1), cfg)
        qs, ks, vs = gen.normal(size=(3, n, d))
        oracle = softmax_attention_oracle(qs, ks, vs, cfg.scale)

        eng = LolaCache(cfg, params, window_capacity=64, sparse_capacity=8)
        decoded = np.array([eng.decode_step(qs[t], ks[t], vs[t]) for t in range(n)])
        np.testing.assert_allclose(decoded, oracle, rtol=1e-9, atol=1e-12)
        worst_decode = max(worst_decode, float(np.max(np.abs(decoded - oracle))))

        out, _ = prefill(qs, ks, vs, ChunkConfig(32, 8), cfg, params)  # 2C >= n
        np.testing.assert_allclose(out, oracle, rtol=1e-9, atol=1e-12)
        worst_prefill = max(worst_prefill, float(np.max(np.abs(out - oracle))))
        streams += 1
    elapsed = time.perf_counter() - t0
    assert streams == 200
    assert elapsed < 30.0
    report(1, "oracle equivalence", f"200 streams, max abs dev decode {worst_decode:.2e} "
                                    f"prefill {worst_prefill:.2e}, {elapsed:.1f}s")


def test_criterion_02_self_recall_identities():
    cfg = AttentionConfig(6, feature_dim=12)
    params = init_feature_map(SeededRng(2001), cfg)
    gen = SeededRng(2002).generator()

    # single-pair identity
    for _ in range(50):
        k, v = gen.normal(size=6), gen.normal(size=6)
        phi_k = feature_map_apply(params, k)
        state = LinearState.zeros(12, 6)
        state.update(phi_k, v)
        assert _self_recall_scores(phi_k[None], v[None], state)[0] <= 1e-10

    # 1000 random multi-pair states against an independent evaluation
    worst = 0.0
    for _ in range(1000):
        count = int(gen.integers(2, 25))
        ks = gen.normal(size=(count, 6))
        vs = gen.normal(size=(count, 6))
        phis = feature_map_batch(params, ks)
        state = LinearState.zeros(12, 6)
        for i in range(count):
            state.update(phis[i], vs[i])
        probe = int(gen.integers(0, count))
        got = float(_self_recall_scores(phis[probe : probe + 1], vs[probe : probe + 1], state)[0])
        num = np.zeros(6)
        den = 0.0
        for j in range(count):
            w = float(phis[probe] @ phis[j])
            num += w * vs[j]
            den += w
        expected = float(np.linalg.norm(num / den - vs[probe]))
        rel = abs(got - expected) / max(expected, 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(2, "self-recall identities", f"single-pair <= 1e-10; 1000 states, worst rel dev {worst:.2e}")


class _QuantizedScoring(StaticScoring):
    """Coarse static score that produces frequent exact ties."""

    name = "quantized"

    def term(self, e, p):
        return np.round(np.minimum(np.abs(e - p), 4.0))


def _brute_force_top(indices, scores, lam):
    best = None
    for combo in itertools.combinations(range(len(indices)), min(lam, len(indices))):
        total = sum(scores[i] for i in combo)
        key = (-total, tuple(sorted(indices[i] for i in combo)))
        if best is None or key < best[0]:
            best = (key, combo)
    return {int(indices[i]) for i in best[1]}


def test_criterion_03_top_lam_matches_enumeration():
    cfg = AttentionConfig(4, feature_dim=8)
    params = init_feature_map(SeededRng(3001), cfg)
    gen = SeededRng(3002).generator()
    events = 0
    ties_seen = 0
    while events < 1000:
        lam = int(gen.integers(1, 5))                   # lam <= 4
        eta = int(gen.integers(1, 4))
        quantized = events % 2 == 1                     # alternate tie-rich scoring
        eng = LolaCache(
            cfg, params, eta, lam,
            scoring=_QuantizedScoring() if quantized else None,
        )
        n = int(gen.integers(eta + lam + 2, eta + 10))  # |eligible| <= lam + 1 <= 10
        for t in range(n):
            eng.decode_step(gen.normal(size=4), gen.normal(size=4), gen.normal(size=4))
            event = eng.last_event
            if event.evicted_index is None:
                continue
            expected = _brute_force_top(event.eligible_indices, event.eligible_scores, lam)
            assert set(event.kept_indices.tolist()) == expected
            uniq = len(set(np.round(event.eligible_scores, 12).tolist()))
            ties_seen += uniq < event.eligible_scores.size
            events += 1
            if events >= 1000:
                break
    assert ties_seen > 50, "tie-break path barely exercised"
    report(3, "top-lambda selection", f"1000 eviction events match enumeration; {ties_seen} with ties")


def test_criterion_04_conservation_fuzz():
    cfg = AttentionConfig(4, feature_dim=8)
    params = init_feature_map(SeededRng(4001), cfg)
    gen = SeededRng(4002).generator()
    configs = [(0, 0), (1, 0), (0, 4), (4, 2), (16, 8), (8, 32), (3, 3)]
    total = 0
    per_config = 100_000 // len(configs) + 1
    for eta, lam in configs:
        eng = LolaCache(cfg, params, eta, lam)
        for _ in range(per_config):
            eng.decode_step(gen.normal(size=4), gen.normal(size=4), gen.normal(size=4))
            assert eng.window_size + eng.sparse_size + eng.linear.count == eng.t
            total += 1
    assert total >= 100_000
    report(4, "conservation", f"{total} decode steps across {len(configs)} configs, invariant held")


TASK = SyntheticTaskSpec(
    haystack_len=512, head_dim=16, key_distribution="clustered", value_codebook_size=16, seed=0
)


def test_criterion_05_directional_recall():
    t0 = time.perf_counter()
    trials = 500
    acc = {}
    for lam in (0, 32, 64, 128):
        exp = ExperimentConfig(
            policy="lola", window_capacity=64, sparse_capacity=lam,
            trials=trials, feature_map="distill", seed=0,
        )
        acc[lam] = eval_recall(exp, TASK).accuracy
    base = eval_recall(
        ExperimentConfig(
            policy="window-only", window_capacity=128, sparse_capacity=0,
            trials=trials, feature_map="distill", seed=0,
        ),
        TASK,
    ).accuracy
    elapsed = time.perf_counter() - t0

    p1, p2 = acc[64], base
    gap = p1 - p2
    se = np.sqrt(p1 * (1 - p1) / trials + p2 * (1 - p2) / trials)
    z = (gap - 0.15) / se
    assert gap >= 0.15
    assert z >= 1.645, f"gap {gap:.3f} not significant (z={z:.2f})"
    curve = [acc[lam] for lam in (0, 32, 64, 128)]
    assert all(b >= a for a, b in zip(curve, curve[1:])), f"not monotone: {curve}"
    assert elapsed < 300.0
    report(5, "directional recall", f"gap {gap:.3f} (z={z:.1f}), curve {curve}, {elapsed:.0f}s")


def test_criterion_06_scoring_ablation_ordering():
    records = run_ablation(TASK, budget=128, trials=500, seed=0, feature_map="distill")
    acc = {r.name: r.accuracy for r in records}
    # weak expected ordering: adjacent strict inversions tolerated, a strict
    # inversion spanning two or more rank positions fails
    violations = []
    for i, hi in enumerate(EXPECTED_ACCURACY_ORDER):
        for j in range(i + 2, len(EXPECTED_ACCURACY_ORDER)):
            lo = EXPECTED_ACCURACY_ORDER[j]
            if acc[lo] > acc[hi]:
                violations.append((lo, hi, acc[lo], acc[hi]))
    assert not violations, f"long-range inversions: {violations}"
    assert acc["self-recall"] == max(acc.values())
    report(6, "scoring ablation", " ".join(f"{n}={acc[n]:.3f}" for n in EXPECTED_ACCURACY_ORDER))


def test_criterion_07_gram_study():
    t0 = time.perf_counter()
    results = rank_study([128, 256, 512], [8, 16, 64], seed=7)
    by = {(r.n, r.d): r for r in results}
    shared = 129  # every rank D <= 128
    assert np.all(
        by[(512, 16)].truncated_errors[:shared] >= by[(128, 16)].truncated_errors[:shared]
    ), "more samples must dominate"
    assert np.all(
        by[(256, 64)].truncated_errors[:shared] >= by[(256, 8)].truncated_errors[:shared]
    ), "larger dimension must dominate"

    # any trained rank-D factorization sits above the spectral floor
    d, feature_dim, n = 8, 16, 64
    cfg = AttentionConfig(d, feature_dim=feature_dim, scale=1.0)
    xs = SeededRng(7001).generator().normal(0.0, d**-0.25, size=(n, d))
    corpus = [(xs[:16], xs[:16], SeededRng(7002).generator().normal(size=(16, d)))]
    params = distill_feature_map(SeededRng(7003), cfg, corpus, steps=30, learning_rate=1e-3)
    g = gram_matrix(xs)
    phi = feature_map_batch(params, xs)
    approx_err = float(((g - phi @ phi.T) ** 2).sum())
    floor = float(rank_study([n], [d], seed=7004)[0].truncated_errors[feature_dim])
    sv = np.linalg.svd(g, compute_uv=False)
    own_floor = float((sv[feature_dim:] ** 2).sum())
    assert approx_err >= own_floor - 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(7, "gram study", f"dominance holds; trained map error {approx_err:.3e} >= "
                            f"floor {own_floor:.3e}; {elapsed:.1f}s (aux floor {floor:.3e})")


def test_criterion_08_collision_analysis(tmp_path):
    task = SyntheticTaskSpec(
        haystack_len=256, head_dim=16, key_distribution="clustered",
        value_codebook_size=16, seed=1,
    )
    from lola.harness import gen_niah

    inst = gen_niah(task, seed=1)
    attn = AttentionConfig(16)
    params = resolve_feature_map(ExperimentConfig(feature_map="distill", seed=1), task, attn)
    means = {}
    for policy in ("lola", "window-only", "linear-only"):
        cm = collision_matrix(inst.keys, inst.values, policy, 64, 64, attn, params)
        means[policy] = mean_absorbed_error(cm)
    assert means["lola"] <= means["window-only"] <= means["linear-only"], means

    # sparse residents read exactly zero in the final row
    eng = LolaCache(attn, params, 64, 64)
    for t in range(256):
        eng.update(inst.keys[t], inst.values[t])
    cm = collision_matrix(inst.keys, inst.values, "lola", 64, 64, attn, params)
    assert eng.sparse_size > 0
    for idx in eng.sparse_indices:
        assert cm.errors[255, idx - 1] == 0.0

    # relative matrices reproduce byte for byte
    blobs = []
    for run in range(2):
        cm = collision_matrix(inst.keys, inst.values, "lola", 64, 64, attn, params)
        rel = relative_to_absorption(cm)
        path = tmp_path / f"rel{run}.csv"
        write_collision_csv(rel, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    report(8, "collision analysis",
           f"means lola={means['lola']:.3f} <= window={means['window-only']:.3f} "
           f"<= linear={means['linear-only']:.3f}; matrices byte-identical")


def test_criterion_09_distillation_sanity():
    # analytic gradient vs central differences on 50 small instances
    worst = 0.0
    for i in range(50):
        gen = SeededRng(9000 + i).generator()
        d = int(gen.integers(2, 4))
        feature_dim = 2 * int(gen.integers(2, 4))
        n = int(gen.integers(3, 7))
        cfg = AttentionConfig(d, feature_dim=feature_dim)
        params = init_feature_map(SeededRng(9500 + i), cfg)
        sequences = [tuple(gen.normal(size=(3, n, d)))]
        _, grad = distillation_gradient(params, cfg, sequences)
        eps = 1e-5
        w = params.weights
        fd = np.zeros_like(w)
        for r in range(w.shape[0]):
            for c in range(w.shape[1]):
                up, down = w.copy(), w.copy()
                up[r, c] += eps
                down[r, c] -= eps
                fd[r, c] = (
                    distillation_loss(FeatureMapParams(up), cfg, sequences)
                    - distillation_loss(FeatureMapParams(down), cfg, sequences)
                ) / (2 * eps)
        scale = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        rel = float(np.max(np.abs(grad - fd) / scale))
        worst = max(worst, rel)
        assert rel < 1e-4

    # training loss strictly decreases over a 200-step run
    cfg = AttentionConfig(2, feature_dim=8)
    gen = SeededRng(9999).generator()
    corpus = [tuple(gen.normal(size=(3, 8, 2))) for _ in range(16)]
    history = []
    distill_feature_map(SeededRng(9998), cfg, corpus, 200, 1e-3, loss_history=history)
    assert history[-1] < history[0]
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    report(9, "distillation sanity",
           f"50 gradient checks worst rel err {worst:.2e}; loss {history[0]:.3f} -> {history[-1]:.3f}")


def test_criterion_10_end_to_end_suite(tmp_path):
    t0 = time.perf_counter()
    status = run_suite(None, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    assert status == 0
    assert elapsed < 600.0
    (out,) = list(tmp_path.iterdir())
    assert (out / "manifest.json").exists()
    report(10, "end-to-end suite", f"default suite exit 0 in {elapsed:.0f}s, artifacts in {out.name}")
