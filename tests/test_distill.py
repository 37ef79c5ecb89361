"""Trainer checks: gradient against central differences, loss descent."""

import numpy as np
import pytest

from lola import AttentionConfig, FeatureMapParams, SeededRng, distill_feature_map, init_feature_map
from lola.attention import DistillationDiverged, distillation_gradient, distillation_loss


def random_instance(seed, n=4, d=2, feature_dim=4, n_seq=1):
    cfg = AttentionConfig(d, feature_dim=feature_dim)
    gen = SeededRng(seed).generator()
    sequences = [tuple(gen.normal(size=(3, n, d))) for _ in range(n_seq)]
    params = init_feature_map(SeededRng(seed + 1), cfg)
    return cfg, params, sequences


def fd_gradient(params, cfg, sequences, eps=1e-5):
    w = params.weights
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            up = w.copy()
            up[i, j] += eps
            down = w.copy()
            down[i, j] -= eps
            grad[i, j] = (
                distillation_loss(FeatureMapParams(up), cfg, sequences)
                - distillation_loss(FeatureMapParams(down), cfg, sequences)
            ) / (2 * eps)
    return grad


def max_rel_err(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / scale))


def test_gradient_matches_central_differences_small_instance():
    cfg, params, sequences = random_instance(0)
    _, grad = distillation_gradient(params, cfg, sequences)
    assert max_rel_err(grad, fd_gradient(params, cfg, sequences)) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_central_differences_randomized(seed):
    cfg, params, sequences = random_instance(100 + seed, n=5, d=3, feature_dim=6)
    _, grad = distillation_gradient(params, cfg, sequences)
    assert max_rel_err(grad, fd_gradient(params, cfg, sequences)) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_central_differences_on_unequal_sequences(seed):
    # m > 1 sequences of unequal lengths: the per-sequence terms must sum
    cfg = AttentionConfig(4, feature_dim=8)
    gen = SeededRng(200 + seed).generator()
    sequences = [tuple(gen.normal(size=(3, n, 4))) for n in (3, 8)]
    params = init_feature_map(SeededRng(201 + seed), cfg)
    _, grad = distillation_gradient(params, cfg, sequences)
    assert max_rel_err(grad, fd_gradient(params, cfg, sequences)) < 1e-4


def test_zero_steps_returns_initialization():
    cfg, params, sequences = random_instance(7)
    out = distill_feature_map(SeededRng(8), cfg, sequences, steps=0, learning_rate=1e-3, init=params)
    np.testing.assert_array_equal(out.weights, params.weights)


def test_loss_strictly_decreases_on_small_corpus():
    cfg = AttentionConfig(2, feature_dim=8)
    gen = SeededRng(20).generator()
    sequences = [tuple(gen.normal(size=(3, 8, 2))) for _ in range(16)]
    history = []
    distill_feature_map(
        SeededRng(21), cfg, sequences, steps=200, learning_rate=1e-3, loss_history=history
    )
    assert history[-1] < history[0]
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:])), "loss increased"


def test_backtracking_recovers_from_huge_learning_rate():
    cfg, params, sequences = random_instance(30)
    history = []
    distill_feature_map(
        SeededRng(31), cfg, sequences, steps=10, learning_rate=1e6, loss_history=history
    )
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_divergence_aborts_with_diagnostic():
    cfg = AttentionConfig(2, feature_dim=4)
    bad = [(np.full((2, 2), np.inf), np.ones((2, 2)), np.ones((2, 2)))]
    with pytest.raises((DistillationDiverged, ValueError)):
        distill_feature_map(SeededRng(1), cfg, bad, steps=1, learning_rate=1e-3)


def test_empty_corpus_rejected():
    cfg = AttentionConfig(2)
    with pytest.raises(ValueError):
        distill_feature_map(SeededRng(1), cfg, [], steps=1, learning_rate=1e-3)


def test_a_generator_corpus_trains_like_a_list():
    cfg = AttentionConfig(4)
    gen = SeededRng(40).generator()
    sequences = [tuple(gen.normal(size=(3, 6, 4))) for _ in range(5)]
    fits = []
    for corpus in (sequences, (s for s in sequences)):
        history = []
        params = distill_feature_map(
            SeededRng(41), cfg, corpus, steps=10, learning_rate=1e-2, loss_history=history
        )
        fits.append((params.weights.tobytes(), history))
    assert fits[0] == fits[1]
    assert fits[0][1][-1] < fits[0][1][0]
