"""The prepare-once trainer against the per-evaluation trainer it replaced,
and the closed-form gradient against the einsum gradient it replaced.

The functions below are the earlier ``_sequence_loss_grad``,
``distillation_loss``, ``distillation_gradient`` and ``distill_feature_map``,
verbatim except that the gradient is the closed form ``lola.attention`` now
uses: every loss evaluation re-validates each sequence and recomputes its
oracle teacher, and every step recomputes the forward pass its line search
already made. ``lola.attention`` validates and computes the teacher once per
fit and reuses the accepted forward pass; the weights and the loss history
must match bit for bit, and so must the type of any exception, except that a
malformed sequence is now reported before the guard trips on an earlier one.

``einsum_backward`` is the earlier ``_backward`` verbatim: it builds the
(m, n, n) tensor of kernel derivatives and contracts it. The closed form sums
in another order, so it is held to that gradient within a tolerance, and a
harness fit with either gradient to the same weights within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import lola.attention as attention
from lola import AttentionConfig, SeededRng, init_feature_map
from lola.attention import (
    DEFAULT_MAX_LOGIT,
    DistillationDiverged,
    FeatureMapParams,
    OverflowGuardError,
    feature_map_batch,
    softmax_attention_oracle,
)
from lola.harness.experiments import DISTILL_LR, DISTILL_STEPS, _distill_corpus
from lola.harness.synthetic import SyntheticTaskSpec
from lola.numerics import as_matrix


def _sequence_loss_grad(params, config, qs, ks, vs, need_grad):
    """Squared tracking error of the linear path against the oracle, and its
    gradient in the map weights if requested."""
    qs = as_matrix(qs)
    ks = as_matrix(ks, rows=qs.shape[0], cols=qs.shape[1])
    vs = as_matrix(vs, rows=qs.shape[0])
    n = qs.shape[0]
    phi_q = feature_map_batch(params, qs)
    phi_k = feature_map_batch(params, ks)
    mask = np.tril(np.ones((n, n)))
    pm = (phi_q @ phi_k.T) * mask
    denom = pm.sum(axis=1)  # strictly positive: the map is positive
    yhat = (pm @ vs) / denom[:, None]
    teacher = softmax_attention_oracle(qs, ks, vs, config.scale)
    r = yhat - teacher
    loss = float((r * r).sum())
    if not need_grad:
        return loss, None
    # d loss / d kernel value (t, j): 2 r_t.(v_j - yhat_t) / denom_t, causal only
    g = (2.0 / denom)[:, None] * (r @ vs.T - (r * yhat).sum(axis=1, keepdims=True)) * mask
    m = params.weights.shape[0]
    # d kernel(t, j) / d w_i = (phiq[t,i] phik[j,i] - phiq[t,i+m] phik[j,i+m]) (q_t + k_j)
    a = phi_q * (g @ phi_k)
    b = phi_k * (g.T @ phi_q)
    grad = (a[:, :m] - a[:, m:]).T @ qs + (b[:, :m] - b[:, m:]).T @ ks
    return loss, grad


def einsum_backward(weights, prepared, states) -> np.ndarray:
    """Gradient of the ``_forward`` loss in the map weights."""
    grad = np.zeros_like(weights)
    m = weights.shape[0]
    for (qs, ks, vs, mask, _), (phi_q, phi_k, denom, yhat, r) in zip(prepared, states):
        # d loss / d kernel value (t, j): 2 r_t.(v_j - yhat_t) / denom_t, causal only
        g = (2.0 / denom)[:, None] * (r @ vs.T - (r * yhat).sum(axis=1, keepdims=True)) * mask
        # d kernel(t, j) / d w_i = (phiq[t,i] phik[j,i] - phiq[t,i+m] phik[j,i+m]) (q_t + k_j)
        diff = (
            phi_q.T[:m, :, None] * phi_k.T[:m, None, :]
            - phi_q.T[m:, :, None] * phi_k.T[m:, None, :]
        )  # (m, n, n)
        c = g[None, :, :] * diff
        grad += np.einsum("itj,td->id", c, qs) + np.einsum("itj,jd->id", c, ks)
    return grad


def distillation_loss(params, config, sequences) -> float:
    total = 0.0
    for qs, ks, vs in sequences:
        loss, _ = _sequence_loss_grad(params, config, qs, ks, vs, need_grad=False)
        total += loss
    return total


def distillation_gradient(params, config, sequences):
    """Total loss and its gradient in the map weights, summed over sequences."""
    total = 0.0
    grad = np.zeros_like(params.weights)
    for qs, ks, vs in sequences:
        loss, g = _sequence_loss_grad(params, config, qs, ks, vs, need_grad=True)
        total += loss
        grad += g
    return total, grad


def distill_feature_map(
    rng: SeededRng,
    config: AttentionConfig,
    sequences,
    steps: int,
    learning_rate: float,
    *,
    init: FeatureMapParams | None = None,
    loss_history: list | None = None,
) -> FeatureMapParams:
    """Fit the feature map to the oracle's outputs by gradient descent.

    Each step backtracks (halves the step size) until the loss does not
    increase, so the loss trajectory is nonincreasing; the reduced step size
    carries over to later steps. ``steps == 0`` returns the initialization
    unchanged. A non-finite loss aborts with ``DistillationDiverged``.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not sequences:
        raise ValueError("need at least one training sequence")
    params = init if init is not None else init_feature_map(rng, config)
    w = params.weights.copy()
    lr = learning_rate
    for _ in range(steps):
        loss, grad = distillation_gradient(FeatureMapParams(w), config, sequences)
        if not np.isfinite(loss):
            raise DistillationDiverged(f"training loss became non-finite ({loss})")
        if loss_history is not None:
            loss_history.append(loss)
        while True:
            w_try = w - lr * grad
            try:
                new_loss = distillation_loss(FeatureMapParams(w_try), config, sequences)
            except OverflowGuardError:
                new_loss = np.inf
            if np.isfinite(new_loss) and new_loss <= loss:
                break
            lr *= 0.5
            if lr < learning_rate * 2.0 ** -60:
                # gradient no longer yields progress at any usable step size
                if loss_history is not None:
                    loss_history.append(loss)
                return FeatureMapParams(w)
        w = w_try
    if loss_history is not None:
        loss_history.append(distillation_loss(FeatureMapParams(w), config, sequences))
    return FeatureMapParams(w)


def corpus(d, lengths, seed, poison=None):
    """One (q, k, v) per length; ``poison`` puts an inf into the last
    sequence's "q", "k" or "v"."""
    gen = SeededRng(seed).generator()
    sequences = [tuple(gen.normal(size=(3, n, d))) for n in lengths]
    if poison is not None:
        sequences[-1][("q", "k", "v").index(poison)][0, 0] = np.inf
    return sequences


def make_init(kind, cfg, sequences, seed):
    if kind == "none":
        return None
    w = init_feature_map(SeededRng(seed + 1), cfg).weights
    if kind == "at-guard":
        # the largest logit lands on the overflow bound, so a step outward
        # trips the guard at every step size: the lr-underflow return
        xs = np.concatenate([np.concatenate([q, k]) for q, k, _ in sequences])
        w = w * (DEFAULT_MAX_LOGIT / np.abs(xs @ w.T).max())
    return FeatureMapParams(w)


# (d, lengths, seed) whose at-guard fit at lr 1e6 takes the lr-underflow
# return; the property's examples include both
UNDERFLOW_CASES = [(4, [2, 1, 6], 4), (16, [1, 2, 7], 0)]


def outcome(fit, cfg, sequences, steps, lr, init, keep_history):
    """The fitted weights and loss history as bytes, or the exception type."""
    history = [] if keep_history else None
    try:
        params = fit(SeededRng(3), cfg, sequences, steps, lr, init=init, loss_history=history)
    except Exception as exc:  # the type is the outcome under test
        event(f"raised {type(exc).__name__}")
        return type(exc)
    if history is not None and len(history) < steps + 1:
        event("lr-underflow return")
    return params.weights.tobytes(), None if history is None else [x.hex() for x in history]


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([1, 2, 4, 16]),
    lengths=st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 12),
    log_lr=st.floats(-4.0, 6.0),
    init=st.sampled_from(["none", "random", "at-guard"]),
    keep_history=st.booleans(),
    poison=st.sampled_from([None, None, None, "q", "k", "v"]),
)
@example(d=1, lengths=[1], seed=0, steps=12, log_lr=6.0, init="none", keep_history=True, poison=None)
@example(d=4, lengths=[2, 1, 6], seed=4, steps=12, log_lr=6.0, init="at-guard", keep_history=True, poison=None)
@example(d=16, lengths=[1, 2, 7], seed=0, steps=12, log_lr=6.0, init="at-guard", keep_history=True, poison=None)
def test_fit_is_bit_equal_to_the_reference(d, lengths, seed, steps, log_lr, init, keep_history, poison):
    cfg = AttentionConfig(d)
    sequences = corpus(d, lengths, seed, poison)
    init_params = make_init(init, cfg, corpus(d, lengths, seed), seed)
    args = (cfg, sequences, steps, 10.0**log_lr, init_params, keep_history)
    expected = outcome(distill_feature_map, *args)
    got = outcome(attention.distill_feature_map, *args)
    if poison is not None and (steps or keep_history):
        # the whole corpus is validated before the map is evaluated, so the
        # inf is reported even where the reference first tripped the guard on
        # an earlier sequence (OverflowGuardError is a ValueError too)
        assert got is ValueError and expected in (ValueError, OverflowGuardError)
    else:
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2, 4, 16, 64]),
    lengths=st.lists(st.integers(1, 8), min_size=0, max_size=6, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_and_gradient_are_bit_equal_to_the_reference(d, lengths, seed):
    cfg = AttentionConfig(d)
    sequences = corpus(d, lengths, seed)
    params = init_feature_map(SeededRng(seed + 1), cfg)
    loss, grad = attention.distillation_gradient(params, cfg, sequences)
    ref_loss, ref_grad = distillation_gradient(params, cfg, sequences)
    assert loss.hex() == ref_loss.hex()
    assert grad.tobytes() == ref_grad.tobytes()
    assert attention.distillation_loss(params, cfg, sequences).hex() == ref_loss.hex()
    assert distillation_loss(params, cfg, sequences).hex() == ref_loss.hex()
    prepared = attention._prepare(cfg, sequences)
    old_grad = einsum_backward(params.weights, prepared, attention._forward(params, prepared)[1])
    assert np.max(np.abs(grad - old_grad), initial=0.0) <= 1e-12 * np.max(np.abs(old_grad), initial=0.0)


@pytest.mark.parametrize("d", [16, 64])
def test_a_harness_fit_matches_the_einsum_gradient_fit(monkeypatch, d):
    # the corpus, steps and learning rate of resolve_feature_map's "distill"
    # map at seed 1; at seed 0 the d=64 fits agree to 2.2e-11 only, as 40
    # steps amplify the gradients' last-bit differences (the line search
    # takes the same steps with either gradient)
    task = SyntheticTaskSpec(haystack_len=64, head_dim=d, key_distribution="clustered", seed=1)
    rng = SeededRng(1).child(7)
    cfg = AttentionConfig(d)
    sequences = _distill_corpus(task, rng.child(1))
    fits = []
    for backward in (attention._backward, einsum_backward):
        monkeypatch.setattr(attention, "_backward", backward)
        history = []
        params = attention.distill_feature_map(
            rng.child(2), cfg, sequences, DISTILL_STEPS, DISTILL_LR, loss_history=history
        )
        fits.append((params.weights, np.array(history)))
    (w, history), (old_w, old_history) = fits
    assert len(history) == DISTILL_STEPS + 1
    assert np.max(np.abs(w - old_w)) <= 1e-12 * np.max(np.abs(old_w))
    np.testing.assert_allclose(history, old_history, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d, lengths, seed", UNDERFLOW_CASES)
def test_the_underflow_examples_return_early(d, lengths, seed):
    cfg = AttentionConfig(d)
    sequences = corpus(d, lengths, seed)
    history = []
    distill_feature_map(
        SeededRng(3), cfg, sequences, 12, 1e6,
        init=make_init("at-guard", cfg, sequences, seed), loss_history=history,
    )
    assert len(history) < 13


@pytest.fixture
def oracle_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return softmax_attention_oracle(*args, **kwargs)

    monkeypatch.setattr(attention, "softmax_attention_oracle", counting)
    return calls


@pytest.mark.parametrize("steps", [0, 1, 8])
def test_a_fit_computes_each_teacher_once(oracle_calls, steps):
    cfg = AttentionConfig(4)
    sequences = corpus(4, [1, 3, 6, 2, 5], seed=9)
    attention.distill_feature_map(SeededRng(1), cfg, sequences, steps, 1e-2, loss_history=[])
    assert len(oracle_calls) == len(sequences)


def test_zero_steps_without_history_evaluates_nothing(oracle_calls):
    cfg = AttentionConfig(4)
    sequences = corpus(4, [1, 3, 6], seed=9)
    out = attention.distill_feature_map(SeededRng(1), cfg, sequences, 0, 1e-2)
    assert oracle_calls == []
    np.testing.assert_array_equal(out.weights, init_feature_map(SeededRng(1), cfg).weights)
