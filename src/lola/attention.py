"""Exact softmax attention, the paired exponential feature map, and the
linear-attention hidden state.

The oracle evaluates causal attention exactly, with per-query max subtraction
for stability, so each output is a convex combination of the values seen so
far. The feature map sends ``x`` to ``[exp(w_i.x)] ++ [exp(-w_i.x)]``: every
output entry is strictly positive and paired entries multiply to exactly one.
A fixed bound, ``DEFAULT_MAX_LOGIT``, on the pre-exponential magnitude rejects
inputs that would wash out downstream normalizers. ``distill_feature_map``
fits the map so the linear recall path tracks the oracle on a corpus, by
gradient descent on the squared error with backtracking (the loss never
increases between accepted steps).
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import SeededRng, _number_array, as_matrix, as_vector

__all__ = [
    "DEFAULT_MAX_LOGIT",
    "AttentionConfig",
    "DistillationDiverged",
    "FeatureMapParams",
    "LinearState",
    "OverflowGuardError",
    "distill_feature_map",
    "distillation_gradient",
    "distillation_loss",
    "feature_map_apply",
    "feature_map_batch",
    "init_feature_map",
    "load_feature_map",
    "save_feature_map",
    "softmax_attention_oracle",
]

# the largest |w.x| the feature map exponentiates; a numeric guard, not a knob
DEFAULT_MAX_LOGIT = 30.0
# load_feature_map's weights by file contents, so a file rewritten in place is parsed again
_parsed_maps: dict[bytes, np.ndarray] = {}


class OverflowGuardError(ValueError):
    """A pre-exponential magnitude exceeded ``DEFAULT_MAX_LOGIT``."""


class DistillationDiverged(RuntimeError):
    """The distillation loss became non-finite."""


@dataclass(frozen=True)
class AttentionConfig:
    """Head shape and logit scaling.

    ``feature_dim`` defaults to twice ``head_dim``; ``scale`` defaults to
    ``1/sqrt(head_dim)`` and multiplies every exponential dot product in the
    engine, softmax terms and scores alike.
    """

    head_dim: int
    feature_dim: int | None = None
    scale: float | None = None

    def __post_init__(self):
        _check_size("head_dim", self.head_dim, 1)
        _check_feature_dim(self.feature_dim)
        if self.feature_dim is None:
            object.__setattr__(self, "feature_dim", 2 * self.head_dim)
        if self.scale is None:
            object.__setattr__(self, "scale", self.head_dim ** -0.5)
        # bool is not a scale; the comparison is false for NaN
        real = isinstance(self.scale, numbers.Real) and not isinstance(self.scale, bool)
        if not (real and 0 < self.scale <= sys.float_info.max):
            raise ValueError(f"scale must be a finite positive real, got {self.scale!r}")


def _is_int(value) -> bool:
    # bool is not a size
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_size(name: str, value, least: int) -> None:
    """The rule for every size: an int of at least ``least``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_feature_dim(value) -> None:
    """The rule for a feature width, one exponential pair per weight row;
    None takes the default of twice the head dimension."""
    if value is None:
        return
    if not _is_int(value):
        raise ValueError(f"feature_dim must be None or an int, got {value!r}")
    if value < 2 or value % 2:
        raise ValueError(f"feature_dim must be a positive even integer, got {value}")


def _rekey(exc: ValueError, keys: dict | None = None) -> str:
    """A spec's ``"<field> <rule>"`` error as ``"'<key>' <rule>"``, the field
    renamed through ``keys`` where the caller calls it something else. Every
    spec's error text starts with the name of the field at fault."""
    name, rule = str(exc).split(" ", 1)
    return f"{(keys or {}).get(name, name)!r} {rule}"


@dataclass(frozen=True)
class FeatureMapParams:
    """Weights of the paired exponential map, one row per exponential pair."""

    weights: np.ndarray  # (feature_dim // 2, head_dim)

    def __post_init__(self):
        object.__setattr__(self, "weights", as_matrix(self.weights))

    @property
    def head_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def feature_dim(self) -> int:
        return 2 * self.weights.shape[0]


def _check_fits(params: FeatureMapParams, config: AttentionConfig) -> None:
    """The rule that a map serves a head shape: its feature width and head
    dimension are the config's."""
    if params.head_dim != config.head_dim or params.feature_dim != config.feature_dim:
        raise ValueError(
            f"feature map is {params.feature_dim}x{params.head_dim}, "
            f"config wants {config.feature_dim}x{config.head_dim}"
        )


def init_feature_map(rng: SeededRng, config: AttentionConfig) -> FeatureMapParams:
    """Gaussian init with per-entry variance 1/head_dim, so w.x is order one."""
    gen = rng.generator()
    w = gen.normal(0.0, config.head_dim ** -0.5, size=(config.feature_dim // 2, config.head_dim))
    return FeatureMapParams(w)


def _guard(z: np.ndarray) -> None:
    peak = float(abs(z).max(initial=0.0))
    if peak > DEFAULT_MAX_LOGIT:
        raise OverflowGuardError(
            f"pre-exponential magnitude {peak:.4g} exceeds the bound {DEFAULT_MAX_LOGIT:g}; "
            "rescale the inputs"
        )


def _feature_row(params: FeatureMapParams, x: np.ndarray) -> np.ndarray:
    """``feature_map_apply`` on an already validated vector."""
    z = params.weights @ x
    _guard(z)
    return np.concatenate([np.exp(z), np.exp(-z)])


def _feature_rows(params: FeatureMapParams, xs: np.ndarray) -> np.ndarray:
    """``_feature_row`` of every row of an already validated matrix, bit for bit.

    A stacked matrix-vector product gives each row the bits of ``W @ x``; the
    single GEMM of ``feature_map_batch`` differs from it in the last bit, and
    that is enough to flip which pair a cache keeps. The guard covers every
    row before any is returned.
    """
    z = np.matmul(params.weights, xs[:, :, None])[:, :, 0]
    _guard(z)
    return np.concatenate([np.exp(z), np.exp(-z)], axis=1)


def feature_map_apply(params: FeatureMapParams, x) -> np.ndarray:
    """Map one vector to its strictly positive feature vector."""
    return _feature_row(params, as_vector(x, dim=params.head_dim))


def _feature_batch(params: FeatureMapParams, xs: np.ndarray) -> np.ndarray:
    """``feature_map_batch`` on an already validated matrix: one GEMM, both
    halves exponentiated into the array returned."""
    z = xs @ params.weights.T
    _guard(z)
    half = z.shape[1]
    phi = np.empty((z.shape[0], 2 * half))
    np.exp(z, out=phi[:, :half])
    np.negative(z, out=z)
    np.exp(z, out=phi[:, half:])
    return phi


def feature_map_batch(params: FeatureMapParams, xs) -> np.ndarray:
    """Map rows of ``xs`` to feature vectors, one per row."""
    return _feature_batch(params, as_matrix(xs, cols=params.head_dim))


def softmax_attention_oracle(qs, ks, vs, scale: float) -> np.ndarray:
    """Exact causal attention outputs for a whole sequence.

    Output ``t`` is the softmax-weighted mean of values ``1..t`` with logits
    ``scale * q_t.k_i``, stabilized by max subtraction.
    """
    qs = as_matrix(qs)
    ks = as_matrix(ks, rows=qs.shape[0], cols=qs.shape[1])
    vs = as_matrix(vs, rows=qs.shape[0])
    n = qs.shape[0]
    if n < 1:
        raise ValueError("need at least one token")
    out = np.empty_like(vs)
    for t in range(n):
        logits = (ks[: t + 1] @ qs[t]) * scale
        w = np.exp(logits - logits.max())
        out[t] = (w @ vs[: t + 1]) / w.sum()
    return out


@dataclass
class LinearState:
    """Running associative memory: ``hidden += phi(k) v^T``, ``normalizer += phi(k)``."""

    hidden: np.ndarray      # (feature_dim, head_dim)
    normalizer: np.ndarray  # (feature_dim,)
    count: int = 0
    # the arrays the latest ``update`` replaced; the next one writes into them
    _spare: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # ``update`` writes the outer product with np.dot, whose output must
        # be a C-contiguous float64 array
        self.hidden = np.ascontiguousarray(self.hidden, dtype=np.float64)

    @classmethod
    def zeros(cls, feature_dim: int, head_dim: int) -> "LinearState":
        return cls(np.zeros((feature_dim, head_dim)), np.zeros(feature_dim), 0)

    def update(self, phi_k: np.ndarray, v: np.ndarray) -> None:
        """Absorb one pair.

        The new ``hidden`` and ``normalizer`` are written into the arrays the
        previous update replaced, so no temporary is allocated, and the
        arrays this update replaces keep the state before it, unchanged until
        the next update.
        """
        hidden, normalizer = self.hidden, self.normalizer
        if phi_k.shape != (hidden.shape[0],) or v.shape != (hidden.shape[1],):
            raise ValueError(
                f"dimension mismatch: state is {hidden.shape}, "
                f"got phi_k {phi_k.shape} and v {v.shape}"
            )
        if self._spare is None:
            self._spare = (np.empty_like(hidden), np.empty_like(normalizer))
        self.hidden, self.normalizer = new_hidden, new_normalizer = self._spare
        self._spare = (hidden, normalizer)
        # a product of inner size one has one multiply per entry, so np.dot
        # gives the bits of phi_k[:, None] * v, without the loop buffers of a
        # broadcast multiply; addition commutes in IEEE arithmetic: the bits
        # of hidden + phi_k v^T
        np.dot(phi_k[:, None], v[None, :], out=new_hidden)
        new_hidden += hidden
        np.add(normalizer, phi_k, out=new_normalizer)
        self.count += 1

    def absorb(self, phi_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Bulk update; rows should already be in the intended order."""
        f, d = self.hidden.shape
        if phi_rows.ndim != 2 or phi_rows.shape[1] != f or v_rows.shape != (phi_rows.shape[0], d):
            raise ValueError(
                f"dimension mismatch: state is {self.hidden.shape}, "
                f"got phi_rows {phi_rows.shape} and v_rows {v_rows.shape}"
            )
        if phi_rows.shape[0] == 0:
            return
        self.hidden += phi_rows.T @ v_rows
        self.normalizer += phi_rows.sum(axis=0)
        self.count += phi_rows.shape[0]


def save_feature_map(params: FeatureMapParams, path) -> None:
    """Write the map as JSON: dims header plus row-major weights."""
    payload = {
        "format": "paired-exp-feature-map-v1",
        "head_dim": params.head_dim,
        "feature_dim": params.feature_dim,
        "weights": params.weights.reshape(-1).tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def load_feature_map(path) -> FeatureMapParams:
    """Read a map written by ``save_feature_map``. A malformed file raises
    ``ValueError`` naming the file and the field at fault."""
    data = Path(path).read_bytes()
    if data not in _parsed_maps:
        _parsed_maps[data] = _parse_feature_map(data, path)
    return FeatureMapParams(_parsed_maps[data].copy())


def _parse_feature_map(data: bytes, path) -> np.ndarray:
    try:
        payload = json.loads(data)
    except ValueError as exc:
        raise ValueError(f"feature map {path}: not JSON: {exc}") from None
    if not isinstance(payload, dict):
        kind = type(payload).__name__
        raise ValueError(f"feature map {path}: top level must be an object, got {kind}")
    if payload.get("format") != "paired-exp-feature-map-v1":
        raise ValueError(f"feature map {path}: 'format' is not 'paired-exp-feature-map-v1'")
    try:
        return _read_map(payload.get("head_dim"), payload.get("feature_dim"), payload.get("weights"))
    except ValueError as exc:
        raise ValueError(f"feature map {path}: {exc}") from None


def _read_map(head_dim, feature_dim, weights) -> np.ndarray:
    """A saved map's sizes and flat weights, parsed JSON from a map file,
    checked: the sizes by ``AttentionConfig``'s rules, with a null
    ``feature_dim`` refused rather than defaulted, and the weights as a list
    of as many finite numbers as the sizes need. Returns them as rows; an
    error's text starts with the quoted field at fault."""
    try:
        _check_size("head_dim", head_dim, 1)
        if feature_dim is None:
            raise ValueError("feature_dim is null, not the saved map's width")
        if not _is_int(feature_dim):
            raise ValueError(f"feature_dim must be an int, got {feature_dim!r}")
        _check_feature_dim(feature_dim)
    except ValueError as exc:
        raise ValueError(_rekey(exc)) from None
    if not isinstance(weights, list):
        raise ValueError(f"'weights' must be a list of numbers, got {type(weights).__name__}")
    weights = _number_array(weights, "'weights'")
    if weights.shape != (feature_dim // 2 * head_dim,):
        raise ValueError(
            f"'feature_dim' {feature_dim} and 'head_dim' {head_dim} need "
            f"{feature_dim // 2 * head_dim} 'weights', got shape {weights.shape}"
        )
    if not np.isfinite(weights).all():
        raise ValueError("'weights' has non-finite entries")
    return weights.reshape(feature_dim // 2, head_dim)


def _prepare(config, sequences) -> list:
    """Validate each (q, k, v) once and compute what does not depend on the
    weights: its causal mask and its oracle teacher."""
    prepared = []
    for qs, ks, vs in sequences:
        qs = as_matrix(qs)
        ks = as_matrix(ks, rows=qs.shape[0], cols=qs.shape[1])
        vs = as_matrix(vs, rows=qs.shape[0])
        mask = np.tril(np.ones((qs.shape[0], qs.shape[0])))
        prepared.append((qs, ks, vs, mask, softmax_attention_oracle(qs, ks, vs, config.scale)))
    return prepared


def _forward(params, prepared):
    """Squared tracking error of the linear path against the oracle, summed in
    sequence order, and per sequence what ``_backward`` needs."""
    total = 0.0
    states = []
    for qs, ks, vs, mask, teacher in prepared:
        phi_q = _feature_batch(params, qs)
        phi_k = _feature_batch(params, ks)
        pm = (phi_q @ phi_k.T) * mask
        denom = pm.sum(axis=1)  # strictly positive: the map is positive
        yhat = (pm @ vs) / denom[:, None]
        r = yhat - teacher
        total += float((r * r).sum())
        states.append((phi_q, phi_k, denom, yhat, r))
    return total, states


def _backward(weights, prepared, states) -> np.ndarray:
    """Gradient of the ``_forward`` loss in the map weights."""
    grad = np.zeros_like(weights)
    m = weights.shape[0]
    for (qs, ks, vs, mask, _), (phi_q, phi_k, denom, yhat, r) in zip(prepared, states):
        # d loss / d kernel value (t, j): 2 r_t.(v_j - yhat_t) / denom_t, causal only
        g = (2.0 / denom)[:, None] * (r @ vs.T - (r * yhat).sum(axis=1, keepdims=True)) * mask
        # d kernel(t, j) / d w_i = (phiq[t,i] phik[j,i] - phiq[t,i+m] phik[j,i+m]) (q_t + k_j)
        a = phi_q * (g @ phi_k)
        b = phi_k * (g.T @ phi_q)
        grad += (a[:, :m] - a[:, m:]).T @ qs + (b[:, :m] - b[:, m:]).T @ ks
    return grad


def distillation_loss(params, config, sequences) -> float:
    return _forward(params, _prepare(config, sequences))[0]


def distillation_gradient(params, config, sequences):
    """Total loss and its gradient in the map weights, summed over sequences."""
    prepared = _prepare(config, sequences)
    loss, states = _forward(params, prepared)
    return loss, _backward(params.weights, prepared, states)


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
    unchanged. A non-finite loss aborts with ``DistillationDiverged``. The
    corpus is read once, and its oracle outputs are computed once per fit;
    each step's gradient reuses the forward pass that accepted its weights.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    sequences = list(sequences)
    if not sequences:
        raise ValueError("need at least one training sequence")
    params = init if init is not None else init_feature_map(rng, config)
    w = params.weights.copy()
    lr = learning_rate
    if steps or loss_history is not None:
        prepared = _prepare(config, sequences)
        loss, states = _forward(FeatureMapParams(w), prepared)
    for _ in range(steps):
        if not np.isfinite(loss):
            raise DistillationDiverged(f"training loss became non-finite ({loss})")
        if loss_history is not None:
            loss_history.append(loss)
        grad = _backward(w, prepared, states)
        while True:
            states = None  # hold one forward pass at a time
            w_try = w - lr * grad
            try:
                new_loss, states = _forward(FeatureMapParams(w_try), prepared)
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
        w, loss = w_try, new_loss
    if loss_history is not None:
        loss_history.append(loss)
    return FeatureMapParams(w)
