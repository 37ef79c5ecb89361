"""Diagnostic studies: spectral floors for kernel approximation, memory
collision matrices, and the policy names that build decode engines.

The spectral study builds exponential-kernel Gram matrices over sampled
inputs and reports how much squared Frobenius error ANY rank-D factorization
must leave behind (the tail of squared |eigenvalues|). Collision matrices
replay a stream under one of the three base policies and record, at every
step, the self-recall error of every pair in the hidden state; window- and
sparse-resident pairs are recorded as exact zeros since they are retrievable
in full rank, and pairs not yet seen stay blank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    DEFAULT_MAX_LOGIT,
    AttentionConfig,
    FeatureMapParams,
    _check_size,
    _feature_rows,
    _guard,
    _is_int,
    feature_map_batch,
)
from .cache import SCORING_STRATEGIES, LolaCache, _pair_rows, _self_recall_scores
from .numerics import SeededRng, as_matrix, gaussian_sample

__all__ = [
    "POLICIES",
    "CollisionMatrix",
    "GramStudyResult",
    "collision_matrix",
    "engine_for_policy",
    "gram_matrix",
    "mean_absorbed_error",
    "rank_study",
    "relative_to_absorption",
    "truncated_errors",
    "write_collision_csv",
    "write_gram_csv",
]


# -- exponential-kernel spectra ------------------------------------------


def gram_matrix(xs) -> np.ndarray:
    """Pairwise ``exp(x_i . x_j)`` for the rows of ``xs``.

    Symmetric positive semidefinite, with ``exp(|x_i|^2)`` on the diagonal.
    Inputs whose pairwise products exceed the feature map's fixed bound
    (``OverflowGuardError``) are rejected before exponentiation.
    """
    xs = as_matrix(xs)
    if xs.shape[0] < 1:
        raise ValueError("need at least one input vector")
    z = xs @ xs.T
    _guard(z)
    return np.exp(z)


def truncated_errors(sv: np.ndarray) -> np.ndarray:
    """Tail sums of squared singular values: entry r is the squared Frobenius
    error left by the best rank-r approximation (entry 0 is the full energy)."""
    sq = np.asarray(sv, dtype=np.float64) ** 2
    return np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])


@dataclass(frozen=True)
class GramStudyResult:
    n: int
    d: int
    singular_values: np.ndarray   # length n, descending
    truncated_errors: np.ndarray  # length n + 1, indexed by retained rank

    def __post_init__(self):
        _check_size("n", self.n, 1)
        _check_size("d", self.d, 1)
        for name, size in (("singular_values", self.n), ("truncated_errors", self.n + 1)):
            curve = getattr(self, name)
            floats = isinstance(curve, np.ndarray) and curve.dtype == np.float64
            if not (floats and curve.shape == (size,)):
                raise ValueError(
                    f"{name} must be a float64 array of shape ({size},), got {_array_kind(curve)}"
                )
            if not np.isfinite(curve).all():
                raise ValueError(f"{name} has non-finite entries")


def _study_grid(n_list, d_list, seed) -> tuple[list[int], list[int], list[np.ndarray]]:
    """The sample counts and dimensions ``rank_study`` runs, checked: each a
    non-empty list of ints >= 1 (bool is not a size), and a seed >= 0. Also
    the inputs drawn for each dimension at the largest n.

    A dimension whose inputs would trip the kernel's overflow guard is
    rejected here, before any Gram matrix is formed: by Cauchy-Schwarz a
    Gram matrix's largest |entry| is its largest diagonal entry, the largest
    squared row norm of its inputs.
    """
    for name, values in (("n_list", n_list), ("d_list", d_list)):
        sizes = isinstance(values, (list, tuple)) and all(_is_int(v) and v >= 1 for v in values)
        if not (sizes and values):
            raise ValueError(f"{name} must be a non-empty list of integers >= 1, got {values!r}")
    _check_size("seed", seed, 0)
    n_list, d_list = [int(n) for n in n_list], [int(d) for d in d_list]
    rng = SeededRng(seed)
    samples = []
    for d in d_list:
        xs = gaussian_sample(rng.child(d), max(n_list), d, d ** -0.25)
        peak = float(np.einsum("ij,ij->i", xs, xs).max())
        if peak > DEFAULT_MAX_LOGIT:
            raise ValueError(
                f"d_list entry {d} draws inputs at seed {seed} whose Gram exponent reaches "
                f"{peak:.4g}, over the kernel guard's bound {DEFAULT_MAX_LOGIT:g}"
            )
        samples.append(xs)
    return n_list, d_list, samples


def rank_study(n_list, d_list, seed: int) -> list[GramStudyResult]:
    """Gram spectra over a grid of sample counts and input dimensions.

    Inputs for a dimension are drawn once at the largest n. Each smaller n
    decomposes the leading block of their one Gram matrix, a principal
    submatrix, so by eigenvalue interlacing the error curve for a larger n
    dominates a smaller one at every rank. Entries are scaled by ``d ** -0.25``,
    which keeps dot products of comparable size across dimensions. A Gram
    matrix is symmetric PSD: its singular values are its |eigenvalues|.
    """
    n_list, d_list, samples = _study_grid(n_list, d_list, seed)
    results = []
    for d, xs in zip(d_list, samples):
        g = gram_matrix(xs)
        for n in n_list:
            sv = np.sort(np.abs(np.linalg.eigvalsh(g[:n, :n])))[::-1]
            results.append(GramStudyResult(n, d, sv, truncated_errors(sv)))
    return results


# -- collision matrices ----------------------------------------------------


POLICIES = ("linear-only", "window-only", "lola")
# the rules ``lola-altscore:<name>`` may name: those ``lola`` does not already run
_ALTSCORE_RULES = tuple(name for name, rule in SCORING_STRATEGIES.items() if not rule.dynamic)
# every policy the decode path runs
_DECODE_POLICIES = (*POLICIES, *(f"lola-altscore:{name}" for name in _ALTSCORE_RULES))


def _policy_tiers(policy: str, window_capacity: int, sparse_capacity: int) -> tuple:
    """What a policy name keeps of the given budgets: (window capacity,
    sparse capacity, scoring rule or None for self-recall).

    ``linear-only`` drops both full-rank tiers, ``window-only`` drops the
    sparse cache, ``lola`` keeps all three, and ``lola-altscore:<name>``
    swaps the self-recall rule for one of the alternative window scores.
    """
    if policy == "linear-only":
        return 0, 0, None
    if policy == "window-only":
        return window_capacity, 0, None
    if policy == "lola":
        return window_capacity, sparse_capacity, None
    if policy.startswith("lola-altscore:"):
        name = policy.split(":", 1)[1]
        if name not in _ALTSCORE_RULES:
            raise ValueError(f"unknown scoring strategy {name!r}; have {sorted(_ALTSCORE_RULES)}")
        return window_capacity, sparse_capacity, SCORING_STRATEGIES[name]()
    raise ValueError(f"unknown policy {policy!r}")


def engine_for_policy(
    policy: str,
    attn: AttentionConfig,
    params: FeatureMapParams,
    window_capacity: int,
    sparse_capacity: int,
) -> LolaCache:
    """Build the decode engine a policy name denotes (see ``_policy_tiers``)."""
    eta, lam, rule = _policy_tiers(policy, window_capacity, sparse_capacity)
    return LolaCache(attn, params, eta, lam, scoring=rule)


@dataclass(frozen=True)
class CollisionMatrix:
    """Lower-triangular self-recall error history for one policy run.

    ``errors[i, j]`` is pair j+1's score at time i+1: NaN before the pair
    arrives, exactly 0.0 while it is window- or sparse-resident, and the
    hidden-state prediction error once absorbed. ``absorbed_at[j]`` is the
    step pair j+1 entered the hidden state (0 if it never did).
    """

    policy: str
    errors: np.ndarray
    absorbed_at: np.ndarray

    def __post_init__(self):
        errors, absorbed = self.errors, self.absorbed_at
        if not (
            isinstance(errors, np.ndarray)
            and errors.dtype == np.float64
            and errors.ndim == 2
            and errors.shape[0] == errors.shape[1] >= 1
        ):
            raise ValueError(
                f"errors must be a non-empty square float64 array, got {_array_kind(errors)}"
            )
        n = errors.shape[0]
        if not (
            isinstance(absorbed, np.ndarray)
            and np.issubdtype(absorbed.dtype, np.integer)
            and absorbed.shape == (n,)
        ):
            raise ValueError(
                f"absorbed_at must be an int array of shape ({n},), got {_array_kind(absorbed)}"
            )
        if absorbed.min() < 0 or absorbed.max() > n:
            raise ValueError(
                f"absorbed_at entries must be in [0, {n}], got {absorbed.min()} to {absorbed.max()}"
            )


def _array_kind(x) -> str:
    if isinstance(x, np.ndarray):
        return f"shape {x.shape} dtype {x.dtype}"
    return type(x).__name__


def collision_matrix(
    keys,
    values,
    policy: str,
    window_capacity: int,
    sparse_capacity: int,
    attn: AttentionConfig,
    params: FeatureMapParams,
) -> CollisionMatrix:
    """Replay a stream under ``policy`` and score every stored pair at every step.

    ``policy`` is one of ``POLICIES``: a ``lola-altscore`` rule is scored from
    queries, and a replay has none, so each of its scores would stay 0.0 and
    every eviction into a full cache would be a tie. The pairs are checked
    and feature-mapped once, and admitted as the rows ``LolaCache.ingest``
    builds, through the engine's one admission step. The residents at step t
    are the window's arrival range (t - η, t] and the sparse cache. Until the
    first absorption every arrived pair is resident, so those rows are zeros
    and nothing is scored.
    """
    if policy.startswith("lola-altscore:"):
        raise ValueError(f"collision_matrix cannot replay {policy!r}: it has no queries to score")
    keys = as_matrix(keys, cols=attn.head_dim)
    values = as_matrix(values, rows=keys.shape[0], cols=attn.head_dim)
    t_total = keys.shape[0]
    if t_total < 1:
        raise ValueError("need at least one pair")
    engine = engine_for_policy(policy, attn, params, window_capacity, sparse_capacity)
    # the scores take the batch map's bits; the engine's rows take ``update``'s
    phi = feature_map_batch(params, keys)
    pairs = _pair_rows(values, _feature_rows(params, keys), keys, 1)
    errors = np.full((t_total, t_total), np.nan)
    absorbed_at = np.zeros(t_total, dtype=np.int64)
    resident = np.empty(t_total, dtype=bool)
    eta = engine.window_capacity
    for t in range(1, t_total + 1):
        engine._admit(pairs[t - 1])
        if engine.linear.count == 0:
            errors[t - 1, :t] = 0.0
            continue
        held = resident[:t]
        held.fill(False)
        held[max(0, t - eta) :] = True
        held[engine.sparse_indices - 1] = True
        row = errors[t - 1, :t]
        row[...] = _self_recall_scores(phi[:t], values[:t], engine.linear)
        row[held] = 0.0
        # an arrived pair outside both full-rank tiers sits in the hidden
        # state, and it never leaves: the first such step is its absorption
        absorbed_at[:t][~held & (absorbed_at[:t] == 0)] = t
    return CollisionMatrix(policy, errors, absorbed_at)


def relative_to_absorption(cm: CollisionMatrix) -> CollisionMatrix:
    """``cm`` with each absorbed pair's error measured relative to its error
    at absorption time; entries can go negative when a pair becomes easier
    to recall after later updates."""
    errors, at = cm.errors, cm.absorbed_at
    n = errors.shape[0]
    cols = np.flatnonzero(at)
    # each cell from a pair's absorption row ta on is the one subtraction
    # errors[i, j] - errors[ta - 1, j], so its bits do not depend on the layout
    base = np.zeros(n)
    base[cols] = errors[at[cols] - 1, cols]
    since = (at > 0) & (np.arange(1, n + 1)[:, None] >= at)
    rel = errors.copy()
    np.subtract(errors, base, out=rel, where=since)
    return CollisionMatrix(cm.policy, rel, at)


def mean_absorbed_error(cm: CollisionMatrix) -> float:
    """Mean entry over (time, pair) cells where the pair sat in the hidden state."""
    t_total = cm.errors.shape[0]
    rows = np.arange(1, t_total + 1)[:, None]
    mask = (cm.absorbed_at[None, :] > 0) & (rows >= cm.absorbed_at[None, :])
    if not mask.any():
        return 0.0
    return float(cm.errors[mask].mean())


# -- emission ----------------------------------------------------------------


# Rows are assembled as text, in the bytes ``csv.writer`` would write: a
# float's ``repr`` (digits, ".", "e", "+", "-", "inf", "nan") never needs
# quoting, and lines end in "\r\n".


def _reprs(values: np.ndarray) -> map:
    """``repr`` of every entry, from one conversion to Python floats."""
    return map(repr, values.tolist())


def write_collision_csv(cm: CollisionMatrix, path) -> None:
    """Row per time step, column per pair; blank cells mean the pair had not
    arrived yet. Float formatting is repr-exact, so re-runs are byte-identical."""
    errors = cm.errors
    t_total = errors.shape[0]
    # each row's filled length: one past its last non-NaN cell, 0 if it has none
    filled = ~np.isnan(errors)
    lengths = np.where(filled.any(axis=1), t_total - filled[:, ::-1].argmax(axis=1), 0)
    # rows with a NaN hole inside that prefix, which must format as blank
    holes = (~filled & (np.arange(t_total) < lengths[:, None])).any(axis=1).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["time", *(f"pair_{j}" for j in range(1, t_total + 1))]) + "\r\n")
        for i, k in enumerate(lengths.tolist()):
            # one row at a time, never a second full copy of the matrix as
            # Python floats
            cells = ",".join(_reprs(errors[i, :k]))
            if holes[i]:
                cells = cells.replace("nan", "")
            fh.write(f"{i + 1},{cells}{',' * (t_total - max(k, 1))}\r\n")


def write_gram_csv(results: list[GramStudyResult], path) -> None:
    """Long-format curves: one row per (n, d, rank); the singular value column
    is blank at rank 0."""
    with open(path, "w", newline="") as fh:
        fh.write("n,d,rank,singular_value,truncated_error\r\n")
        for res in results:
            svs = ["", *_reprs(res.singular_values)]
            errs = _reprs(res.truncated_errors)
            fh.write("".join(f"{res.n},{res.d},{r},{svs[r]},{err}\r\n" for r, err in enumerate(errs)))
