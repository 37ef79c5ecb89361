"""Chunked prefill: process a known sequence chunk by chunk with one fused
masked-softmax pass per chunk and a hidden state frozen at chunk entry.

Queries in chunk m attend, in full rank, to their own chunk (causally), to
the previous two chunks in full, and to every sparse-cache resident;
everything older lives in the hidden state. After a chunk's outputs are
emitted, the chunk that just left the two-chunk lookback competes with the
sparse residents by self-recall score and the losers are absorbed. Peak
full-rank storage is bounded by three chunks plus the sparse capacity no
matter how long the input is.

The residents are the decode engine's pair rows (see ``cache``) in arrival
order. The chunk that left the lookback is staged behind them, all λ+c rows
are scored in one call, and a stable sort on descending score keeps the λ
highest, so a tie keeps the older pair; the rest are absorbed in one bulk
update, in arrival order.

The pass hands over ``PrefillState.engine``, a self-recall ``LolaCache`` at
t = n with a window of 2c: the lookback fills its ring in arrival order from
slot 0, next to the sparse residents and the hidden state. A follow-up query
reads it (``attend_after_prefill`` is its ``attend``), and decoding goes on.

Because all queries in a chunk share the frozen hidden state, prefill
outputs differ slightly from the per-token decode path on the same stream:
they are two policies, not approximations of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionConfig,
    FeatureMapParams,
    LinearState,
    _check_fits,
    _check_size,
    _feature_batch,
)
from .cache import LolaCache, _pair_views, _self_recall_scores
from .numerics import as_matrix

__all__ = [
    "ChunkConfig",
    "ChunkEvent",
    "PrefillState",
    "attend_after_prefill",
    "compression_rate",
    "effective_cache_size",
    "prefill",
]


@dataclass(frozen=True)
class ChunkConfig:
    chunk_size: int
    sparse_capacity: int = 0

    def __post_init__(self):
        _check_size("chunk_size", self.chunk_size, 1)
        _check_size("sparse_capacity", self.sparse_capacity, 0)


@dataclass(frozen=True)
class ChunkEvent:
    """Boundary bookkeeping after one chunk: who competed, stayed, was absorbed."""

    chunk: int
    eligible_indices: np.ndarray
    eligible_scores: np.ndarray
    kept_indices: np.ndarray
    absorbed_indices: np.ndarray


@dataclass
class PrefillState:
    """Carry-over memory after a prefill pass.

    ``engine`` holds the three tiers: the pairs still inside the two-chunk
    lookback as its window, the sparse residents and the hidden state. A
    follow-up query attends them as the first query of a fresh chunk would.
    ``linear``, ``sparse_indices`` and ``recent_indices`` read the engine.
    """

    engine: LolaCache
    processed: int
    peak_full_rank: int
    events: list[ChunkEvent] = field(default_factory=list)

    @property
    def linear(self) -> LinearState:
        return self.engine.linear

    @property
    def sparse_indices(self) -> np.ndarray:
        return self.engine.sparse_indices

    @property
    def recent_indices(self) -> np.ndarray:
        return self.engine.window_indices


def effective_cache_size(config: ChunkConfig) -> int:
    """Full-rank pair budget: two lookback chunks + the current chunk + sparse."""
    return 3 * config.chunk_size + config.sparse_capacity


def compression_rate(n: int, config: ChunkConfig) -> float:
    """How many times smaller the fixed cache is than an n-pair exact cache."""
    return n / effective_cache_size(config)


def prefill(
    qs,
    ks,
    vs,
    config: ChunkConfig,
    attn: AttentionConfig,
    params: FeatureMapParams,
) -> tuple[np.ndarray, PrefillState]:
    """Run the chunked pass over a full sequence.

    Returns one output per input position and the carry-over state. Arrival
    indices are 1-based, matching the decode path. A chunk whose shared
    denominator is not positive (an overflowing logit makes it NaN) raises
    ``ValueError`` naming the chunk; a map that does not fit ``attn`` raises
    before any work.
    """
    _check_fits(params, attn)
    # a caller may pass the keys as the queries (``run_trial`` does): map them once
    shared = ks is qs
    qs = as_matrix(qs, cols=attn.head_dim)
    n = qs.shape[0]
    if n < 1:
        raise ValueError("need at least one token")
    ks = as_matrix(ks, rows=n, cols=attn.head_dim)
    vs = as_matrix(vs, rows=n, cols=attn.head_dim)
    c = config.chunk_size
    lam = config.sparse_capacity
    # no per-call buffer holds more rows than the sequence: a chunk of queries, three of keys
    cw, kw = min(c, n), min(3 * c, n) + lam

    phi_q = _feature_batch(params, qs)
    phi_k = phi_q if shared else _feature_batch(params, ks)
    d, fdim = attn.head_dim, attn.feature_dim
    linear = LinearState.zeros(fdim, d)
    # the residents as pair rows in arrival order, then the chunk staged behind them;
    # the score column stays 0
    rows = np.zeros((lam + cw, 2 * d + fdim + 2))
    rv, rphi, rk = _pair_views(rows, d, fdim)
    ridx = rows.view(np.int64)[:, -1]
    slen = 0
    # per-call buffers: [sparse | lookback] keys and values, as contiguous as
    # a concatenation (gathering the lookback from rows changes the logits'
    # bits at d <= 2), and each chunk's logits and numerators
    kbuf = np.empty((kw, d))
    vbuf = np.empty((kw, d))
    lflat = np.empty(cw * kw)
    nbuf = np.empty((cw, d))

    out = np.empty_like(vs)
    events: list[ChunkEvent] = []
    peak = 0
    absorbed_score_sum = 0.0
    n_chunks = -(-n // c)
    # queries may not look ahead inside their own chunk; a short last chunk
    # takes the top-left corner
    ahead = np.triu(np.ones((cw, cw), dtype=bool), k=1)

    for m in range(n_chunks):
        c0 = m * c
        c1 = min(n, c0 + c)
        lb0 = max(0, c0 - 2 * c)
        w = slen + (c1 - lb0)
        peak = max(peak, w)
        if w > 3 * c + lam:
            raise RuntimeError("full-rank storage exceeded its fixed bound")
        kb, vb = kbuf[:w], vbuf[:w]
        kb[:slen] = rk[:slen]
        kb[slen:] = ks[lb0:c1]
        vb[:slen] = rv[:slen]
        vb[slen:] = vs[lb0:c1]

        # each step works in place, in the order of the expressions
        # e = exp(logits * scale - shift), num = e @ vb + damp * (phi_q @ hidden),
        # den = e.sum(axis=1) + damp * (phi_q @ normalizer), out = num / den
        width = c1 - c0
        e = lflat[: width * w].reshape(width, w)
        np.matmul(qs[c0:c1], kb.T, out=e)
        e *= attn.scale
        e[:, slen + (c0 - lb0) :][ahead[:width, :width]] = -np.inf
        shift = e.max(axis=1)
        np.maximum(shift, 0.0, out=shift)
        e -= shift[:, None]
        np.exp(e, out=e)
        # damp = exp(-shift), in the shift's array
        damp = np.exp(np.negative(shift, out=shift), out=shift)
        pq = phi_q[c0:c1]
        num = nbuf[:width]
        np.matmul(e, vb, out=num)
        hid = pq @ linear.hidden
        hid *= damp[:, None]
        num += hid
        den = e.sum(axis=1)
        hnorm = pq @ linear.normalizer
        hnorm *= damp
        den += hnorm
        # NaN fails the comparison too
        least = den.min()
        if not least > 0.0:
            raise ValueError(f"chunk {m}: shared denominator {least:g} is not positive")
        np.divide(num, den[:, None], out=out[c0:c1])

        # the chunk two behind just left the lookback: stage it behind the
        # residents and absorb all but the λ highest scores
        if m >= 2:
            e0, e1, ne = (m - 2) * c, (m - 1) * c, slen + c
            rv[slen:ne] = vs[e0:e1]
            rphi[slen:ne] = phi_k[e0:e1]
            rk[slen:ne] = ks[e0:e1]
            ridx[slen:ne] = np.arange(e0 + 1, e1 + 1)
            scores = _self_recall_scores(rphi[:ne], rv[:ne], linear)
            drop = np.zeros(ne, dtype=bool)
            # stable on rows in arrival order: a tie keeps the older pair
            drop[np.argsort(-scores, kind="stable")[lam:]] = True
            linear.absorb(rphi[:ne][drop], rv[:ne][drop])
            absorbed_score_sum += float(scores[drop].sum())
            idx = ridx[:ne].copy()
            events.append(ChunkEvent(m - 2, idx, scores, idx[~drop], idx[drop]))
            slen = min(ne, lam)
            rows[:slen] = rows[:ne][~drop]

    # the hand-off: the lookback fills the window from slot 0 in arrival order
    r0 = max(0, (n_chunks - 2) * c)
    engine = LolaCache(attn, params, 2 * c, lam)
    recent = (ks[r0:], vs[r0:], np.arange(r0 + 1, n + 1))
    engine._load(n, recent, (rk[:slen], rv[:slen], ridx[:slen]), linear, absorbed_score_sum)
    return out, PrefillState(engine, n_chunks, peak, events)


def attend_after_prefill(
    state: PrefillState,
    query,
    attn: AttentionConfig,
    params: FeatureMapParams,
) -> np.ndarray:
    """Answer one extra query as the first token of a hypothetical next chunk:
    ``state.engine.attend(query)``. ``attn`` and ``params`` must be those the
    prefill ran with; other ones raise ``ValueError`` naming the argument."""
    engine = state.engine
    if attn != engine.config:
        raise ValueError(f"'attn' {attn} is not the config the prefill ran with, {engine.config}")
    if not np.array_equal(params.weights, engine.params.weights):
        raise ValueError("'params' are not the feature map the prefill ran with")
    return engine.attend(query)
