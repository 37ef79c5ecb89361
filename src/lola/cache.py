"""Three-tier decoding cache: sliding window, sparse cache, hidden state.

Every past key-value pair lives in exactly one tier at any time. New pairs
enter a FIFO window attended with exact softmax. A pair evicted from the
window competes with the current sparse-cache residents by score; the
``sparse_capacity`` highest-scoring pairs stay cached in full rank and the
rest are absorbed into the linear-attention hidden state. The default score
is the self-recall error: how far the hidden state's prediction for the
pair's own key lands from the pair's value. Pairs the hidden state already
stores well are cheap to absorb; pairs that would collide stay retrievable
exactly. The three static window scores the ablation compares it with live
here too, and ``SCORING_STRATEGIES`` names all four rules once: policies and
ablations look them up there.

Outputs combine all three tiers in one ratio: exponential terms for the
window and sparse pairs share a denominator with the hidden-state term, so
every output is a convex combination of stored values.

A whole stream can be admitted at once with ``ingest(keys, values)``: it
validates and feature-maps every row before it changes any state, and the
tiers end bit-identical to a loop of ``update`` calls (plus
``accumulate_window_scores`` on the stream's queries under a static rule).
A static rule reads the window at every step, so it takes the per-pair step.
A dynamic rule does not, so past the first η rows each eviction is staged
straight from the input, evictions into a sparse cache with room are copied
as one block, all those into a full one go to ``_settle`` as one run, and
only the last η rows enter the window ring. ``update`` hands ``_settle`` a
run of one, so every eviction takes the same body. Below the bounded shapes
that body scores into buffers the engine allocates once (numerators,
denominators and scores of λ+1 rows), so ``last_event`` copies the scores
it reports.

A pair is one float64 row of [value | φ(key) | key | score | index]; the
arrival index is an int64 column over the same memory. Both full-rank tiers
keep their pairs as such rows in one store, [window ring | sparse residents
| staging row], so staging an evicted pair is one row copy, closing the gap
an absorption leaves is one block move, and a query mixes the window and the
residents as one block of rows: one logit product, one ``exp``, one value
product and one sum. The ring's offset is state, not a function of ``t``:
each new pair goes to slot ``_wnext``. A chunked prefill's hand-off fills
the tiers through ``_load``, the window oldest first from slot 0. Its ring
can have room beside residents, the one state in which the two tiers are
not one run of the store; ``attend`` then copies ring slots [0, nw) and the
residents, whole rows in that order, into one block.

Selection details, fixed for determinism:
  * an eviction into a full sparse cache scores the evicted pair and the
    residents in one call, against the state before its absorption; under
    a dynamic rule ``sparse_scores`` is computed against the current state
    when read;
  * at large shapes ((λ+1)·F·d of at least ``_BOUNDED_MIN_WORK``) the
    self-recall rule keeps a lower and an upper bound on each resident's
    score and scores exactly only the evicted pair and the residents whose
    lower bound does not exceed the least upper bound. No other row can be
    the minimum. A row it scores gets the bits the one call would give it
    only at the head and feature widths where a product's row bits do not
    depend on the other rows (see ``_recall_rows``; ROADMAP item 3): there
    both paths absorb the same pair with the same score;
  * at most one pair is absorbed per eviction, the lowest-scoring one;
  * equal scores keep the older pair cached. On rows in arrival order,
    ``_settle`` absorbs the last minimum (reversed ``argmin``) and prefill's
    chunk boundary keeps the first λ of a stable sort on descending score:
    one rule, two expressions, as at 65 rows the sort costs ~3.5x the argmin;
  * ``last_event`` describes the latest step only and is built when read.
    An eviction into a sparse cache with room absorbs nothing, so its
    scores are computed then, with the same call on the same rows. After a
    bounded eviction the read makes the one call on all λ+1 rows, against
    the state before the absorption, which the step keeps.
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
    _feature_row,
    _feature_rows,
)
from .numerics import as_matrix, as_vector

__all__ = [
    "SCORING_STRATEGIES",
    "AttentionErrorAbsScoring",
    "AttentionErrorSquaredScoring",
    "LolaCache",
    "OverestimateRatioScoring",
    "ScoringStrategy",
    "SelfRecallScoring",
    "StaticScoring",
    "StepEvent",
]


class ScoringStrategy:
    """Interface the engine expects from a cache scoring rule.

    ``dynamic`` strategies are re-evaluated against the current hidden state
    at every eviction. Static strategies accumulate a per-pair total from the
    queries the pair co-resides with in the window and freeze it at eviction;
    a pair that saw no query scores zero.
    """

    name = "abstract"
    dynamic = True

    def term(self, exp_vals: np.ndarray, lin_vals: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SelfRecallScoring(ScoringStrategy):
    """Score a pair by the hidden state's prediction error for its own key.

    Re-scored every step: absorbing more pairs can make an old resident
    easier (or harder) to recall, so stale scores would mis-rank it.
    """

    name = "self-recall"
    dynamic = True


class StaticScoring(ScoringStrategy):
    """Base for scores summed over a pair's co-resident window queries."""

    name = "static"
    dynamic = False


class AttentionErrorSquaredScoring(StaticScoring):
    """Cache the keys whose exponential weights the feature map misses worst."""

    name = "attnerr-sq"

    def term(self, exp_vals, lin_vals):
        return (exp_vals - lin_vals) ** 2


class AttentionErrorAbsScoring(StaticScoring):
    name = "attnerr-abs"

    def term(self, exp_vals, lin_vals):
        return np.abs(exp_vals - lin_vals)


class OverestimateRatioScoring(StaticScoring):
    """Cache the keys the linear kernel over-weights relative to the exact one."""

    name = "overestimate"

    def term(self, exp_vals, lin_vals):
        return lin_vals / exp_vals


# every scoring rule by name: what policies and ablations name
SCORING_STRATEGIES: dict[str, type[ScoringStrategy]] = {
    cls.name: cls
    for cls in (
        SelfRecallScoring,
        AttentionErrorSquaredScoring,
        AttentionErrorAbsScoring,
        OverestimateRatioScoring,
    )
}


def _self_recall_scores(
    phi: np.ndarray, values: np.ndarray, state: LinearState, out: tuple | None = None
) -> np.ndarray:
    """Each row's self-recall error against ``state``: the norm of
    ``(phi @ hidden) / (phi @ normalizer) - values``. An empty state predicts
    nothing, so a row's score is then ``|value|`` by convention (maximal
    disagreement), not an exception. ``out``, if given, is the buffers
    (numerators, denominators, scores) of exactly these rows, which the
    operations write instead of new arrays, with the same bits; the scores
    buffer is returned."""
    if out is None:
        return _recall_rows(phi, values, state, phi @ state.normalizer)
    num, den, scores = out
    return _recall_rows(phi, values, state, np.matmul(phi, state.normalizer, den), num, scores)


def _recall_rows(
    phi: np.ndarray,
    values: np.ndarray,
    state: LinearState,
    den: np.ndarray,
    num: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``_self_recall_scores`` of rows whose denominators ``phi @ normalizer``
    are given, written into ``num`` and ``out`` where given. Outputs are
    passed by position: a keyword costs each call a parse.

    The numerators come from one matrix product, so a row's bits can depend
    on the other rows passed. On OpenBLAS they were measured not to at F = 2,
    4 or 8 at every head width tried, at F=32 with 16, 20, 24 or 32 columns
    and at F=128 with 64, 72 or 80; they did depend on them with 17 or 18
    columns at F = 32-36 and with 1, 2, 3 or 9 columns at F=32 (ROADMAP item
    3). A single row goes to a matrix-vector kernel with other bits.
    """
    if state.count == 0:
        r = np.multiply(values, values, num)
    else:
        r = np.matmul(phi, state.hidden, num)
        r /= den[:, None]
        r -= values
        r *= r
    # the operations of ``np.linalg.norm(r, axis=1)`` without its wrapper
    out = np.add.reduce(r, 1, None, out)
    return np.sqrt(out, out)


def _mix_tiers(q, phi_q, scale, keys, values, state: LinearState) -> np.ndarray:
    """The output for ``q`` over one block of full-rank rows (the window and
    the sparse residents) and the hidden state.

    The exponential terms and the hidden-state term share one shift (the
    largest logit, or zero) and one denominator, so the output is a convex
    combination of stored values. A denominator that is not positive (an
    overflowing logit makes it NaN) raises ``ValueError``. Each product's
    result is worked on in place, in the order of the expression
    ``(e @ values + damp * (phi_q @ hidden)) / den``.
    """
    e = keys @ q
    e *= scale
    shift = float(e.max(initial=0.0))
    e -= shift
    np.exp(e, out=e)
    damp = np.exp(-shift)
    num = e @ values
    hid = phi_q @ state.hidden
    hid *= damp
    num += hid
    den = float(e.sum()) + damp * float(phi_q @ state.normalizer)
    if not den > 0.0:
        raise ValueError(f"shared denominator {den:g} is not positive")
    num /= den
    return num


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(v @ v))


def _pair_rows(values: np.ndarray, phi: np.ndarray, keys: np.ndarray, first: int) -> np.ndarray:
    """The engine's pair rows, [value | φ(key) | key | score | index], with
    score 0 and arrival indices from ``first`` on."""
    rows = np.concatenate((values, phi, keys, np.zeros((keys.shape[0], 2))), axis=1)
    rows.view(np.int64)[:, -1] = np.arange(first, first + keys.shape[0])
    return rows


def _pair_views(rows: np.ndarray, d: int, fdim: int) -> tuple:
    """The value, φ(key) and key columns of rows that start [value | φ(key) | key]."""
    return rows[:, :d], rows[:, d : d + fdim], rows[:, d + fdim : 2 * d + fdim]


# (λ+1)·F·d at and above which an eviction into a full sparse cache scores
# only the rows that can still be the minimum; below it the bookkeeping costs
# more than the rows it saves, and one call over all λ+1 rows is faster
_BOUNDED_MIN_WORK = 750_000
# slack on every score bound, relative to the value norms, far above the
# rounding of one step; the absolute floor covers squares that underflow
_BOUND_SLACK = 1e-9
_BOUND_FLOOR = 1e-150

_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_ZERO = np.zeros(1)


@dataclass(frozen=True)
class StepEvent:
    """What one update did: who competed, who stayed cached, who was absorbed."""

    index: int
    evicted_index: int | None
    eligible_indices: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    eligible_scores: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    kept_indices: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    absorbed_indices: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    absorbed_scores: np.ndarray = field(default_factory=lambda: _EMPTY_F64)


class LolaCache:
    """Decode-path engine holding the three memory tiers for one stream.

    Single-owner mutable state: feed tokens in arrival order through
    ``decode_step`` (or ``update`` plus ``attend``), or a whole stream through
    ``ingest``. ``window_capacity`` = 0 degenerates to pure linear attention,
    ``sparse_capacity`` = 0 to the window + hidden-state baseline.
    """

    def __init__(
        self,
        config: AttentionConfig,
        params: FeatureMapParams,
        window_capacity: int,
        sparse_capacity: int,
        *,
        scoring: ScoringStrategy | None = None,
    ):
        _check_size("window_capacity", window_capacity, 0)
        _check_size("sparse_capacity", sparse_capacity, 0)
        _check_fits(params, config)
        self.config = config
        self.params = params
        # plain ints, so that t, ring slots and event indices stay plain ints
        self.window_capacity = eta = int(window_capacity)
        self.sparse_capacity = lam = int(sparse_capacity)
        self.scoring = scoring if scoring is not None else SelfRecallScoring()
        self.linear = LinearState.zeros(config.feature_dim, config.head_dim)
        self.t = 0
        # the latest step: a StepEvent, or the arguments of ``_event_of``
        # that ``last_event`` builds one from when read
        self._step: StepEvent | tuple | None = None
        # scores of the pairs this engine absorbed, summed in absorption order
        self.absorbed_score_sum = 0.0
        d, fdim = config.head_dim, config.feature_dim
        # a pair is one row of [value | φ(key) | key | score | index]: the
        # score is the window's accumulated static score, frozen into the
        # sparse tier, and the arrival index is an int64 column over the same
        # memory, so one row copy moves the whole pair
        w = 2 * d + fdim + 2
        # both full-rank tiers in one store, [window ring | sparse residents
        # | staging row], so that a full ring and the residents are one run
        # of rows for ``attend``
        self._rows = np.zeros((eta + lam + 1, w))
        self._v, _, self._k = _pair_views(self._rows, d, fdim)
        # window ring buffer, filled from slot 0: each pair goes to slot
        # _wnext, which then moves on by one, so a ring with room holds its
        # pairs in slots [0, _wlen) and a full one holds the oldest at _wnext.
        # A fresh engine puts pair i in slot (i - 1) % eta
        self._wrows = self._rows[:eta]
        self._wv, self._wphi, self._wk = _pair_views(self._wrows, d, fdim)
        self._wacc = self._wrows[:, w - 2]
        self._widx = self._wrows.view(np.int64)[:, w - 1]
        self._wlen = 0
        self._wnext = 0
        # sparse cache, kept sorted by arrival index; row _slen stages the
        # pair being evicted from the window
        self._srows = self._rows[eta:]
        self._sflat = self._rows.reshape(-1)[eta * w :]
        self._sv, self._sphi, self._sk = _pair_views(self._srows, d, fdim)
        self._sscore = self._srows[:, w - 2]
        self._sidx = self._srows.view(np.int64)[:, w - 1]
        self._slen = 0
        # bounded settle, taken from the shape alone: each resident carries a
        # lower and an upper bound on its self-recall score and its value's
        # norm, and _rmax bounds the norm of every absorbed value, so of every
        # prediction (a convex combination of them)
        self._bounded = (
            self.scoring.dynamic and lam >= 1 and (lam + 1) * fdim * d >= _BOUNDED_MIN_WORK
        )
        # the bounds are whole-column reads and writes at every bounded
        # eviction, so each is its own array: a column of the row store would
        # cost a cache line per row
        self._slo = np.full(lam + 1, -np.inf)
        self._shi = np.full(lam + 1, np.inf)
        self._svnorm = np.zeros(lam + 1)
        self._rmax = 0.0
        # otherwise every eviction into a full cache scores its λ+1 rows into
        # these: numerators, denominators and scores
        self._bufs = None
        if not self._bounded:
            self._bufs = (np.empty((lam + 1, d)), np.empty(lam + 1), np.empty(lam + 1))

    # -- views ------------------------------------------------------------

    @property
    def window_size(self) -> int:
        return self._wlen

    @property
    def sparse_size(self) -> int:
        return self._slen

    @property
    def window_indices(self) -> np.ndarray:
        return np.sort(self._widx[: self._wlen])

    @property
    def sparse_indices(self) -> np.ndarray:
        return self._sidx[: self._slen].copy()

    @property
    def sparse_scores(self) -> np.ndarray:
        """Residents' scores; a dynamic rule computes them when read."""
        ns = self._slen
        if self.scoring.dynamic and ns:
            return _self_recall_scores(self._sphi[:ns], self._sv[:ns], self.linear)
        return self._sscore[:ns].copy()

    # -- updates ----------------------------------------------------------

    def update(self, key, value, index: int | None = None) -> None:
        """Admit the next pair: window in; on overflow the oldest pair is
        scored against the sparse residents and at most one is absorbed."""
        idx = self.t + 1
        if index is not None and index != idx:
            raise ValueError(f"index discontinuity: expected {idx}, got {index}")
        key = as_vector(key, self.config.head_dim)
        value = as_vector(value, self.config.head_dim)
        self._admit(np.concatenate((value, _feature_row(self.params, key), key, _ZERO)))

    def ingest(self, keys, values, queries=None) -> None:
        """Admit a stream of pairs in order, bit for bit as ``update`` does
        one by one.

        Under a static rule ``queries`` is required and row ``t`` is scored
        after pair ``t`` is admitted, as ``accumulate_window_scores`` does;
        a dynamic rule ignores it. Every row is validated and feature-mapped
        before any state changes, so bad input raises a ``ValueError`` and
        leaves the cache as it was. The one check left to the loop is the
        static rule's non-finite score term, which depends on the window: it
        raises mid-stream, with the earlier pairs admitted.

        A static rule reads the window at every step, so its pairs pass
        through the ring one at a time. A dynamic rule never does; see
        ``_ingest_ring_free``.
        """
        d = self.config.head_dim
        keys = as_matrix(keys, cols=d)
        n = keys.shape[0]
        values = as_matrix(values, rows=n, cols=d)
        static = not self.scoring.dynamic
        if static:
            if queries is None:
                raise ValueError(f"scoring rule {self.scoring.name!r} needs the stream's queries")
            queries = as_matrix(queries, rows=n, cols=d)
            phi_q = _feature_rows(self.params, queries)
        pairs = _pair_rows(values, _feature_rows(self.params, keys), keys, self.t + 1)
        if static:
            for t in range(n):
                self._admit(pairs[t])
                self._accumulate(queries[t], phi_q[t])
        else:
            self._ingest_ring_free(pairs)

    def _ingest_ring_free(self, pairs: np.ndarray) -> None:
        """``ingest`` under a dynamic rule, which reads the window only to
        evict from it. Rows that fill a window with room are one block, and
        the rest of the first η rows go through ``_admit``. From then on row
        j evicts row j - η, staged straight from ``pairs``: evictions into a
        sparse cache with room are one block, each later one settles as
        ``_admit`` would, and only the last η rows are written into the ring.
        Row j goes to slot (``_wnext`` + j) mod η, where a loop of ``_admit``
        leaves it."""
        eta = self.window_capacity
        n, width = pairs.shape
        first = self._wnext
        fill = max(0, min(n, eta - self._wlen))
        if fill:
            # a ring with room is free from _wnext to its end
            self._wrows[first : first + fill, :width] = pairs[:fill]
            self._wlen += fill
            self.t += fill
            self._wnext = (first + fill) % eta
            self._step = StepEvent(self.t, None)
        for t in range(fill, min(n, eta)):
            self._admit(pairs[t])
        if n <= eta:
            return
        base = self.t - eta  # arrival index of row 0, less one
        room = max(0, min(self.sparse_capacity - self._slen, n - eta))
        if room:
            self._srows[self._slen : self._slen + room, :width] = pairs[:room]
            self._take(room, base + eta + room)
        if n - eta > room:
            # the rest evict into a full cache
            self._settle(base + eta + room + 1, pairs[room : n - eta])
        if eta:
            slots = np.arange(first + n - eta, first + n) % eta
            self._wrows[slots, :width] = pairs[n - eta :]
            self._wnext = (first + n) % eta
        self.t = base + n
        self._assert_conserved()

    def _admit(self, row: np.ndarray) -> None:
        """One validated pair row in: window ring, then settle on eviction."""
        idx = self.t + 1
        evicted = self._wlen == self.window_capacity  # always, with no window
        if self.window_capacity == 0:
            self._srows[self._slen, : row.size] = row
            self._sidx[self._slen] = idx
        else:
            slot = self._wnext
            if evicted:
                # the oldest pair, with its score and index, to the staging row
                self._srows[self._slen, : self._wrows.shape[1]] = self._wrows[slot]
            else:
                self._wlen += 1
            self._wrows[slot, : row.size] = row
            self._widx[slot] = idx
            self._wnext = (slot + 1) % self.window_capacity

        self.t = idx
        if evicted:
            self._settle(idx)
        else:
            self._step = StepEvent(idx, None)
        self._assert_conserved()

    def _take(self, k: int, step_index: int) -> None:
        """Evictions of the ``k`` rows staged from ``_slen`` on into a sparse
        cache with room: they join the residents, and nothing needs scoring."""
        ns = self._slen
        if self._bounded:
            self._slo[ns : ns + k] = -np.inf
            self._shi[ns : ns + k] = np.inf
            for i in range(ns, ns + k):
                self._svnorm[i] = _norm(self._sv[i])
        self._slen = ns + k
        self._step = (step_index,)

    def _close(self, drop: int) -> None:
        """Remove row ``drop`` of the λ+1 staged rows, keeping arrival order.
        The rows are moved as one 1-D run of memory, which numpy moves in
        place; a 2-D overlapping copy goes through a temporary."""
        ns, w = self._slen, self._srows.shape[1]
        if drop < ns:
            self._sflat[drop * w : ns * w] = self._sflat[(drop + 1) * w : (ns + 1) * w]
            if self._bounded:
                for col in (self._slo, self._shi, self._svnorm):
                    col[drop:ns] = col[drop + 1 : ns + 1]

    def _settle(self, step_index: int, run: np.ndarray | None = None) -> None:
        """Evictions from step ``step_index`` on: of the pair staged in row
        ``_slen``, or, into a full sparse cache, of each row of ``run`` in
        turn, staged in its last row. With room the pair joins the residents
        and nothing needs scoring. Into a full cache each eviction ranks the
        staged pair with the residents in one scoring call, absorbs the lowest
        score and closes the gap it leaves; the step keeps the latest one."""
        ns = self._slen
        if ns < self.sparse_capacity:
            self._take(1, step_index)
            return
        if run is None:
            if self._bounded:
                self._settle_bounded(step_index)
                return
            rows, staged = (None,), None
        else:
            rows, staged = run, self._srows[ns, : run.shape[1]]
            if self._bounded:
                for step, row in enumerate(run, start=step_index):
                    staged[...] = row
                    self._settle_bounded(step)
                return
        # ns is λ here: the staged pair and the residents are all λ+1 rows,
        # scored into the engine's buffers
        phi, vals, sidx, lin, bufs = self._sphi, self._sv, self._sidx, self.linear, self._bufs
        scores = bufs[2]
        # rows ascend by arrival, so the last minimum is the newer of a tie;
        # a stable sort, as at the chunk boundary, costs ~3.5x this argmin
        backward = scores[::-1]
        dynamic = self.scoring.dynamic
        flat, w = self._sflat, self._srows.shape[1]
        total = self.absorbed_score_sum
        for row in rows:
            if row is not None:
                staged[...] = row
            if dynamic:
                _self_recall_scores(phi, vals, lin, bufs)
            else:
                scores[...] = self._sscore
            drop = ns - int(backward.argmin())
            lin.update(phi[drop], vals[drop])
            total += scores.item(drop)
            absorbed = sidx.item(drop)
            if drop < ns:
                # ``_close``'s move, inline: this path keeps no bounds
                flat[drop * w : ns * w] = flat[(drop + 1) * w : (ns + 1) * w]
        self.absorbed_score_sum = total
        self._step = (step_index + len(rows) - 1, scores, drop, absorbed)

    def _settle_bounded(self, step_index: int) -> None:
        """``_settle`` under the self-recall rule, scoring exactly only the
        staged row and the residents whose lower bound does not exceed the
        least upper bound; no other row can be the minimum, so the same pair
        is absorbed with the same score bits."""
        ns = self._slen
        phi, vals = self._sphi[: ns + 1], self._sv[: ns + 1]
        lo, hi, vnorm = self._slo[: ns + 1], self._shi[: ns + 1], self._svnorm[: ns + 1]
        lin, rmax = self.linear, self._rmax
        # the staged row is always scored; its prediction is within rmax of
        # zero, so its score is at most |v| + rmax
        vnorm[ns] = norm_s = _norm(vals[ns])
        lo[ns], hi[ns] = -np.inf, (norm_s + rmax) * (1.0 + _BOUND_SLACK) + _BOUND_FLOOR
        rows = (lo <= hi.min()).nonzero()[0]
        if rows.size == 1:
            rows = np.array([ns, ns])  # two rows keep the GEMM's bits
        # the denominators come from the (λ+1)-row product of the one-call
        # path, whose bits depend on the row count
        den = phi @ lin.normalizer
        # one gather of the candidates' whole pair rows
        sel_v, sel_phi, _ = _pair_views(self._srows[rows], self.config.head_dim, self.config.feature_dim)
        scores = _recall_rows(sel_phi, sel_v, lin, den[rows])
        k = rows.size - 1 - int(scores[::-1].argmin())
        drop = rows.item(k)
        lo[rows] = hi[rows] = scores
        if not scores.max() < np.inf:
            # an overflowing score bounds nothing: leave its row open
            unbounded = rows[~(scores < np.inf)]
            lo[unbounded], hi[unbounded] = -np.inf, np.inf
        # absorbing (phi_a, v_a) moves each prediction p_i to
        # p_i + a_i (v_a - p_i), with a_i = u_i / (s_i + u_i), u_i = phi_i.phi_a
        # and s_i = phi_i.z, so the score moves by at most a_i |v_a - p_i|.
        # The widths are worked out in place, each operation in the order of
        # u / (den + u) * (norm_a + reach) + slack, with
        # slack = _BOUND_SLACK * (rmax + |v_i|) + _BOUND_FLOOR
        phi_a, v_a, norm_a = phi[drop].copy(), vals[drop].copy(), vnorm.item(drop)
        u = phi @ phi_a
        reach = vnorm + hi
        np.minimum(reach, rmax, out=reach)  # bounds |p_i|
        self._rmax = rmax = max(rmax, norm_a)
        slack = vnorm + rmax
        slack *= _BOUND_SLACK
        slack += _BOUND_FLOOR
        den += u
        u /= den
        reach += norm_a
        u *= reach
        u += slack
        lo -= u
        hi += u
        before = (lin.hidden, lin.normalizer, lin.count)
        lin.update(phi_a, v_a)
        self.absorbed_score_sum += scores.item(k)
        self._step = (step_index, (phi_a, v_a, before), drop, self._sidx.item(drop))
        self._close(drop)

    @property
    def last_event(self) -> StepEvent | None:
        """What the latest step did, built when read."""
        step = self._step
        if type(step) is tuple:
            step = self._step = self._event_of(*step)
        return step

    def _event_of(self, index: int, scores=None, drop: int = 0, absorbed_index: int = 0) -> StepEvent:
        """Rebuild an eviction's event from the residents it left behind;
        without ``scores`` the evicted pair joined them and none was absorbed.
        A bounded settle leaves, in place of the scores, the absorbed row and
        the state before its absorption, to score all λ+1 rows from."""
        kept = self._sidx[: self._slen].copy()
        if type(scores) is tuple:
            scores = self._rescore(drop, *scores)
        elif scores is not None:
            # the engine's score buffer, which the next eviction reuses
            scores = scores.copy()
        if scores is None:
            # nothing was absorbed since, so scoring the same rows now gives
            # the bits an eviction-time call would have
            return StepEvent(
                index=index,
                evicted_index=int(kept[-1]),
                eligible_indices=kept.copy(),
                eligible_scores=self.sparse_scores,
                kept_indices=kept,
            )
        elig = np.empty(kept.size + 1, dtype=np.int64)
        elig[:drop] = kept[:drop]
        elig[drop] = absorbed_index
        elig[drop + 1 :] = kept[drop:]
        return StepEvent(
            index=index,
            evicted_index=int(elig[-1]),
            eligible_indices=elig,
            eligible_scores=scores,
            kept_indices=kept,
            absorbed_indices=elig[drop : drop + 1].copy(),
            absorbed_scores=scores[drop : drop + 1].copy(),
        )

    def _rescore(self, drop: int, phi_a, v_a, before) -> np.ndarray:
        """The one-call scores of a bounded settle: the absorbed row back at
        ``drop`` among the residents, against the state before absorption."""
        ns = self._slen
        phi = np.insert(self._sphi[:ns], drop, phi_a, axis=0)
        vals = np.insert(self._sv[:ns], drop, v_a, axis=0)
        return _self_recall_scores(phi, vals, LinearState(*before))

    def accumulate_window_scores(self, query) -> None:
        """Add one query's contribution to every window resident's static score.

        Only meaningful for static strategies; the self-recall rule ignores
        queries entirely.
        """
        if self.scoring.dynamic or self._wlen == 0:
            return
        q = as_vector(query, self.config.head_dim)
        self._accumulate(q, _feature_row(self.params, q))

    def _accumulate(self, q: np.ndarray, phi_q: np.ndarray) -> None:
        nw = self._wlen
        if nw == 0:
            return
        e = np.exp((self._wk[:nw] @ q) * self.config.scale)
        p = self._wphi[:nw] @ phi_q
        term = self.scoring.term(e, p)
        if not np.isfinite(term).all():
            raise ValueError("static score term is not finite: the window logits overflow exp")
        self._wacc[:nw] += term

    # -- reads ------------------------------------------------------------

    def attend(self, query) -> np.ndarray:
        """Combined output for ``query`` over all three tiers, one shared
        denominator. Read-only."""
        if self.t < 1:
            raise ValueError("attend called before any pair was admitted")
        q = as_vector(query, self.config.head_dim)
        phi_q = _feature_row(self.params, q)
        nw, ns = self._wlen, self._slen
        if nw == self.window_capacity or not ns:
            # the ring's slots and the residents are one run of the store
            keys, values = self._k[: nw + ns], self._v[: nw + ns]
        else:
            # a hand-off's ring with room: its slots [0, nw) and the
            # residents, copied as whole pair rows into one block
            block = np.concatenate((self._wrows[:nw], self._srows[:ns]))
            values, _, keys = _pair_views(block, self.config.head_dim, self.config.feature_dim)
        return _mix_tiers(q, phi_q, self.config.scale, keys, values, self.linear)

    def decode_step(self, query, key, value) -> np.ndarray:
        """Admit ``(key, value)``, then answer ``query``; the new pair is
        visible to its own query through the window term."""
        self.update(key, value)
        self.accumulate_window_scores(query)
        return self.attend(query)

    # -- invariants -------------------------------------------------------

    def _assert_conserved(self) -> None:
        stored = self._wlen + self._slen + self.linear.count
        if stored != self.t:
            raise RuntimeError(
                f"conservation violated at t={self.t}: window {self._wlen} "
                f"+ sparse {self._slen} + absorbed {self.linear.count} = {stored}"
            )

    # -- the prefill hand-off ---------------------------------------------

    def _load(self, t: int, window: tuple, sparse: tuple, linear: LinearState, score_sum: float) -> None:
        """Fill a fresh engine's tiers at ``t``, as a chunked prefill hands
        them over. ``window`` and ``sparse`` are each (keys, values,
        indices): the window oldest first from slot 0, the residents in
        arrival order. Every row's φ comes from ``_feature_rows``, and the
        score columns stay zero. ``_wnext`` is slot 0 when the ring is full
        and the first free slot when it has room."""
        d, fdim = self.config.head_dim, self.config.feature_dim
        nw, ns = len(window[2]), len(sparse[2])
        for rows, (keys, values, idx) in (self._wrows[:nw], window), (self._srows[:ns], sparse):
            v, phi, k = _pair_views(rows, d, fdim)
            v[...], k[...] = values, keys
            phi[...] = _feature_rows(self.params, keys)
            rows.view(np.int64)[:, -1] = idx
        self._wlen, self._slen = nw, ns
        self._wnext = nw % self.window_capacity
        self.t, self.linear, self.absorbed_score_sum = t, linear, score_sum
        # the residents' scores are not tracked: their bounds start open
        self._svnorm[:ns] = np.sqrt(np.add.reduce(self._sv[:ns] ** 2, axis=1))
        if linear.count:
            # |sum_k phi_k H_k| / sum_k phi_k z_k <= max_k |H_k| / z_k bounds
            # every prediction, without knowing the absorbed values
            row_norms = np.sqrt(np.add.reduce(linear.hidden**2, axis=1))
            self._rmax = float((row_norms / linear.normalizer).max())
        self._assert_conserved()

