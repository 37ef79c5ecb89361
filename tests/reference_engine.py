"""The paper's decode rule, written once and plainly, to check every fast path.

Per token: the new pair enters a window of the η most recent pairs. The pair
it evicts joins the sparse residents. Of those rows, ``keep_highest`` keeps
the λ highest scores, a tie keeping the older pair, and the one row it drops
is absorbed into the linear hidden state. Under the self-recall rule the
scores are computed against the current state in one call over all rows;
under a static rule they are the sums a pair's window queries left on it. A
query mixes the window, the sparse residents and the hidden state over one
shared denominator, over one block of pair rows: the window in slot order,
then the residents.

``ReferenceEngine`` holds no staging row, no score bounds and no deferred
event; its only ring arithmetic is the slot rule, pair i in slot
(i - 1 - r) mod η, with a ring offset r that is 0 for a fresh engine.
``from_tiers`` starts it from given tiers, as a prefill hands them over: the
window oldest first from slot 0, so r = (t - nw) mod η for nw window pairs.
It keeps its pairs as the engine's pair rows and calls the engine's kernels
(``_feature_row``, ``_self_recall_scores``, ``_mix_tiers``,
``LinearState.update``) on them, so every product sees the engine's memory
layout and a correct path matches it bit for bit. The slot rule is needed
for that too: a matrix-vector row's bits depend on the row's slot.

Sharing those kernels means the reference cannot check them. The frozen
copies of earlier kernel bodies therefore stay, in ``test_lean_decode.py``,
``test_tier_mix.py``, ``test_prefill_row_store.py``, ``test_csv_writers.py``
and ``test_distill_equivalence.py``; ``two_tier_mix`` below is the mix as it
was before the two full-rank tiers became one block, which those mix checks
hold every answer to within 1e-12 relative.
"""

import numpy as np

from lola import AttentionConfig, SeededRng
from lola.attention import LinearState, _feature_row
from lola.cache import (
    SCORING_STRATEGIES,
    SelfRecallScoring,
    StepEvent,
    _mix_tiers,
    _pair_rows,
    _pair_views,
    _self_recall_scores,
)

RULES = sorted(SCORING_STRATEGIES)
EVENT_FIELDS = (
    "eligible_indices",
    "eligible_scores",
    "kept_indices",
    "absorbed_indices",
    "absorbed_scores",
)


def bits(a) -> tuple:
    """An array's dtype, shape and bytes: equal only when bit for bit equal."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def scoring_for(name):
    return SCORING_STRATEGIES[name]()


def stream(seed, d, pool, n):
    """``n`` rows of (queries, keys, values), drawn with repeats from ``pool``
    triples when ``pool`` is set, so that scores tie exactly."""
    gen = SeededRng(seed + 1).generator()
    if pool:
        qs, ks, vs = gen.normal(size=(3, pool, d))
        picks = gen.integers(0, pool, size=n)
        return qs[picks], ks[picks], vs[picks]
    return gen.normal(size=(3, n, d)) * 0.5


def keep_highest(scores, lam: int) -> np.ndarray:
    """Which rows stay: the ``lam`` highest scores, a tie keeping the older
    row. Rows are in arrival order."""
    scores = list(map(float, scores))
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = np.zeros(len(scores), dtype=bool)
    kept[ranked[:lam]] = True
    return kept


class ReferenceEngine:
    """The three tiers of one stream, per token, read like ``LolaCache``."""

    def __init__(self, config: AttentionConfig, params, eta: int, lam: int, *, scoring=None):
        self.config, self.params, self.eta, self.lam = config, params, eta, lam
        self.scoring = scoring if scoring is not None else SelfRecallScoring()
        d, fdim = config.head_dim, config.feature_dim
        self.linear = LinearState.zeros(fdim, d)
        self.t = 0
        self.absorbed_score_sum = 0.0
        self.last_event = None
        self.window = np.zeros((eta, 2 * d + fdim + 2))
        self.sparse = self.window[:0].copy()
        # the ring offset, and how many pairs the window holds
        self.r = self.wlen = 0

    @classmethod
    def from_tiers(cls, config, params, eta, lam, t, window, sparse, linear, absorbed_score_sum):
        """An engine at ``t`` under the self-recall rule holding ``window``,
        the (keys, values) of pairs t - nw + 1 .. t oldest first, from slot
        0; ``sparse``, the (keys, values, indices) of the residents in
        arrival order; and the hidden state ``linear``."""
        ref = cls(config, params, eta, lam)
        nw = len(window[0])
        ref.t, ref.wlen, ref.r = t, nw, (t - nw) % eta
        ref.window[:nw] = ref._rows(*window, np.arange(t - nw + 1, t + 1))
        ref.sparse = ref._rows(*sparse)
        ref.linear, ref.absorbed_score_sum = linear, absorbed_score_sum
        return ref

    def _rows(self, keys, values, indices):
        """Pair rows of the given pairs, each φ row from ``_feature_row``."""
        phi = np.array([_feature_row(self.params, k) for k in keys])
        rows = _pair_rows(values, phi.reshape(len(keys), self.config.feature_dim), keys, 0)
        rows.view(np.int64)[:, -1] = indices
        return rows

    def _views(self, rows):
        """Value, φ(key), key, score and index columns of pair rows."""
        d, fdim = self.config.head_dim, self.config.feature_dim
        return (*_pair_views(rows, d, fdim), rows[:, -2], rows.view(np.int64)[:, -1])

    def update(self, key, value) -> None:
        i = self.t = self.t + 1
        key, value = np.asarray(key, dtype=float), np.asarray(value, dtype=float)
        row = _pair_rows(value[None], _feature_row(self.params, key)[None], key[None], i)[0]
        if self.eta == 0:
            evicted = row
        else:
            slot = (i - 1 - self.r) % self.eta
            evicted = self.window[slot].copy() if self.wlen == self.eta else None
            self.wlen = min(self.wlen + 1, self.eta)
            self.window[slot] = row
        if evicted is None:
            self.last_event = StepEvent(i, None)
            return
        rows = np.concatenate((self.sparse, evicted[None]))
        v, phi, _, frozen, idx = self._views(rows)
        if self.scoring.dynamic:
            scores = _self_recall_scores(phi, v, self.linear)
        else:
            scores = frozen.copy()
        kept = keep_highest(scores, self.lam)
        for j in np.flatnonzero(~kept):
            self.linear.update(phi[j], v[j])
            self.absorbed_score_sum += float(scores[j])
        self.last_event = StepEvent(
            index=i,
            evicted_index=i - self.eta,
            eligible_indices=idx.copy(),
            eligible_scores=scores,
            kept_indices=idx[kept],
            absorbed_indices=idx[~kept],
            absorbed_scores=scores[~kept],
        )
        self.sparse = rows[kept]

    def accumulate_window_scores(self, query) -> None:
        """Under a static rule, add the query's term to every window pair's
        sum, over the window rows in slot order."""
        if self.scoring.dynamic or self.wlen == 0:
            return
        _, phi, k, acc, _ = self._views(self.window[: self.wlen])
        q = np.asarray(query, dtype=float)
        e = np.exp((k @ q) * self.config.scale)
        acc += self.scoring.term(e, phi @ _feature_row(self.params, q))

    def attend(self, query) -> np.ndarray:
        """The mix over one block of pair rows: the window in slot order,
        then the residents in arrival order."""
        q = np.asarray(query, dtype=float)
        v, _, k, _, _ = self._views(np.concatenate((self.window[: self.wlen], self.sparse)))
        return _mix_tiers(q, _feature_row(self.params, q), self.config.scale, k, v, self.linear)

    def decode_step(self, query, key, value) -> np.ndarray:
        self.update(key, value)
        self.accumulate_window_scores(query)
        return self.attend(query)

    @property
    def window_indices(self) -> np.ndarray:
        return np.arange(self.t - self.wlen + 1, self.t + 1, dtype=np.int64)

    @property
    def sparse_indices(self) -> np.ndarray:
        return self._views(self.sparse)[4].copy()

    @property
    def sparse_scores(self) -> np.ndarray:
        v, phi, _, frozen, _ = self._views(self.sparse)
        if self.scoring.dynamic and len(v):
            return _self_recall_scores(phi, v, self.linear)
        return frozen.copy()


def two_tier_mix(q, phi_q, scale, keys_a, values_a, keys_b, values_b, state) -> np.ndarray:
    """The mix as it was before the window and the residents became one
    block of rows: every step once per tier, with one shared shift and one
    shared denominator."""
    logit_a = (keys_a @ q) * scale
    logit_b = (keys_b @ q) * scale
    shift = float(max(logit_a.max(initial=0.0), logit_b.max(initial=0.0)))
    ea = np.exp(logit_a - shift)
    eb = np.exp(logit_b - shift)
    damp = np.exp(-shift)
    num = ea @ values_a + eb @ values_b + damp * (phi_q @ state.hidden)
    den = float(ea.sum() + eb.sum()) + damp * float(phi_q @ state.normalizer)
    if not den > 0.0:
        raise ValueError(f"shared denominator {den:g} is not positive")
    return num / den


def two_tier_attend(eng, query) -> np.ndarray:
    """``two_tier_mix`` for ``query`` over a ``LolaCache``'s own tier views."""
    q = np.asarray(query, dtype=float)
    nw, ns = eng.window_size, eng.sparse_size
    return two_tier_mix(
        q, _feature_row(eng.params, q), eng.config.scale,
        eng._wk[:nw], eng._wv[:nw], eng._sk[:ns], eng._sv[:ns], eng.linear,
    )


def assert_near(got, want, rtol=1e-12) -> None:
    """``got`` within ``rtol`` of ``want``, relative to ``want``'s largest entry."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * np.abs(want).max(initial=0.0))


def assert_same_event(a: StepEvent | None, b: StepEvent | None) -> None:
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.index, a.evicted_index) == (b.index, b.evicted_index)
        for name in EVENT_FIELDS:
            assert bits(getattr(a, name)) == bits(getattr(b, name)), name


def assert_same_tiers(eng, ref) -> None:
    """What a step leaves behind, bit for bit: ``t``, both tiers' members
    and scores, the hidden state and the absorbed-score total."""
    assert eng.t == ref.t
    assert bits(eng.window_indices) == bits(ref.window_indices)
    assert bits(eng.sparse_indices) == bits(ref.sparse_indices)
    assert bits(eng.sparse_scores) == bits(ref.sparse_scores)
    assert bits(eng.linear.hidden) == bits(ref.linear.hidden)
    assert bits(eng.linear.normalizer) == bits(ref.linear.normalizer)
    assert eng.linear.count == ref.linear.count
    assert eng.absorbed_score_sum.hex() == ref.absorbed_score_sum.hex()


def assert_same_engine(a, b) -> None:
    """Two engines alike, internals included: the config, map weights,
    capacities and scoring rule, the ring's slot bytes and next slot, every
    resident's row and score bounds, and the tiers and last event."""
    assert a.config == b.config
    assert bits(a.params.weights) == bits(b.params.weights)
    assert (a.window_capacity, a.sparse_capacity) == (b.window_capacity, b.sparse_capacity)
    assert a.scoring.name == b.scoring.name
    assert bits(a._wrows) == bits(b._wrows)
    assert a._wnext == b._wnext
    ns = a.sparse_size
    for name in ("_srows", "_slo", "_shi", "_svnorm"):
        assert bits(getattr(a, name)[:ns]) == bits(getattr(b, name)[:ns]), name
    assert a._rmax.hex() == b._rmax.hex()
    assert_same_tiers(a, b)
    assert_same_event(a.last_event, b.last_event)


def assert_same_step(eng, ref, out_eng, out_ref) -> None:
    """One decode step of two engines: the output, the event and the tiers."""
    assert bits(out_eng) == bits(out_ref)
    assert_same_event(eng.last_event, ref.last_event)
    assert_same_tiers(eng, ref)
