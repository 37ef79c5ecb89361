"""The per-token decode path against the bodies it replaced, bit for bit.

``as_vector`` now checks a float64 array's finiteness through its sum,
``_guard`` takes one reduction, and the bounded settle, ``_recall_rows`` and
``_mix_tiers`` work on their temporaries in place. The functions below are
the earlier bodies verbatim, but for the mix, which now runs over one block
of whole pair rows, [ring slots 0..nw | residents], as the engine's does;
``ReferenceCache`` routes every decode-path call through them. Both engines
must give the same bits for every output, tier, score bound, absorbed-score
sum and event, each output must stay within 1e-12 relative of the earlier
two-tier mix, and one ``decode_step`` must still make the probed calls the
benchmark's tracer counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lola.cache as cache_mod
import lola.numerics as numerics_mod
from lola import AttentionConfig, LolaCache, SeededRng, init_feature_map
from lola.attention import DEFAULT_MAX_LOGIT, LinearState, OverflowGuardError
from lola.cache import _BOUND_FLOOR, _BOUND_SLACK, SCORING_STRATEGIES, StepEvent, _norm, _pair_views
from lola.harness.experiments import ExperimentConfig, resolve_feature_map
from lola.harness.synthetic import SyntheticTaskSpec, gen_niah
from reference_engine import assert_near, bits, two_tier_attend

# -- the earlier bodies, verbatim -------------------------------------------


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 vector, checking its length when given."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def as_matrix(x, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 matrix, checking its shape when given."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"dimension mismatch: expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"dimension mismatch: expected {cols} columns, got {m.shape[1]}")
    return m


def _guard(z: np.ndarray) -> None:
    peak = float(np.max(np.abs(z))) if z.size else 0.0
    if peak > DEFAULT_MAX_LOGIT:
        raise OverflowGuardError(
            f"pre-exponential magnitude {peak:.4g} exceeds the bound {DEFAULT_MAX_LOGIT:g}; "
            "rescale the inputs"
        )


def _feature_row(params, x: np.ndarray) -> np.ndarray:
    """``feature_map_apply`` on an already validated vector."""
    z = params.weights @ x
    _guard(z)
    return np.concatenate([np.exp(z), np.exp(-z)])


def _self_recall_scores(phi: np.ndarray, values: np.ndarray, state: LinearState) -> np.ndarray:
    """Each row's self-recall error, ``|value|`` against an empty state."""
    return _recall_rows(phi, values, state, phi @ state.normalizer)


def _recall_rows(
    phi: np.ndarray, values: np.ndarray, state: LinearState, den: np.ndarray
) -> np.ndarray:
    if state.count == 0:
        r = values
    else:
        r = (phi @ state.hidden) / den[:, None] - values
    # the operations of ``np.linalg.norm(r, axis=1)`` without its wrapper
    return np.sqrt(np.add.reduce(r * r, axis=1))


def _mix_tiers(q, phi_q, scale, keys, values, state: LinearState) -> np.ndarray:
    logit = (keys @ q) * scale
    shift = float(logit.max(initial=0.0))
    e = np.exp(logit - shift)
    damp = np.exp(-shift)
    num = e @ values + damp * (phi_q @ state.hidden)
    den = float(e.sum()) + damp * float(phi_q @ state.normalizer)
    if not den > 0.0:
        raise ValueError(f"shared denominator {den:g} is not positive")
    return num / den


class ReferenceCache(LolaCache):
    """The engine with the earlier decode-path bodies; everything else is shared."""

    @property
    def sparse_scores(self) -> np.ndarray:
        ns = self._slen
        if self.scoring.dynamic and ns:
            return _self_recall_scores(self._sphi[:ns], self._sv[:ns], self.linear)
        return self._sscore[:ns].copy()

    def update(self, key, value, index: int | None = None) -> None:
        idx = self.t + 1
        if index is not None and index != idx:
            raise ValueError(f"index discontinuity: expected {idx}, got {index}")
        key = as_vector(key, self.config.head_dim)
        value = as_vector(value, self.config.head_dim)
        self._admit(np.concatenate((value, _feature_row(self.params, key), key, cache_mod._ZERO)))

    def _settle(self, step_index: int) -> None:
        ns = self._slen
        if ns < self.sparse_capacity:
            self._take(1, step_index)
            return
        if self._bounded:
            self._settle_bounded(step_index)
            return
        if self.scoring.dynamic:
            scores = _self_recall_scores(self._sphi, self._sv, self.linear)
        else:
            scores = self._sscore.copy()
        drop = ns - int(scores[::-1].argmin())
        self.linear.update(self._sphi[drop], self._sv[drop])
        self.absorbed_score_sum += scores.item(drop)
        self._step = (step_index, scores, drop, self._sidx.item(drop))
        self._close(drop)

    def _settle_bounded(self, step_index: int) -> None:
        ns = self._slen
        phi, vals = self._sphi[: ns + 1], self._sv[: ns + 1]
        lo, hi, vnorm = self._slo[: ns + 1], self._shi[: ns + 1], self._svnorm[: ns + 1]
        lin, rmax = self.linear, self._rmax
        # the staged row is always scored; its prediction is within rmax of
        # zero, so its score is at most |v| + rmax
        vnorm[ns] = _norm(vals[ns])
        lo[ns], hi[ns] = -np.inf, (vnorm[ns] + rmax) * (1.0 + _BOUND_SLACK) + _BOUND_FLOOR
        rows = np.flatnonzero(lo <= hi.min())
        if rows.size == 1:
            rows = np.array([ns, ns])  # two rows keep the GEMM's bits
        # the denominators come from the (λ+1)-row product of the one-call
        # path, whose bits depend on the row count
        den = phi @ lin.normalizer
        scores = _recall_rows(phi[rows], vals[rows], lin, den[rows])
        k = rows.size - 1 - int(scores[::-1].argmin())
        drop = int(rows[k])
        lo[rows] = hi[rows] = scores
        if not scores.max() < np.inf:
            # an overflowing score bounds nothing: leave its row open
            unbounded = rows[~(scores < np.inf)]
            lo[unbounded], hi[unbounded] = -np.inf, np.inf
        # absorbing (phi_a, v_a) moves each prediction p_i to
        # p_i + a_i (v_a - p_i), with a_i = u_i / (s_i + u_i), u_i = phi_i.phi_a
        # and s_i = phi_i.z, so the score moves by at most a_i |v_a - p_i|
        phi_a, v_a, norm_a = phi[drop].copy(), vals[drop].copy(), vnorm[drop]
        u = phi @ phi_a
        reach = np.minimum(vnorm + hi, rmax)  # bounds |p_i|
        self._rmax = max(rmax, norm_a)
        slack = _BOUND_SLACK * (self._rmax + vnorm) + _BOUND_FLOOR
        width = u / (den + u) * (norm_a + reach) + slack
        lo -= width
        hi += width
        before = (lin.hidden, lin.normalizer, lin.count)
        lin.update(phi_a, v_a)
        self.absorbed_score_sum += float(scores[k])
        self._step = (step_index, (phi_a, v_a, before), drop, int(self._sidx[drop]))
        self._close(drop)

    def _rescore(self, drop: int, phi_a, v_a, before) -> np.ndarray:
        ns = self._slen
        phi = np.insert(self._sphi[:ns], drop, phi_a, axis=0)
        vals = np.insert(self._sv[:ns], drop, v_a, axis=0)
        return _self_recall_scores(phi, vals, LinearState(*before))

    def accumulate_window_scores(self, query) -> None:
        if self.scoring.dynamic or self._wlen == 0:
            return
        q = as_vector(query, self.config.head_dim)
        self._accumulate(q, _feature_row(self.params, q))

    def attend(self, query) -> np.ndarray:
        if self.t < 1:
            raise ValueError("attend called before any pair was admitted")
        q = as_vector(query, self.config.head_dim)
        phi_q = _feature_row(self.params, q)
        nw, ns = self._wlen, self._slen
        rows = np.concatenate((self._wrows[:nw], self._srows[:ns]))
        values, _, keys = _pair_views(rows, self.config.head_dim, self.config.feature_dim)
        return _mix_tiers(q, phi_q, self.config.scale, keys, values, self.linear)


# -- comparison --------------------------------------------------------------


def event_bits(event: StepEvent) -> tuple:
    return (
        event.index,
        event.evicted_index,
        *(bits(getattr(event, name)) for name in (
            "eligible_indices", "eligible_scores", "kept_indices", "absorbed_indices", "absorbed_scores",
        )),
    )


def assert_same_state(new: LolaCache, ref: ReferenceCache) -> None:
    assert bits(new.window_indices) == bits(ref.window_indices)
    assert bits(new.sparse_indices) == bits(ref.sparse_indices)
    for name in ("_wrows", "_srows", "_slo", "_shi", "_svnorm"):
        assert bits(getattr(new, name)) == bits(getattr(ref, name)), name
    assert bits(new._rmax) == bits(ref._rmax)
    assert bits(new.absorbed_score_sum) == bits(ref.absorbed_score_sum)
    assert bits(new.linear.hidden) == bits(ref.linear.hidden)
    assert bits(new.linear.normalizer) == bits(ref.linear.normalizer)
    assert new.linear.count == ref.linear.count


def run_lockstep(new, ref, qs, ks, vs, read_events: bool) -> None:
    for q, k, v in zip(qs, ks, vs):
        out_new, out_ref = new.decode_step(q, k, v), ref.decode_step(q, k, v)
        assert bits(out_new) == bits(out_ref)
        assert_near(out_new, two_tier_attend(ref, q))
        if read_events:
            assert event_bits(new.last_event) == event_bits(ref.last_event)
        assert_same_state(new, ref)
    assert event_bits(new.last_event) == event_bits(ref.last_event)
    assert bits(new.sparse_scores) == bits(ref.sparse_scores)
    assert bits(new.attend(qs[0])) == bits(ref.attend(qs[0]))


def engines(bounded, *args, **kwargs):
    """The engine and the reference, built alike; ``bounded`` takes the
    bounded settle whatever the shape (under the self-recall rule)."""
    with pytest.MonkeyPatch.context() as mp:
        if bounded:
            mp.setattr(cache_mod, "_BOUNDED_MIN_WORK", 0)
        new, ref = LolaCache(*args, **kwargs), ReferenceCache(*args, **kwargs)
    assert new._bounded == ref._bounded
    return new, ref


@settings(max_examples=120, deadline=None)
@given(
    eta=st.integers(0, 5),
    lam=st.integers(0, 12),
    d=st.sampled_from([1, 2, 4, 16, 64]),
    policy=st.sampled_from(sorted(SCORING_STRATEGIES)),
    bounded=st.booleans(),
    pool=st.sampled_from([None, 1, 2, 3, 6]),
    scale=st.sampled_from([0.01, 0.5, 3.0]),
    n=st.integers(1, 60),
    read_events=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_decode_path_matches_the_earlier_bodies_bit_for_bit(
    eta, lam, d, policy, bounded, pool, scale, n, read_events, seed
):
    cfg = AttentionConfig(head_dim=d)
    params = init_feature_map(SeededRng(seed), cfg)
    gen = SeededRng(seed + 1).generator()
    if pool:
        # a small pool of triples, drawn with repeats, so that scores tie exactly
        qs, ks, vs = gen.normal(0.0, scale, size=(3, pool, d))
        picks = gen.integers(0, pool, size=n)
        qs, ks, vs = qs[picks], ks[picks], vs[picks]
    else:
        qs, ks, vs = gen.normal(0.0, scale, size=(3, n, d))
    new, ref = engines(bounded, cfg, params, eta, lam, scoring=SCORING_STRATEGIES[policy]())
    run_lockstep(new, ref, qs, ks, vs, read_events)


def test_decode_long_stream_matches_the_earlier_bodies_bit_for_bit():
    # the shape of the benchmark's decode-long workload, which takes the
    # bounded settle on its own: d=64, η=64, λ=256, a distilled map
    n, d, eta, lam = 2048, 64, 64, 256
    task = SyntheticTaskSpec(haystack_len=n, head_dim=d, key_distribution="clustered",
                             value_codebook_size=16, seed=3)
    attn = AttentionConfig(d)
    params = resolve_feature_map(ExperimentConfig(seed=3), task, attn)
    inst = gen_niah(task, seed=3)
    gen = SeededRng(3).child(2).generator()
    qs = inst.keys[gen.permutation(n)] + gen.normal(0.0, 0.2, (n, d))
    new, ref = engines(False, attn, params, eta, lam)
    assert new._bounded
    run_lockstep(new, ref, qs, inst.keys, inst.values, read_events=True)
    assert new.linear.count == n - eta - lam


# -- the calls one decode_step makes -----------------------------------------


@pytest.mark.parametrize("bounded", [False, True])
def test_one_decode_step_makes_the_probed_calls_once_each(monkeypatch, bounded):
    """One ``decode_step`` under the self-recall rule calls ``update`` and
    ``attend`` once each and validates three vectors (key, value, query)
    with ``as_vector``, before and after the sparse cache fills. The
    benchmark's tracer counts these calls."""
    eta, lam, d = 3, 4, 8
    cfg = AttentionConfig(head_dim=d)
    eng, _ = engines(bounded, cfg, init_feature_map(SeededRng(2), cfg), eta, lam)
    calls = {"update": 0, "attend": 0, "as_vector": 0, "as_matrix": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(LolaCache, "update", spy("update", LolaCache.update))
    monkeypatch.setattr(LolaCache, "attend", spy("attend", LolaCache.attend))
    # the tracer patches every lola module that binds the validators
    for module in (cache_mod, numerics_mod):
        monkeypatch.setattr(module, "as_vector", spy("as_vector", numerics_mod.as_vector))
        monkeypatch.setattr(module, "as_matrix", spy("as_matrix", numerics_mod.as_matrix))
    gen = SeededRng(3).generator()
    for step in range(eta + lam + 6):
        q, k, v = gen.normal(size=(3, d))
        eng.decode_step(q, k, v)
        assert calls == {"update": step + 1, "attend": step + 1, "as_vector": 3 * (step + 1), "as_matrix": 0}
    assert eng.linear.count == 6
