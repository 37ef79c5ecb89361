"""The collision replay and the relative matrix against their plain definitions.

``collision_matrix`` maps the stream once and admits each pair row through the
engine's admission step; it takes the residents from the window's arrival
range and the sparse cache, and skips the scoring call while nothing has been
absorbed. ``reference_replay`` below is the loop it replaced: public
``update``, then ``window_indices``/``sparse_indices``, then
``_self_recall_scores`` over the whole prefix at every step. Both must give
the same ``errors`` and ``absorbed_at`` bit for bit. ``relative_to_absorption``
must match its per-column definition bit for bit, on any matrix the record
type accepts.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lola import AttentionConfig, SeededRng, feature_map_batch, init_feature_map
from lola.analysis import (
    _DECODE_POLICIES,
    CollisionMatrix,
    collision_matrix,
    engine_for_policy,
    relative_to_absorption,
)
from lola.cache import _self_recall_scores
from lola.harness import ExperimentConfig, SyntheticTaskSpec
from lola.harness.experiments import resolve_feature_map

D = 4
ATTN = AttentionConfig(D)
MAPS = {
    "random": init_feature_map(SeededRng(3), ATTN),
    "distilled": resolve_feature_map(
        ExperimentConfig(seed=3), SyntheticTaskSpec(haystack_len=16, head_dim=D, seed=3), ATTN
    ),
}


def reference_replay(keys, values, policy, eta, lam, params):
    engine = engine_for_policy(policy, ATTN, params, eta, lam)
    phi = feature_map_batch(params, keys)
    n = keys.shape[0]
    errors = np.full((n, n), np.nan)
    absorbed_at = np.zeros(n, dtype=np.int64)
    for t in range(1, n + 1):
        engine.update(keys[t - 1], values[t - 1])
        scores = _self_recall_scores(phi[:t], values[:t], engine.linear)
        resident = np.concatenate([engine.window_indices, engine.sparse_indices])
        resident = resident.astype(np.int64) - 1
        scores[resident] = 0.0
        errors[t - 1, :t] = scores
        unabsorbed = absorbed_at[:t] == 0
        unabsorbed[resident] = False
        absorbed_at[:t][unabsorbed] = t
    return errors, absorbed_at


def bits(a) -> bytes:
    return a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(_DECODE_POLICIES),
    fmap=st.sampled_from(sorted(MAPS)),
    eta=st.integers(0, 5),
    lam=st.integers(0, 5),
    n=st.integers(1, 40),
    pool=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
@example(policy="lola-altscore:overestimate", fmap="distilled", eta=2, lam=3, n=40, pool=3, seed=0)
@example(policy="linear-only", fmap="random", eta=0, lam=0, n=1, pool=1, seed=0)
@example(policy="lola", fmap="random", eta=5, lam=5, n=10, pool=2, seed=1)
def test_replay_matches_the_update_loop_bit_for_bit(policy, fmap, eta, lam, n, pool, seed):
    gen = SeededRng(seed).generator()
    # keys drawn from a small pool, so equal keys (and equal scores) recur
    keys = gen.normal(size=(pool, D))[gen.integers(0, pool, n)]
    values = gen.normal(size=(n, D))
    params = MAPS[fmap]
    cm = collision_matrix(keys, values, policy, eta, lam, ATTN, params)
    errors, absorbed_at = reference_replay(keys, values, policy, eta, lam, params)
    assert bits(cm.errors) == bits(errors)
    assert bits(cm.absorbed_at) == bits(absorbed_at)


def reference_relative(cm: CollisionMatrix) -> np.ndarray:
    rel = cm.errors.copy()
    for j in range(rel.shape[1]):
        ta = int(cm.absorbed_at[j])
        if ta > 0:
            rel[ta - 1 :, j] -= cm.errors[ta - 1, j]
    return rel


CELLS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def collision_records(draw):
    n = draw(st.integers(1, 12))
    errors = draw(arrays(np.float64, (n, n), elements=CELLS))
    # absorption at the first step, the last step, never, and anywhere between
    at = draw(st.lists(st.sampled_from([0, 1, n]) | st.integers(0, n), min_size=n, max_size=n))
    return CollisionMatrix("fuzz", errors, np.array(at, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(cm=collision_records())
def test_relative_matches_the_per_column_definition_bit_for_bit(cm):
    with np.errstate(invalid="ignore", over="ignore"):
        want = reference_relative(cm)
        got = relative_to_absorption(cm)
    assert bits(got.errors) == bits(want)
    assert got.absorbed_at is cm.absorbed_at and got.policy == cm.policy
    # the input matrix is left as it was
    assert got.errors is not cm.errors
