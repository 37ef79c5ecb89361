"""The relative collision matrix against its plain definition, and the
policies a collision replay takes.

``collision_matrix`` itself is checked against the per-token reference
engine in ``test_reference_engine.py``. ``relative_to_absorption`` must match
its per-column definition bit for bit, on any matrix the record type
accepts. A replay has no queries, so it rejects the static ``lola-altscore``
rules, whose scores would all stay 0.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lola import AttentionConfig, SeededRng, init_feature_map
from lola.analysis import (
    _ALTSCORE_RULES,
    CollisionMatrix,
    collision_matrix,
    relative_to_absorption,
)
from reference_engine import bits


@pytest.mark.parametrize("rule", _ALTSCORE_RULES)
def test_a_replay_rejects_a_static_rule(rule):
    attn = AttentionConfig(4)
    keys, values = SeededRng(0).generator().normal(size=(2, 12, 4))
    policy = f"lola-altscore:{rule}"
    with pytest.raises(ValueError, match=f"cannot replay '{policy}'"):
        collision_matrix(keys, values, policy, 2, 2, attn, init_feature_map(SeededRng(1), attn))


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
