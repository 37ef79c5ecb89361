"""Synthetic pass-key retrieval streams.

A haystack is a redundant stream of distractor pairs whose values follow
their keys (clusters share a key direction and a codebook value, or values
are tied to key direction in the i.i.d. mode), so an associative memory can
learn the pattern. The needle is a fresh key direction carrying a scaled
codebook value the pattern does not explain, planted at seeded uniform
positions. The probe is the needle key itself; a run succeeds when the
engine's answer decodes, by nearest codebook entry, to the needle's value
id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention import _check_size
from ..numerics import SeededRng

__all__ = [
    "CLUSTER_NOISE",
    "KEY_SCALE",
    "NEEDLE_KEY_BOOST",
    "NEEDLE_VALUE_BOOST",
    "NiahInstance",
    "SyntheticTaskSpec",
    "gen_niah",
]

KEY_SCALE = 2.0          # per-entry std of distractor keys / cluster centers
CLUSTER_NOISE = 0.1      # intra-cluster key noise, relative to KEY_SCALE
# The pass-key is a rare key direction pinned to the typical distractor norm
# (so the probe's self-similarity does not fluctuate trial to trial and the
# key itself is not an outlier to weight-error scores) carrying a value far
# outside what the distractor pattern predicts.
NEEDLE_KEY_BOOST = 1.0
NEEDLE_VALUE_BOOST = 2.5
_KEY_DISTRIBUTIONS = ("gaussian", "clustered")


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Shape of one synthetic retrieval task."""

    haystack_len: int
    needle_count: int = 1
    head_dim: int = 16
    key_distribution: str = "gaussian"
    value_codebook_size: int = 16
    seed: int = 0

    def __post_init__(self):
        _check_size("haystack_len", self.haystack_len, 1)
        _check_size("needle_count", self.needle_count, 1)
        if self.needle_count > self.haystack_len:
            raise ValueError(
                f"needle_count must be <= the haystack length {self.haystack_len}, "
                f"got {self.needle_count}"
            )
        _check_size("head_dim", self.head_dim, 1)
        if self.key_distribution not in _KEY_DISTRIBUTIONS:
            raise ValueError(
                f"key_distribution must be one of {list(_KEY_DISTRIBUTIONS)}, "
                f"got {self.key_distribution!r}"
            )
        _check_size("value_codebook_size", self.value_codebook_size, 2)
        _check_size("seed", self.seed, 0)


@dataclass(frozen=True)
class NiahInstance:
    """One generated stream plus everything needed to grade a probe answer."""

    keys: np.ndarray            # (n, d) in arrival order
    values: np.ndarray          # (n, d)
    probe: np.ndarray           # (d,)
    target_value_id: int
    codebook: np.ndarray        # (m, d)
    needle_positions: np.ndarray  # 1-based, sorted


def gen_niah(task: SyntheticTaskSpec, seed: int | None = None) -> NiahInstance:
    """Generate one stream; identical (task, seed) always yield identical output.

    The draw order below is fixed; changing it would silently re-key every
    recorded experiment.
    """
    rng = SeededRng(task.seed if seed is None else seed)
    gen = rng.generator()
    n, d, m = task.haystack_len, task.head_dim, task.value_codebook_size

    codebook = gen.normal(0.0, 1.0, (m, d))
    if task.key_distribution == "clustered":
        centers = gen.normal(0.0, KEY_SCALE, (m, d))
        cluster_ids = gen.integers(0, m, n)
        keys = centers[cluster_ids] + gen.normal(0.0, CLUSTER_NOISE * KEY_SCALE, (n, d))
        value_ids = cluster_ids
    else:
        keys = gen.normal(0.0, KEY_SCALE, (n, d))
        value_ids = np.argmax(keys @ codebook.T, axis=1)
    values = codebook[value_ids]

    direction = gen.normal(0.0, 1.0, d)
    needle_key = direction / np.linalg.norm(direction) * (NEEDLE_KEY_BOOST * KEY_SCALE * np.sqrt(d))
    target = int(gen.integers(0, m))
    needle_value = codebook[target] * NEEDLE_VALUE_BOOST
    positions = np.sort(gen.choice(n, size=task.needle_count, replace=False).astype(np.int64)) + 1
    keys[positions - 1] = needle_key
    values[positions - 1] = needle_value

    return NiahInstance(
        keys=keys,
        values=values,
        probe=needle_key.copy(),
        target_value_id=target,
        codebook=codebook,
        needle_positions=positions,
    )
