"""Dense float64 linear algebra and seeded randomness shared by every module.

Everything here is deterministic: the same inputs (and the same seed) produce
the same bytes on every platform numpy supports. Randomness is PCG64 behind
``numpy.random.Generator``; a ``SeededRng`` value replays its stream on every
call, so sampling twice with one handle yields identical output, and
independent substreams come from ``child``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeededRng",
    "as_matrix",
    "as_vector",
    "gaussian_sample",
]

_F64 = np.dtype(np.float64)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 vector, checking its length when given.

    A float64 ndarray is used as it is, since ``np.asarray`` would return it
    unchanged. Finiteness is checked element-wise: a finite sum would prove
    it too, but summing warns (or raises, under ``np.errstate``) when finite
    entries overflow or an inf meets a -inf.
    """
    v = x if type(x) is np.ndarray and x.dtype is _F64 else np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def as_matrix(x, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite float64 matrix, checking its shape when given;
    the checks are those of ``as_vector``."""
    m = x if type(x) is np.ndarray and x.dtype is _F64 else np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"dimension mismatch: expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"dimension mismatch: expected {cols} columns, got {m.shape[1]}")
    return m


def _number_array(x, where: str) -> np.ndarray:
    """Parsed JSON (nested lists of numbers) as a float64 array. Every entry
    must be an int or a float, where ``np.asarray`` would also take numeric
    strings and bools; anything else raises ``ValueError`` naming ``where``."""
    try:
        entries = np.asarray(x, dtype=object)
        for entry in entries.flat:
            if type(entry) is not float and type(entry) is not int:
                raise ValueError(f"could not convert {entry!r} to a number")
        return entries.astype(np.float64)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class SeededRng:
    """Replayable randomness: PCG64 seeded through ``numpy.random.SeedSequence``.

    ``generator()`` starts the stream over on every call, which makes any
    sampling routine a pure function of (rng, arguments). ``child(*keys)``
    derives a statistically independent substream for per-trial or per-cell
    use; the derivation is itself a pure function of (seed, keys).
    """

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def child(self, *keys: int) -> "SeededRng":
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(keys))
        return SeededRng(int(ss.generate_state(1, np.uint64)[0]))


def gaussian_sample(rng: SeededRng, n: int, d: int, scale: float) -> np.ndarray:
    """``n`` i.i.d. Gaussian vectors of dimension ``d``, one per row.

    ``scale`` is the standard deviation of each entry. Identical
    (rng, n, d, scale) always produce identical output.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return rng.generator().normal(0.0, scale, size=(n, d))
