"""Deterministic random streams with named, independent sub-streams.

Streams are backed by the Philox counter-based generator. A stream is fully
determined by (seed, path): the 128-bit Philox key is derived by hashing
both together, so each named sub-stream draws from its own keyed sequence.
Adding or removing draws in one component therefore never shifts the values
another component sees.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream", "derive_seed"]


class RngStream:
    """A named, restartable source of pseudo-random draws.

    Two streams constructed with the same (seed, path) produce identical
    sequences; streams with different paths behave as statistically
    independent generators.
    """

    def __init__(self, seed: int, path: str = "") -> None:
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.path = path
        digest = hashlib.sha256(f"{seed}\x1f{path}".encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def substream(self, name: str) -> "RngStream":
        """Independent child stream; the child's path extends this stream's."""
        if not name:
            raise ValueError("substream name must be non-empty")
        return RngStream(self.seed, f"{self.path}/{name}")

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=()) -> np.ndarray:
        if not high > low:
            raise ValueError(f"uniform needs high > low, got [{low}, {high})")
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers drawn uniformly from [low, high)."""
        if not high > low:
            raise ValueError(f"integers needs high > low, got [{low}, {high})")
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("permutation length must be non-negative")
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"


def derive_seed(seed: int, label: str) -> int:
    """A stable 63-bit seed for a named child experiment (e.g. a sweep cell)."""
    digest = hashlib.sha256(f"{int(seed)}\x1f{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
