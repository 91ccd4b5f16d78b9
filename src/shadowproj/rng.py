"""Deterministic, splittable random streams.

Everything randomized in this package draws from counter-based Philox
generators keyed through ``derive_key(seed, *path)``, so any run is
reproducible from its seed and independent sub-streams can be handed to
parallel workers without shared state.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.random import Generator, Philox, SeedSequence


def derive_key(seed: int, *path: int) -> np.ndarray:
    """128-bit Philox key derived from a base seed and a branch path; the
    seed must be a non-negative integer (a numpy integer too, not a bool),
    or ValueError."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    ss = SeedSequence([int(seed)] + [int(p) for p in path])
    return ss.generate_state(2, np.uint64)


def stream(seed: int, *path: int) -> Generator:
    """Independent generator for the given (seed, path) branch."""
    return Generator(Philox(key=derive_key(seed, *path)))


def derive_seed(seed: int, *path: int) -> int:
    """Plain integer sub-seed, for APIs that take a seed rather than a stream."""
    return int(derive_key(seed, *path)[0])


def uniform_block(seed: int, path: tuple[int, ...], rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) block of uniforms; row n is the stream of item n.

    The block comes from a single counter-based generator, so row n is a
    fixed function of (seed, path, n) regardless of how many rows are
    consumed or in which order the caller processes them.
    """
    return stream(seed, *path).random((rows, cols))
