"""Deterministic random-number helpers.

All dataset generators take an integer ``seed`` and derive their streams
through :func:`make_rng` so experiments are reproducible run-to-run.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20220612  # SIGMOD'22 started June 12, 2022.


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a numpy Generator from an integer seed (default fixed)."""
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_rng(rng: np.random.Generator, stream: int) -> np.random.Generator:
    """Derive an independent child generator for substream ``stream``."""
    seed = int(rng.integers(0, 2**63 - 1)) ^ (stream * 0x9E3779B97F4A7C15)
    return np.random.default_rng(seed & (2**63 - 1))
