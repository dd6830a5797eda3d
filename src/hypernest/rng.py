"""Deterministic RNG stream derivation.

Every randomized component draws from a generator derived from the master
seed plus a component name and index, so samples are reproducible and
independent regardless of execution order or worker count.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

RngLike = int | np.random.Generator


def _stream_word(part: object) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) % 2**32
    return _name_word(str(part))


@lru_cache(maxsize=None)
def _name_word(name: str) -> int:
    """The word of a named stream part; the few names repeat for every run."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def spawn_rng(master_seed: int, *path: object) -> np.random.Generator:
    """Generator for the stream identified by (master seed, path parts)."""
    key = tuple(_stream_word(p) for p in path)
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(seq)


def as_rng(rng: RngLike) -> np.random.Generator:
    """Accept either a seed or an existing generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(int(rng))
