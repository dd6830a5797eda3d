"""Deterministic RNG stream derivation.

Every randomized component draws from a generator derived from the master
seed plus a component name and indices, so samples are reproducible and
independent regardless of execution order or worker count.

A stream is the PCG64 generator of NumPy's
``SeedSequence(entropy=master_seed, spawn_key=words)``, where an int part
of the path gives the word ``part % 2**32`` and any other part the first
four bytes of the SHA-256 of its text. ``spawn_rngs`` computes that
algorithm itself (the master seed split into 32-bit words and zero-padded
to the pool of four, ``hashmix``/``mix`` of every word into the pool, then
``generate_state(4, uint64)``), so that a part may be an array of indices
and all of its streams come out of one vectorized pass. The pool of the
master seed and the names before the first index is computed once and
cached.
``tests/test_rng.py`` checks the streams bit for bit against
``np.random.SeedSequence`` (``tests/oracles.py:seed_sequence_rng``).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

RngLike = int | np.random.Generator

_M32 = 0xFFFF_FFFF
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _stream_word(part: object) -> int | np.ndarray:
    if isinstance(part, np.ndarray):
        if part.dtype.kind not in "biu":
            raise TypeError(f"an array stream part must hold integers, not {part.dtype}")
        return part.astype(np.uint32)
    if isinstance(part, (int, np.integer)):
        return int(part) & _M32
    return _name_word(str(part))


@lru_cache(maxsize=None)
def _name_word(name: str) -> int:
    """The word of a named stream part; the few names repeat for every run."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _constants(const: int, mult: int, count: int) -> list[int]:
    """The running hash constant from ``const`` over ``count`` hash steps."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


def _hash(value, const, nxt):
    """SeedSequence's hash step of ``value`` (ints, or uint32 arrays that
    broadcast) under the running constant ``const`` and its successor."""
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of ``x`` and ``y``, both ints or both uint32 arrays."""
    value = _MIX_L * x - _MIX_R * y & _M32
    return value ^ value >> 16


def _mix_in(pool: np.ndarray, const: int, word) -> tuple[np.ndarray, int]:
    """Mix ``word`` (an int, or a uint32 array holding one word per stream)
    into every row of ``pool`` (four rows, one column per stream), as
    SeedSequence does with each entropy word beyond its pool; returns the
    new pool and the running constant."""
    consts = _constants(const, _MULT_A, _POOL)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return _mix(pool, _hash(word, column[:-1], column[1:])), consts[-1]


# generate_state(4, uint64) hashes eight 32-bit words, cycling through the pool
_STATE_ROWS = np.arange(2 * _POOL) % _POOL
_STATE_CONSTS = np.array(_constants(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)[:, None]


@lru_cache(maxsize=1024)
def _named_pool(master_seed: int, names: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The pool after the master seed and the words of the ``names`` that
    follow it, as a 4 x 1 array, and the running constant."""
    if master_seed < 0:
        raise ValueError(f"expected a non-negative master seed, got {master_seed}")
    # the seed's 32-bit words, least significant first; 0 is one word
    entropy = [master_seed >> bit & _M32 for bit in range(0, max(master_seed.bit_length(), 1), 32)]
    # a spawn key follows a zero-padded pool; with no key the padding hashes
    # as the missing words would, so it is always applied
    entropy += [0] * (_POOL - len(entropy))
    consts = _constants(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = [_hash(word, consts[i], consts[i + 1]) for i, word in enumerate(entropy[:_POOL])]
    k = _POOL
    # every pool word into every other one
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts[k], consts[k + 1]))
                k += 1
    pool, const = np.array(pool, dtype=np.uint32)[:, None], consts[k]
    for word in [*entropy[_POOL:], *names]:
        pool, const = _mix_in(pool, const, word)
    pool.setflags(write=False)  # every caller of the cache shares it
    return pool, const


class _StateWords(ISeedSequence):
    """Hands PCG64 its four uint64 state words, computed in advance."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def spawn_rngs(master_seed: int, *path: object) -> list[np.random.Generator]:
    """Generators for the streams identified by (master seed, path parts),
    one per entry of the path's array parts (integer arrays, broadcast
    together); with scalar parts alone, one generator."""
    words = [_stream_word(part) for part in path]
    lead = next((i for i, part in enumerate(path)
                 if isinstance(part, (int, np.integer, np.ndarray))), len(path))
    pool, const = _named_pool(int(master_seed), tuple(words[:lead]))
    # from the first index on, each stream is one column of the pool
    for word in words[lead:]:
        pool, const = _mix_in(pool, const, word)
    state = _hash(pool[_STATE_ROWS], _STATE_CONSTS[:-1], _STATE_CONSTS[1:]).astype(np.uint64)
    # little-endian pairs of 32-bit words make the four uint64 state words
    state = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]


def spawn_rng(master_seed: int, *path: object) -> np.random.Generator:
    """Generator for the stream identified by (master seed, path parts)."""
    (gen,) = spawn_rngs(master_seed, *path)
    return gen


def as_rng(rng: RngLike) -> np.random.Generator:
    """Accept either a seed or an existing generator; a seed gives the stream
    of ``np.random.default_rng(seed)``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return spawn_rng(rng)
