"""Deterministic RNG stream derivation.

Every randomized component draws from a generator derived from the master
seed plus a component name and indices, so samples are reproducible and
independent regardless of execution order or worker count.

A stream is the PCG64 generator of NumPy's
``SeedSequence(entropy=master_seed, spawn_key=words)``, where an int part
of the path gives the word ``part % 2**32`` and any other part the first
four bytes of the SHA-256 of its text. A part may also be an array of
indices, so that all of its streams come out of one vectorized pass:
NumPy absorbs the master seed and the scalar parts before the first array
into its pool, and ``spawn_rngs`` mixes in only the array words (and any
parts after them) with SeedSequence's ``hashmix``/``mix``, then computes
``generate_state(4, uint64)`` per stream.
``tests/test_rng.py`` checks the streams bit for bit against
``np.random.SeedSequence`` (``tests/oracles.py:seed_sequence_rng``).
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _constants(const: int, mult: int, first: int, count: int) -> np.ndarray:
    """The running hash constant from ``const`` at hash steps ``first`` to
    ``first + count``, as a uint32 column."""
    out = [const * pow(mult, first, 1 << 32) & _M32]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hash(value, consts: np.ndarray):
    """SeedSequence's hash step of ``value`` (an int, or a uint32 array that
    broadcasts) under each running constant of ``consts`` and its successor."""
    value = (value ^ consts[:-1]) * consts[1:] & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of ``x`` and ``y``, uint32 arrays."""
    value = _MIX_L * x - _MIX_R * y & _M32
    return value ^ value >> 16


# generate_state(4, uint64) hashes eight 32-bit words, cycling through the pool
_STATE_ROWS = np.arange(2 * _POOL) % _POOL
_STATE_CONSTS = _constants(_INIT_B, _MULT_B, 0, 2 * _POOL)


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
    lead = next((i for i, word in enumerate(words) if isinstance(word, np.ndarray)), len(words))
    seq = np.random.SeedSequence(int(master_seed), spawn_key=words[:lead])
    # NumPy hashed the seed's words (at least four) and each key word into
    # every pool word; from the first array part on, each stream is one column
    first = _POOL * (max((seq.entropy.bit_length() + 31) // 32, _POOL) + lead)
    consts = _constants(_INIT_A, _MULT_A, first, _POOL * (len(words) - lead))
    pool = seq.pool[:, None]
    for k, word in enumerate(words[lead:]):
        pool = _mix(pool, _hash(word, consts[_POOL * k:_POOL * (k + 1) + 1]))
    state = _hash(pool[_STATE_ROWS], _STATE_CONSTS).astype(np.uint64)
    # little-endian pairs of 32-bit words make the four uint64 state words
    state = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in state]


def spawn_rng(master_seed: int, *path: object) -> np.random.Generator:
    """Generator for the stream identified by (master seed, path parts)."""
    (gen,) = spawn_rngs(master_seed, *path)
    return gen
