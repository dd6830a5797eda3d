from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypernest.rng import spawn_rng, spawn_rngs

# master seeds of one, two and three or more 32-bit words
MASTERS = st.one_of(st.sampled_from([0, 3, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 3]),
                    st.integers(0, 2**200))
WORDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**32 + 1, -1]),
                  st.integers(-2**63, 2**63 - 1))


@st.composite
def paths(draw) -> tuple[list, int]:
    """Path parts mixing names, ints, NumPy integers and index arrays of one
    length, and the number of streams they name."""
    streams = draw(st.integers(0, 5))
    path = []
    for kind in draw(st.lists(st.sampled_from(["name", "int", "numpy", "array"]), max_size=5)):
        if kind == "name":
            path.append(draw(st.text(max_size=4)))
        elif kind == "int":
            path.append(draw(WORDS))
        elif kind == "numpy":
            path.append(np.int64(draw(WORDS)))
        else:
            path.append(np.array(draw(st.lists(WORDS, min_size=streams, max_size=streams)),
                                 dtype=np.int64))
    has_array = any(isinstance(part, np.ndarray) for part in path)
    return path, streams if has_array else 1


def state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def wide_master_examples(test):
    """Examples at master seeds of four words and more, where the hash steps
    of the array words start after all of the seed's words rather than after
    a pool padded to four: each with no path, with a name and an int alone,
    and with an array part after a name and an int."""
    for master in (2**96, 2**128 - 1, 2**128, 2**160 + 1):
        for drawn in (([], 1), (["layer-randomization", 5], 1),
                      (["seed-selection", 7, np.arange(3), np.arange(3) + 2**32], 3)):
            test = example(master=master, drawn=drawn)(test)
    return test


class TestSeedSequenceStreams:
    @given(master=MASTERS, drawn=paths())
    @settings(max_examples=300)
    @example(master=2**70 + 3, drawn=(["seed-selection", np.arange(4), np.arange(4) + 2**32], 4))
    @wide_master_examples
    def test_each_stream_is_numpys(self, master, drawn):
        path, streams = drawn
        gens = spawn_rngs(master, *path)
        assert len(gens) == streams
        for i, gen in enumerate(gens):
            row = [part[i] if isinstance(part, np.ndarray) else part for part in path]
            assert state(gen) == state(oracles.seed_sequence_rng(master, *row))

    @given(master=MASTERS, path=st.lists(st.one_of(st.text(max_size=4), WORDS), max_size=4))
    @settings(max_examples=100)
    def test_scalar_stream_is_numpys(self, master, path):
        gen = spawn_rng(master, *path)
        assert state(gen) == state(oracles.seed_sequence_rng(master, *path))
        assert gen.random() == oracles.seed_sequence_rng(master, *path).random()

    @pytest.mark.parametrize("master", [0, 7, 2**32, 2**64 + 5])
    def test_seed_alone_is_default_rng(self, master):
        assert state(spawn_rng(master)) == state(np.random.default_rng(master))

    @pytest.mark.parametrize("path", [(), ("seed-selection", np.arange(3), np.arange(3))])
    def test_negative_master_seed_rejected(self, path):
        with pytest.raises(ValueError):
            spawn_rngs(-1, *path)
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)

    def test_streams_are_independent_generators(self):
        a, b = spawn_rngs(5, "x", np.array([1, 1]))
        assert state(a) == state(b)
        a.random()
        assert state(a) != state(b)

    def test_array_part_must_hold_integers(self):
        with pytest.raises(TypeError):
            spawn_rngs(0, np.array([0.5]))
