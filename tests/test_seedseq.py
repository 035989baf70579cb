"""The shared SeedSequence hash against numpy's SeedSequence."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from una._seedseq import entropy_states, spawn_states
from una.contrastive import ToyEncoder, _SeedState
from una.corpus import Vocabulary

# One- and two-word values at the word boundaries, 0 included.
_EDGE_VALUES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]


def reference_entropy_states(seed, values):
    return [np.random.SeedSequence([seed, value]).generate_state(4, np.uint64).tolist() for value in values]


class TestEntropyStates:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        values=st.lists(st.one_of(st.sampled_from(_EDGE_VALUES), st.integers(0, 2**64 - 1)), max_size=8),
    )
    @example(seed=0, values=_EDGE_VALUES)
    @example(seed=2**64 - 1, values=_EDGE_VALUES)
    @example(seed=0, values=[])
    def test_matches_seed_sequence(self, seed, values):
        states = entropy_states(seed, np.array(values, dtype=np.uint64), 4)
        assert states.dtype == np.uint64 and states.shape == (len(values), 4)
        assert states.tolist() == reference_entropy_states(seed, values)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_edge_and_random_values(self, seed):
        # A value below 2**32 is a single word, and SeedSequence hashes a zero
        # for the pool word after it; no 8-byte blake2b of a real term is
        # that small, so only this test covers it.
        values = _EDGE_VALUES + np.random.default_rng(seed % 97).integers(0, 2**64, 200, dtype=np.uint64).tolist()
        states = entropy_states(seed, np.array(values, dtype=np.uint64), 4)
        assert states.tolist() == reference_entropy_states(seed, values)

    def test_more_values_than_one_hash_pass(self):
        values = np.random.default_rng(5).integers(0, 2**64, 4100, dtype=np.uint64)
        values[2047:2050] = [0, 2**32 - 1, 2**32]
        assert entropy_states(9, values, 4).tolist() == reference_entropy_states(9, values.tolist())

    @pytest.mark.parametrize("seed", [2**64, 2**200 + 7, 2**600 + 1])
    def test_entropy_past_the_pool(self, seed):
        # Seeds of three words and more push the value's words past the pool
        # (a one-word value has one round fewer), and 2**600 past the
        # precomputed multipliers.
        states = entropy_states(seed, np.array(_EDGE_VALUES, dtype=np.uint64), 4)
        assert states.tolist() == reference_entropy_states(seed, _EDGE_VALUES)

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_output_lengths(self, count):
        states = entropy_states(7, np.array(_EDGE_VALUES, dtype=np.uint64), count)
        expected = [np.random.SeedSequence([7, v]).generate_state(count, np.uint64).tolist() for v in _EDGE_VALUES]
        assert states.tolist() == expected

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            entropy_states(-1, np.array([1], dtype=np.uint64), 4)


class TestSpawnStates:
    @pytest.mark.parametrize("count", [1, 3, 4])
    def test_output_lengths(self, count):
        # Philox keys (count 2) are covered through augment._philox_keys.
        values = [0, 2**32 - 1, 2**32, 2**64 + 3]
        expected = [
            np.random.SeedSequence(11, spawn_key=(3, v)).generate_state(count, np.uint64).tolist() for v in values
        ]
        assert spawn_states(11, 3, values, count).tolist() == expected


class TestPcg64Seeding:
    """A row of the encoder's seed table seeds PCG64 as its SeedSequence does."""

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_seed_table_rows(self, seed):
        terms = ["a", "Ärger", "日本", "w1", "w2"]
        encoder = ToyEncoder(Vocabulary(terms), dim=3, seed=seed)
        encoder.encode(terms)
        for term, state in zip(sorted(terms), encoder._seeds):
            h = int.from_bytes(hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest(), "big")
            expected = np.random.PCG64(np.random.SeedSequence([seed, h])).state
            assert np.random.PCG64(_SeedState(state)).state == expected

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_state_equals_seed_sequence_seeding(self, seed):
        ToyEncoder(Vocabulary(["a"]), dim=1).encode(["a"])  # registers _SeedState as an ISeedSequence
        values = _EDGE_VALUES + np.random.default_rng(seed % 89).integers(0, 2**64, 50, dtype=np.uint64).tolist()
        states = entropy_states(seed, np.array(values, dtype=np.uint64), 4)
        for value, state in zip(values, states):
            expected = np.random.PCG64(np.random.SeedSequence([seed, value])).state
            assert np.random.PCG64(_SeedState(state)).state == expected

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint64), (8, np.uint32), (4, np.uint32)])
    def test_other_requests_rejected(self, n_words, dtype):
        with pytest.raises(ValueError):
            _SeedState(np.zeros(4, dtype=np.uint64)).generate_state(n_words, dtype)


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is a sizeable import; una loads it only when it first
    # draws. The layers are registered lazily, so their code is run first.
    code = ("import sys, una; una.contrastive.ToyEncoder, una.augment.augment_batch, una.evaluation.evaluate_pairs; "
            "sys.exit('numpy.random' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
