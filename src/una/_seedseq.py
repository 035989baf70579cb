"""numpy's SeedSequence hash (numpy/random/bit_generator.pyx), one seed per
array column: augmentation's Philox keys (spawn_states) and the toy
encoder's PCG64 seeds (entropy_states) each take one pass for many seeds.
"""

from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# hashmix's multiplier starts at _INIT_A and advances by _MULT_A on every
# call; generate_state's starts at _INIT_B and advances by _MULT_B.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _multipliers(initial: int, factor: int, calls: int) -> np.ndarray:
    """initial * factor**k mod 2**32 for k = 0..calls as a uint32 column:
    hash call k xors with row k and multiplies by row k + 1."""
    return np.multiply.accumulate(np.array([initial] + [factor] * calls, dtype=np.uint32), dtype=np.uint32)[:, None]


# Enough for an entropy of 16 words, and for the output of both callers:
# at most 4 uint64 words.
_MULTIPLIERS_A = _multipliers(_INIT_A, _MULT_A, 16 * _POOL_SIZE)
_MULTIPLIERS_B = _multipliers(_INIT_B, _MULT_B, 8)


def _hash(value, multipliers: np.ndarray, first: int, count: int) -> np.ndarray:
    """Hash calls first .. first + count - 1, one per row of the result;
    the uint32 words in value broadcast against a (count, 1) column."""
    hashed = (value ^ multipliers[first : first + count]) * multipliers[first + 1 : first + count + 1]
    return hashed ^ hashed >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    mixed = x * _MIX_MULT_L - y * _MIX_MULT_R
    return mixed ^ mixed >> 16


def _int_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence coerces an int to; [0] for 0."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, int(value).bit_length() or 1, 32)]


def _states(prefix: list[int], values: np.ndarray, count: int) -> np.ndarray:
    """(n, count) uint64, count <= 4: row i is generate_state(count, np.uint64) of the
    SeedSequence whose entropy is the words of prefix, then of values[i]
    (non-negative ints, as uint64 or in an object array).

    Each entropy is a zero-padded column. Four words are hashed into the
    pool, each pool word is mixed into the others, and each further word
    into all four unless the column has ended. The output hashes the pool
    words in turn, two per uint64, the first the low half.
    """
    rows = [np.full(values.size, word, dtype=np.uint32) for word in prefix]
    lengths = np.full(values.size, len(prefix))
    live = np.ones(values.size, dtype=bool)  # every value has a first word, 0 too
    while live.any():
        rows.append((values & _MASK32).astype(np.uint32))
        lengths += live
        values = values >> 32
        live = values > 0
    entropy = np.array(rows + [np.zeros(values.size, dtype=np.uint32)] * (_POOL_SIZE - len(rows)))

    calls = _POOL_SIZE * len(entropy)  # 4 into the pool, 12 mixing it, 4 per further word
    multipliers = _MULTIPLIERS_A if calls < len(_MULTIPLIERS_A) else _multipliers(_INIT_A, _MULT_A, calls)
    pool = _hash(entropy[:_POOL_SIZE], multipliers, 0, _POOL_SIZE)
    for source in range(_POOL_SIZE):
        others = [target for target in range(_POOL_SIZE) if target != source]
        pool[others] = _mix(pool[others], _hash(pool[source], multipliers, _POOL_SIZE + 3 * source, 3))
    for index in range(_POOL_SIZE, len(entropy)):
        mixed = _mix(pool, _hash(entropy[index], multipliers, _POOL_SIZE * index, _POOL_SIZE))
        pool = np.where(index < lengths, mixed, pool)

    words = _hash(pool[np.arange(2 * count) % _POOL_SIZE], _MULTIPLIERS_B, 0, 2 * count)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def spawn_states(seed: int, key: int, values: Sequence[int], count: int) -> np.ndarray:
    """Row i: SeedSequence(seed, spawn_key=(key, values[i])).generate_state(count, np.uint64);
    a spawned sequence pads the seed's words with zeros to the pool size."""
    run = _int_words(seed)
    return _states(run + [0] * (_POOL_SIZE - len(run)) + _int_words(key), np.array(values, dtype=object), count)


def entropy_states(seed: int, values: np.ndarray, count: int) -> np.ndarray:
    """Row i: SeedSequence([seed, values[i]]).generate_state(count, np.uint64), for uint64
    values; hashed 2048 at a time, so that the temporaries stay small next to the result."""
    values, states = np.asarray(values, dtype=np.uint64), np.empty((len(values), count), dtype=np.uint64)
    for start in range(0, len(values), 2048):
        states[start : start + 2048] = _states(_int_words(seed), values[start : start + 2048], count)
    return states
