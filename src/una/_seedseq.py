"""numpy's SeedSequence hash (numpy/random/bit_generator.pyx), one seed per
array column: augmentation's Philox keys (spawn_states) and the toy
encoder's PCG64 seeds (entropy_states) each take one pass for many seeds.
Words that every row shares are mixed into the pool once: spawn_states
starts every row from SeedSequence(seed)'s pool and hashes only each
row's spawn key, whose batch index and position may differ from row to
row and take one word or several.
"""

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


def _words(values) -> tuple[np.ndarray, np.ndarray]:
    """_int_words of each of n non-negative ints (an int, a list or an int
    array) as the zero-padded columns of a (w, n) uint32 array, and each
    int's word count."""
    column = np.atleast_1d(np.array(values))
    if column.dtype.kind not in "iu":  # ints past 64 bits, or none
        column = np.atleast_1d(np.array(values, dtype=object))
    if column.size and column.min() < 0:
        raise ValueError("expected non-negative integers")
    if column.dtype != object:
        column = column.astype(np.uint64)
    rows, lengths = [], np.zeros(column.size, dtype=np.int64)
    live = np.ones(column.size, dtype=bool)  # every int has a first word, 0 too
    while live.any():
        rows.append((column & _MASK32).astype(np.uint32))
        lengths += live
        column = column >> 32
        live = column > 0
    return np.array(rows, dtype=np.uint32).reshape(len(rows), column.size), lengths


def _pool(head: np.ndarray) -> np.ndarray:
    """SeedSequence's pool once the first four entropy words, the rows of a
    (4, n) uint32 head, are hashed into it and each pool word is mixed into
    the others."""
    pool = _hash(head, _MULTIPLIERS_A, 0, _POOL_SIZE)
    for source in range(_POOL_SIZE):
        others = [target for target in range(_POOL_SIZE) if target != source]
        pool[others] = _mix(pool[others], _hash(pool[source], _MULTIPLIERS_A, _POOL_SIZE + 3 * source, 3))
    return pool


def _states(pool: np.ndarray, start: int, tail: np.ndarray, lengths: np.ndarray, count: int) -> np.ndarray:
    """(n, count) uint64, count <= 4: row i is generate_state(count, np.uint64) of the
    SeedSequence whose pool is pool ((4, 1) or (4, n) uint32) once its first
    start >= 4 entropy words are mixed in, and whose further words are
    tail[:lengths[i], i] for a zero-padded (w, n) uint32 tail.

    Each further word is mixed into all four pool words unless its row's
    entropy has ended. The output hashes the pool words in turn, two per
    uint64, the first the low half.
    """
    calls = _POOL_SIZE * (start + len(tail))  # 4 per entropy word
    multipliers = _MULTIPLIERS_A if calls < len(_MULTIPLIERS_A) else _multipliers(_INIT_A, _MULT_A, calls)
    for index, word in enumerate(tail):
        mixed = _mix(pool, _hash(word, multipliers, _POOL_SIZE * (start + index), _POOL_SIZE))
        pool = np.where(index < lengths, mixed, pool)
    pool = np.broadcast_to(pool, (_POOL_SIZE, lengths.size))
    words = _hash(pool[np.arange(2 * count) % _POOL_SIZE], _MULTIPLIERS_B, 0, 2 * count)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def spawn_states(seed: int, keys, values, count: int) -> np.ndarray:
    """Row i: SeedSequence(seed, spawn_key=(keys[i], values[i])).generate_state(count, np.uint64),
    where keys is one int for every row or one per row.

    A spawned sequence pads the seed's words with zeros to the pool size,
    and those words are the same on every row: numpy's SeedSequence(seed)
    mixes them into the pool once, which hashes zeros for missing words as
    well. Only each row's spawn key words are hashed here: its key words,
    then its value words.
    """
    run = _int_words(seed)
    key_words, key_lengths = _words(keys)
    value_words, value_lengths = _words(values)
    n = value_lengths.size
    tail = np.zeros((len(key_words) + len(value_words), n), dtype=np.uint32)
    tail[: len(key_words)] = key_words
    for index, row in enumerate(value_words):  # each row's value words follow its key words
        tail[key_lengths + index, np.arange(n)] = row
    pool = np.random.SeedSequence(seed).pool[:, None]
    return _states(pool, max(len(run), _POOL_SIZE), tail, key_lengths + value_lengths, count)


def entropy_states(seed: int, values: np.ndarray, count: int) -> np.ndarray:
    """Row i: SeedSequence([seed, values[i]]).generate_state(count, np.uint64), for uint64
    values; hashed 2048 at a time, so that the temporaries stay small next to the result.
    The entropy is the seed's words, then the value's, zero-padded to at least four."""
    run = _int_words(seed)
    values, states = np.asarray(values, dtype=np.uint64), np.empty((len(values), count), dtype=np.uint64)
    for start in range(0, len(values), 2048):
        words, lengths = _words(values[start : start + 2048])
        entropy = np.zeros((max(_POOL_SIZE, len(run) + len(words)), lengths.size), dtype=np.uint32)
        entropy[: len(run)] = np.array(run, dtype=np.uint32)[:, None]
        entropy[len(run) : len(run) + len(words)] = words
        further = len(run) + lengths - _POOL_SIZE  # each row's words after the first four
        pool = _pool(entropy[:_POOL_SIZE])
        states[start : start + 2048] = _states(pool, _POOL_SIZE, entropy[_POOL_SIZE:], further, count)
    return states
