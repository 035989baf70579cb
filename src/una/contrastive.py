"""Contrastive-objective math and a deterministic toy sentence encoder.

The loss follows the instance-discrimination form: the numerator is the
anchor/positive similarity, the denominator sums over the batch entries
that are neither the anchor nor its positive. Generated hard negatives
simply extend that denominator. A hashing-based bag-of-words encoder
stands in for a trained network so the whole pipeline can be exercised
without one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from ._seedseq import entropy_states
from .config import ContrastiveConfig, _check_tau
from .corpus import PairsFormatError, Vocabulary, _tsv_rows, tokenize


def cosine_similarity(u, v) -> float:
    """dot(u, v) / (|u| * |v|) for two same-dimension non-zero vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    norm_u = math.sqrt(u.dot(u))
    norm_v = math.sqrt(v.dot(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return float(u @ v) / (norm_u * norm_v)


def info_nce(anchor, positive, negatives: Sequence, tau: float) -> float:
    """Single-anchor contrastive loss.

    -log(exp(sim(anchor, positive) / tau) / sum_k exp(sim(anchor, neg_k) / tau)),
    with the positive kept out of the denominator sum. Computed with a
    max-shifted log-sum-exp, so extreme tau values stay finite. Negative
    loss values are possible: a positive closer than every negative makes
    the numerator exceed the denominator. This is the reference definition
    that batch_loss computes for a whole batch at once.
    """
    _check_tau(tau)
    if len(negatives) == 0:
        raise ValueError("at least one negative is required")
    anchor = np.asarray(anchor, dtype=np.float64)
    if not np.all(np.isfinite(anchor)):
        raise ValueError("anchor embedding has non-finite entries")

    logits = []
    for negative in negatives:
        negative = np.asarray(negative, dtype=np.float64)
        if not np.all(np.isfinite(negative)):
            raise ValueError("negative embedding has non-finite entries")
        logits.append(cosine_similarity(anchor, negative) / tau)
    positive = np.asarray(positive, dtype=np.float64)
    if not np.all(np.isfinite(positive)):
        raise ValueError("positive embedding has non-finite entries")
    positive_logit = cosine_similarity(anchor, positive) / tau
    shift = max(logits)
    return shift + float(np.log(np.sum(np.exp(np.array(logits) - shift)))) - positive_logit


def _unit_rows(vectors: Sequence, dim: int | None, label: str) -> np.ndarray:
    """Stack embeddings into rows scaled to unit length."""
    rows = np.asarray(vectors, dtype=np.float64)
    if rows.ndim != 2 or (dim is not None and rows.shape[1] != dim):
        raise ValueError(f"dimension mismatch: {label} embeddings stack to shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{label} embedding has non-finite entries")
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity is undefined for zero vectors")
    return rows / norms


def batch_loss(
    anchors: Sequence,
    positives: Sequence,
    una_negatives: Sequence = (),
    config: ContrastiveConfig = ContrastiveConfig(),
) -> float:
    """Mean contrastive loss over a batch.

    Anchor i is contrasted against every other anchor (positives are not
    part of the pool) plus all generated negatives: the mean of info_nce
    over the anchors, computed as one product of unit-length rows with the
    diagonal masked and a row-wise log-sum-exp.
    """
    if len(anchors) != len(positives):
        raise ValueError(
            f"anchors and positives must align, got {len(anchors)} vs {len(positives)}"
        )
    if len(anchors) == 0:
        raise ValueError("batch must be non-empty")
    if len(anchors) < 2 and len(una_negatives) == 0:
        raise ValueError("a batch of fewer than 2 needs generated negatives")
    anchors = _unit_rows(anchors, None, "anchor")
    dim = anchors.shape[1]
    positives = _unit_rows(positives, dim, "positive")
    pool = anchors
    if len(una_negatives):
        pool = np.vstack([anchors, _unit_rows(una_negatives, dim, "negative")])

    logits = anchors @ pool.T / config.tau
    np.fill_diagonal(logits, -np.inf)  # an anchor is not its own negative
    shift = logits.max(axis=1, keepdims=True)
    log_denominator = shift[:, 0] + np.log(np.sum(np.exp(logits - shift), axis=1))
    positive_logits = np.sum(anchors * positives, axis=1) / config.tau
    return float(np.mean(log_denominator - positive_logits))


# Most rows one encode gathers at a time: a longer token list (such as a
# whole vocabulary warmed in one call) is summed a chunk at a time, so its
# temporaries stay within this many rows. The scaling of newly drawn rows
# keeps the same bound.
GATHER_ROWS = 1024
# Most cells (rows x dim) that encode_many gathers at once when it sums
# several sentences together: 128 rows at dim 256. Its dev-pair blocks
# stay this small so that they add little to a training process's peak;
# a sentence too wide for it is summed alone, GATHER_ROWS rows at a time.
BLOCK_CELLS = 128 * 256


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) for each row i of two (n, d) float64 arrays, as one
    stacked matmul. numpy runs each (1, d) @ (d, 1) product through the
    same BLAS ddot as ndarray.dot, so each value is bit-identical to it
    (a test checks this on the numpy in use). np.vecdot would need numpy 2.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class _SeedState:
    """A SeedSequence's generate_state(4, np.uint64), all that PCG64 reads of
    it; indexing a vocabulary registers it as numpy's ISeedSequence. It is
    kept for speed: 20,000 rows seed in 2.5 + 126 ms through entropy_states
    and this shim, against 315 ms for a SeedSequence each (2-core VM)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} {np.dtype(dtype)}")
        return self.state


class ToyEncoder:
    """Deterministic bag-of-words encoder over fixed random term vectors.

    Every vocabulary term maps to a unit vector drawn from PCG64 seeded by
    SeedSequence([encoder seed, 8-byte blake2b of the term]), so embeddings
    depend only on the seed, never on process state or insertion order.
    A sentence embeds as the normalized sum of its in-vocabulary token
    vectors, each scaled by its count; a sentence with none gets the first
    basis vector.

    The term vectors live in one float64 table of a row per vocabulary
    term. Indexing the vocabulary fills a seed table of each term's PCG64
    seed with one pass of the shared SeedSequence hash (una._seedseq), and
    a row is drawn the first time its term is seen. Ascending row index is
    ascending string order of the terms, so a sentence's rows, sorted, are
    summed in term order from 0.0: the embedding is bit-identical under any
    permutation of the input tokens. Terms added to the vocabulary later
    get rows on the next encode, which indexes the whole vocabulary again.
    """

    def __init__(self, vocabulary: Vocabulary, dim: int = 256, seed: int = 0):
        if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"dim must be an int >= 1, got {dim!r}")
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2**64 - 1], got {seed!r}")
        self.vocabulary = vocabulary
        self.dim = dim
        self.seed = seed
        self._rows: dict[str, int] = {}  # term -> row, rows in string order of the terms
        self._table = np.empty((0, dim))
        self._filled = bytearray()
        self._seeds = np.empty((0, 4), dtype=np.uint64)  # row -> PCG64 seed

    def _index_vocabulary(self) -> None:
        """Give every vocabulary term its row and its PCG64 seed, and empty
        the table: each row is drawn again the next time its term is seen."""
        from numpy.random.bit_generator import ISeedSequence

        ISeedSequence.register(_SeedState)
        terms = sorted(self.vocabulary)
        digests = b"".join(hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest() for term in terms)
        self._rows = {term: row for row, term in enumerate(terms)}
        self._seeds = entropy_states(self.seed, np.frombuffer(digests, dtype=">u8"), 4)
        self._table = np.empty((len(terms), self.dim))
        self._filled = bytearray(len(terms))

    def _fallback(self) -> np.ndarray:
        vector = np.zeros(self.dim)
        vector[0] = 1.0
        return vector

    def _fill(self, rows: Iterable[int]) -> None:
        """Draw the term vector of each of these distinct rows that is not
        drawn yet, then scale the drawn rows to unit length together,
        GATHER_ROWS at a time: row_dots is the same ddot as the row's own
        dot, so each row is the bytes of drawing and scaling it alone."""
        filled = self._filled
        missing = [row for row in rows if not filled[row]]
        table, seeds = self._table, self._seeds
        for row in missing:
            np.random.Generator(np.random.PCG64(_SeedState(seeds[row]))).standard_normal(self.dim, out=table[row])
            filled[row] = 1
        for start in range(0, len(missing), GATHER_ROWS):
            chunk = missing[start : start + GATHER_ROWS]
            block = table[chunk]
            block /= np.sqrt(row_dots(block, block))[:, None]
            table[chunk] = block

    def encode(self, tokens: Iterable[str]) -> np.ndarray:
        if len(self._rows) != len(self.vocabulary):
            self._index_vocabulary()
        rows = self._rows
        counts: dict[int, int] = {}
        for token in tokens:
            row = rows.get(token)
            if row is not None:
                counts[row] = counts.get(row, 0) + 1
        if not counts:
            return self._fallback()
        order = sorted(counts)
        if not all(map(self._filled.__getitem__, order)):
            self._fill(order)
        table = self._table
        # One gather and one ordered reduce per chunk: 0.0 + r0 + r1 + ...
        # over the count-scaled rows, with the running total carried into
        # the next chunk's first row, which keeps that order. (At dim 1
        # numpy may group the additions otherwise, but every row is then
        # +-count, a whole number, so the sum is exact in any order.)
        total = None
        for start in range(0, len(order), GATHER_ROWS):
            chunk = order[start : start + GATHER_ROWS]
            block = table.take(chunk, axis=0)
            for k, row in enumerate(chunk):
                if counts[row] != 1:
                    block[k] *= counts[row]
            if total is not None:
                block[0] += total
            total = np.add.reduce(block, axis=0, initial=0.0)
        norm = math.sqrt(total.dot(total))
        if norm == 0.0:
            return self._fallback()
        return total / norm

    __call__ = encode

    def encode_many(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """The embeddings of many token lists as the rows of one (n, dim)
        array; row i is bit-identical to encode(token_lists[i]).

        Each token's row is looked up once and the (sentence, row) keys are
        counted with one np.unique, which also sorts each sentence's rows.
        The sentences with the same number w of distinct rows sum together:
        their keys, laid out by w, form a (sentences, w) block, gathered at
        most BLOCK_CELLS cells at a time (one sentence's GATHER_ROWS rows
        if it is wider) and reduced in encode's order, 0.0 + r0 + r1 + ...
        along each sentence's count-scaled rows; a sentence of more rows
        carries its running total into its next block's first row. No
        padding enters a sum. encode stays the path for one sentence at a
        time: the fixed cost of this one's array calls makes a single
        sentence about six times as slow here.
        """
        if len(self._rows) != len(self.vocabulary):
            self._index_vocabulary()
        n, m = len(token_lists), len(self._rows)
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=n)
        tokens = chain.from_iterable(token_lists)
        rows = np.fromiter(map(self._rows.get, tokens, repeat(-1)), dtype=np.int64, count=int(lengths.sum()))
        found = rows >= 0
        sentences = np.repeat(np.arange(n, dtype=np.int64), lengths)[found]
        keys, counts = np.unique(sentences * m + rows[found], return_counts=True)
        key_sentences, key_rows = np.divmod(keys, m)
        undrawn = key_rows[np.frombuffer(self._filled, dtype=np.uint8)[key_rows] == 0]
        self._fill(np.unique(undrawn).tolist())
        widths = np.bincount(key_sentences, minlength=n)
        by_width = np.argsort(widths, kind="stable")
        group_edges = np.flatnonzero(np.diff(widths[by_width], prepend=-1, append=-1))
        by_width_keys = np.argsort(widths[key_sentences], kind="stable")
        key_rows = key_rows[by_width_keys]
        scales = counts[by_width_keys].astype(np.float64)
        sums = np.zeros((n, self.dim))
        key = 0
        for lo, hi in zip(group_edges[:-1].tolist(), group_edges[1:].tolist()):
            width = int(widths[by_width[lo]])
            if width == 0:
                continue  # no in-vocabulary token: the zero sum falls back
            step = max(1, BLOCK_CELLS // (width * self.dim))  # sentences a block
            for first in range(lo, hi, step):
                group = by_width[first : min(first + step, hi)]
                group_rows = key_rows[key : key + len(group) * width].reshape(len(group), width)
                group_scales = scales[key : key + len(group) * width].reshape(len(group), width)
                key += len(group) * width
                total = None
                for start in range(0, width, GATHER_ROWS):
                    block = self._table[group_rows[:, start : start + GATHER_ROWS]]
                    block_scales = group_scales[:, start : start + GATHER_ROWS]
                    repeated = block_scales != 1.0
                    if repeated.any():
                        block[repeated] *= block_scales[repeated][:, None]
                    if total is not None:
                        block[:, 0] += total
                    total = np.add.reduce(block, axis=1, initial=0.0)
                sums[group] = total
        norms = np.sqrt(row_dots(sums, sums))
        zero = norms == 0.0  # no in-vocabulary token, or a sum of 0
        norms[zero] = 1.0
        sums /= norms[:, None]
        sums[zero] = self._fallback()
        return sums


@dataclass
class PositivePairSet:
    """(anchor, positive) sentence pairs ingested from a TSV file."""

    pairs: list[tuple[str, str]]

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def load_pairs(source) -> PositivePairSet:
    """Read anchor<TAB>positive lines.

    Lines are parsed as they are read: blank lines are skipped and counted
    in one warning, and a line with the wrong column count, or with a side
    that tokenizes to nothing, is rejected with its line number.
    """
    pairs: list[tuple[str, str]] = []
    for line_number, (anchor, positive) in _tsv_rows(source, 2):
        if not tokenize(anchor) or not tokenize(positive):
            raise PairsFormatError(line_number, "pair side is empty after tokenization")
        pairs.append((anchor, positive))
    return PositivePairSet(pairs)
