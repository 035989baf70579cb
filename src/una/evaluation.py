"""Sentence-pair similarity evaluation: cosine scores vs gold labels.

Pairs come from a TSV file (sentence_a, sentence_b, gold score). Both
sides are embedded with a caller-supplied encoder, and agreement between
the cosine similarities and the gold scores is measured with Spearman
rank correlation (average ranks over ties). evaluate_pairs reads its
pairs a bounded chunk at a time, embeds both sides of a chunk in one
encode_many call and takes the chunk's cosines as stacked row dots, in
cosine_similarity's order of operations; it keeps only a similarity and
a gold score per pair.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .contrastive import ToyEncoder, row_dots
from .corpus import PairsFormatError, Vocabulary, _tsv_rows, tokenize

logger = logging.getLogger(__name__)


class EvalDataError(ValueError):
    """Data cannot support a correlation (too few points, or constant)."""


@dataclass
class ScoredPair:
    sentence_a: str
    sentence_b: str
    gold: float


@dataclass
class EvalReport:
    n_pairs: int
    rho: float
    n_skipped: int = 0


def average_ranks(values) -> np.ndarray:
    """1-based fractional ranks; tied values share the mean of their span.

    A span from sorted position start up to the next span's start has the
    mean rank (start + next_start + 1) / 2, exact in float64. Each array is
    freed once it is dead, which keeps spearman's peak, with the other
    input's ranks alive, under 7 floats a pair.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    span_start = np.ones(values.size, dtype=bool)
    span_start[1:] = ordered[1:] != ordered[:-1]
    del ordered
    starts = np.append(np.flatnonzero(span_start), values.size)
    means = (starts[:-1] + starts[1:] + 1) / 2
    spans = np.diff(starts)
    del starts
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(means, spans)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"inputs must be 1-D and equal length, got {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise EvalDataError(f"need at least 2 observations, got {xs.size}")
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        raise EvalDataError("correlation is undefined for a constant input")
    rank_x = average_ranks(xs)
    rank_y = average_ranks(ys)
    dx = rank_x - rank_x.mean()
    dy = rank_y - rank_y.mean()
    rho = float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
    return min(1.0, max(-1.0, rho))


def _scored_pairs(source) -> Iterator[ScoredPair]:
    """Yield a ScoredPair for each sentence_a<TAB>sentence_b<TAB>gold line,
    parsed as it is read; blank lines are skipped and counted in one
    warning once the input is exhausted."""
    for line_number, (sentence_a, sentence_b, score) in _tsv_rows(source, 3):
        try:
            # float() also reads "1_0" as 10 and non-ASCII digits, where a
            # typo would silently move the pair's rank.
            if not score.isascii() or "_" in score:
                raise ValueError
            gold = float(score)
        except ValueError:
            raise PairsFormatError(line_number, f"bad gold score {score!r}") from None
        if not np.isfinite(gold):
            raise PairsFormatError(line_number, f"gold score must be finite, got {score}")
        yield ScoredPair(sentence_a, sentence_b, gold)


def load_scored_pairs(source) -> list[ScoredPair]:
    """The pairs of _scored_pairs as a list."""
    return list(_scored_pairs(source))


# Most pairs one chunk of evaluate_pairs holds, and the most embedding
# cells (2 * pairs * dim floats) it may hold: at dims above 256 a chunk
# holds fewer pairs, so its memory stays bounded at every --dim.
EVAL_PAIRS = 128
EVAL_CELLS = EVAL_PAIRS * 2 * 256


def _cosines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cosine_similarity of each row of u with the same row of v, in its
    order of operations: dot(u, v) / (sqrt(dot(u, u)) * sqrt(dot(v, v)))."""
    norm_u = np.sqrt(row_dots(u, u))
    norm_v = np.sqrt(row_dots(v, v))
    if not (norm_u.all() and norm_v.all()):
        raise ValueError("cosine similarity is undefined for zero vectors")
    return row_dots(u, v) / (norm_u * norm_v)


def evaluate_pairs(
    pairs: Iterable[ScoredPair],
    encoder: ToyEncoder,
    vocabulary: Vocabulary,
) -> EvalReport:
    """Correlate encoder cosine similarities with gold scores.

    Pairs where neither side has a single in-vocabulary token would be
    compared through the encoder's fallback vector on both sides; they are
    skipped and counted instead of silently scored. The pairs may come
    from any iterable, which is read a chunk at a time.
    """
    chunk_size = max(1, min(EVAL_PAIRS, EVAL_CELLS // (2 * encoder.dim)))
    similarities = array("d")
    golds = array("d")
    skipped = 0
    pairs = iter(pairs)
    while chunk := list(islice(pairs, chunk_size)):
        sides_a = []
        sides_b = []
        for pair in chunk:
            tokens_a = tokenize(pair.sentence_a)
            tokens_b = tokenize(pair.sentence_b)
            if not any(t in vocabulary for t in tokens_a) and not any(
                t in vocabulary for t in tokens_b
            ):
                skipped += 1
                continue
            sides_a.append(tokens_a)
            sides_b.append(tokens_b)
            golds.append(pair.gold)
        if sides_a:
            embeddings = encoder.encode_many(sides_a + sides_b)
            similarities.extend(_cosines(embeddings[: len(sides_a)], embeddings[len(sides_a) :]).tolist())
    if skipped:
        logger.warning("skipped %d pair(s) with no in-vocabulary tokens on either side", skipped)
    if len(similarities) < 2:
        raise EvalDataError(f"need at least 2 scoreable pairs, got {len(similarities)}")
    rho = spearman(np.frombuffer(similarities), np.frombuffer(golds))
    return EvalReport(n_pairs=len(similarities), rho=rho, n_skipped=skipped)
