"""Sentence-pair similarity evaluation: cosine scores vs gold labels.

Pairs come from a TSV file (sentence_a, sentence_b, gold score). Both
sides are embedded with a caller-supplied encoder, and agreement between
the cosine similarities and the gold scores is measured with Spearman
rank correlation (average ranks over ties).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contrastive import Encoder, PairsFormatError, cosine_similarity
from .corpus import Vocabulary, read_nonblank_lines, tokenize

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
    """1-based fractional ranks; tied values share the mean of their span."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    span_start = np.ones(values.size, dtype=bool)
    span_start[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(span_start)
    lengths = np.diff(np.append(starts, values.size))
    ends = starts + lengths - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, lengths)
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


def load_scored_pairs(source) -> list[ScoredPair]:
    """Read sentence_a<TAB>sentence_b<TAB>gold lines; blank lines are
    skipped and counted in one warning."""
    lines, blanks = read_nonblank_lines(source)
    if blanks:
        logger.warning("skipped %d blank line(s)", blanks)
    pairs = []
    for line_number, text in lines:
        fields = text.split("\t")
        if len(fields) != 3:
            raise PairsFormatError(line_number, f"expected 3 tab-separated columns, got {len(fields)}")
        try:
            # float() also reads "1_0" as 10 and non-ASCII digits, where a
            # typo would silently move the pair's rank.
            if not fields[2].isascii() or "_" in fields[2]:
                raise ValueError
            gold = float(fields[2])
        except ValueError:
            raise PairsFormatError(line_number, f"bad gold score {fields[2]!r}") from None
        if not np.isfinite(gold):
            raise PairsFormatError(line_number, f"gold score must be finite, got {fields[2]}")
        pairs.append(ScoredPair(fields[0], fields[1], gold))
    return pairs


def evaluate_pairs(
    pairs: Sequence[ScoredPair],
    encoder: Encoder,
    vocabulary: Vocabulary,
) -> EvalReport:
    """Correlate encoder cosine similarities with gold scores.

    Pairs where neither side has a single in-vocabulary token would be
    compared through the encoder's fallback vector on both sides; they are
    skipped and counted instead of silently scored.
    """
    similarities = []
    golds = []
    skipped = 0
    for pair in pairs:
        tokens_a = tokenize(pair.sentence_a)
        tokens_b = tokenize(pair.sentence_b)
        if not any(t in vocabulary for t in tokens_a) and not any(
            t in vocabulary for t in tokens_b
        ):
            skipped += 1
            continue
        similarities.append(cosine_similarity(encoder(tokens_a), encoder(tokens_b)))
        golds.append(pair.gold)
    if skipped:
        logger.warning("skipped %d pair(s) with no in-vocabulary tokens on either side", skipped)
    if len(similarities) < 2:
        raise EvalDataError(f"need at least 2 scoreable pairs, got {len(similarities)}")
    return EvalReport(n_pairs=len(similarities), rho=spearman(similarities, golds), n_skipped=skipped)
