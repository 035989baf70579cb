"""Hard negative generation by score-guided term replacement.

For each sentence the distinct in-vocabulary terms get replacement
probabilities proportional to how far their tf-idf score sits above the
sentence minimum, scaled by the magnitude `beta` and clamped at 1; the
highest-scoring term is always replaced so the output provably differs
from the input. Replacements are drawn from the terms whose maximum
corpus tf-idf score ranks within `radius` positions of the original
term's, weighted by those scores, so a replaced word swaps against a word
of comparable importance. Batches are augmented once every `alpha`
batches.

Both the term-selection step and the term-replacement step can be
switched to a purely random baseline for ablation experiments.

Each weighted draw reads the window's score mass from prefix sums over
the rank order and bisects them, so it costs O(log m) and never builds
the window; `_window_picks`, the only copy of that search, does it for
many terms at once. `candidate_window` and `sample_replacement` state
the same law directly, one window at a time.

Randomness comes from counter-based Philox streams derived from
(master seed, batch index, position in batch), so a sentence's negative
does not depend on the order in which sentences are processed, nor on
which of them are processed together. `sentence_rng` defines each
stream: a Philox generator seeded by numpy's SeedSequence over those
coordinates. A Philox stream is fixed by its key alone, so for every
mode `_sentence_rngs` derives the keys of many sentences, each with its
own batch index and position, in one array pass of the SeedSequence hash
that `una._seedseq` shares with the toy encoder (`_philox_keys`) and
re-keys one generator with them.

`augment_sentence` augments one sentence from the stream it is given: it
runs random replacement and windows with no score mass, and is the test
oracle of the guided path. Sentences are augmented in passes: a pass is
a run of sentences from one or more consecutive on-schedule batches,
and it closes before its rows times twice the most tokens in one of
them would pass _PASS_CELLS; a sentence over that budget goes alone.
`iter_negative_batches` fills passes across batches and hands each batch
its negatives in order; `augment_batch` is the same code over one batch,
which a long line may split into several passes. A pass is built once
as columns (`_Pass`), as a `Corpus` holds them: token ids with row
offsets and the (row, term, score) columns. With tfidf replacement the
pass stays in columns, byte-identical to the oracle: segment reductions,
one bulk draw per sentence, a decision scan one term position at a time,
one `_window_picks` call, and substitution by (row, term) key. Sentences
with no in-vocabulary terms come back unchanged without a stream.

A pass's negatives stay in columns (`_PassNegatives`): the rewritten
tokens with row offsets, the source ids, the plan columns, and the few
sentences that `augment_sentence` redid. A `NegativeBatch` is a view of
its rows in them: its `AugmentedSentence`s, plans included, are built
when first read, and `una augment` writes its lines straight from the
columns. Plans keep their outcomes as array columns and build
`TermReplacement` entries only when they are read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from collections import deque
from functools import cached_property
from itertools import chain, compress, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._seedseq import spawn_states
from .config import _MODES, MODE_RANDOM, MODE_TFIDF, AugmentationConfig
from .corpus import Document
from .tfidf import SentenceScores, TfIdfModel, _score_columns

# Most cells of a pass's padded draw array. Every column of a pass grows with
# its rows and tokens, so this bounds them all; CHANGES.md has the sweep.
_PASS_CELLS = 2**14


class EmptySentenceError(ValueError):
    """A sentence with no in-vocabulary terms cannot be scored for replacement."""


class NoReplacementError(ValueError):
    """No candidate term exists (vocabulary of size one)."""


@dataclass
class TermReplacement:
    """Outcome of the replacement decision for one distinct sentence term."""

    term_id: int
    probability: float
    forced: bool
    replaced: bool
    replacement_id: int | None = None


@dataclass
class ReplacementPlan:
    """Per-term probabilities and sampled outcomes for one sentence.

    The outcomes are kept as parallel array columns over the sentence's
    distinct terms (term_ids int64, probabilities float64, replaced bool);
    forced is the position of the forced term, and replacement_ids (int64)
    holds one substitute per replaced term, in term order. entries (and
    iteration) build the TermReplacement objects only when they are read.
    """

    term_ids: np.ndarray
    probabilities: np.ndarray
    forced: int
    replaced: np.ndarray
    replacement_ids: np.ndarray

    @property
    def entries(self) -> list[TermReplacement]:
        substitutes = iter(self.replacement_ids.tolist())
        return [
            TermReplacement(term_id, probability, position == self.forced, hit, next(substitutes) if hit else None)
            for position, (term_id, probability, hit) in enumerate(
                zip(self.term_ids.tolist(), self.probabilities.tolist(), self.replaced.tolist())
            )
        ]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.term_ids)


@dataclass
class AugmentedSentence:
    """A negative sample generated from one source document."""

    source_id: int
    tokens: list[str]
    plan: ReplacementPlan | None
    unaugmentable: bool = False


class NegativeBatch:
    """The negative samples emitted for one injected batch.

    The negatives stay in the columns of the passes that made them: runs
    lists (pass, start, stop) row ranges in order. sentences builds the
    AugmentedSentence objects, plans included, on first read and keeps
    them; _rows reads the columns without building any.
    """

    def __init__(self, batch_index: int, runs: list[tuple[_PassNegatives, int, int]]):
        self.batch_index = batch_index
        self._runs = runs

    def __len__(self):
        return sum(stop - start for _, start, stop in self._runs)

    @cached_property
    def sentences(self) -> list[AugmentedSentence]:
        return list(chain.from_iterable(negatives.sentences[start:stop] for negatives, start, stop in self._runs))

    def _rows(self) -> Iterator[tuple[int, list[str], bool]]:
        """(source id, tokens, unaugmentable) of each negative, in order."""
        for negatives, start, stop in self._runs:
            tokens, offsets = negatives.tokens, negatives.offsets
            words = map(tokens.__getitem__, map(slice, offsets[start:stop], offsets[start + 1 : stop + 1]))
            yield from zip(negatives.source_ids[start:stop], words, negatives.unaugmentable[start:stop])


def _unclamped_probabilities(scores: np.ndarray, beta: float) -> np.ndarray:
    """beta * (z - min z) / C with C the mean of (z - min z); needs C > 0."""
    centered = scores - np.min(scores)
    return beta * centered / centered.mean()


def replacement_probabilities(
    scores: SentenceScores,
    beta: float,
    selection_mode: str = MODE_TFIDF,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, int]:
    """Replacement probability per distinct term, plus the forced index.

    In tfidf mode the probabilities are beta * (z - min z) / C clamped at
    1, and the term with the highest score (lowest id on ties) is forced
    to 1 so at least one term is always replaced. When all scores are
    equal (including single-term sentences) the formula degenerates, and
    only the forced term keeps probability 1.

    In random mode every term gets probability beta and the forced term is
    chosen uniformly, which consumes one draw from `rng`.

    Returns (probabilities aligned with scores.term_ids, forced position).
    """
    if scores.n_terms == 0:
        raise EmptySentenceError("sentence has no in-vocabulary terms")
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if selection_mode not in _MODES:
        raise ValueError(f"selection_mode must be one of {_MODES}, got {selection_mode!r}")

    if selection_mode == MODE_RANDOM:
        if rng is None:
            raise ValueError("random selection mode requires an rng")
        probabilities = np.full(scores.n_terms, float(beta))
        forced = int(rng.integers(scores.n_terms))
    else:
        z = scores.scores
        if np.ptp(z) > 0:
            probabilities = np.minimum(_unclamped_probabilities(z, beta), 1.0)
        else:
            probabilities = np.zeros(scores.n_terms)
        forced = int(np.argmax(z))  # first maximum == lowest term id
    probabilities[forced] = 1.0
    return probabilities, forced


def candidate_window(model: TfIdfModel, term_id: int, radius: int) -> np.ndarray:
    """Term ids whose max-score rank is within `radius` of the given term's.

    The window clamps at the vocabulary boundaries (no wrap-around) and
    never contains the term itself, so it holds at most 2 * radius ids.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    rank = model.rank_of(term_id)
    low = max(0, rank - radius)
    high = min(model.m - 1, rank + radius)
    order = model.rank_by_score
    return np.concatenate([order[low:rank], order[rank + 1 : high + 1]])


def sample_replacement(
    model: TfIdfModel,
    window: Sequence[int] | np.ndarray,
    replacement_mode: str,
    rng: np.random.Generator,
    original_term_id: int | None = None,
) -> int:
    """Draw one replacement term id.

    tfidf mode samples from the window with probability proportional to
    each candidate's maximum corpus score, falling back to uniform when
    every weight is zero. random mode ignores the window and draws
    uniformly from the whole vocabulary minus the original term.
    """
    if replacement_mode not in _MODES:
        raise ValueError(f"replacement_mode must be one of {_MODES}, got {replacement_mode!r}")

    if replacement_mode == MODE_RANDOM:
        if original_term_id is None:
            raise ValueError("random replacement mode requires the original term id")
        if model.m <= 1:
            raise NoReplacementError("vocabulary has no other term to replace with")
        drawn = int(rng.integers(model.m - 1))
        return drawn if drawn < original_term_id else drawn + 1

    window = np.asarray(window, dtype=np.int64)
    if window.size == 0:
        raise NoReplacementError("empty candidate window")
    weights = model.max_score[window]
    total = float(weights.sum())
    if total > 0:
        return int(rng.choice(window, p=weights / total))
    return int(window[rng.integers(window.size)])


def _window_picks(
    model: TfIdfModel, term_ids: np.ndarray, draws: np.ndarray, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """One pick per term from candidate_window(model, term_id, radius) with
    sample_replacement's law, given each term's random() draw.

    The draw scaled by the window's score mass picks a point on the
    cumulative scores, and a right-side bisection of score_prefix finds
    the candidate under it: numpy choice(p=)'s draw and search, up to float
    rounding at CDF boundaries, so zero-score candidates are never picked.
    Also returns a mask of the windows with no score mass, whose picks are
    meaningless.
    """
    # Windows clip at the vocabulary edge, so a radius above m changes
    # nothing, and clamping it keeps rank +- radius inside int64.
    radius = min(radius, model.m)
    rank = model._rank_of[term_ids]
    low = np.maximum(rank - radius, 0)
    high = np.minimum(rank + radius, model.m - 1)
    prefix = model.score_prefix
    below = prefix[rank] - prefix[low]
    above = prefix[high + 1] - prefix[rank + 1]
    total = below + above
    target = draws * total
    lower = target < below
    start = np.where(lower, low, rank + 1)
    end = np.where(lower, rank, high + 1)
    offset = np.where(lower, target, target - below)
    # Rounding can carry the point past the sub-range [start, end); the
    # clamp lands on its last rank, the sub-range's highest score.
    stop = prefix.searchsorted(prefix[start] + offset, side="right")
    return model.rank_by_score[np.minimum(stop, end) - 1], ~(total > 0)


def _sample_from_rank_window(
    model: TfIdfModel, term_id: int, radius: int, rng: np.random.Generator
) -> int:
    """One pick with sample_replacement's law over candidate_window(model, term_id, radius).

    A window with score mass takes one random() for _window_picks; a
    window without it takes one integers() draw, uniform over its members.
    """
    rank = model.rank_of(term_id)
    low, high = max(0, rank - radius), min(model.m - 1, rank + radius)
    prefix = model.score_prefix
    if prefix[rank] > prefix[low] or prefix[high + 1] > prefix[rank + 1]:
        picks, _ = _window_picks(model, np.array([term_id]), np.array([rng.random()]), radius)
        return int(picks[0])
    position = low + int(rng.integers(high - low))
    return int(model.rank_by_score[position if position < rank else position + 1])


def _negative(model: TfIdfModel, document: Document, plan: ReplacementPlan) -> AugmentedSentence:
    """The document with every occurrence of a replaced term rewritten to its substitute."""
    term = model.vocabulary.term
    substitutions = {
        term(term_id): term(replacement_id)
        for term_id, replacement_id in zip(
            compress(plan.term_ids.tolist(), plan.replaced.tolist()), plan.replacement_ids.tolist()
        )
    }
    tokens = [substitutions.get(token, token) for token in document.tokens]
    return AugmentedSentence(document.doc_id, tokens, plan)


def augment_sentence(
    model: TfIdfModel,
    document: Document,
    scores: SentenceScores,
    config: AugmentationConfig,
    rng: np.random.Generator,
) -> AugmentedSentence:
    """Generate one negative by stochastic term replacement, given the document's scores.

    Replacement is decided once per distinct term; every occurrence of a
    replaced term is rewritten to the same sampled substitute. Tokens the
    model has never seen pass through untouched. Sentences with no
    in-vocabulary terms, or a single-term vocabulary, come back unchanged
    and flagged unaugmentable.
    """
    if scores.n_terms == 0 or model.m <= 1:
        return AugmentedSentence(document.doc_id, list(document.tokens), None, unaugmentable=True)

    probabilities, forced = replacement_probabilities(scores, config.beta, config.selection_mode, rng)
    replaced, replacement_ids = [], []
    for term_id, probability in zip(scores.term_ids.tolist(), probabilities.tolist()):
        hit = bool(rng.random() < probability)
        replaced.append(hit)
        if hit:
            if config.replacement_mode == MODE_RANDOM:
                pick = sample_replacement(model, (), MODE_RANDOM, rng, original_term_id=term_id)
            else:
                pick = _sample_from_rank_window(model, term_id, config.radius, rng)
            replacement_ids.append(pick)
    replaced, replacement_ids = np.array(replaced, dtype=bool), np.array(replacement_ids, dtype=np.int64)
    plan = ReplacementPlan(scores.term_ids, probabilities, forced, replaced, replacement_ids)
    return _negative(model, document, plan)


def sentence_rng(master_seed: int, batch_index: int, position: int) -> np.random.Generator:
    """Philox stream for one (batch, sentence) slot.

    Streams are a pure function of their coordinates, which is what makes
    batch augmentation independent of execution order.
    """
    sequence = np.random.SeedSequence(master_seed, spawn_key=(batch_index, position))
    return np.random.Generator(np.random.Philox(sequence))


def _philox_keys(seed: int, batch_indices, positions: Sequence[int]) -> np.ndarray:
    """(n, 2) uint64: row i is the key of sentence_rng's stream at (seed,
    batch index, positions[i]), from one pass of the shared SeedSequence
    hash; batch_indices is one int for every row or one per row."""
    return spawn_states(seed, batch_indices, positions, 2)


def _sentence_rngs(master_seed: int, batch_indices, positions: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each row, a generator in the state that sentence_rng starts in
    at (master_seed, batch index, positions[i]); batch_indices is one int
    for every row or one per row.

    One Philox generator serves every row: it is re-keyed to the key
    that sentence_rng's SeedSequence derives, with counter 0, an empty
    buffer and no spare 32-bit half, which is the state a new Philox
    starts in. One _philox_keys call derives every key. The one generator
    is yielded each time, so draw from it before advancing.
    """
    keys = _philox_keys(master_seed, batch_indices, positions)
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    # The state setter reads its arrays item by item, which lists serve
    # faster than numpy arrays.
    state["state"]["counter"], state["buffer"] = state["state"]["counter"].tolist(), state["buffer"].tolist()
    for key in keys.tolist():
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


class _Pass:
    """A pass as columns. Row i's tokens are tokens[indptr[i]:indptr[i + 1]],
    with vocabulary ids in ids (-1 out of vocabulary). rows are the rows
    with in-vocabulary terms (none if the vocabulary has one term); row
    rows[j]'s terms, ascending, and their scores are terms[a:b] and
    scores[a:b] for a, b = bounds[j], bounds[j + 1].
    """

    def __init__(self, tokens: list[str], indptr, ids, rows, bounds, terms, scores):
        self.tokens, self.indptr, self.ids, self.rows = tokens, indptr, ids, rows
        self.bounds, self.terms, self.scores = bounds, terms, scores

    def scores_of(self, j: int) -> SentenceScores:
        """The SentenceScores of row rows[j]."""
        a, b = self.bounds[j], self.bounds[j + 1]
        return SentenceScores._unchecked(self.terms[a:b], self.scores[a:b])


@dataclass(eq=False)
class _PassNegatives:
    """A pass's negatives as columns; no Document is held. Row i is the
    negative of source source_ids[i]: tokens[offsets[i]:offsets[i + 1]],
    flagged unaugmentable[i]. plans, with tfidf replacement, holds the
    columns (rows, bounds, terms, probabilities, forced, replaced, picks,
    hits): row rows[j]'s plan is terms, probabilities and replaced
    [bounds[j]:bounds[j + 1]], forced[j] as an index into terms, and picks
    [hits[j]:hits[j + 1]]. redone maps the rows that augment_sentence
    redid to its sentences, whose tokens are in tokens too. sentences
    builds the AugmentedSentence of every row when it is first read.
    """

    source_ids: list[int]
    tokens: list[str]
    offsets: list[int]
    unaugmentable: list[bool]
    plans: tuple | None
    redone: dict[int, AugmentedSentence]

    def __len__(self):
        return len(self.source_ids)

    @cached_property
    def sentences(self) -> list[AugmentedSentence]:
        """The AugmentedSentence of every row, built on first read."""
        plans = {}
        if self.plans is not None:
            rows, bounds, terms, probabilities, forced, replaced, picks, hits = self.plans
            starts, firsts, hit_starts = bounds.tolist(), (forced - bounds[:-1]).tolist(), hits.tolist()
            for row, a, b, first, c, d in zip(rows.tolist(), starts, starts[1:], firsts, hit_starts, hit_starts[1:]):
                plans[row] = ReplacementPlan(terms[a:b], probabilities[a:b], first, replaced[a:b], picks[c:d])
        tokens, offsets, sentences = self.tokens, self.offsets, []
        for row, (source_id, a, b) in enumerate(zip(self.source_ids, offsets, offsets[1:])):
            sentence = self.redone.get(row)
            if sentence is None:
                plan = plans.get(row)
                sentence = AugmentedSentence(source_id, tokens[a:b], plan, unaugmentable=plan is None)
            sentences.append(sentence)
        return sentences


def _pass_columns(model: TfIdfModel, documents: Sequence[Document]) -> _Pass:
    """A pass's columns: one dict lookup per token, one _score_columns call."""
    tokens = list(chain.from_iterable(document.tokens for document in documents))
    indptr = np.cumsum([0, *(len(document.tokens) for document in documents)])
    ids = model.vocabulary.ids(tokens)
    term_rows, terms, scores = _score_columns(model, indptr, ids)
    lengths = np.bincount(term_rows, minlength=len(documents))
    rows = np.flatnonzero(lengths) if model.m > 1 else np.zeros(0, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(lengths[rows])))
    return _Pass(tokens, indptr, ids, rows, bounds, terms, scores)


def _batch_probabilities(z: np.ndarray, lengths: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """replacement_probabilities in tfidf mode for sentences whose scores
    lie back to back in z, lengths[j] >= 1 of them for sentence j.
    Returns the probabilities, aligned with z, and the index into z of
    each sentence's forced term.

    Minima, maxima and first maxima are segment reductions. The sums are
    not np.add.reduceat, which starts from a segment's first element and
    rounds otherwise than np.mean; one stable argsort groups the sentences
    by length, and each length's (k, n) block sums its rows in np.mean's
    order, so every probability is bit-equal to the per-sentence one.
    """
    starts = np.cumsum(lengths) - lengths
    segment = np.repeat(np.arange(lengths.size), lengths)
    low = np.minimum.reduceat(z, starts)
    high = np.maximum.reduceat(z, starts)
    peaks = np.flatnonzero(z == high[segment])
    forced = peaks[np.searchsorted(peaks, starts)]  # first maximum == lowest term id
    centered = z - low[segment]

    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    # The sentences' entries in that order: each sentence's run moves from
    # its offset in the ordered runs to its start in z.
    gathered = centered[np.arange(z.size) + np.repeat(starts[order] - (np.cumsum(ordered) - ordered), ordered)]
    runs = np.flatnonzero(np.diff(ordered, prepend=0))  # where each length's sentences begin
    sums, offset = [], 0
    for n, k in zip(ordered[runs].tolist(), np.diff(runs, append=ordered.size).tolist()):
        sums.append(np.add.reduce(gathered[offset : offset + n * k].reshape(k, n), axis=1))
        offset += n * k
    means = np.empty(lengths.size)
    means[order] = np.concatenate(sums) / ordered

    probabilities = np.zeros(z.size)
    spread = (high > low)[segment]
    probabilities[spread] = np.minimum(beta * centered[spread] / means[segment[spread]], 1.0)
    probabilities[forced] = 1.0
    return probabilities, forced


def _decision_scan(draws: np.ndarray, probabilities: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The replaced mask over a pass's terms, and the replaced terms' window draws.

    Row j of draws holds sentence j's 2n random() draws, zero-padded. The
    scan steps one term position at a time across the pass, in
    augment_sentence's order: term t reads draw t plus its sentence's hits
    so far, and a hit's window draw is the next one. Padding positions,
    after each sentence's terms, get probability -1 and never hit.
    """
    k, width = draws.shape
    starts = np.cumsum(lengths) - lengths
    segment = np.repeat(np.arange(k), lengths)
    column = np.arange(probabilities.size) - starts[segment]
    padded = np.full((width // 2, k), -1.0)
    padded[column, segment] = probabilities
    flat = draws.ravel()
    cursor = np.arange(0, k * width, width)  # each sentence's row start plus its hits so far
    hits = np.empty(padded.shape, dtype=bool)
    for t in range(padded.shape[0]):
        np.less(flat[t:][cursor], padded[t], out=hits[t])
        cursor += hits[t]
    replaced = hits[column, segment]
    before = np.cumsum(replaced) - replaced  # hits in the pass before each term
    before -= before[starts][segment]  # ... in its own sentence
    return replaced, flat[(segment * width + column + before + 1)[replaced]]


def _rewritten_tokens(model: TfIdfModel, columns: _Pass, replaced_keys: np.ndarray, picks: np.ndarray) -> list[str]:
    """The pass's tokens with each in-vocabulary token whose key
    row * m + term is in replaced_keys (ascending, not empty) rewritten
    to that key's pick, found by one searchsorted. Only the substitutes
    are gathered from the model's term strings; every other token,
    out-of-vocabulary ones included, keeps its input string.
    """
    token_rows = np.repeat(np.arange(columns.indptr.size - 1), np.diff(columns.indptr))
    known = np.flatnonzero(columns.ids >= 0)
    keys = token_rows[known] * model.m + columns.ids[known]
    slot = np.minimum(np.searchsorted(replaced_keys, keys), replaced_keys.size - 1)
    rewritten = replaced_keys[slot] == keys
    tokens = np.array(columns.tokens, dtype=object)
    tokens[known[rewritten]] = model._term_strings[picks[slot[rewritten]]]
    return tokens.tolist()


def _augment_guided(
    model: TfIdfModel, columns: _Pass, config: AugmentationConfig, indices: np.ndarray, positions: np.ndarray
) -> tuple[list[str], tuple, np.ndarray]:
    """augment_sentence with tfidf replacement for every row of
    columns.rows (not empty), each from its _sentence_rngs stream at
    (indices[row], positions[row]).

    Each sentence draws its 2n values into one padded array (random
    selection first draws its forced term with integers(), whose spare
    32-bit half random() leaves alone). _decision_scan, one _window_picks
    call and _rewritten_tokens do the rest on columns. Returns the pass's
    tokens with the substitutes written in, the plan columns of
    _PassNegatives, and the ascending indices j into columns.rows of the
    sentences with a zero-mass window, which augment_sentence must redo
    from a fresh copy of their streams, since its uniform fallback draws
    integers().
    """
    rows, bounds, terms = columns.rows, columns.bounds, columns.terms
    lengths = np.diff(bounds)
    draws = np.zeros((rows.size, 2 * int(lengths.max())))
    random_selection = config.selection_mode == MODE_RANDOM
    forced = np.empty(rows.size, dtype=np.int64)
    rngs = _sentence_rngs(config.seed, indices[rows], positions[rows])
    for j, (rng, n) in enumerate(zip(rngs, lengths.tolist())):
        if random_selection:
            forced[j] = rng.integers(n)
        rng.random(out=draws[j, : 2 * n])
    if random_selection:
        forced += bounds[:-1]
        probabilities = np.full(terms.size, config.beta)
        probabilities[forced] = 1.0
    else:
        probabilities, forced = _batch_probabilities(columns.scores, lengths, config.beta)
    replaced, window_draws = _decision_scan(draws, probabilities, lengths)

    picked = np.flatnonzero(replaced)
    picks, zero_mass = _window_picks(model, terms[picked], window_draws, config.radius)
    sentence = np.repeat(np.arange(rows.size), lengths)[picked]
    tokens = _rewritten_tokens(model, columns, rows[sentence] * model.m + terms[picked], picks)
    hits = np.searchsorted(sentence, np.arange(rows.size + 1))
    plans = (rows, bounds, terms, probabilities, forced, replaced, picks, hits)
    # Not np.unique: its first call in a process maps about 1 MB more of numpy's code.
    return tokens, plans, np.flatnonzero(np.bincount(sentence[zero_mass], minlength=rows.size))


def _augment_pass(
    model: TfIdfModel, indices: list[int], positions: list[int], documents: list[Document], config: AugmentationConfig
) -> _PassNegatives:
    """The negatives of a pass, whose row i is documents[i], at position
    positions[i] of batch indices[i]. Rows with no in-vocabulary terms,
    and every row when the vocabulary has a single term, are unaugmentable
    and draw nothing; the others draw from their _sentence_rngs streams,
    through _augment_guided or, with random replacement, one
    augment_sentence call each.
    """
    columns = _pass_columns(model, documents)
    indices, positions, rows = np.array(indices), np.array(positions), columns.rows
    if config.replacement_mode == MODE_TFIDF and rows.size:
        tokens, plans, redo = _augment_guided(model, columns, config, indices, positions)
    else:
        tokens, plans, redo = columns.tokens, None, np.arange(rows.size)
    offsets, redone = columns.indptr.tolist(), {}
    redo_rows = rows[redo]
    rngs = _sentence_rngs(config.seed, indices[redo_rows], positions[redo_rows])
    for j, row, rng in zip(redo.tolist(), redo_rows.tolist(), rngs):
        sentence = redone[row] = augment_sentence(model, documents[row], columns.scores_of(j), config, rng)
        tokens[offsets[row] : offsets[row + 1]] = sentence.tokens
    unaugmentable = np.ones(len(documents), dtype=bool)
    unaugmentable[rows] = False
    source_ids = [document.doc_id for document in documents]
    return _PassNegatives(source_ids, tokens, offsets, unaugmentable.tolist(), plans, redone)


def _pass_negatives(
    model: TfIdfModel, batches: Iterable[tuple[int, Sequence[Document]]], config: AugmentationConfig
) -> Iterator[_PassNegatives]:
    """The negatives of the sentences of the (batch index, documents)
    pairs, in input order, one _PassNegatives per pass.

    A pass takes sentences in order while its rows times 2 * (most tokens
    in one of its rows, at least 1) stay within _PASS_CELLS. A row has no
    more distinct terms than tokens, so that bounds the cells of the
    pass's padded draw array, its widest column; a sentence over the
    budget goes alone.

    Pairs are read one at a time, as the pass being filled takes them: a
    pass is yielded when the sentence after it would break its budget, so
    the look-ahead is the pair holding that sentence. While a pass is
    handed out, its documents and that pair's are held, no others.
    """
    indices, positions, documents, widest = [], [], [], 1
    for batch_index, batch in batches:
        width = max(widest, *(len(document.tokens) for document in batch))
        if 2 * width * (len(documents) + len(batch)) <= _PASS_CELLS:  # the whole batch fits, so each prefix does
            indices += [batch_index] * len(batch)
            positions += range(len(batch))
            documents += batch
            widest = width
            continue
        for position, document in enumerate(batch):
            width = max(widest, len(document.tokens))
            if documents and 2 * width * (len(documents) + 1) > _PASS_CELLS:
                yield _augment_pass(model, indices, positions, documents, config)
                indices, positions, documents, width = [], [], [], max(1, len(document.tokens))
            indices.append(batch_index)
            positions.append(position)
            documents.append(document)
            widest = width
    if documents:
        yield _augment_pass(model, indices, positions, documents, config)


def augment_batch(
    model: TfIdfModel,
    documents: Sequence[Document],
    config: AugmentationConfig,
    batch_index: int,
    *,
    _runs: list[tuple[_PassNegatives, int, int]] | None = None,
) -> NegativeBatch | None:
    """Augment one training batch if it falls on the injection schedule.

    Batches are numbered from 1; negatives are produced for batch indices
    that are multiples of alpha and the result has exactly one augmented
    sentence per input document. Off-schedule batches yield None. The
    output equals augment_sentence with each sentence's sentence_rng.

    The batch is augmented in passes (_pass_negatives): one, unless a
    long line splits it. _negative_batches hands in _runs, the batch's
    rows in the passes that it augmented across batches, so that every
    batch it yields is still returned by a call of this function.
    """
    if not documents:
        raise ValueError("batch must be non-empty")
    if batch_index < 1:
        raise ValueError(f"batch_index is 1-based, got {batch_index}")
    if batch_index % config.alpha != 0:
        return None
    if _runs is None:
        passes = _pass_negatives(model, [(batch_index, documents)], config)
        _runs = [(negatives, 0, len(negatives)) for negatives in passes]
    return NegativeBatch(batch_index, _runs)


def _negative_batches(
    model: TfIdfModel, scheduled: Iterable[tuple[int, list[Document]]], config: AugmentationConfig
) -> Iterator[NegativeBatch]:
    """augment_batch of each (batch index, documents) pair, all on
    schedule, with the batches augmented in passes that may split and span
    them (_pass_negatives).

    The look-ahead is the deque of pairs that _pass_negatives has read and
    whose batch is not yet yielded: the batches of the pass being handed
    out and the one that closed it.
    """
    ahead: deque[tuple[int, list[Document]]] = deque()

    def read() -> Iterator[tuple[int, list[Document]]]:
        for pair in scheduled:
            ahead.append(pair)
            yield pair

    runs, need = [], 0
    for negatives in _pass_negatives(model, read(), config):
        start = 0
        while start < len(negatives):
            if not need:  # a batch's first row comes only after _pass_negatives has read it
                batch_index, batch = ahead.popleft()
                need = len(batch)
            stop = min(len(negatives), start + need)
            runs.append((negatives, start, stop))
            need -= stop - start
            start = stop
            if not need:
                yield augment_batch(model, batch, config, batch_index, _runs=runs)
                runs = []


def iter_negative_batches(
    model: TfIdfModel,
    documents: Iterable[Document],
    config: AugmentationConfig,
    batch_size: int,
) -> Iterator[NegativeBatch]:
    """Partition documents into batches and yield negatives on schedule.

    The on-schedule batches are augmented in passes that may split and
    span them (_negative_batches), and documents are read only as the
    passes need them: about a pass and a batch of documents are held at
    once, however long the input. Off-schedule batches are dropped as
    they are read.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    documents = iter(documents)
    # islice takes at most sys.maxsize items, more than any batch holds.
    batches = iter(lambda: list(islice(documents, min(batch_size, sys.maxsize))), [])
    scheduled = ((index, batch) for index, batch in enumerate(batches, 1) if index % config.alpha == 0)
    yield from _negative_batches(model, scheduled, config)
