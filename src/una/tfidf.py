"""TF-IDF fitting, sentence scoring, and model (de)serialization.

The fitted model keeps three things per term: its inverse document
frequency, the maximum tf-idf score it reaches in any document, and the
rank of that maximum among all terms. The full documents-by-terms score
matrix is never materialized; sentence vectors are recomputed on demand
from the idf values and the sentence's own term counts. One function,
_row_tfs, counts the terms of fit and of batch scoring alike.

A batch is scored as a Corpus holds it, token ids (-1 out of
vocabulary) with row offsets: _score_columns returns (row, term, score)
columns, which guided augmentation uses directly and sentence_scores
slices into one SentenceScores per sentence.

Conventions fixed here (they must match the serialized files and the test
oracles): natural logarithms everywhere, tf(c, n) = log(1 + c/n),
idf(df, N) = -log(df / N), rank ties broken by ascending term id. Both
logarithms are taken with math.log1p and math.log, one value at a time:
numpy's np.log1p and np.log differ from them in the last place for about
1% of arguments, which would change the model bytes.

Scores repeat heavily: idf depends on a term's document frequency alone,
and tf on a ratio c/n of small counts. So each conversion runs once per
distinct value and is gathered back: the logarithms per distinct c/n and
df, save_model's repr per distinct bit pattern, and load_model's float()
per distinct score text of a chunk.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, Vocabulary, _line_runs, tokenize

# [0-9], not \d: \d also matches non-ASCII digits such as "٣", which int() reads.
_HEADER_RE = re.compile(r"^UNA-TFIDF v1 N=([0-9]+) m=([0-9]+)$")

# Term lines as save_model writes them, joined by newlines: a term with
# alphanumeric ends ([^\W_] is str.isalnum()) and no whitespace, then two
# score texts of [0-9.e+-], which float() and array checks finish. The
# pattern is compiled on first use (re caches it), not at import.
_TERM_LINE = r"[^\W_]\S*(?<=[^\W_])\t[0-9.e+-]+\t[0-9.e+-]+"
_TERM_SECTION = rf"{_TERM_LINE}(?:\n{_TERM_LINE})*"

# Term lines that load_model reads from the file, splits, parses (each
# distinct score text once) or whose score texts it checks, at once: enough
# to keep the work off each field, few enough that holding them, and the
# chunk's text-to-float memo, costs little.
_SCORE_CHECK_LINES = 1024

# Characters of the rank section that load_model splits into ids at once.
_RANK_PIECE_CHARS = 1 << 14

# Rank ids that save_model converts to text and writes at once.
_RANK_WRITE_IDS = 1024

# Documents per chunk of fit: large enough that numpy's per-call cost is
# spread over ~50k tokens, small enough that the chunk's arrays stay a few MB.
_FIT_CHUNK_DOCS = 4096


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed; carries the line number."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}")


class TfIdfModel:
    """Fitted corpus statistics: per-term idf, max score, and score ranks."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        n_docs: int,
        idf_values: Sequence[float],
        max_score: Sequence[float],
        rank_by_score: Sequence[int] | None = None,
    ):
        self.vocabulary = vocabulary
        self.n_docs = int(n_docs)
        self.idf = np.asarray(idf_values, dtype=np.float64)
        self.max_score = np.asarray(max_score, dtype=np.float64)
        if self.idf.shape != (len(vocabulary),) or self.max_score.shape != self.idf.shape:
            raise ValueError("idf and max_score must have one entry per vocabulary term")
        if rank_by_score is None:
            rank_by_score = rank_terms_by_score(self.max_score)
        self.rank_by_score = np.asarray(rank_by_score, dtype=np.int64)
        self._rank_of = np.empty(self.m, dtype=np.int64)
        self._rank_of[self.rank_by_score] = np.arange(self.m)
        # score_prefix[k] is the summed max_score of the k lowest-ranked
        # terms, so any rank range's total score is one difference. Ranks
        # ascend by score, so each term's score is at least 1/k of the sum
        # before it and no positive score is lost to rounding.
        self.score_prefix = np.concatenate(([0.0], np.cumsum(self.max_score[self.rank_by_score])))

    @property
    def m(self) -> int:
        """Vocabulary size."""
        return len(self.vocabulary)

    @cached_property
    def _term_strings(self) -> np.ndarray:
        """The vocabulary's terms as an object array indexed by term id."""
        return np.array(self.vocabulary.terms, dtype=object)

    def rank_of(self, term_id: int) -> int:
        """Position of a term in the ascending max-score order."""
        if not 0 <= term_id < self.m:
            raise ValueError(f"unknown term id {term_id}")
        return int(self._rank_of[term_id])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TfIdfModel):
            return NotImplemented
        return (
            self.vocabulary == other.vocabulary
            and self.n_docs == other.n_docs
            and np.array_equal(self.idf, other.idf)
            and np.array_equal(self.max_score, other.max_score)
            and np.array_equal(self.rank_by_score, other.rank_by_score)
        )

    def __repr__(self) -> str:
        return f"TfIdfModel(N={self.n_docs}, m={self.m})"


def rank_terms_by_score(max_score: np.ndarray) -> np.ndarray:
    """Term ids sorted by (max_score, term id) ascending.

    The id tie-break keeps the order identical across runs and platforms.
    """
    scores = np.asarray(max_score, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), scores)).astype(np.int64)


def _row_tfs(indptr: np.ndarray, term_ids: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """(row, term, tf) for every distinct term of every row, ascending by (row, term).

    Rows lie back to back in term_ids (ids in [0, m)), their lengths n are
    indptr's differences, and tf = log(1 + c/n) for each count c.
    """
    lengths = np.diff(indptr)
    rows = np.repeat(np.arange(lengths.size), lengths)
    keys, counts = np.unique(rows * m + term_ids, return_counts=True)
    rows, terms = np.divmod(keys, m)
    # Sentences are short, so the ratios c/n take few distinct values
    # and math.log1p (see the module docstring) runs once per value.
    ratios, inverse = np.unique(counts / lengths[rows], return_inverse=True)
    tfs = np.array([math.log1p(ratio) for ratio in ratios.tolist()])[inverse]
    return rows, terms, tfs


def fit(corpus: Corpus) -> TfIdfModel:
    """Fit idf and per-term maximum tf-idf scores over a corpus.

    Documents are counted _FIT_CHUNK_DOCS rows at a time, so temporary
    memory is bounded by the chunk, not the corpus. A chunk is one slice of
    the corpus's term ids; _row_tfs gives each (document, term) tf, which
    adds to the document frequencies and raises each term's largest tf.
    max_score is that tf times idf, which equals the largest tf * idf
    because idf >= 0 and rounded products are monotone. Vocabulary terms
    that occur in no document (possible only with a hand-built corpus)
    score zero.
    """
    if corpus.n_docs == 0:
        raise ValueError("cannot fit a TF-IDF model on an empty corpus")
    m = len(corpus.vocabulary)
    n_docs = corpus.n_docs
    doc_freq = np.zeros(m, dtype=np.int64)
    max_tf = np.zeros(m, dtype=np.float64)
    for start in range(0, n_docs, _FIT_CHUNK_DOCS):
        bounds = corpus.indptr[start : start + _FIT_CHUNK_DOCS + 1]
        _, terms, tfs = _row_tfs(bounds, corpus.term_ids[bounds[0] : bounds[-1]], m)
        doc_freq += np.bincount(terms, minlength=m)
        np.maximum.at(max_tf, terms, tfs)

    # Terms share few distinct document frequencies, so math.log runs once
    # for each. The +0.0 turns the -0.0 of a term in every document into a
    # plain 0.0 so serialization stays tidy.
    dfs, inverse = np.unique(doc_freq, return_inverse=True)
    idf_values = np.array([-math.log(df / n_docs) + 0.0 if df else 0.0 for df in dfs.tolist()])[inverse]
    return TfIdfModel(corpus.vocabulary, n_docs, idf_values, max_tf * idf_values)


@dataclass
class SentenceScores:
    """Sentence-restricted tf-idf vector over its distinct in-vocab terms.

    term_ids are strictly increasing, which makes "first maximum" the same
    thing as "maximum with lowest term id" for every argmax taken later.
    """

    term_ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.term_ids = np.asarray(self.term_ids, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.term_ids.shape != self.scores.shape or self.term_ids.ndim != 1:
            raise ValueError("term_ids and scores must be parallel 1-D arrays")
        if self.term_ids.size > 1 and not np.all(np.diff(self.term_ids) > 0):
            raise ValueError("term_ids must be strictly increasing")

    @classmethod
    def _unchecked(cls, term_ids: np.ndarray, scores: np.ndarray) -> "SentenceScores":
        """Wrap arrays already known to pass __post_init__: parallel 1-D
        int64 and float64 arrays with strictly increasing term ids."""
        result = cls.__new__(cls)
        result.term_ids, result.scores = term_ids, scores
        return result

    @property
    def n_terms(self) -> int:
        return int(self.term_ids.size)


def _score_columns(model: TfIdfModel, indptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, term, score) for every distinct in-vocabulary term of every
    row, ascending by (row, term). Row i is ids[indptr[i]:indptr[i + 1]];
    its -1 ids (out of vocabulary) count neither as terms nor toward n.
    """
    known = ids >= 0
    bounds = np.concatenate(([0], np.cumsum(known)))[indptr]
    rows, terms, tfs = _row_tfs(bounds, ids[known], model.m)
    return rows, terms, tfs * model.idf[terms]


def sentence_scores(model: TfIdfModel, sentences: Sequence[Iterable[str]]) -> list[SentenceScores]:
    """Score each token list of a batch against the fitted model.

    Only in-vocabulary tokens are counted; out-of-vocabulary tokens
    contribute neither to the sentence length used by tf nor to the
    returned terms. A sentence with no known tokens yields an empty vector.
    Each result is one sentence's slice of the batch's _score_columns.
    """
    sentences = [list(tokens) for tokens in sentences]
    indptr = np.cumsum([0, *map(len, sentences)])
    rows, terms, scores = _score_columns(model, indptr, model.vocabulary.ids(list(chain.from_iterable(sentences))))
    # Entries ascend by (row, term), so each sentence is one slice that
    # already passes the checks of a directly built SentenceScores.
    bounds = np.searchsorted(rows, np.arange(indptr.size)).tolist()
    return [SentenceScores._unchecked(terms[a:b], scores[a:b]) for a, b in zip(bounds, bounds[1:])]


def _reprs(values: np.ndarray) -> np.ndarray:
    """repr of each float64 of values, as an object array that holds one
    str per distinct bit pattern: -0.0 and 0.0 (and NaNs with different
    payloads) each keep their own text."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    return np.array([repr(value) for value in bits.view(np.float64).tolist()], dtype=object)[inverse]


def save_model(model: TfIdfModel, sink) -> None:
    """Write a model as UTF-8 text; reals use shortest round-trip decimals."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="\n") as handle:
            save_model(model, handle)
        return
    sink.write(f"UNA-TFIDF v1 N={model.n_docs} m={model.m}\n")
    # Each distinct score is converted once, and its text is shared by
    # every term that has it, so the columns add m pointers each, not m
    # objects (a float and a str per value).
    sink.writelines(
        f"{term}\t{idf}\t{max_score}\n"
        for term, idf, max_score in zip(model.vocabulary, _reprs(model.idf), _reprs(model.max_score))
    )
    sink.write("ranks:\n")
    ranks = model.rank_by_score
    for start in range(0, ranks.size, _RANK_WRITE_IDS):
        sink.write((" " if start else "") + " ".join(map(str, ranks[start : start + _RANK_WRITE_IDS].tolist())))
    sink.write("\n")


def _parse_score(value: str, line_number: int, label: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ModelFormatError(line_number, f"bad {label} value {value!r}") from None
    if not math.isfinite(parsed) or parsed < 0:
        raise ModelFormatError(line_number, f"{label} must be finite and >= 0, got {value}")
    return parsed


def _plain_score_text(text: str) -> bool:
    """Whether text is ASCII and holds no underscore or whitespace.

    float() also reads "1_0", " 0.25 " and non-ASCII digits, which
    save_model would write back differently.
    """
    return text.isascii() and "_" not in text and text.split() == [text]


def _check_score_texts(score_texts: list[str], first_line_number: int) -> None:
    """Reject the first text that float() read but that is not plain.

    score_texts holds the idf and max_score texts of consecutive lines in
    turn. One check covers them all joined; only when it fails are they
    scanned one by one to name the line.
    """
    if _plain_score_text("".join(score_texts)):
        return
    for index, text in enumerate(score_texts):
        if not _plain_score_text(text):
            label = ("idf", "max_score")[index % 2]
            raise ModelFormatError(first_line_number + index // 2, f"bad {label} value {text!r}")


def _term_columns(text: str, ids: dict[str, int]) -> tuple[list[str], np.ndarray, np.ndarray] | None:
    """A chunk of term lines, joined by newlines, as (terms, idf, max_score)
    if the regex gate and array checks accept every line, else None.

    Lowercase lines that _TERM_SECTION matches hold terms that tokenize
    to themselves and plain score texts; left to check are scores that
    float() rejects or reads as negative or infinite, and terms that
    repeat one of ids (the terms before the chunk) or of the chunk. The
    chunk's terms are added to ids, some of them even when a repeat
    gives None.
    """
    if re.fullmatch(_TERM_SECTION, text) is None or text.lower() != text:
        return None
    cells = text.replace("\n", "\t").split("\t")
    terms, idf_texts, score_texts = cells[0::3], cells[1::3], cells[2::3]
    # Each distinct score text of the chunk is parsed once.
    distinct = {*idf_texts, *score_texts}
    try:
        parsed = dict(zip(distinct, map(float, distinct)))
    except ValueError:
        return None
    idf_values = np.fromiter(map(parsed.__getitem__, idf_texts), np.float64, len(terms))
    max_score = np.fromiter(map(parsed.__getitem__, score_texts), np.float64, len(terms))
    if not all(np.isfinite(s).all() and (s >= 0).all() for s in (idf_values, max_score)):
        return None
    first = len(ids)
    ids.update(zip(terms, range(first, first + len(terms))))
    if len(ids) != first + len(terms):
        return None
    return terms, idf_values, max_score


def _scan_terms(term_lines: list[str], ids: dict[str, int]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """A chunk of term lines checked line by line: it raises on
    the first bad line, naming what _term_columns rejects, and accepts
    terms such as "+" that tokenize to themselves without alphanumeric
    ends. ids holds the terms before the chunk and gains its terms; the
    score texts are checked to be plain once every line has passed."""
    first, m = len(ids), len(term_lines)
    terms = []
    idf_values = np.zeros(m, dtype=np.float64)
    max_score = np.zeros(m, dtype=np.float64)
    score_texts = []
    for index, line in enumerate(term_lines):
        line_number = 2 + first + index
        fields = line.split("\t")
        if len(fields) != 3:
            raise ModelFormatError(line_number, f"expected 3 tab-separated fields, got {len(fields)}")
        term, idf_text, score_text = fields
        # Augmented sentences are written as space-joined terms, so each term
        # must read back as exactly itself. A lowercase alphanumeric term
        # does: tokenize keeps a piece with alphanumeric ends whole, and no
        # alphanumeric character is whitespace.
        if not (term.isalnum() and term.lower() == term) and tokenize(term) != [term]:
            raise ModelFormatError(line_number, f"term {term!r} is not a single token")
        if term in ids:
            raise ModelFormatError(line_number, f"duplicate term {term!r}")
        ids[term] = first + index
        terms.append(term)
        idf_values[index] = _parse_score(idf_text, line_number, "idf")
        max_score[index] = _parse_score(score_text, line_number, "max_score")
        score_texts += idf_text, score_text
    _check_score_texts(score_texts, 2 + first)
    return terms, idf_values, max_score


def _rank_ids(rank_text: str, max_score: np.ndarray) -> np.ndarray | None:
    """The rank section's ids if they pass every check of _scan_rank_ids, else None.

    The checks run on arrays: there are m tokens, all ASCII digits, each id
    is below m, and (max_score, id) ascends strictly. Strict ascent admits
    no id twice, so the ids are then each id below m once. An id too large
    for int64 also gives None. The text is split _RANK_PIECE_CHARS
    characters at a time, each piece ending at whitespace, so that few
    id strings are alive at once.
    """
    m = max_score.size
    ids = np.empty(m, dtype=np.int64)
    count = start = 0
    while start < len(rank_text):
        space = re.compile(r"\s").search(rank_text, start + _RANK_PIECE_CHARS)
        end = space.start() if space else len(rank_text)
        tokens = rank_text[start:end].split()
        start = end
        if count + len(tokens) > m:
            return None
        digits = "".join(tokens)
        if tokens and not (digits.isascii() and digits.isdigit()):
            return None
        try:
            ids[count : count + len(tokens)] = np.array(tokens, dtype=np.int64)
        except OverflowError:
            return None
        count += len(tokens)
    if count != m:
        return None
    if m == 0:
        return ids
    if ids.max() >= m:
        return None
    score_steps = np.diff(max_score[ids])
    if not np.all((score_steps > 0) | ((score_steps == 0) & (np.diff(ids) > 0))):
        return None
    return ids


def _scan_rank_ids(rank_lines: list[str], first_line_number: int, max_score: np.ndarray) -> np.ndarray:
    """The rank section's ids, checked one at a time; raises on the first bad one."""
    m = max_score.size
    rank_ids: list[int] = []
    seen = np.zeros(m, dtype=bool)
    previous_score, previous_id = -math.inf, -1
    for line_number, line in enumerate(rank_lines, start=first_line_number):
        for token in line.split():
            # isdigit() alone admits non-ASCII digits such as "²" that int() rejects
            if not (token.isascii() and token.isdigit()):
                raise ModelFormatError(line_number, f"bad term id {token!r} in rank section")
            term_id = int(token)
            if term_id >= m:
                raise ModelFormatError(line_number, f"term id {term_id} out of range [0, {m})")
            if seen[term_id]:
                raise ModelFormatError(line_number, f"duplicated id {term_id} in rank section")
            seen[term_id] = True
            score = float(max_score[term_id])
            # ids are distinct here, so this is rank_terms_by_score's order
            if (score, term_id) < (previous_score, previous_id):
                raise ModelFormatError(
                    line_number,
                    f"non-monotone rank section: term {term_id} breaks the (score, id) order",
                )
            previous_score, previous_id = score, term_id
            rank_ids.append(term_id)
    if len(rank_ids) != m:
        raise ModelFormatError(
            first_line_number + len(rank_lines) - 1, f"rank section lists {len(rank_ids)} ids, expected {m}"
        )
    return np.array(rank_ids, dtype=np.int64)


def _truncated(line_count: int) -> ModelFormatError:
    return ModelFormatError(line_count + 1, "truncated file: missing term or rank lines")


def _read_terms(lines: Iterator[str], m: int) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """The term section, the next m lines, as (vocabulary, idf, max_score).

    It is read _SCORE_CHECK_LINES lines at a time, so that one chunk's
    text is held beside the kept terms and scores, not the section's:
    _term_columns reads a chunk, and only a chunk that it rejects is
    scanned line by line. Before a chunk's error is raised the rest of the
    file is counted, so that a file too short for its m term lines and
    rank header is reported as truncated, whatever its term lines hold.
    """
    terms, ids = [], {}
    idf_parts, score_parts = [np.zeros(0)], [np.zeros(0)]
    for start in range(0, m, _SCORE_CHECK_LINES):
        size = min(_SCORE_CHECK_LINES, m - start)
        chunk = list(islice(lines, size))
        line_count = 1 + start + len(chunk)
        if len(chunk) < size:
            raise _truncated(line_count)
        columns = _term_columns("\n".join(chunk), ids)
        if columns is None:
            ids = dict(zip(terms, range(start)))  # without the rejected chunk's terms
            try:
                columns = _scan_terms(chunk, ids)
            except ModelFormatError:
                line_count += sum(1 for _ in lines)
                if line_count < m + 2:
                    raise _truncated(line_count) from None
                raise
        terms += columns[0]
        idf_parts.append(columns[1])
        score_parts.append(columns[2])
    return Vocabulary._of_distinct(terms, ids), np.concatenate(idf_parts), np.concatenate(score_parts)


def load_model(source) -> TfIdfModel:
    """Parse a model file produced by save_model; inverse up to float repr.

    source is a path, a binary or text stream, or an iterable of str or
    bytes chunks (an iterable of lines keeps their newlines), read as
    _iter_raw_lines reads every input: invalid UTF-8 raises
    CorpusDecodeError. The lines are taken from its runs without their
    numbers, which each section counts itself. The term section is read
    in chunks (_read_terms), the rank section whole.
    """
    lines = chain.from_iterable(_line_runs(source))
    header_line = next(lines, None)
    if header_line is None:
        raise ModelFormatError(1, "empty model file")
    header = _HEADER_RE.match(header_line)
    if header is None:
        raise ModelFormatError(1, f"bad header {header_line!r} (expected 'UNA-TFIDF v1 N=<int> m=<int>')")
    n_docs, m = int(header.group(1)), int(header.group(2))
    if n_docs < 1:
        raise ModelFormatError(1, f"N must be >= 1, got {n_docs}")

    vocabulary, idf_values, max_score = _read_terms(lines, m)
    ranks_line = next(lines, None)
    if ranks_line is None:
        raise _truncated(1 + m)
    if ranks_line != "ranks:":
        raise ModelFormatError(m + 2, f"expected 'ranks:' section, got {ranks_line!r}")

    rank_lines = list(lines)
    rank_ids = _rank_ids("\n".join(rank_lines), max_score)
    if rank_ids is None:
        rank_ids = _scan_rank_ids(rank_lines, m + 3, max_score)
    return TfIdfModel(vocabulary, n_docs, idf_values, max_score, rank_ids)
