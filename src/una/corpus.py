"""Sentence corpus loading, tokenization, and the term vocabulary.

_iter_raw_lines reads every input file (corpus, augment input, pairs,
model, --config) as UTF-8 lines that end at a line feed, less trailing
carriage returns; invalid UTF-8 raises CorpusDecodeError, which names
the line and the byte offset in the file.

A corpus file holds one sentence per line. Tokenization is deliberately
minimal: split on whitespace, trim surrounding punctuation, lowercase.
Interior punctuation (hyphens, apostrophes) is kept so tokens like
"x-45c" survive intact.

load_corpus does not tokenize line by line: it works one read run of
lines at a time, lowercasing and splitting each line, and maps the run's
whitespace pieces straight to term ids, in one pass, through a piece
table that trims a piece once, on its first lookup, and maps a piece
that trims to nothing to -1, which is then dropped from the id column in
place. Pieces repeat far more often than they are new, so most pieces
cost one dict lookup.
"""

from __future__ import annotations

import io
import logging
import unicodedata
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)


class CorpusDecodeError(ValueError):
    """Raised when an input file is not valid UTF-8."""

    def __init__(self, line_number: int, byte_offset: int, reason: str):
        self.line_number = line_number
        self.byte_offset = byte_offset
        super().__init__(f"invalid UTF-8 at byte {byte_offset} (line {line_number}): {reason}")


class PairsFormatError(ValueError):
    """Raised when a pairs TSV line cannot be used; carries the line number."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}")


# The ASCII characters of category P*: _trim_punctuation strips them in C,
# and looks categories up only when an end of what remains is not ASCII.
_ASCII_PUNCTUATION = "!\"#%&'()*,-./:;?@[\\]_{}"


def _trim_punctuation(piece: str) -> str:
    """Strip leading and trailing Unicode punctuation (category P*)."""
    piece = piece.strip(_ASCII_PUNCTUATION)
    if not piece or (piece[0].isascii() and piece[-1].isascii()):
        return piece
    start, end = 0, len(piece)
    while start < end and unicodedata.category(piece[start])[0] == "P":
        start += 1
    while end > start and unicodedata.category(piece[end - 1])[0] == "P":
        end -= 1
    return piece[start:end]


def tokenize(text: str) -> list[str]:
    """Split text into lowercase terms.

    Splits on Unicode whitespace, trims surrounding punctuation from each
    piece, lowercases, and drops pieces that end up empty. Order and
    duplicates are preserved. Idempotent on its own output.

    The whole line is lowercased before it is split, and a piece that
    begins and ends with an alphanumeric character is kept without
    trimming. Both steps give the same tokens as trimming and lowercasing
    each piece, because str.lower never creates or changes whitespace or
    punctuation (category P*), final-sigma context never crosses
    whitespace, and no alphanumeric character is punctuation
    (tests/test_corpus.py checks all three on every code point).
    """
    tokens = []
    for piece in text.lower().split():
        if not (piece[0].isalnum() and piece[-1].isalnum()):
            piece = _trim_punctuation(piece)
            if not piece:
                continue
        tokens.append(piece)
    return tokens


class Vocabulary:
    """Bijective term <-> id mapping with dense ids in first-seen order."""

    def __init__(self, terms: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._terms: list[str] = []
        for term in terms:
            self.add(term)

    def add(self, term: str) -> int:
        """Insert a term if new; return its id either way."""
        term_id = self._ids.get(term)
        if term_id is None:
            term_id = len(self._terms)
            self._ids[term] = term_id
            self._terms.append(term)
        return term_id

    @classmethod
    def _of_distinct(cls, terms: list[str], ids: dict[str, int] | None = None) -> "Vocabulary | None":
        """The vocabulary of terms in order, or None if a term repeats;
        terms is kept, not copied, and so is ids if given, which must be
        dict(zip(terms, range(len(terms))))."""
        if ids is None:
            ids = dict(zip(terms, range(len(terms))))
        if len(ids) != len(terms):
            return None
        vocabulary = cls()
        vocabulary._terms, vocabulary._ids = terms, ids
        return vocabulary

    def get(self, term: str) -> int | None:
        return self._ids.get(term)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        """The int64 id of each token, -1 for a token not in the
        vocabulary: one dict lookup per token."""
        return np.fromiter(map(self._ids.get, tokens, repeat(-1)), dtype=np.int64, count=len(tokens))

    def term(self, term_id: int) -> str:
        if not 0 <= term_id < len(self._terms):
            raise IndexError(f"term id {term_id} out of range [0, {len(self._terms)})")
        return self._terms[term_id]

    @property
    def terms(self) -> list[str]:
        """All terms in id order (a copy)."""
        return list(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._ids

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} terms)"


@dataclass
class Document:
    """One sentence to augment: its id and its tokens."""

    doc_id: int
    tokens: list[str]

    @classmethod
    def from_text(cls, doc_id: int, raw: str) -> "Document":
        return cls(doc_id, tokenize(raw))


@dataclass
class Corpus:
    """Documents as rows of int64 vocabulary ids: row i is term_ids[indptr[i]:indptr[i + 1]]."""

    vocabulary: Vocabulary
    indptr: np.ndarray
    term_ids: np.ndarray

    def __post_init__(self):
        try:
            indptr = self.indptr = np.asarray(self.indptr, dtype=np.int64)
            term_ids = self.term_ids = np.asarray(self.term_ids, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"corpus offsets and term ids must fit in int64: {exc}") from None
        if (
            indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0
            or indptr[-1] != term_ids.size or np.any(np.diff(indptr) < 0)
        ):
            raise ValueError("indptr must be non-decreasing row offsets from 0 to len(term_ids)")
        m = len(self.vocabulary)
        if term_ids.ndim != 1 or (term_ids.size and not 0 <= term_ids.min() <= term_ids.max() < m):
            raise ValueError(f"term_ids must be a 1-D array of ids in [0, {m})")

    @property
    def n_docs(self) -> int:
        return self.indptr.size - 1

    def __len__(self) -> int:
        return self.n_docs


# Bytes read from a path or binary file at a time. Larger blocks read the
# fit benchmark's input no faster, and 64 KiB raised its peak RSS by 9-10 MB.
_READ_BYTES = 1 << 14


def _split_lines(block, number: int, offset: int) -> list[str]:
    """The lines of a block, decoded if it is bytes and split on line feeds,
    without the carriage returns that end them; number and offset count
    the lines and bytes before the block, to place a decode error."""
    if isinstance(block, bytes):
        try:
            block = block.decode("utf-8")
        except UnicodeDecodeError:
            # A newline is never part of a UTF-8 sequence, so the error is
            # that of the first line that fails alone; a sequence cut short
            # by its newline is then "unexpected end of data".
            for number, line in enumerate(block.split(b"\n"), start=number + 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorpusDecodeError(number, offset + exc.start, exc.reason) from exc
                offset += len(line) + 1
    lines = block.split("\n")
    if "\r" in block:
        lines = [line.rstrip("\r") for line in lines]
    return lines


def _iter_raw_lines(source) -> Iterator[tuple[int, str]]:
    """Yield (line_number, text) for each line of a path, a binary file
    (io.BufferedIOBase), or another iterable of str or bytes chunks, such
    as a text stream, whose chunks are its lines.

    A path or binary file is read _READ_BYTES at a time. Each run of
    complete lines in a chunk, together with the unterminated tail of the
    chunks before it, is decoded once and split on line feeds; a decode
    failure raises CorpusDecodeError with the line and byte offset that
    decoding each line alone gives. Text excludes the line feed and the
    carriage returns before it; an unterminated last line that is empty
    without them is no line. Runs are chained and numbered in C.
    """
    return enumerate(chain.from_iterable(_line_runs(source)), start=1)


def _line_runs(source) -> Iterator[list[str]]:
    """The lines of _iter_raw_lines, one list per run."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from _line_runs(handle)
        return
    if isinstance(source, io.BufferedIOBase):
        source = iter(partial(source.read, _READ_BYTES), b"")
    number = offset = 0
    # The unterminated tail so far, joined once its newline or the end comes,
    # so a line that spans many chunks is copied once.
    pending = []
    for chunk in source:
        end = chunk.rfind(b"\n" if isinstance(chunk, bytes) else "\n")
        if end < 0:
            pending.append(chunk)
            continue
        pending.append(chunk[:end])
        block = chunk[:0].join(pending)
        pending = [chunk[end + 1:]] if end + 1 < len(chunk) else []
        lines = _split_lines(block, number, offset)
        yield lines
        number += len(lines)
        offset += len(block) + 1
    if pending:
        lines = _split_lines(pending[0][:0].join(pending), number, offset)
        if lines != [""]:
            yield lines


def _nonblank_lines(source) -> Iterator[tuple[int, str]]:
    """Yield (line_number, text) for each non-empty line of _iter_raw_lines;
    the blank lines are counted in one warning once the input is exhausted,
    so a reader that stops or raises part-way gives none."""
    blanks = 0
    for number, text in _iter_raw_lines(source):
        if text:
            yield number, text
        else:
            blanks += 1
    if blanks:
        logger.warning("skipped %d blank line(s)", blanks)


def _tsv_rows(source, columns: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for each line of _nonblank_lines, split
    on tabs; a line of another number of fields raises PairsFormatError."""
    for number, text in _nonblank_lines(source):
        fields = text.split("\t")
        if len(fields) != columns:
            raise PairsFormatError(number, f"expected {columns} tab-separated columns, got {len(fields)}")
        yield number, fields


def read_nonblank_lines(source) -> tuple[list[tuple[int, str]], int]:
    """Collect (line_number, text) for non-empty lines; count blanks.
    una's readers stream through _nonblank_lines instead; this stays as the
    form that the reader's tests compare and that bench/spans.py traces."""
    lines = list(_iter_raw_lines(source))
    kept = [(number, text) for number, text in lines if text]
    return kept, len(lines) - len(kept)


def build_vocabulary(documents: Iterable[Document]) -> Vocabulary:
    """Vocabulary over all document tokens, ids in first-occurrence order."""
    vocabulary = Vocabulary()
    for document in documents:
        for token in document.tokens:
            vocabulary.add(token)
    return vocabulary


class _PieceTable(dict):
    """Lowercased whitespace piece -> term id, or -1 for a piece that trims
    to nothing; a piece is trimmed once, on its first lookup.

    A piece is trimmed as tokenize trims it, without tokenize's lowercasing
    and split: they would give the piece back unchanged, because str.lower
    is idempotent and adds no whitespace (tests/test_corpus.py checks both
    on every code point). A piece that is its own term gets the next id
    and is appended to terms, so ids are in first-occurrence order of the
    terms.
    """

    def __init__(self):
        super().__init__()
        self.terms: list[str] = []

    def __missing__(self, piece: str) -> int:
        term = piece if piece[0].isalnum() and piece[-1].isalnum() else _trim_punctuation(piece)
        if not term:
            term_id = -1
        elif term != piece:
            term_id = self[term]
        else:
            term_id = len(self.terms)
            self.terms.append(piece)
        self[piece] = term_id
        return term_id


# Ids moved per step when load_corpus squeezes out the dropped pieces: the
# kept ids of one chunk are the only copy made.
_COMPACT_CHUNK = 1 << 16


def _drop_empty_pieces(term_ids: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Remove the -1 ids in place and shift each row offset back by the
    number of them before it; return the kept ids, a view of term_ids."""
    dropped = np.flatnonzero(term_ids < 0)
    if not dropped.size:
        return term_ids
    indptr -= np.searchsorted(dropped, indptr)
    kept = 0
    for start in range(0, term_ids.size, _COMPACT_CHUNK):
        chunk = term_ids[start:start + _COMPACT_CHUNK]
        chunk = chunk[chunk >= 0]
        term_ids[kept:kept + chunk.size] = chunk
        kept += chunk.size
    return term_ids[:kept]


def load_corpus(source) -> Corpus:
    """Load a one-sentence-per-line corpus, mapping each line to ids as it is read.

    Blank lines are skipped (they carry nothing to score or replace) and
    counted in a single warning; the kept lines are the rows, in order.
    The kept lines of each read run (_line_runs) are lowercased and
    split, and all of the run's pieces are looked up in one map over a
    piece table, which trims a piece only the first time it is seen; a
    piece that trims to nothing maps to -1 and is squeezed out of the id
    column in place once every line is read. The rows hold
    tokenize(line)'s tokens, and term ids are in first-occurrence order,
    as build_vocabulary gives them.
    """
    table = _PieceTable()
    # indptr holds 0 and then each row's length until they are summed in
    # place. fromlist resizes an array once a run, extend once an item.
    term_ids, indptr = array("q"), array("q", [0])
    lines = 0
    for run in _line_runs(source):
        lines += len(run)
        rows = [text.lower().split() for text in run if text]
        indptr.fromlist(list(map(len, rows)))
        term_ids.fromlist(list(map(table.__getitem__, chain.from_iterable(rows))))
    skipped = lines - (len(indptr) - 1)
    if skipped:
        logger.warning("skipped %d blank line(s)", skipped)
    terms = table.terms
    del table
    indptr = np.frombuffer(indptr, np.int64)
    np.cumsum(indptr, out=indptr)
    term_ids = _drop_empty_pieces(np.frombuffer(term_ids, np.int64), indptr)
    return Corpus(Vocabulary._of_distinct(terms), indptr, term_ids)
