"""Sentence corpus loading, tokenization, and the term vocabulary.

A corpus file is plain UTF-8 text, one sentence per line (LF line endings,
trailing newline optional). Tokenization is deliberately minimal: split on
whitespace, trim surrounding punctuation, lowercase. Interior punctuation
(hyphens, apostrophes) is kept so tokens like "x-45c" survive intact.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)


class CorpusDecodeError(ValueError):
    """Raised when a corpus stream is not valid UTF-8."""

    def __init__(self, line_number: int, byte_offset: int, reason: str):
        self.line_number = line_number
        self.byte_offset = byte_offset
        super().__init__(
            f"invalid UTF-8 at byte {byte_offset} (line {line_number}): {reason}"
        )


def _trim_punctuation(piece: str) -> str:
    """Strip leading and trailing Unicode punctuation (category P*)."""
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

    def id_of(self, term: str) -> int:
        return self._ids[term]

    def get(self, term: str) -> int | None:
        return self._ids.get(term)

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
    """One sentence of the corpus; tokens are exactly tokenize(raw)."""

    doc_id: int
    raw: str
    tokens: list[str]

    @classmethod
    def from_text(cls, doc_id: int, raw: str) -> "Document":
        return cls(doc_id, raw, tokenize(raw))


@dataclass
class Corpus:
    """An ordered document collection plus the vocabulary over its tokens."""

    documents: list[Document] = field(default_factory=list)
    vocabulary: Vocabulary = field(default_factory=Vocabulary)

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    def __len__(self) -> int:
        return len(self.documents)


def _iter_raw_lines(source) -> Iterator[tuple[int, str]]:
    """Yield (line_number, text) for every line of a UTF-8 source.

    Accepts a path, a binary stream, a text stream, or an iterable of
    decoded lines. Byte sources are decoded line by line so that decode
    failures can report the exact byte offset.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            yield from _iter_raw_lines(handle)
        return

    first = getattr(source, "read", None)
    if first is not None:
        data = source.read()
    else:
        data = source

    if isinstance(data, bytes):
        offset = 0
        for number, raw in enumerate(data.split(b"\n"), start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusDecodeError(number, offset + exc.start, exc.reason) from exc
            yield number, text.rstrip("\r")
            offset += len(raw) + 1
    elif isinstance(data, str):
        for number, text in enumerate(data.split("\n"), start=1):
            yield number, text.rstrip("\r")
    else:
        for number, text in enumerate(data, start=1):
            yield number, str(text).rstrip("\r\n").rstrip("\r")


def read_nonblank_lines(source) -> tuple[list[tuple[int, str]], int]:
    """Collect (line_number, text) for non-empty lines; count blanks.

    A final empty piece produced by a trailing newline is not counted as a
    blank line.
    """
    lines = list(_iter_raw_lines(source))
    if lines and lines[-1][1] == "":
        lines.pop()
    kept = [(number, text) for number, text in lines if text != ""]
    return kept, len(lines) - len(kept)


def build_vocabulary(documents: Iterable[Document]) -> Vocabulary:
    """Vocabulary over all document tokens, ids in first-occurrence order."""
    vocabulary = Vocabulary()
    for document in documents:
        for token in document.tokens:
            vocabulary.add(token)
    return vocabulary


def load_corpus(source) -> Corpus:
    """Load a one-sentence-per-line corpus.

    Blank lines are skipped (they carry nothing to score or replace) and
    counted in a single warning. Document ids are dense over the kept lines.
    The vocabulary is built in the tokenizing pass, ids in first-occurrence
    order as build_vocabulary gives them, and every token is the
    vocabulary's own string object for its term, so the corpus holds one
    string per distinct term rather than one per token.
    """
    lines, skipped = read_nonblank_lines(source)
    if skipped:
        logger.warning("skipped %d blank line(s)", skipped)
    # Insertion order is first occurrence; each value is the first-seen
    # object for its term.
    terms: dict[str, str] = {}
    intern = terms.setdefault
    documents = []
    for index, (_, text) in enumerate(lines):
        tokens = tokenize(text)
        documents.append(Document(index, text, list(map(intern, tokens, tokens))))
    return Corpus(documents, Vocabulary(terms))
