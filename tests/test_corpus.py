"""Tokenizer, vocabulary, and corpus loading behavior."""

import io
import random
import sys
import tempfile
import time
import unicodedata
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    SAMPLE_CORPUS,
    corpus_token_lists,
    reference_load_corpus,
    reference_read_lines,
    reference_tokenize,
    reference_trim_punctuation,
)
from una import corpus as corpus_module
from una.corpus import (
    _COMPACT_CHUNK,
    _READ_BYTES,
    _trim_punctuation,
    Corpus,
    CorpusDecodeError,
    Document,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    read_nonblank_lines,
    tokenize,
)

# Characters where lowercasing, splitting and trimming could disagree:
# final and non-final sigma, a capital whose lowercase is two characters,
# combining marks (some case-ignorable, one cased), titlecase, punctuation
# that is and is not case-ignorable, and whitespace beyond ASCII.
_TRICKY = (
    "ΣσςİIiAaßǅǄªⅫ٢_"
    "\u0301\u0307\u0313\u0345\u02b0"  # combining marks (U+0345 is cased), a modifier letter
    ".,'\u2019\"«»—–…¿¡·\u2027\u05f4\u061f\u3001\u3002!?-()[]{}"
    " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2003\u2028\u2029\u202f\u3000"
    "\u180e\u200b\u00ad"  # format characters that are not whitespace
)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize(" \t\n  ") == []

    def test_lowercases_and_strips_trailing_period(self):
        assert tokenize("Another factor was caffeine.") == [
            "another",
            "factor",
            "was",
            "caffeine",
        ]

    def test_longer_sentence(self):
        assert tokenize("We should play with legos at camp.") == [
            "we",
            "should",
            "play",
            "with",
            "legos",
            "at",
            "camp",
        ]

    def test_interior_punctuation_kept(self):
        assert tokenize("the x-45c, it's fine...") == ["the", "x-45c", "it's", "fine"]

    def test_punctuation_only_piece_dropped(self):
        assert tokenize("a -- b ... !?") == ["a", "b"]

    def test_unicode_punctuation_stripped(self):
        assert tokenize("«café» – naïve…") == ["café", "naïve"]

    def test_duplicates_and_order_preserved(self):
        assert tokenize("b a b B") == ["b", "a", "b", "b"]

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @given(st.text(max_size=200))
    def test_output_is_clean(self, text):
        for token in tokenize(text):
            assert token != ""
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)


class TestTokenizeFastPath:
    """tokenize lowercases the whole line before splitting and skips the
    trim for pieces with alphanumeric ends; these are the Unicode facts
    that make that equal to the per-piece definition."""

    def test_unicode_invariants_on_every_code_point(self):
        for code_point in range(sys.maxunicode + 1):
            char = chr(code_point)
            lowered = char.lower()
            assert lowered, f"U+{code_point:04X} lowercases to nothing"
            if char.isspace():
                assert lowered == char, f"whitespace U+{code_point:04X} changes when lowercased"
            else:
                assert not any(c.isspace() for c in lowered), f"U+{code_point:04X} lowercases to whitespace"
            if unicodedata.category(char)[0] == "P":
                assert lowered == char, f"punctuation U+{code_point:04X} changes when lowercased"
                assert not char.isalnum(), f"punctuation U+{code_point:04X} is alphanumeric"
            else:
                assert not any(unicodedata.category(c)[0] == "P" for c in lowered), (
                    f"U+{code_point:04X} lowercases to punctuation"
                )

    def test_lower_is_idempotent_on_every_code_point(self):
        # load_corpus's piece table trims a piece of a lowercased line
        # without lowercasing it again. No code point lowercases to Σ (it
        # would not be idempotent), so no final-sigma context is left to
        # make a lowered string differ from its own lowercase.
        for code_point in range(sys.maxunicode + 1):
            lowered = chr(code_point).lower()
            assert lowered.lower() == lowered, f"U+{code_point:04X}"

    def test_final_sigma_context_stops_at_whitespace_and_punctuation(self):
        # Lowercasing Σ looks past case-ignorable characters for a cased
        # one on each side. Neither whitespace nor a P* character may be
        # cased, and whitespace may not be case-ignorable, or lowercasing a
        # whole line (or an untrimmed piece) would differ from lowercasing
        # each trimmed piece.
        separators = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        punctuation = [
            chr(c) for c in range(sys.maxunicode + 1) if unicodedata.category(chr(c))[0] == "P"
        ]
        for char in separators:
            assert ("A" + char + "Σ").lower() == "a" + char + "σ", repr(char)
            assert ("AΣ" + char + "B").lower() == "aς" + char + "b", repr(char)
        for char in punctuation:
            assert (char + "Σ").lower() == char + "σ", repr(char)
            assert ("AΣ" + char).lower() == "aς" + char, repr(char)

    def test_trim_punctuation_on_every_code_point(self):
        # ASCII punctuation is stripped before any category is looked up;
        # each code point alone, beside a letter, around a comma and
        # behind one must trim as the category loop trims it.
        chars = [chr(code_point) for code_point in range(sys.maxunicode + 1)]
        for shape in ("{}", "a{}", "{}a", "{0},{0}", ",{}a."):
            pieces = [shape.format(char) for char in chars]
            got, want = list(map(_trim_punctuation, pieces)), list(map(reference_trim_punctuation, pieces))
            assert got == want, next(piece for piece, a, b in zip(pieces, got, want) if a != b)

    @pytest.mark.parametrize(
        "piece", ["«,x.»", "—(—", "(«x»)", ".«».", "¿¡x!?", "x.»", "«.x", ",—a—,", "a—", "«", ",", "x"]
    )
    def test_trim_punctuation_of_mixed_ascii_and_other_punctuation(self, piece):
        assert _trim_punctuation(piece) == reference_trim_punctuation(piece)

    @settings(max_examples=500)
    @given(st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=60))
    def test_matches_reference_definition(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @pytest.mark.parametrize(
        "text",
        ["ΟΔΟΣ.", "«ΟΔΟΣ» ΣΑΣ", "ΑΣ'Β ΑΣ' 'Σ", "İSTANBUL, İ.", "ΑΣ\u0301. x", "Σ\u00a0ΑΣ\u3000Σ"],
    )
    def test_matches_reference_on_sigma_and_dotted_i(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestVocabulary:
    def test_empty(self):
        assert len(Vocabulary()) == 0
        assert len(build_vocabulary([])) == 0

    def test_first_seen_order(self):
        voc = build_vocabulary([Document(0, ["b", "a", "b"])])
        assert voc.terms == ["b", "a"]
        assert voc.get("b") == 0 and voc.get("a") == 1

    def test_order_across_documents(self):
        docs = [Document(0, ["a"]), Document(1, ["b", "a"])]
        voc = build_vocabulary(docs)
        assert voc.terms == ["a", "b"]

    def test_bijection_and_density(self):
        voc = Vocabulary(["x", "y", "z", "y"])
        assert len(voc) == 3
        for term_id, term in enumerate(voc):
            assert voc.get(term) == term_id
            assert voc.term(term_id) == term

    def test_add_existing_returns_same_id(self):
        voc = Vocabulary()
        first = voc.add("q")
        assert voc.add("q") == first and len(voc) == 1

    def test_lookup_errors(self):
        voc = Vocabulary(["a"])
        assert voc.get("missing") is None
        with pytest.raises(IndexError):
            voc.term(5)


class TestLoadCorpus:
    def test_empty_stream(self):
        corpus = load_corpus(io.StringIO(""))
        assert corpus.n_docs == 0 and len(corpus.vocabulary) == 0

    def test_two_documents(self):
        corpus = load_corpus(io.StringIO("a b\nb c\n"))
        assert corpus.n_docs == 2
        assert corpus.vocabulary.terms == ["a", "b", "c"]

    def test_blank_lines_skipped(self, caplog):
        with caplog.at_level("WARNING"):
            corpus = load_corpus(io.StringIO("x\n\nx\n"))
        assert corpus.n_docs == 2
        assert corpus.vocabulary.terms == ["x"]
        assert "1 blank line" in caplog.text

    def test_no_trailing_newline(self):
        corpus = load_corpus(io.StringIO("a b\nb c"))
        assert corpus.n_docs == 2

    def test_document_ids_dense_and_tokens_normalized(self):
        corpus = load_corpus(io.StringIO("Hello there!\nSecond LINE.\n"))
        assert corpus.indptr.tolist() == [0, 2, 4]
        assert corpus.term_ids.tolist() == [0, 1, 2, 3]
        assert corpus_token_lists(corpus) == [["hello", "there"], tokenize("Second LINE.")]

    def test_round_trip(self):
        text = "Alpha beta.\ngamma ALPHA\nx-45c here\n"
        corpus = load_corpus(io.StringIO(text))
        dumped = "".join(" ".join(tokens) + "\n" for tokens in corpus_token_lists(corpus))
        again = load_corpus(io.StringIO(dumped))
        assert np.array_equal(again.indptr, corpus.indptr)
        assert np.array_equal(again.term_ids, corpus.term_ids)
        assert again.vocabulary == corpus.vocabulary

    def test_loads_from_path(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("one two\nthree\n", encoding="utf-8")
        assert load_corpus(path).n_docs == 2

    def test_bytes_decode_error_names_position(self):
        stream = io.BytesIO(b"ok line\nbad \xff line\n")
        with pytest.raises(CorpusDecodeError) as err:
            load_corpus(stream)
        assert err.value.line_number == 2
        assert err.value.byte_offset == 12
        assert "line 2" in str(err.value) and "byte 12" in str(err.value)

    def test_line_numbers_skip_blanks(self):
        lines, blanks = read_nonblank_lines(io.StringIO("a\n\n\nb\n"))
        assert lines == [(1, "a"), (4, "b")]
        assert blanks == 2

    def test_sample_corpus_matches_per_document_tokenizing(self):
        corpus = load_corpus(SAMPLE_CORPUS)
        lines, _ = read_nonblank_lines(SAMPLE_CORPUS)
        expected = [Document.from_text(index, text) for index, (_, text) in enumerate(lines)]
        assert corpus_token_lists(corpus) == [document.tokens for document in expected]
        assert corpus.vocabulary == build_vocabulary(expected)
        assert corpus.indptr.dtype == corpus.term_ids.dtype == np.int64

    def test_corpus_len(self):
        assert len(load_corpus(io.StringIO("a\nb\n"))) == 2
        assert isinstance(load_corpus(io.StringIO("a\n")), Corpus)


# Pieces that trim to nothing, and pieces that reach the term "word" with
# and without punctuation and capitals.
_EMPTY_PIECES = ["-", "—", "«»", "...", "¿¡", "'", "\u3001"]
_WORD_PIECES = ["word", "Word", "WORD", "word.", "«word»", "(Word)", "'WORD'", "x-45c", "X-45C,", "ΣΑΣ.", "σας"]
_PIECES = st.one_of(
    st.sampled_from(_EMPTY_PIECES + _WORD_PIECES),
    st.text(alphabet=st.sampled_from(_TRICKY), min_size=1, max_size=5),
)


class TestLoadCorpusOracle:
    """load_corpus's piece table and in-place compaction give what
    tokenizing each line and numbering terms by first occurrence gives."""

    def check(self, text):
        terms, rows = reference_load_corpus(io.StringIO(text))
        corpus = load_corpus(io.StringIO(text))
        assert corpus.vocabulary.terms == terms
        assert corpus_token_lists(corpus) == rows

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.lists(_PIECES, max_size=8).map(" ".join), max_size=10).map("\n".join))
    @example("- word —\n«»\n\nWord. ...\n... -- «»\nword «Word» WORD,")  # empty pieces at the ends
    @example("Word. x\nword\n(WORD) word")  # reached punctuated and capitalised first, then bare
    @example("word\n«Word»\nWORD.")  # reached bare first
    @example("—\n- ...\n\n«»")  # rows made only of empty pieces
    @example("a\n-\nb -\n- c")  # a dropped piece at the start of the next row
    def test_matches_per_line_reference(self, text):
        self.check(text)

    def test_compaction_across_chunks(self):
        # Each line keeps four pieces and drops five, so more than
        # _COMPACT_CHUNK of each are spread over several chunks.
        lines = [
            f"— W{k % 997}. «w{k % 991}» ... -- x{k % 13} ¿¡ Y{k}, '"
            for k in range(_COMPACT_CHUNK // 3)
        ]
        text = "\n".join(lines)
        corpus = load_corpus(io.StringIO(text))
        assert corpus.term_ids.size == 4 * len(lines) > _COMPACT_CHUNK
        self.check(text)


def _block_edge_text() -> str:
    """Lines of 1 to 40 pieces, some blank and some ending in CRLF, long
    enough that lines straddle several of the reader's block edges."""
    rng = random.Random(16)
    pieces = _EMPTY_PIECES + _WORD_PIECES + ["Naïve", "straße", "«Ünï»", "w1", "W2", "x3,"]
    lines = []
    for _ in range(2000):
        line = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 40)))
        lines.append(rng.choice(["", line, line, line + "\r"]))
    return "\n".join(lines) + "\n"


_SOURCE_TEXTS = {
    "block-edges": _block_edge_text(),
    # one line longer than three read blocks, its pieces repeating
    "long-line": "First line.\n" + " ".join(f"Lông{k % 500}." for k in range(8000)) + "\nlast, line",
    "blank-kinds": "\n".join(["a b", "", "   ", "\t \u3000", "\r", "\r\r", "—", "- -- ... «»", "c", ""]),
}


class TestLoadCorpusSources:
    """load_corpus reads a path, a binary stream and a text stream into the
    terms, offsets, ids and blank-line warning of tokenizing each line."""

    def test_block_edges_fall_inside_lines(self):
        data = _SOURCE_TEXTS["block-edges"].encode()
        edges = range(_READ_BYTES, len(data), _READ_BYTES)
        assert len(edges) >= 3 and all(b"\n" not in data[edge - 1 : edge + 1] for edge in edges)
        assert max(map(len, _SOURCE_TEXTS["long-line"].encode().split(b"\n"))) > 3 * _READ_BYTES

    @pytest.mark.parametrize("name", list(_SOURCE_TEXTS))
    def test_matches_per_line_tokenize(self, tmp_path, caplog, name):
        text = _SOURCE_TEXTS[name]
        lines, blanks = reference_read_lines(io.StringIO(text))
        rows = [tokenize(line) for _, line in lines]
        terms = list(dict.fromkeys(token for row in rows for token in row))
        ids = {term: term_id for term_id, term in enumerate(terms)}
        warnings = [f"skipped {blanks} blank line(s)"] if blanks else []
        want = terms, np.cumsum([0, *map(len, rows)]).tolist(), [ids[t] for row in rows for t in row], warnings
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode())
        for source in (path, io.BytesIO(text.encode()), io.StringIO(text)):
            caplog.clear()
            with caplog.at_level("WARNING", logger="una.corpus"):
                corpus = load_corpus(source)
            got = corpus.vocabulary.terms, corpus.indptr.tolist(), corpus.term_ids.tolist(), caplog.messages
            assert got == want, type(source).__name__


class TestCorpusLayout:
    vocabulary = Vocabulary(["a", "b", "c"])

    def test_hand_built_rows(self):
        corpus = Corpus(self.vocabulary, [0, 2, 2, 3], [0, 1, 2])
        assert corpus.n_docs == len(corpus) == 3
        assert corpus.indptr.dtype == corpus.term_ids.dtype == np.int64
        assert corpus_token_lists(corpus) == [["a", "b"], [], ["c"]]
        assert Corpus(Vocabulary(), [0], []).n_docs == 0

    @pytest.mark.parametrize(
        "indptr, term_ids",
        [
            ([[0, 1]], [0]),  # indptr not 1-D
            ([], []),  # no leading offset
            ([1, 2], [0, 1]),  # does not start at 0
            ([0, 2, 1, 3], [0, 1, 2]),  # decreases
            ([0, 2], [0, 1, 2]),  # ends before len(term_ids)
            ([0, 4], [0, 1, 2]),  # ends after len(term_ids)
            ([0, 2], [0, -1]),  # id below 0
            ([0, 2], [0, 3]),  # id == m would collide with the next document's keys in fit
            ([0, 1], [2**70]),  # id beyond int64
            ([0, 2], [[0, 1]]),  # term_ids not 1-D
        ],
    )
    def test_malformed_rejected(self, indptr, term_ids):
        with pytest.raises(ValueError):
            Corpus(self.vocabulary, indptr, term_ids)


# Byte pieces where a streaming reader could part from the split-based one:
# line ends, a lone \r, tabs, an invalid byte, UTF-8 sequences cut short
# (also by a newline), U+0085 and U+2028 (line breaks to str.splitlines,
# not to the reader), surrogates and code points beyond U+10FFFF.
_BYTE_PIECES = [
    b"a", b"b c", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\xff", b"\xe2\x82", b"\xe2\x82\xac",
    b"\xc3", b"\xc3\xa9", b"\xc2\x85", b"\xe2\x80\xa8", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
]
_TEXT_PIECES = ["a", "b c", " ", "\t", "\n", "\r", "\r\n", "\x85", "\u2028", "\u2029", "\x0b", "\x1c", "é"]


def _outcome(reader, source):
    try:
        return reader(source)
    except CorpusDecodeError as exc:
        return ("CorpusDecodeError", exc.line_number, exc.byte_offset, str(exc))


# Chunk sizes that part a stream mid-line, mid-sequence and between \r and \n.
_CHUNK_SIZES = (1, 2, 3, 5)


def _chunks(data, size):
    return [data[start:start + size] for start in range(0, len(data), size)]


def _outcomes_in_blocks(data):
    """The reader's outcome on data in chunks of each _CHUNK_SIZES size,
    and read from a path with _READ_BYTES set to 3."""
    outcomes = [_outcome(read_nonblank_lines, _chunks(data, size)) for size in _CHUNK_SIZES]
    if isinstance(data, bytes):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(corpus_module, "_READ_BYTES", 3):
            path = Path(tmp) / "lines.txt"
            path.write_bytes(data)
            outcomes.append(_outcome(read_nonblank_lines, path))
    return outcomes


class TestReaderOracle:
    """The streaming reader gives what the split-based reader gave: the
    same lines, blank counts and decode errors (line, offset, reason)."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_BYTE_PIECES), max_size=12).map(b"".join))
    @example(b"a\n\r")  # unterminated last line, empty without its \r
    @example(b"\r")
    @example(b"ok\n\xe2\x82\nmore")  # sequence cut short by the newline
    @example(b"ok\n\xe2\x82")
    @example(b"a\r\n\r\n\n")
    def test_bytes(self, data):
        expected = _outcome(reference_read_lines, io.BytesIO(data))
        assert _outcome(read_nonblank_lines, io.BytesIO(data)) == expected
        if expected[0] != "CorpusDecodeError":
            assert load_corpus(io.BytesIO(data)).n_docs == len(expected[0])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12).map("".join))
    @example("a\n\r")
    @example("\r")
    def test_text(self, text):
        assert read_nonblank_lines(io.StringIO(text)) == reference_read_lines(io.StringIO(text))

    @pytest.mark.parametrize("data", [b"a\n\r", b"\r", b"ok\n\xe2\x82\nx", b"x\n\n\r\n \n", b""])
    def test_path(self, tmp_path, data):
        path = tmp_path / "lines.txt"
        path.write_bytes(data)
        assert _outcome(read_nonblank_lines, path) == _outcome(reference_read_lines, io.BytesIO(data))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_BYTE_PIECES), max_size=12).map(b"".join))
    def test_bytes_in_blocks(self, data):
        expected = _outcome(reference_read_lines, io.BytesIO(data))
        assert all(outcome == expected for outcome in _outcomes_in_blocks(data))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=12).map("".join))
    def test_text_in_blocks(self, text):
        expected = reference_read_lines(io.StringIO(text))
        assert all(outcome == expected for outcome in _outcomes_in_blocks(text))

    @pytest.mark.parametrize("chunks", [
        [b"a\r", b"\nb\r", b"\n"],  # \r | \n
        ["a\r", "\nb\r", "\n"],
        [b"a\xe2\x82", b"\xacb\n"],  # \xe2\x82 | \xac
        [b"a\xe2\x82", b"\xac\n\xe2", b"\x82\n"],  # then cut short by its newline
        [b"ok\n", b"fine\n", b"x\n\xffy\n", b"z\n"],  # an invalid byte in the third block
        [b"a\n", b"\r"],  # a final unterminated \r alone in its chunk
        ["a\n", "\r"],
        [b"a", b"", b"b\n", b"", b"\r", b"c"],
    ])
    def test_block_edges(self, chunks):
        data = chunks[0][:0].join(chunks)
        stream = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)
        assert _outcome(read_nonblank_lines, chunks) == _outcome(reference_read_lines, stream)

    def test_long_line_in_linear_time(self, tmp_path):
        # Copying the tail again for every chunk would take minutes here.
        line = b"x" * (1 << 20)
        started = time.process_time()

        def single_bytes():
            for start in range(len(line)):
                if not start % (1 << 16):
                    assert time.process_time() - started < 20, "a long line is read in quadratic time"
                yield line[start:start + 1]

        want = ([(1, line.decode())], 0)
        assert read_nonblank_lines(single_bytes()) == want
        path = tmp_path / "long.txt"
        path.write_bytes(line)
        assert read_nonblank_lines(path) == want

    def test_cut_sequence_reason(self):
        with pytest.raises(CorpusDecodeError, match="unexpected end of data") as err:
            read_nonblank_lines(io.BytesIO(b"ok\n\xe2\x82\nmore\n"))
        assert (err.value.line_number, err.value.byte_offset) == (2, 3)

    def test_reads_one_line_at_a_time(self):
        class Lines:
            """A line iterable whose read() must not be called."""

            def __iter__(self):
                yield from (b"a b\n", b"\n", b"c\n")

            def read(self):
                raise AssertionError("the whole stream was read")

        assert read_nonblank_lines(Lines()) == ([(1, "a b"), (3, "c")], 1)
        assert load_corpus(Lines()).indptr.tolist() == [0, 2, 3]
