"""Tokenizer, vocabulary, and corpus loading behavior."""

import io
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SAMPLE_CORPUS, reference_tokenize
from una.corpus import (
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
        voc = build_vocabulary([Document(0, "b a b", ["b", "a", "b"])])
        assert voc.terms == ["b", "a"]
        assert voc.id_of("b") == 0 and voc.id_of("a") == 1

    def test_order_across_documents(self):
        docs = [Document(0, "a", ["a"]), Document(1, "b a", ["b", "a"])]
        voc = build_vocabulary(docs)
        assert voc.terms == ["a", "b"]

    def test_bijection_and_density(self):
        voc = Vocabulary(["x", "y", "z", "y"])
        assert len(voc) == 3
        for term_id, term in enumerate(voc):
            assert voc.id_of(term) == term_id
            assert voc.term(term_id) == term

    def test_add_existing_returns_same_id(self):
        voc = Vocabulary()
        first = voc.add("q")
        assert voc.add("q") == first and len(voc) == 1

    def test_lookup_errors(self):
        voc = Vocabulary(["a"])
        with pytest.raises(KeyError):
            voc.id_of("missing")
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
        assert [d.doc_id for d in corpus.documents] == [0, 1]
        assert corpus.documents[0].tokens == ["hello", "there"]
        assert corpus.documents[1].tokens == tokenize(corpus.documents[1].raw)

    def test_round_trip(self):
        text = "Alpha beta.\ngamma ALPHA\nx-45c here\n"
        corpus = load_corpus(io.StringIO(text))
        dumped = "".join(d.raw + "\n" for d in corpus.documents)
        again = load_corpus(io.StringIO(dumped))
        assert again.documents == corpus.documents
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
        assert corpus.documents == expected
        vocabulary = corpus.vocabulary
        assert vocabulary == build_vocabulary(expected)
        for document in corpus.documents:
            for token in document.tokens:
                assert token is vocabulary.term(vocabulary.id_of(token))

    def test_corpus_len(self):
        assert len(load_corpus(io.StringIO("a\nb\n"))) == 2
        assert isinstance(load_corpus(io.StringIO("a\n")), Corpus)
