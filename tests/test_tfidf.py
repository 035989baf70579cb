"""TF-IDF math, fitting against a dense oracle, and model serialization."""

import io
import math
import re
import struct
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SAMPLE_CORPUS,
    brute_force_tfidf,
    corpus_from_token_lists,
    corpus_token_lists,
    random_corpus,
    reference_fit,
    reference_load_model,
    reference_load_terms,
    reference_save_model,
    reference_term_frequencies,
    synthetic_model,
)
from una import tfidf
from una.corpus import Corpus, CorpusDecodeError, Vocabulary, load_corpus, tokenize
from una.tfidf import (
    ModelFormatError,
    SentenceScores,
    TfIdfModel,
    fit,
    load_model,
    save_model,
    sentence_scores,
)


@pytest.fixture
def two_doc_corpus():
    return load_corpus(io.StringIO("a b b\na c\n"))


@pytest.fixture
def two_doc_model(two_doc_corpus):
    return fit(two_doc_corpus)


class TestFit:
    def test_two_document_example(self, two_doc_model):
        model = two_doc_model
        voc = model.vocabulary
        a, b, c = voc.get("a"), voc.get("b"), voc.get("c")
        assert model.idf[a] == 0.0
        assert model.idf[b] == pytest.approx(math.log(2), abs=1e-12)
        assert model.idf[c] == pytest.approx(math.log(2), abs=1e-12)
        assert model.max_score[a] == 0.0
        assert model.max_score[b] == pytest.approx(math.log(1 + 2 / 3) * math.log(2), abs=1e-12)
        assert model.max_score[c] == pytest.approx(math.log(1 + 1 / 2) * math.log(2), abs=1e-12)

    def test_matches_dense_oracle(self, two_doc_corpus):
        model = fit(two_doc_corpus)
        oracle_idf, oracle_max = brute_force_tfidf(two_doc_corpus)
        np.testing.assert_allclose(model.idf, oracle_idf, atol=1e-12)
        np.testing.assert_allclose(model.max_score, oracle_max, atol=1e-12)

    def test_universal_term_scores_zero(self):
        corpus = corpus_from_token_lists([["x"], ["x"]])
        model = fit(corpus)
        assert model.idf[0] == 0.0 and model.max_score[0] == 0.0
        assert math.copysign(1.0, model.idf[0]) == 1.0  # plain zero, not -0.0
        assert math.copysign(1.0, model.max_score[0]) == 1.0

    def test_max_score_is_largest_tf_times_idf(self):
        # "b" has tf log(1 + 1/4) in the first document and log(1 + 2/3) in
        # the second; its max score takes the larger one.
        corpus = corpus_from_token_lists([["a", "b", "c", "d"], ["b", "b", "e"], ["f"]])
        model = fit(corpus)
        b = corpus.vocabulary.get("b")
        assert model.idf[b] == -math.log(2 / 3)
        assert model.max_score[b] == math.log1p(2 / 3) * -math.log(2 / 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit(corpus_from_token_lists([]))

    def test_random_corpora_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            corpus = random_corpus(rng)
            model = fit(corpus)
            oracle_idf, oracle_max = brute_force_tfidf(corpus)
            np.testing.assert_allclose(model.idf, oracle_idf, atol=1e-12)
            np.testing.assert_allclose(model.max_score, oracle_max, atol=1e-12)

    def test_idf_monotone_in_document_frequency(self):
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, max_docs=15, max_terms=20)
        model = fit(corpus)
        doc_freq = np.zeros(len(corpus.vocabulary))
        for tokens in corpus_token_lists(corpus):
            for term in set(tokens):
                doc_freq[corpus.vocabulary.get(term)] += 1
        for u in range(len(doc_freq)):
            for v in range(len(doc_freq)):
                if doc_freq[u] and doc_freq[v] and doc_freq[u] < doc_freq[v]:
                    assert model.idf[u] > model.idf[v]

    def test_rank_order_non_decreasing_with_id_ties(self):
        corpus = corpus_from_token_lists([["a", "c"], ["b", "c"]])
        model = fit(corpus)
        scores = model.max_score[model.rank_by_score]
        assert np.all(np.diff(scores) >= 0)
        # a (id 0) and b (id 2) share the same score; a must come first
        assert list(model.rank_by_score) == [1, 0, 2]

    def test_rank_of_inverts_ranking(self, two_doc_model):
        for rank, term_id in enumerate(two_doc_model.rank_by_score):
            assert two_doc_model.rank_of(int(term_id)) == rank
        with pytest.raises(ValueError):
            two_doc_model.rank_of(99)


def _assert_bit_equal(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected) and actual.tobytes() == expected.tobytes()


def _every_length_rows() -> list[list[str]]:
    """Token lists over t0..t59: one of every length from 1 to 300, whose
    terms come from pools of random size, so that counts c > 1 give many
    ratios c/n; between them empty rows and rows of one term repeated."""
    rng = np.random.default_rng(300)
    rows = [[], ["t0"] * 5, [], ["t1"] * 300]
    for n in range(1, 301):
        pool = min(60, int(rng.integers(1, n + 1)))
        rows.append([f"t{k}" for k in rng.integers(pool, size=n)])
        if n % 60 == 0:
            rows += [[], [f"t{n // 60}"] * n]
    return rows


def _irregular_corpus(rng: np.random.Generator, n_docs: int) -> Corpus:
    """Random documents with empty ones, out-of-vocabulary tokens, and
    vocabulary terms that occur in no document."""
    pool = [f"t{k}" for k in range(int(rng.integers(2, 40)))]
    token_lists = []
    for _ in range(n_docs):
        length = int(rng.choice([0, 1, 2, 3, 8, 30], p=[0.15, 0.2, 0.2, 0.2, 0.15, 0.1]))
        token_lists.append([pool[int(k)] for k in rng.integers(len(pool), size=length)])
    known = [term for term in pool if rng.random() < 0.8]
    unused = [f"unused{k}" for k in range(int(rng.integers(0, 4)))]
    terms = known + unused
    return corpus_from_token_lists(token_lists, [terms[int(k)] for k in rng.permutation(len(terms))])


class TestFitChunks:
    """The chunked fit is bit-equal to the per-document loop at every chunk
    size, including chunk boundaries inside runs of empty documents."""

    @pytest.fixture(params=[1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
    def chunk_docs(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(tfidf, "_FIT_CHUNK_DOCS", request.param)
        return tfidf._FIT_CHUNK_DOCS

    @staticmethod
    def assert_matches_reference(corpus: Corpus):
        model, expected = fit(corpus), reference_fit(corpus)
        assert model.n_docs == expected.n_docs and model.vocabulary == expected.vocabulary
        _assert_bit_equal(model.idf, expected.idf)
        _assert_bit_equal(model.max_score, expected.max_score)
        _assert_bit_equal(model.rank_by_score, expected.rank_by_score)

    def test_random_corpora(self, chunk_docs):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            self.assert_matches_reference(_irregular_corpus(rng, int(rng.integers(1, 12))))

    def test_hand_built_corner_cases(self, chunk_docs):
        cases = [
            # empty documents at both ends and in a run of three
            ([[], ["a", "b"], [], [], [], ["b", "b", "c"], []], ["a", "b", "c"]),
            # out-of-vocabulary tokens neither count as terms nor as length
            ([["a", "oov", "b"], ["oov"], ["b", "oov", "oov", "a", "a"]], ["a", "b"]),
            # vocabulary terms that occur in no document score zero
            ([["b"], ["c", "b"]], ["a", "b", "c", "d"]),
            # only empty or unknown documents
            ([[], ["x"], []], ["a"]),
            ([["x"], []], []),
        ]
        for token_lists, terms in cases:
            self.assert_matches_reference(corpus_from_token_lists(token_lists, terms))

    def test_corpus_longer_than_one_chunk(self, chunk_docs):
        rng = np.random.default_rng(99)
        corpus = _irregular_corpus(rng, 2 * chunk_docs + 5)
        assert corpus.n_docs > chunk_docs
        self.assert_matches_reference(corpus)

    def test_sample_corpus(self, chunk_docs):
        self.assert_matches_reference(load_corpus(SAMPLE_CORPUS))

    def test_every_row_length_and_repeated_terms(self, chunk_docs):
        self.assert_matches_reference(corpus_from_token_lists(_every_length_rows()))


class TestSentenceScores:
    def test_empty_tokens(self, two_doc_model):
        scores = sentence_scores(two_doc_model, [[]])[0]
        assert scores.n_terms == 0

    def test_example_values(self, two_doc_model):
        scores = sentence_scores(two_doc_model, [["a", "b"]])[0]
        voc = two_doc_model.vocabulary
        assert list(scores.term_ids) == sorted([voc.get("a"), voc.get("b")])
        by_term = dict(zip(scores.term_ids, scores.scores))
        assert by_term[voc.get("a")] == 0.0
        assert by_term[voc.get("b")] == pytest.approx(
            math.log(1 + 1 / 2) * math.log(2), abs=1e-12
        )

    def test_oov_only(self, two_doc_model):
        assert sentence_scores(two_doc_model, [["zzz"]])[0].n_terms == 0

    def test_oov_excluded_from_length(self, two_doc_model):
        # "zzz" must not count toward the sentence length used by tf
        with_oov = sentence_scores(two_doc_model, [["a", "zzz", "b"]])[0]
        without = sentence_scores(two_doc_model, [["a", "b"]])[0]
        np.testing.assert_array_equal(with_oov.term_ids, without.term_ids)
        np.testing.assert_array_equal(with_oov.scores, without.scores)

    def test_scores_non_negative(self, two_doc_model):
        scores = sentence_scores(two_doc_model, [["a", "b", "b", "c", "c", "c"]])[0]
        assert np.all(scores.scores >= 0)

    def test_result_passes_direct_checks(self, two_doc_model):
        result = sentence_scores(two_doc_model, [["c", "zzz", "b", "a", "b"]])[0]
        assert result.term_ids.dtype == np.int64 and result.scores.dtype == np.float64
        SentenceScores(result.term_ids, result.scores)  # raises if a check fails

    @pytest.mark.parametrize(
        "term_ids, scores",
        [
            ([2, 1], [0.1, 0.2]),  # unsorted
            ([1, 1], [0.1, 0.2]),  # repeated id
            ([0, 1], [0.1, 0.2, 0.3]),  # ragged
            ([[0, 1], [2, 3]], [[0.1, 0.2], [0.3, 0.4]]),  # 2-D
        ],
    )
    def test_direct_construction_validates(self, term_ids, scores):
        with pytest.raises(ValueError):
            SentenceScores(term_ids, scores)


def _assert_matches_reference_scores(model: TfIdfModel, batch: list[list[str]]):
    """sentence_scores over a batch is, sentence by sentence and bit for
    bit, the Counter oracle's tf times idf."""
    results = sentence_scores(model, batch)
    assert len(results) == len(batch)
    for tokens, result in zip(batch, results):
        term_ids, tfs = reference_term_frequencies(model.vocabulary, tokens)
        term_ids = np.array(term_ids, dtype=np.int64)
        _assert_bit_equal(result.term_ids, term_ids)
        _assert_bit_equal(result.scores, np.array(tfs, dtype=np.float64) * model.idf[term_ids])


@st.composite
def _model_and_batch(draw):
    """A model with random idf values over t0..t(m-1), and a batch of 0-70
    sentences that mixes empty, all-out-of-vocabulary and repeated-term
    sentences with in-vocabulary and unknown tokens."""
    m = draw(st.integers(1, 12))
    idf = draw(st.lists(st.floats(0, 20, allow_nan=False), min_size=m, max_size=m))
    model = synthetic_model(np.zeros(m), idf)
    known = st.sampled_from([f"t{k}" for k in range(m)])
    unknown = st.sampled_from(["oov", "zzz", "t99"])
    sentence = st.one_of(
        st.just([]),
        st.lists(unknown, min_size=1, max_size=4),
        st.lists(known, min_size=1, max_size=3).map(lambda tokens: tokens * 3),
        st.lists(st.one_of(known, unknown), max_size=15),
    )
    return model, draw(st.lists(sentence, max_size=70))


class TestBatchScoresDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_model_and_batch())
    def test_random_batches(self, model_and_batch):
        _assert_matches_reference_scores(*model_and_batch)

    @settings(max_examples=200, deadline=None)
    @given(_model_and_batch())
    def test_score_columns(self, model_and_batch):
        _check_score_columns(*model_and_batch)

    def test_score_columns_of_every_row_length(self):
        # With every idf 1 the scores are the tfs, each checked against
        # math.log1p(c / n) of its own row. Unknown tokens change the
        # length n of their row, and a row of unknown tokens alone has n = 0.
        rng = np.random.default_rng(5)
        rows = _every_length_rows()
        batch = [["oov"] * 3] + [[t if rng.random() < 0.8 else "oov" for t in tokens] for tokens in rows]
        _check_score_columns(synthetic_model(np.zeros(60)), batch)

    def test_empty_vocabulary(self):
        model = synthetic_model([])
        assert model.m == 0
        _assert_matches_reference_scores(model, [[], ["a"], ["a", "b", "a"], []])

    def test_single_term_vocabulary(self):
        model = synthetic_model([0.5], [0.75])
        _assert_matches_reference_scores(model, [["t0"], [], ["t0", "oov", "t0"], ["oov"], ["t0"] * 7])


def _check_score_columns(model: TfIdfModel, batch: list[list[str]]):
    """The batch's token ids, -1 for out-of-vocabulary tokens, and its
    (row, term, score) columns against the Counter oracle times idf."""
    vocabulary = model.vocabulary
    indptr = np.cumsum([0] + [len(tokens) for tokens in batch])
    ids = vocabulary.ids([token for tokens in batch for token in tokens])
    assert ids.dtype == np.int64
    assert ids.tolist() == [vocabulary.get(t) if t in vocabulary else -1 for tokens in batch for t in tokens]
    rows, terms, scores = tfidf._score_columns(model, indptr, ids)
    want_rows, want_terms, want_scores = [], [], []
    for row, tokens in enumerate(batch):
        term_ids, tfs = reference_term_frequencies(vocabulary, tokens)
        want_rows += [row] * len(term_ids)
        want_terms += term_ids
        want_scores.append(np.array(tfs, dtype=np.float64) * model.idf[np.array(term_ids, dtype=np.int64)])
    _assert_bit_equal(rows, np.array(want_rows, dtype=np.int64))
    _assert_bit_equal(terms, np.array(want_terms, dtype=np.int64))
    _assert_bit_equal(scores, np.concatenate([np.zeros(0), *want_scores]))


class TestSerialization:
    def test_round_trip_identity(self, two_doc_model, tmp_path):
        path = tmp_path / "model.txt"
        save_model(two_doc_model, path)
        assert load_model(path) == two_doc_model

    def test_round_trip_random_model(self, tmp_path):
        corpus = random_corpus(np.random.default_rng(3))
        model = fit(corpus)
        buffer = io.StringIO()
        save_model(model, buffer)
        assert load_model(io.StringIO(buffer.getvalue())) == model

    def test_round_trip_without_trailing_newline(self, two_doc_model):
        buffer = io.StringIO()
        save_model(two_doc_model, buffer)
        assert load_model(io.StringIO(buffer.getvalue().rstrip("\n"))) == two_doc_model

    def _lines(self, model):
        buffer = io.StringIO()
        save_model(model, buffer)
        return buffer.getvalue().split("\n")

    def test_rejects_zero_documents(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[0] = "UNA-TFIDF v1 N=0 m=3"
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert err.value.line_number == 1

    def test_rejects_unknown_version(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[0] = "UNA-TFIDF v2 N=2 m=3"
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO("\n".join(lines)))

    def test_rejects_duplicate_rank_id(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[5] = "0 2 2"
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert "duplicated id 2" in str(err.value)

    def test_rejects_incomplete_permutation(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[5] = "0 2"
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO("\n".join(lines)))

    def test_rejects_non_monotone_ranks(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[5] = "1 2 0"  # highest score first
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert "non-monotone" in str(err.value)

    def test_rejects_tie_out_of_id_order(self):
        # terms 0 and 1 tie at 0.1; a refit ranks them 0 1 2
        text = "UNA-TFIDF v1 N=2 m=3\nx\t1.0\t0.1\ny\t1.0\t0.1\nz\t1.0\t0.2\nranks:\n{}\n"
        assert list(load_model(io.StringIO(text.format("0 1 2"))).rank_by_score) == [0, 1, 2]
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO(text.format("1 0 2")))
        assert err.value.line_number == 6
        assert "non-monotone" in str(err.value)

    @pytest.mark.parametrize("term", ["x y", "Hello.", "UPPER", "(x", "\u00a0x"])
    def test_rejects_term_that_is_not_one_token(self, two_doc_model, term):
        lines = self._lines(two_doc_model)
        lines[2] = "\t".join([term] + lines[2].split("\t")[1:])
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert err.value.line_number == 3
        assert "single token" in str(err.value)

    def test_rejects_empty_term(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[1] = "\t0.0\t0.0"
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert err.value.line_number == 2

    @pytest.mark.parametrize("token", ["\u00b2", "\u0662"])  # superscript two, Arabic-Indic two
    def test_rejects_non_ascii_digit_rank_id(self, two_doc_model, token):
        lines = self._lines(two_doc_model)
        ids = lines[5].split()
        ids[0] = token
        lines[5] = " ".join(ids)
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert err.value.line_number == 6
        assert "bad term id" in str(err.value)

    def test_rejects_truncated_file(self, two_doc_model):
        lines = self._lines(two_doc_model)
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO("\n".join(lines[:3])))

    def test_rejects_bad_field_count(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[1] = "a\t0.0"
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert err.value.line_number == 2

    def test_rejects_bad_float(self, two_doc_model):
        lines = self._lines(two_doc_model)
        lines[2] = "b\tnot-a-number\t0.1"
        with pytest.raises(ModelFormatError) as err:
            load_model(io.StringIO("\n".join(lines)))
        assert err.value.line_number == 3

    def test_accepts_wrapped_rank_lines(self, two_doc_model):
        lines = self._lines(two_doc_model)
        ids = lines[5].split()
        rebuilt = "\n".join(lines[:5] + ids) + "\n"
        assert load_model(io.StringIO(rebuilt)) == two_doc_model

    def test_equality_is_field_for_field(self, two_doc_model):
        other = TfIdfModel(
            two_doc_model.vocabulary,
            two_doc_model.n_docs + 1,
            two_doc_model.idf,
            two_doc_model.max_score,
            two_doc_model.rank_by_score,
        )
        assert other != two_doc_model


_HAND_MODEL = (
    "UNA-TFIDF v1 N=2 m=4\nw\t1.0\t0.1\nx\t1.0\t0.2\ny\t1.0\t0.3\nz\t1.0\t0.4\nranks:\n"
)  # rank lines start at line 7; the valid order is 0 1 2 3


def _load_error(text: str) -> ModelFormatError:
    with pytest.raises(ModelFormatError) as err:
        load_model(io.StringIO(text))
    return err.value


class TestRankSectionChecks:
    """The rank section is checked as arrays, and only a section that fails
    is scanned id by id, which names the first bad id and its line."""

    def test_accepts_section_split_over_lines(self):
        model = load_model(io.StringIO(_HAND_MODEL + "0 1\n2\n3\n"))
        assert model.rank_by_score.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "ranks, line_number, message",
        [
            ("0 1\n1 3", 8, "duplicated id 1 in rank section"),
            ("0 2\n1 3", 8, "non-monotone rank section: term 1 breaks the (score, id) order"),
            ("0 1\n2 x", 8, "bad term id 'x' in rank section"),
            ("0 1\n2 \u00b3", 8, "bad term id '\u00b3' in rank section"),
            ("0 1\n2 4", 8, "term id 4 out of range [0, 4)"),
            ("0 1\n2 99999999999999999999", 8, "term id 99999999999999999999 out of range [0, 4)"),
            ("0 1\n2", 8, "rank section lists 3 ids, expected 4"),
            ("0 1 2 3 0", 7, "duplicated id 0 in rank section"),
            ("", 7, "rank section lists 0 ids, expected 4"),
        ],
    )
    def test_rejection_names_first_bad_id_and_line(self, ranks, line_number, message):
        error = _load_error(_HAND_MODEL + ranks + "\n")
        assert (error.line_number, str(error)) == (line_number, f"line {line_number}: {message}")

    @pytest.mark.parametrize("last", ["003", "0" * 30 + "3"])
    def test_leading_zeros_read_as_their_value(self, last):
        # Both are read by the array checks, which take "0" * 30 + "3" as 3
        # although the text is longer than any int64.
        model = load_model(io.StringIO(_HAND_MODEL + f"0 1 2 {last}\n"))
        assert model.rank_by_score.tolist() == [0, 1, 2, 3]

    def test_empty_and_single_term_vocabularies_load(self):
        assert load_model(io.StringIO("UNA-TFIDF v1 N=1 m=0\nranks:\n")).m == 0
        assert load_model(io.StringIO("UNA-TFIDF v1 N=1 m=0\nranks:\n\n")).m == 0
        model = load_model(io.StringIO("UNA-TFIDF v1 N=1 m=1\nx\t0.0\t0.0\nranks:\n0\n"))
        assert (model.m, model.rank_by_score.tolist()) == (1, [0])

    def test_empty_vocabulary_rejects_an_id(self):
        error = _load_error("UNA-TFIDF v1 N=1 m=0\nranks:\n0\n")
        assert (error.line_number, str(error)) == (3, "line 3: term id 0 out of range [0, 0)")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_array_checks_agree_with_scan(self, data):
        # A valid section, maybe shuffled, with up to two ids replaced or
        # inserted, broken into lines at random.
        m = data.draw(st.integers(0, 6))
        max_score = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=m, max_size=m)))
        tokens = [str(term_id) for term_id in tfidf.rank_terms_by_score(max_score).tolist()]
        if data.draw(st.booleans()):
            tokens = data.draw(st.permutations(tokens))
        for _ in range(data.draw(st.integers(0, 2))):
            token = data.draw(st.sampled_from(["0", "1", "7", "00", "x", "-1", "\u0661", "9" * 20]))
            index = data.draw(st.integers(0, len(tokens)))
            if index < len(tokens) and data.draw(st.booleans()):
                tokens[index] = token
            else:
                tokens.insert(index, token)
        lines = [""]
        for token in tokens:
            if data.draw(st.booleans()):
                lines.append("")
            lines[-1] += f" {token}"

        fast = tfidf._rank_ids("\n".join(lines), max_score)
        try:
            scanned = tfidf._scan_rank_ids(lines, 7, max_score)
        except ModelFormatError:
            assert fast is None
        else:
            assert fast is not None and fast.tolist() == scanned.tolist()


class TestPlainText:
    @pytest.mark.parametrize("header", ["UNA-TFIDF v1 N=\u0663 m=2", "UNA-TFIDF v1 N=2 m=\u0662"])
    def test_header_rejects_non_ascii_digits(self, two_doc_model, header):
        buffer = io.StringIO()
        save_model(two_doc_model, buffer)
        lines = buffer.getvalue().split("\n")
        lines[0] = header
        assert _load_error("\n".join(lines)).line_number == 1

    @pytest.mark.parametrize("text", ["1_0", " 0.25", "0.25 ", "0.2\u00a0", "\x0b0.5", "\u0663", "0.\u0662", "\u0663e1"])
    @pytest.mark.parametrize("field, label", [(1, "idf"), (2, "max_score")])
    def test_score_text_must_be_plain(self, two_doc_model, text, field, label):
        buffer = io.StringIO()
        save_model(two_doc_model, buffer)
        lines = buffer.getvalue().split("\n")
        fields = lines[2].split("\t")
        fields[field] = text
        lines[2] = "\t".join(fields)
        error = _load_error("\n".join(lines))
        assert (error.line_number, str(error)) == (3, f"line 3: bad {label} value {text!r}")

    @pytest.mark.parametrize("text", ["-1_0", " inf", "1_0e999", "-\u0661"])
    def test_range_is_checked_before_plainness(self, two_doc_model, text):
        lines = _saved(save_model, two_doc_model).split("\n")
        lines[2] = f"b\t{text}\t0.1"
        error = _load_error("\n".join(lines))
        assert (error.line_number, str(error)) == (3, f"line 3: idf must be finite and >= 0, got {text}")

    def test_first_bad_score_text_is_named(self, two_doc_model):
        buffer = io.StringIO()
        save_model(two_doc_model, buffer)
        lines = buffer.getvalue().split("\n")
        lines[2] = "b\t1_0\t0.1"
        lines[3] = "c\t0.5\t 0.1"
        assert str(_load_error("\n".join(lines))) == "line 3: bad idf value '1_0'"

    def test_bad_score_text_named_before_a_later_fault(self):
        # Each score text is checked where it is parsed, so the bad idf of
        # line 2 is named, not the missing field of line 4 in its chunk.
        lines = _HAND_MODEL.split("\n")
        lines[1] = "w\t1_0\t0.1"
        lines[3] = "y\t1.0"
        text = "\n".join(lines) + "0 1 2 3\n"
        want = ("error", 2, "line 2: bad idf value '1_0'")
        assert _load_outcome(text) == _load_outcome(text, reference_load_model) == want

    def test_bad_score_text_named_across_check_chunks(self):
        # The term section is read a chunk of lines at a time.
        chunk = tfidf._TERM_CHUNK_LINES
        m = 2 * chunk + 5
        rows = [f"t{term_id}\t1.0\t0.5" for term_id in range(m)]
        ranks = "ranks:\n" + " ".join(map(str, range(m))) + "\n"
        header = f"UNA-TFIDF v1 N=2 m={m}\n"
        assert load_model(io.StringIO(header + "\n".join(rows) + "\n" + ranks)).m == m
        for bad in [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, m - 1]:
            lines = list(rows)
            lines[bad] += " "
            error = _load_error(header + "\n".join(lines) + "\n" + ranks)
            assert str(error) == f"line {bad + 2}: bad max_score value '0.5 '"

    def test_lowercase_alphanumeric_code_points_are_one_token(self):
        # load_model accepts a term that is alphanumeric and its own
        # lowercase without calling tokenize.
        for code_point in range(sys.maxunicode + 1):
            char = chr(code_point)
            if char.isalnum():
                assert not char.isspace(), f"alphanumeric U+{code_point:04X} is whitespace"
                if char.lower() == char:
                    assert tokenize(char) == [char], f"U+{code_point:04X}"

    @settings(max_examples=300)
    @given(st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=12))
    def test_lowercase_alphanumeric_terms_are_one_token(self, text):
        if text.isalnum() and text.lower() == text:
            assert tokenize(text) == [text]


def _load_outcome(text: str, load=lambda text: load_model(io.StringIO(text))):
    """What a loader makes of a model text: its error, or its columns."""
    try:
        model = load(text)
    except ModelFormatError as error:
        return "error", error.line_number, str(error)
    return "model", model.vocabulary.terms, model.idf.tobytes(), model.max_score.tobytes(), model.rank_by_score.tobytes()


def _random_edits(text: str, rng: np.random.Generator, count: int):
    """count copies of text, each with one character of its term section
    inserted, replaced or deleted."""
    section_end = text.index("ranks:")
    pool = list("\t\n -_eE.+0123456789aZé²#\r ١") + ["ab", "-0", "1e9999"]
    for _ in range(count):
        at = int(rng.integers(text.index("\n") + 1, section_end))
        piece = pool[int(rng.integers(len(pool)))]
        edit = int(rng.integers(3))
        if edit == 0:
            yield text[:at] + piece + text[at:]
        elif edit == 1:
            yield text[:at] + piece + text[at + 1 :]
        else:
            yield text[:at] + text[at + 1 :]


class TestTermColumns:
    """load_model, which reads the term section in chunks through a
    regex-gated column parse, against the whole-text oracle in helpers."""

    # Terms of every kind that tokenize keeps, "+", "$5", "a+" and "©"
    # among them: their ends are not alphanumeric.
    TERMS = ["the", "ba-loki", "x-45c", "don't", "ärger", "日本", "straße", "a", "7", "naïve", "q2",
             "+", "$5", "a+", "©"]

    @pytest.fixture
    def saved(self):
        corpus = corpus_from_token_lists([self.TERMS[k::3] + ["the"] for k in range(3)] + [self.TERMS[:2]])
        buffer = io.StringIO()
        save_model(fit(corpus), buffer)
        return buffer.getvalue()

    @pytest.fixture(params=[None, 4, 1], ids=["chunk-default", "chunk-4", "chunk-1"])
    def chunk_lines(self, request, monkeypatch):
        """Term lines per chunk: the default, which holds all of saved's,
        or few enough that saved's term section spans several chunks."""
        if request.param is not None:
            monkeypatch.setattr(tfidf, "_TERM_CHUNK_LINES", request.param)
        return tfidf._TERM_CHUNK_LINES

    def assert_matches_loop(self, text):
        got = _load_outcome(text)
        assert got == _load_outcome(text, reference_load_model)
        return got

    def test_saved_models_take_the_column_path(self, saved):
        lines = saved.split("\n")
        m = len(self.TERMS)
        ids = {}
        terms, idf_values, max_score = tfidf._term_columns("\n".join(lines[1 : 1 + m]), ids)
        want = reference_load_terms(lines[1 : 1 + m])
        assert terms == want[0].terms and ids == {term: want[0].get(term) for term in terms}
        assert idf_values.tobytes() == want[1].tobytes() and max_score.tobytes() == want[2].tobytes()

    @pytest.mark.parametrize(
        "field, text",
        [(0, t) for t in ["Ab", "a b", "-ab", "ab-", "+", "$5", "a_b", "_a", "", "Ärger", "ǅ", "x²", "a\u00a0b", "ab\r",
                          "the", "a#", "ⅸ", "İ", "σς", "Σ"]]
        + [(f, t) for f in (1, 2) for t in ["1E5", "-0.0", "-1", "1e999", "nan", "inf", "1_0", " 1", "+1", "1.", ".5",
                                              "e5", "١", "", "0x10", "1e5", "5e-324", "1.5e+300", "1e", "1..2", "-"]],
    )
    @pytest.mark.parametrize("line", [0, 5, 10])
    def test_corrupted_field_matches_loop(self, saved, field, text, line):
        lines = saved.split("\n")
        fields = lines[1 + line].split("\t")
        fields[field] = text
        lines[1 + line] = "\t".join(fields)
        self.assert_matches_loop("\n".join(lines))

    @pytest.mark.parametrize("line", [0, 5, 10])
    def test_corrupted_structure_matches_loop(self, saved, line):
        lines = saved.split("\n")
        row = lines[1 + line]
        for changed in [row + "\t", row.rsplit("\t", 1)[0], row.replace("\t", " ", 1), row.replace("\t", "\n", 1),
                        row + "\n" + row, "\t" + row, row.replace("\t", "\t\t", 1)]:
            self.assert_matches_loop("\n".join(lines[: 1 + line] + [changed] + lines[2 + line :]))
        self.assert_matches_loop("\n".join(lines[: 1 + line] + lines[2 + line :]))

    def test_random_edits_match_loop(self, saved):
        outcomes = {self.assert_matches_loop(text)[0] for text in _random_edits(saved, np.random.default_rng(5), 400)}
        assert outcomes == {"error", "model"}

    @pytest.mark.parametrize("chunk", [4, 1])
    def test_random_edits_match_loop_in_small_chunks(self, saved, monkeypatch, chunk):
        monkeypatch.setattr(tfidf, "_TERM_CHUNK_LINES", chunk)
        texts = _random_edits(saved, np.random.default_rng(6), 400)
        assert {self.assert_matches_loop(text)[0] for text in texts} == {"error", "model"}

    @pytest.mark.parametrize("kept", [3, 8, 11, 12])
    def test_truncated_after_an_early_bad_line(self, saved, chunk_lines, kept):
        # Truncation is reported even when a term line before the cut, in
        # an earlier chunk, is bad. The model keeps saved's first 11 terms
        # and kept counts the lines left after the header, so 11 keeps
        # every term line and 12 the rank header too.
        lines = saved.split("\n")
        term, _, score = lines[2].split("\t")
        header = lines[0].replace(f" m={len(self.TERMS)}", " m=11")
        lines = [header, lines[1], "\t".join([term, "1_0", score]), *lines[3:12], "ranks:"]
        text = "\n".join(lines[: 1 + kept]) + "\n"
        outcome = self.assert_matches_loop(text)
        if kept < 12:
            assert outcome == ("error", kept + 2, f"line {kept + 2}: truncated file: missing term or rank lines")
        else:
            assert outcome == ("error", 3, "line 3: bad idf value '1_0'")

    def test_duplicate_before_a_bad_score_in_a_later_chunk(self, saved, chunk_lines):
        # A duplicate on line 4 is reported, not the bad score on line 7,
        # although with 4 lines a chunk the score's chunk comes later.
        lines = saved.split("\n")
        lines[3] = "\t".join(["the"] + lines[3].split("\t")[1:])
        lines[6] = "\t".join(lines[6].split("\t")[:2] + ["-1"])
        assert self.assert_matches_loop("\n".join(lines)) == ("error", 4, "line 4: duplicate term 'the'")

    def test_crlf_model(self, saved, chunk_lines):
        outcome = self.assert_matches_loop(saved.replace("\n", "\r\n"))
        assert outcome == _load_outcome(saved)

    def test_lone_carriage_return_in_a_term_read_from_a_path(self, saved, chunk_lines, tmp_path):
        # The file's lines end at "\n" only: a lone "\r" stays in its line,
        # whose term is then two tokens.
        lines = saved.split("\n")
        lines[5] = "\t".join(["ab\rcd"] + lines[5].split("\t")[1:])
        text = "\n".join(lines)
        path = tmp_path / "model.txt"
        path.write_bytes(text.encode("utf-8"))
        want = ("error", 6, "line 6: term 'ab\\rcd' is not a single token")
        assert _load_outcome(path, load_model) == _load_outcome(text, reference_load_model) == want

    def test_symbol_ended_terms_in_every_chunk_take_the_column_path(self, monkeypatch):
        # One symbol-ended term in each chunk of 4 lines; the line scan,
        # which only names a fault, must not run.
        def scan(term_lines, first, ids):
            raise AssertionError(f"chunk at line {2 + first} was scanned")

        monkeypatch.setattr(tfidf, "_TERM_CHUNK_LINES", 4)
        monkeypatch.setattr(tfidf, "_scan_terms", scan)
        symbols = ["+", "$5", "a+", "©", "x°", "<b>", "€", "±1"]
        terms = [term for k, symbol in enumerate(symbols) for term in (symbol, f"w{k}", f"v{k}", f"u{k}")]
        text = (f"UNA-TFIDF v1 N=3 m={len(terms)}\n" + "".join(f"{term}\t1.5\t0.25\n" for term in terms)
                + "ranks:\n" + " ".join(map(str, range(len(terms)))) + "\n")
        outcome = self.assert_matches_loop(text)
        assert outcome[:2] == ("model", terms)

    def test_gate_classes_match_str_methods(self):
        # The gate reads \s as str.isspace(), the whitespace of str.split().
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", text) == [char for char in text if char.isspace()]


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


# Bit patterns that save_model must write as the per-value writer does:
# both zeros, the smallest and largest subnormals, the smallest normal,
# infinities, NaNs with other signs and payloads, and reprs of 17 digits.
_EDGE_BITS = [_bits(x) for x in (0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                                 math.inf, -math.inf, math.nan, -math.nan, 0.1, 1 / 3, 1e16, 1.5e300)]
_EDGE_BITS += [0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]


def _model_from_bits(idf_bits, score_bits, n_docs=7) -> TfIdfModel:
    idf_values = np.array(idf_bits, dtype=np.uint64).view(np.float64)
    max_score = np.array(score_bits, dtype=np.uint64).view(np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf in the score prefix sums
        return TfIdfModel(Vocabulary(f"t{k}" for k in range(idf_values.size)), n_docs, idf_values, max_score)


@st.composite
def _repeating_bit_columns(draw):
    """Two columns of m float64 bit patterns drawn from a pool of a few
    values, so that most values repeat, within and across the columns."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_EDGE_BITS), st.integers(0, 2**64 - 1)), min_size=1, max_size=6))
    m = draw(st.integers(0, 40))
    column = st.lists(st.sampled_from(pool), min_size=m, max_size=m)
    return draw(column), draw(column)


def _saved(save, model) -> str:
    buffer = io.StringIO()
    save(model, buffer)
    return buffer.getvalue()


def _model_with_repeated_scores(m: int) -> TfIdfModel:
    """m terms whose idf and max_score take a few hundred distinct values."""
    rng = np.random.default_rng(0)
    idf_values = rng.choice(np.log(np.arange(1, 301) / 7.0) ** 2, m)
    return TfIdfModel(Vocabulary(f"t{k}" for k in range(m)), 5000, idf_values,
                      idf_values * rng.choice(np.log1p(1 / np.arange(1, 6)), m))


_RANK_CHUNK = tfidf._RANK_WRITE_IDS


class TestDistinctValues:
    """fit, save_model and load_model convert each distinct value once;
    the results equal those of converting every value."""

    @settings(max_examples=300, deadline=None)
    @given(_repeating_bit_columns())
    def test_save_model_matches_per_value_writer(self, columns):
        # Rank ids are written a chunk at a time; with 3 a chunk, models
        # of up to 40 terms end on and either side of chunk boundaries.
        model = _model_from_bits(*columns)
        want = _saved(reference_save_model, model)
        assert _saved(save_model, model) == want
        with mock.patch.object(tfidf, "_RANK_WRITE_IDS", 3):
            assert _saved(save_model, model) == want

    @pytest.mark.parametrize("m", [0, 1, _RANK_CHUNK - 1, _RANK_CHUNK, _RANK_CHUNK + 1, 2 * _RANK_CHUNK + 1])
    def test_save_model_across_rank_chunks(self, m):
        rng = np.random.default_rng(m)
        model = _model_from_bits(*np.array(_EDGE_BITS, dtype=np.uint64)[rng.integers(len(_EDGE_BITS), size=(2, m))])
        assert _saved(save_model, model) == _saved(reference_save_model, model)

    @pytest.mark.parametrize("idf_bits, score_bits", [([], []), ([_bits(0.0)], [_bits(-0.0)]),
                                                      ([_bits(-0.0)], [_bits(math.nan)])])
    def test_save_model_of_empty_and_single_term_models(self, idf_bits, score_bits):
        model = _model_from_bits(idf_bits, score_bits)
        assert _saved(save_model, model) == _saved(reference_save_model, model)

    def test_signed_zeros_keep_their_text(self):
        text = _saved(save_model, _model_from_bits([_bits(0.0), _bits(-0.0)] * 2, [_bits(-0.0), _bits(0.0)] * 2))
        assert text.split("\n")[1:5] == ["t0\t0.0\t-0.0", "t1\t-0.0\t0.0", "t2\t0.0\t-0.0", "t3\t-0.0\t0.0"]

    def test_idf_of_repeated_and_zero_document_frequencies(self):
        # Term k occurs in the first k % 5 of 40 documents, so 50 terms
        # share five document frequencies, ten of them zero.
        pool = [f"w{k}" for k in range(50)]
        token_lists = [[term for k, term in enumerate(pool) if doc < k % 5] + ["every"] for doc in range(40)]
        corpus = corpus_from_token_lists(token_lists, pool + ["every", "unused"])
        model, expected = fit(corpus), reference_fit(corpus)
        _assert_bit_equal(model.idf, expected.idf)
        _assert_bit_equal(model.max_score, expected.max_score)
        assert np.unique(model.idf).size == 5
        assert model.idf[-2:].tolist() == [0.0, 0.0] and _bits(model.idf[-2]) == 0  # every: -0.0 made 0.0

    @pytest.mark.parametrize("chunk", [None, 4, 1])
    @pytest.mark.parametrize("bad_lines", [(3, 6), (5, 6), (2, 9)], ids=["one-chunk", "adjacent", "apart"])
    def test_repeated_bad_text_is_named_at_its_first_line(self, monkeypatch, chunk, bad_lines):
        # 1e999 parses to inf: its first line is named, whether its repeat
        # lies in the same chunk of term lines or in a later one.
        if chunk is not None:
            monkeypatch.setattr(tfidf, "_TERM_CHUNK_LINES", chunk)
        m = 10
        lines = [f"t{k}\t1.5\t0.25" for k in range(m)]
        for line in bad_lines:
            lines[line] = f"t{line}\t1.5\t1e999"
        text = f"UNA-TFIDF v1 N=2 m={m}\n" + "\n".join(lines) + "\nranks:\n" + " ".join(map(str, range(m))) + "\n"
        want = f"line {bad_lines[0] + 2}: max_score must be finite and >= 0, got 1e999"
        assert str(_load_error(text)) == want
        assert _load_outcome(text, reference_load_model)[2] == want

    def test_same_text_in_both_columns_of_a_chunk(self):
        text = "UNA-TFIDF v1 N=2 m=3\na\t0.5\t0.5\nb\t0.25\t0.5\nc\t0.5\t-0.0\nranks:\n2 0 1\n"
        model = load_model(io.StringIO(text))
        assert model.idf.tolist() == [0.5, 0.25, 0.5] and model.max_score.tolist() == [0.5, 0.5, 0.0]
        assert _bits(model.max_score[2]) == _bits(-0.0)
        assert _saved(save_model, model) == text

    def test_save_model_peak_memory(self):
        # 20k terms with a few hundred distinct scores. The distinct-value
        # texts and their gathers hold arrays of m bit patterns and m
        # pointers (~50 bytes a term), less than the rank section's join of
        # m id strings (~68 bytes a term) that the per-value writer holds;
        # a text object per value would add ~70 bytes a term a column.
        m = 20_000
        model = _model_with_repeated_scores(m)

        class Sink:
            """Discards the text; notes the traced peak when the term lines end."""

            def write(self, text):
                if text == "ranks:\n":
                    self.term_peak = tracemalloc.get_traced_memory()[1]

            def writelines(self, lines):
                for _ in lines:
                    pass

        def peaks(save):
            sink = Sink()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                save(model, sink)
                return sink.term_peak - base, tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        term_peak, peak = peaks(save_model)
        assert term_peak < 64 * m
        assert peak < 1.1 * peaks(reference_save_model)[1]

    def test_save_model_rank_section_peak_memory(self):
        # The rank ids are written a chunk at a time, so the section's
        # traced peak is one chunk's ints, id strings and text (~100 bytes
        # an id), not m id strings and their join (~1.4 MB here).
        m = 20_000
        model = _model_with_repeated_scores(m)

        class Sink:
            """Discards the text; notes the traced memory when the rank section starts."""

            def write(self, text):
                if text == "ranks:\n":
                    self.rank_base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()

            def writelines(self, lines):
                for _ in lines:
                    pass

        sink = Sink()
        tracemalloc.start()
        try:
            save_model(model, sink)
            rank_peak = tracemalloc.get_traced_memory()[1] - sink.rank_base
        finally:
            tracemalloc.stop()
        assert rank_peak < 200 * _RANK_CHUNK


class TestModelInput:
    """load_model reads a model file as every input file is read: UTF-8,
    lines ending at LF with trailing CRs dropped, from a path, a binary or
    text stream, or chunks, and invalid UTF-8 names its line and byte."""

    # About 57 KB, so its sections span several of the reader's blocks.
    MODEL = synthetic_model(np.random.default_rng(0).choice([0.1, 0.2, 0.3], 3000))

    @pytest.mark.parametrize("section", ["header", "terms", "ranks"])
    def test_invalid_byte_names_line_and_offset(self, tmp_path, section):
        data = bytearray(_saved(save_model, self.MODEL).encode("utf-8"))
        offset = {"header": 4, "terms": data.index(b"\nt2500\t") + 3, "ranks": len(data) - 8}[section]
        data[offset] = 0xFF
        line = data.count(b"\n", 0, offset) + 1
        path = tmp_path / "model.txt"
        path.write_bytes(data)
        for source in (path, io.BytesIO(data)):
            with pytest.raises(CorpusDecodeError) as err:
                load_model(source)
            assert (err.value.line_number, err.value.byte_offset) == (line, offset)
            assert str(err.value) == f"invalid UTF-8 at byte {offset} (line {line}): invalid start byte"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_streams_and_chunks_load_as_the_path(self, tmp_path, newline):
        text = _saved(save_model, self.MODEL).replace("\n", newline)
        data = text.encode("utf-8")
        path = tmp_path / "model.txt"
        path.write_bytes(data)
        assert load_model(path) == self.MODEL
        with open(path, "rb") as handle:
            assert load_model(handle) == self.MODEL
        assert load_model(io.BytesIO(data)) == self.MODEL
        assert load_model(io.BytesIO(data).readlines()) == self.MODEL
        assert load_model(io.StringIO(text)) == self.MODEL
