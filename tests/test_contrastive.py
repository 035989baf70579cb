"""Contrastive loss math, the toy encoder, and pair ingestion."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_encode, reference_term_vector
from una import contrastive
from una.contrastive import (
    GATHER_ROWS,
    ContrastiveConfig,
    PairsFormatError,
    ToyEncoder,
    batch_loss,
    cosine_similarity,
    info_nce,
    load_pairs,
    row_dots,
)
from una.corpus import Vocabulary


def basis(dim, index):
    v = np.zeros(dim)
    v[index] = 1.0
    return v


def test_row_dots_match_ndarray_dot_bit_for_bit():
    """row_dots stands in for ndarray.dot in encode_many's norms and in
    evaluate_pairs' cosines. A numpy or BLAS build whose stacked matmul
    sums in another order than its dot fails here by name, instead of
    moving rho in the last bits."""
    rng = np.random.default_rng(21)
    differing = []
    for dim in [*range(1, 301), 1024, 4096]:
        a, b = rng.standard_normal((2, 9, dim))
        expected = [u.dot(v) for u, v in zip(a, b)] + [u.dot(u) for u in a] + [float(u @ v) for u, v in zip(a, b)]
        got = [*row_dots(a, b).tolist(), *row_dots(a, a).tolist(), *row_dots(a, b).tolist()]
        if np.array(got).tobytes() != np.array(expected).tobytes():
            differing.append(dim)
    assert not differing, f"stacked matmul differs from ndarray.dot at dims {differing}"


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


class TestInfoNce:
    def test_zero_loss(self):
        loss = info_nce(basis(3, 0), basis(3, 1), [basis(3, 2)], 1.0)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_two_orthogonal_negatives(self):
        loss = info_nce(basis(4, 0), basis(4, 1), [basis(4, 2), basis(4, 3)], 1.0)
        assert loss == pytest.approx(math.log(2), abs=1e-9)

    def test_negative_loss_when_positive_dominates(self):
        loss = info_nce(basis(3, 0), basis(3, 0), [basis(3, 2)], 1.0)
        assert loss == pytest.approx(-1.0, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        anchor, positive = rng.standard_normal((2, 8))
        negatives = list(rng.standard_normal((5, 8)))
        base = info_nce(anchor, positive, negatives, 0.05)
        shuffled = info_nce(anchor, positive, negatives[::-1], 0.05)
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_adding_negative_increases_loss(self):
        rng = np.random.default_rng(1)
        anchor, positive, extra = rng.standard_normal((3, 8))
        negatives = list(rng.standard_normal((4, 8)))
        assert info_nce(anchor, positive, negatives + [extra], 0.05) > info_nce(
            anchor, positive, negatives, 0.05
        )

    def test_monotone_in_positive_similarity(self):
        anchor = basis(2, 0)
        negatives = [basis(2, 1)]
        losses = []
        for angle in np.linspace(0.1, 1.4, 8):
            positive = np.array([math.cos(angle), math.sin(angle)])
            losses.append(info_nce(anchor, positive, negatives, 0.5))
        assert all(a < b for a, b in zip(losses, losses[1:]))  # cos decreasing in angle

    def test_extreme_temperature_stays_finite(self):
        anchor = basis(2, 0)
        negatives = [basis(2, 0), -basis(2, 0)]
        loss = info_nce(anchor, basis(2, 0), negatives, 1e-3)
        assert math.isfinite(loss)

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError):
            info_nce(basis(2, 0), basis(2, 1), [], 1.0)

    def test_non_finite_input_rejected(self):
        bad = np.array([np.nan, 1.0])
        with pytest.raises(ValueError):
            info_nce(bad, basis(2, 1), [basis(2, 0)], 1.0)
        with pytest.raises(ValueError):
            info_nce(basis(2, 0), basis(2, 1), [np.array([np.inf, 0.0])], 1.0)

    def test_bad_tau_rejected(self):
        for tau in (0.0, -1.0, math.nan, math.inf, True, np.bool_(True), "0.05", None, 1j):
            with pytest.raises(ValueError):
                info_nce(basis(2, 0), basis(2, 1), [basis(2, 1)], tau)


def mean_info_nce(anchors, positives, negatives, tau):
    """The batch loss by definition: each anchor against the others plus the negatives."""
    return np.mean([
        info_nce(anchors[i], positives[i], anchors[:i] + anchors[i + 1:] + negatives, tau)
        for i in range(len(anchors))
    ])


class TestBatchLoss:
    def test_two_pair_orthogonal_example(self):
        anchors = [basis(4, 0), basis(4, 1)]
        positives = [basis(4, 0), basis(4, 1)]
        loss = batch_loss(anchors, positives, config=ContrastiveConfig(tau=1.0))
        assert loss == pytest.approx(-1.0, abs=1e-9)

    def test_appended_negative_increases_loss(self):
        anchors = [basis(4, 0), basis(4, 1)]
        positives = [basis(4, 0), basis(4, 1)]
        config = ContrastiveConfig(tau=1.0)
        base = batch_loss(anchors, positives, config=config)
        with_extra = batch_loss(anchors, positives, una_negatives=[basis(4, 3)], config=config)
        assert with_extra > base

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(5)
        anchors = list(rng.standard_normal((6, 8)))
        positives = list(rng.standard_normal((6, 8)))
        config = ContrastiveConfig(tau=0.05)
        base = batch_loss(anchors, positives, config=config)
        permuted = batch_loss(anchors[::-1], positives[::-1], config=config)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_small_batch_without_negatives_rejected(self):
        with pytest.raises(ValueError):
            batch_loss([basis(2, 0)], [basis(2, 1)], config=ContrastiveConfig(tau=1.0))

    def test_single_anchor_with_generated_negatives(self):
        loss = batch_loss(
            [basis(3, 0)],
            [basis(3, 1)],
            una_negatives=[basis(3, 2)],
            config=ContrastiveConfig(tau=1.0),
        )
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            batch_loss([basis(2, 0)], [basis(2, 1), basis(2, 0)])

    def test_mean_of_info_nce_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n, dim, k = int(rng.integers(1, 65)), int(rng.integers(2, 257)), int(rng.integers(0, 65))
            if n == 1:
                k = max(k, 1)
            tau = float(rng.uniform(0.05, 2.0))
            anchors = list(rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, (n, 1)))
            positives = list(rng.standard_normal((n, dim)))
            negatives = list(rng.standard_normal((k, dim)))
            got = batch_loss(anchors, positives, una_negatives=negatives, config=ContrastiveConfig(tau=tau))
            assert got == pytest.approx(mean_info_nce(anchors, positives, negatives, tau), rel=1e-12)

    def test_extreme_temperature_stays_finite(self):
        anchors = [basis(2, 0), basis(2, 1), -basis(2, 0)]
        positives = [basis(2, 0), basis(2, 0), basis(2, 1)]
        negatives = [basis(2, 0)]
        tau = 1e-3  # logits up to 1000, past exp's overflow
        got = batch_loss(anchors, positives, una_negatives=negatives, config=ContrastiveConfig(tau=tau))
        assert math.isfinite(got)
        assert got == pytest.approx(mean_info_nce(anchors, positives, negatives, tau), rel=1e-12)

    @pytest.mark.parametrize(
        "anchors, positives, negatives",
        [
            ([], [], [basis(2, 0)]),  # empty batch
            ([basis(2, 0), np.zeros(2)], [basis(2, 1), basis(2, 0)], []),  # zero anchor
            ([basis(2, 0), basis(2, 1)], [basis(2, 1), np.zeros(2)], []),  # zero positive
            ([basis(2, 0), basis(2, 1)], [basis(2, 1), basis(2, 0)], [np.zeros(2)]),  # zero negative
            ([basis(2, 0), np.array([np.nan, 1.0])], [basis(2, 1), basis(2, 0)], []),
            ([basis(2, 0), basis(2, 1)], [basis(2, 1), np.array([np.inf, 0.0])], []),
            ([basis(2, 0), basis(2, 1)], [basis(2, 1), basis(2, 0)], [np.array([1.0, np.nan])]),
            ([basis(2, 0), basis(3, 1)], [basis(2, 1), basis(2, 0)], []),  # ragged anchors
            ([basis(2, 0), basis(2, 1)], [basis(3, 1), basis(3, 0)], []),  # positive dimension
            ([basis(2, 0), basis(2, 1)], [basis(2, 1), basis(2, 0)], [basis(4, 0)]),  # negative dimension
            ([basis(4, 0), basis(4, 1)], [basis(4, 1), basis(4, 0)], [basis(2, 0), basis(2, 1)]),
        ],
    )
    def test_bad_inputs_rejected(self, anchors, positives, negatives):
        with pytest.raises(ValueError):
            batch_loss(anchors, positives, una_negatives=negatives, config=ContrastiveConfig(tau=1.0))

    def test_config_validation(self):
        for tau in (0.0, -0.5, math.nan, math.inf, True, np.bool_(True), "0.05", None, 1j):
            with pytest.raises(ValueError):
                ContrastiveConfig(tau=tau)
        for tau in (1, 0.05, np.float32(0.5), np.int64(2)):
            assert ContrastiveConfig(tau=tau).tau == tau
        with pytest.raises(ValueError):
            ContrastiveConfig(batch_size=0)
        assert ContrastiveConfig() == ContrastiveConfig(tau=0.05, batch_size=64)


class TestToyEncoder:
    @pytest.fixture
    def vocabulary(self):
        return Vocabulary(["alpha", "beta", "gamma", "delta"])

    def test_deterministic(self, vocabulary):
        first = ToyEncoder(vocabulary, dim=32, seed=5)
        second = ToyEncoder(vocabulary, dim=32, seed=5)
        np.testing.assert_array_equal(
            first.encode(["alpha", "beta"]), second.encode(["alpha", "beta"])
        )

    def test_seed_changes_embedding(self, vocabulary):
        a = ToyEncoder(vocabulary, dim=32, seed=1).encode(["alpha"])
        b = ToyEncoder(vocabulary, dim=32, seed=2).encode(["alpha"])
        assert not np.allclose(a, b)

    def test_bag_of_words_order_invariance(self, vocabulary):
        encoder = ToyEncoder(vocabulary, dim=32, seed=0)
        np.testing.assert_array_equal(
            encoder.encode(["alpha", "beta", "gamma"]),
            encoder.encode(["gamma", "alpha", "beta"]),
        )

    def test_unit_norm(self, vocabulary):
        encoder = ToyEncoder(vocabulary, dim=32, seed=0)
        assert np.linalg.norm(encoder.encode(["alpha", "beta"])) == pytest.approx(1.0)

    def test_empty_and_oov_fallback(self, vocabulary):
        encoder = ToyEncoder(vocabulary, dim=8, seed=0)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(encoder.encode([]), expected)
        np.testing.assert_array_equal(encoder.encode(["zzz", "qqq"]), expected)

    def test_oov_tokens_ignored(self, vocabulary):
        encoder = ToyEncoder(vocabulary, dim=32, seed=0)
        np.testing.assert_array_equal(
            encoder.encode(["alpha", "zzz"]), encoder.encode(["alpha"])
        )

    def test_disjoint_sentences_nearly_orthogonal(self):
        rng = np.random.default_rng(9)
        terms = [f"word{k}" for k in range(40)]
        vocabulary = Vocabulary(terms)
        encoder = ToyEncoder(vocabulary, dim=256, seed=3)
        cosines = []
        for _ in range(50):
            picks = rng.permutation(40)
            left = [terms[int(i)] for i in picks[:5]]
            right = [terms[int(i)] for i in picks[5:10]]
            cosines.append(cosine_similarity(encoder.encode(left), encoder.encode(right)))
        assert abs(np.mean(cosines)) < 0.05
        assert max(abs(c) for c in cosines) < 0.5

    def test_bad_dim_rejected(self, vocabulary):
        with pytest.raises(ValueError):
            ToyEncoder(vocabulary, dim=0)

    @pytest.mark.parametrize("dim", [2.5, 8.0, True, "8", None])
    def test_non_int_dim_rejected_at_construction(self, vocabulary, dim):
        with pytest.raises(ValueError, match="dim"):
            ToyEncoder(vocabulary, dim=dim, seed=1)

    def test_numpy_int_dim_accepted(self, vocabulary):
        assert ToyEncoder(vocabulary, dim=np.int64(5)).encode(["alpha"]).shape == (5,)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed_rejected_at_construction(self, vocabulary, seed):
        with pytest.raises(ValueError, match="seed"):
            ToyEncoder(vocabulary, dim=8, seed=seed)

    @pytest.mark.parametrize("seed", [2**64, 10**4298], ids=["2**64", "4299-digits"])
    def test_seed_outside_64_bits_rejected(self, vocabulary, seed):
        # a longer seed would make every term vector hash all its words
        with pytest.raises(ValueError, match="seed"):
            ToyEncoder(vocabulary, dim=8, seed=seed)

    def test_large_and_numpy_seeds_accepted(self, vocabulary):
        for seed in (0, 2**64 - 1, np.uint64(7)):
            assert ToyEncoder(vocabulary, dim=8, seed=seed).encode(["alpha"]).shape == (8,)


def assert_same_bytes(encoder, tokens):
    expected = reference_encode(encoder, tokens).tobytes()
    assert encoder.encode(tokens).tobytes() == expected
    assert [row.tobytes() for row in encoder.encode_many([tokens, [], tokens])] == [
        expected, encoder.encode([]).tobytes(), expected
    ]


class TestEncodeMatchesReference:
    """encode against the per-term loop in helpers, compared bit for bit."""

    TERMS = [f"w{k}" for k in range(80)] + ["Zeta", "alpha", "Ärger", "日本", "a-b", "aa", "a"]

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 256])
    def test_random_sentences(self, dim):
        rng = np.random.default_rng(dim)
        encoder = ToyEncoder(Vocabulary(self.TERMS), dim=dim, seed=dim + 10)
        for _ in range(40):
            distinct = rng.choice(self.TERMS, size=int(rng.integers(1, 65)), replace=False).tolist()
            tokens = distinct + rng.choice(distinct, size=int(rng.integers(0, 40))).tolist()
            rng.shuffle(tokens)
            assert_same_bytes(encoder, tokens + ["oov-token"])

    @pytest.mark.parametrize("dim", [1, 2, 7, 256])
    def test_empty_and_oov_only(self, dim):
        encoder = ToyEncoder(Vocabulary(self.TERMS), dim=dim, seed=1)
        assert_same_bytes(encoder, [])
        assert_same_bytes(encoder, ["oov", "also-oov", "oov"])

    def test_zero_sum_falls_back(self):
        # At dim 1 every term vector is +1 or -1, so one term of each sign sums to 0.
        signs = {}
        for term in self.TERMS:
            signs.setdefault(reference_term_vector(term, 1, 0)[0], term)
        pair = [signs[1.0], signs[-1.0]]
        encoder = ToyEncoder(Vocabulary(self.TERMS), dim=1, seed=0)
        assert_same_bytes(encoder, pair)
        np.testing.assert_array_equal(encoder.encode(pair), [1.0])
        assert_same_bytes(encoder, pair * 3 + [pair[0]])

    def test_vocabulary_grown_after_first_encode(self):
        vocabulary = Vocabulary(["m", "p", "t"])
        encoder = ToyEncoder(vocabulary, dim=9, seed=4)
        assert_same_bytes(encoder, ["p", "t", "zz", "a"])
        for term in ("zz", "a", "n", "b"):  # new rows before, between and after the old ones
            vocabulary.add(term)
        for tokens in (["p", "t", "zz", "a"], ["a", "b", "m", "n", "p", "t", "zz", "m"], ["n"]):
            assert_same_bytes(encoder, tokens)
            np.testing.assert_array_equal(
                encoder.encode(tokens), ToyEncoder(vocabulary, dim=9, seed=4).encode(tokens)
            )

    def test_token_list_longer_than_one_gather(self):
        terms = [f"t{k:05d}" for k in range(2 * GATHER_ROWS + 5)]
        encoder = ToyEncoder(Vocabulary(terms), dim=8, seed=2)
        tokens = terms + terms[GATHER_ROWS - 3 : GATHER_ROWS + 3] + terms[:2]
        assert_same_bytes(encoder, tokens)
        assert_same_bytes(encoder, terms[GATHER_ROWS - 1 : GATHER_ROWS + 1])

    def test_whole_vocabulary_encode_allocates_little_beyond_the_table(self):
        terms = [f"t{k:05d}" for k in range(20_000)]
        table_bytes = len(terms) * 256 * 8
        for encode in (ToyEncoder.encode, lambda encoder, tokens: encoder.encode_many([tokens])):
            encoder = ToyEncoder(Vocabulary(terms), dim=256, seed=0)
            tracemalloc.start()
            try:
                encode(encoder, terms)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - table_bytes <= 10 * 2**20


@st.composite
def encode_many_runs(draw):
    """A vocabulary of 1 to 40 terms or of more than two gathers' worth,
    a dim (often 1, where rows are +-1 and sums cancel to the fallback)
    and seed, a block size in cells (small ones split a group of equally
    wide sentences into several blocks), how many terms join the
    vocabulary between two calls, and a generator seed for the token
    lists."""
    n_terms = draw(st.one_of(st.integers(1, 40), st.just(2 * GATHER_ROWS + 52)))
    dim = draw(st.sampled_from([1, 1, 2, 3, 8, 64]))
    seed = draw(st.sampled_from([0, 5, 2**64 - 1]))
    cells = draw(st.one_of(st.just(contrastive.BLOCK_CELLS), st.integers(1, 200)))
    return n_terms, dim, seed, cells, draw(st.integers(0, 6)), draw(st.integers(0, 2**32 - 1))


def mixed_token_lists(rng, terms: list[str]) -> list[list[str]]:
    """Up to 12 token lists: empty, out of vocabulary only, few terms
    repeated, many distinct terms (all of them at most), and mixed."""
    lists = []
    for _ in range(int(rng.integers(0, 13))):
        kind = rng.integers(5)
        if kind == 0:
            lists.append([])
        elif kind == 1:
            lists.append(rng.choice(["oov1", "oov2"], size=int(rng.integers(1, 4))).tolist())
        elif kind == 2:
            lists.append(rng.choice(terms[:3], size=int(rng.integers(2, 9))).tolist())
        elif kind == 3:
            distinct = rng.permutation(terms)[: int(rng.integers(1, len(terms) + 1))].tolist()
            lists.append(distinct + distinct[: int(rng.integers(0, 4))] + ["oov1"])
        else:
            lists.append(rng.choice(terms + ["oov1"], size=int(rng.integers(1, 30))).tolist())
    return lists


@settings(max_examples=150, deadline=None)
@given(encode_many_runs())
def test_encode_many_matches_encode(run):
    """Row i of encode_many is encode(token_lists[i]), byte for byte, from
    an encoder that has drawn no row yet and after the vocabulary grew."""
    n_terms, dim, seed, cells, added, lists_seed = run
    rng = np.random.default_rng(lists_seed)
    terms = [f"t{k:04d}" for k in range(n_terms)]
    vocabulary = Vocabulary(terms)
    many = ToyEncoder(vocabulary, dim=dim, seed=seed)
    one = ToyEncoder(vocabulary, dim=dim, seed=seed)
    for _ in range(2):
        token_lists = mixed_token_lists(rng, terms)
        with mock.patch.object(contrastive, "BLOCK_CELLS", cells):
            got = many.encode_many(token_lists)
        assert got.shape == (len(token_lists), dim)
        assert [row.tobytes() for row in got] == [one.encode(tokens).tobytes() for tokens in token_lists]
        for k in range(added):  # new rows before, between and after the others
            terms.append(f"{'a t0000x z'.split()[k % 3]}{k}")
            vocabulary.add(terms[-1])


class TestTermRows:
    """Each filled row of the term table against reference_term_vector, byte for byte."""

    TERMS = [f"w{k}" for k in range(30)] + ["Zeta", "Ärger", "日本", "straße", "cafe\u0301", "🙂", "a-b", "a"]
    LATER = ["früh", "語", "b", "zz", "w15x"]  # rows before, between and after the first ones

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1])
    @pytest.mark.parametrize("dim", [*range(1, 10), 256, 4096])
    def test_rows_match_reference(self, dim, seed):
        vocabulary = Vocabulary(self.TERMS)
        encoder = ToyEncoder(vocabulary, dim=dim, seed=seed)
        first = self.TERMS[::3]
        encoder.encode(first)
        for term in self.LATER:
            vocabulary.add(term)
        encoder.encode(self.TERMS + self.LATER)
        for term in self.TERMS + self.LATER:
            row = encoder._rows[term]
            assert encoder._filled[row]
            assert encoder._table[row].tobytes() == reference_term_vector(term, dim, seed).tobytes(), term

    def test_rows_filled_on_first_use(self):
        encoder = ToyEncoder(Vocabulary(self.TERMS), dim=4, seed=3)
        encoder.encode(["日本", "a", "oov"])
        assert sorted(t for t in self.TERMS if encoder._filled[encoder._rows[t]]) == ["a", "日本"]


class TestLoadPairs:
    def test_empty_stream(self):
        assert len(load_pairs(io.StringIO(""))) == 0

    def test_single_pair(self):
        pair_set = load_pairs(io.StringIO("s1\tp1\n"))
        assert pair_set.pairs == [("s1", "p1")]

    def test_blank_lines_skipped(self):
        pair_set = load_pairs(io.StringIO("s1\tp1\n\ns2\tp2\n"))
        assert len(pair_set) == 2

    def test_missing_column_names_line(self):
        with pytest.raises(PairsFormatError) as err:
            load_pairs(io.StringIO("s1\n"))
        assert err.value.line_number == 1

    def test_extra_column_rejected(self):
        with pytest.raises(PairsFormatError) as err:
            load_pairs(io.StringIO("a\tb\n1\t2\t3\n"))
        assert err.value.line_number == 2

    def test_empty_side_after_tokenization_rejected(self):
        with pytest.raises(PairsFormatError) as err:
            load_pairs(io.StringIO("hello\t...\n"))
        assert err.value.line_number == 1

    def test_iteration(self):
        pair_set = load_pairs(io.StringIO("a\tb\nc\td\n"))
        assert list(pair_set) == [("a", "b"), ("c", "d")]
