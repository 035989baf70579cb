"""Replacement probabilities, candidate windows, sampling, and scheduling."""

import io
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    corpus_documents,
    corpus_from_token_lists,
    corpus_token_lists,
    reference_window_pick,
    synthetic_model,
    zipf_corpus,
)
from una import augment
from una.augment import (
    AugmentationConfig,
    EmptySentenceError,
    NoReplacementError,
    _batch_probabilities,
    _philox_keys,
    _sample_from_rank_window,
    _sentence_rngs,
    _unclamped_probabilities,
    _window_picks,
    augment_batch,
    augment_sentence,
    candidate_window,
    iter_negative_batches,
    replacement_probabilities,
    sample_replacement,
    sentence_rng,
)
from una.corpus import Document, load_corpus
from una.tfidf import SentenceScores, fit, sentence_scores


def scores_of(values):
    values = np.asarray(values, dtype=float)
    return SentenceScores(np.arange(values.size), values)


class TestConfig:
    def test_defaults(self):
        config = AugmentationConfig()
        assert (config.beta, config.radius, config.alpha) == (0.5, 4000, 5)
        assert config.selection_mode == "tfidf" and config.replacement_mode == "tfidf"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": 1.5},
            {"beta": -0.1},
            {"radius": 0},
            {"alpha": 0},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"radius": 2.5},
            {"radius": True},
            {"alpha": 2.5},
            {"alpha": False},
            {"alpha": "5"},
            {"selection_mode": "other"},
            {"replacement_mode": "other"},
            {"beta": True},
            {"beta": np.bool_(True)},
            {"beta": "0.5"},
            {"beta": None},
            {"beta": 0.5j},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AugmentationConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        config = AugmentationConfig(radius=np.int64(3), alpha=np.uint8(2), seed=np.uint64(2**64 - 1))
        assert (config.radius, config.alpha, config.seed) == (3, 2, 2**64 - 1)

    def test_accepts_real_beta_types(self):
        for beta in (1, 0.25, np.float32(0.25), np.float64(0.5), np.int64(1)):
            assert AugmentationConfig(beta=beta).beta == beta

    @pytest.mark.parametrize("beta", [True, "0.5", None])
    def test_beta_type_error_names_the_value(self, beta):
        with pytest.raises(ValueError, match=f"beta must be a real number, got {re.escape(repr(beta))}"):
            AugmentationConfig(beta=beta)


class TestReplacementProbabilities:
    def test_linear_example(self):
        p, forced = replacement_probabilities(scores_of([1.0, 2.0, 3.0]), 0.5)
        np.testing.assert_allclose(p, [0.0, 0.5, 1.0], atol=1e-12)
        assert forced == 2

    def test_forcing_overrides_clamp(self):
        p, forced = replacement_probabilities(scores_of([1.0, 2.0]), 0.3)
        np.testing.assert_allclose(p, [0.0, 1.0], atol=1e-12)
        assert forced == 1

    def test_degenerate_equal_scores(self):
        p, forced = replacement_probabilities(scores_of([0.7, 0.7, 0.7]), 0.5)
        np.testing.assert_array_equal(p, [1.0, 0.0, 0.0])
        assert forced == 0

    def test_single_term(self):
        p, forced = replacement_probabilities(scores_of([2.0]), 0.5)
        np.testing.assert_array_equal(p, [1.0])
        assert forced == 0

    def test_argmax_tie_goes_to_lowest_id(self):
        p, forced = replacement_probabilities(scores_of([1.0, 3.0, 3.0]), 0.5)
        assert forced == 1

    def test_empty_sentence_rejected(self):
        with pytest.raises(EmptySentenceError):
            replacement_probabilities(scores_of([]), 0.5)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            replacement_probabilities(scores_of([1.0, 2.0]), 0.0)

    def test_unclamped_mean_equals_beta(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            z = rng.random(n) * 10
            if np.ptp(z) == 0:
                continue
            beta = 1.0 - rng.random()
            q = _unclamped_probabilities(z, beta)
            assert q.mean() == pytest.approx(beta, abs=1e-9)
            assert np.minimum(q, 1.0).mean() <= beta + 1e-12

    @settings(max_examples=200)
    @given(
        z=st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=15),
        lam=st.floats(0.01, 100),
        shift=st.floats(-50, 50),
        beta=st.floats(0.01, 1.0),
    )
    def test_affine_invariance(self, z, lam, shift, beta):
        z = np.asarray(z)
        mapped = lam * z + shift
        # The property needs the transform to keep distinct scores distinct;
        # rounding can collapse spreads tiny relative to the shift.
        if np.ptp(z) == 0 or np.unique(mapped).size != np.unique(z).size:
            return
        p1, f1 = replacement_probabilities(scores_of(z), beta)
        p2, f2 = replacement_probabilities(scores_of(mapped), beta)
        assert f1 == f2
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_random_mode_uniform_probabilities(self):
        rng = np.random.default_rng(0)
        p, forced = replacement_probabilities(scores_of([5.0, 1.0, 3.0]), 0.4, "random", rng)
        assert 0 <= forced < 3
        expected = np.full(3, 0.4)
        expected[forced] = 1.0
        np.testing.assert_array_equal(p, expected)

    def test_random_mode_forced_term_varies(self):
        rng = np.random.default_rng(1)
        seen = {
            replacement_probabilities(scores_of([1.0, 2.0, 3.0]), 0.5, "random", rng)[1]
            for _ in range(200)
        }
        assert seen == {0, 1, 2}

    def test_random_mode_requires_rng(self):
        with pytest.raises(ValueError):
            replacement_probabilities(scores_of([1.0]), 0.5, "random")


class TestCandidateWindow:
    def test_interior_window(self):
        model = synthetic_model(np.arange(10, dtype=float))
        # identity ranking: term id k sits at rank k
        window = candidate_window(model, 5, 2)
        assert list(window) == [3, 4, 6, 7]

    def test_clamps_at_bottom(self):
        model = synthetic_model(np.arange(10, dtype=float))
        assert list(candidate_window(model, 0, 2)) == [1, 2]

    def test_clamps_at_top(self):
        model = synthetic_model(np.arange(10, dtype=float))
        assert list(candidate_window(model, 9, 3)) == [6, 7, 8]

    def test_radius_covering_whole_vocabulary(self):
        model = synthetic_model([0.3, 0.1, 0.2])
        window = candidate_window(model, 0, 4000)
        assert set(window) == {1, 2}

    def test_window_ordered_by_rank(self):
        model = synthetic_model([0.3, 0.1, 0.2, 0.05])
        # ranks ascending by score: 3, 1, 2, 0
        assert list(candidate_window(model, 2, 2)) == [3, 1, 0]

    def test_unknown_term_rejected(self):
        model = synthetic_model([0.1, 0.2])
        with pytest.raises(ValueError):
            candidate_window(model, 7, 2)

    def test_never_contains_self_and_bounded(self):
        model = synthetic_model(np.random.default_rng(2).random(30))
        for term_id in range(30):
            for radius in (1, 3, 10):
                window = candidate_window(model, term_id, radius)
                assert term_id not in window
                assert len(window) <= 2 * radius
                rank = model.rank_of(term_id)
                for candidate in window:
                    assert abs(model.rank_of(int(candidate)) - rank) <= radius


class TestSampleReplacement:
    def test_singleton_window(self):
        model = synthetic_model([0.1, 0.2])
        rng = np.random.default_rng(0)
        assert sample_replacement(model, [1], "tfidf", rng) == 1

    def test_empty_window_rejected(self):
        model = synthetic_model([0.1])
        with pytest.raises(NoReplacementError):
            sample_replacement(model, [], "tfidf", np.random.default_rng(0))

    def test_weight_proportional_sampling(self):
        model = synthetic_model([0.0, 1.0, 3.0])
        rng = np.random.default_rng(42)
        draws = 20000
        hits = sum(sample_replacement(model, [1, 2], "tfidf", rng) == 2 for _ in range(draws))
        se = (0.75 * 0.25 / draws) ** 0.5
        assert abs(hits / draws - 0.75) < 3 * se

    def test_zero_weight_uniform_fallback(self):
        model = synthetic_model([0.0, 0.0, 0.0, 0.5])
        rng = np.random.default_rng(43)
        draws = 20000
        counts = np.zeros(3)
        for _ in range(draws):
            counts[sample_replacement(model, [0, 1, 2], "tfidf", rng)] += 1
        se = (1 / 3 * 2 / 3 / draws) ** 0.5
        np.testing.assert_allclose(counts / draws, 1 / 3, atol=3 * se)

    def test_random_mode_excludes_original_and_covers_vocab(self):
        model = synthetic_model(np.arange(5, dtype=float))
        rng = np.random.default_rng(44)
        seen = {sample_replacement(model, [], "random", rng, original_term_id=2) for _ in range(500)}
        assert 2 not in seen
        assert seen == {0, 1, 3, 4}

    def test_random_mode_single_term_vocab_rejected(self):
        model = synthetic_model([0.5])
        with pytest.raises(NoReplacementError):
            sample_replacement(model, [], "random", np.random.default_rng(0), original_term_id=0)


class FixedDraw:
    """A stream whose every random() returns the same value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestWindowPicks:
    @pytest.fixture(scope="class")
    def models(self):
        zipf = zipf_corpus(np.random.default_rng(31))
        # five terms in every document (idf 0, score 0) at the lowest ranks,
        # so narrow windows there have no score mass
        other = corpus_token_lists(zipf_corpus(np.random.default_rng(32), n_sentences=150, vocab_size=80))
        return {"zipf": fit(zipf), "zero_score": zero_score_model(5, other)}

    @pytest.mark.parametrize("kind", ["zipf", "zero_score"])
    @pytest.mark.parametrize("draw", [0.0, 0.5, float(np.nextafter(1.0, 0.0)), "uniform"])
    @pytest.mark.parametrize("radius", [1, 3, 50, 4000])
    def test_matches_reference_pick_for_pick(self, models, kind, draw, radius):
        model = models[kind]
        term_ids = np.tile(np.arange(model.m), 3)
        if draw == "uniform":
            draws = np.random.default_rng(radius).random(term_ids.size)
        else:
            draws = np.full(term_ids.size, draw)
        picks, zero_mass = _window_picks(model, term_ids, draws, radius)
        for term_id, value, pick, empty in zip(term_ids.tolist(), draws.tolist(), picks.tolist(), zero_mass.tolist()):
            window = candidate_window(model, term_id, radius)
            assert empty == (model.max_score[window].sum() == 0)
            if not empty:
                assert pick == reference_window_pick(model, term_id, radius, FixedDraw(value))
        if kind == "zero_score" and radius < 50:
            assert zero_mass.any() and not zero_mass.all()


class TestSampleFromRankWindow:
    @pytest.mark.parametrize("radius", [1, 3, 50, 4000])
    def test_matches_window_sampler_pick_for_pick(self, radius):
        model = fit(zipf_corpus(np.random.default_rng(31)))
        order = model.rank_by_score
        terms = [int(order[0]), int(order[-1])] + list(range(model.m))
        fast, reference = np.random.default_rng(radius), np.random.default_rng(radius)
        for term_id in terms * 3:
            window = candidate_window(model, term_id, radius)
            expected = sample_replacement(model, window, "tfidf", reference)
            assert _sample_from_rank_window(model, term_id, radius, fast) == expected
            assert fast.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "draw, expected", [(0.0, 499), (0.5, 501), (float(np.nextafter(1.0, 0.0)), 501)]
    )
    def test_extreme_draws_stay_in_window(self, draw, expected):
        # equal scores: t500's window is {t499, t501} with CDF [0.5, 1.0];
        # the right-side search sends draw 0.5 up, and near 1 the point
        # rounds onto prefix[502], past the window, and is clamped back
        model = synthetic_model(np.ones(1000))

        assert _sample_from_rank_window(model, 500, 1, FixedDraw(draw)) == expected

    @pytest.mark.parametrize("term_id, radius", [(0, 3), (1, 3), (2, 1), (2, 2), (3, 3), (5, 2)])
    def test_zero_weight_candidates_never_drawn_while_mass_is_positive(self, term_id, radius):
        # ranks follow ids; ranks 0..2 hold zero scores, so these windows
        # have zero-weight low edges, or positive mass on one side only
        model = synthetic_model([0.0, 0.0, 0.0, 0.1, 0.2, 0.3])
        rng = np.random.default_rng(46)
        window = candidate_window(model, term_id, radius)
        positive = {int(t) for t in window if model.max_score[t] > 0}
        drawn = {_sample_from_rank_window(model, term_id, radius, rng) for _ in range(2000)}
        assert drawn == positive

    def test_weighted_sampling_law(self):
        draws = 100_000
        # the window of t1 is {t0, t2}, one on each side, weights 1 and 3
        model = synthetic_model([1.0, 2.0, 3.0])
        rng = np.random.default_rng(106)
        hits = sum(_sample_from_rank_window(model, 1, 1, rng) == 2 for _ in range(draws))
        se = (0.75 * 0.25 / draws) ** 0.5
        assert abs(hits / draws - 0.75) <= 3 * se

        # all-zero window {t0, t2, t3} of t1: uniform over its members
        model = synthetic_model([0.0, 0.0, 0.0, 0.0, 0.5])
        counts = np.zeros(model.m)
        for _ in range(draws):
            counts[_sample_from_rank_window(model, 1, 2, rng)] += 1
        assert counts[1] == 0 and counts[4] == 0
        se = (1 / 3 * 2 / 3 / draws) ** 0.5
        np.testing.assert_allclose(counts[[0, 2, 3]] / draws, 1 / 3, atol=3 * se)


@pytest.fixture
def small_corpus():
    return load_corpus(io.StringIO("a b b\na c\nd a\n"))


@pytest.fixture
def small_model(small_corpus):
    return fit(small_corpus)


class TestAugmentSentence:
    def test_single_term_sentence_always_replaced(self, small_model):
        document = Document.from_text(0, "caffeine b")
        scores = sentence_scores(small_model, [document.tokens])[0]
        config = AugmentationConfig(seed=9)
        for position in range(20):
            rng = sentence_rng(9, 5, position)
            result = augment_sentence(small_model, document, scores, config, rng)
            assert result.tokens != document.tokens
            assert result.tokens[1] != "b"

    def test_token_count_preserved(self, small_model):
        document = Document.from_text(0, "a b b a c")
        scores = sentence_scores(small_model, [document.tokens])[0]
        result = augment_sentence(small_model, document, scores, AugmentationConfig(), sentence_rng(1, 5, 0))
        assert len(result.tokens) == len(document.tokens)

    def test_all_occurrences_rewritten_identically(self, small_model):
        document = Document.from_text(0, "b a b")
        scores = sentence_scores(small_model, [document.tokens])[0]
        for position in range(20):
            result = augment_sentence(
                small_model, document, scores, AugmentationConfig(), sentence_rng(3, 5, position)
            )
            replaced_b = [t for i, t in enumerate(result.tokens) if i in (0, 2)]
            assert replaced_b[0] == replaced_b[1]

    def test_oov_tokens_pass_through(self, small_model):
        document = Document.from_text(0, "zzz b yyy")
        scores = sentence_scores(small_model, [document.tokens])[0]
        result = augment_sentence(small_model, document, scores, AugmentationConfig(), sentence_rng(4, 5, 0))
        assert result.tokens[0] == "zzz" and result.tokens[2] == "yyy"

    def test_minimum_score_term_never_replaced_when_spread(self, small_model):
        # "a" appears in every document: score 0, strictly below the rest,
        # so its replacement probability is exactly 0.
        document = Document.from_text(0, "a b")
        scores = sentence_scores(small_model, [document.tokens])[0]
        for position in range(30):
            result = augment_sentence(
                small_model, document, scores, AugmentationConfig(), sentence_rng(5, 5, position)
            )
            assert result.tokens[0] == "a"
            assert result.tokens[1] != "b"

    def test_unaugmentable_oov_sentence(self, small_model):
        document = Document.from_text(0, "qq ww")
        scores = sentence_scores(small_model, [document.tokens])[0]
        result = augment_sentence(small_model, document, scores, AugmentationConfig(), sentence_rng(6, 5, 0))
        assert result.unaugmentable and result.tokens == ["qq", "ww"]
        assert result.plan is None

    def test_unaugmentable_single_term_vocabulary(self):
        model = fit(corpus_from_token_lists([["x"], ["x", "x"]]))
        document = Document.from_text(0, "x x")
        scores = sentence_scores(model, [document.tokens])[0]
        result = augment_sentence(model, document, scores, AugmentationConfig(), sentence_rng(7, 5, 0))
        assert result.unaugmentable and result.tokens == ["x", "x"]

    def test_deterministic_for_fixed_stream(self, small_model):
        document = Document.from_text(3, "a b b c d")
        scores = sentence_scores(small_model, [document.tokens])[0]
        config = AugmentationConfig(seed=11)
        first = augment_sentence(small_model, document, scores, config, sentence_rng(11, 10, 2))
        second = augment_sentence(small_model, document, scores, config, sentence_rng(11, 10, 2))
        assert first.tokens == second.tokens
        assert first.source_id == 3

    def test_plan_structure(self, small_model):
        document = Document.from_text(0, "a b b c")
        scores = sentence_scores(small_model, [document.tokens])[0]
        result = augment_sentence(small_model, document, scores, AugmentationConfig(), sentence_rng(2, 5, 0))
        plan = result.plan
        assert len(plan) == 3  # distinct in-vocab terms: a, b, c
        forced = [entry for entry in plan if entry.forced]
        assert len(forced) == 1
        assert forced[0].replaced and forced[0].probability == 1.0
        radius = AugmentationConfig().radius
        for entry in plan:
            if entry.replaced:
                assert entry.replacement_id is not None
                assert entry.replacement_id != entry.term_id
                distance = small_model.rank_of(entry.replacement_id) - small_model.rank_of(entry.term_id)
                assert abs(distance) <= radius
            else:
                assert entry.replacement_id is None

    def test_replacements_respect_window(self, small_model):
        config = AugmentationConfig(radius=1)
        document = Document.from_text(0, "a b b c d")
        scores = sentence_scores(small_model, [document.tokens])[0]
        for position in range(50):
            result = augment_sentence(small_model, document, scores, config, sentence_rng(8, 5, position))
            for entry in result.plan:
                if entry.replaced:
                    distance = abs(
                        small_model.rank_of(entry.replacement_id) - small_model.rank_of(entry.term_id)
                    )
                    assert distance <= 1


class TestAugmentBatch:
    def test_emits_on_schedule(self, small_model, small_corpus):
        config = AugmentationConfig(alpha=5, seed=1)
        docs = corpus_documents(small_corpus)
        assert augment_batch(small_model, docs, config, 5) is not None
        assert augment_batch(small_model, docs, config, 3) is None
        assert augment_batch(small_model, docs, config, 10) is not None

    def test_batch_size_preserved(self, small_model, small_corpus):
        config = AugmentationConfig(alpha=1, seed=1)
        docs = corpus_documents(small_corpus)
        batch = augment_batch(small_model, docs, config, 1)
        assert len(batch) == len(docs)
        assert batch.batch_index == 1

    def test_empty_batch_rejected(self, small_model):
        with pytest.raises(ValueError):
            augment_batch(small_model, [], AugmentationConfig(), 1)

    def test_batch_index_one_based(self, small_model, small_corpus):
        with pytest.raises(ValueError):
            augment_batch(small_model, corpus_documents(small_corpus), AugmentationConfig(), 0)

    def test_alpha_one_yields_every_batch(self, small_model):
        docs = [Document.from_text(i, "a b c") for i in range(70)]
        config = AugmentationConfig(alpha=1, seed=2)
        batches = list(iter_negative_batches(small_model, docs, config, 10))
        assert len(batches) == 7
        assert sum(len(b) for b in batches) == 70

    def test_batch_size_beyond_any_input(self, small_model):
        docs = [Document.from_text(i, "a b c") for i in range(5)]
        config = AugmentationConfig(alpha=1, seed=2)
        batches = list(iter_negative_batches(small_model, docs, config, 2**70))
        assert [len(b) for b in batches] == [5]

    def test_schedule_320_sentences(self, small_model):
        docs = [Document.from_text(i, "a b c") for i in range(320)]
        config = AugmentationConfig(alpha=5, seed=2)
        batches = list(iter_negative_batches(small_model, docs, config, 64))
        assert len(batches) == 1
        assert batches[0].batch_index == 5
        assert len(batches[0]) == 64

    def test_results_independent_of_processing_order(self):
        # Each sentence's stream is keyed by (seed, batch, position), so
        # augmenting the batch back to front reproduces augment_batch.
        corpus = zipf_corpus(np.random.default_rng(4), n_sentences=200, vocab_size=120)
        model = fit(corpus)
        docs = corpus_documents(corpus)[:24]
        config = AugmentationConfig(alpha=3, radius=20, seed=21)
        batch = augment_batch(model, docs, config, 6)
        reverse = {
            position: augment_sentence(
                model,
                docs[position],
                sentence_scores(model, [docs[position].tokens])[0],
                config,
                sentence_rng(config.seed, 6, position),
            )
            for position in reversed(range(len(docs)))
        }
        assert [s.tokens for s in batch.sentences] == [reverse[p].tokens for p in range(len(docs))]

    def test_streams_differ_per_position(self, small_model):
        docs = [Document.from_text(i, "a b b c d") for i in range(8)]
        config = AugmentationConfig(alpha=1, seed=3)
        batch = augment_batch(small_model, docs, config, 1)
        token_lists = {tuple(s.tokens) for s in batch.sentences}
        assert len(token_lists) > 1  # identical inputs, distinct streams


class TestSelectionBias:
    def test_high_score_terms_replaced_more_often(self):
        rng = np.random.default_rng(17)
        corpus = zipf_corpus(rng, n_sentences=200)
        model = fit(corpus)
        config = AugmentationConfig(seed=23)
        low_rate = []
        high_rate = []
        for index, document in enumerate(corpus_documents(corpus)):
            scores = sentence_scores(model, [document.tokens])[0]
            if np.ptp(scores.scores) == 0:
                continue
            lowest = int(scores.term_ids[np.argmin(scores.scores)])
            highest = int(scores.term_ids[np.argmax(scores.scores)])
            result = augment_sentence(model, document, scores, config, sentence_rng(23, 5, index))
            outcomes = {entry.term_id: entry.replaced for entry in result.plan}
            low_rate.append(outcomes[lowest])
            high_rate.append(outcomes[highest])
        assert np.mean(high_rate) == 1.0  # forced argmax
        assert np.mean(low_rate) == 0.0  # probability exactly 0 at the minimum


def oracle_batch(model, documents, config, batch_index):
    """augment_sentence with its own sentence_rng stream, one sentence at a time."""
    batch_scores = sentence_scores(model, [document.tokens for document in documents])
    return [
        augment_sentence(model, document, scores, config, sentence_rng(config.seed, batch_index, position))
        for position, (document, scores) in enumerate(zip(documents, batch_scores))
    ]


def assert_matches_oracle(model, documents, config, batch_index):
    batch = augment_batch(model, documents, config, batch_index)
    expected = oracle_batch(model, documents, config, batch_index)
    assert len(batch.sentences) == len(expected)
    for got, want in zip(batch.sentences, expected):
        assert got.source_id == want.source_id
        assert got.tokens == want.tokens
        assert got.unaugmentable == want.unaugmentable
        assert (got.plan is None) == (want.plan is None)
        if want.plan is not None:
            assert got.plan.entries == want.plan.entries
            assert list(got.plan) == want.plan.entries and len(got.plan) == len(want.plan)


def zero_score_model(n_common, other_docs):
    """Model fitted on documents that all hold the n_common terms c0, c1, ...
    (idf 0, so max score 0) plus the given other terms."""
    common = [f"c{k}" for k in range(n_common)]
    return fit(corpus_from_token_lists([common + list(other) for other in other_docs]))


def interleaved_draws(rng, ops):
    """The values of a sequence of integers(bound) and random() calls (bound None)."""
    return [rng.random() if bound is None else int(rng.integers(bound)) for bound in ops]


class TestBatchStreams:
    @pytest.mark.parametrize("seed", [0, 1, 11, 2**63, 2**64 - 1])
    @pytest.mark.parametrize(
        "batch_index, position", [(1, 0), (5, 63), (10**9, 7), (2**40, 2**33), (2**70, 2**64 + 3)]
    )
    def test_rekeyed_philox_matches_sentence_rng(self, seed, batch_index, position):
        counts = range(1, 41)
        for k, rng in zip(counts, _sentence_rngs(seed, batch_index, [position] * len(counts))):
            assert rng.random(k).tolist() == sentence_rng(seed, batch_index, position).random(k).tolist()

    def test_rekeying_after_partial_buffer(self):
        # Odd draw counts leave the generator mid-buffer; re-keying must
        # start the next stream from an empty buffer all the same.
        requests = [(3, 1), (0, 5), (3, 7), (9, 2), (0, 3)]
        rngs = _sentence_rngs(4, 2, [position for position, _ in requests])
        for (position, k), rng in zip(requests, rngs):
            assert rng.random(k).tolist() == sentence_rng(4, 2, position).random(k).tolist()

    def test_interleaved_integers_and_random(self):
        # integers() below 2**32 takes half of a 64-bit output and keeps the
        # other half for the next such call; a re-key must drop that half,
        # as a new generator starts without one. Random selection draws
        # integers() for the forced term, then random() per term.
        requests = [(0, [3]), (0, [3, None, 5]), (1, [None, 7, None]), (1, [2**31, 9]), (0, [None, 2])]
        rngs = _sentence_rngs(6, 3, [position for position, _ in requests])
        spare_half = []
        for (position, ops), rng in zip(requests, rngs):
            assert interleaved_draws(rng, ops) == interleaved_draws(sentence_rng(6, 3, position), ops)
            spare_half.append(rng.bit_generator.state["has_uint32"])
        assert spare_half == [1, 0, 1, 0, 1]  # the first and third re-keys drop a kept half

        choices = np.random.default_rng(13)
        requests = []
        for _ in range(300):
            count = int(choices.integers(1, 10))
            ops = [None if choices.random() < 0.5 else int(choices.integers(1, 50)) for _ in range(count)]
            requests.append((int(choices.integers(4)), ops))
        rngs = _sentence_rngs(2**64 - 1, 8, [position for position, _ in requests])
        for (position, ops), rng in zip(requests, rngs):
            assert interleaved_draws(rng, ops) == interleaved_draws(sentence_rng(2**64 - 1, 8, position), ops)

    def test_scalar_draws_equal_bulk_draws(self):
        rng = sentence_rng(5, 1, 2)
        scalar = [rng.random() for _ in range(9)]
        assert scalar == sentence_rng(5, 1, 2).random(9).tolist()

    def test_streams_only_for_sentences_with_terms(self, monkeypatch):
        # Sentences with no in-vocabulary terms come back unaugmentable
        # without a key; every other stream comes from _philox_keys.
        keyed = []
        philox_keys = augment._philox_keys

        def recording_keys(seed, batch_index, positions):
            keyed.extend(positions)
            return philox_keys(seed, batch_index, positions)

        def no_sentence_rng(*args):
            raise AssertionError("sentence_rng is the definition, not a production path")

        monkeypatch.setattr(augment, "_philox_keys", recording_keys)
        monkeypatch.setattr(augment, "sentence_rng", no_sentence_rng)
        model = zero_score_model(4, [["x"], ["y", "z"], ["x", "z"]])
        documents = [Document(i, tokens) for i, tokens in enumerate([["c0", "c1"], ["oov"], [], ["x", "y"], ["c3"]])]
        for modes in [("tfidf", "tfidf"), ("tfidf", "random"), ("random", "tfidf"), ("random", "random")]:
            keyed.clear()
            config = AugmentationConfig(radius=2, alpha=1, seed=1, selection_mode=modes[0], replacement_mode=modes[1])
            batch = augment_batch(model, documents, config, 1)
            assert [s.unaugmentable for s in batch.sentences] == [False, True, True, False, False]
            assert set(keyed) == {0, 3, 4}


# Positions whose 32-bit word counts differ: one, one, two and three words.
_EDGE_POSITIONS = [0, 2**32 - 1, 2**32, 2**64 + 3]
# Batch indices of one, one, two and three words.
_EDGE_BATCH_INDICES = [1, 2**32 - 1, 2**32, 2**70]


def reference_keys(seed, batch_index, positions):
    return [
        np.random.SeedSequence(seed, spawn_key=(batch_index, position)).generate_state(2, np.uint64).tolist()
        for position in positions
    ]


class TestPhiloxKeys:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        batch_index=st.integers(0, 2**70),
        positions=st.lists(st.one_of(st.sampled_from(_EDGE_POSITIONS), st.integers(0, 2**70)), max_size=8),
    )
    @example(seed=2**64 - 1, batch_index=2**70, positions=_EDGE_POSITIONS)
    @example(seed=0, batch_index=0, positions=[])
    def test_matches_seed_sequence(self, seed, batch_index, positions):
        keys = _philox_keys(seed, batch_index, positions)
        assert keys.dtype == np.uint64 and keys.shape == (len(positions), 2)
        assert keys.tolist() == reference_keys(seed, batch_index, positions)

    @pytest.mark.parametrize("seed", [0, 11, 2**32 + 5, 2**64 - 1, 2**128 + 1, 2**200 + 7])
    def test_whole_batch_of_positions(self, seed):
        # Seeds of five words and more mix their extra words in after the pool.
        positions = list(range(64)) + _EDGE_POSITIONS
        assert _philox_keys(seed, 3, positions).tolist() == reference_keys(seed, 3, positions)

    @pytest.mark.parametrize("seed", [0, 11, 2**32 + 5, 2**64 - 1, 2**128 + 1, 2**200 + 7])
    def test_rows_of_mixed_batch_indices(self, seed):
        # One- to three-word batch indices in one call: each row's position
        # words follow its own batch-index words.
        rows = [(batch_index, position) for batch_index in _EDGE_BATCH_INDICES for position in _EDGE_POSITIONS]
        rows += list(zip(np.resize(_EDGE_BATCH_INDICES, 64).tolist(), range(64)))
        batch_indices, positions = zip(*rows)
        keys = _philox_keys(seed, np.array(batch_indices, dtype=object), list(positions))
        assert keys.tolist() == [reference_keys(seed, b, [p])[0] for b, p in rows]
        assert _philox_keys(seed, [2**32 - 1, 2**32], [0, 0]).tolist() == [
            reference_keys(seed, 2**32 - 1, [0])[0], reference_keys(seed, 2**32, [0])[0]
        ]

    @pytest.mark.parametrize("seed, batch_index", [(-1, 1), (1, -1)])
    def test_negative_coordinates_rejected(self, seed, batch_index):
        with pytest.raises(ValueError):
            _philox_keys(seed, batch_index, [0])


class TestBatchProbabilities:
    @pytest.mark.parametrize("rows", [1, 3, 17])
    def test_grouped_row_sum_equals_mean(self, rows):
        # 1..300 covers the 8-wide unrolled block and numpy's 128-element
        # recursion of pairwise summation.
        rng = np.random.default_rng(rows)
        for n in range(1, 301):
            block = rng.random((rows, n)) * rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
            sums = np.add.reduce(block, axis=1) / n
            for row in range(rows):
                assert sums[row].tobytes() == np.mean(block[row]).tobytes(), (n, row)

    def test_matches_per_sentence_probabilities(self):
        rng = np.random.default_rng(8)
        lengths = [*range(1, 301), *rng.integers(1, 301, size=60), 1, 5, 5]
        batch = []
        for n in lengths:
            values = rng.random(n) * 3.0
            if n % 7 == 0:
                values[:] = 0.25  # all-equal scores
            batch.append(SentenceScores(np.arange(n), values))
        z = np.concatenate([scores.scores for scores in batch])
        starts = np.cumsum(lengths) - lengths
        for beta in (5e-324, 0.1, 0.5, 1.0):
            probabilities, forced = _batch_probabilities(z, np.array(lengths), beta)
            for scores, start, position in zip(batch, starts.tolist(), forced.tolist()):
                want, want_forced = replacement_probabilities(scores, beta)
                assert probabilities[start : start + scores.n_terms].tobytes() == want.tobytes()
                assert position == start + want_forced


class TestBatchPath:
    @pytest.mark.parametrize("seed", [1, 2, 11])
    @pytest.mark.parametrize("radius", [1, 3, 50, 4000])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
    def test_matches_oracle_on_zipf_batch(self, seed, radius, beta):
        corpus = zipf_corpus(np.random.default_rng(seed), n_sentences=300, vocab_size=200)
        model = fit(corpus)
        documents = corpus_documents(corpus)[:64]
        documents += [Document(64, ["zzz", "qqq"]), Document(65, []), Document(66, documents[0].tokens * 3)]
        config = AugmentationConfig(beta=beta, radius=radius, alpha=1, seed=seed)
        assert_matches_oracle(model, documents, config, seed + 6)

    def test_zero_mass_windows_fall_back(self):
        # c0..c3 occur in every document: score 0, ranks 0..3. A sentence of
        # common terms only forces c0, whose radius-2 window c1, c2 has no
        # mass, so the per-sentence path draws integers() for it.
        model = zero_score_model(4, [["x"], ["y", "z"], ["x", "z"]])
        assert model.max_score[:4].tolist() == [0.0] * 4
        documents = [
            Document(0, ["c0", "c1"]),
            Document(1, ["c2", "x", "c0"]),
            Document(2, ["c3"]),
            Document(3, ["y", "oov"]),
            Document(4, ["oov"]),
        ]
        for seed in range(20):
            config = AugmentationConfig(radius=2, alpha=1, seed=seed)
            assert_matches_oracle(model, documents, config, 1)
        # the fallback is taken: c0's window has zero mass
        prefix = model.score_prefix
        rank = model.rank_of(model.vocabulary.get("c0"))
        assert prefix[rank + 3] - prefix[rank] == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 11])
    @pytest.mark.parametrize("radius", [1, 50, 4000])
    def test_random_selection_matches_oracle(self, seed, radius):
        # Each stream gives integers() for the forced term, then the bulk
        # random() draws, which leave integers()'s spare 32-bit half alone.
        corpus = zipf_corpus(np.random.default_rng(seed), n_sentences=300, vocab_size=200)
        documents = corpus_documents(corpus)[:64] + [Document(64, ["zzz"]), Document(65, [])]
        config = AugmentationConfig(radius=radius, alpha=1, seed=seed, selection_mode="random")
        assert_matches_oracle(fit(corpus), documents, config, seed + 6)
        model = zero_score_model(4, [["x"], ["y", "z"], ["x", "z"]])
        documents = [Document(i, tokens) for i, tokens in enumerate([["c0", "c1"], ["c2", "x"], ["c3"], ["y"]])]
        assert_matches_oracle(model, documents, AugmentationConfig(radius=2, alpha=1, seed=seed, selection_mode="random"), 1)

    @pytest.mark.parametrize("terms", [["x"], ["x", "y"]])
    def test_tiny_vocabularies(self, terms):
        model = fit(corpus_from_token_lists([terms, terms[:1]]))
        documents = [Document(i, tokens) for i, tokens in enumerate([terms, terms[::-1] * 2, ["oov"], terms[:1]])]
        for seed in range(10):
            assert_matches_oracle(model, documents, AugmentationConfig(radius=3, alpha=1, seed=seed), 2)

    def test_huge_radius_equals_vocabulary_radius(self):
        corpus = zipf_corpus(np.random.default_rng(3), n_sentences=100, vocab_size=60)
        model = fit(corpus)
        documents = corpus_documents(corpus)[:32]
        wide = augment_batch(model, documents, AugmentationConfig(radius=model.m, alpha=1, seed=4), 1)
        huge = augment_batch(model, documents, AugmentationConfig(radius=10**30, alpha=1, seed=4), 1)
        assert [s.tokens for s in huge.sentences] == [s.tokens for s in wide.sentences]
        assert [s.plan.entries for s in huge.sentences] == [s.plan.entries for s in wide.sentences]
        assert_matches_oracle(model, documents, AugmentationConfig(radius=10**30, alpha=1, seed=4), 1)


class TestColumnarBatch:
    """The guided batch path on token-id columns: scores, decisions and
    substitutions in mixed-length batches with out-of-vocabulary tokens."""

    @pytest.fixture
    def model(self):
        return fit(zipf_corpus(np.random.default_rng(21), n_sentences=400, vocab_size=120))

    def test_oov_tokens_between_repeated_replaced_terms(self, model):
        # Every occurrence of a replaced term takes the same substitute,
        # and the out-of-vocabulary tokens around them keep their places.
        terms = model.vocabulary.terms
        documents = []
        for n in range(1, 13):
            sentence = terms[n : 2 * n]
            tokens = []
            for k, term in enumerate(sentence * 3):
                tokens += [term, f"oov{k}"] if k % 2 else [f"q{k}", term, term]
            documents.append(Document(n, tokens))
        for seed in range(4):
            config = AugmentationConfig(radius=30, alpha=1, seed=seed)
            assert_matches_oracle(model, documents, config, 3)
            for document, negative in zip(documents, augment_batch(model, documents, config, 3).sentences):
                substitutes = {e.term_id: e.replacement_id for e in negative.plan.entries if e.replaced}
                assert substitutes
                for token, out in zip(document.tokens, negative.tokens):
                    term_id = model.vocabulary.get(token)
                    if term_id is None:
                        assert out == token
                    else:
                        assert out == terms[substitutes.get(term_id, term_id)]

    def test_oov_only_lines_mid_batch(self, model):
        terms = model.vocabulary.terms
        lines = [terms[3:9], ["oov", "zzz"], terms[20:22] + ["q"], [], ["q", "q", "qq"], terms[40:52], ["x-oov"]]
        documents = [Document(i, tokens) for i, tokens in enumerate(lines * 3)]
        for seed in range(4):
            config = AugmentationConfig(radius=10, alpha=1, seed=seed)
            assert_matches_oracle(model, documents, config, 5)
            batch = augment_batch(model, documents, config, 5)
            flags = [sentence.unaugmentable for sentence in batch.sentences]
            assert flags == [False, True, False, True, True, False, True] * 3
            for document, sentence in zip(documents, batch.sentences):
                if sentence.unaugmentable:
                    assert sentence.tokens == document.tokens

    def test_only_in_vocabulary_term_repeats(self, model):
        term = model.vocabulary.terms[7]
        documents = [
            Document(0, [term, "oov", term, term]),
            Document(1, model.vocabulary.terms[10:25]),
            Document(2, ["oov", term]),
            Document(3, [term] * 5 + ["oov"]),
        ]
        for seed in range(8):
            config = AugmentationConfig(radius=5, alpha=1, seed=seed)
            assert_matches_oracle(model, documents, config, 1)
            batch = augment_batch(model, documents, config, 1)
            for position in (0, 2, 3):
                (entry,) = batch.sentences[position].plan.entries
                assert entry.forced and entry.replaced and entry.probability == 1.0
                substitute = model.vocabulary.term(entry.replacement_id)
                expected = [substitute if token == term else token for token in documents[position].tokens]
                assert batch.sentences[position].tokens == expected

    def test_probabilities_for_every_term_count_to_40(self):
        # Sentences of 1 to 40 distinct terms in one batch: numpy's pairwise
        # sum works in blocks of 8, so each length groups its additions
        # differently, and every probability must equal the per-sentence one.
        rng = np.random.default_rng(40)
        model = synthetic_model(rng.random(60) * 4, rng.random(60) * 2)
        terms = model.vocabulary.terms
        documents = [
            Document(n, [terms[k] for k in rng.choice(60, size=n, replace=False)] + ["oov"] * (n % 3))
            for n in range(1, 41)
        ]
        for beta in (0.1, 0.5, 1.0):
            config = AugmentationConfig(beta=beta, radius=7, alpha=1, seed=int(beta * 10))
            assert_matches_oracle(model, documents, config, 2)
            batch = augment_batch(model, documents, config, 2)
            for document, sentence in zip(documents, batch.sentences):
                scores = sentence_scores(model, [document.tokens])[0]
                want, forced = replacement_probabilities(scores, beta)
                assert sentence.plan.probabilities.tobytes() == want.tobytes()
                assert sentence.plan.forced == forced


@st.composite
def guided_models(draw):
    """A model fitted on documents that all hold its first few terms (idf 0,
    max score 0), or a hand-built one whose idf and max scores are drawn
    freely, zeros included; m ranges from 1 to 40."""
    if draw(st.booleans()):
        n_common = draw(st.integers(0, 4))
        pool = [f"w{k}" for k in range(draw(st.integers(1, 36)))]
        other_docs = draw(st.lists(st.lists(st.sampled_from(pool), max_size=16), min_size=1, max_size=8))
        if not n_common:
            other_docs[0].append(pool[0])  # at least one term, so m >= 1
        return zero_score_model(n_common, other_docs)
    m = draw(st.integers(1, 40))
    values = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=m, max_size=m)
    return synthetic_model(draw(values), draw(values))


@st.composite
def guided_batches(draw):
    """A model with zero-score terms and a batch mixing OOV-only, empty,
    single-term, all-equal-score, repeated-term and many-term sentences,
    in any of the four selection and replacement modes."""
    model = draw(guided_models())
    terms = model.vocabulary.terms
    flat = [term for term, idf in zip(terms, model.idf.tolist()) if idf == 0] or terms
    sentences = draw(
        st.lists(
            st.one_of(
                st.lists(st.sampled_from(terms + ["oov1", "oov2"]), max_size=30),
                st.lists(st.sampled_from(["oov1", "oov2"]), max_size=3),
                st.lists(st.sampled_from(terms), min_size=1, max_size=1),
                st.lists(st.sampled_from(flat), min_size=1, max_size=6),
                # many distinct terms: rows long enough for pairwise summation's blocks
                st.lists(st.sampled_from(terms), min_size=min(9, len(terms)), max_size=40, unique=True),
            ),
            min_size=1,
            max_size=12,
        )
    )
    documents = [Document(i, tokens) for i, tokens in enumerate(sentences)]
    config = AugmentationConfig(
        beta=draw(st.sampled_from([5e-324, 1e-9, 0.5, 1.0])),
        radius=draw(st.integers(1, model.m + 5)),
        alpha=1,
        seed=draw(st.sampled_from([0, 7, 2**64 - 1])),
        selection_mode=draw(st.sampled_from(["tfidf", "random"])),
        replacement_mode=draw(st.sampled_from(["tfidf", "random"])),
    )
    return model, documents, config, draw(st.integers(1, 2**40))


def mixed_length_case():
    """Sentences of 1 to 24 distinct terms with unrounded scores in one
    batch: padding them to one width would regroup the row sums."""
    rng = np.random.default_rng(12)
    model = synthetic_model(rng.random(40) * 5, rng.random(40) * 3)
    documents = [
        Document(n, [f"t{k}" for k in rng.choice(40, size=n, replace=False)] + ["t0"] * (n % 3))
        for n in range(1, 25)
    ]
    return model, documents, AugmentationConfig(radius=5, alpha=1, seed=3), 1


def zero_mass_case():
    """Sentences whose forced term has a window of zero-score terms only."""
    model = zero_score_model(4, [["x"], ["y", "z"], ["x", "z"]])
    documents = [Document(i, tokens) for i, tokens in enumerate([["c0", "c1"], ["c3", "c2"], ["c0"], ["x", "c1"]])]
    return model, documents, AugmentationConfig(radius=1, alpha=1, seed=5), 2


@settings(max_examples=150, deadline=None)
@given(guided_batches())
@example(mixed_length_case())
@example(zero_mass_case())
def test_batch_path_matches_per_sentence_oracle(case):
    model, documents, config, batch_index = case
    assert_matches_oracle(model, documents, config, batch_index)


@st.composite
def pass_runs(draw):
    """A model with zero-score terms, up to 300 sentences of mixed kinds
    cut into batches of 1 to 70 with alpha 1 to 4, numbered from 1 or from
    just below 2**32, and a pass budget of a few cells, so that passes
    split batches and span several."""
    model = draw(guided_models())
    terms = model.vocabulary.terms
    flat = [term for term, idf in zip(terms, model.idf.tolist()) if idf == 0] or terms
    batch_size, alpha = draw(st.integers(1, 70)), draw(st.integers(1, 4))
    n_batches = draw(st.integers(1, 2 * alpha + 2))
    n_documents = min(300, (n_batches - 1) * batch_size + draw(st.integers(1, batch_size)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    documents = []
    for i in range(n_documents):
        kind = rng.integers(5)
        if kind == 0:
            tokens = rng.choice(["oov1", "oov2"], size=rng.integers(3)).tolist()
        elif kind == 1:
            tokens = [terms[rng.integers(len(terms))]]
        elif kind == 2:
            tokens = rng.choice(flat, size=rng.integers(1, 7)).tolist()
        elif kind == 3:  # many distinct terms
            tokens = rng.permutation(terms)[: rng.integers(1, 41)].tolist()
        else:
            tokens = rng.choice(terms + ["oov1"], size=rng.integers(31)).tolist()
        documents.append(Document(i, tokens))
    config = AugmentationConfig(
        beta=draw(st.sampled_from([5e-324, 0.5, 1.0])),
        radius=draw(st.integers(1, model.m + 5)),
        alpha=alpha,
        seed=draw(st.sampled_from([0, 7, 2**64 - 1])),
        selection_mode=draw(st.sampled_from(["tfidf", "random"])),
        replacement_mode=draw(st.sampled_from(["tfidf", "tfidf", "random"])),
    )
    first = draw(st.sampled_from([1, 2**32 - alpha - 1]))  # from 2**32 - alpha - 1, alpha + 2 batches cross 2**32
    cells = draw(st.one_of(st.integers(1, 120), st.just(2**16)))
    return model, documents, config, batch_size, first, cells


def crossing_case():
    """Batches of three from just below 2**32 in passes of about five
    sentences, with zero-mass fallbacks: a pass holds rows of one- and
    two-word batch indices."""
    model = zero_score_model(4, [[f"w{k}" for k in range(j, j + 5)] for j in range(0, 30, 3)])
    rows = [["c0", "c1"], ["w1", "w7", "oov"], ["c3"], ["w20", "c2", "w20"], [], ["w3"], ["c1", "w11"]] * 2
    documents = [Document(i, tokens) for i, tokens in enumerate(rows)]
    return model, documents, AugmentationConfig(radius=1, alpha=1, seed=5), 3, 2**32 - 2, 30


@settings(max_examples=200, deadline=None)
@given(pass_runs())
@example(crossing_case())
def test_passes_match_per_sentence_oracle(run):
    model, documents, config, batch_size, first, cells = run
    starts = range(0, len(documents), batch_size)
    batches = [(first + k, documents[start : start + batch_size]) for k, start in enumerate(starts)]
    scheduled = [(index, batch) for index, batch in batches if index % config.alpha == 0]
    with mock.patch.object(augment, "_PASS_CELLS", cells):
        if first == 1:
            got = list(iter_negative_batches(model, documents, config, batch_size))
        else:  # iter_negative_batches numbered from first
            got = list(augment._negative_batches(model, iter(scheduled), config))
    assert [negatives.batch_index for negatives in got] == [index for index, _ in scheduled]
    for negatives, (index, batch) in zip(got, scheduled):
        expected = oracle_batch(model, batch, config, index)
        assert len(negatives.sentences) == len(expected)
        for sentence, want in zip(negatives.sentences, expected):
            assert (sentence.source_id, sentence.tokens, sentence.unaugmentable) == (
                want.source_id, want.tokens, want.unaugmentable
            )
            assert (sentence.plan is None) == (want.plan is None)
            if want.plan is not None:
                for column in ("term_ids", "probabilities", "replaced", "replacement_ids"):
                    assert getattr(sentence.plan, column).tobytes() == getattr(want.plan, column).tobytes(), column
                assert sentence.plan.forced == want.plan.forced


def test_long_line_costs_about_its_own_columns():
    # One line of 10,000 distinct terms among 63 short ones: padding every
    # row to the long line's width would cost 64 times its draw array.
    rng = np.random.default_rng(0)
    model = synthetic_model(rng.random(20_000) * 3 + 0.1, rng.random(20_000) + 0.5)
    terms = model.vocabulary.terms
    long_line = Document(0, [terms[k] for k in rng.permutation(model.m)[:10_000]])
    short = [Document(i, [terms[k] for k in rng.integers(0, model.m, 13)]) for i in range(1, 64)]
    config = AugmentationConfig(radius=4000, alpha=1, seed=1)

    def peak(documents):
        tracemalloc.start()
        try:
            augment_batch(model, documents, config, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak([long_line])
    for at in (0, 31, 63):
        assert peak(short[:at] + [long_line] + short[at:]) < 2 * alone


def test_documents_held_do_not_grow_with_input_length():
    # Documents of eight terms come from a generator; a weak reference
    # counts the ones still alive whenever a new one is read. A pass holds
    # at most _PASS_CELLS / 16 of them, and the batches read ahead of the
    # one yielded are a pass's and the batch that closed it, so at most a
    # pass and two batches are alive, for 2,000 documents as for 20,000.
    model = fit(zipf_corpus(np.random.default_rng(3), n_sentences=400, vocab_size=300))
    rows = corpus_token_lists(zipf_corpus(np.random.default_rng(4), n_sentences=500, vocab_size=300))
    config = AugmentationConfig(radius=50, alpha=1, seed=1)

    def peak_alive(n_documents):
        alive = peak = 0

        def freed(_):
            nonlocal alive
            alive -= 1

        def documents():
            nonlocal alive, peak
            references = []
            for i in range(n_documents):
                document = Document(i, rows[i % len(rows)])
                references.append(weakref.ref(document, freed))
                alive += 1
                peak = max(peak, alive)
                yield document

        count = sum(len(batch) for batch in iter_negative_batches(model, documents(), config, 64))
        assert count == n_documents
        return peak

    bound = augment._PASS_CELLS // 16 + 2 * 64
    assert bound < 2_000
    assert peak_alive(2_000) <= bound
    assert peak_alive(20_000) <= bound


class TestLazyBatches:
    """A NegativeBatch keeps its pass's columns and builds its sentences,
    plans included, only when they are read."""

    @pytest.fixture(scope="class")
    def model(self):
        return zero_score_model(4, corpus_token_lists(zipf_corpus(np.random.default_rng(5), n_sentences=80, vocab_size=60)))

    def documents(self, model, n):
        terms = model.vocabulary.terms
        rng = np.random.default_rng(n)
        rows = [["c0", "c1"], ["oov"], [], ["c2", "c0", "oov", "c2"]]
        rows += [rng.choice(terms + ["oov"], size=rng.integers(1, 12)).tolist() for _ in range(n - len(rows))]
        return [Document(i, tokens) for i, tokens in enumerate(rows)]

    @pytest.mark.parametrize("selection", ["tfidf", "random"])
    @pytest.mark.parametrize("replacement", ["tfidf", "random"])
    @pytest.mark.parametrize("cells", [40, 300, 2**14])
    def test_sentences_built_once_and_equal_oracle(self, model, selection, replacement, cells):
        documents = self.documents(model, 90)
        config = AugmentationConfig(radius=2, alpha=2, seed=9, selection_mode=selection, replacement_mode=replacement)
        with mock.patch.object(augment, "_PASS_CELLS", cells):
            batches = list(iter_negative_batches(model, documents, config, 13))
        scheduled = [(index, documents[13 * (index - 1) : 13 * index]) for index in range(2, 8, 2)]
        assert [batch.batch_index for batch in batches] == [index for index, _ in scheduled]
        for batch, (index, batch_documents) in zip(batches, scheduled):
            assert len(batch) == len(batch_documents) and "sentences" not in vars(batch)
            rows = list(batch._rows())
            assert "sentences" not in vars(batch)
            first, second = batch.sentences, batch.sentences
            assert first is second
            assert rows == [(s.source_id, s.tokens, s.unaugmentable) for s in first]
            expected = oracle_batch(model, batch_documents, config, index)
            assert len(first) == len(expected)
            for got, want in zip(first, expected):
                assert (got.source_id, got.tokens, got.unaugmentable) == (want.source_id, want.tokens, want.unaugmentable)
                assert (got.plan is None) == (want.plan is None)
                if want.plan is not None:
                    for column in ("term_ids", "probabilities", "replaced", "replacement_ids"):
                        assert getattr(got.plan, column).tobytes() == getattr(want.plan, column).tobytes(), column
                    assert got.plan.forced == want.plan.forced
                    assert got.plan.entries == want.plan.entries

    @pytest.mark.parametrize("replacement", ["tfidf", "random"])
    def test_yielded_batches_hold_no_document(self, model, replacement):
        references = []

        def documents():
            for document in self.documents(model, 200):
                references.append(weakref.ref(document))
                yield document

        config = AugmentationConfig(radius=2, alpha=1, seed=3, replacement_mode=replacement)
        with mock.patch.object(augment, "_PASS_CELLS", 300):
            batches = list(iter_negative_batches(model, documents(), config, 16))
        assert len(references) == 200 and sum(map(len, batches)) == 200
        assert any(negatives.redone for batch in batches for negatives, _, _ in batch._runs)
        assert [reference() for reference in references] == [None] * 200
        assert all(len(batch.sentences) == len(batch) for batch in batches)
        assert [reference() for reference in references] == [None] * 200
