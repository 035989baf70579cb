"""Spearman correlation against a brute-force oracle, and pair evaluation."""

import io
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from helpers import reference_average_ranks, reference_evaluate_pairs, spearman_oracle
from una.contrastive import PairsFormatError, ToyEncoder
from una.corpus import Vocabulary, load_corpus
from una.evaluation import (
    EVAL_CELLS,
    EVAL_PAIRS,
    EvalDataError,
    ScoredPair,
    average_ranks,
    evaluate_pairs,
    load_scored_pairs,
    spearman,
)
from una.tfidf import fit

GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


class TestAverageRanks:
    def test_no_ties(self):
        np.testing.assert_array_equal(average_ranks([30, 10, 20]), [3, 1, 2])

    def test_ties_share_mean_rank(self):
        np.testing.assert_array_equal(average_ranks([1, 2, 2, 4]), [1, 2.5, 2.5, 4])

    def test_all_equal(self):
        np.testing.assert_array_equal(average_ranks([5, 5, 5]), [2, 2, 2])

    def test_empty_and_single(self):
        assert average_ranks([]).shape == (0,)
        np.testing.assert_array_equal(average_ranks([7.5]), [1.0])

    def test_matches_tie_span_loop(self):
        rng = np.random.default_rng(3)
        inputs = [
            np.full(50, 0.25),
            np.array([0.0, -0.0, 0.0, np.inf, -np.inf, np.inf, 1.0]),
            np.array([np.nan, 1.0, np.nan, 1.0]),
        ]
        for size in (2, 3, 17, 200, 1500):
            inputs.append(rng.standard_normal(size))
            inputs.append(rng.integers(0, 4, size).astype(float))  # many ties
            inputs.append(rng.integers(0, size, size).astype(float))  # some ties
        for values in inputs:
            assert average_ranks(values).tobytes() == reference_average_ranks(values).tobytes()

    @pytest.mark.parametrize("kind", ["distinct", "tied", "3-decimal"])
    def test_bit_for_bit_with_tie_span_loop(self, kind):
        rng = np.random.default_rng(11)
        for size in (1, 2, 5, 64, 1000, 24_000):
            if kind == "distinct":
                values = rng.standard_normal(size)
            elif kind == "tied":
                values = rng.integers(0, 6, size).astype(float)
            else:
                values = np.round(rng.random(size) * 5, 3)
            assert average_ranks(values).tobytes() == reference_average_ranks(values).tobytes()


class TestSpearman:
    @pytest.mark.parametrize("golds", ["distinct", "0..5"])
    def test_spearman_peak_under_56_bytes_a_pair(self, golds):
        # Beyond its two input arrays, spearman holds one pair's ranks from
        # the first average_ranks call while the second runs.
        n = 24_000
        rng = np.random.default_rng(2)
        sims = rng.standard_normal(n)
        gold = rng.standard_normal(n) if golds == "distinct" else rng.integers(0, 6, n).astype(float)
        spearman(sims, gold)
        tracemalloc.start()
        try:
            spearman(sims, gold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * n, peak / n

    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_reversed(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == -1.0

    def test_tied_example(self):
        rho = spearman([1, 2, 2, 4], [1, 2, 3, 4])
        assert rho == pytest.approx(spearman_oracle([1, 2, 2, 4], [1, 2, 3, 4]), abs=1e-12)
        assert rho == pytest.approx(3 / math.sqrt(10), abs=1e-12)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(2, 40))
            xs = rng.integers(0, 8, size=n).astype(float)  # plenty of ties
            ys = rng.standard_normal(n)
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            assert spearman(xs, ys) == pytest.approx(spearman_oracle(xs, ys), abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            xs = rng.integers(0, 5, size=n).astype(float)
            ys = rng.integers(0, 5, size=n).astype(float)
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            assert spearman(xs, ys) == pytest.approx(
                stats.spearmanr(xs, ys).statistic, abs=1e-12
            )

    def test_monotone_transform_invariance_is_exact(self):
        rng = np.random.default_rng(15)
        xs = rng.standard_normal(30)
        ys = rng.standard_normal(30)
        base = spearman(xs, ys)
        assert spearman(3 * xs - 7, ys) == base
        assert spearman(np.exp(xs / 10), ys) == base
        assert spearman(xs, np.exp(ys / 10)) == base

    def test_symmetry(self):
        rng = np.random.default_rng(16)
        xs = rng.standard_normal(20)
        ys = rng.standard_normal(20)
        assert spearman(xs, ys) == spearman(ys, xs)

    def test_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            xs = rng.standard_normal(10)
            assert -1.0 <= spearman(xs, rng.standard_normal(10)) <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman([1, 2, 3], [5, 5, 5])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            spearman([1], [1])


class TestLoadScoredPairs:
    def test_basic(self):
        pairs = load_scored_pairs(io.StringIO("a b\tc d\t3.5\nx\ty\t0\n"))
        assert len(pairs) == 2
        assert pairs[0] == ScoredPair("a b", "c d", 3.5)

    def test_bad_column_count(self):
        with pytest.raises(Exception) as err:
            load_scored_pairs(io.StringIO("a\tb\n"))
        assert "line 1" in str(err.value)

    def test_bad_gold_score(self):
        with pytest.raises(Exception) as err:
            load_scored_pairs(io.StringIO("a\tb\thigh\n"))
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("gold", ["1_0", "٣", "３", "1.5\u00a0"])
    def test_gold_not_plain_ascii_rejected(self, gold):
        with pytest.raises(PairsFormatError, match="line 2.*bad gold score"):
            load_scored_pairs(io.StringIO(f"a\tb\t1\nc\td\t{gold}\n"))

    def test_negative_gold_accepted(self):
        assert load_scored_pairs(io.StringIO("a\tb\t-2.5e0\n"))[0].gold == -2.5

    def test_non_finite_gold_rejected(self):
        with pytest.raises(Exception):
            load_scored_pairs(io.StringIO("a\tb\tnan\n"))


class TestEvaluatePairs:
    @pytest.fixture
    def vocabulary(self):
        return Vocabulary(["sun", "moon", "star", "rock", "tree", "fish"])

    @pytest.fixture
    def encoder(self, vocabulary):
        return ToyEncoder(vocabulary, dim=64, seed=2)

    def test_gold_matching_cosine_order_gives_one(self, vocabulary, encoder):
        pairs = [
            ScoredPair("sun moon", "sun moon", 5.0),  # cosine exactly 1
            ScoredPair("sun moon", "sun star", 3.0),  # shares one term
            ScoredPair("sun", "rock", 0.0),  # disjoint
        ]
        report = evaluate_pairs(pairs, encoder, vocabulary)
        assert report.rho == 1.0
        assert report.n_pairs == 3 and report.n_skipped == 0

    def test_determinism(self, vocabulary, encoder):
        pairs = [
            ScoredPair("sun moon", "sun tree", 4.0),
            ScoredPair("star", "fish", 1.0),
            ScoredPair("rock tree", "rock tree", 5.0),
        ]
        first = evaluate_pairs(pairs, encoder, vocabulary)
        second = evaluate_pairs(pairs, encoder, vocabulary)
        assert first == second

    def test_null_distribution(self, vocabulary, encoder):
        # Random golds against fixed sentences: correlation near zero.
        rng = np.random.default_rng(3)
        terms = vocabulary.terms
        pairs = []
        for _ in range(1000):
            a = " ".join(rng.choice(terms, size=2, replace=False))
            b = " ".join(rng.choice(terms, size=2, replace=False))
            pairs.append(ScoredPair(a, b, float(rng.random())))
        report = evaluate_pairs(pairs, encoder, vocabulary)
        assert abs(report.rho) < 0.1

    def test_both_sides_oov_flagged_not_scored(self, vocabulary, encoder, caplog):
        pairs = [
            ScoredPair("sun", "moon", 1.0),
            ScoredPair("qq ww", "ee rr", 5.0),  # nothing in vocabulary
            ScoredPair("star", "rock", 2.0),
        ]
        with caplog.at_level("WARNING"):
            report = evaluate_pairs(pairs, encoder, vocabulary)
        assert report.n_pairs == 2 and report.n_skipped == 1
        assert "skipped 1 pair" in caplog.text

    def test_one_side_oov_still_scored(self, vocabulary, encoder):
        pairs = [
            ScoredPair("sun", "qq", 1.0),
            ScoredPair("moon", "star", 2.0),
            ScoredPair("fish", "fish", 5.0),
        ]
        assert evaluate_pairs(pairs, encoder, vocabulary).n_pairs == 3

    def test_insufficient_scoreable_pairs(self, vocabulary, encoder):
        pairs = [ScoredPair("sun", "moon", 1.0), ScoredPair("qq", "ww", 2.0)]
        with pytest.raises(EvalDataError):
            evaluate_pairs(pairs, encoder, vocabulary)


def random_pairs(count: int, terms: list[str], seed: int) -> list[ScoredPair]:
    """Pairs of one to eight words; about one in six has no in-vocabulary
    word on either side and one in six none on one side. Golds are
    multiples of 0.25, so they tie."""
    rng = np.random.default_rng(seed)
    oov = ["qq", "ww", "ee"]

    def side(pool):
        return " ".join(rng.choice(pool, size=int(rng.integers(1, 9))).tolist())

    pairs = []
    for _ in range(count):
        kind = rng.integers(6)
        a = side(oov if kind == 0 else terms + oov)
        b = side(oov if kind in (0, 1) else terms)
        pairs.append(ScoredPair(a, b, float(rng.integers(0, 21)) / 4))
    return pairs


class TestEvaluatePairsMatchesReference:
    """evaluate_pairs against the per-pair loop in helpers: the same
    counts, the bits of rho and the same warning, at pair counts around
    the chunk size and from a generator."""

    TERMS = [f"w{k}" for k in range(60)] + ["Ärger", "日本"]

    @staticmethod
    def chunk_size(dim: int) -> int:
        return min(EVAL_PAIRS, EVAL_CELLS // (2 * dim))

    @pytest.mark.parametrize("dim", [1, 64, 4096])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("from_generator", [False, True])
    def test_chunk_edges(self, dim, offset, from_generator, caplog):
        vocabulary = Vocabulary([term.lower() for term in self.TERMS])
        count = 3 * self.chunk_size(dim) + offset
        pairs = random_pairs(count, vocabulary.terms, seed=dim + offset)
        with caplog.at_level("WARNING"):
            expected = reference_evaluate_pairs(pairs, ToyEncoder(vocabulary, dim=dim, seed=3), vocabulary)
        expected_log = caplog.messages
        caplog.clear()
        source = (pair for pair in pairs) if from_generator else pairs
        with caplog.at_level("WARNING"):
            report = evaluate_pairs(source, ToyEncoder(vocabulary, dim=dim, seed=3), vocabulary)
        assert caplog.messages == expected_log and expected_log
        assert (report.n_pairs, report.n_skipped) == (expected.n_pairs, expected.n_skipped)
        assert np.float64(report.rho).tobytes() == np.float64(expected.rho).tobytes()

    def test_too_few_scoreable_pairs_after_chunks(self):
        vocabulary = Vocabulary(["sun"])
        pairs = [ScoredPair("qq", "ww", 1.0)] * (EVAL_PAIRS + 3) + [ScoredPair("sun", "qq", 2.0)]
        with pytest.raises(EvalDataError, match="got 1"):
            evaluate_pairs(iter(pairs), ToyEncoder(vocabulary, dim=8), vocabulary)


@pytest.fixture(scope="module")
def train_eval_inputs(tmp_path_factory):
    """The benchmark's seed-1 train-eval model and dev pairs, as bench/gen.py writes them."""
    out = tmp_path_factory.mktemp("train-eval-1")
    subprocess.run([sys.executable, str(GEN), "--workload", "train-eval", "--seed", "1", "--out", str(out)], check=True)
    return fit(load_corpus(out / "model_corpus.txt")), load_scored_pairs(out / "dev_pairs.tsv")


def test_evaluate_pairs_memory_grows_by_less_than_64_bytes_a_pair(train_eval_inputs):
    model, dev = train_eval_inputs
    encoder = ToyEncoder(model.vocabulary, dim=256, seed=0)
    evaluate_pairs(dev, encoder, model.vocabulary)  # draws the rows in use, outside the measure
    peaks = {}
    for times in (1, 16):
        tracemalloc.start()
        try:
            evaluate_pairs((pair for _ in range(times) for pair in dev), encoder, model.vocabulary)
            peaks[times] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] - peaks[1] < 64 * 15 * len(dev), peaks
