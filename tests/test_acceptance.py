"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Timed criteria assert their wall-clock budget.
"""

import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from helpers import (
    brute_force_tfidf,
    corpus_documents,
    random_corpus,
    spearman_oracle,
    synthetic_model,
    zipf_corpus,
)
from una.augment import (
    AugmentationConfig,
    _unclamped_probabilities,
    augment_batch,
    augment_sentence,
    candidate_window,
    iter_negative_batches,
    replacement_probabilities,
    sample_replacement,
    sentence_rng,
)
from una.cli import main
from una.contrastive import info_nce
from una.corpus import Document
from una.evaluation import average_ranks, spearman
from una.tfidf import SentenceScores, fit, sentence_scores

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SAMPLE_CORPUS = DATA_DIR / "sample_corpus.txt"
SAMPLE_PAIRS = DATA_DIR / "sample_pairs.tsv"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} ({label}): FAIL", file=sys.stderr, flush=True)
        raise
    print(f"[acceptance] criterion {number:02d} ({label}): PASS", file=sys.stderr, flush=True)


def scores_of(values):
    values = np.asarray(values, dtype=float)
    return SentenceScores(np.arange(values.size), values)


def test_c01_tfidf_oracle_equivalence():
    with criterion(1, "tfidf oracle equivalence"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(100):
            corpus = random_corpus(rng, max_docs=20, max_terms=50)
            model = fit(corpus)
            oracle_idf, oracle_max = brute_force_tfidf(corpus)
            np.testing.assert_allclose(model.idf, oracle_idf, atol=1e-12, rtol=0)
            np.testing.assert_allclose(model.max_score, oracle_max, atol=1e-12, rtol=0)
        assert time.monotonic() - start < 5.0


def test_c02_mean_probability_law():
    with criterion(2, "mean probability equals beta"):
        rng = np.random.default_rng(102)
        start = time.monotonic()
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 25))
            z = rng.random(n) * float(rng.integers(1, 20))
            if np.ptp(z) == 0:
                continue
            beta = 1.0 - rng.random()  # uniform over (0, 1]
            unclamped = _unclamped_probabilities(z, beta)
            assert abs(unclamped.mean() - beta) < 1e-9
            assert np.minimum(unclamped, 1.0).mean() <= beta + 1e-12
            checked += 1
        assert time.monotonic() - start < 1.0


def test_c03_affine_invariance():
    with criterion(3, "affine invariance of probabilities"):
        rng = np.random.default_rng(103)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 25))
            z = rng.random(n) * 10
            if np.ptp(z) == 0:
                continue
            scale = math.exp(rng.uniform(-3, 3))
            shift = rng.uniform(-100, 100)
            beta = 1.0 - rng.random()
            p_base, forced_base = replacement_probabilities(scores_of(z), beta)
            p_mapped, forced_mapped = replacement_probabilities(scores_of(scale * z + shift), beta)
            assert forced_base == forced_mapped
            np.testing.assert_allclose(p_base, p_mapped, atol=1e-9, rtol=0)
            checked += 1


def test_c04_at_least_one_replacement():
    with criterion(4, "at least one term replaced"):
        rng = np.random.default_rng(104)
        corpus = zipf_corpus(rng, n_sentences=1000)
        model = fit(corpus)
        config = AugmentationConfig(alpha=1, seed=104)
        unchanged = 0
        documents = corpus_documents(corpus)
        for batch_index in range(1, 11):
            batch = augment_batch(model, documents, config, batch_index)
            for document, sentence in zip(documents, batch.sentences):
                assert not sentence.unaugmentable
                if sentence.tokens == document.tokens:
                    unchanged += 1
        assert unchanged == 0


def test_c05_window_containment():
    with criterion(5, "window containment and clamping"):
        rng = np.random.default_rng(105)
        model = synthetic_model(rng.random(100))
        order = model.rank_by_score
        for radius in (1, 3, 10):
            # exhaustive: every term's window respects the rank distance
            for term_id in range(model.m):
                rank = model.rank_of(term_id)
                window = candidate_window(model, term_id, radius)
                expected = [
                    int(order[k])
                    for k in range(max(0, rank - radius), min(model.m - 1, rank + radius) + 1)
                    if k != rank
                ]
                assert list(window) == expected
            # boundary clamp: no wrap-around at either end
            assert len(candidate_window(model, int(order[0]), radius)) == radius
            assert len(candidate_window(model, int(order[-1]), radius)) == radius
            # sampled draws stay within the radius
            for _ in range(10_000):
                term_id = int(rng.integers(model.m))
                window = candidate_window(model, term_id, radius)
                replacement = sample_replacement(model, window, "tfidf", rng)
                assert replacement != term_id
                assert abs(model.rank_of(replacement) - model.rank_of(term_id)) <= radius


def test_c06_weighted_sampling_law():
    with criterion(6, "score-weighted replacement sampling"):
        start = time.monotonic()
        rng = np.random.default_rng(106)
        model = synthetic_model([0.0, 1.0, 3.0, 0.0, 0.0, 0.0])
        draws = 100_000

        hits = sum(sample_replacement(model, [1, 2], "tfidf", rng) == 2 for _ in range(draws))
        se = math.sqrt(0.75 * 0.25 / draws)
        assert abs(hits / draws - 0.75) <= 3 * se

        # zero-weight window: uniform over its members
        counts = {0: 0, 3: 0, 4: 0}
        for _ in range(draws):
            counts[sample_replacement(model, [0, 3, 4], "tfidf", rng)] += 1
        se_uniform = math.sqrt((1 / 3) * (2 / 3) / draws)
        for member in counts:
            assert abs(counts[member] / draws - 1 / 3) <= 3 * se_uniform
        assert time.monotonic() - start < 5.0


def test_c07_selection_bias_direction():
    with criterion(7, "selection bias direction"):
        rng = np.random.default_rng(107)
        corpus = zipf_corpus(rng, n_sentences=1000)
        model = fit(corpus)
        repetitions = 8

        def replacement_rate_correlation(selection_mode):
            config = AugmentationConfig(seed=107, selection_mode=selection_mode)
            xs = []
            ys = []
            for index, document in enumerate(corpus_documents(corpus)):
                scores = sentence_scores(model, [document.tokens])[0]
                ranks = average_ranks(scores.scores)
                replaced = np.zeros(scores.n_terms)
                for repetition in range(repetitions):
                    result = augment_sentence(
                        model, document, scores, config, sentence_rng(107, repetition + 1, index)
                    )
                    replaced += [entry.replaced for entry in result.plan]
                xs.extend(ranks)
                ys.extend(replaced / repetitions)
            return spearman(xs, ys)

        assert replacement_rate_correlation("tfidf") > 0.5
        assert abs(replacement_rate_correlation("random")) < 0.1


def test_c08_info_nce_values_and_properties():
    with criterion(8, "contrastive loss values and properties"):
        def basis(dim, index):
            v = np.zeros(dim)
            v[index] = 1.0
            return v

        assert abs(info_nce(basis(3, 0), basis(3, 1), [basis(3, 2)], 1.0)) < 1e-9
        assert abs(info_nce(basis(4, 0), basis(4, 1), [basis(4, 2), basis(4, 3)], 1.0) - math.log(2)) < 1e-9
        assert abs(info_nce(basis(3, 0), basis(3, 0), [basis(3, 2)], 1.0) + 1.0) < 1e-9

        rng = np.random.default_rng(108)
        for _ in range(1000):
            dim = int(rng.integers(2, 16))
            anchor = rng.standard_normal(dim)
            positive = rng.standard_normal(dim)
            negatives = list(rng.standard_normal((int(rng.integers(1, 8)), dim)))
            tau = float(rng.uniform(0.05, 2.0))
            loss = info_nce(anchor, positive, negatives, tau)
            permutation = rng.permutation(len(negatives))
            shuffled = info_nce(anchor, positive, [negatives[k] for k in permutation], tau)
            assert abs(shuffled - loss) < 1e-9
            extra = rng.standard_normal(dim)
            assert info_nce(anchor, positive, negatives + [extra], tau) > loss


def test_c09_spearman_oracle():
    with criterion(9, "spearman rank oracle"):
        rng = np.random.default_rng(109)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 30))
            if rng.random() < 0.5:
                xs = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            else:
                xs = rng.standard_normal(n)
            ys = rng.integers(0, 6, size=n).astype(float) if rng.random() < 0.5 else rng.standard_normal(n)
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            assert abs(spearman(xs, ys) - spearman_oracle(xs, ys)) < 1e-12
            checked += 1

        xs = rng.standard_normal(50)
        ys = rng.standard_normal(50)
        base = spearman(xs, ys)
        assert spearman(5 * xs + 2, ys) == base
        assert spearman(np.exp(xs / 5), ys) == base
        assert spearman(xs, np.exp(ys / 5)) == base


def test_c10_schedule_arithmetic():
    with criterion(10, "injection schedule arithmetic"):
        rng = np.random.default_rng(110)
        corpus = zipf_corpus(rng, n_sentences=40, vocab_size=60, terms_per_sentence=5)
        model = fit(corpus)

        documents = [Document(i, list(d.tokens)) for i, d in enumerate(corpus_documents(corpus) * 8)]
        assert len(documents) == 320
        config = AugmentationConfig(alpha=5, seed=110)
        batches = list(iter_negative_batches(model, documents, config, 64))
        assert len(batches) == 1
        assert batches[0].batch_index == 5
        assert len(batches[0]) == 64

        config = AugmentationConfig(alpha=1, seed=110)
        batches = list(iter_negative_batches(model, documents[:70], config, 10))
        assert len(batches) == 7
        assert sum(len(b) for b in batches) == 70


def test_c11_cli_determinism(tmp_path, monkeypatch):
    with criterion(11, "byte-identical augmentation output"):
        model_path = tmp_path / "model.txt"
        assert main(["fit", "--corpus", str(SAMPLE_CORPUS), "--output", str(model_path)]) == 0

        outputs = []
        for name, threads in (("run1", "1"), ("run2", "1"), ("run3", "4")):
            out = tmp_path / f"{name}.tsv"
            rc = main(
                ["augment", "--model", str(model_path), "--input", str(SAMPLE_CORPUS),
                 "--output", str(out), "--seed", "42"]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) > 0


def test_c12_end_to_end_smoke(tmp_path, capsys):
    with criterion(12, "end-to-end smoke"):
        start = time.monotonic()
        model_path = tmp_path / "model.txt"
        negatives_path = tmp_path / "negatives.tsv"

        assert main(["fit", "--corpus", str(SAMPLE_CORPUS), "--output", str(model_path)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("N=1000 ")

        rc = main(
            ["augment", "--model", str(model_path), "--input", str(SAMPLE_CORPUS),
             "--output", str(negatives_path), "--seed", "7"]
        )
        assert rc == 0
        summary = capsys.readouterr().out
        assert summary.startswith("batches=3 negatives=192 ")

        rc = main(
            ["loss-demo", "--corpus", str(SAMPLE_CORPUS), "--pairs", str(SAMPLE_PAIRS), "--seed", "7"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        loss_without = float(lines[0].split("=")[1])
        loss_with = float(lines[1].split("=")[1])
        assert loss_with >= loss_without
        assert time.monotonic() - start < 30.0
