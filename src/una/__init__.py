"""TF-IDF guided hard negative augmentation for contrastive sentence training."""

from .augment import (
    AugmentationConfig,
    AugmentedSentence,
    NegativeBatch,
    ReplacementPlan,
    augment_batch,
    augment_sentence,
    candidate_window,
    iter_negative_batches,
    replacement_probabilities,
    sample_replacement,
)
from .contrastive import (
    ContrastiveConfig,
    PositivePairSet,
    ToyEncoder,
    batch_loss,
    cosine_similarity,
    info_nce,
    load_pairs,
)
from .corpus import Corpus, Document, Vocabulary, build_vocabulary, load_corpus, tokenize
from .evaluation import EvalReport, ScoredPair, evaluate_pairs, load_scored_pairs, spearman
from .tfidf import TfIdfModel, SentenceScores, fit, load_model, save_model, sentence_scores

__version__ = "0.1.0"

__all__ = [
    "AugmentationConfig",
    "AugmentedSentence",
    "ContrastiveConfig",
    "Corpus",
    "Document",
    "EvalReport",
    "NegativeBatch",
    "PositivePairSet",
    "ReplacementPlan",
    "ScoredPair",
    "SentenceScores",
    "TfIdfModel",
    "ToyEncoder",
    "Vocabulary",
    "augment_batch",
    "augment_sentence",
    "batch_loss",
    "build_vocabulary",
    "candidate_window",
    "cosine_similarity",
    "evaluate_pairs",
    "fit",
    "info_nce",
    "iter_negative_batches",
    "load_corpus",
    "load_model",
    "load_pairs",
    "load_scored_pairs",
    "replacement_probabilities",
    "sample_replacement",
    "save_model",
    "sentence_scores",
    "spearman",
    "tokenize",
]
