"""TF-IDF guided hard negative augmentation for contrastive sentence training.

`import una` runs no layer's code. augment, _seedseq, contrastive and
evaluation are registered in sys.modules through importlib.util.LazyLoader,
so each one's code runs on its first attribute access, and every public
name resolves from its module on first use (PEP 562).
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the module that defines them.
_PUBLIC = {
    "config": ("AugmentationConfig", "ContrastiveConfig"),
    "corpus": ("Corpus", "Document", "Vocabulary", "build_vocabulary", "load_corpus", "tokenize"),
    "tfidf": ("SentenceScores", "TfIdfModel", "fit", "load_model", "save_model", "sentence_scores"),
    "augment": ("AugmentedSentence", "NegativeBatch", "ReplacementPlan", "augment_batch", "augment_sentence",
                "candidate_window", "iter_negative_batches", "replacement_probabilities", "sample_replacement"),
    "contrastive": ("PositivePairSet", "ToyEncoder", "batch_loss", "cosine_similarity", "info_nce", "load_pairs"),
    "evaluation": ("EvalReport", "ScoredPair", "evaluate_pairs", "load_scored_pairs", "spearman"),
}
_HOMES = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOMES)

for _name in ("_seedseq", "augment", "contrastive", "evaluation"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name in _PUBLIC:  # a submodule that nothing has imported yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
