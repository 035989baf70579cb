"""Span tracing of the calls into una's modules, for the traced run.

A `Tracer` replaces public functions of una by timing wrappers, in every
una module namespace where the original is looked up, so that calls made
inside the package are seen as well as calls from the benchmark. Each
call becomes a span (name, start, end, parent, value) kept in memory.
At the end of a round the spans are appended to a TSV file and folded
into per-layer figures for that round. A span's self time is its
duration minus the durations of its child spans.

Functions called about 10^4 times a second or more (cosine_similarity,
tf, idf, Vocabulary.get) are left unwrapped: a wrapper costs about a
microsecond, which would swamp them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

UNA_MODULES = ("una", "una.cli", "una.corpus", "una.tfidf", "una.augment", "una.contrastive", "una.evaluation")


def _batch_value(batch):
    """Mechanism counts of one augment_batch result; None off-schedule."""
    if batch is None:
        return None
    terms = replaced = forced_only = unaugmentable = window_bytes = 0
    for sentence in batch.sentences:
        if sentence.unaugmentable or sentence.plan is None:
            unaugmentable += 1
            continue
        picked = 0
        for entry in sentence.plan.entries:
            terms += 1
            picked += entry.replaced
            window = getattr(entry, "window", None)
            if window is not None:
                window_bytes += window.nbytes
        replaced += picked
        forced_only += picked == 1
    return (terms, replaced, forced_only, unaugmentable, window_bytes)


# (defining module, attribute, span name, value taken from the result)
TARGETS = [
    ("una.cli", "main", "cli.main", None),
    ("una.corpus", "tokenize", "corpus.tokenize", len),
    ("una.corpus", "read_nonblank_lines", "corpus.read_nonblank_lines", None),
    ("una.corpus", "build_vocabulary", "corpus.build_vocabulary", None),
    ("una.corpus", "load_corpus", "corpus.load_corpus", None),
    ("una.tfidf", "fit", "tfidf.fit", lambda model: model.m),
    ("una.tfidf", "save_model", "tfidf.save_model", None),
    ("una.tfidf", "load_model", "tfidf.load_model", None),
    ("una.tfidf", "sentence_scores", "tfidf.sentence_scores", None),
    ("una.augment", "candidate_window", "augment.candidate_window", len),
    ("una.augment", "sample_replacement", "augment.sample_replacement", None),
    ("una.augment", "sentence_rng", "augment.sentence_rng", None),
    ("una.augment", "replacement_probabilities", "augment.replacement_probabilities", None),
    ("una.augment", "augment_sentence", "augment.augment_sentence", None),
    ("una.augment", "augment_batch", "augment.augment_batch", _batch_value),
    ("una.contrastive", "batch_loss", "contrastive.batch_loss", None),
    ("una.contrastive", "info_nce", "contrastive.info_nce", None),
    ("una.contrastive", "ToyEncoder.encode", "contrastive.encode", None),
    ("una.evaluation", "evaluate_pairs", "evaluation.evaluate_pairs", lambda report: report.n_pairs),
    ("una.evaluation", "spearman", "evaluation.spearman", None),
]


class Tracer:
    def __init__(self, spans_path):
        self.spans_path = spans_path
        self.spans: list[list] = []
        self.stack = [-1]
        self.rounds: list[dict[str, float]] = []
        self.batch_ms: list[float] = []
        self.batch_window_mb: list[float] = []

    def _wrap(self, name, fn, value):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if value is not None:
                record[4] = value(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever una binds it; call once, after import."""
        modules = [sys.modules[name] for name in UNA_MODULES]
        for module_name, attribute, name, value in TARGETS:
            owner = sys.modules[module_name]
            if "." in attribute:  # a method: patch the class and its aliases
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = getattr(cls, method)
                wrapper = self._wrap(name, original, value)
                for alias, member in list(vars(cls).items()):
                    if member is original:
                        setattr(cls, alias, wrapper)
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, value)
            for module in modules:
                if getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapper)

    def end_round(self, label: str) -> dict[str, float]:
        """Fold this round's spans into per-layer figures and write them out."""
        spans = self.spans
        total = defaultdict(float)
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        values = defaultdict(int)
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        batches = []
        for index, (name, start, end, parent, value) in enumerate(spans):
            duration = end - start
            total[name] += duration / 1e6
            self_ms[name] += (duration - child_ns[index]) / 1e6
            calls[name] += 1
            if name == "augment.augment_batch":
                if value is not None:
                    batches.append(value)
                    self.batch_ms.append(duration / 1e6)
                    self.batch_window_mb.append(value[4] / 1e6)
            elif value is not None:
                values[name] += value
        with open(self.spans_path, "a", encoding="utf-8") as out:
            for index, (name, start, end, parent, _) in enumerate(spans):
                out.write(f"{label}\t{index}\t{name}\t{start}\t{end}\t{parent}\n")
        spans.clear()

        figures = {
            "corpus.tokenize_ms": total["corpus.tokenize"],
            "corpus.tokenize_calls": calls["corpus.tokenize"],
            "corpus.tokens": values["corpus.tokenize"],
            "corpus.load_corpus_self_ms": self_ms["corpus.load_corpus"],
            "corpus.build_vocabulary_ms": total["corpus.build_vocabulary"],
            "corpus.read_lines_ms": total["corpus.read_nonblank_lines"],
            "tfidf.fit_ms": total["tfidf.fit"],
            "tfidf.save_model_ms": total["tfidf.save_model"],
            "tfidf.vocab_terms": values["tfidf.fit"],
            "tfidf.load_model_ms": total["tfidf.load_model"],
            "tfidf.sentence_scores_ms": total["tfidf.sentence_scores"],
            "tfidf.sentence_scores_calls": calls["tfidf.sentence_scores"],
            "augment.window_ms": total["augment.candidate_window"],
            "augment.window_elements": values["augment.candidate_window"],
            "augment.sample_ms": total["augment.sample_replacement"],
            "augment.sample_calls": calls["augment.sample_replacement"],
            "augment.rng_ms": total["augment.sentence_rng"],
            "augment.probabilities_ms": total["augment.replacement_probabilities"],
            "augment.sentence_self_ms": self_ms["augment.augment_sentence"],
            "augment.batches": len(batches),
            "augment.terms": sum(b[0] for b in batches),
            "augment.replaced": sum(b[1] for b in batches),
            "augment.forced_only": sum(b[2] for b in batches),
            "augment.unaugmentable": sum(b[3] for b in batches),
            "cli.self_ms": self_ms["cli.main"],
            "contrastive.batch_loss_ms": total["contrastive.batch_loss"],
            "contrastive.info_nce_calls": calls["contrastive.info_nce"],
            "contrastive.encode_ms": total["contrastive.encode"],
            "contrastive.encode_calls": calls["contrastive.encode"],
            "evaluation.evaluate_pairs_self_ms": self_ms["evaluation.evaluate_pairs"],
            "evaluation.spearman_ms": total["evaluation.spearman"],
            "evaluation.pairs": values["evaluation.evaluate_pairs"],
        }
        self.rounds.append(figures)
        return figures

    def summary(self) -> dict:
        """Per-round medians (counts must agree across rounds) and batch times."""
        out = {}
        for name in self.rounds[0]:
            values = [r[name] for r in self.rounds]
            if name.endswith("_ms"):
                out[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    raise RuntimeError(f"count {name} differs between rounds: {values}")
                out[name] = values[0]
        out["batch_ms"] = self.batch_ms
        out["batch_window_mb"] = self.batch_window_mb
        return out
