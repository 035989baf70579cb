"""Output checkers; none of them imports or calls una.

Each checker takes the program's outputs and the generator's true tokens
and returns a list of error strings, empty when the outputs hold every
property tested. They test properties the method must have, computed by
routes of their own: a sparse count matrix for the TF-IDF fit, the
replacement probability formula for the realised replacement count, a
matrix-form loss, and a separate implementation of the toy encoder for
the Spearman evaluation.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import sparse, special, stats

MARKER = "#unaugmentable"
MAX_ERRORS = 20


@dataclass
class Model:
    n_docs: int
    terms: list[str]
    index: dict[str, int]
    idf: np.ndarray
    max_score: np.ndarray
    ranks: np.ndarray  # term ids in rank order
    rank_of: np.ndarray  # rank position of each term id


def read_model(text: str) -> Model:
    """Parse the `UNA-TFIDF v1` text format; raises ValueError if malformed."""
    lines = text.split("\n")
    header = re.fullmatch(r"UNA-TFIDF v1 N=(\d+) m=(\d+)", lines[0])
    if header is None:
        raise ValueError(f"bad model header {lines[0]!r}")
    n_docs, m = int(header.group(1)), int(header.group(2))
    rows = [line.split("\t") for line in lines[1 : 1 + m]]
    if lines[1 + m] != "ranks:" or any(len(row) != 3 for row in rows):
        raise ValueError("bad model body")
    terms = [row[0] for row in rows]
    ranks = np.array([int(t) for line in lines[2 + m :] for t in line.split()], dtype=np.int64)
    if sorted(ranks.tolist()) != list(range(m)):
        raise ValueError("rank section is not a permutation of the term ids")
    rank_of = np.empty(m, dtype=np.int64)
    rank_of[ranks] = np.arange(m)
    return Model(
        n_docs,
        terms,
        {term: i for i, term in enumerate(terms)},
        np.array([float(row[1]) for row in rows]),
        np.array([float(row[2]) for row in rows]),
        ranks,
        rank_of,
    )


def _relative_errors(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(got), np.abs(want))
    return np.divide(np.abs(got - want), scale, out=np.zeros_like(scale), where=scale > 0)


# ---------------------------------------------------------------- fit


def check_fit(model: Model, stdout: str, docs: list[list[str]], rel: float = 1e-12) -> list[str]:
    """idf and max-score against a scipy.sparse count matrix, ranks by (score, id)."""
    index: dict[str, int] = {}
    for doc in docs:
        for token in doc:
            index.setdefault(token, len(index))
    n, m = len(docs), len(index)
    errors = []
    if stdout != f"N={n} m={m}\n":
        errors.append(f"stdout {stdout!r}, expected N={n} m={m}")
    if model.n_docs != n or model.terms != list(index):
        return errors + ["model N or term list (in first-seen order) differs from the corpus"]

    lengths = np.array([len(doc) for doc in docs])
    columns = np.fromiter((index[t] for doc in docs for t in doc), dtype=np.int64, count=int(lengths.sum()))
    counts = sparse.csr_matrix(
        (np.ones(columns.size), (np.repeat(np.arange(n), lengths), columns)), shape=(n, m)
    )
    counts.sum_duplicates()
    doc_freq = np.bincount(counts.indices, minlength=m)
    idf = np.log(n) - np.log(doc_freq)
    rows = np.repeat(np.arange(n), np.diff(counts.indptr))
    scores = counts.copy()
    scores.data = np.log1p(counts.data / lengths[rows]) * idf[counts.indices]
    max_score = scores.max(axis=0).toarray().ravel()

    for label, got, want in (("idf", model.idf, idf), ("max-score", model.max_score, max_score)):
        bad = np.flatnonzero(_relative_errors(got, want) > rel)
        errors += [f"{label} of {model.terms[i]!r}: {float(got[i])!r} != {float(want[i])!r}" for i in bad[:MAX_ERRORS]]
    a, b = model.ranks[:-1], model.ranks[1:]
    score = model.max_score
    ordered = (score[a] < score[b]) | ((score[a] == score[b]) & (a < b))
    errors += [f"ranks {i} and {i + 1} are out of (max-score, id) order" for i in np.flatnonzero(~ordered)[:MAX_ERRORS]]
    return errors


# ---------------------------------------------------------------- augment


def probabilities(model: Model, known: list[str], beta: float) -> tuple[np.ndarray, str]:
    """Replacement probability of each distinct term, and the forced term."""
    counts = Counter(model.index[t] for t in known)
    ids = sorted(counts)
    z = np.array([math.log1p(counts[i] / len(known)) * model.idf[i] for i in ids])
    top = int(np.argmax(z))  # first maximum: the lowest term id
    p = np.zeros(len(ids))
    if z.max() > z.min():
        centered = z - z.min()
        p = np.minimum(beta * centered / centered.mean(), 1.0)
    p[top] = 1.0
    return p, model.terms[ids[top]]


@dataclass
class Law:
    """Realised replacements against the sum of replacement probabilities."""

    replaced: int = 0
    expected: float = 0.0
    variance: float = 0.0

    def errors(self) -> list[str]:
        sigma = math.sqrt(self.variance)
        if abs(self.replaced - self.expected) > 5 * sigma:
            return [f"{self.replaced} terms replaced, expected {self.expected:.1f} +- 5 x {sigma:.1f}"]
        return []


def check_negative(
    model: Model, source: list[str], output: list[str], marked: bool, radius: int, beta: float, law: Law
) -> list[str]:
    """Properties of one generated negative against its true source tokens."""
    if len(output) != len(source):
        return [f"{len(output)} tokens for a source of {len(source)}"]
    known = [t for t in source if t in model.index]
    errors = []
    if marked != (not known):
        errors.append(f"unaugmentable marker is {marked} with {len(known)} in-vocabulary tokens")
    substitutes: dict[str, str] = {}
    for term, out in zip(source, output):
        if term not in model.index:
            if out != term:
                errors.append(f"out-of-vocabulary {term!r} became {out!r}")
        elif substitutes.setdefault(term, out) != out:
            errors.append(f"{term!r} has two substitutes in one sentence")
    if not known:
        return errors
    replaced = {term: out for term, out in substitutes.items() if out != term}
    if not replaced:
        errors.append("no token changed")
    for term, out in replaced.items():
        if out not in model.index:
            errors.append(f"substitute {out!r} is not in the vocabulary")
        elif abs(model.rank_of[model.index[out]] - model.rank_of[model.index[term]]) > radius:
            errors.append(f"substitute {out!r} of {term!r} ranks outside the radius {radius}")
    p, forced = probabilities(model, known, beta)
    if forced not in replaced:
        errors.append(f"top-scoring term {forced!r} was kept")
    law.replaced += len(replaced)
    law.expected += float(p.sum())
    law.variance += float((p * (1 - p)).sum())
    return errors


def check_augment(
    model: Model, stdout: str, lines: list, output: str, radius: int, beta: float, batch: int
) -> list[str]:
    """`una augment --alpha 1` output against the input lines (None = blank line)."""
    kept = [(number, s.tokens) for number, s in enumerate(lines, start=1) if s is not None]
    rows = output.split("\n")
    if rows[-1] == "":
        rows.pop()
    errors = []
    if len(rows) != len(kept):
        errors.append(f"{len(rows)} output lines for {len(kept)} input sentences")
    law, marked_count = Law(), 0
    for k, ((number, source), row) in enumerate(zip(kept, rows)):
        fields = row.split("\t")
        marked = fields[3:] == [MARKER]
        marked_count += marked
        if len(fields) != 3 + marked or fields[:2] != [str(k // batch + 1), str(number)]:
            errors.append(f"output line {k + 1} has bad fields {fields[:2]} (+{len(fields) - 2})")
            continue
        output_tokens = fields[2].split(" ") if fields[2] else []
        errors += [f"line {number}: {e}" for e in check_negative(model, source, output_tokens, marked, radius, beta, law)]
    expected = f"batches={-(-len(kept) // batch)} negatives={len(kept)} unaugmentable={marked_count}\n"
    if stdout != expected:
        errors.append(f"stdout {stdout!r}, expected {expected!r}")
    return errors[:MAX_ERRORS] + law.errors()


# ---------------------------------------------------------------- train-eval


class Encoder:
    """The toy encoder's documented definition, written out independently."""

    def __init__(self, vocabulary: dict[str, int], dim: int, seed: int):
        self.vocabulary, self.dim, self.seed = vocabulary, dim, seed
        self.vectors: dict[str, np.ndarray] = {}

    def vector(self, term: str) -> np.ndarray:
        if term not in self.vectors:
            key = int.from_bytes(hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest(), "big")
            raw = np.random.default_rng(np.random.SeedSequence([self.seed, key])).standard_normal(self.dim)
            self.vectors[term] = raw / np.linalg.norm(raw)
        return self.vectors[term]

    def __call__(self, tokens: list[str]) -> np.ndarray:
        counts = Counter(t for t in tokens if t in self.vocabulary)
        total = np.zeros(self.dim)
        for term in sorted(counts):
            total += counts[term] * self.vector(term)
        norm = np.linalg.norm(total)
        if norm == 0:
            total[0], norm = 1.0, 1.0
        return total / norm


def matrix_loss(anchors: np.ndarray, positives: np.ndarray, negatives, tau: float) -> float:
    """Mean in-batch contrastive loss in matrix form, positives kept out of the denominator."""

    def unit(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    a = unit(anchors)
    logits = a @ a.T / tau
    np.fill_diagonal(logits, -np.inf)
    if negatives is not None:
        logits = np.hstack([logits, a @ unit(negatives).T / tau])
    positive = np.sum(a * unit(positives), axis=1) / tau
    return float(np.mean(special.logsumexp(logits, axis=1) - positive))


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(u @ v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))


def check_train(
    model: Model, record, negative_tokens: list, anchors: list[list[str]], dev: list,
    *, alpha: int, tau: float, radius: int, beta: float, dim: int, encoder_seed: int, rel: float = 1e-9,
) -> list[str]:
    """Losses, the injection schedule, negatives and the dev rho of one epoch."""
    errors = []
    law = Law()
    losses, without = record["losses"].tolist(), record["loss_without"].tolist()
    batch = record["anchors"].shape[1]
    for step, (loss, loss_without) in enumerate(zip(losses, without), start=1):
        key = f"negatives_{step}"
        negatives = record[key] if key in record else None
        if (negatives is not None) != (step % alpha == 0):
            errors.append(f"step {step}: negatives injected = {negatives is not None} with alpha {alpha}")
        a, p = record["anchors"][step - 1], record["positives"][step - 1]
        want = matrix_loss(a, p, negatives, tau)
        if not _close(loss, want, rel):
            errors.append(f"step {step}: loss {loss!r} != matrix form {want!r}")
        if negatives is None:
            continue
        if not _close(loss_without, matrix_loss(a, p, None, tau), rel):
            errors.append(f"step {step}: loss without negatives {loss_without!r} != matrix form")
        if not loss >= loss_without:
            errors.append(f"step {step}: loss with negatives {loss!r} < without {loss_without!r}")
        sources = anchors[(step - 1) * batch : step * batch]
        generated = negative_tokens[step - 1]
        if len(generated) != len(sources) or len(negatives) != len(sources):
            errors.append(f"step {step}: {len(generated)} negatives for {len(sources)} anchors")
        for source, (tokens, marked) in zip(sources, generated):
            errors += [f"step {step}: {e}" for e in check_negative(model, source, tokens, marked, radius, beta, law)]

    encoder = Encoder(model.index, dim, encoder_seed)
    mine = np.array([encoder(tokens) for tokens in anchors[: len(losses) * batch]])
    if not np.allclose(record["anchors"].reshape(mine.shape), mine, rtol=0, atol=1e-12):
        errors.append("anchor embeddings differ from the toy encoder's definition")
    scored = [(a, b, g) for a, b, g in dev if any(t in model.index for t in a + b)]
    cosines = [_cosine(encoder(a), encoder(b)) for a, b, _ in scored]
    rho = stats.spearmanr(cosines, [g for _, _, g in scored]).statistic
    if int(record["n_pairs"]) != len(scored) or abs(float(record["rho"]) - rho) > rel:
        errors.append(f"rho {float(record['rho'])!r} over {int(record['n_pairs'])} pairs, expected {rho!r} over {len(scored)}")
    if not rho > 0.3:
        errors.append(f"dev rho {rho} is not clearly positive")
    return errors[:MAX_ERRORS] + law.errors()
