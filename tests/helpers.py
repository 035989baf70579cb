"""Shared test utilities: independent oracles and synthetic corpora.

The oracles here intentionally re-derive results through a different
route than the library (dense matrices, quadratic rank counting) so the
two sides stay independent checks of each other.
"""

from __future__ import annotations

import hashlib
import math
import unicodedata
from collections import Counter
from pathlib import Path

import numpy as np

from una import evaluation, tfidf
from una.contrastive import cosine_similarity
from una.corpus import Corpus, CorpusDecodeError, Document, Vocabulary, tokenize
from una.evaluation import EvalDataError, EvalReport, spearman
from una.tfidf import ModelFormatError, TfIdfModel


def reference_trim_punctuation(piece: str) -> str:
    """Trim category-P* characters from both ends, one category lookup
    per character, ASCII or not."""
    start, end = 0, len(piece)
    while start < end and unicodedata.category(piece[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(piece[end - 1]).startswith("P"):
        end -= 1
    return piece[start:end]


def reference_tokenize(text: str) -> list[str]:
    """The tokenizer's definition, one piece at a time: split on
    whitespace, trim category-P* characters from both ends, lowercase, and
    drop pieces that end up empty."""
    tokens = []
    for piece in text.split():
        piece = reference_trim_punctuation(piece).lower()
        if piece:
            tokens.append(piece)
    return tokens


def reference_term_frequencies(vocabulary: Vocabulary, tokens) -> tuple[list[int], list[float]]:
    """One sentence's ascending in-vocabulary term ids and their tf values,
    counted with a Counter: the per-sentence oracle of the row counter
    that fit and sentence_scores share.

    Out-of-vocabulary tokens count neither as terms nor toward the length
    n in tf = log(1 + c/n).
    """
    known = [term_id for term_id in map(vocabulary.get, tokens) if term_id is not None]
    counts = Counter(known)
    total = len(known)
    term_ids = sorted(counts)
    return term_ids, [math.log1p(counts[i] / total) for i in term_ids]


def reference_fit(corpus: Corpus) -> TfIdfModel:
    """Per-document fit loop with the library's arithmetic: the bit-exact
    oracle of the chunked fit (brute_force_tfidf checks the math itself)."""
    m = len(corpus.vocabulary)
    n_docs = corpus.n_docs
    doc_freq = [0] * m
    max_tf = [0.0] * m
    for tokens in corpus_token_lists(corpus):
        for term_id, value in zip(*reference_term_frequencies(corpus.vocabulary, tokens)):
            doc_freq[term_id] += 1
            if value > max_tf[term_id]:
                max_tf[term_id] = value
    idf_values = np.array([-math.log(df / n_docs) + 0.0 if df else 0.0 for df in doc_freq])
    return TfIdfModel(corpus.vocabulary, n_docs, idf_values, np.array(max_tf) * idf_values)


def reference_save_model(model: TfIdfModel, sink) -> None:
    """save_model one value at a time: the oracle of its per-distinct-value
    conversion. Each term line holds the term and the repr of its idf and
    max_score as Python floats."""
    sink.write(f"UNA-TFIDF v1 N={model.n_docs} m={model.m}\n")
    sink.writelines(
        f"{term}\t{idf!r}\t{max_score!r}\n"
        for term, idf, max_score in zip(model.vocabulary, map(float, model.idf), map(float, model.max_score))
    )
    sink.write("ranks:\n")
    sink.write(" ".join(map(str, map(int, model.rank_by_score))))
    sink.write("\n")


def reference_load_terms(term_lines: list[str]) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """load_model's term section read line by line, the oracle of its
    regex-gated column parse of each chunk: split each line on tabs, check the term
    tokenizes to itself and is new, and parse both scores, each of which
    must be finite, >= 0 and plain. Raises ModelFormatError naming the
    first bad line."""
    m = len(term_lines)
    vocabulary = Vocabulary()
    idf_values = np.zeros(m, dtype=np.float64)
    max_score = np.zeros(m, dtype=np.float64)
    for term_id, line in enumerate(term_lines):
        line_number = 2 + term_id
        fields = line.split("\t")
        if len(fields) != 3:
            raise ModelFormatError(line_number, f"expected 3 tab-separated fields, got {len(fields)}")
        term, idf_text, score_text = fields
        if tokenize(term) != [term]:
            raise ModelFormatError(line_number, f"term {term!r} is not a single token")
        if term in vocabulary:
            raise ModelFormatError(line_number, f"duplicate term {term!r}")
        vocabulary.add(term)
        idf_values[term_id] = tfidf._parse_score(idf_text, line_number, "idf")
        max_score[term_id] = tfidf._parse_score(score_text, line_number, "max_score")
    return vocabulary, idf_values, max_score


def reference_load_model(text: str) -> TfIdfModel:
    """load_model as the whole-text parse that its chunked read replaced:
    split the text on newlines, drop a final empty piece and each line's
    trailing carriage returns, check the header and then that the file
    holds m term lines and the rank header, read the term lines with
    reference_load_terms, check the rank header and scan the rank ids one
    by one. Raises ModelFormatError naming the first bad line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line.rstrip("\r") for line in lines]
    if not lines:
        raise ModelFormatError(1, "empty model file")
    header = tfidf._HEADER_RE.match(lines[0])
    if header is None:
        raise ModelFormatError(1, f"bad header {lines[0]!r} (expected 'UNA-TFIDF v1 N=<int> m=<int>')")
    n_docs, m = int(header.group(1)), int(header.group(2))
    if n_docs < 1:
        raise ModelFormatError(1, f"N must be >= 1, got {n_docs}")
    if len(lines) < m + 2:
        raise ModelFormatError(len(lines) + 1, "truncated file: missing term or rank lines")
    vocabulary, idf_values, max_score = reference_load_terms(lines[1 : 1 + m])
    if lines[1 + m] != "ranks:":
        raise ModelFormatError(m + 2, f"expected 'ranks:' section, got {lines[1 + m]!r}")
    rank_ids = tfidf._scan_rank_ids(lines[m + 2 :], m + 3, max_score)
    return TfIdfModel(vocabulary, n_docs, idf_values, max_score, rank_ids)


def reference_read_lines(source) -> tuple[list[tuple[int, str]], int]:
    """The reader that the streaming one replaced, as read_nonblank_lines
    gave it: read the whole stream, split it on newlines, decode each
    piece, strip trailing carriage returns, drop a final empty piece, and
    keep the non-empty lines with their numbers plus the count of blanks."""
    data = source.read()
    if isinstance(data, bytes):
        pieces, offset = [], 0
        for number, raw in enumerate(data.split(b"\n"), start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusDecodeError(number, offset + exc.start, exc.reason) from exc
            pieces.append(text.rstrip("\r"))
            offset += len(raw) + 1
    else:
        pieces = [text.rstrip("\r") for text in data.split("\n")]
    if pieces and pieces[-1] == "":
        pieces.pop()
    kept = [(number, text) for number, text in enumerate(pieces, start=1) if text]
    return kept, len(pieces) - len(kept)


SAMPLE_CORPUS = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.txt"


def corpus_from_token_lists(token_lists, vocabulary_terms=None) -> Corpus:
    """Corpus over the given tokens; a hand-picked vocabulary may leave out
    some of them or add terms that no document uses. Tokens outside the
    vocabulary are left out of their row, as fit and sentence_scores
    leave them out of a sentence's terms and length."""
    if vocabulary_terms is None:
        vocabulary = Vocabulary(token for tokens in token_lists for token in tokens)
    else:
        vocabulary = Vocabulary(vocabulary_terms)
    rows = [[vocabulary.get(t) for t in tokens if t in vocabulary] for tokens in token_lists]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return Corpus(vocabulary, indptr, [term_id for row in rows for term_id in row])


def reference_load_corpus(source) -> tuple[list[str], list[list[str]]]:
    """load_corpus's definition, one line at a time: the terms in
    first-occurrence order, and each non-blank line's reference_tokenize
    tokens."""
    lines, _ = reference_read_lines(source)
    rows = [reference_tokenize(text) for _, text in lines]
    return list(dict.fromkeys(token for row in rows for token in row)), rows


def corpus_token_lists(corpus: Corpus) -> list[list[str]]:
    """Each document (row) of a corpus as its list of terms."""
    terms, bounds, ids = corpus.vocabulary.terms, corpus.indptr.tolist(), corpus.term_ids.tolist()
    return [[terms[i] for i in ids[start:end]] for start, end in zip(bounds, bounds[1:])]


def corpus_documents(corpus: Corpus) -> list[Document]:
    """Each document of a corpus as an augmentation input, ids from 0."""
    return [Document(index, tokens) for index, tokens in enumerate(corpus_token_lists(corpus))]


def brute_force_tfidf(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Dense documents-by-terms matrix; returns (idf, column maxima)."""
    n_docs = corpus.n_docs
    m = len(corpus.vocabulary)
    doc_freq = np.zeros(m)
    documents = corpus_token_lists(corpus)
    for tokens in documents:
        for term in set(tokens):
            doc_freq[corpus.vocabulary.get(term)] += 1
    idf = np.zeros(m)
    for j in range(m):
        if doc_freq[j] > 0:
            idf[j] = -math.log(doc_freq[j] / n_docs)
    matrix = np.zeros((n_docs, m))
    for i, tokens in enumerate(documents):
        n = len(tokens)
        if n == 0:
            continue
        for term in tokens:
            j = corpus.vocabulary.get(term)
            matrix[i, j] += 1
        for j in range(m):
            if matrix[i, j] > 0:
                matrix[i, j] = math.log(1 + matrix[i, j] / n) * idf[j]
    max_score = matrix.max(axis=0) if n_docs else np.zeros(m)
    return idf, np.maximum(max_score, 0.0)


def random_corpus(rng: np.random.Generator, max_docs: int = 20, max_terms: int = 50) -> Corpus:
    """Small random corpus for oracle comparisons."""
    pool_size = int(rng.integers(2, max_terms + 1))
    pool = [f"t{k}" for k in range(pool_size)]
    n_docs = int(rng.integers(1, max_docs + 1))
    docs = []
    for _ in range(n_docs):
        length = int(rng.integers(1, 9))
        docs.append([pool[int(rng.integers(pool_size))] for _ in range(length)])
    return corpus_from_token_lists(docs)


def zipf_corpus(
    rng: np.random.Generator,
    n_sentences: int = 1000,
    vocab_size: int = 300,
    terms_per_sentence: int = 8,
) -> Corpus:
    """Sentences of distinct terms drawn from a Zipf-weighted pool.

    The skewed frequencies make document frequencies (and hence scores)
    vary widely, which the selection-bias checks rely on.
    """
    weights = 1.0 / np.arange(1, vocab_size + 1)
    weights /= weights.sum()
    pool = [f"w{k:03d}" for k in range(vocab_size)]
    docs = []
    for _ in range(n_sentences):
        picks = rng.choice(vocab_size, size=terms_per_sentence, replace=False, p=weights)
        docs.append([pool[int(k)] for k in picks])
    return corpus_from_token_lists(docs)


def synthetic_model(max_scores, idf_values=None) -> TfIdfModel:
    """Model with hand-picked per-term maxima (terms named t0, t1, ...)."""
    max_scores = np.asarray(max_scores, dtype=float)
    vocabulary = Vocabulary(f"t{k}" for k in range(max_scores.size))
    if idf_values is None:
        idf_values = np.ones(max_scores.size)
    return TfIdfModel(vocabulary, 1, idf_values, max_scores)


def reference_window_pick(model: TfIdfModel, term_id: int, radius: int, rng) -> int:
    """One term's rank-window pick in scalar arithmetic, the oracle of the
    vector search in augment._window_picks.

    The window is the rank range [low, high] minus the term's own rank.
    One random() scaled by the window's score mass picks a point on the
    cumulative scores, and a right-side bisection of score_prefix finds
    the candidate under it; rounding that carries the point past its side
    of the window is clamped back to that side's last rank. A window with
    no score mass takes one integers() draw, uniform over its members.
    """
    rank = model.rank_of(term_id)
    low = max(0, rank - radius)
    high = min(model.m - 1, rank + radius)
    prefix = model.score_prefix
    below = float(prefix[rank] - prefix[low])
    above = float(prefix[high + 1] - prefix[rank + 1])
    total = below + above
    if total > 0:
        target = rng.random() * total
        if target < below:
            start, end, offset = low, rank, target
        else:
            start, end, offset = rank + 1, high + 1, target - below
        stop = int(prefix.searchsorted(prefix[start] + offset, side="right"))
        position = min(stop, end) - 1
    else:
        index = int(rng.integers(high - low))
        position = low + index if low + index < rank else low + index + 1
    return int(model.rank_by_score[position])


def reference_average_ranks(values) -> np.ndarray:
    """The tie-span loop that the array version replaced: walk the stably
    sorted values and give each run of equal values the mean of its
    1-based positions, (start + end) / 2 + 1."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    start = 0
    while start < values.size:
        end = start
        while end + 1 < values.size and values[order[end + 1]] == values[order[start]]:
            end += 1
        ranks[order[start : end + 1]] = (start + end) / 2.0 + 1.0
        start = end + 1
    return ranks


def reference_term_vector(term: str, dim: int, seed: int) -> np.ndarray:
    """A term's unit vector: a standard normal draw from PCG64 seeded by
    (seed, the term's 8-byte blake2b hash), divided by its norm."""
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    sequence = np.random.SeedSequence([seed, int.from_bytes(digest, "big")])
    raw = np.random.default_rng(sequence).standard_normal(dim)
    return raw / np.linalg.norm(raw)


def reference_encode(encoder, tokens) -> np.ndarray:
    """The toy encoder's per-term loop, the oracle of its gather-and-reduce:
    count the in-vocabulary tokens, add count * vector into a zero vector
    term by term in sorted term order, and normalize; the first basis
    vector stands in for a sentence with no terms or a zero sum."""
    fallback = np.zeros(encoder.dim)
    fallback[0] = 1.0
    counts: dict[str, int] = {}
    for token in tokens:
        if token in encoder.vocabulary:
            counts[token] = counts.get(token, 0) + 1
    if not counts:
        return fallback
    total = np.zeros(encoder.dim)
    for token in sorted(counts):
        total += counts[token] * reference_term_vector(token, encoder.dim, encoder.seed)
    norm = np.linalg.norm(total)
    if norm == 0.0:
        return fallback
    return total / norm


def reference_evaluate_pairs(pairs, encoder, vocabulary) -> EvalReport:
    """evaluate_pairs one pair at a time, the oracle of its chunked
    columns: tokenize both sides, skip a pair with no in-vocabulary token
    on either side, encode each side alone and take cosine_similarity."""
    similarities = []
    golds = []
    skipped = 0
    for pair in pairs:
        tokens_a = tokenize(pair.sentence_a)
        tokens_b = tokenize(pair.sentence_b)
        if not any(t in vocabulary for t in tokens_a) and not any(t in vocabulary for t in tokens_b):
            skipped += 1
            continue
        similarities.append(cosine_similarity(encoder.encode(tokens_a), encoder.encode(tokens_b)))
        golds.append(pair.gold)
    if skipped:
        evaluation.logger.warning("skipped %d pair(s) with no in-vocabulary tokens on either side", skipped)
    if len(similarities) < 2:
        raise EvalDataError(f"need at least 2 scoreable pairs, got {len(similarities)}")
    return EvalReport(n_pairs=len(similarities), rho=spearman(similarities, golds), n_skipped=skipped)


def spearman_oracle(xs, ys) -> float:
    """Quadratic-time fractional ranks plus the explicit Pearson formula."""

    def ranks(values):
        out = []
        for v in values:
            below = sum(1 for w in values if w < v)
            equal = sum(1 for w in values if w == v)
            out.append(below + (equal - 1) / 2.0 + 1.0)
        return out

    rx = ranks(list(xs))
    ry = ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)
