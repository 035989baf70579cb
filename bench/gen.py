"""Seeded synthetic inputs for the benchmark.

Every sentence is made from a fixed pseudo-word lexicon, so its true token
list is known without running the program's tokenizer. The surface text
adds what the tokenizer must undo: capitalised and upper-case words,
surrounding ASCII and Unicode punctuation, stand-alone dashes that
tokenize to nothing, and doubled spaces. Interior hyphens are part of some
words and survive tokenization. The same seed always gives the same files.

Usage: python3 bench/gen.py --workload NAME --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONSONANTS = "bcdfglmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]
LEXICON_SIZE = 200_000
ZIPF_EXPONENT = 1.4
ZIPF_OFFSET = 2.7
MIN_LEN, MAX_LEN = 6, 20

# Sizes of the generated files.
FIT_CORPUS_SENTENCES = 100_000  # fit-corpus: m ~ 35k terms
MODEL_CORPUS_SENTENCES = 40_000  # augment-guided and train-eval model: m ~ 20k
AUGMENT_SENTENCES = 5_000
TRAIN_PAIRS = 64 * 40  # one epoch of 40 batches of 64 pairs
DEV_PAIRS = 1_500

OOV_TOKEN_SHARE = 0.03  # augment input: tokens the model never saw
ALL_OOV_LINE_SHARE = 0.02  # augment input: lines with no in-vocabulary token
BLANK_LINE_SHARE = 0.01  # augment input: blank lines (skipped, numbering kept)


def lexicon_word(index: int) -> str:
    """Bijective index -> pseudo-word; 2 syllables below 4900, else 3.

    Every 37th word carries an interior hyphen after its first syllable.
    """
    base = len(SYLLABLES)
    if index < base**2:
        digits = [index // base, index % base]
    else:
        rest = index - base**2
        digits = [rest // base**2, (rest // base) % base, rest % base]
    parts = [SYLLABLES[d] for d in digits]
    if index % 37 == 5:
        return parts[0] + "-" + "".join(parts[1:])
    return "".join(parts)


def oov_word(index: int) -> str:
    """Words that begin with 'q', a letter the lexicon never uses."""
    return "q" + lexicon_word(index)


@functools.lru_cache(maxsize=2)
def _lexicon(seed: int) -> tuple[np.ndarray, list[str]]:
    """Zipf CDF over frequency ranks and the seed's word at each rank."""
    order = np.random.default_rng([seed, 0]).permutation(LEXICON_SIZE)
    weights = 1.0 / (np.arange(LEXICON_SIZE) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    return np.cumsum(weights / weights.sum()), [lexicon_word(int(i)) for i in order]


@dataclass
class Sentence:
    tokens: list[str]  # the true tokens, lowercase
    text: str  # the surface line the program reads


class Generator:
    """Zipf sampler over the lexicon; the seed permutes which words are common."""

    def __init__(self, seed: int, stream: int):
        self.rng = np.random.default_rng([seed, stream])
        self.cdf, self.words = _lexicon(seed)

    def word_ids(self, count: int) -> np.ndarray:
        ids = np.searchsorted(self.cdf, self.rng.random(count), side="right")
        return np.minimum(ids, LEXICON_SIZE - 1)

    def token_lists(self, count: int) -> list[list[str]]:
        lengths = self.rng.integers(MIN_LEN, MAX_LEN + 1, size=count)
        ids = self.word_ids(int(lengths.sum()))
        words = self.words
        out, start = [], 0
        for length in lengths:
            out.append([words[i] for i in ids[start : start + length]])
            start += length
        return out

    def surface(self, tokens: list[str]) -> str:
        """Render true tokens as text the tokenizer maps back to them."""
        rng = self.rng
        draws = rng.random((len(tokens), 4)).tolist()
        pieces = []
        for position, (token, d) in enumerate(zip(tokens, draws)):
            piece = token.upper() if d[0] < 0.04 else token
            if position == 0 or d[0] > 0.93:
                piece = piece[0].upper() + piece[1:]
            if d[1] < 0.02:
                piece = f'"{piece}"'
            elif d[1] < 0.03:
                piece = f"({piece})"
            elif d[1] < 0.04:
                piece = f"«{piece}»"
            if d[2] < 0.08 and position < len(tokens) - 1:
                piece += ","
            pieces.append(piece)
            if d[3] < 0.01:
                pieces.append("—")
        pieces[-1] += "." if draws[0][3] < 0.8 else "?!"
        joiner = "  " if draws[-1][2] > 0.97 else " "
        return joiner.join(pieces)

    def sentences(self, count: int) -> list[Sentence]:
        return [Sentence(t, self.surface(t)) for t in self.token_lists(count)]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def corpus(seed: int, stream: int, count: int) -> list[Sentence]:
    return Generator(seed, stream).sentences(count)


def augment_input(seed: int, count: int = AUGMENT_SENTENCES) -> list[Sentence | None]:
    """Held-out sentences with OOV tokens, all-OOV lines and blank lines (None)."""
    gen = Generator(seed, 3)
    rng = gen.rng
    out: list[Sentence | None] = []
    for tokens in gen.token_lists(count):
        kind = rng.random()
        if kind < BLANK_LINE_SHARE:
            out.append(None)
        if kind > 1 - ALL_OOV_LINE_SHARE:
            tokens = [oov_word(int(i)) for i in rng.integers(0, 5000, size=len(tokens) // 2)]
        else:
            swap = rng.random(len(tokens)) < OOV_TOKEN_SHARE
            tokens = [
                oov_word(int(rng.integers(0, 5000))) if s else t for t, s in zip(tokens, swap)
            ]
        out.append(Sentence(tokens, gen.surface(tokens)))
    return out


def perturbed(gen: Generator, tokens: list[str], count: int) -> list[str]:
    """Replace `count` distinct positions by lexicon words absent from tokens."""
    rng = gen.rng
    result = list(tokens)
    present = set(tokens)
    for position in rng.choice(len(tokens), size=count, replace=False):
        while True:
            word = gen.words[int(gen.word_ids(1)[0])]
            if word not in present:
                break
        result[position] = word
        present.add(word)
    return result


def train_pairs(seed: int, count: int = TRAIN_PAIRS) -> list[tuple[Sentence, Sentence]]:
    """Anchor/positive pairs: the positive swaps one or two anchor words."""
    gen = Generator(seed, 4)
    pairs = []
    for tokens in gen.token_lists(count):
        positive = perturbed(gen, tokens, int(gen.rng.integers(1, 3)))
        pairs.append((Sentence(tokens, gen.surface(tokens)), Sentence(positive, gen.surface(positive))))
    return pairs


def jaccard(a: list[str], b: list[str]) -> float:
    sa, sb = set(a), set(b)
    return len(sa & sb) / len(sa | sb)


def dev_pairs(seed: int, count: int = DEV_PAIRS) -> list[tuple[Sentence, Sentence, float]]:
    """Scored pairs; gold is the Jaccard overlap of the true token sets.

    Four in five pairs perturb between one and all-but-one token of the
    first sentence; the rest pair unrelated sentences. No pair has equal
    token sets, so no cosine sits at an exact tie of 1.
    """
    gen = Generator(seed, 5)
    rng = gen.rng
    firsts = gen.token_lists(count)
    others = gen.token_lists(count)
    out = []
    for a, other in zip(firsts, others):
        if rng.random() < 0.8:
            b = perturbed(gen, a, int(rng.integers(1, len(a))))
        else:
            b = other
        if set(a) == set(b):
            b = perturbed(gen, a, 1)
        out.append((Sentence(a, gen.surface(a)), Sentence(b, gen.surface(b)), jaccard(a, b)))
    return out


def write_pairs(out: Path, pairs: list, dev: list) -> None:
    write_lines(out / "train_pairs.tsv", [f"{a.text}\t{p.text}" for a, p in pairs])
    write_lines(out / "dev_pairs.tsv", [f"{a.text}\t{b.text}\t{g!r}" for a, b, g in dev])


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's input files into `out`; return their true tokens."""
    if workload == "fit-corpus":
        sentences = corpus(seed, 1, FIT_CORPUS_SENTENCES)
        write_lines(out / "fit_corpus.txt", [s.text for s in sentences])
        return {"docs": [s.tokens for s in sentences]}
    sentences = corpus(seed, 2, MODEL_CORPUS_SENTENCES)
    write_lines(out / "model_corpus.txt", [s.text for s in sentences])
    truth = {"model_docs": [s.tokens for s in sentences]}
    if workload == "augment-guided":
        lines = augment_input(seed)
        write_lines(out / "augment_input.txt", [s.text if s else "" for s in lines])
        truth["lines"] = lines
    else:
        pairs, dev = train_pairs(seed), dev_pairs(seed)
        write_pairs(out, pairs, dev)
        truth["anchors"] = [a.tokens for a, _ in pairs]
        truth["dev"] = [(a.tokens, b.tokens, g) for a, b, g in dev]
    return truth


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["fit-corpus", "augment-guided", "train-eval"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    write_inputs(args.workload, args.seed, args.out)
