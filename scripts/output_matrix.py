#!/usr/bin/env python3
"""Compare the output bytes of two checkouts of una over a fixed matrix.

    python3 scripts/output_matrix.py --base DIR --head DIR

Each checkout's own `una` runs as a subprocess (`python -m una.cli` with
that checkout's `src` on PYTHONPATH) over the same inputs:

- `una fit` on data/sample_corpus.txt, on the fit-corpus input and on the
  augment-guided model corpus, both made by bench/gen.py with seeds 1-3;
- `una augment` on the sample corpus with the model fitted on it, seeds
  1-20 x radius 3/50/4000 (alpha 1, batch size 16);
- `una augment` on the augment-guided input with that seed's model and the
  benchmark's flags, seeds 1-3;
- `una augment` on the augment-guided input of seed 1 with the
  benchmark's flags at --batch-size 1, 7, 1000, 1500 and 6000 (one batch
  holding every line): single-sentence batches, batches that end
  mid-input, batches that straddle augmentation passes, and one batch of
  every sentence length at once;
- the same input and flags with --alpha 3, so that off-schedule batches
  sit between on-schedule ones in a pass, and with --replacement-mode
  random --batch-size 1, whose passes span many batches;
- guided `una augment` with the two-word seeds 2**32 + 5 and 2**64 - 1, on
  the sample corpus (radius 50, alpha 1, batch size 16) and on the
  augment-guided input of seed 1 with the benchmark's flags;
- `una augment` on the sample corpus with beta 0.1 and 1.0, seeds 1-5 x
  radius 3/50/4000 (alpha 1, batch size 16);
- `una fit` on a corpus written by this script that is heavy in pieces
  that trim to nothing, with words in mixed case wrapped in Unicode
  punctuation, rows made only of dropped pieces and blank lines; its
  dropped pieces span several of load_corpus's compaction chunks;
- `una fit` on a corpus written by this script whose long lines repeat
  their words many times each, so that the counts c of a term in its
  line give many ratios c/n, and that holds one line of over 16 KiB;
- `una fit` on a small corpus written by this script in which four terms
  occur in every line (idf 0, so max score 0) and a quarter of the lines
  hold only those terms, then `una augment` on it with radius 1 and 2,
  seeds 1-5: a forced term whose window holds only zero-score terms takes
  the uniform zero-mass fallback;
- `una augment` on the sample corpus with random selection, with random
  replacement, and with both, seeds 1-5 (radius 50, alpha 1, batch size
  16);
- `una loss-demo` on the sample corpus and pairs, seeds 1-5 and the
  two-word seeds 2**32 + 1 and 2**64 - 1, at the default dim and at --dim
  1, 7 and 4096, which writes only to standard output: its
  full-precision losses show a change in the last bit of a term vector,
  which `una eval`'s rho does not;
- `una fit` on the train-eval model corpus made by bench/gen.py with seeds
  1-3, then `una eval` on that seed's dev pairs with the model fitted on
  it, at --dim 1, 7, 256 and 4096 and --encoder-seed 0 and 2**64 - 1,
  which writes only to standard output;
- `una fit` on a corpus written by this script over 2,600 words, then
  `una eval` on a pairs file written with it, at --dim 1 and 256: one
  side holds all 2,600 words (its rows summed in three gathers) and one
  1,025, some pairs have no in-vocabulary word on either side (skipped)
  or on one side, and 300 more pairs span three of evaluate_pairs'
  chunks;
- the runs above with their settings read from a config file written by
  this script: `una augment` on the augment-guided input of seed 1 with
  the benchmark's flags and seed 1 from the file alone, and with the file
  plus --alpha 3 on the command line, which overrides the file's alpha 1;
  `una loss-demo` on the sample corpus and pairs with dim 7 and seed
  2**64 - 1 from the file; `una eval` on the train-eval input of seed 1
  with dim 7 and encoder seed 2**64 - 1 from the file;
- `una augment` on the augment-guided input of seed 1 with the
  benchmark's flags, written over an existing output file, and written
  over a copy of its own input (--output equal to --input); and on that
  input with an invalid UTF-8 last line, written over an existing output
  file, which exits 1 and must leave the file as it was;
- the text readers' line ends and block edges: `una fit` on a CRLF copy of
  the fit-corpus input of seed 1, `una augment` on a CRLF copy of the
  augment-guided input of seed 1 with that seed's model and the
  benchmark's flags, and `una fit` on a copy of that fit-corpus input with
  an invalid UTF-8 byte on a line past its first 64 KiB, which exits 1;
- `una fit` on a corpus written by this script whose only word is
  "solo", then `una augment` on an input of lines that hold it, lines of
  other words and blank lines, guided and with --replacement-mode random
  (alpha 1, batch size 4): under a one-term model every line is
  unaugmentable without a draw;
- `una augment` on the augment-guided input of seed 1 with one line of
  10,000 words from its model corpus inserted in the middle, with that
  seed's model and the benchmark's flags: the line holds more than 8,192
  tokens and forms an augmentation pass of its own;
- `una --help` and each subcommand's `--help`, at COLUMNS=80 like every
  run, which show every flag's default;
- the standard output of every run, and the standard error of each run
  that exits non-zero, which names the line and byte offset of a decode
  error.

That is 372 files per side. The script prints how many are identical,
names each one that differs, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CORPUS = ROOT / "data" / "sample_corpus.txt"
SAMPLE_PAIRS = ROOT / "data" / "sample_pairs.tsv"
GEN_SEEDS = (1, 2, 3)
SAMPLE_SEEDS = range(1, 21)
SAMPLE_RADII = (3, 50, 4000)
SAMPLE_BETAS = (0.1, 1.0)
BETA_SEEDS = range(1, 6)
ZERO_SCORE_SEEDS = range(1, 6)
ZERO_SCORE_RADII = (1, 2)
RANDOM_MODE_SEEDS = range(1, 6)
# Seeds of two 32-bit words, so that the per-sentence streams hash more
# than one seed word.
MULTI_WORD_SEEDS = (2**32 + 5, 2**64 - 1)
LOSS_DEMO_SEEDS = range(1, 6)
# The loss demo's seed is also its encoder seed: two 32-bit words each.
LOSS_DEMO_MULTI_WORD_SEEDS = (2**32 + 1, 2**64 - 1)
LOSS_DEMO_DIMS = (1, 7, 4096)
EVAL_DIMS = (1, 7, 256, 4096)
EVAL_ENCODER_SEEDS = (0, 2**64 - 1)
# Dims of `una eval` on the pairs file this script writes.
WRITTEN_PAIRS_DIMS = (1, 256)
# Batch sizes run besides the benchmark's 64 on one augment-guided input.
BATCH_SIZES = (1, 7, 1000, 1500, 6000)
# Flags run besides the benchmark's on the same input: batches off the
# schedule between passes' rows, and random replacement in passes that
# span many batches.
PASS_FLAGS = {"a3": ["--alpha", "3"], "random-b1": ["--replacement-mode", "random", "--batch-size", "1"]}
# The flags of the augment-guided workload (AUGMENT_FLAGS in bench/workloads.py).
BENCH_AUGMENT_FLAGS = [
    "--alpha", "1", "--batch-size", "64", "--radius", "4000", "--beta", "0.5",
    "--selection-mode", "tfidf", "--replacement-mode", "tfidf",
]
# Config files, by name: BENCH_AUGMENT_FLAGS and seed 1 as key=value lines,
# and the encoder settings of loss-demo and eval.
CONFIG_FILES = {
    "augment.conf": [
        *(f"{flag[2:]}={value}" for flag, value in zip(BENCH_AUGMENT_FLAGS[::2], BENCH_AUGMENT_FLAGS[1::2])),
        "seed=1",
    ],
    "loss-demo.conf": ["dim=7", f"seed={2**64 - 1}"],
    "eval.conf": ["dim=7", f"encoder-seed={2**64 - 1}"],
}


def write_zero_score_corpus(path: Path) -> None:
    """80 lines that all hold the terms "the of and a"; every fourth line
    holds nothing else, the others add two to five words from a pool of 30."""
    rng = random.Random(0)
    common = ["the", "of", "and", "a"]
    pool = [f"word{k}" for k in range(30)]
    lines = []
    for number in range(80):
        words = list(common)
        if number % 4:
            words += rng.sample(pool, rng.randint(2, 5))
        rng.shuffle(words)
        lines.append(" ".join(words))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_punctuated_corpus(path: Path) -> None:
    """20,000 lines of words from a pool of 400, each in lower, title or
    upper case and often wrapped in punctuation, between pieces that trim
    to nothing; about one line in 50 holds only such pieces and one in 50
    is blank."""
    rng = random.Random(0)
    stems = ["σας", "straße", "istanbul", "x-45c", "it's", "naïve", "ǆungla"]
    pool = stems + [f"{rng.choice(stems)[:3]}{k}" for k in range(400 - len(stems))]
    wraps = ["", "", "«»", "“”", "¿?", "¡!", "()", "‘’", "「」", ".", ",", "…", "—"]
    empty = ["—", "–", "…", "...", "«»", "-", "·", "¿¡", "'", "、", "‼"]
    lines = []
    for _ in range(20000):
        kind = rng.randrange(50)
        if kind == 0:
            lines.append("")
            continue
        pieces = [rng.choice(empty) for _ in range(rng.randint(1, 4))]
        if kind != 1:
            for _ in range(rng.randint(1, 8)):
                word = rng.choice((str.lower, str.title, str.upper))(rng.choice(pool))
                wrap = rng.choice(wraps)
                pieces.append(f"{wrap[0]}{word}{wrap[1]}" if len(wrap) == 2 else word + wrap)
                pieces.append(rng.choice(empty))
        rng.shuffle(pieces)
        lines.append(rng.choice((" ", "  ", "\t", "\u3000")).join(pieces))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_repeated_terms_corpus(path: Path) -> None:
    """2,000 lines of 10 to 300 words, each line drawing its words from 1
    to 40 of a pool of 300, and in the middle one line of 4,000 words
    (over 16 KiB) that cycles through 97."""
    rng = random.Random(0)
    pool = [f"rep{k}" for k in range(300)]
    lines = []
    for _ in range(2000):
        words = rng.sample(pool, rng.randint(1, 40))
        lines.append(" ".join(rng.choice(words) for _ in range(rng.randint(10, 300))))
    lines.insert(1000, " ".join(f"long{k % 97}" for k in range(4000)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_eval_inputs(corpus: Path, pairs: Path) -> None:
    """A corpus of 1,260 lines over the words ev0 to ev2599, each of which
    it holds, and 317 scored pairs of those words: one side of all 2,600
    words, some repeated, one of 1,025, ten pairs out of vocabulary on both
    sides, five on one side, and 300 of 1 to 12 words; golds are
    multiples of 0.25, so they tie."""
    rng = random.Random(0)
    words = [f"ev{k}" for k in range(2600)]
    lines = [" ".join(words[k : k + 10]) for k in range(0, len(words), 10)]
    lines += [" ".join(rng.choices(words, k=rng.randint(3, 15))) for _ in range(1000)]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def gold() -> str:
        return str(rng.randint(0, 20) / 4)

    def side() -> str:
        return " ".join(rng.choices(words, k=rng.randint(1, 12)))

    rows = [
        (" ".join(rng.sample(words, len(words)) + words[:50]), side()),
        (" ".join(rng.sample(words, 1025)), side()),
        *((f"qx{k} qy{k}", f"qz{k}") for k in range(10)),
        *((side(), f"qw{k}") for k in range(5)),
        *((side(), side()) for _ in range(300)),
    ]
    rng.shuffle(rows)
    pairs.write_text("".join(f"{a}\t{b}\t{gold()}\n" for a, b in rows), encoding="utf-8")


def write_one_term_inputs(corpus: Path, source: Path) -> None:
    """A corpus whose only word is "solo", and 30 input lines: some hold
    it, alone or among other words, the others hold other words or are
    blank."""
    corpus.write_text("solo\nsolo solo\nSolo.\n", encoding="utf-8")
    kinds = ["solo", "solo other solo", "", "other words", "Solo, again", "x"]
    source.write_text("".join(kinds[k % len(kinds)] + "\n" for k in range(30)), encoding="utf-8")


def make_inputs(work: Path) -> None:
    """Write the punctuated, repeated-terms and zero-score corpora, the
    one-term corpus and its input, the eval corpus and its pairs, the
    config files, the bench/gen.py inputs of every workload for every
    seed, the augment-guided input of seed 1 with an invalid UTF-8 last
    line and with a line of 10,000 words inserted, CRLF copies of the
    fit-corpus and augment-guided inputs of seed 1, and that fit-corpus
    input with an invalid byte inserted past its first 64 KiB."""
    work.mkdir(parents=True)
    write_punctuated_corpus(work / "punctuated_corpus.txt")
    write_repeated_terms_corpus(work / "repeated_terms_corpus.txt")
    write_zero_score_corpus(work / "zero_score_corpus.txt")
    write_one_term_inputs(work / "one_term_corpus.txt", work / "one_term_input.txt")
    write_eval_inputs(work / "eval_corpus.txt", work / "eval_pairs.tsv")
    for name, lines in CONFIG_FILES.items():
        (work / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for workload in ("fit-corpus", "augment-guided", "train-eval"):
        for seed in GEN_SEEDS:
            out = work / f"{workload}-{seed}"
            subprocess.run(
                [sys.executable, str(ROOT / "bench" / "gen.py"), "--workload", workload,
                 "--seed", str(seed), "--out", str(out)],
                check=True,
            )
    source = work / f"augment-guided-{GEN_SEEDS[0]}" / "augment_input.txt"
    (work / "bad_last_line.txt").write_bytes(source.read_bytes() + b"caf\xc3 au lait\n")
    (work / "augment_input_crlf.txt").write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
    words = (source.parent / "model_corpus.txt").read_text(encoding="utf-8").split()[:10_000]
    lines = source.read_text(encoding="utf-8").splitlines()
    lines.insert(len(lines) // 2, " ".join(words))
    (work / "augment_input_long_line.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = (work / f"fit-corpus-{GEN_SEEDS[0]}" / "fit_corpus.txt").read_bytes()
    (work / "fit_corpus_crlf.txt").write_bytes(corpus.replace(b"\n", b"\r\n"))
    at = corpus.index(b"\n", 100_000) + 4
    (work / "fit_corpus_bad_byte.txt").write_bytes(corpus[:at] + b"\xff" + corpus[at:])


def runs(inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, una arguments) of every run, each model fitted before it is
    used; a fit or augment run writes its output file to out / name."""
    def fit(name: str, corpus: Path) -> tuple[str, list[str]]:
        return name, ["fit", "--corpus", str(corpus), "--output", str(out / name)]

    def augment(name: str, model: str, source: Path, seed: int, flags: list[str]) -> tuple[str, list[str]]:
        return name, ["augment", "--model", str(out / model), "--input", str(source),
                      "--output", str(out / name), "--seed", str(seed), *flags]

    matrix = [fit("fit-sample", SAMPLE_CORPUS)]
    for seed in GEN_SEEDS:
        matrix.append(fit(f"fit-corpus-{seed}", inputs / f"fit-corpus-{seed}" / "fit_corpus.txt"))
        matrix.append(fit(f"fit-model-{seed}", inputs / f"augment-guided-{seed}" / "model_corpus.txt"))
    for seed in SAMPLE_SEEDS:
        for radius in SAMPLE_RADII:
            flags = ["--radius", str(radius), "--alpha", "1", "--batch-size", "16"]
            matrix.append(augment(f"augment-sample-s{seed}-r{radius}", "fit-sample", SAMPLE_CORPUS, seed, flags))
    for seed in GEN_SEEDS:
        source = inputs / f"augment-guided-{seed}" / "augment_input.txt"
        matrix.append(augment(f"augment-guided-{seed}", f"fit-model-{seed}", source, seed, BENCH_AUGMENT_FLAGS))
    for batch_size in BATCH_SIZES:
        source = inputs / f"augment-guided-{GEN_SEEDS[0]}" / "augment_input.txt"
        flags = [*BENCH_AUGMENT_FLAGS, "--batch-size", str(batch_size)]  # the last --batch-size wins
        name = f"augment-guided-{GEN_SEEDS[0]}-b{batch_size}"
        matrix.append(augment(name, f"fit-model-{GEN_SEEDS[0]}", source, GEN_SEEDS[0], flags))
    for label, extra in PASS_FLAGS.items():
        source = inputs / f"augment-guided-{GEN_SEEDS[0]}" / "augment_input.txt"
        name = f"augment-guided-{GEN_SEEDS[0]}-{label}"
        matrix.append(augment(name, f"fit-model-{GEN_SEEDS[0]}", source, GEN_SEEDS[0], [*BENCH_AUGMENT_FLAGS, *extra]))
    for seed in MULTI_WORD_SEEDS:
        flags = ["--radius", "50", "--alpha", "1", "--batch-size", "16"]
        matrix.append(augment(f"augment-sample-s{seed}-r50", "fit-sample", SAMPLE_CORPUS, seed, flags))
        source = inputs / f"augment-guided-{GEN_SEEDS[0]}" / "augment_input.txt"
        name = f"augment-guided-{GEN_SEEDS[0]}-s{seed}"
        matrix.append(augment(name, f"fit-model-{GEN_SEEDS[0]}", source, seed, BENCH_AUGMENT_FLAGS))
    for seed in BETA_SEEDS:
        for radius in SAMPLE_RADII:
            for beta in SAMPLE_BETAS:
                flags = ["--radius", str(radius), "--beta", str(beta), "--alpha", "1", "--batch-size", "16"]
                name = f"augment-sample-s{seed}-r{radius}-b{beta}"
                matrix.append(augment(name, "fit-sample", SAMPLE_CORPUS, seed, flags))
    matrix.append(fit("fit-punctuated", inputs / "punctuated_corpus.txt"))
    matrix.append(fit("fit-repeated-terms", inputs / "repeated_terms_corpus.txt"))
    zero_score = inputs / "zero_score_corpus.txt"
    matrix.append(fit("fit-zero-score", zero_score))
    for seed in ZERO_SCORE_SEEDS:
        for radius in ZERO_SCORE_RADII:
            flags = ["--radius", str(radius), "--alpha", "1", "--batch-size", "16"]
            name = f"augment-zero-score-s{seed}-r{radius}"
            matrix.append(augment(name, "fit-zero-score", zero_score, seed, flags))
    for seed in RANDOM_MODE_SEEDS:
        for modes in (["selection"], ["replacement"], ["selection", "replacement"]):
            flags = ["--radius", "50", "--alpha", "1", "--batch-size", "16"]
            flags += [option for mode in modes for option in (f"--{mode}-mode", "random")]
            name = f"augment-sample-s{seed}-random-{'-'.join(modes)}"
            matrix.append(augment(name, "fit-sample", SAMPLE_CORPUS, seed, flags))
    for seed in (*LOSS_DEMO_SEEDS, *LOSS_DEMO_MULTI_WORD_SEEDS):
        demo = ["loss-demo", "--corpus", str(SAMPLE_CORPUS), "--pairs", str(SAMPLE_PAIRS), "--seed", str(seed)]
        matrix.append((f"loss-demo-s{seed}", demo))
        for dim in LOSS_DEMO_DIMS:
            matrix.append((f"loss-demo-s{seed}-d{dim}", [*demo, "--dim", str(dim)]))
    for seed in GEN_SEEDS:
        train_eval = inputs / f"train-eval-{seed}"
        model = f"fit-train-model-{seed}"
        matrix.append(fit(model, train_eval / "model_corpus.txt"))
        for dim in EVAL_DIMS:
            for encoder_seed in EVAL_ENCODER_SEEDS:
                evaluate = ["eval", "--pairs", str(train_eval / "dev_pairs.tsv"), "--model", str(out / model)]
                flags = ["--dim", str(dim), "--encoder-seed", str(encoder_seed)]
                matrix.append((f"eval-train-{seed}-d{dim}-e{encoder_seed}", [*evaluate, *flags]))
    matrix.append(fit("fit-eval-corpus", inputs / "eval_corpus.txt"))
    for dim in WRITTEN_PAIRS_DIMS:
        evaluate = ["eval", "--pairs", str(inputs / "eval_pairs.tsv"), "--model", str(out / "fit-eval-corpus")]
        matrix.append((f"eval-written-pairs-d{dim}", [*evaluate, "--dim", str(dim)]))
    source = inputs / f"augment-guided-{GEN_SEEDS[0]}" / "augment_input.txt"
    for label, flags in (("config", []), ("config-a3", ["--alpha", "3"])):
        name = f"augment-guided-{GEN_SEEDS[0]}-{label}"
        augment_args = ["augment", "--model", str(out / f"fit-model-{GEN_SEEDS[0]}"), "--input", str(source),
                        "--output", str(out / name), "--config", str(inputs / "augment.conf"), *flags]
        matrix.append((name, augment_args))
    demo = ["loss-demo", "--corpus", str(SAMPLE_CORPUS), "--pairs", str(SAMPLE_PAIRS)]
    matrix.append(("loss-demo-config", [*demo, "--config", str(inputs / "loss-demo.conf")]))
    evaluate = ["eval", "--pairs", str(inputs / f"train-eval-{GEN_SEEDS[0]}" / "dev_pairs.tsv"),
                "--model", str(out / f"fit-train-model-{GEN_SEEDS[0]}")]
    matrix.append((f"eval-train-{GEN_SEEDS[0]}-config", [*evaluate, "--config", str(inputs / "eval.conf")]))
    matrix.append(fit(f"fit-corpus-{GEN_SEEDS[0]}-crlf", inputs / "fit_corpus_crlf.txt"))
    name = f"augment-guided-{GEN_SEEDS[0]}-crlf"
    source = inputs / "augment_input_crlf.txt"
    matrix.append(augment(name, f"fit-model-{GEN_SEEDS[0]}", source, GEN_SEEDS[0], BENCH_AUGMENT_FLAGS))
    matrix.append(fit("fit-one-term", inputs / "one_term_corpus.txt"))
    for label, extra in (("guided", []), ("random", ["--replacement-mode", "random"])):
        flags = ["--alpha", "1", "--batch-size", "4", *extra]
        matrix.append(augment(f"augment-one-term-{label}", "fit-one-term", inputs / "one_term_input.txt", 1, flags))
    name = f"augment-guided-{GEN_SEEDS[0]}-long-line"
    source = inputs / "augment_input_long_line.txt"
    matrix.append(augment(name, f"fit-model-{GEN_SEEDS[0]}", source, GEN_SEEDS[0], BENCH_AUGMENT_FLAGS))
    matrix.append(("help", ["--help"]))
    matrix += [(f"help-{command}", [command, "--help"]) for command in ("fit", "augment", "eval", "loss-demo")]
    return matrix


def existing_output_runs(inputs: Path, out: Path) -> list[tuple[str, list[str], Path, int]]:
    """(name, una arguments, file copied to out / name before the run,
    exit code) of the augment runs whose output file exists when they
    start."""
    model = out / f"fit-model-{GEN_SEEDS[0]}"
    source = inputs / f"augment-guided-{GEN_SEEDS[0]}" / "augment_input.txt"

    def augment(name: str, input_path: Path) -> list[str]:
        return ["augment", "--model", str(model), "--input", str(input_path), "--output", str(out / name),
                "--seed", str(GEN_SEEDS[0]), *BENCH_AUGMENT_FLAGS]

    return [
        ("augment-over-existing", augment("augment-over-existing", source), SAMPLE_CORPUS, 0),
        ("augment-over-input", augment("augment-over-input", out / "augment-over-input"), source, 0),
        ("augment-bad-last-line", augment("augment-bad-last-line", inputs / "bad_last_line.txt"), SAMPLE_CORPUS, 1),
    ]


def run_checkout(checkout: Path, inputs: Path, out: Path) -> None:
    """Run the matrix with one checkout's una; keep each run's stdout, and
    its stderr if it exits non-zero."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"), COLUMNS="80")
    bad_fit = ["fit", "--corpus", str(inputs / "fit_corpus_bad_byte.txt"), "--output", str(out / "fit-bad-byte")]
    matrix = [(name, args, None, 0) for name, args in runs(inputs, out)] + existing_output_runs(inputs, out)
    matrix.append(("fit-bad-byte", bad_fit, None, 1))
    for name, args, existing, code in matrix:
        if existing is not None:
            shutil.copyfile(existing, out / name)
        result = subprocess.run([sys.executable, "-m", "una.cli", *args], env=env, capture_output=True)
        if result.returncode != code:
            sys.exit(f"{checkout}: una {' '.join(args)} exited {result.returncode}, not {code}:\n"
                     f"{result.stderr.decode()}")
        (out / f"{name}.stdout").write_bytes(result.stdout)
        if code:
            (out / f"{name}.stderr").write_bytes(result.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout whose output is the reference")
    parser.add_argument("--head", type=Path, required=True, help="checkout to compare with it")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="una-output-matrix-") as tmp:
        work = Path(tmp)
        make_inputs(work / "inputs")
        run_checkout(args.base, work / "inputs", work / "base")
        run_checkout(args.head, work / "inputs", work / "head")
        names = sorted(path.name for path in (work / "base").iterdir())
        differing = [
            name for name in names if (work / "base" / name).read_bytes() != (work / "head" / name).read_bytes()
        ]
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(names) - len(differing)}/{len(names)} files identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
