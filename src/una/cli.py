"""Command-line entry point: fit, augment, eval, and loss-demo.

Exit codes are a stable contract: 0 success, 1 I/O or file-format
problems, 2 flag validation, 3 insufficient data. Standard output carries
only machine-readable results; diagnostics go to standard error.

Each subcommand accepts --config FILE with key=value lines (keys are the
long names of that subcommand's optional flags that take a value; any
other key, or a key given twice, is a flag error); explicit flags
override config values, which override the defaults that
`una <command> --help` shows.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import logging
import math
import os
import stat
import sys

# Each handler imports the other layers it runs, so that `una fit` runs
# neither augmentation nor the contrastive loss nor evaluation.
from .config import MODE_RANDOM, MODE_TFIDF, AugmentationConfig, ContrastiveConfig
from .corpus import CorpusDecodeError, Document, PairsFormatError, _iter_raw_lines, load_corpus, tokenize
from .tfidf import ModelFormatError, fit, load_model, save_model

logger = logging.getLogger(__name__)

UNAUGMENTABLE_MARKER = "#unaugmentable"

# Largest accepted --dim: the toy encoder holds dim floats per term vector.
MAX_DIM = 4096

_IO_ERRORS = (OSError, CorpusDecodeError, ModelFormatError, PairsFormatError)


class FlagError(ValueError):
    """Bad config file or setting, or an empty corpus; maps to exit code 2."""


def _load_config_file(path: str, valid_keys: frozenset[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    for line_number, line in _iter_raw_lines(path):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise FlagError(f"{path}:{line_number}: expected key=value, got {text!r}")
        key, value = text.split("=", 1)
        name = key.strip().replace("-", "_")
        if name not in valid_keys:
            known = ", ".join(sorted(k.replace("_", "-") for k in valid_keys))
            raise FlagError(f"{path}:{line_number}: unknown key {key.strip()!r} (valid keys: {known})")
        if name in first_lines:
            first = first_lines[name]
            raise FlagError(f"{path}:{line_number}: key {key.strip()!r} given twice (first on line {first})")
        first_lines[name] = line_number
        values[name] = value.strip()
    return values


def _config_keys(subparser: argparse.ArgumentParser) -> frozenset[str]:
    """Config keys of a subcommand: the dests of its optional flags that
    take a value.

    Required flags must be given on the command line and switches take no
    value, so a config entry for either would be read by nothing.
    """
    return frozenset(
        action.dest
        for action in subparser._actions
        if action.option_strings and not action.required and action.nargs != 0 and action.dest != "config"
    )


def _int_in(low: int, high: float, message: str):
    """An int type= for a flag whose range is checked before any file is
    read: a value outside [low, high] fails with "{message}, got {value}"."""

    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{message}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _setting(subparser: argparse.ArgumentParser, flag: str, kind, default, text: str, **extra) -> None:
    """An optional flag that takes a value; its help shows its default."""
    subparser.add_argument(flag, type=kind, default=default, help=f"{text} (default %(default)s)", **extra)


def cmd_fit(args) -> int:
    corpus = load_corpus(args.corpus)
    if corpus.n_docs == 0:
        raise FlagError(f"corpus {args.corpus} is empty")
    model = fit(corpus)
    with _replaced_on_success(args.output) as out:
        save_model(model, out)
    print(f"N={model.n_docs} m={model.m}")
    return 0


@contextlib.contextmanager
def _replaced_on_success(path: str):
    """A text stream (UTF-8, LF) onto a new file that replaces path when
    the block completes, and is removed if anything is raised in it.

    The file is made beside path's target, so that a symlinked path is
    written through to it and os.replace can rename the file onto it; a
    failure leaves path as it was. It is created as open() creates a file,
    with mode 0o666 less the umask, and then given path's permission bits
    if path exists. Errors are reported with path's name, as
    open(path, "w") reports them. An existing path that is not a regular
    file, such as a pipe, a device or a directory, is opened as
    open(path, "w") opens it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            yield out
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    for attempt in itertools.count():
        temporary = os.path.join(directory, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(descriptor, "w", encoding="utf-8", newline="\n") as out:
            if os.path.exists(target):
                os.chmod(temporary, stat.S_IMODE(os.stat(target).st_mode))
            yield out
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


def cmd_augment(args) -> int:
    from .augment import iter_negative_batches

    try:
        config = AugmentationConfig(beta=args.beta, radius=args.radius, alpha=args.alpha, seed=args.seed,
                                    selection_mode=args.selection_mode, replacement_mode=args.replacement_mode)
    except ValueError as exc:
        raise FlagError(str(exc)) from None

    model = load_model(args.model)
    blanks = 0

    def documents(source):
        nonlocal blanks
        for number, text in _iter_raw_lines(source):
            if text:
                yield Document.from_text(number, text)
            else:
                blanks += 1

    emitted_batches = 0
    negatives = 0
    unaugmentable = 0
    marker = "\t" + UNAUGMENTABLE_MARKER
    # The input is streamed, so the output is written aside and only
    # replaces --output once every line has been read and augmented.
    with open(args.input, "rb") as source, _replaced_on_success(args.output) as out:
        for batch in iter_negative_batches(model, documents(source), config, args.batch_size):
            emitted_batches += 1
            negatives += len(batch)
            for source_id, tokens, flagged in batch._rows():
                unaugmentable += flagged
                out.write(f"{batch.batch_index}\t{source_id}\t{' '.join(tokens)}{marker if flagged else ''}\n")

    if blanks:
        logger.warning("skipped %d blank line(s)", blanks)
    print(f"batches={emitted_batches} negatives={negatives} unaugmentable={unaugmentable}")
    return 0


def cmd_eval(args) -> int:
    from .contrastive import ToyEncoder
    from .evaluation import EvalDataError, evaluate_pairs, load_scored_pairs

    pairs = load_scored_pairs(args.pairs)
    model = load_model(args.model)
    encoder = ToyEncoder(model.vocabulary, dim=args.dim, seed=args.encoder_seed)
    try:
        report = evaluate_pairs(pairs, encoder, model.vocabulary)
    except EvalDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"rho={report.rho!r} n={report.n_pairs}")
    return 0


def cmd_loss_demo(args) -> int:
    from .augment import augment_batch
    from .contrastive import ToyEncoder, batch_loss, load_pairs

    try:
        contrastive_config = ContrastiveConfig(tau=args.tau, batch_size=args.batch_size)
        augment_config = AugmentationConfig(beta=args.beta, radius=args.radius, seed=args.seed)
    except ValueError as exc:
        raise FlagError(str(exc)) from None

    corpus = load_corpus(args.corpus)
    if corpus.n_docs == 0:
        raise FlagError(f"corpus {args.corpus} is empty")
    model = fit(corpus)
    pair_set = load_pairs(args.pairs)
    if len(pair_set) < 2:
        print(f"error: need at least 2 pairs, got {len(pair_set)}", file=sys.stderr)
        return 3

    batch = pair_set.pairs[: min(args.batch_size, len(pair_set))]
    encoder = ToyEncoder(model.vocabulary, dim=args.dim, seed=args.seed)
    anchors = encoder.encode_many([tokenize(anchor) for anchor, _ in batch])
    positives = encoder.encode_many([tokenize(positive) for _, positive in batch])

    if args.una_mode != "with":
        loss_without = batch_loss(anchors, positives, config=contrastive_config)
        print(f"loss_without_una={loss_without!r}")
    if args.una_mode != "without":
        documents = [Document.from_text(i, a) for i, (a, _) in enumerate(batch)]
        generated = augment_batch(model, documents, augment_config, augment_config.alpha)
        una = encoder.encode_many([sentence.tokens for sentence in generated.sentences])
        loss_with = batch_loss(anchors, positives, una_negatives=una, config=contrastive_config)
        print(f"loss_with_una={loss_with!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="una",
        description="TF-IDF guided hard negative augmentation for contrastive training",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file; flags override its entries")
    dim = (_int_in(1, MAX_DIM, f"--dim must be in [1, {MAX_DIM}]"), 256, f"toy encoder dimension, at most {MAX_DIM}")
    modes = (MODE_TFIDF, MODE_RANDOM)

    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", parents=[common], help="fit a TF-IDF model from a corpus")
    fit_p.add_argument("--corpus", required=True, help="one sentence per line, UTF-8")
    fit_p.add_argument("--output", required=True, help="model file to write")
    fit_p.set_defaults(handler=cmd_fit, subparser=fit_p)

    aug_p = sub.add_parser("augment", parents=[common], help="generate hard negative sentences")
    aug_p.add_argument("--model", required=True, help="fitted model file")
    aug_p.add_argument("--input", required=True, help="sentences to augment, one per line")
    aug_p.add_argument("--output", required=True, help="augmentation file to write")
    _setting(aug_p, "--beta", float, AugmentationConfig.beta, "replacement magnitude in (0, 1]")
    _setting(aug_p, "--radius", int, AugmentationConfig.radius, "candidate rank radius")
    _setting(aug_p, "--alpha", int, AugmentationConfig.alpha, "inject every alpha-th batch")
    _setting(aug_p, "--seed", int, AugmentationConfig.seed, "master seed")
    batch_type = _int_in(1, math.inf, "batch-size must be >= 1")
    _setting(aug_p, "--batch-size", batch_type, ContrastiveConfig.batch_size, "batch size")
    _setting(aug_p, "--selection-mode", str, AugmentationConfig.selection_mode, "selection mode", choices=modes)
    _setting(aug_p, "--replacement-mode", str, AugmentationConfig.replacement_mode, "replacement mode", choices=modes)
    aug_p.set_defaults(handler=cmd_augment, subparser=aug_p)

    eval_p = sub.add_parser("eval", parents=[common], help="score sentence pairs against gold labels")
    eval_p.add_argument("--pairs", required=True, help="sentence_a<TAB>sentence_b<TAB>gold file")
    eval_p.add_argument("--model", required=True, help="fitted model file (provides the vocabulary)")
    _setting(eval_p, "--dim", *dim)
    seed_type = _int_in(0, 2**64 - 1, "encoder-seed must be in [0, 2**64 - 1]")
    _setting(eval_p, "--encoder-seed", seed_type, 0, "encoder seed")
    eval_p.set_defaults(handler=cmd_eval, subparser=eval_p)

    demo_p = sub.add_parser(
        "loss-demo", parents=[common], help="contrastive loss on one batch, with and without negatives"
    )
    demo_p.add_argument("--corpus", required=True, help="corpus to fit the model on")
    demo_p.add_argument("--pairs", required=True, help="anchor<TAB>positive file")
    _setting(demo_p, "--tau", float, ContrastiveConfig.tau, "temperature")
    _setting(demo_p, "--seed", int, AugmentationConfig.seed, "seed for encoder and augmentation")
    _setting(demo_p, "--dim", *dim)
    batch_type = _int_in(2, math.inf, "batch-size must be >= 2 for the loss demo")
    _setting(demo_p, "--batch-size", batch_type, ContrastiveConfig.batch_size, "batch size")
    _setting(demo_p, "--beta", float, AugmentationConfig.beta, "replacement magnitude")
    _setting(demo_p, "--radius", int, AugmentationConfig.radius, "candidate rank radius")
    una_group = demo_p.add_mutually_exclusive_group()
    una_group.add_argument(
        "--with-una", dest="una_mode", action="store_const", const="with",
        help="print only the loss with generated negatives",
    )
    una_group.add_argument(
        "--without-una", dest="una_mode", action="store_const", const="without",
        help="print only the baseline loss",
    )
    demo_p.set_defaults(handler=cmd_loss_demo, subparser=demo_p, una_mode="both")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A --config file's entries become the
    subcommand's defaults and argv is parsed again, so argparse converts
    them with each flag's type and an explicit flag still wins."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args.subparser.set_defaults(**_load_config_file(args.config, _config_keys(args.subparser)))
            args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
