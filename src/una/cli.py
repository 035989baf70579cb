"""Command-line entry point: fit, augment, eval, and loss-demo.

Exit codes are a stable contract: 0 success, 1 I/O or file-format
problems, 2 flag validation, 3 insufficient data. Standard output carries
only machine-readable results; diagnostics go to standard error.

Each subcommand accepts --config FILE with key=value lines (keys are the
long names of that subcommand's optional flags that take a value; any
other key is a flag error); explicit flags override config values, which
override the built-in defaults.
"""

from __future__ import annotations

import argparse
import sys

from .augment import AugmentationConfig, augment_batch, iter_negative_batches
from .contrastive import (
    ContrastiveConfig,
    PairsFormatError,
    ToyEncoder,
    batch_loss,
    load_pairs,
)
from .corpus import CorpusDecodeError, Document, load_corpus, read_nonblank_lines, tokenize
from .evaluation import EvalDataError, evaluate_pairs, load_scored_pairs
from .tfidf import ModelFormatError, fit, load_model, save_model

UNAUGMENTABLE_MARKER = "#unaugmentable"

# Largest accepted --dim: the toy encoder holds dim floats per term vector.
MAX_DIM = 4096

_IO_ERRORS = (OSError, UnicodeDecodeError, CorpusDecodeError, ModelFormatError, PairsFormatError)


class FlagError(ValueError):
    """Bad flag or config value, or an empty corpus; maps to exit code 2."""


def _load_config_file(path: str, valid_keys: frozenset[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
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
            values[name] = value.strip()
    return values


def _config_keys(subparser: argparse.ArgumentParser) -> frozenset[str]:
    """Config keys of a subcommand: its optional flags that take a value.

    Required flags must be given on the command line and switches take no
    value, so a config entry for either would be read by nothing.
    """
    return frozenset(
        option[2:].replace("-", "_")
        for action in subparser._actions
        if not action.required and action.nargs != 0
        for option in action.option_strings
        if option.startswith("--") and option != "--config"
    )


def _resolve(args, name: str, default, cast):
    """Flag value if given, else config-file value, else the default."""
    explicit = getattr(args, name)
    if explicit is not None:
        return explicit
    config = getattr(args, "_config_values", {})
    if name in config:
        try:
            return cast(config[name])
        except ValueError as exc:
            raise FlagError(f"config value {name}={config[name]!r}: {exc}") from None
    return default


def _mode(value: str) -> str:
    if value not in ("tfidf", "random"):
        raise ValueError(f"must be 'tfidf' or 'random', got {value!r}")
    return value


def cmd_fit(args) -> int:
    corpus = load_corpus(args.corpus)
    if corpus.n_docs == 0:
        raise FlagError(f"corpus {args.corpus} is empty")
    model = fit(corpus)
    save_model(model, args.output)
    print(f"N={model.n_docs} m={model.m}")
    return 0


def cmd_augment(args) -> int:
    try:
        config = AugmentationConfig(
            beta=_resolve(args, "beta", 0.5, float),
            radius=_resolve(args, "radius", 4000, int),
            alpha=_resolve(args, "alpha", 5, int),
            seed=_resolve(args, "seed", 0, int),
            selection_mode=_resolve(args, "selection_mode", "tfidf", _mode),
            replacement_mode=_resolve(args, "replacement_mode", "tfidf", _mode),
        )
        batch_size = _resolve(args, "batch_size", 64, int)
        if batch_size < 1:
            raise ValueError(f"batch-size must be >= 1, got {batch_size}")
    except ValueError as exc:
        raise FlagError(str(exc)) from None

    model = load_model(args.model)
    documents = [Document.from_text(number, text) for number, text in read_nonblank_lines(args.input)[0]]

    emitted_batches = 0
    negatives = 0
    unaugmentable = 0
    with open(args.output, "w", encoding="utf-8", newline="\n") as out:
        for batch in iter_negative_batches(model, documents, config, batch_size):
            emitted_batches += 1
            for sentence in batch.sentences:
                negatives += 1
                fields = [
                    str(batch.batch_index),
                    str(sentence.source_id),
                    " ".join(sentence.tokens),
                ]
                if sentence.unaugmentable:
                    unaugmentable += 1
                    fields.append(UNAUGMENTABLE_MARKER)
                out.write("\t".join(fields) + "\n")

    print(f"batches={emitted_batches} negatives={negatives} unaugmentable={unaugmentable}")
    return 0


def cmd_eval(args) -> int:
    try:
        dim = _resolve(args, "dim", 256, int)
        encoder_seed = _resolve(args, "encoder_seed", 0, int)
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"--dim must be in [1, {MAX_DIM}], got {dim}")
        if not 0 <= encoder_seed < 2**64:
            raise ValueError(f"encoder-seed must be in [0, 2**64 - 1], got {encoder_seed}")
    except ValueError as exc:
        raise FlagError(str(exc)) from None

    pairs = load_scored_pairs(args.pairs)
    model = load_model(args.model)
    encoder = ToyEncoder(model.vocabulary, dim=dim, seed=encoder_seed)
    report = evaluate_pairs(pairs, encoder, model.vocabulary)
    print(f"rho={report.rho!r} n={report.n_pairs}")
    return 0


def cmd_loss_demo(args) -> int:
    try:
        tau = _resolve(args, "tau", 0.05, float)
        seed = _resolve(args, "seed", 0, int)
        dim = _resolve(args, "dim", 256, int)
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"--dim must be in [1, {MAX_DIM}], got {dim}")
        batch_size = _resolve(args, "batch_size", 64, int)
        if batch_size < 2:
            raise ValueError(f"batch-size must be >= 2 for the loss demo, got {batch_size}")
        contrastive_config = ContrastiveConfig(tau=tau, batch_size=batch_size)
        augment_config = AugmentationConfig(
            beta=_resolve(args, "beta", 0.5, float),
            radius=_resolve(args, "radius", 4000, int),
            seed=seed,
        )
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

    batch = pair_set.pairs[: min(batch_size, len(pair_set))]
    encoder = ToyEncoder(model.vocabulary, dim=dim, seed=seed)
    anchors = [encoder(tokenize(anchor)) for anchor, _ in batch]
    positives = [encoder(tokenize(positive)) for _, positive in batch]

    if args.una_mode != "with":
        loss_without = batch_loss(anchors, positives, config=contrastive_config)
        print(f"loss_without_una={loss_without!r}")
    if args.una_mode != "without":
        documents = [Document.from_text(i, a) for i, (a, _) in enumerate(batch)]
        generated = augment_batch(model, documents, augment_config, augment_config.alpha)
        una = [encoder(sentence.tokens) for sentence in generated.sentences]
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

    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", parents=[common], help="fit a TF-IDF model from a corpus")
    fit_p.add_argument("--corpus", required=True, help="one sentence per line, UTF-8")
    fit_p.add_argument("--output", required=True, help="model file to write")
    fit_p.set_defaults(handler=cmd_fit)

    aug_p = sub.add_parser("augment", parents=[common], help="generate hard negative sentences")
    aug_p.add_argument("--model", required=True, help="fitted model file")
    aug_p.add_argument("--input", required=True, help="sentences to augment, one per line")
    aug_p.add_argument("--output", required=True, help="augmentation file to write")
    aug_p.add_argument("--beta", type=float, help="replacement magnitude in (0, 1] (default 0.5)")
    aug_p.add_argument("--radius", type=int, help="candidate rank radius (default 4000)")
    aug_p.add_argument("--alpha", type=int, help="inject every alpha-th batch (default 5)")
    aug_p.add_argument("--seed", type=int, help="master seed (default 0)")
    aug_p.add_argument("--batch-size", type=int, dest="batch_size", help="batch size (default 64)")
    aug_p.add_argument("--selection-mode", choices=["tfidf", "random"], dest="selection_mode")
    aug_p.add_argument("--replacement-mode", choices=["tfidf", "random"], dest="replacement_mode")
    aug_p.set_defaults(handler=cmd_augment)

    eval_p = sub.add_parser("eval", parents=[common], help="score sentence pairs against gold labels")
    eval_p.add_argument("--pairs", required=True, help="sentence_a<TAB>sentence_b<TAB>gold file")
    eval_p.add_argument("--model", required=True, help="fitted model file (provides the vocabulary)")
    eval_p.add_argument("--dim", type=int, help=f"toy encoder dimension, at most {MAX_DIM} (default 256)")
    eval_p.add_argument("--encoder-seed", type=int, dest="encoder_seed", help="encoder seed (default 0)")
    eval_p.set_defaults(handler=cmd_eval)

    demo_p = sub.add_parser(
        "loss-demo", parents=[common], help="contrastive loss on one batch, with and without negatives"
    )
    demo_p.add_argument("--corpus", required=True, help="corpus to fit the model on")
    demo_p.add_argument("--pairs", required=True, help="anchor<TAB>positive file")
    demo_p.add_argument("--tau", type=float, help="temperature (default 0.05)")
    demo_p.add_argument("--seed", type=int, help="seed for encoder and augmentation (default 0)")
    demo_p.add_argument("--dim", type=int, help=f"toy encoder dimension, at most {MAX_DIM} (default 256)")
    demo_p.add_argument("--batch-size", type=int, dest="batch_size", help="batch size (default 64)")
    demo_p.add_argument("--beta", type=float, help="replacement magnitude (default 0.5)")
    demo_p.add_argument("--radius", type=int, help="candidate rank radius (default 4000)")
    una_group = demo_p.add_mutually_exclusive_group()
    una_group.add_argument(
        "--with-una", dest="una_mode", action="store_const", const="with",
        help="print only the loss with generated negatives",
    )
    una_group.add_argument(
        "--without-una", dest="una_mode", action="store_const", const="without",
        help="print only the baseline loss",
    )
    demo_p.set_defaults(handler=cmd_loss_demo, una_mode="both")

    for subparser in (fit_p, aug_p, eval_p, demo_p):
        subparser.set_defaults(config_keys=_config_keys(subparser))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if getattr(args, "config", None):
            args._config_values = _load_config_file(args.config, args.config_keys)
        return args.handler(args)
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvalDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
