"""One phase of one workload, run in a fresh single-threaded process.

    python3 bench/workloads.py --phase setup|timed --workload NAME \
        --work DIR --seed N --seconds S --trace 0|1

`run.py` starts this once per set-up repetition and once for the timed
phase, and reads the JSON object on the last line of its standard output.
A set-up phase times everything from the first import of una to the end
of the workload's set-up. The timed phase repeats whole rounds until the
measured time reaches --seconds: one `una fit` (fit-corpus), one
`una augment` (augment-guided), or one epoch of training steps followed
by a dev evaluation pass (train-eval). Outputs are fingerprinted between
rounds, outside the measured time, and the process's peak RSS is read
before anything that is not part of the timed phase runs. Both phases
report their time as measured and at the reference host speed of
`hostspeed.HostClock`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostClock  # noqa: E402  (bench/ is on sys.path as the script's directory)
from spans import Tracer  # noqa: E402

BATCH = 64
ALPHA = 5
TAU = 0.05
DIM = 256
ENCODER_SEED = 0
AUGMENT_FLAGS = [
    "--alpha", "1", "--batch-size", str(BATCH), "--radius", "4000", "--beta", "0.5",
    "--selection-mode", "tfidf", "--replacement-mode", "tfidf",
]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_kb() -> int:
    """This process's own resident high-water mark (VmHWM).

    Not ru_maxrss: Linux carries the parent's high-water mark across fork
    and exec into the child's ru_maxrss.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(argv: list[str]) -> tuple[int, str]:
    import una.cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = una.cli.main(argv)
    return code, captured.getvalue()


# ---------------------------------------------------------------- train-eval


class TrainState:
    """What the training loop holds: model, pairs, dev pairs and a warm encoder."""

    def __init__(self, model, pairs, dev, seed: int):
        import una

        self.model = model
        self.pairs = pairs.pairs
        self.dev = dev
        self.encoder = una.ToyEncoder(model.vocabulary, dim=DIM, seed=ENCODER_SEED)
        self.encoder(model.vocabulary.terms)  # warm every term vector
        self.augment = una.AugmentationConfig(beta=0.5, radius=4000, alpha=ALPHA, seed=seed)
        self.contrastive = una.ContrastiveConfig(tau=TAU, batch_size=BATCH)


def train_round(state: TrainState, record: dict | None = None) -> dict:
    """One epoch: a step per batch of 64 pairs, then one dev evaluation pass.

    Every ALPHA-th step the program injects generated negatives. With
    `record` given, the embeddings, negatives and the loss without
    negatives are kept for the checkers; that round is not timed.
    """
    import una

    clock = time.perf_counter
    steps = []
    for batch_index in range(1, len(state.pairs) // BATCH + 1):
        start = clock()
        batch = state.pairs[(batch_index - 1) * BATCH : batch_index * BATCH]
        documents = [una.Document.from_text(i, anchor) for i, (anchor, _) in enumerate(batch)]
        anchors = [state.encoder(d.tokens) for d in documents]
        positives = [state.encoder(una.tokenize(positive)) for _, positive in batch]
        generated = una.augment_batch(state.model, documents, state.augment, batch_index)
        negatives = [] if generated is None else [state.encoder(s.tokens) for s in generated.sentences]
        loss = una.batch_loss(anchors, positives, una_negatives=negatives, config=state.contrastive)
        steps.append((clock() - start, generated is not None, loss))
        if record is not None:
            record["anchors"].append(anchors)
            record["positives"].append(positives)
            record["negatives"].append(negatives)
            record["negative_tokens"].append(
                None if generated is None
                else [(s.tokens, s.unaugmentable) for s in generated.sentences]
            )
            record["loss_without"].append(
                una.batch_loss(anchors, positives, config=state.contrastive) if negatives else None
            )
    start = clock()
    report = una.evaluate_pairs(state.dev, state.encoder, state.model.vocabulary)
    return {"steps": steps, "eval_s": clock() - start, "rho": report.rho, "n_pairs": report.n_pairs}


def save_record(record: dict, losses: list[float], rho: float, n_pairs: int, path: Path) -> None:
    import numpy as np

    arrays = {
        "anchors": np.array(record["anchors"]),
        "positives": np.array(record["positives"]),
        "losses": np.array(losses),
        "loss_without": np.array([np.nan if v is None else v for v in record["loss_without"]]),
        "rho": np.array(rho),
        "n_pairs": np.array(n_pairs),
    }
    for step, negatives in enumerate(record["negatives"]):
        if negatives:
            arrays[f"negatives_{step + 1}"] = np.array(negatives)
    np.savez(path, **arrays)
    with open(path.with_suffix(".negatives.json"), "w", encoding="utf-8") as out:
        json.dump(record["negative_tokens"], out)


# ---------------------------------------------------------------- phases


def setup(workload: str, work: Path, tracer: Tracer | None) -> dict:
    out: dict = {}
    with HostClock() as host:
        start = time.perf_counter()
        import una
        import una.cli

        if tracer is not None:
            tracer.install()
        if workload == "augment-guided":
            argv = ["fit", "--corpus", str(work / "model_corpus.txt"), "--output", str(work / "model.txt")]
            code, stdout = run_cli(argv)
            out.update(code=code, stdout=stdout)
        elif workload == "train-eval":
            corpus = una.load_corpus(work / "model_corpus.txt")
            model = una.fit(corpus)
            del corpus
            pairs, dev = una.load_pairs(work / "train_pairs.tsv"), una.load_scored_pairs(work / "dev_pairs.tsv")
            TrainState(model, pairs, dev, 0)
        end = time.perf_counter()
    out["setup_s"] = end - start
    out["scaled_setup_s"] = host.scaled_s(start, end)
    if tracer is not None:
        tracer.end_round("setup")
        out["layers"] = tracer.summary()
    if workload == "train-eval":
        una.save_model(model, work / "model.txt")  # handed to the timed phase; neither timed nor traced
    if workload != "fit-corpus":
        out["model_sha"] = digest(work / "model.txt")
    return out


def timed(workload: str, work: Path, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    import una
    import una.cli

    clock = time.perf_counter
    output = work / "output.txt"
    if workload == "fit-corpus":
        argv = ["fit", "--corpus", str(work / "fit_corpus.txt"), "--output", str(output)]
    elif workload == "augment-guided":
        argv = ["augment", "--model", str(work / "model.txt"), "--input", str(work / "augment_input.txt"),
                "--output", str(output), "--seed", str(seed), *AUGMENT_FLAGS]
    else:
        state = TrainState(una.load_model(work / "model.txt"), una.load_pairs(work / "train_pairs.tsv"),
                           una.load_scored_pairs(work / "dev_pairs.tsv"), seed)
    if tracer is not None:
        tracer.install()

    round_times, una_ms, plain_ms, fingerprints, outcomes = [], [], [], set(), set()
    attempted = failed = 0
    with HostClock() as host:
        while sum(end - start for start, end in round_times) < seconds:
            if workload == "train-eval":
                start = clock()
                result = train_round(state)
                round_times.append((start, clock()))
                steps = result["steps"]
                attempted += len(steps) + 1
                una_ms += [s * 1e3 for s, injected, _ in steps if injected]
                plain_ms += [s * 1e3 for s, injected, _ in steps if not injected]
                outcomes.add((tuple(loss for _, _, loss in steps), result["rho"], result["n_pairs"]))
            else:
                start = clock()
                code, stdout = run_cli(argv)
                round_times.append((start, clock()))
                attempted += 1
                failed += code != 0
                outcomes.add((code, stdout))
                fingerprints.add(digest(output))
            if tracer is not None:
                tracer.end_round(f"round{len(round_times)}")
    peak_kb = peak_rss_kb()

    out = {
        "rounds": len(round_times),
        "attempted": attempted,
        "failed": failed,
        "timed_s": sum(end - start for start, end in round_times),
        "scaled_timed_s": sum(host.scaled_s(start, end) for start, end in round_times),
        "probe_ms": host.probe_ms(),
        "peak_rss_kb": peak_kb,
        "repeatable": len(outcomes) == 1 and len(fingerprints) <= 1,
    }
    if workload == "train-eval":
        out.update(plain_step_ms=plain_ms, una_step_ms=una_ms)
        record = {k: [] for k in ("anchors", "positives", "negatives", "negative_tokens", "loss_without")}
        checked = train_round(state, record)
        losses = [loss for _, _, loss in checked["steps"]]
        out["repeatable"] &= outcomes == {(tuple(losses), checked["rho"], checked["n_pairs"])}
        out["items_per_round"] = BATCH * len(losses)
        save_record(record, losses, checked["rho"], checked["n_pairs"], work / "train_record.npz")
    else:
        code, stdout = next(iter(outcomes))
        out.update(code=code, stdout=stdout)
    if tracer is not None:
        out["layers"] = tracer.summary()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="one phase of one benchmark workload")
    parser.add_argument("--phase", choices=["setup", "timed"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    tracer = Tracer(args.work / f"spans-{args.phase}.tsv") if args.trace else None
    if args.phase == "setup":
        out = setup(args.workload, args.work, tracer)
    else:
        out = timed(args.workload, args.work, args.seed, args.seconds, tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
