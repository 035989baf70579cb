"""Self-test of the output checkers: each must reject a corrupted output.

    python3 bench/selftest.py

Runs the program once on small generated inputs and confirms that every
checker accepts the real outputs. It then feeds the checkers corrupted
copies: one perturbed idf, a substitute outside the radius, a dropped
output line and two swapped losses. It exits 0 only if every real output
is accepted and every corrupted one rejected.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import check
import gen
import workloads  # puts the repository's src/ on sys.path

SEED = 3
RADIUS = 50  # small, so that most terms have candidates outside the radius
WORK = workloads.ROOT / ".bench_work" / "selftest"


def expect(label: str, errors: list[str], rejected: bool) -> bool:
    ok = bool(errors) == rejected
    verdict = "rejected" if errors else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({errors[0]})" if errors else ""))
    return ok


def fit_case(corpus) -> tuple[bool, check.Model]:
    gen.write_lines(WORK / "corpus.txt", [s.text for s in corpus])
    code, stdout = workloads.run_cli(["fit", "--corpus", str(WORK / "corpus.txt"), "--output", str(WORK / "model.txt")])
    text = (WORK / "model.txt").read_text(encoding="utf-8")
    docs = [s.tokens for s in corpus]
    model = check.read_model(text)
    ok = code == 0 and expect("fit output", check.check_fit(model, stdout, docs), rejected=False)

    lines = text.split("\n")
    term, idf, score = lines[5].split("\t")
    lines[5] = "\t".join([term, repr(float(idf) * (1 + 1e-9)), score])
    corrupted = check.read_model("\n".join(lines))
    ok &= expect("fit output with one idf perturbed", check.check_fit(corrupted, stdout, docs), rejected=True)
    return ok, model


def augment_case(model: check.Model) -> bool:
    lines = gen.augment_input(SEED, 600)
    gen.write_lines(WORK / "input.txt", [s.text if s else "" for s in lines])
    code, stdout = workloads.run_cli([
        "augment", "--model", str(WORK / "model.txt"), "--input", str(WORK / "input.txt"),
        "--output", str(WORK / "negatives.tsv"), "--alpha", "1", "--radius", str(RADIUS), "--seed", "1",
    ])
    rows = (WORK / "negatives.tsv").read_text(encoding="utf-8").split("\n")

    def run(rows):
        return check.check_augment(model, stdout, lines, "\n".join(rows), RADIUS, beta=0.5, batch=64)

    ok = code == 0 and expect("augment output", run(rows), rejected=False)

    sources = [s.tokens for s in lines if s is not None]
    for k, (row, source) in enumerate(zip(rows, sources)):
        fields = row.split("\t")
        changed = [term for term, out in zip(source, fields[2].split(" ")) if out != term]
        if changed:
            break
    term = changed[0]
    rank = model.rank_of[model.index[term]]
    outsider = model.terms[model.ranks[(rank + 3 * RADIUS) % len(model.terms)]]
    fields[2] = " ".join(outsider if s == term else o for s, o in zip(sources[k], fields[2].split(" ")))
    moved = rows[:k] + ["\t".join(fields)] + rows[k + 1 :]
    ok &= expect("augment output with a substitute outside the radius", run(moved), rejected=True)
    ok &= expect("augment output with a line dropped", run(rows[:10] + rows[11:]), rejected=True)
    return ok


def train_case(model: check.Model) -> bool:
    import una

    pairs = gen.train_pairs(SEED, workloads.BATCH * 10)
    dev = gen.dev_pairs(SEED, 200)
    gen.write_pairs(WORK, pairs, dev)
    state = workloads.TrainState(
        una.load_model(WORK / "model.txt"), una.load_pairs(WORK / "train_pairs.tsv"),
        una.load_scored_pairs(WORK / "dev_pairs.tsv"), SEED,
    )
    record = {k: [] for k in ("anchors", "positives", "negatives", "negative_tokens", "loss_without")}
    result = workloads.train_round(state, record)
    workloads.save_record(record, [s[2] for s in result["steps"]], result["rho"], result["n_pairs"], WORK / "record.npz")
    saved = dict(np.load(WORK / "record.npz"))
    negatives = json.loads((WORK / "record.negatives.json").read_text(encoding="utf-8"))

    def run(record):
        return check.check_train(
            model, record, negatives, [a.tokens for a, _ in pairs], [(a.tokens, b.tokens, g) for a, b, g in dev],
            alpha=workloads.ALPHA, tau=workloads.TAU, radius=4000, beta=0.5, dim=workloads.DIM,
            encoder_seed=workloads.ENCODER_SEED,
        )

    ok = expect("train-eval record", run(saved), rejected=False)
    swapped = dict(saved, losses=saved["losses"][[1, 0, *range(2, saved["losses"].size)]])
    ok &= expect("train-eval record with two losses swapped", run(swapped), rejected=True)
    return ok


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ok, model = fit_case(gen.corpus(SEED, 2, 3000))
    ok &= augment_case(model)
    ok &= train_case(model)
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
