"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload fit-corpus|augment-guided|train-eval \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from --seed
into .bench_work/<workload>/; the set-up is repeated in fresh processes
and its median reported; the timed phase runs in a process of its own so
that its peak RSS is its own; the outputs are then checked by bench/check.py,
which does not use una. With --trace 0 the last line of standard output
carries the end-to-end metrics, with --trace 1 the per-layer metrics of
a run whose calls into una are wrapped by bench/spans.py. The end-to-end
times are program time at a reference host speed (bench/hostspeed.py);
the times as measured go to standard error. Everything is single-threaded:
BLAS pools are pinned to one thread and UNA_THREADS is removed from the
environment.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("UNA_THREADS", None)
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fit-corpus", "augment-guided", "train-eval")
SETUP_REPEATS = {"fit-corpus": 11, "augment-guided": 5, "train-eval": 4}
CHILD_TIMEOUT_S = 150


def run_child(phase: str, workload: str, work: Path, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "workloads.py"), "--phase", phase, "--workload", workload,
        "--work", str(work), "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:  # timeout, interrupt or SIGTERM: stop the child before leaving
            child.kill()
            child.wait()
            raise
    if child.returncode != 0:
        raise RuntimeError(f"{phase} phase exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def check_outputs(workload: str, inputs: dict, setups: list[dict], timed: dict, work: Path) -> list[str]:
    errors = []
    if not timed["repeatable"]:
        errors.append("timed rounds did not all give the same outputs")
    if workload == "fit-corpus":
        model = check.read_model((work / "output.txt").read_text(encoding="utf-8"))
        return errors + check.check_fit(model, timed["stdout"], inputs["docs"])

    if len({s["model_sha"] for s in setups}) != 1 or any(s.get("code", 0) != 0 for s in setups):
        errors.append("set-up repetitions failed or wrote different models")
    model = check.read_model((work / "model.txt").read_text(encoding="utf-8"))
    stdout = setups[0].get("stdout", f"N={model.n_docs} m={len(model.terms)}\n")
    errors += [f"set-up fit: {e}" for e in check.check_fit(model, stdout, inputs["model_docs"])]
    if workload == "augment-guided":
        output = (work / "output.txt").read_text(encoding="utf-8")
        return errors + check.check_augment(
            model, timed["stdout"], inputs["lines"], output, radius=4000, beta=0.5, batch=workloads.BATCH
        )
    record = dict(np.load(work / "train_record.npz"))
    negatives = json.loads((work / "train_record.negatives.json").read_text(encoding="utf-8"))
    return errors + check.check_train(
        model, record, negatives, inputs["anchors"], inputs["dev"], alpha=workloads.ALPHA,
        tau=workloads.TAU, radius=4000, beta=0.5, dim=workloads.DIM, encoder_seed=workloads.ENCODER_SEED,
    )


def end_to_end(workload: str, setups: list[dict], timed: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics; with scaled=False, from the times as measured."""
    items_per_round = timed.get("items_per_round")
    if items_per_round is None:  # fit: N sentences; augment: negatives written
        first = timed["stdout"].split()[0 if workload == "fit-corpus" else 1]
        items_per_round = int(first.split("=")[1])
    prefix = "scaled_" if scaled else ""
    return {
        "items_per_s": {"value": items_per_round * timed["rounds"] / timed[f"{prefix}timed_s"], "unit": "items/s"},
        "setup_s": {"value": statistics.median(s[f"{prefix}setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": timed["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
    }


def per_layer(setups: list[dict], timed: dict) -> dict:
    """Timed-phase figures per round plus one set-up's (median over repeats)."""
    layers = timed["layers"]
    batch_ms = layers.pop("batch_ms")
    window_mb = layers.pop("batch_window_mb")
    metrics = {}
    for name, value in layers.items():
        value += statistics.median_low(s["layers"][name] for s in setups)
        unit = "ms" if name.endswith("_ms") else "count"
        metrics[name] = {"value": value, "unit": unit}
    # A tail percentile needs at least 40 samples; below that it reads 0.
    metrics["augment.batch_ms_p50"] = {"value": statistics.median(batch_ms) if batch_ms else 0.0, "unit": "ms"}
    p90 = statistics.quantiles(batch_ms, n=10)[8] if len(batch_ms) >= 40 else 0.0
    metrics["augment.batch_ms_p90"] = {"value": p90, "unit": "ms"}
    metrics["augment.plan_window_mb"] = {"value": statistics.median(window_mb) if window_mb else 0.0, "unit": "MB"}
    metrics["host.probe_ms"] = {"value": timed["probe_ms"], "unit": "ms"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="una benchmark: one workload, one seed")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run_child's cleanup
    if not (ROOT / "src" / "una" / "cli.py").is_file():
        print(f"error: no una sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = gen.write_inputs(args.workload, args.seed, work)
    setups = [
        run_child("setup", args.workload, work, args.seed, 0, args.trace)
        for _ in range(SETUP_REPEATS[args.workload])
    ]
    timed = run_child("timed", args.workload, work, args.seed, args.seconds, args.trace)
    errors = check_outputs(args.workload, inputs, setups, timed, work)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    measured = {name: metric["value"] for name, metric in end_to_end(args.workload, setups, timed, scaled=False).items()}
    info = {"rounds": timed["rounds"], "timed_s": round(timed["timed_s"], 3), "probe_ms": timed["probe_ms"],
            "measured": measured}
    for kind in ("plain", "una"):  # train-eval: steps without and with injected negatives
        if f"{kind}_step_ms" in timed:
            info[f"{kind}_step_ms_p50"] = statistics.median(timed[f"{kind}_step_ms"])
    if args.trace:
        metrics = per_layer(setups, timed)
        info["traced_items_per_s"] = end_to_end(args.workload, setups, timed)["items_per_s"]["value"]
    else:
        metrics = end_to_end(args.workload, setups, timed)
    print(json.dumps(info), file=sys.stderr)
    result = {"correct": not errors, "attempted": timed["attempted"], "failed": timed["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
