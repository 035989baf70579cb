"""Start-up contract: `import una` and each subcommand run only the una
modules they use.

Every case runs in a fresh interpreter under -X importtime, which lists
each module the import system ran. A module that una registers through
importlib.util.LazyLoader runs outside the import system, on its first
attribute access, so no listing names it; the interpreter therefore also
reports which una modules ran by their class: a lazily registered module
keeps its lazy class until its code runs. A module ran if either says so.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SAMPLE_CORPUS = Path(__file__).resolve().parent.parent / "data" / "sample_corpus.txt"

# Runs `una` on its arguments in process, then prints the una modules
# whose code ran as a plain module, and numpy.random if it was loaded.
RUN_CLI = """
import sys, types
import una, una.cli
code = una.cli.main(sys.argv[1:])
ran = [n for n, m in sys.modules.items() if n.split(".")[0] == "una" and type(m) is types.ModuleType]
print(" ".join(sorted(ran + ["numpy.random"] * ("numpy.random" in sys.modules))))
sys.exit(code)
"""
DEFERRED = {"una.augment", "una._seedseq", "una.contrastive", "una.evaluation"}


def modules_run(*argv) -> set[str]:
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", RUN_CLI, *map(str, argv)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    listed = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    ran = set(result.stdout.splitlines()[-1].split())
    listed_una = {name for name in listed if name.split(".")[0] == "una"}
    assert listed_una <= ran, listed_una - ran  # a listed module ran
    return ran


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "model.txt"
    modules_run("fit", "--corpus", SAMPLE_CORPUS, "--output", path)
    return path


def test_fit_runs_only_corpus_and_tfidf(tmp_path):
    ran = modules_run("fit", "--corpus", SAMPLE_CORPUS, "--output", tmp_path / "model.txt")
    assert "numpy.random" not in ran
    assert ran == {"una", "una.cli", "una.config", "una.corpus", "una.tfidf"}


def test_augment_skips_the_loss_and_evaluation(tmp_path, model):
    ran = modules_run("augment", "--model", model, "--input", SAMPLE_CORPUS, "--output", tmp_path / "o.tsv")
    assert {"una.augment", "una._seedseq"} <= ran
    assert not ran & {"una.contrastive", "una.evaluation"}


def test_eval_skips_augment(tmp_path, model):
    lines = SAMPLE_CORPUS.read_text(encoding="utf-8").splitlines()[:7]
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"{a}\t{b}\t{gold}\n" for gold, (a, b) in enumerate(zip(lines, lines[1:]))),
                     encoding="utf-8")
    ran = modules_run("eval", "--pairs", pairs, "--model", model)
    assert {"una.contrastive", "una.evaluation"} <= ran
    assert "una.augment" not in ran


def test_every_public_name_and_module_is_reachable():
    # In a fresh interpreter, so that no public name has been looked up yet.
    code = """
import una
listed = set(dir(una))
namespace = {}
exec("from una import *", namespace)
assert len(una.__all__) == 34 and set(una.__all__) <= listed, set(una.__all__) - listed
assert all(namespace[name].__module__.startswith("una.") for name in una.__all__)
assert all(hasattr(una, module) for module in ("config", "corpus", "tfidf", "augment", "contrastive", "evaluation"))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
