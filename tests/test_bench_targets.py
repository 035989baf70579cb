"""The benchmark's traced names exist in una.

bench/spans.py looks each of its TARGETS up by name when a traced run
starts, so a renamed or deleted function would otherwise break only
`bench/run.py --trace 1`. The module is loaded from its file and only read.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module_name, attribute", [target[:2] for target in spans.TARGETS])
def test_target_resolves(module_name, attribute):
    assert module_name in spans.UNA_MODULES
    owner = importlib.import_module(module_name)
    for name in attribute.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_tracer_wraps_every_target_after_import():
    """In a fresh interpreter, after `import una, una.cli` as a traced run
    does it: every module of UNA_MODULES is in sys.modules, and
    Tracer.install() replaces every target by its wrapper."""
    code = """
import importlib.util, sys
import una, una.cli
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
missing = [name for name in spans.UNA_MODULES if name not in sys.modules]
assert not missing, missing

def resolve(module_name, attribute):
    owner = sys.modules[module_name]
    for name in attribute.split("."):
        owner = getattr(owner, name)
    return owner

originals = [resolve(module_name, attribute) for module_name, attribute, _, _ in spans.TARGETS]
spans.Tracer("spans.tsv").install()
unwrapped = [target[2] for target, original in zip(spans.TARGETS, originals)
             if getattr(resolve(*target[:2]), "__wrapped__", None) is not original]
assert not unwrapped, unwrapped
"""
    result = subprocess.run([sys.executable, "-c", code, str(SPANS)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
