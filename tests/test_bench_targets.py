"""The benchmark's traced names exist in una.

bench/spans.py looks each of its TARGETS up by name when a traced run
starts, so a renamed or deleted function would otherwise break only
`bench/run.py --trace 1`. The module is loaded from its file and only read.
"""

import importlib
import importlib.util
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
