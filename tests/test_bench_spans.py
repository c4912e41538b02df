"""The traced benchmark run wraps program functions by module attribute; every
one of those names must still resolve, or the traced run fails at start-up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
