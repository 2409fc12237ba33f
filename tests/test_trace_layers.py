"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps library
functions by module and attribute name; a renamed function would break it."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_names_a_library_function():
    missing = []
    for layer in load_tracing().LAYERS:
        obj = importlib.import_module(f"steiner_ladder.{layer.module}")
        for part in layer.attr.split("."):  # "EmbeddedTree.build" names a classmethod
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(layer.name)
    assert missing == []
