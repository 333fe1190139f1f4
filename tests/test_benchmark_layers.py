"""The benchmark's traced run finds every ttckit function it wraps.

``perfbench/layers.py`` names each wrapped function by module and
attribute, and a traced run looks each one up with ``getattr``.  These
tests never run the benchmark, so without this check a rename in ttckit
would first show as an ``AttributeError`` in a traced run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_resolves_in_ttckit(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers").LAYERS
    missing = []
    for layer in layers:
        owner = importlib.import_module(layer.module)
        # "FrameSample.load_image" is a method: the class attribute
        for name in layer.attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{layer.module}.{layer.attr}")
    assert layers and missing == []
