"""The in-repo tools still name what exists in the package."""

import importlib.util
import sys
from pathlib import Path

import gbsr
from gbsr.graph import parse

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_ab_explore_layers_resolve_in_the_package(monkeypatch):
    # a layer that a refactor renames fails here, not in a later A/B run
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds benchmark/
    spec = importlib.util.spec_from_file_location("ab_explore", TOOLS / "ab_explore.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    layers = tool.Layers(gbsr)
    assert len(layers.patches) == len(tool.LAYERS)
    spent = layers.run(lambda: gbsr.explore(gbsr.initial_state(parse("vertex v\nedge c v 2 6 v\n"))))
    assert list(spent) == [name for name, *_ in tool.LAYERS]
    assert all(seconds > 0 and calls > 0 for seconds, calls in spent.values()), spent
    assert all(owner.__dict__[attr] is fn for owner, attr, fn, _ in layers.patches)
