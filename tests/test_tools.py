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
    # BS(2,6) reads letter maps on its way to a witness, which a
    # composite decides, so it runs _traverse in classify mode; the rigid
    # (2, 3) loop runs it in count mode; both list moves through
    # _legal_content, replay their reports (_soundness_check) and spread
    # their fingerprints (_spread)
    spent = layers.run(lambda: [gbsr.explore(gbsr.initial_state(parse(text)))
                                for text in ("vertex v\nedge c v 2 6 v\n", "vertex v\nedge c v 2 3 v\n")])
    assert list(spent) == list(dict.fromkeys(name for name, *_ in tool.LAYERS))
    assert all(seconds > 0 and calls > 0 for seconds, calls in spent.values()), spent
    assert all(owner.__dict__[attr] is fn for owner, attr, fn, _ in layers.patches)
