"""Rank each sweep corpus by explore work into `cost_order.json`.

    python3 benchmark/rank_costs.py

Runs `explore(initial_state(g))` plus `check(g)` on every graph of each
sweep corpus under cProfile and counts the Python function calls made.
Unlike a timing, the count does not depend on how busy the host was
while it ran (timings of one graph on a shared host differ by tens of
percent between two runs); two runs of this script rank each graph
within about one place of each other.  It writes the corpus indices from
least to most work; `run.py` slices the corpus by this order to draw
stratified samples.  It takes about ten minutes; rerun it when the
corpus changes, or when an optimisation has changed which graphs are
expensive so much that the sweeps stop being steady across seeds.
"""

import cProfile
import json
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gbsr  # noqa: E402

import corpus  # noqa: E402
from run import SWEEPS  # noqa: E402


def work(graph):
    g = gbsr.parse(corpus.to_text(graph))
    profile = cProfile.Profile()
    profile.runcall(lambda: (gbsr.explore(gbsr.initial_state(g)), gbsr.check(g)))
    return pstats.Stats(profile).total_calls


def main():
    order = {}
    for name, (edge_counts, max_label, _) in SWEEPS.items():
        graphs = corpus.reduced_graphs(edge_counts, max_label)
        calls = [work(g) for g in graphs]
        order[name] = sorted(range(len(graphs)), key=lambda i: (calls[i], i))
        print("%s: %d graphs, %d calls" % (name, len(graphs), sum(calls)), flush=True)
    with open(HERE / "cost_order.json", "w", encoding="utf-8") as f:
        json.dump(order, f, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
