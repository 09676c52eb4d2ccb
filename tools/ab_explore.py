"""In-process A/B timing of `explore` against a base revision.

    python3 tools/ab_explore.py BASE --out BENCH_<topic>.json

Run from the root of a checkout.  BASE, a git revision such as HEAD~1,
is unpacked with `git archive` into a temporary directory; its
`src/gbsr` and this checkout's `src/gbsr` are imported side by side in
one process, under the names `ab_base` and `ab_head`.  Each operation is the sweep
benchmark's: `explore(initial_state(g))` plus `check(g)`.  They run on
every graph of the two corpora that `benchmark/corpus.py` builds, 1,293
graphs for `sweep-2e` and 559 for `sweep-3e`, alternating base and head
graph by graph and swapping which side goes first on every run, so both
sides see the same machine state.

Per graph and side the script keeps the minimum over RUNS runs of
the operation's wall time, and, in a second run with timers wrapped
around `MarkedState.images`, `GbsGraph.__init__`,
`GbsGraph.canonical_form`, `_ClassTable.classify`,
`_ClassTable.lengths` (lookups in the lengths cache) and the module
functions `explorer._lengths` (fingerprint evaluation),
`graph.validate`, `explorer._chain` (collapse chains),
`_canonical_key` (canonical graph keys, in `graph` and where `explorer`
calls it on child content), the `_collapse` that `explorer` calls (the
chains' collapses), `explorer._reduced_search` (the search over reduced
states), `explorer._traverse` (the traversal over graph content, which
counts on a one-class space and classifies otherwise),
`explorer._soundness_check` (the verified replay of the report),
`explorer._spread` (fingerprints spread from lengths), the
`_legal_content` that `explorer` calls (move kinds and their surgery,
for the traversal) and every
entry of the table
`moves._LETTERS` (the letter maps that `MarkedState.images` makes for
the steps it reads), the
minimum of each layer's inclusive time and the layer's number of calls,
which every run repeats exactly.  Entries of LAYERS that share a name
share one layer, as `_canonical_key`'s two do.  A layer that names a dict
of functions swaps in a dict of their timed wrappers, all counted under
the one layer.  A call made
inside a call of the same layer counts as a call but adds no time, so a
recursive layer's time is not counted twice.  A generator function's
call only makes the generator, so such a layer times every step of
the generator its call makes, and counts the call once.  A layer that
one side's package lacks reads 0 seconds and 0 calls there, and its
ratio is null.
The totals are sums of those minima and counts.  It also hashes
`json.dumps(report.to_json(), sort_keys=True)` over every graph on both
sides, so a speedup that changed a report shows up as unequal digests.
The JSON it writes to the required --out path holds all of that plus
the host, and the script prints the same JSON.
"""

import argparse
import hashlib
import importlib.util
import inspect
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))
import corpus  # noqa: E402

RUNS = 3
CORPORA = {"sweep-2e": ((0, 1, 2), 6), "sweep-3e": ((3,), 3)}
LAYERS = (("images", "moves", "MarkedState", "images"),
          ("GbsGraph.__init__", "graph", "GbsGraph", "__init__"),
          ("canonical_form", "graph", "GbsGraph", "canonical_form"),
          ("classify", "explorer", "_ClassTable", "classify"),
          ("_ClassTable.lengths", "explorer", "_ClassTable", "lengths"),
          ("_lengths", "explorer", None, "_lengths"),
          ("validate", "graph", None, "validate"),
          ("_chain", "explorer", None, "_chain"),
          ("_canonical_key", "graph", None, "_canonical_key"),
          ("_canonical_key", "explorer", None, "_canonical_key"),
          ("_collapse", "explorer", None, "_collapse"),
          ("_reduced_search", "explorer", None, "_reduced_search"),
          ("_traverse", "explorer", None, "_traverse"),
          ("_soundness_check", "explorer", None, "_soundness_check"),
          ("_spread", "explorer", None, "_spread"),
          ("_legal_content", "explorer", None, "_legal_content"),
          ("letter maps", "moves", None, "_LETTERS"))


def load(name, src):
    """Import the package at src/gbsr under name."""
    init = Path(src) / "gbsr" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Layers:
    """Inclusive-time timers and call counters around the LAYERS of one
    package: methods of a class, or module functions where the class is
    None, or a module's dict of functions."""

    def __init__(self, package):
        self.spent = {name: [0.0, 0] for name, *_ in LAYERS}  # [seconds, calls]
        self.patches = []
        for name, module, cls, attr in LAYERS:
            owner = sys.modules["%s.%s" % (package.__name__, module)]
            owner = owner if cls is None else getattr(owner, cls)
            if attr not in owner.__dict__:
                continue
            fn = owner.__dict__[attr]
            timed = {k: self._timed(name, f) for k, f in fn.items()} if type(fn) is dict else self._timed(name, fn)
            self.patches.append((owner, attr, fn, timed))

    def _timed(self, name, fn):
        tally, clock, depth, done = self.spent[name], time.perf_counter, [0], object()

        def timed_steps(*args, **kwargs):
            tally[1] += 1
            steps = fn(*args, **kwargs)
            while True:
                depth[0] += 1
                start = clock()
                try:
                    item = next(steps, done)
                finally:
                    depth[0] -= 1
                    if not depth[0]:
                        tally[0] += clock() - start
                if item is done:
                    return
                yield item

        if inspect.isgeneratorfunction(fn):
            return timed_steps

        def timed(*args, **kwargs):
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:  # the outermost call of a recursion holds the rest
                    tally[0] += clock() - start
                tally[1] += 1

        return timed

    def run(self, op):
        """Run op with every layer wrapped; return layer -> (seconds, calls)."""
        for tally in self.spent.values():
            tally[:] = 0.0, 0
        for owner, attr, _, timed in self.patches:
            setattr(owner, attr, timed)
        try:
            op()
        finally:
            for owner, attr, fn, _ in self.patches:
                setattr(owner, attr, fn)
        return {name: tuple(tally) for name, tally in self.spent.items()}


def sweep(sides, graphs):
    """Time every graph on both sides; return per-side totals and digests."""
    names = list(sides)
    inputs = {side: [sides[side].parse(corpus.to_text(g)) for g in graphs] for side in names}
    layers = {side: Layers(sides[side]) for side in names}
    out = {side: {"total_s": 0.0, "layers": {k: [0.0, 0] for k in layers[side].spent},
                  "digest": hashlib.sha256()} for side in names}
    for i in range(len(graphs)):
        best = {side: float("inf") for side in names}
        best_layers = {side: None for side in names}
        for run in range(RUNS):
            for side in (names if run % 2 == 0 else names[::-1]):
                pkg, g = sides[side], inputs[side][i]
                start = time.perf_counter()
                report = pkg.explore(pkg.initial_state(g))
                pkg.check(g)
                best[side] = min(best[side], time.perf_counter() - start)
                if run == 0:
                    out[side]["digest"].update(
                        json.dumps(report.to_json(), sort_keys=True).encode() + b"\n")
                spent = layers[side].run(lambda: (pkg.explore(pkg.initial_state(g)), pkg.check(g)))
                best_layers[side] = spent if best_layers[side] is None else {
                    k: (min(s, spent[k][0]), calls) for k, (s, calls) in best_layers[side].items()}
        for side in names:
            out[side]["total_s"] += best[side]
            for k, (s, calls) in best_layers[side].items():
                out[side]["layers"][k][0] += s
                out[side]["layers"][k][1] += calls
    for side in names:
        out[side]["digest"] = out[side]["digest"].hexdigest()
        out[side]["total_s"] = round(out[side]["total_s"], 4)
        out[side]["layers"] = {k: {"s": round(s, 4), "calls": calls}
                               for k, (s, calls) in out[side]["layers"].items()}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against, such as HEAD~1")
    parser.add_argument("--out", required=True, help="where to write the JSON, such as BENCH_<topic>.json")
    args = parser.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"base": load("ab_base", Path(tmp) / "src"), "head": load("ab_head", ROOT / "src")}
        result = {
            "what": "explore(initial_state(g)) + check(g) on every corpus graph; sums of "
                    "per-graph minima over runs, base and head alternated in one process",
            "base": {"revision": args.base, "commit": commit},
            "head": "the working tree of this checkout",
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "runs": RUNS,
            "workloads": {},
        }
        for workload, (edge_counts, max_label) in CORPORA.items():
            graphs = corpus.reduced_graphs(edge_counts, max_label)
            out = sweep(sides, graphs)
            out["graphs"] = len(graphs)
            out["digests_equal"] = out["base"]["digest"] == out["head"]["digest"]
            out["head_over_base"] = {"total": round(out["head"]["total_s"] / out["base"]["total_s"], 4)}
            for layer, spent in out["base"]["layers"].items():
                head = out["head"]["layers"][layer]["s"]
                out["head_over_base"][layer] = round(head / spent["s"], 4) if head and spent["s"] else None
            result["workloads"][workload] = out
            print(workload, json.dumps(out["head_over_base"]), "digests equal:",
                  out["digests_equal"], file=sys.stderr, flush=True)
    text = json.dumps(result, indent=2) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return 0 if all(w["digests_equal"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
