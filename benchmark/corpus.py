"""Seeded workload inputs, generated without the package's own enumeration.

The sweeps draw from corpora of reduced GBS graphs.  They are built here
from scratch (connected edge shapes times labellings) and deduplicated by
a brute-force isomorphism key over vertex permutations, so a faster or
different `enumerate_graphs` / `canonical_form` in the package cannot
shift what the benchmark measures.

A graph here is ``(nv, edges)`` with vertices ``0..nv-1`` and edges
``(a, la, b, lb)``: label ``la`` at vertex ``a`` (side A), ``lb`` at ``b``.
"""

from itertools import combinations_with_replacement, permutations, product


def _connected(nv, shape):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for a, b in shape:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == nv


def iso_key(nv, edges, perms):
    """Least relabelled edge list over every vertex permutation."""
    best = None
    for perm in perms:
        rows = []
        for a, la, b, lb in edges:
            x, y = (perm[a], la), (perm[b], lb)
            rows.append(x + y if x <= y else y + x)
        rows.sort()
        if best is None or rows < best:
            best = rows
    return (nv, tuple(best))


def reduced_graphs(edge_counts, max_label):
    """Every reduced graph (label 1 only on loops) with the given edge
    counts and labels <= max_label, one per isomorphism class, in a fixed
    order."""
    seen = set()
    out = []
    if 0 in edge_counts:
        seen.add((1, ()))
        out.append((1, ()))
    for m in sorted(c for c in edge_counts if c > 0):
        for nv in range(1, m + 2):
            perms = list(permutations(range(nv)))
            pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
            for shape in combinations_with_replacement(pairs, m):
                if not _connected(nv, shape):
                    continue
                choices = []
                for a, b in shape:
                    low = 1 if a == b else 2
                    choices.append(list(product(range(low, max_label + 1), repeat=2)))
                for labels in product(*choices):
                    edges = tuple((a, la, b, lb) for (a, b), (la, lb) in zip(shape, labels))
                    key = iso_key(nv, edges, perms)
                    if key not in seen:
                        seen.add(key)
                        out.append((nv, edges))
    return out


def to_text(graph):
    nv, edges = graph
    lines = ["vertex v%d" % i for i in range(nv)]
    for k, (a, la, b, lb) in enumerate(edges):
        lines.append("edge e%d v%d %d %d v%d" % (k, a, la, lb, b))
    return "\n".join(lines) + "\n"


# -- expected verdicts ---------------------------------------------------------
#
# A restatement of the rigidity criterion over the benchmark's own graph
# tuples.  It reports each sweep sample's makeup and checks the flags that
# `gbsr check` prints in the cli-session; on the sweeps the gate is the
# package's `check` compared against `explore`.

def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def expected_rigid(graph):
    """Rigidity of a reduced graph by the criterion in the source paper."""
    nv, edges = graph
    if len(edges) == 1 and nv == 1 and 1 in (edges[0][1], edges[0][3]):
        return _is_prime(max(edges[0][1], edges[0][3])) or edges[0][1] == edges[0][3]
    ends = {v: [] for v in range(nv)}
    for k, (a, la, b, lb) in enumerate(edges):
        ends[a].append((k, la))
        ends[b].append((k, lb))
    for v, here in ends.items():
        for i, (ke, le) in enumerate(here):
            for j, (kf, lf) in enumerate(here):
                if i == j or le % lf:
                    continue
                if ke == kf and le == lf:
                    continue
                a, la, b, lb = edges[kf]
                if a == b and la == lb == 1 and len(here) == 3:
                    continue
                return False
    return True


def stratified_sample(corpus, cost_order, size, rng):
    """``size`` graphs, one drawn at random from each of ``size`` equal
    slices of the corpus sorted by recorded explore cost.

    ``cost_order`` lists corpus indices from cheapest to dearest, as
    `rank_costs.py` measured them.  The per-graph cost spans two orders of
    magnitude (rigid graphs search to exhaustion), so a plain random
    sample would make the work of a pass, and its slowest tenth, depend
    on the seed; one draw per slice keeps every seed's sample close to
    the corpus in makeup.  The ranking only shapes the slices: each slice
    is still sampled uniformly, so a stale ranking costs steadiness, not
    correctness.
    """
    if sorted(cost_order) != list(range(len(corpus))):
        raise ValueError("cost order does not match the corpus; rerun rank_costs.py")
    ordered = [corpus[i] for i in cost_order]
    n = len(ordered)
    picks = []
    for i in range(size):
        picks.append(ordered[rng.randrange(i * n // size, (i + 1) * n // size)])
    rng.shuffle(picks)
    return picks


def makeup(graphs, verdicts):
    """Sample makeup: yes/no verdicts, edge-count histogram, largest label."""
    hist = {}
    for _, edges in graphs:
        hist[len(edges)] = hist.get(len(edges), 0) + 1
    largest = max((max(e[1], e[3]) for _, edges in graphs for e in edges), default=1)
    yes = sum(1 for r in verdicts if r)
    return {
        "graphs": len(graphs),
        "yes": yes,
        "no": len(verdicts) - yes,
        "edges_histogram": {str(k): v for k, v in sorted(hist.items())},
        "max_label": largest,
    }
