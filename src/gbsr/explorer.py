"""Brute-force exploration of GBS deformation spaces.

This module is the empirical counterweight to the closed-form criteria
in `rigidity`: it walks the deformation space of a marked state by
breadth-first search over moves, groups the reduced states it meets
into classes, and reports whether more than one class of reduced tree
exists within the search bounds.

Class identity is (canonical quotient graph, translation-length
fingerprint).  The fingerprint of a state lists the translation length
of every freely reduced word of bounded length over the seed
generators, computed through the state's marking.  Unequal fingerprints
prove the marked trees differ (length functions are equivariant-iso
invariants); equal fingerprints are only evidence of sameness, so a
"yes" verdict is relative to the bounds while a "no" verdict is final.

Fingerprints are evaluated sparsely: translation length is invariant
under conjugation and inversion and linear on powers, so only one
primitive cyclic word per equivalence class is measured and the rest of
the list is filled in from those values.  The same representatives,
grouped by core length, drive the staged class comparison; both come
from one enumeration of the sample words, cached per number of seed
generators and radius.

Ascending states degenerate (their length function is the absolute
value of a homomorphism, blind to induction moves), so one-loop (1, n)
spaces are routed to an arithmetic criterion over divisors of n
instead: the tree reached by inducting along d equals the seed tree iff
n^i = n^j * d has a solution, that is iff d is a power of n, and two
inductions d, d' agree iff n^i * d = n^j * d'.  For divisors of n that
closed form leaves d = d' or {d, d'} = {1, n}.

Search-budget caps (depth, an overall state budget) turn an unfinished
single-class search into "inconclusive"; the edge-count and label caps
define the searched subspace and do not.
"""

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .errors import BoundsTooTightError, BrokenMarkingError, GbsError, NoViolationError
from .graph import Edge, EdgeEnd, GbsGraph, serialize
from .moves import (
    Collapse,
    Expansion,
    Induction,
    MarkedState,
    MoveBounds,
    Slide,
    _apply_move,
    _child,
    _divisors,
    _legal,
    apply_move,
    initial_state,
)
from .rigidity import ascending_modulus, collapse_witness, is_ascending, is_reduced, nonascending_rigid
from .words import free_reduce, invert_word


@dataclass(frozen=True)
class ExploreBounds:
    """Caps for explore.

    max_label = None means the square of the largest seed label.
    max_states is a plain search budget: hitting it can only downgrade
    a would-be "yes" to "inconclusive", never flip a verdict.
    """

    max_extra_edges: int = 2
    max_label: int | None = None
    max_depth: int = 8
    radius: int = 4
    max_states: int = 5000


@dataclass(frozen=True)
class ExploreClass:
    graph: GbsGraph
    fingerprint: tuple
    representative_moves: tuple
    count: int


@dataclass(frozen=True)
class ExploreReport:
    classes: tuple
    rigid: str  # "yes" | "no" | "inconclusive"
    witness: tuple | None

    def to_json(self):
        return {
            "classes": [
                {
                    "graph": serialize(c.graph),
                    "fingerprint": list(c.fingerprint),
                    "representativeMoves": [str(m) for m in c.representative_moves],
                    "count": c.count,
                }
                for c in self.classes
            ],
            "rigid": self.rigid,
            "witness": None if self.witness is None else [str(m) for m in self.witness],
        }


# -- sample words ------------------------------------------------------------
#
# Letters are (symbol, +1|-1).  A word is freely reduced if no letter is
# followed by its inverse; it is a cyclic word when also the last letter
# is not the inverse of the first.

def _reduced_words(letters, length):
    inv = {(s, e): (s, -e) for s, e in letters}
    word = []

    def rec(k):
        if k == length:
            yield tuple(word)
            return
        for let in letters:
            if word and word[-1] == inv[let]:
                continue
            word.append(let)
            yield from rec(k + 1)
            word.pop()

    yield from rec(0)


def _cyclic_core(word):
    """Strip cancelling first/last letters: w = u c u^-1 with c cyclic."""
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == (word[j - 1][0], -word[j - 1][1]):
        i, j = i + 1, j - 1
    return word[i:j]


def _necklace_key(word):
    """Least rotation of the word or its inverse; a conjugacy-and-inversion key."""
    best = None
    for w in (word, invert_word(word)):
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            if best is None or rot < best:
                best = rot
    return best


def _primitive_root(word):
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[p:] + word[:p]:
            return word[:p], n // p
    return word, 1


@lru_cache(maxsize=16)
def _index_plan(nsymbols, radius):
    """Enumerate the freely reduced words of length 1..radius over symbol
    indices once: (stages, entries).

    stages[i] lists the fresh primitive necklace representatives with
    core length i + 1; entries gives, per word in enumeration order,
    (stage, position, power) of its cyclic core's primitive root, or None
    when the core is empty.
    """
    letters = [(s, e) for s in range(nsymbols) for e in (1, -1)]
    stages = [[] for _ in range(radius)]
    where = {}  # necklace key -> (stage, position)
    shared = {}  # one entry tuple per distinct (key, power)
    entries = []
    for length in range(1, radius + 1):
        for w in _reduced_words(letters, length):
            core = _cyclic_core(w)
            if not core:
                entries.append(None)
                continue
            root, k = _primitive_root(core)
            key = _necklace_key(root)
            if key not in where:
                stage = stages[len(key) - 1]
                where[key] = (len(key) - 1, len(stage))
                stage.append(free_reduce(key))
            entries.append(shared.setdefault((key, k), where[key] + (k,)))
    return tuple(map(tuple, stages)), tuple(entries)


@lru_cache(maxsize=64)
def _sample_plan(symbols, radius):
    """The index plan with its representatives spelled over symbols."""
    stages, entries = _index_plan(len(symbols), radius)
    syllables = {}  # one shared (symbol, exponent) pair per distinct syllable
    named = tuple(
        tuple(tuple(syllables.setdefault(s, (symbols[s[0]], s[1])) for s in w) for w in st)
        for st in stages
    )
    return named, entries


def _spread(entries, values):
    """Fingerprint from per-stage representative lengths."""
    return tuple(0 if e is None else e[2] * values[e[0]][e[1]] for e in entries)


def fingerprint(state: MarkedState, radius: int):
    """Lengths of all freely reduced seed words of length <= radius.

    Evaluated through the state's marking; only primitive necklace
    representatives are measured, the rest follow from invariance.
    """
    stages, entries = _sample_plan(state.seed.presentation.generators, radius)
    return _spread(entries, [tuple(state.seed_length(w) for w in st) for st in stages])


# -- class bookkeeping -------------------------------------------------------

class _ClassRecord:
    __slots__ = ("state", "count", "stages")

    def __init__(self, state, nstages):
        self.state = state
        self.count = 1
        self.stages = [None] * nstages


class _ClassTable:
    """Reduced states grouped by (canonical graph, staged fingerprint)."""

    def __init__(self, plan):
        self.samples, self.entries = plan
        self.buckets = {}
        self.records = []
        self._memo = {}

    def _stage(self, rec, i):
        if rec.stages[i] is None:
            rec.stages[i] = tuple(rec.state.seed_length(w) for w in self.samples[i])
        return rec.stages[i]

    def classify(self, state):
        """Return (record, created).

        An exact (graph, images) pair already classified via another
        route skips the length queries.  The key holds the concrete
        labelled graph, not its isomorphism class: path letters only mean
        anything over concrete names.
        """
        exact = (state.graph.vertices, state.graph.edges, tuple(state.images().values()))
        hit = self._memo.get(exact)
        if hit is not None:
            hit.count += 1
            return hit, False
        mine = _ClassRecord(state, len(self.samples))
        bucket = self.buckets.setdefault(state.graph.canonical_form(), [])
        stages = range(len(self.samples))
        for rec in bucket:
            if all(self._stage(rec, i) == self._stage(mine, i) for i in stages):
                rec.count += 1
                self._memo[exact] = rec
                return rec, False
        bucket.append(mine)
        self.records.append(mine)
        self._memo[exact] = mine
        return mine, True

    def fingerprint(self, rec):
        return _spread(self.entries, [self._stage(rec, i) for i in range(len(self.samples))])


# -- reduction and search ----------------------------------------------------

def reduce_state(state: MarkedState) -> MarkedState:
    """Collapse (first legal edge, in edge order) until reduced."""
    return _reduce(state, {})


def _reduce(state, pool):
    """reduce_state with every graph of the chain taken from pool."""
    while (end := collapse_witness(state.graph)) is not None:
        state = _apply_move(state, Collapse(end.edge), pool, False)
    return state


def ascending_equivalent(n: int, d: int) -> bool:
    """Does inducting along d return the same tree?  True iff n^i = n^j * d
    for some i, j >= 0, that is iff d is a power of n."""
    if n < 2 or d < 1:
        return d == 1
    while d % n == 0:
        d //= n
    return d == 1


def _explore_ascending(seed, base, bounds):
    n = ascending_modulus(base.graph)
    # divisors d, d' of n are equivalent iff d = d' or {d, d'} = {1, n};
    # the group containing 1 is the seed class
    groups = [sorted({1, n})] + [[d] for d in _divisors(n)[1:-1]]
    classes = []
    witness = None
    for grp in groups:
        d = grp[0]
        rep = base if d == 1 else apply_move(base, Induction(d), verify=False)
        if d != 1 and witness is None:
            witness = rep.history
        classes.append(
            ExploreClass(
                graph=rep.graph,
                fingerprint=fingerprint(rep, bounds.radius),
                representative_moves=rep.history,
                count=len(grp),
            )
        )
    rigid = "yes" if len(groups) == 1 else "no"
    report = ExploreReport(tuple(classes), rigid, witness)
    _soundness_check(seed, report, bounds)
    return report


def _legal_children(state, max_edges, max_label, pool):
    """Children within the searched subspace, in enumeration order."""
    inner = MoveBounds(max_edges=max_edges, max_label=max_label)
    return [
        (mv, _child(state, mv, surgery, pool, False))
        for mv, surgery in _legal(state.graph, inner)
    ]


def explore(seed, bounds: ExploreBounds = ExploreBounds()) -> ExploreReport:
    """BFS the deformation space of a marked state within bounds.

    Verdicts: "no" (two reduced classes found; witness attached),
    "yes" (the bounded space was exhausted with a single class), or
    "inconclusive" (depth or state budget ran out first).
    """
    if isinstance(seed, GbsGraph):
        seed = initial_state(seed)
    g0 = seed.graph
    max_label = bounds.max_label if bounds.max_label is not None else g0.max_label() ** 2
    if g0.max_label() > max_label:
        raise BoundsTooTightError(
            "seed label %d exceeds max_label %d" % (g0.max_label(), max_label)
        )
    if bounds.max_depth < 0 or bounds.radius < 1:
        raise BoundsTooTightError("max_depth must be >= 0 and radius >= 1")
    max_edges = len(g0.edges) + bounds.max_extra_edges
    # graph content -> (GbsGraph, Presentation), shared by every state
    # this call builds, so that each concrete graph is built, validated
    # and canonicalised once
    pool = {}

    base = _reduce(seed, pool)
    if is_ascending(base.graph):
        return _explore_ascending(seed, base, bounds)

    table = _ClassTable(_sample_plan(seed.seed.presentation.generators, bounds.radius))
    table.classify(base)
    second = None
    clipped = False
    visited = {seed.graph.canonical_form()}
    queue = deque([seed])
    popped = 0
    while queue and second is None:
        state = queue.popleft()
        popped += 1
        if popped > bounds.max_states:
            clipped = True
            break
        children = _legal_children(state, max_edges, max_label, pool)
        if state.depth >= bounds.max_depth:
            # depth cap: anything still reachable from here is unexplored
            if children:
                clipped = True
            continue
        for mv, child in children:
            if isinstance(mv, (Slide, Collapse)):
                rec, created = table.classify(_reduce(child, pool))
                if created:
                    second = rec
                    break
            key = child.graph.canonical_form()
            if key in visited:
                continue
            visited.add(key)
            queue.append(child)

    if second is not None:
        rigid = "no"
        witness = second.state.history
    elif clipped:
        rigid = "inconclusive"
        witness = None
    else:
        rigid = "yes"
        witness = None

    classes = []
    for rec in table.records:
        classes.append(
            ExploreClass(
                graph=rec.state.graph,
                fingerprint=table.fingerprint(rec),
                representative_moves=rec.state.history,
                count=rec.count,
            )
        )
    classes.sort(key=lambda c: (c.graph.canonical_form(), c.fingerprint))
    report = ExploreReport(tuple(classes), rigid, witness)
    _soundness_check(seed, report, bounds)
    return report


def _soundness_check(seed, report, bounds):
    """Replay each class representative with full marking verification and
    recompute its whole fingerprint from scratch."""
    for cls in report.classes:
        state = seed
        for mv in cls.representative_moves[len(seed.history):]:
            state = apply_move(state, mv, verify=True)
        if fingerprint(state, bounds.radius) != cls.fingerprint:
            raise BrokenMarkingError(
                "fingerprint replay mismatch after %s" % [str(m) for m in cls.representative_moves]
            )


# -- constructive non-rigidity witnesses --------------------------------------

def _candidate_states(state, E, F):
    """Deformation endpoints that should leave the seed's class, per the
    case analysis: plain slide, slide across the loop's other end, the
    expansion composite for a violating pair on one loop, and slides of
    third ends across a unit loop end."""
    g = state.graph
    out = []

    def attempt(fn):
        try:
            out.append(fn())
        except GbsError:
            pass

    if E.edge != F.edge:
        attempt(lambda: apply_move(state, Slide(E, F)))
        if g.is_loop(F.edge):
            attempt(lambda: apply_move(state, Slide(E, F.other)))
    else:
        lf = g.end_label(F)
        if lf >= 2:
            def composite():
                v = g.end_vertex(F)
                s1 = apply_move(state, Expansion(v, lf, ()))
                new = [e for e in s1.graph.edges if not g.has_edge(e.eid)][0]
                s2 = apply_move(s1, Slide(E, EdgeEnd(new.eid, "A")))
                s3 = apply_move(s2, Slide(F, EdgeEnd(new.eid, "A")))
                return apply_move(s3, Slide(EdgeEnd(new.eid, "B"), F))

            attempt(composite)
        else:
            for h in g.ends_at(g.end_vertex(F)):
                if h.edge != F.edge:
                    attempt(lambda h=h: apply_move(state, Slide(h, F)))
    return out


def witness_search(state: MarkedState, radius: int = 6):
    """A move sequence from a reduced non-ascending state to a reduced
    state in a different class, or None if no candidate verifies.

    Raises NoViolationError when the closed-form criterion says rigid.
    """
    verdict = nonascending_rigid(state.graph)
    if verdict.rigid:
        raise NoViolationError("state satisfies the rigidity criterion")
    table = _ClassTable(_sample_plan(state.seed.presentation.generators, radius))
    table.classify(state)
    for _, E, F, _tag in verdict.violations:
        for cand in _candidate_states(state, E, F):
            final = reduce_state(cand)
            if not is_reduced(final.graph):
                continue
            if table.classify(final)[1]:
                return list(final.history[len(state.history):])
    return None


# -- corpus ------------------------------------------------------------------

def enumerate_graphs(max_edges: int, max_label: int):
    """All valid graphs with at most max_edges edges and labels at most
    max_label, up to isomorphism, deterministically ordered."""
    seen = set()
    out = []

    def keep(g):
        key = g.canonical_form()
        if key not in seen:
            seen.add(key)
            out.append(g)

    keep(GbsGraph(["v0"], []))
    for m in range(1, max_edges + 1):
        for nv in range(1, m + 2):
            vertices = ["v%d" % i for i in range(nv)]
            pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
            for shape in combinations_with_replacement(pairs, m):
                for labels in product(range(1, max_label + 1), repeat=2 * m):
                    edges = [
                        Edge("e%d" % k, vertices[a], labels[2 * k], vertices[b], labels[2 * k + 1])
                        for k, (a, b) in enumerate(shape)
                    ]
                    try:
                        keep(GbsGraph(vertices, edges))
                    except GbsError:
                        continue
    out.sort(key=lambda g: (len(g.edges), g.canonical_form()))
    return out
