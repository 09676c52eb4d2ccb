"""Brute-force exploration of GBS deformation spaces.

This module is the empirical counterweight to the closed-form criteria
in `rigidity`: it walks the deformation space of a marked state by
breadth-first search over moves, groups the reduced states it meets
into classes, and reports whether more than one class of reduced tree
exists within the search bounds.

A class is keyed by (canonical quotient graph, representative lengths).
Translation length is invariant under conjugation and inversion and
linear on powers, so one primitive cyclic word per equivalence class of
the freely reduced seed words of length <= radius is measured; the
fingerprint spreads those lengths back over every word.  Unequal lengths
prove the marked trees differ (length functions are equivariant-iso
invariants); equal ones are only evidence of sameness, so a "yes"
verdict is relative to the bounds while a "no" verdict is final.

Sample words are strings: the letter (symbol s, sign e) is the
character chr(2s + (e > 0)), so strings compare as letter tuples do and
a letter's inverse flips its last bit (str.translate).  Each length's
words extend the last length's by every letter but the inverse of
their last, in one comprehension: words come by length, then
lexicographically with (s, +1) before (s, -1).  The primitive root of a
cyclic core is its least period, (core + core).find(core, 1), and the
necklace key is the least rotation of the root or its inverse.  The
representatives form one prefix trie over syllables, cached per number
of seed generators and radius (closed form on one generator).  _lengths
walks it in one fused loop: a reduced block per syllable, the stack pass
over a block's head only with the rest appended in bulk, and a pinch
count at each leaf, so no shared prefix is reduced twice.

explore decides by a search over reduced marked trees.  In a
non-ascending deformation space any two reduced trees are joined by
slides (Forester, "Deformation and rigidity of simplicial group actions
on trees", Geom. Topol. 2002; Guirardel & Levitt, "Deformation spaces
of trees", Groups Geom. Dyn. 2007).  _reduced_search takes the seed's
reduction and makes one move per divisible pair (E, F) of its graph
(rigidity.divisible_pairs), slides first: on two edges, the slide of E
across F; on one loop (p, q) with F's label p < q, the composite that
expands the vertex by p moving E, then slides the new edge's A end
across F, which turns the loop into an edge (p, q/p) to a new vertex
and the new edge into a loop (q/p, 1) there; on a loop with equal
labels, none.  It reduces each child, and stops at the first outside
the seed's class:
on another canonical graph, or with other lengths.  When every child
stays in the seed's class, a sequence of such moves never leaves it, so
the search over reduced states ends there.  It runs only under a
max_label of at least the square of the reduction's largest label, the
most a slide of it makes: a smaller cap can drop the one slide that
leaves the class.

A report's classes, counts and witness are those of explore's traversal:
a breadth-first walk over every state within the bounds, reduced or not,
visiting each canonical graph once.  A class's count is the number of
slide and collapse children whose reduced state falls in it, plus one
for the seed's in the base class.  _traverse walks it over graph
content, reading each move's kind and the new graph's content from
_legal_content, in one of two modes.  When the reduced search exhausts
its space with one class, all children fall in the base class, so the
walk only counts them into it and builds no move, marked state or
pooled graph.  Otherwise (the search left the class, or did not run) it
builds, reduces and classifies each such child until the first new
class, whose representative is the witness.  explore assumes only that
the traversal finds no second class where the reduced search exhausts
one; the tests check reports against a traversal classifying each
child.

Children are built as the walk reaches them, so a "no" verdict builds
nothing past its witness, and of the other children only those queued
under a new canonical graph.  A child and each state of its collapse
chain stay lazy, and a state's marking is read only when one of its
children is classified.  The chain of each concrete graph is kept in the
`explore` call's graph pool, and built from the pooled chain of the
graph that its first collapse makes, so each graph costs one collapse
per call.

The soundness replay rebuilds each class representative from the seed
through the public `apply_move` with verification on, and compares its
whole fingerprint with the report's.  Lengths are a pure function of the
exact marked state (concrete graph and images), so both searches and the
replay read one lengths cache keyed by it: each exact marked state is
measured, and each lengths tuple spread, once per `explore` call.

Ascending states degenerate (their length function is the absolute
value of a homomorphism, blind to induction moves), so lengths cannot
tell the classes of a one-loop (1, n) space apart.  When the seed
reduces to such a loop, explore counts its classes by an arithmetic
criterion over divisors of n instead of searching: the tree reached by
inducting along d equals the seed tree iff n^i = n^j * d has a
solution, that is iff d is a power of n, and two inductions d, d' agree
iff n^i * d = n^j * d'.  For divisors of n that closed form leaves
d = d' or {d, d'} = {1, n}.  Either route measures through the one
class table of the call, and explore builds one report from its
records and replays it once.

Search-budget caps (depth, an overall state budget) turn an unfinished
single-class search into "inconclusive"; the edge-count and label caps
define the searched subspace and do not.

witness_search returns explore's witness at the given radius, so it has
explore's refusal of more than 200,000 sample words and its replay.
"""

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import countOf, itemgetter

from .errors import BoundsTooTightError, BrokenMarkingError, GbsError, NoViolationError
from .graph import Edge, EdgeEnd, GbsGraph, _canonical_key, serialize
from .moves import (
    Collapse,
    Expansion,
    Induction,
    MarkedState,
    MoveBounds,
    Slide,
    _TrustedPool,
    _apply_move,
    _child,
    _collapse,
    _divisors,
    _fresh,
    _legal_content,
    _pooled,
    apply_move,
    initial_state,
)
from .rigidity import _ascending_n, check, collapse_witness, divisible_pairs
from .words import _pinch_table, free_reduce, invert_path_letters, reduce_letters


@dataclass(frozen=True)
class ExploreBounds:
    """Caps for explore.

    max_label caps every move's labels in the traversal, and the reduced
    search runs only when it is at least the square of the reduction's
    largest label; None means the square of the largest label of the seed
    or of its reduction, whichever is larger, since a collapse multiplies
    the other labels at its vertex.  radius sets the sample words that
    classify states in both.  The other caps bound the traversal only.
    max_depth counts moves from the seed, not the seed's own history.
    max_states is a plain budget of popped states, at least 1 (the seed):
    hitting it can only downgrade a would-be "yes" to "inconclusive",
    never flip a verdict.
    """

    max_extra_edges: int = 2
    max_label: int | None = None
    max_depth: int = 8
    radius: int = 4
    max_states: int = 5000


# explore refuses a radius whose sample words outnumber this: every word
# is enumerated, and the count grows by a factor 2n - 1 per step of radius
_MAX_SAMPLE_WORDS = 200_000


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

@lru_cache(maxsize=16)
def _sample_plan(nsymbols, radius):
    """Enumerate the freely reduced words of length 1..radius over symbol
    indices once: (trie, spreader).

    trie is (nodes, leaves), a prefix trie of the primitive necklace
    representatives over syllables (symbol index, exponent): nodes lists
    (parent, syllable), the empty root is node 0 and nodes[k] is node
    k + 1, so a parent always comes before its children; leaves[i] is the
    node that spells the i-th representative in order of discovery.
    spreader is (gather, powers) for _spread.
    """
    if nsymbols == 1:  # words x^k, x^-k: one representative x^-1, word i its (i//2 + 1)-th power
        return ((((0, (0, -1)),), (1,)),
                (itemgetter(*[0] * 2 * radius), tuple((i, i // 2 + 1) for i in range(2, 2 * radius))))
    letters = [chr(2 * s + e) for s in range(nsymbols) for e in (1, 0)]
    flip = {i: i ^ 1 for i in range(2 * nsymbols)}  # a str.translate table
    follow = {c: [d for d in letters if d != c.translate(flip)] for c in ["", *letters]}
    nodes, node = [], {(): 0}  # syllable prefix -> node
    index, leaves = {}, []  # necklace key -> position in leaves
    roots, powers = [], []  # per word in enumeration order
    level = [""]
    for _ in range(radius):
        level = [w + d for w in level for d in follow[w[-1:]]]
        for w in level:
            i = 0  # w = u core u^-1; a reduced word's core is never empty
            while ord(w[i]) ^ ord(w[~i]) == 1:
                i += 1
            core = w[i:len(w) - i]
            p = (core + core).find(core, 1)  # the least period divides len(core)
            root = core[:p]
            inverse = root[::-1].translate(flip)
            key = min(u[r:r + p] for u in (root + root, inverse + inverse) for r in range(p))
            if key not in index:
                index[key] = len(leaves)
                rep = free_reduce((ord(c) >> 1, ord(c) % 2 * 2 - 1) for c in key)
                for j in range(1, len(rep) + 1):
                    if rep[:j] not in node:
                        node[rep[:j]] = len(nodes) + 1
                        nodes.append((node[rep[:j - 1]], rep[j - 1]))
                leaves.append(node[rep])
            if p != len(core):
                powers.append((len(roots), len(core) // p))
            roots.append(index[key])
    # the 2n words of length 1 make roots at least two long, so itemgetter
    # returns a tuple
    return (tuple(nodes), tuple(leaves)), (itemgetter(*roots), tuple(powers))


def _lengths(state: MarkedState, trie):
    """Translation lengths of the trie's representatives, in leaf order.

    One fused loop restating words._extend and words._peel, with no call
    per node or leaf.  A syllable s^e has one reduced block: the image of
    s (images are reduced), its inverse or their reduced power.  A node
    runs the stack pass over its block's head only: once a traversal of
    the block is pushed unchanged the rest cannot pinch (words._append)
    and is appended as it is.  A node's edge-letter count is its parent's
    plus its block's less 2 per pinch, and a leaf's that less 2 per pinch
    peeled off the seam.
    """
    nodes, leaves = trie
    g = state.graph
    pinches = _pinch_table(g)
    images = tuple(state.images().values())  # in seed-generator order
    blocks, kind = {}, itemgetter(0)
    stacks, counts = [(("", None, 0),) * 2], [0]  # two stand-in letters: stack[-2] exists
    for parent, syllable in nodes:
        entry = blocks.get(syllable)
        if entry is None:
            s, e = syllable
            block = images[s] if e > 0 else invert_path_letters(images[s])
            if abs(e) > 1:
                block = reduce_letters(g, block * abs(e))
            entry = blocks[syllable] = block, countOf(map(kind, block), "e")
        block, stack, count = entry[0], stacks[parent], entry[1] + counts[parent]
        i = 0
        for letter in block:
            top = stack[-1]
            if letter[0] == "e":  # a pinch leaves a power, merged below as a block's is
                k = -1 if top[0] == "e" else -2  # the opener, before any power
                pinch, power = pinches.get(stack[k]), (top[2] if k == -2 else 0)
                if pinch is None or pinch[0] != letter or power % pinch[1]:
                    stack += block[i:]
                    break
                stack, count = stack[:k], count - 2
                letter, top = ("v", pinch[2], pinch[3] * (power // pinch[1])), stack[-1]
            if top[0] == "v" and top[1] == letter[1]:
                stack, letter = stack[:-1], ("v", letter[1], top[2] + letter[2])
            if letter[2]:
                stack += (letter,)
            i += 1
        stacks.append(stack)
        counts.append(count)
    out = []
    for leaf in leaves:  # _peel's loop over the seam, counting pinches only
        w, count = stacks[leaf], counts[leaf]
        i, j, power = 2, len(w), 0
        while True:
            if i < j and w[j - 1][0] == "v":
                power, j = power + w[j - 1][2], j - 1
            if i < j and w[i][0] == "v":
                power, i = power + w[i][2], i + 1
            pinch = pinches[w[j - 1]] if j - i >= 2 else None
            if pinch is None or pinch[0] != w[i] or power % pinch[1]:
                break
            power, i, j, count = pinch[3] * (power // pinch[1]), i + 1, j - 1, count - 2
        out.append(count)
    return tuple(out)


def _spread(spreader, lengths):
    """Fingerprint from the representatives' lengths.

    spreader is (gather, powers) from _sample_plan: one itemgetter call
    reads every word's primitive-root length, and only the words in
    powers, (position, power) pairs with a power other than 1, are then
    multiplied.
    """
    gather, powers = spreader
    out = list(gather(lengths))
    for i, k in powers:
        out[i] *= k
    return tuple(out)


def fingerprint(state: MarkedState, radius: int):
    """Lengths of all freely reduced seed words of length <= radius.

    Evaluated through the state's marking; only primitive necklace
    representatives are measured, the rest follow from invariance.
    """
    trie, spreader = _sample_plan(len(state.seed.presentation.generators), radius)
    return _spread(spreader, _lengths(state, trie))


# -- class bookkeeping -------------------------------------------------------

class _ClassRecord:
    __slots__ = ("state", "count", "lengths")

    def __init__(self, state, lengths, count=0):
        self.state = state
        self.count = count
        self.lengths = lengths


def _exact(state):
    """The key of a marked state: the concrete labelled graph, not its
    isomorphism class, since path letters only mean anything over
    concrete names, and the images in seed-generator order."""
    return (state.graph.vertices, state.graph.edges, tuple(state.images().values()))


class _ClassTable:
    """Reduced states grouped by (canonical graph, representative lengths),
    over one cache of lengths keyed by exact state and one of fingerprints
    keyed by lengths: one table per explore call."""

    def __init__(self, plan):
        self.trie, self.spreader = plan
        self.classes = {}  # (canonical form, lengths) -> record, in creation order
        self.measured = {}  # exact key -> lengths
        self.spreads = {}  # lengths -> fingerprint

    def classify(self, state):
        """Return (record, created): state's class record, its count
        raised by one, and whether state opened it."""
        lengths = self.lengths(state)
        key = (state.graph.canonical_form(), lengths)
        rec = self.classes.get(key)
        if created := rec is None:
            rec = self.classes[key] = _ClassRecord(state, lengths)
        rec.count += 1
        return rec, created

    def spread(self, lengths):
        """_spread(spreader, lengths), once per distinct lengths tuple."""
        fp = self.spreads.get(lengths)
        if fp is None:
            fp = self.spreads[lengths] = _spread(self.spreader, lengths)
        return fp

    def lengths(self, state):
        """_lengths(state, trie), measured once per exact state; counts
        nothing."""
        exact = _exact(state)
        lengths = self.measured.get(exact)
        if lengths is None:
            lengths = self.measured[exact] = _lengths(state, self.trie)
        return lengths


# -- reduction and search ----------------------------------------------------

def reduce_state(state: MarkedState) -> MarkedState:
    """Collapse (first legal edge, in edge order) until reduced."""
    return _reduce(state, {})


def _chain(g, pool):
    """The collapses reduce_state makes from the graph g, each with its
    pooled graph.  Kept under the graph object, which the pool makes one
    per content, and built from the chain of the graph that g's first
    collapse makes, so each graph costs one collapse per pool."""
    chain = pool.get(g)
    if chain is None:
        end = collapse_witness(g)
        if end is None:
            chain = ()
        else:
            mv = Collapse(end.edge)
            h = _pooled(pool, *_collapse(g, mv))
            chain = ((mv, h),) + _chain(h, pool)
        pool[g] = chain
    return chain


def _reduce(state, pool):
    """reduce_state with every graph of the chain taken from pool: one
    lazy state per collapse below state."""
    for mv, g in _chain(state.graph, pool):
        state = MarkedState(g, state.history + (mv,), state.seed, parent=state)
    return state


def ascending_equivalent(n: int, d: int) -> bool:
    """Does inducting along d return the same tree?  True iff n^i = n^j * d
    for some i, j >= 0, that is iff d is a power of n."""
    if n < 2 or d < 1:
        return d == 1
    while d % n == 0:
        d //= n
    return d == 1


def _ascending_classes(base, n, table):
    """The records of the ascending (1, n) loop's classes, the seed's
    first, then one for each divisor of n that gives another tree.
    Lengths cannot tell these trees apart, so each record is made from
    table's lengths rather than classified, and kept out of its classes."""
    divisors = _divisors(n)
    others = [d for d in divisors if not ascending_equivalent(n, d)]
    records = [_ClassRecord(base, table.lengths(base), len(divisors) - len(others))]
    for d in others:
        state = apply_move(base, Induction(d), verify=False)
        records.append(_ClassRecord(state, table.lengths(state), 1))
    return records


def _children(state, bounds, pool):
    """(move, child) for every legal move within bounds, in enumeration
    order; each child is built only when it is read."""
    for kind, fields, surgery in _legal_content(state.graph, bounds):
        mv = kind(*fields)
        yield mv, _child(state, mv, surgery, pool)


def _legal_children(state, max_edges, max_label, pool):
    """Children within the searched subspace, in enumeration order, all
    built at once."""
    return list(_children(state, MoveBounds(max_edges=max_edges, max_label=max_label), pool))


def explore(seed, bounds: ExploreBounds = ExploreBounds()) -> ExploreReport:
    """Decide whether the deformation space of a marked state holds more
    than one reduced class within bounds.

    The search over reduced trees picks the mode of the traversal
    (_traverse), which counts each class's members and finds the witness
    (see the module docstring).
    Verdicts: "no" (two reduced classes found; witness attached),
    "yes" (the bounded space was exhausted with a single class), or
    "inconclusive" (depth or state budget ran out first).
    """
    if isinstance(seed, GbsGraph):
        seed = initial_state(seed)
    g0 = seed.graph
    # graph content -> GbsGraph, and GbsGraph -> its collapse chain,
    # shared by every state this call builds, so that each concrete graph
    # is built, canonicalised and reduced once; every graph in it comes
    # from a move on a valid graph, so none is validated again
    pool = _TrustedPool()
    base = _reduce(seed, pool)
    # a collapse multiplies the other labels at its vertex, so the reduced
    # seed can carry a larger label than the seed
    max_label = bounds.max_label
    if max_label is None:
        max_label = max(g0.max_label(), base.graph.max_label()) ** 2
    if g0.max_label() > max_label:
        raise BoundsTooTightError(
            "seed label %d exceeds max_label %d" % (g0.max_label(), max_label)
        )
    if bounds.max_depth < 0 or bounds.max_extra_edges < 0 or bounds.radius < 1 or bounds.max_states < 1:
        raise BoundsTooTightError("max_depth and max_extra_edges must be >= 0, and radius and max_states >= 1")
    # 2n (2n - 1)^(k - 1) reduced words of length k over n generators,
    # counted only until they pass the cap, so any radius is refused at once
    n, words, k = len(seed.seed.presentation.generators), 0, 0
    while k < bounds.radius and words <= _MAX_SAMPLE_WORDS:
        k += 1
        words += 2 * n * (2 * n - 1) ** (k - 1)
    if words > _MAX_SAMPLE_WORDS:
        raise BoundsTooTightError(
            "radius %d samples %s%s words over %d seed generators, more than %s; "
            "use radius %d or less"
            % (bounds.radius, "" if k == bounds.radius else "at least ", format(words, ","),
               n, format(_MAX_SAMPLE_WORDS, ","), k - 1)
        )
    table = _ClassTable(_sample_plan(n, bounds.radius))
    modulus = _ascending_n(base.graph)
    if modulus is None:
        inner = MoveBounds(max_edges=len(g0.edges) + bounds.max_extra_edges, max_label=max_label)
        base_rec, _ = table.classify(base)
        # the search runs only under a cap of at least the square of base's
        # largest label, as a smaller one can drop the slide that leaves
        # its class; with one reduced class the traversal only counts into
        # the base one, else it classifies
        one_class = max_label >= base.graph.max_label() ** 2 and _reduced_search(base, table, pool) is None
        clipped = _traverse(seed, bounds, inner, pool, table, base_rec if one_class else None)
        records = list(table.classes.values())
    else:
        clipped, records = False, _ascending_classes(base, modulus, table)

    # records come in creation order, so a second class is the witness's
    witness = records[1].state.history if len(records) > 1 else None
    rigid = "no" if witness is not None else "inconclusive" if clipped else "yes"
    classes = [ExploreClass(rec.state.graph, table.spread(rec.lengths), rec.state.history, rec.count)
               for rec in records]
    # ascending classes share their graph and fingerprint, so the stable
    # sort keeps the seed's first
    classes.sort(key=lambda c: (c.graph.canonical_form(), c.fingerprint))
    report = ExploreReport(tuple(classes), rigid, witness)
    _soundness_check(seed, report, table)
    return report


def _traverse(seed, bounds, inner, pool, table, counted):
    """explore's breadth-first traversal of seed's space within inner,
    over graph content: whether a cap cut it short.  Each move's kind and
    content come from _legal_content, each content is keyed once (one met
    again has its canonical key in visited already), and a queue entry is
    (graph, depth, state).  keyed, the set of contents met, starts with
    the seed's own, which the collapse undoing an expansion of the seed
    gives back; a content is tested and added with one hash.

    With counted, a class record, each slide and collapse child adds 1 to
    a tally that is added to it when the walk ends, and a content with a
    new key is queued as a graph of its own, outside the pool, with no
    state: nothing reads it after the walk.  With counted None, each
    slide and collapse child is built, reduced and classified into table,
    and the walk stops at the first that opens a class; the only other
    child built is a queued one, into the pool."""
    keyed = {(seed.graph.vertices, seed.graph.edges)}
    visited = {seed.graph.canonical_key()}
    queue = deque([(seed.graph, 0, seed)])
    clipped, popped, count = False, 0, 0
    while queue:
        g, depth, state = queue.popleft()
        popped += 1
        if popped > bounds.max_states:
            clipped = True
            break
        moves = _legal_content(g, inner)
        if depth >= bounds.max_depth:
            # depth cap: anything still reachable from here is unexplored
            clipped |= next(moves, None) is not None
            continue
        for kind, fields, content in moves:
            child = None
            if kind is Slide or kind is Collapse:
                if counted is not None:
                    count += 1
                else:
                    state.images()  # built for the first child classified, not per child
                    child = _child(state, kind(*fields), content, pool)
                    if table.classify(_reduce(child, pool))[1]:
                        return clipped
            met = len(keyed)
            keyed.add(content)
            if len(keyed) == met:
                continue
            key = _canonical_key(*content)
            if key not in visited:
                visited.add(key)
                if counted is not None:
                    queue.append((GbsGraph(*content, True), depth + 1, None))
                else:
                    child = child or _child(state, kind(*fields), content, pool)
                    queue.append((child.graph, depth + 1, child))
    if counted is not None:
        counted.count += count
    return clipped


def _reduced_search(base, table, pool):
    """The search over the reduced states of base's space, base being
    reduced (see the module docstring): the first reduced child on
    another canonical graph or with other lengths, or None when every
    reduced child stays in base's class.  It classifies nothing: table
    only measures base and each child on base's graph.  Its children
    come one move per divisible pair of base's graph, slides first, and
    uncapped.

    A breadth-first search from base that marks states visited by their
    canonical graph pops base alone: a reduced child on another graph
    opens a class, as the graph is half of a class key, and one on base's
    graph is visited.  So base's children decide."""
    g = base.graph
    form, lengths = g.canonical_form(), table.lengths(base)
    d = _fresh("d", g._by_id)  # the edge each composite's expansion adds
    for v, e, f in sorted(divisible_pairs(g), key=lambda pair: pair[1].edge == pair[2].edge):
        p = g.end_label(f)
        if e.edge != f.edge:
            child = _apply_move(base, Slide(e, f), pool)
        elif p < g.end_label(e):
            expanded = _apply_move(base, Expansion(v, p, (e,)), pool)
            child = _apply_move(expanded, Slide(EdgeEnd(d, "A"), f), pool)
        else:
            continue
        child = _reduce(child, pool)
        # another graph is another class, known without the marking
        if child.graph.canonical_form() != form or table.lengths(child) != lengths:
            return child
    return None


def _soundness_check(seed, report, table):
    """Replay each class representative with full marking verification and
    compare its whole fingerprint with the report's.

    The replay rebuilds every graph and image from the seed, and reads
    the lengths of a replayed state from table when a search already
    measured that exact (graph, images) pair, and their fingerprint when
    the report spread them.  Both are pure functions of that pair and the
    trie, so the comparison comes out as a fresh measurement would, and a
    replay that reaches another marking misses and is measured afresh.
    """
    for cls in report.classes:
        state = seed
        for mv in cls.representative_moves[len(seed.history):]:
            state = apply_move(state, mv, verify=True)
        if table.spread(table.lengths(state)) != cls.fingerprint:
            raise BrokenMarkingError(
                "fingerprint replay mismatch after %s" % [str(m) for m in cls.representative_moves]
            )


# -- constructive non-rigidity witnesses --------------------------------------

def witness_search(state: MarkedState, radius: int = ExploreBounds.radius):
    """explore's witness from state, less state's own history: the moves
    to a reduced state in a second class, or None if explore finds none.

    Takes any graph check calls not rigid, reduced or not, ascending or
    not; raises NoViolationError when check says rigid.
    """
    if check(state.graph).rigid:
        raise NoViolationError("state satisfies the rigidity criterion")
    witness = explore(state, ExploreBounds(radius=radius)).witness
    return None if witness is None else list(witness[len(state.history):])


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
