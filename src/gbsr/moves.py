"""Deformation moves on marked GBS states.

A marked state is a graph together with a marking: for every generator
of the seed presentation, the reduced based path word of its image in
the current graph, so that the group never changes while the graph does.

Each move is one function that checks the move's legality and does the
graph surgery, returning the new graph's content alone.  The letter map
sending path letters of the old graph to path letters of the new one is
made from the old graph and the move, by the move type's own function,
only when a read needs it: two tables that list only the letters the
move changes, traversal letters and vertices it renames or scales, and
the vertex where mapped paths start, whose tree path re-bases them along
the new spanning tree.  A child keeps its parent, and its move is the
last of its history.  Its images are built when first read: the read
walks up to the nearest ancestor whose images are built, makes the
letter map of every step in between, maps those images unreduced
through them with one dict lookup per letter and Britton-reduces once
per generator, and the states in between stay lazy.  A child that
nothing reads pays for no letter map.  Generator words are projected
from the images only for output.
Enumeration lists legal moves directly, one at a time, each as its move
type, its arguments and the surgery its move function runs once the
move is checked, so a caller that stops early pays for nothing past the
last move it read, and one that reads only move types and graph content
builds no move object.  The move functions judge the moves that users supply.
A test ties the two together: over thousands of graphs and bounds, the
enumeration yields the same moves and surgeries, in order, as the
reference in tests/oracle.py, which proposes every candidate and keeps
those that its move function accepts and whose result stays within the
label cap.

The moves and their exact label arithmetic:

* collapse of a non-loop edge whose far end is labelled 1 merges that
  endpoint into the near vertex; every other label at the merged vertex
  is multiplied by the near label p (the merged generator equals x_v^p);
* expansion is the inverse: a fresh edge v(p)-(1)u is added and chosen
  ends at v whose labels p divides move to u with labels divided by p;
* a slide moves an end of one edge across a coincident end of another
  edge whose label divides it; the moved end reattaches at the far
  endpoint with label (moving/across) times the far label;
* induction rewrites a one-loop (1, n) state through a divisor d of n,
  leaving the graph alone but mapping x^m -> t^-1 x^(m n/d) t (the new
  vertex generator is the old x^d).

The marking's own consistency checks (seed relators die, seed vertex
generators stay elliptic, the modular homomorphism keeps its values on
the seed's cycle basis) read the images themselves and are re-run after
every verified move, so a wrong letter table cannot slip through silently.

The GbsGraph of a move's result comes from a graph pool, a dict keyed
on the graph content, and builds its Presentation only when something
reads it; a step that keeps the base vertex re-bases nothing and reads none.
Every move function returns that content as tuples in the order a
GbsGraph holds it, vertices by name and edges by id, so the pool keys on
it as it comes and nothing is sorted or copied again.
`apply_move` hands every call a fresh pool, so each public move builds
and validates its graph afresh.  The explorer keeps one pool per
`explore` call, so states of that search with the same concrete graph
share one graph object, its presentation and canonical form; a graph a
move made there is valid by construction and is not validated again.
"""

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, inf

from .errors import (
    BrokenMarkingError,
    DifferentOriginError,
    NotAscendingError,
    NotCollapsibleError,
    NotDivisibleError,
    NotDivisorError,
    SameEdgeError,
    UnknownVertexError,
    WrongOriginError,
)
from .graph import Edge, EdgeEnd, GbsGraph
from .rigidity import _ascending_n, _is_prime
from .words import (
    PathWord,
    Presentation,
    _presentation,
    _read,
    _read_length,
    _seam_length,
    invert_path_letters,
    modulus,
    path_to_generators,
    reduce_letters,
)


@dataclass(frozen=True)
class Collapse:
    edge: str

    def __str__(self):
        return "collapse %s" % self.edge


@dataclass(frozen=True)
class Expansion:
    vertex: str
    p: int
    moved: tuple  # of EdgeEnd

    def __str__(self):
        return " ".join(["expand", self.vertex, str(self.p)] + [str(e) for e in self.moved])


@dataclass(frozen=True)
class Slide:
    moving: EdgeEnd
    across: EdgeEnd

    def __str__(self):
        return "slide %s across %s" % (self.moving, self.across)


@dataclass(frozen=True)
class Induction:
    d: int

    def __str__(self):
        return "induct %d" % self.d


class MarkedState:
    """A graph plus a marking of the seed group in its fundamental group."""

    __slots__ = ("graph", "history", "seed", "_images", "_parent")

    def __init__(self, graph, history, seed, images=None, parent=None):
        self.graph = graph
        self.history = history
        self.seed = seed
        self._images = images
        # the state that history[-1] was applied to, kept until images()
        # has read through it
        self._parent = parent

    @property
    def presentation(self):
        """The Presentation of graph, built when first read."""
        return _presentation(self.graph)

    def images(self):
        """Seed generator -> reduced based path letters of its image (lazy).

        The first read walks up to the nearest ancestor whose images are
        read already, making the letter map of each step below it from
        the step's move and its parent's graph.  Each step maps the
        unreduced letters through its tables, one dict lookup per letter,
        and wraps them in its prefix, and one Britton reduction per
        generator ends the walk, so the states in between stay lazy.
        """
        if self._images is None:
            steps = []
            state = self
            while state._images is None:
                move = state.history[-1]
                (edges, vertices), base = _LETTERS[type(move)](state._parent.graph, move)
                g = state.graph
                pre = () if base == g.vertices[0] else _presentation(g).path_to[base]
                steps.append((edges, vertices, pre, invert_path_letters(pre) if pre else ()))
                state = state._parent
            steps.reverse()
            images = {}
            for sym, letters in state._images.items():
                for edges, vertices, pre, post in steps:
                    out = list(pre)
                    for letter in letters:
                        if letter[0] == "e":
                            hit = edges.get(letter)
                            if hit is None:
                                out.append(letter)
                            else:
                                out += hit
                        else:
                            hit = vertices.get(letter[1])
                            if hit is None:
                                out.append(letter)
                            else:
                                before, name, k, after = hit
                                out += before
                                out.append(("v", name, letter[2] * k))
                                out += after
                    out += post
                    letters = out
                images[sym] = reduce_letters(self.graph, letters)
            self._images = images
            self._parent = None
        return self._images

    @property
    def marking(self):
        """Seed generator -> word in the current presentation, projected
        from images() on each read."""
        p = self.presentation
        return {sym: path_to_generators(p, PathWord(p.base, letters))
                for sym, letters in self.images().items()}

    @property
    def depth(self):
        return len(self.history)

    def seed_length(self, word):
        """Translation length of a seed-generator word in the current tree."""
        return _read_length(self.graph, self.images(), word)

    def verify(self):
        """Re-check the marking invariants on images(); raises BrokenMarkingError."""
        g, images = self.graph, self.images()
        for rel in self.seed.relators:
            if _read(g, images, rel):
                raise BrokenMarkingError(
                    "seed relator %r no longer dies after %s"
                    % (rel, [str(m) for m in self.history])
                )
        for sym in self.seed.vertex_symbols:
            if _seam_length(g, images[sym]):
                raise BrokenMarkingError("seed generator %s became hyperbolic" % sym)
        p = self.presentation
        for sym, value in self.seed.modulus:
            if modulus(p, PathWord(p.base, images[sym])) != value:
                raise BrokenMarkingError("modular homomorphism drifted on %s" % sym)
        return self


@dataclass(frozen=True)
class _Seed:
    presentation: Presentation
    relators: tuple
    vertex_symbols: tuple
    modulus: tuple  # ((symbol, Fraction), ...) over the seed's stable letters


def initial_state(graph: GbsGraph) -> MarkedState:
    p = _presentation(graph)
    images = {sym: reduce_letters(graph, p.lifts[sym]) for sym in p.generators}
    stable = tuple(s for s in p.generators if s.startswith("t_"))
    seed = _Seed(
        presentation=p,
        relators=p.relators(),
        vertex_symbols=tuple(s for s in p.generators if s.startswith("x_")),
        modulus=tuple((s, modulus(p, PathWord(p.base, images[s]))) for s in stable),
    )
    return MarkedState(graph, (), seed, images=images)


# -- one function per move ---------------------------------------------------
#
# Each takes (g, move), raises the move's named domain errors, and returns
# what its surgery body (_collapsed, _expanded, _slid), which
# _legal_content also calls, returns: (vertices, edges), the new graph's
# content as sorted tuples, the vertices by name and the edges by id, as
# a GbsGraph holds them: a collapse and a slide keep g's order, and an
# expansion inserts its new vertex and edge in place, so _pooled never
# sorts.
#
# Each move type's letter map, in _LETTERS, takes (g, move) for a move
# already checked on g and returns ((edge table, vertex table), base):
# the letter map as two tables, and the new vertex at which mapped paths
# based at g's base start.  MarkedState.images makes it only for the steps
# it reads through.  The edge table sends each traversal letter of g that
# the move changes to its replacement tuple; the vertex table sends each
# vertex that the move renames or scales to (before, name, factor,
# after), so ("v", vertex, m) becomes before + (("v", name, m * factor),)
# + after.  Every other letter maps to itself.

def _collapse(g: GbsGraph, move):
    eid = move.edge
    e = g.edge(eid)
    if e.is_loop:
        raise NotCollapsibleError("cannot collapse the loop %s" % eid)
    if e.lb == 1:
        return _collapsed(g, eid, e.va, e.vb, e.la)
    if e.la == 1:
        return _collapsed(g, eid, e.vb, e.va, e.lb)
    raise NotCollapsibleError("edge %s has no end labelled 1" % eid)


def _collapsed(g: GbsGraph, eid, keep, drop, p):
    """The surgery of collapsing the non-loop edge eid, whose end at drop
    is labelled 1 and whose end at keep is labelled p."""
    edges = []
    for f in g.edges:
        fid, va, la, vb, lb = f
        if va == drop or vb == drop:
            if fid == eid:
                continue
            if va == drop:
                va, la = keep, la * p
            if vb == drop:
                vb, lb = keep, lb * p
            f = Edge(fid, va, la, vb, lb)
        edges.append(f)
    return tuple([v for v in g.vertices if v != drop]), tuple(edges)


def _collapse_letters(g: GbsGraph, move):
    e = g.edge(move.edge)
    keep, drop, p = (e.va, e.vb, e.la) if e.lb == 1 else (e.vb, e.va, e.lb)
    # the merged generator x_drop is x_keep^p
    tables = {("e", e.eid, 1): (), ("e", e.eid, -1): ()}, {drop: ((), keep, p, ())}
    base = g.vertices[0]
    return tables, keep if base == drop else base


def _fresh(prefix, taken):
    i = 0
    while "%s%d" % (prefix, i) in taken:
        i += 1
    return "%s%d" % (prefix, i)


def _expand(g: GbsGraph, move):
    vertex, p = move.vertex, move.p
    if vertex not in g.vertices:
        raise UnknownVertexError("no vertex named %r" % vertex)
    if p < 1:
        raise NotDivisibleError("expansion index must be >= 1")
    moved = sorted(set(move.moved))
    for end in moved:
        if g.end_vertex(end) != vertex:
            raise WrongOriginError("end %s is not at %s" % (end, vertex))
        if g.end_label(end) % p:
            raise NotDivisibleError("label %d at %s not divisible by %d" % (g.end_label(end), end, p))
    return _expanded(g, vertex, p, moved, _fresh("u", g.vertices), _fresh("d", g._by_id))


def _expanded(g: GbsGraph, vertex, p, moved, u, d):
    """The surgery of expanding vertex by index p, given distinct ends
    moved at vertex whose labels p divides, the fresh vertex u and the
    fresh edge d."""
    sides = {}  # edge id -> the sides of it that move
    for f, side in moved:
        sides[f] = sides.get(f, "") + side
    edges = []
    for f in g.edges:
        s = sides.get(f.eid)
        if s is not None:
            a, b = "A" in s, "B" in s
            f = Edge(f.eid, u if a else f.va, f.la // p if a else f.la,
                     u if b else f.vb, f.lb // p if b else f.lb)
        edges.append(f)
    insort(edges, Edge(d, vertex, p, u, 1))
    vertices = list(g.vertices)
    insort(vertices, u)
    return tuple(vertices), tuple(edges)


def _expansion_letters(g: GbsGraph, move):
    d = _fresh("d", g._by_id)
    # a traversal leaving a moved end first crosses d from v to u, and
    # one arriving at a moved end crosses d back; the ends are _expand's,
    # each once
    table = {}
    for f, side in sorted(set(move.moved)):
        leave = ("e", f, 1 if side == "A" else -1)
        arrive = ("e", f, -leave[2])
        table[leave] = (("e", d, 1),) + table.get(leave, (leave,))
        table[arrive] = table.get(arrive, (arrive,)) + (("e", d, -1),)
    return (table, {}), g.vertices[0]


def _slide(g: GbsGraph, move):
    moving, across = move.moving, move.across
    if moving.edge == across.edge:
        raise SameEdgeError("cannot slide %s across its own edge" % (moving,))
    m, a = g.edge(moving.edge), g.edge(across.edge)
    v, le = (m.va, m.la) if moving.side == "A" else (m.vb, m.lb)
    # across runs from its end at u, labelled lf, to w at its far end, labelled lw
    u, lf, w, lw = (a.va, a.la, a.vb, a.lb) if across.side == "A" else (a.vb, a.lb, a.va, a.la)
    if u != v:
        raise DifferentOriginError("%s and %s do not share a vertex" % (moving, across))
    if le % lf:
        raise NotDivisibleError("label %d does not divide %d" % (lf, le))
    return _slid(g, moving, m, w, le // lf * lw)


def _slid(g: GbsGraph, moving, m, w, label):
    """The surgery of sliding the end moving of the edge m across an end
    of another edge, which puts it at w, that edge's far end, with the
    given label."""
    moved = Edge(m.eid, w, label, m.vb, m.lb) if moving.side == "A" else Edge(m.eid, m.va, m.la, w, label)
    return g.vertices, tuple([moved if f is m else f for f in g.edges])


def _slide_letters(g: GbsGraph, move):
    moving, across = move.moving, move.across
    sign = 1 if across.side == "A" else -1  # across traversed origin -> far
    leave = ("e", moving.edge, 1 if moving.side == "A" else -1)  # leaves the moved end
    arrive = ("e", moving.edge, -leave[2])
    table = {leave: (("e", across.edge, sign), leave), arrive: (arrive, ("e", across.edge, -sign))}
    return (table, {}), g.vertices[0]


def _induct(g: GbsGraph, move):
    n = _ascending_n(g)
    if n is None:
        raise NotAscendingError("induction needs a one-vertex (1, n) loop")
    if move.d < 1 or n % move.d:
        raise NotDivisorError("%d does not divide %d" % (move.d, n))
    return g.vertices, g.edges  # an induction keeps the graph


def _induction_letters(g: GbsGraph, move):
    e = g.edges[0]  # the ascending loop (1, n)
    sign = 1 if e.la == 1 else -1  # ("e", eid, sign) leaves the unit end: t^-1
    v = g.vertices[0]  # x^m -> t^-1 x^(m n/d) t
    return ({}, {v: ((("e", e.eid, sign),), v, e.la * e.lb // move.d, (("e", e.eid, -sign),))}), v


_MOVES = {Collapse: _collapse, Expansion: _expand, Slide: _slide, Induction: _induct}
_LETTERS = {Collapse: _collapse_letters, Expansion: _expansion_letters, Slide: _slide_letters,
            Induction: _induction_letters}


class _TrustedPool(dict):
    """A graph pool that only ever receives graph content a move function
    returned on a valid graph, so _pooled builds its graphs without
    validating them (GbsGraph's trusted path); explore makes one per call.

    A collapse merges the two endpoints of a non-loop edge and multiplies
    labels, an expansion adds a fresh vertex joined by a fresh edge and
    divides only labels it checked, and a slide reattaches one end at a
    neighbour of its vertex: connectivity, positive labels and unique
    names all carry over.  An induction leaves the graph as it is.
    """

    __slots__ = ()


def _pooled(pool, vertices, edges):
    """The GbsGraph for this graph content, which a move function returns
    as sorted tuples: built on the first request, validated unless pool
    is a _TrustedPool, then shared by every later one.  Its Presentation
    is built only when something reads it."""
    key = vertices, edges
    graph = pool.get(key)
    if graph is None:
        graph = pool[key] = GbsGraph(*key, type(pool) is _TrustedPool)
    return graph


def _apply_move(state: MarkedState, move, pool: dict) -> MarkedState:
    """apply_move, unverified, with the new graph taken from pool (see _pooled)."""
    act = _MOVES.get(type(move))
    if act is None:
        raise TypeError("unknown move %r" % (move,))
    return _child(state, move, act(state.graph, move), pool)


def _child(state: MarkedState, move, surgery, pool: dict) -> MarkedState:
    """The state that move leads to, given the graph content its move
    function returned on state.graph."""
    return MarkedState(_pooled(pool, *surgery), state.history + (move,), state.seed, parent=state)


def apply_move(state: MarkedState, move, verify: bool = True) -> MarkedState:
    """Apply one deformation move, returning the new marked state.

    The new graph and its presentation are always built afresh here.
    The images of state are read first, so a chain of moves applied
    here never leaves more than one step unreduced.
    """
    state.images()
    out = _apply_move(state, move, {})
    return out.verify() if verify else out


def collapse(state: MarkedState, edge: str) -> MarkedState:
    return apply_move(state, Collapse(edge))


def expand(state: MarkedState, vertex: str, p: int, moved=()) -> MarkedState:
    return apply_move(state, Expansion(vertex, p, tuple(sorted(set(moved)))))


def slide(state: MarkedState, moving: EdgeEnd, across: EdgeEnd) -> MarkedState:
    return apply_move(state, Slide(moving, across))


def induct(state: MarkedState, d: int) -> MarkedState:
    return apply_move(state, Induction(d))


# -- move enumeration --------------------------------------------------------

@dataclass(frozen=True)
class MoveBounds:
    """Caps for enumerate_moves: edge count, labels, expansion index.

    max_label caps the labels of each move's result, not of its source.
    """

    max_edges: int | None = None
    max_label: int | None = None
    max_expansion: int | None = None


def _rho(n: int) -> int:
    """A proper factor of the composite n, which has no prime factor below
    100 (Pollard-Brent rho; the constants are fixed, so the result is
    deterministic)."""
    c = 0
    while True:
        c += 1
        x = y = ys = 2
        f, r, q = 1, 1, 1
        while f == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and f == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                f = gcd(q, n)
                k += 128
            r *= 2
        if f == n:  # the batch overshot: retrace it one step at a time
            f = 1
            while f == 1:
                ys = (ys * ys + c) % n
                f = gcd(abs(x - ys), n)
        if f != n:
            return f


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1: Newton's method from a power of two
    above the root, exact on integers of any size."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _divisors(n: int):
    """The divisors of n >= 1 in ascending order, multiplied out from its
    prime factors: trial division below 100, then every composite
    cofactor is split, as r^k when it is an exact power and otherwise
    by _rho, until each part is prime.

    The power test makes p^k quick for any prime p; a product of two
    distinct large primes p < q still costs _rho about sqrt(p) steps.
    """
    exps, p = {}, 2
    while p < 100 and p * p <= n:
        while n % p == 0:
            n //= p
            exps[p] = exps.get(p, 0) + 1
        p += 1
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if _is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        for k in range(2, m.bit_length()):
            r = _iroot(m, k)
            if r**k == m:
                todo += [r] * k
                break
        else:
            f = _rho(m)
            todo += [f, m // f]
    out = [1]
    for p, k in exps.items():
        out = [d * p**i for i in range(k + 1) for d in out]
    return sorted(out)


@lru_cache(maxsize=1024)
def _indices(label: int) -> tuple:
    """The divisors >= 2 of label: the expansion indices it allows."""
    return tuple(_divisors(label)[1:])


@lru_cache(maxsize=1024)
def _ends(eid: str) -> tuple:
    """The A and B ends of edge eid, made once per edge id."""
    return EdgeEnd(eid, "A"), EdgeEnd(eid, "B")


def _legal_content(g: GbsGraph, bounds: MoveBounds):
    """(kind, fields, surgery) for every legal move within bounds, in
    enumerate_moves order, one at a time, so a caller that stops early
    builds nothing past the last move it read: kind is the move's class,
    kind(*fields) the move, and surgery the new graph's content.

    The moves are built legal: collapses of non-loop edges with an end
    labelled 1, slides of an end across an end of another edge at its
    vertex whose label divides its own, expansions by divisors of the
    labels at their vertex, and inductions by divisors of n on the (1, n)
    loop.  Each surgery is the body that its move function runs once the
    move is checked.  When g is within max_label only the labels a move
    changes are read against it (an expansion or an induction raises
    none); otherwise every label of each result is.  oracle.legal in
    the tests is the reference that proposes every candidate and tries
    its move function.

    One pass over the edges builds the table of ends at each vertex and
    each vertex's largest label, which answer both the scan and the
    collapse cap; the ends themselves come interned from _ends.
    """
    cap = bounds.max_label
    # per vertex, (end, label, edge) for the ends there, in ends_at order
    # (the edges come in id order), and the largest label there
    at, top = {v: [] for v in g.vertices}, dict.fromkeys(g.vertices, 1)
    for e in g.edges:
        eid, va, la, vb, lb = e
        a, b = _ends(eid)
        at[va].append((a, la, e))
        at[vb].append((b, lb, e))
        if la > top[va]:
            top[va] = la
        if lb > top[vb]:
            top[vb] = lb
    scan = cap is not None and max(top.values()) > cap
    if cap is None:
        cap = inf
    for e in g.edges:
        eid, va, la, vb, lb = e
        if va == vb:
            continue
        if lb == 1:
            keep, drop, p = va, vb, la
        elif la == 1:
            keep, drop, p = vb, va, lb
        else:
            continue
        # the labels at drop are multiplied by p; the unit end of e is the least
        if not scan and p > 1 and top[drop] * p > cap:
            continue
        surgery = _collapsed(g, eid, keep, drop, p)
        if not scan or _within(surgery, cap):
            yield Collapse, (eid,), surgery
    for v in g.vertices:
        labelled = at[v]
        for moving, le, m in labelled:
            for across, lf, a in labelled:
                if a is m or le % lf:
                    continue
                w, lw = (a.vb, a.lb) if across.side == "A" else (a.va, a.la)
                label = le // lf * lw
                if not scan and label > cap:
                    continue
                surgery = _slid(g, moving, m, w, label)
                if not scan or _within(surgery, cap):
                    yield Slide, (moving, across), surgery
    if bounds.max_edges is None or len(g.edges) < bounds.max_edges:
        top = bounds.max_expansion
        u, d = _fresh("u", g.vertices), _fresh("d", g._by_id)
        for v in g.vertices:
            labelled = at[v]
            for p in sorted({q for _, label, _ in labelled for q in _indices(label)}):
                if top is not None and p > top:
                    break
                # the 2^k subsets of the k divisible ends, in binary counting
                # order, as the subsets of the high half joined to those of
                # the low half, so only about 2^(k/2) are held at once
                divisible = [end for end, label, _ in labelled if label % p == 0]
                half = len(divisible) // 2
                lows = _subsets(divisible[:half])
                for high in _subsets(divisible[half:]):
                    for low in lows:
                        moved = low + high
                        surgery = _expanded(g, v, p, moved, u, d)
                        if not scan or _within(surgery, cap):
                            yield Expansion, (v, p, moved), surgery
    n = _ascending_n(g)
    if n is not None and not scan:  # an induction keeps the graph
        for k in _divisors(n):
            yield Induction, (k,), (g.vertices, g.edges)


def _subsets(items):
    """Every subset of items as a tuple, in binary counting order: the
    i-th item is in the subsets whose bit i is set."""
    out = [()]
    for item in items:
        out += [subset + (item,) for subset in out]
    return out


def _within(surgery, cap):
    """Is every label of the surgery's graph at most cap?"""
    return all(e.la <= cap and e.lb <= cap for e in surgery[1])


def enumerate_moves(state: MarkedState, bounds: MoveBounds = MoveBounds()):
    """All legal moves within bounds, in a fixed deterministic order:
    collapses, slides, expansions (by vertex, index, moved subset), then
    inductions.  Expansions are only enumerated with index >= 2.  A move
    is within max_label when every label of its resulting graph is.

    Every subset of the k ends at a vertex whose labels an index divides
    is one expansion, so the list grows as 2^k per vertex and index: one
    vertex with 8 loops labelled (6, 6) has 16 such ends for each of the
    indices 2, 3 and 6, and 196,832 moves in all.  max_edges = the current
    edge count leaves expansions out.
    """
    return [kind(*fields) for kind, fields, _ in _legal_content(state.graph, bounds)]
