"""Deformation moves on marked GBS states.

A marked state is a graph together with a marking: for every generator
of the seed presentation, the reduced based path word of its image in
the current graph, so that the group never changes while the graph does.

Each move is one function that acts on both at once: it checks the
move's legality, does the graph surgery, and returns the letter map
sending path letters of the old graph to path letters of the new one.
A child keeps that letter map; on demand it maps its parent's images
letter by letter, re-bases them along the new spanning tree and
Britton-reduces once.  Generator words are projected from the images
only for output and for the consistency checks.  Enumeration only
proposes candidate moves and keeps those that their move function
accepts and whose result stays within the label cap, so legality and
label arithmetic are written once.

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
the seed's cycle basis) are re-run after every verified move, so a
wrong letter map cannot slip through silently.

The GbsGraph and Presentation of a move's result come from a graph
pool, a dict keyed on the graph content.  `apply_move` hands every call
a fresh pool, so each public move builds and validates its graph
afresh.  The explorer keeps one pool per `explore` call, so every state
of that search with the same concrete graph shares one graph object,
its validation and its cached canonical form.
"""

from dataclasses import dataclass
from math import gcd

from .errors import (
    BrokenMarkingError,
    DifferentOriginError,
    GbsError,
    NotAscendingError,
    NotCollapsibleError,
    NotDivisibleError,
    NotDivisorError,
    SameEdgeError,
    UnknownVertexError,
    WrongOriginError,
)
from .graph import Edge, EdgeEnd, GbsGraph
from .rigidity import _is_prime, ascending_modulus, divisible_pairs, is_ascending
from .words import (
    PathWord,
    Presentation,
    cyclically_reduce_letters,
    invert_path_letters,
    is_trivial,
    path_to_generators,
    reduce_letters,
    substitute,
    to_path_word,
    word_length,
    word_modulus,
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

    __slots__ = (
        "graph",
        "presentation",
        "history",
        "seed",
        "_images",
        "_marking",
        "_parent",
        "_step",
    )

    def __init__(self, graph, presentation, history, seed, images=None, parent=None, step=None):
        self.graph = graph
        self.presentation = presentation
        self.history = history
        self.seed = seed
        self._images = images
        self._marking = None
        self._parent = parent
        self._step = step  # (letter map, base) of the move from the parent

    def images(self):
        """Seed generator -> reduced based path letters of its image (lazy)."""
        if self._images is None:
            parent = self._parent
            letter_map, base = self._step
            pre = self.presentation.path_to[base]
            post = invert_path_letters(pre)
            self._images = {
                sym: reduce_letters(
                    self.graph, pre + tuple(out for lt in letters for out in letter_map(lt)) + post
                )
                for sym, letters in parent.images().items()
            }
            self._parent = self._step = None
        return self._images

    @property
    def marking(self):
        """Seed generator -> word in the current presentation, projected
        from images() (lazy)."""
        if self._marking is None:
            p = self.presentation
            self._marking = {
                sym: path_to_generators(p, PathWord(p.base, letters))
                for sym, letters in self.images().items()
            }
        return self._marking

    @property
    def depth(self):
        return len(self.history)

    def seed_word(self, word):
        """Transport a word over seed generators into the current presentation."""
        return substitute(word, self.marking)

    def seed_length(self, word):
        """Translation length of a seed-generator word in the current tree."""
        img = self.images()
        letters = []
        for sym, exp in word:
            piece = img[sym] if exp > 0 else invert_path_letters(img[sym])
            letters.extend(piece * abs(exp))
        cyc = cyclically_reduce_letters(self.graph, tuple(letters))
        return sum(1 for letter in cyc if letter[0] == "e")

    def verify(self):
        """Re-check the marking invariants; raises BrokenMarkingError."""
        p = self.presentation
        for rel in self.seed.relators:
            if not is_trivial(p, to_path_word(p, self.seed_word(rel))):
                raise BrokenMarkingError(
                    "seed relator %r no longer dies after %s"
                    % (rel, [str(m) for m in self.history])
                )
        for sym in self.seed.vertex_symbols:
            if word_length(p, self.marking[sym]) != 0:
                raise BrokenMarkingError("seed generator %s became hyperbolic" % sym)
        for sym, value in self.seed.modulus:
            if word_modulus(p, self.marking[sym]) != value:
                raise BrokenMarkingError("modular homomorphism drifted on %s" % sym)
        return self


@dataclass(frozen=True)
class _Seed:
    presentation: Presentation
    relators: tuple
    vertex_symbols: tuple
    modulus: tuple  # ((symbol, Fraction), ...) over the seed's stable letters


def initial_state(graph: GbsGraph) -> MarkedState:
    p = Presentation(graph)
    seed = _Seed(
        presentation=p,
        relators=p.relators(),
        vertex_symbols=tuple(s for s in p.generators if s.startswith("x_")),
        modulus=tuple(
            (s, word_modulus(p, ((s, 1),)))
            for s in p.generators
            if s.startswith("t_")
        ),
    )
    images = {sym: to_path_word(p, ((sym, 1),)).letters for sym in p.generators}
    return MarkedState(graph, p, (), seed, images=images)


def modulus_fingerprint(state: MarkedState):
    """Sorted modular-homomorphism values over the seed's cycle basis."""
    p = state.presentation
    return tuple(sorted(word_modulus(p, state.marking[sym]) for sym, _ in state.seed.modulus))


# -- one function per move ---------------------------------------------------
#
# Each takes (g, move), raises the move's named domain errors, and returns
# (vertices, edges, letter_map, base): the new graph's content, a map
# sending each path letter of g to a tuple of path letters of the new
# graph, and the new vertex at which mapped paths based at g's base start.

def _collapse(g: GbsGraph, move):
    eid = move.edge
    e = g.edge(eid)
    if e.is_loop:
        raise NotCollapsibleError("cannot collapse the loop %s" % eid)
    if e.lb == 1:
        keep, drop, p = e.va, e.vb, e.la
    elif e.la == 1:
        keep, drop, p = e.vb, e.va, e.lb
    else:
        raise NotCollapsibleError("edge %s has no end labelled 1" % eid)
    edges = []
    for f in g.edges:
        if f.eid == eid:
            continue
        va, la = (keep, f.la * p) if f.va == drop else (f.va, f.la)
        vb, lb = (keep, f.lb * p) if f.vb == drop else (f.vb, f.lb)
        edges.append(Edge(f.eid, va, la, vb, lb))

    def letter_map(letter):  # the merged generator x_drop is x_keep^p
        if letter[0] == "v":
            return (("v", keep, p * letter[2]),) if letter[1] == drop else (letter,)
        return () if letter[1] == eid else (letter,)

    base = g.vertices[0]
    return [v for v in g.vertices if v != drop], edges, letter_map, keep if base == drop else base


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
    moved = set(move.moved)
    for end in sorted(moved):
        if g.end_vertex(end) != vertex:
            raise WrongOriginError("end %s is not at %s" % (end, vertex))
        if g.end_label(end) % p:
            raise NotDivisibleError("label %d at %s not divisible by %d" % (g.end_label(end), end, p))
    u = _fresh("u", set(g.vertices))
    d = _fresh("d", {e.eid for e in g.edges})
    edges = []
    for f in g.edges:
        va, la, vb, lb = f.va, f.la, f.vb, f.lb
        if EdgeEnd(f.eid, "A") in moved:
            va, la = u, la // p
        if EdgeEnd(f.eid, "B") in moved:
            vb, lb = u, lb // p
        edges.append(Edge(f.eid, va, la, vb, lb))
    edges.append(Edge(d, vertex, p, u, 1))
    into_u, outof_u = ("e", d, 1), ("e", d, -1)  # v -> u across d, and back

    def letter_map(letter):
        if letter[0] == "v":
            return (letter,)
        src = EdgeEnd(letter[1], "A" if letter[2] == 1 else "B")
        out = (into_u, letter) if src in moved else (letter,)
        return out + (outof_u,) if src.other in moved else out

    return list(g.vertices) + [u], edges, letter_map, g.vertices[0]


def _slide(g: GbsGraph, move):
    moving, across = move.moving, move.across
    if moving.edge == across.edge:
        raise SameEdgeError("cannot slide %s across its own edge" % (moving,))
    v = g.end_vertex(moving)
    if g.end_vertex(across) != v:
        raise DifferentOriginError("%s and %s do not share a vertex" % (moving, across))
    le, lf = g.end_label(moving), g.end_label(across)
    if le % lf:
        raise NotDivisibleError("label %d does not divide %d" % (lf, le))
    far = across.other
    w, new_label = g.end_vertex(far), (le // lf) * g.end_label(far)
    edges = []
    for f in g.edges:
        if f.eid == moving.edge:
            if moving.side == "A":
                f = Edge(f.eid, w, new_label, f.vb, f.lb)
            else:
                f = Edge(f.eid, f.va, f.la, w, new_label)
        edges.append(f)
    sign = 1 if across.side == "A" else -1  # across traversed origin -> far
    step_in, step_out = ("e", across.edge, sign), ("e", across.edge, -sign)

    def letter_map(letter):
        if letter[0] == "v" or letter[1] != moving.edge:
            return (letter,)
        if ("A" if letter[2] == 1 else "B") == moving.side:  # leaves the moved end
            return (step_in, letter)
        return (letter, step_out)

    return g.vertices, edges, letter_map, g.vertices[0]


def _induct(g: GbsGraph, move):
    if len(g.vertices) != 1 or not is_ascending(g):
        raise NotAscendingError("induction needs a one-vertex (1, n) loop")
    n = ascending_modulus(g)
    if move.d < 1 or n % move.d:
        raise NotDivisorError("%d does not divide %d" % (move.d, n))
    e = g.edges[0]
    sign = 1 if e.la == 1 else -1  # ("e", eid, sign) leaves the unit end: t^-1
    k = n // move.d

    def letter_map(letter):
        if letter[0] == "v":  # x^m -> t^-1 x^(m k) t
            return (("e", e.eid, sign), ("v", letter[1], letter[2] * k), ("e", e.eid, -sign))
        return (letter,)

    return g.vertices, g.edges, letter_map, g.vertices[0]


_MOVES = {Collapse: _collapse, Expansion: _expand, Slide: _slide, Induction: _induct}


def _pooled(pool, vertices, edges):
    """The (GbsGraph, Presentation) pair for this graph content: built and
    validated on the first request, then shared by every later one."""
    key = (tuple(sorted(vertices)), tuple(sorted(edges)))
    hit = pool.get(key)
    if hit is None:
        graph = GbsGraph(vertices, edges)
        hit = pool[key] = (graph, Presentation(graph))
    return hit


def _apply_move(state: MarkedState, move, pool: dict, verify: bool) -> MarkedState:
    """apply_move with the new graph taken from pool (see _pooled)."""
    act = _MOVES.get(type(move))
    if act is None:
        raise TypeError("unknown move %r" % (move,))
    return _child(state, move, act(state.graph, move), pool, verify)


def _child(state: MarkedState, move, surgery, pool: dict, verify: bool) -> MarkedState:
    """The state that move leads to, given the surgery its move function
    returned on state.graph."""
    vertices, edges, letter_map, base = surgery
    new_graph, new_p = _pooled(pool, vertices, edges)
    out = MarkedState(
        new_graph,
        new_p,
        state.history + (move,),
        state.seed,
        parent=state,
        step=(letter_map, base),
    )
    if verify:
        out.verify()
    return out


def apply_move(state: MarkedState, move, verify: bool = True) -> MarkedState:
    """Apply one deformation move, returning the new marked state.

    The new graph and its presentation are always built afresh here.
    """
    return _apply_move(state, move, {}, verify)


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


def _divisors(n: int):
    """The divisors of n >= 1 in ascending order, multiplied out from its
    prime factors: trial division below 100, then _rho splits every
    composite cofactor until each part is prime."""
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
        else:
            f = _rho(m)
            todo += [f, m // f]
    out = [1]
    for p, k in exps.items():
        out = [d * p**i for i in range(k + 1) for d in out]
    return sorted(out)


def _legal(g: GbsGraph, bounds: MoveBounds):
    """(move, surgery) for every legal move within bounds, in enumerate_moves
    order.  Candidates are only proposed here; a candidate is kept when its
    move function accepts it and every resulting label is within max_label."""
    moves = [Collapse(e.eid) for e in g.edges]
    moves += [Slide(moving, across) for _, moving, across in divisible_pairs(g)]
    if bounds.max_edges is None or len(g.edges) < bounds.max_edges:
        for v in g.vertices:
            ends = g.ends_at(v)
            ps = set()
            for end in ends:
                for d in _divisors(g.end_label(end)):
                    if d >= 2:
                        ps.add(d)
            for p in sorted(ps):
                if bounds.max_expansion is not None and p > bounds.max_expansion:
                    continue
                divisible = [end for end in ends if g.end_label(end) % p == 0]
                for mask in range(1 << len(divisible)):
                    moved = tuple(divisible[i] for i in range(len(divisible)) if mask >> i & 1)
                    moves.append(Expansion(v, p, moved))
    if len(g.vertices) == 1 and is_ascending(g):
        moves += [Induction(d) for d in _divisors(ascending_modulus(g))]
    cap = bounds.max_label
    for mv in moves:
        try:
            surgery = _MOVES[type(mv)](g, mv)
        except GbsError:
            continue
        if cap is None or all(e.la <= cap and e.lb <= cap for e in surgery[1]):
            yield mv, surgery


def enumerate_moves(state: MarkedState, bounds: MoveBounds = MoveBounds()):
    """All legal moves within bounds, in a fixed deterministic order:
    collapses, slides, expansions (by vertex, index, moved subset), then
    inductions.  Expansions are only enumerated with index >= 2.  A move
    is within max_label when every label of its resulting graph is.
    """
    return [mv for mv, _ in _legal(state.graph, bounds)]
