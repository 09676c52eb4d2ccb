"""Labelled multigraphs encoding generalized Baumslag-Solitar groups.

A GBS graph is a finite connected multigraph in which each edge end
carries a positive integer label: every vertex and edge group is
infinite cyclic, and the label at an end is the index of the edge group
inside the vertex group there.  Loops and parallel edges are allowed.

Graphs are immutable; operations that change a graph build a new one.
Vertex and edge names are ordinary strings, ordered lexicographically
wherever a deterministic order is required.
"""

from itertools import chain, permutations, product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import (
    DisconnectedError,
    EmptyGraphError,
    GbsSyntaxError,
    NonPositiveLabelError,
    UnknownEdgeError,
    UnknownVertexError,
)


class Edge(NamedTuple):
    """One edge with its two labelled ends.

    Side ``A`` is the first-listed endpoint in the text format; the pair
    (va, la) is the vertex and label of side A, (vb, lb) of side B.
    """

    eid: str
    va: str
    la: int
    vb: str
    lb: int

    @property
    def is_loop(self):
        return self.va == self.vb


class EdgeEnd(NamedTuple):
    """An end of an edge, addressed as edge id plus side letter."""

    edge: str
    side: str  # 'A' or 'B'

    def __str__(self):
        return "%s.%s" % (self.edge, self.side)

    @property
    def other(self):
        return EdgeEnd(self.edge, "B" if self.side == "A" else "A")


def parse_end(text: str) -> EdgeEnd:
    """Parse an ``<edge>.<A|B>`` end handle."""
    if "." not in text:
        raise GbsSyntaxError("end must be written <edge>.<A|B>: %r" % text)
    eid, _, side = text.rpartition(".")
    if side not in ("A", "B") or not eid:
        raise GbsSyntaxError("end must be written <edge>.<A|B>: %r" % text)
    return EdgeEnd(eid, side)


class GbsGraph:
    """An immutable labelled multigraph.

    >>> g = GbsGraph(["v"], [("e", "v", 1, "v", 2)])
    >>> [(end.edge, end.side) for end in g.ends_at("v")]
    [('e', 'A'), ('e', 'B')]
    """

    __slots__ = ("vertices", "edges", "_by_id", "_ends", "_key", "_canon", "_pinches", "_presentation")

    def __init__(self, vertices: Iterable[str], edges: Iterable, _trusted=False):
        self._key = self._canon = None
        self._pinches = None  # words._pinch_table, built on first use
        self._presentation = None  # words._presentation, built on first use
        if _trusted:
            # a graph a move made from a valid graph (moves._TrustedPool says
            # why it is valid): vertices and edges come as sorted tuples,
            # edges in id order, and the end lists are built on first read
            self.vertices, self.edges = vertices, edges
            self._by_id = {e.eid: e for e in edges}
            self._ends = None
            return
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = tuple(sorted([e if isinstance(e, Edge) else Edge(*e) for e in edges], key=itemgetter(0)))
        self._by_id = {e.eid: e for e in self.edges}
        if len(self._by_id) != len(self.edges):
            raise GbsSyntaxError("duplicate edge id")
        self._ends = _ends_by_vertex(self.vertices, self.edges)
        validate(self)

    # -- queries ----------------------------------------------------------

    def edge(self, eid: str) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise UnknownEdgeError("no edge named %r" % eid) from None

    def ends_at(self, v: str):
        """All edge ends attached at v, in deterministic (edge, side) order.

        A loop at v contributes both of its ends.
        """
        ends = self._ends
        if ends is None:
            ends = self._ends = _ends_by_vertex(self.vertices, self.edges)
        try:
            return ends[v]
        except KeyError:
            raise UnknownVertexError("no vertex named %r" % v) from None

    def end_vertex(self, end: EdgeEnd) -> str:
        e = self.edge(end.edge)
        return e.va if end.side == "A" else e.vb

    def end_label(self, end: EdgeEnd) -> int:
        e = self.edge(end.edge)
        return e.la if end.side == "A" else e.lb

    def max_label(self) -> int:
        return max((max(e.la, e.lb) for e in self.edges), default=1)

    def betti(self) -> int:
        # first Betti number of a connected graph
        return len(self.edges) - len(self.vertices) + 1

    # -- canonical form ---------------------------------------------------

    def canonical_key(self) -> tuple:
        """A tuple equal for two graphs iff they are isomorphic.

        Isomorphism means a vertex bijection together with an edge
        bijection that may swap the two ends of an edge, preserving
        incidence and labels.  Edge and vertex names are ignored.  The
        key is (vertex count, sorted rows (a, la, b, lb) with (a, la) <=
        (b, lb)), minimised over vertex orderings: an exhaustive search
        pruned by a vertex invariant, where the orderings tried list the
        invariant's classes in order, so a graph whose invariant tells
        every vertex apart has exactly one; intended for desk-scale graphs.
        """
        if self._key is None:
            self._key = _canonical_key(self.vertices, self.edges)
        return self._key

    def canonical_form(self) -> bytes:
        """The bytes repr(canonical_key()).encode(): equal for two graphs
        iff they are isomorphic, and the order explore sorts its classes
        by."""
        if self._canon is None:
            self._canon = repr(self.canonical_key()).encode()
        return self._canon


def _ends_by_vertex(vertices, edges):
    """Vertex -> tuple of the edge ends attached there; raises
    UnknownVertexError for an edge attached at no listed vertex."""
    # edges come in id order, so each vertex's ends come in (edge, side) order
    ends = {v: [] for v in vertices}
    for eid, va, _, vb, _ in edges:
        if va not in ends or vb not in ends:
            unknown = vb if va in ends else va
            raise UnknownVertexError("edge %s attached at unknown vertex %s" % (eid, unknown))
        ends[va].append(EdgeEnd(eid, "A"))
        ends[vb].append(EdgeEnd(eid, "B"))
    return {v: tuple(lst) for v, lst in ends.items()}


def _canonical_key(vertices, edges) -> tuple:
    """GbsGraph.canonical_key of the graph with this content."""
    # vertex invariant: (degree, sorted (near label, far label, loop) per end)
    sig = {v: [] for v in vertices}
    for _, va, la, vb, lb in edges:
        sig[va].append((la, lb, va == vb))
        sig[vb].append((lb, la, va == vb))
    groups = {}
    for v, ends in sig.items():
        ends.sort()
        groups.setdefault((len(ends), tuple(ends)), []).append(v)
    n, best, keys = len(vertices), None, sorted(groups)
    if len(keys) == n:  # the invariant separates the vertices: one ordering
        orders = ([groups[k][0] for k in keys],)
    else:
        orders = map(chain.from_iterable, product(*(permutations(groups[k]) for k in keys)))
    for order in orders:
        index = dict(zip(order, range(n)))
        rows = []
        for _, va, la, vb, lb in edges:
            a, b = index[va], index[vb]
            rows.append((a, la, b, lb) if a < b or a == b and la <= lb else (b, lb, a, la))
        rows.sort()
        key = (n, tuple(rows))
        if best is None or key < best:
            best = key
    return best


def validate(g: GbsGraph) -> None:
    """Check the GBS graph contract; raises on the first violation.

    Errors: EmptyGraphError, NonPositiveLabelError, DisconnectedError.
    """
    if not g.vertices:
        raise EmptyGraphError("a GBS graph needs at least one vertex")
    for e in g.edges:
        for lab in (e.la, e.lb):
            if not isinstance(lab, int) or isinstance(lab, bool) or lab < 1:
                raise NonPositiveLabelError(
                    "edge %s carries label %r; labels are integers >= 1" % (e.eid, lab)
                )
    seen = {g.vertices[0]}
    queue = [g.vertices[0]]
    by_id = g._by_id
    while queue:
        for eid, side in g.ends_at(queue.pop()):
            e = by_id[eid]
            w = e.vb if side == "A" else e.va
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != len(g.vertices):
        raise DisconnectedError("graph is not connected")


def is_isomorphic(g: GbsGraph, h: GbsGraph) -> bool:
    return g.canonical_form() == h.canonical_form()


# -- text format -----------------------------------------------------------

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_name(name: str, line: int) -> str:
    if not name or not set(name) <= _NAME_OK:
        raise GbsSyntaxError("bad name %r (letters, digits and _ only)" % name, line)
    return name


def parse(text: str) -> GbsGraph:
    """Parse the line-oriented GBS graph format.

    Lines are ``vertex <name>`` or ``edge <name> <v> <labelAtV> <labelAtW> <w>``;
    ``#`` starts a comment.  Side A of an edge is the first-listed endpoint.
    """
    vertices = []
    edges = []
    vseen = set()
    eseen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GbsSyntaxError("expected 'vertex <name>'", lineno)
            name = _check_name(parts[1], lineno)
            if name in vseen:
                raise GbsSyntaxError("duplicate vertex %r" % name, lineno)
            vseen.add(name)
            vertices.append(name)
        elif parts[0] == "edge":
            if len(parts) != 6:
                raise GbsSyntaxError(
                    "expected 'edge <name> <v> <labelAtV> <labelAtW> <w>'", lineno
                )
            eid = _check_name(parts[1], lineno)
            va = _check_name(parts[2], lineno)
            vb = _check_name(parts[5], lineno)
            try:
                la = int(parts[3])
                lb = int(parts[4])
            except ValueError:
                raise GbsSyntaxError("labels must be integers", lineno) from None
            if va not in vseen:
                raise GbsSyntaxError("unknown vertex %r" % va, lineno)
            if vb not in vseen:
                raise GbsSyntaxError("unknown vertex %r" % vb, lineno)
            if eid in eseen:
                raise GbsSyntaxError("duplicate edge %r" % eid, lineno)
            eseen.add(eid)
            edges.append((eid, va, la, vb, lb))
        else:
            raise GbsSyntaxError("unknown directive %r" % parts[0], lineno)
    return GbsGraph(vertices, edges)


def serialize(g: GbsGraph) -> str:
    lines = ["vertex %s" % v for v in g.vertices]
    for e in g.edges:
        lines.append("edge %s %s %d %d %s" % (e.eid, e.va, e.la, e.lb, e.vb))
    return "\n".join(lines) + "\n"


def to_dot(g: GbsGraph) -> str:
    """Graphviz rendering; end labels become taillabel (side A) and headlabel."""
    lines = ["graph gbs {"]
    for v in g.vertices:
        lines.append('  "%s";' % v)
    for e in g.edges:
        lines.append(
            '  "%s" -- "%s" [label="%s", taillabel="%d", headlabel="%d"];'
            % (e.va, e.vb, e.eid, e.la, e.lb)
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
