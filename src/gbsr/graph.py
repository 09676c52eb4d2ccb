"""Labelled multigraphs encoding generalized Baumslag-Solitar groups.

A GBS graph is a finite connected multigraph in which each edge end
carries a positive integer label: every vertex and edge group is
infinite cyclic, and the label at an end is the index of the edge group
inside the vertex group there.  Loops and parallel edges are allowed.

Graphs are immutable; operations that change a graph build a new one.
Vertex and edge names are ordinary strings, ordered lexicographically
wherever a deterministic order is required.
"""

from itertools import permutations, product
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

    __slots__ = ("vertices", "edges", "_by_id", "_ends", "_canon")

    def __init__(self, vertices: Iterable[str], edges: Iterable):
        self.vertices = tuple(sorted(set(vertices)))
        es = []
        for e in edges:
            es.append(e if isinstance(e, Edge) else Edge(*e))
        es.sort(key=lambda e: e.eid)
        self.edges = tuple(es)
        self._by_id = {e.eid: e for e in self.edges}
        if len(self._by_id) != len(self.edges):
            raise GbsSyntaxError("duplicate edge id")
        ends = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.va not in ends:
                raise UnknownVertexError("edge %s attached at unknown vertex %s" % (e.eid, e.va))
            if e.vb not in ends:
                raise UnknownVertexError("edge %s attached at unknown vertex %s" % (e.eid, e.vb))
            ends[e.va].append(EdgeEnd(e.eid, "A"))
            ends[e.vb].append(EdgeEnd(e.eid, "B"))
        self._ends = {v: tuple(sorted(lst)) for v, lst in ends.items()}
        self._canon = None
        validate(self)

    # -- queries ----------------------------------------------------------

    def edge(self, eid: str) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise UnknownEdgeError("no edge named %r" % eid) from None

    def has_edge(self, eid: str) -> bool:
        return eid in self._by_id

    def ends_at(self, v: str):
        """All edge ends attached at v, in deterministic (edge, side) order.

        A loop at v contributes both of its ends.
        """
        try:
            return self._ends[v]
        except KeyError:
            raise UnknownVertexError("no vertex named %r" % v) from None

    def end_vertex(self, end: EdgeEnd) -> str:
        e = self.edge(end.edge)
        return e.va if end.side == "A" else e.vb

    def end_label(self, end: EdgeEnd) -> int:
        e = self.edge(end.edge)
        return e.la if end.side == "A" else e.lb

    def is_loop(self, eid: str) -> bool:
        return self.edge(eid).is_loop

    def max_label(self) -> int:
        return max((max(e.la, e.lb) for e in self.edges), default=1)

    def betti(self) -> int:
        # first Betti number of a connected graph
        return len(self.edges) - len(self.vertices) + 1

    # -- canonical form ---------------------------------------------------

    def canonical_form(self) -> bytes:
        """A byte string equal for two graphs iff they are isomorphic.

        Isomorphism means a vertex bijection together with an edge
        bijection that may swap the two ends of an edge, preserving
        incidence and labels.  Edge and vertex names are ignored.
        Computed by exhaustive search over vertex orderings, pruned by a
        vertex invariant; intended for desk-scale graphs.
        """
        if self._canon is None:
            self._canon = _canonical_key(self)
        return self._canon


def _vertex_invariant(g: GbsGraph, v: str):
    sig = []
    for end in g.ends_at(v):
        e = g.edge(end.edge)
        near = e.la if end.side == "A" else e.lb
        far = e.lb if end.side == "A" else e.la
        sig.append((near, far, e.is_loop))
    return (len(sig), tuple(sorted(sig)))


def _canonical_key(g: GbsGraph) -> bytes:
    groups = {}
    for v in g.vertices:
        groups.setdefault(_vertex_invariant(g, v), []).append(v)
    ordered = sorted(groups.items())
    offsets = []
    base = 0
    for _, members in ordered:
        offsets.append((base, members))
        base += len(members)
    best = None
    for assignment in product(*(permutations(ms) for _, ms in ordered)):
        index = {}
        for (off, _), perm in zip(offsets, assignment):
            for i, v in enumerate(perm):
                index[v] = off + i
        rows = []
        for e in g.edges:
            a = (index[e.va], e.la)
            b = (index[e.vb], e.lb)
            rows.append(a + b if a <= b else b + a)
        rows.sort()
        key = (len(g.vertices), tuple(rows))
        if best is None or key < best:
            best = key
    return repr(best).encode()


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
    while queue:
        v = queue.pop()
        for end in g.ends_at(v):
            e = g.edge(end.edge)
            w = e.vb if end.side == "A" else e.va
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
            if any(eid == e[0] for e in edges):
                raise GbsSyntaxError("duplicate edge %r" % eid, lineno)
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
