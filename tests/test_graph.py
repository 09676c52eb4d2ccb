import hashlib
import random
import time

import pytest

import oracle
from gbsr.errors import (
    DisconnectedError,
    EmptyGraphError,
    GbsSyntaxError,
    NonPositiveLabelError,
    UnknownEdgeError,
    UnknownVertexError,
)
from gbsr.explorer import enumerate_graphs
from gbsr.graph import (
    EdgeEnd,
    GbsGraph,
    is_isomorphic,
    parse,
    parse_end,
    serialize,
    to_dot,
    validate,
)

BS26 = "vertex v\nedge c v 2 6 v\n"
SEG = "vertex a\nvertex b\nedge e a 2 3 b\n"


def test_parse_basic_fields():
    g = parse(BS26)
    assert g.vertices == ("v",)
    e = g.edge("c")
    assert (e.va, e.la, e.vb, e.lb) == ("v", 2, "v", 6)
    assert e.is_loop
    assert g.max_label() == 6
    assert g.betti() == 1


def test_parse_comments_and_blank_lines():
    g = parse("# a loop\n\nvertex v\n  # indented comment\nedge c v 2 6 v\n")
    assert len(g.edges) == 1


def test_parse_line_numbers_in_errors():
    with pytest.raises(GbsSyntaxError) as ei:
        parse("vertex v\nedge c v 2 6 w\n")
    assert ei.value.line == 2
    with pytest.raises(GbsSyntaxError):
        parse("vertex v\nvertex v\n")
    with pytest.raises(GbsSyntaxError):
        parse("edge c v 2 6 v\n")  # vertex must be declared first
    with pytest.raises(GbsSyntaxError):
        parse("vertex v\nedge c v 2 v\n")
    with pytest.raises(GbsSyntaxError):
        parse("frob v\n")


def test_parse_is_linear_in_edges():
    # 20,000 edge lines: a scan of the earlier edges per line took over 10 s
    lines = ["vertex v"] + ["edge e%d v 2 3 v" % i for i in range(20000)]
    t0 = time.perf_counter()
    g = parse("\n".join(lines) + "\n")
    assert time.perf_counter() - t0 < 2.0
    assert len(g.edges) == 20000
    with pytest.raises(GbsSyntaxError, match="duplicate edge 'e7'") as ei:
        parse("\n".join(lines[:100] + ["edge e7 v 1 1 v"]) + "\n")
    assert ei.value.line == 101


def test_parse_rejects_bad_labels():
    with pytest.raises(NonPositiveLabelError):
        parse("vertex v\nedge c v 0 6 v\n")
    with pytest.raises(NonPositiveLabelError):
        parse("vertex v\nedge c v -2 6 v\n")
    with pytest.raises(GbsSyntaxError, match="labels must be integers"):
        parse("vertex v\nedge c v two 6 v\n")
    # longer than int()'s string limit, whose ValueError is not a non-integer's
    with pytest.raises(GbsSyntaxError, match="line 2: label of edge c has too many digits"):
        parse("vertex v\nedge c v 2 %s v\n" % ("9" * 5000))


def test_serialize_round_trip():
    for text in (BS26, SEG):
        g = parse(text)
        h = parse(serialize(g))
        assert g.vertices == h.vertices
        assert g.edges == h.edges


def test_validate_errors():
    with pytest.raises(EmptyGraphError):
        validate(GbsGraph([], []))
    with pytest.raises(DisconnectedError):
        validate(GbsGraph(["a", "b"], []))
    with pytest.raises(NonPositiveLabelError):
        validate(GbsGraph(["a"], [("e", "a", 1, "a", 0)]))


def test_edge_end_helpers():
    g = parse(SEG)
    end = parse_end("e.A")
    assert end == EdgeEnd("e", "A")
    assert str(end) == "e.A"
    assert end.other == EdgeEnd("e", "B")
    assert g.end_vertex(end) == "a"
    assert g.end_label(end) == 2
    assert g.end_label(end.other) == 3
    with pytest.raises(GbsSyntaxError):
        parse_end("e")
    with pytest.raises(GbsSyntaxError):
        parse_end("e.C")


def test_ends_at_loop_counts_both_sides():
    g = parse(BS26)
    ends = g.ends_at("v")
    assert len(ends) == 2
    assert {str(e) for e in ends} == {"c.A", "c.B"}


def test_unknown_edge():
    g = parse(BS26)
    with pytest.raises(UnknownEdgeError):
        g.edge("zzz")


def test_graph_constructor_refuses_what_parse_catches_first():
    with pytest.raises(GbsSyntaxError, match="duplicate edge id"):
        GbsGraph(["v"], [("e", "v", 1, "v", 2), ("e", "v", 2, "v", 3)])
    with pytest.raises(UnknownVertexError, match="edge e attached at unknown vertex w"):
        GbsGraph(["v"], [("e", "v", 1, "w", 2)])
    with pytest.raises(UnknownVertexError, match="edge e attached at unknown vertex w"):
        GbsGraph(["v"], [("e", "w", 1, "v", 2)])


def test_ends_at_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        parse(BS26).ends_at("w")


def test_parse_rejects_bad_vertex_lines_and_names():
    with pytest.raises(GbsSyntaxError, match="expected 'vertex <name>'"):
        parse("vertex a b\n")
    for text in ("vertex a-b\n", "vertex v\nedge c! v 2 3 v\n"):
        with pytest.raises(GbsSyntaxError, match="bad name"):
            parse(text)


def test_isomorphism_respects_labels_not_names():
    g = parse("vertex a\nvertex b\nedge e a 2 3 b\n")
    h = parse("vertex p\nvertex q\nedge z q 3 2 p\n")  # renamed and flipped
    assert is_isomorphic(g, h)
    k = parse("vertex a\nvertex b\nedge e a 2 4 b\n")
    assert not is_isomorphic(g, k)


def test_canonical_form_invariance_random():
    rng = random.Random(20260825)
    import oracle

    for _ in range(60):
        g = oracle.random_graph(rng)
        # random renaming of vertices and edges plus random end swaps
        vperm = list(g.vertices)
        rng.shuffle(vperm)
        vmap = dict(zip(g.vertices, vperm))
        edges = []
        for i, e in enumerate(rng.sample(g.edges, len(g.edges))):
            if rng.random() < 0.5:
                edges.append(("w%d" % i, vmap[e.va], e.la, vmap[e.vb], e.lb))
            else:
                edges.append(("w%d" % i, vmap[e.vb], e.lb, vmap[e.va], e.la))
        h = GbsGraph(sorted(vperm), edges)
        assert g.canonical_form() == h.canonical_form()
        assert is_isomorphic(g, h)


def test_canonical_form_separates_multigraphs():
    g = parse("vertex a\nvertex b\nedge e a 2 3 b\nedge f a 2 3 b\n")
    h = parse("vertex a\nvertex b\nedge e a 2 2 b\nedge f a 3 3 b\n")
    assert g.canonical_form() != h.canonical_form()


def test_to_dot_mentions_everything():
    g = parse(SEG)
    dot = to_dot(g)
    assert dot.startswith("graph")
    assert '"a"' in dot and '"b"' in dot
    assert "2" in dot and "3" in dot


def test_canonical_forms_are_pinned():
    # the bytes order explore's classes, so they must not drift; the digest
    # was recorded before _canonical_key read its vertex invariants in one
    # pass over the edges
    h = hashlib.sha256()
    for g in enumerate_graphs(2, 4):
        h.update(g.canonical_form() + b"\n")
    rng = random.Random(20260)
    for _ in range(300):
        h.update(oracle.random_graph(rng, 4, 5, 6).canonical_form() + b"\n")
    assert h.hexdigest() == "b49e6cbf0cab49ac6db9c06ea7d0016577656c97e88736db775749a4507c1227"


def _separated(g):
    """Does the vertex invariant tell every vertex of g apart?"""
    sig = {v: [] for v in g.vertices}
    for _, va, la, vb, lb in g.edges:
        sig[va].append((la, lb, va == vb))
        sig[vb].append((lb, la, va == vb))
    return len({(len(ends), tuple(sorted(ends))) for ends in sig.values()}) == len(g.vertices)


def _pooled_graphs(monkeypatch, g):
    """Every graph that one explore from g builds in its pool."""
    return oracle.pooled_graphs(monkeypatch, g)


def test_canonical_key_matches_the_grouped_permutation_search(monkeypatch):
    # the key takes one ordering when the invariant separates the vertices
    # and every grouped permutation otherwise; the reference always does
    # the latter, so the bytes must agree in both branches
    graphs = list(enumerate_graphs(2, 4))
    # a rigid sweep-2e seed whose search pools some 800 graphs
    pooled = _pooled_graphs(monkeypatch, parse("vertex v0\nedge e0 v0 4 4 v0\nedge e1 v0 6 6 v0\n"))
    assert len(pooled) > 500
    graphs += pooled
    rng = random.Random(0xCA40)
    for _ in range(400):
        g = oracle.random_graph(rng, 4, 5, rng.choice((1, 2, 6)))  # small labels repeat invariants
        names = rng.sample(["a", "b", "u0", "v1", "z", "x_2"], len(g.vertices))
        vmap = dict(zip(g.vertices, names))
        edges = []
        for i, e in enumerate(rng.sample(g.edges, len(g.edges))):
            ends = [(vmap[e.va], e.la), (vmap[e.vb], e.lb)]
            if rng.random() < 0.5:
                ends.reverse()
            edges.append(("f%d" % i, ends[0][0], ends[0][1], ends[1][0], ends[1][1]))
        h = GbsGraph(names, edges)
        assert h.canonical_form() == g.canonical_form()
        graphs += [g, h]
    separated = 0
    for g in graphs:
        assert GbsGraph(g.vertices, g.edges).canonical_form() == oracle.canonical_key(g), serialize(g)
        separated += _separated(g)
    assert separated > 1000 and len(graphs) - separated > 150


def _renamed(rng, g):
    """g with its vertices and edges renamed, its edges shuffled and some
    of them turned around."""
    names = rng.sample(["a", "b", "u0", "v1", "z", "x_2"], len(g.vertices))
    vmap = dict(zip(g.vertices, names))
    edges = []
    for i, e in enumerate(rng.sample(g.edges, len(g.edges))):
        ends = [(vmap[e.va], e.la), (vmap[e.vb], e.lb)]
        if rng.random() < 0.5:
            ends.reverse()
        edges.append(("f%d" % i, ends[0][0], ends[0][1], ends[1][0], ends[1][1]))
    return GbsGraph(names, edges)


def test_canonical_key_and_form_split_graphs_alike(monkeypatch):
    # explore's visited set holds tuple keys and its classes the bytes, so
    # the two must tell the same graphs apart; the bytes are the key's repr
    graphs = _pooled_graphs(monkeypatch, parse("vertex v0\nedge e0 v0 4 4 v0\nedge e1 v0 6 6 v0\n"))
    rng = random.Random(0x15E7)
    for _ in range(300):
        g = oracle.random_graph(rng, 4, 5, rng.choice((1, 2, 6)))
        graphs += [g, _renamed(rng, g)]
        assert graphs[-1].canonical_key() == g.canonical_key()
    for g in graphs:
        assert g.canonical_form() == repr(g.canonical_key()).encode()
    pairs = {(g.canonical_key(), g.canonical_form()) for g in graphs}
    assert len({key for key, _ in pairs}) == len(pairs) == len({form for _, form in pairs})
    assert 400 < len(pairs) < len(graphs) - 300, (len(pairs), len(graphs))
