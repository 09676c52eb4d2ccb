import hashlib
import random
import time
from fractions import Fraction

import pytest

import oracle
from gbsr.errors import (
    DifferentOriginError,
    NotAscendingError,
    NotCollapsibleError,
    NotDivisibleError,
    NotDivisorError,
    SameEdgeError,
    UnknownEdgeError,
    WrongOriginError,
)
from gbsr.graph import EdgeEnd, parse, parse_end
from gbsr.moves import (
    Collapse,
    Expansion,
    Induction,
    MoveBounds,
    Slide,
    _apply_move,
    _divisors,
    apply_move,
    collapse,
    enumerate_moves,
    expand,
    induct,
    initial_state,
    modulus_fingerprint,
    slide,
)
from gbsr.words import format_word, invert_path_letters, reduce_letters, to_path_word

BS26 = "vertex v\nedge c v 2 6 v\n"
BS14 = "vertex v\nedge c v 1 4 v\n"


def state(text):
    return initial_state(parse(text))


def marking_strings(st):
    return {sym: format_word(w) for sym, w in sorted(st.marking.items())}


def test_collapse_merges_loop_labels():
    # segment with unit end plus a loop at the far vertex
    st = state("vertex a\nvertex b\nedge e a 3 1 b\nedge c b 5 7 b\n")
    out = collapse(st, "e")
    assert out.graph.vertices == ("a",)
    e = out.graph.edge("c")
    assert (e.va, e.la, e.vb, e.lb) == ("a", 15, "a", 21)


def test_collapse_orientation_picks_unit_side():
    st = state("vertex a\nvertex b\nedge e a 1 4 b\nedge h b 2 3 b\n")
    out = collapse(st, "e")
    # la == 1 and lb != 1: the kept vertex is b, labels at a scale by 4
    assert out.graph.vertices == ("b",)
    assert out.graph.edge("h").la == 2


def test_collapse_errors():
    st = state(BS26)
    with pytest.raises(NotCollapsibleError):
        collapse(st, "c")  # loops never collapse
    st = state("vertex a\nvertex b\nedge e a 2 3 b\n")
    with pytest.raises(NotCollapsibleError):
        collapse(st, "e")  # no unit end
    with pytest.raises(UnknownEdgeError):
        collapse(st, "zzz")


def test_expansion_creates_unit_edge_and_moves_ends():
    st = state(BS26)
    out = expand(st, "v", 2, [parse_end("c.B")])
    g = out.graph
    assert set(g.vertices) == {"v", "u0"}
    d = g.edge("d0")
    assert (d.va, d.la, d.vb, d.lb) == ("v", 2, "u0", 1)
    c = g.edge("c")
    # the moved 6-end sits at u0 with label 6/2
    assert (c.va, c.la, c.vb, c.lb) == ("v", 2, "u0", 3)


def test_expansion_errors():
    st = state(BS26)
    with pytest.raises(NotDivisibleError):
        expand(st, "v", 4, [parse_end("c.B")])  # 4 does not divide 6
    with pytest.raises(WrongOriginError):
        expand(state("vertex a\nvertex b\nedge e a 2 3 b\n"), "a", 3, [parse_end("e.B")])


def test_expand_then_collapse_is_identity():
    from gbsr.explorer import fingerprint

    st = state(BS26)
    # no moved ends: the round trip is literally the identity
    back = collapse(expand(st, "v", 2, ()), "d0")
    assert back.graph.edges == st.graph.edges
    assert marking_strings(back) == marking_strings(st)
    # with moved ends the marking may pick up one inner twist, which
    # leaves the marked tree (hence every translation length) unchanged
    back = collapse(expand(st, "v", 2, [parse_end("c.B")]), "d0")
    assert back.graph.edges == st.graph.edges
    assert fingerprint(back, 3) == fingerprint(st, 3)


def test_slide_label_arithmetic():
    # v(4)-(2)u and v(2)-(3)w
    st = state("vertex u\nvertex v\nvertex w\nedge e v 4 2 u\nedge f v 2 3 w\n")
    out = slide(st, parse_end("e.A"), parse_end("f.A"))
    e = out.graph.edge("e")
    # 4 = 2*2, the end lands at w with label (4/2)*3
    assert (e.va, e.la, e.vb, e.lb) == ("w", 6, "u", 2)


def test_slide_across_loop_end():
    st = state("vertex x\nvertex y\nedge c x 2 2 x\nedge h x 2 3 y\n")
    out = slide(st, parse_end("h.A"), parse_end("c.A"))
    # the loop's other end is at x again: graph is unchanged
    assert out.graph.edges == st.graph.edges
    # but the marking records the detour through the loop
    assert marking_strings(out)["x_y"] != "x_y"


def test_slide_errors():
    st = state("vertex u\nvertex v\nvertex w\nedge e v 4 2 u\nedge f v 2 3 w\n")
    with pytest.raises(SameEdgeError):
        slide(st, parse_end("e.A"), parse_end("e.B"))
    with pytest.raises(DifferentOriginError):
        slide(st, parse_end("e.B"), parse_end("f.A"))
    with pytest.raises(NotDivisibleError):
        slide(st, parse_end("f.A"), parse_end("e.A"))  # 4 does not divide 2


def test_induction_twists_marking():
    st = state(BS14)
    out = induct(st, 2)
    assert out.graph.edges == st.graph.edges  # graph is unchanged
    assert marking_strings(out)["x_v"] == "t_c^-1 x_v^2 t_c"
    assert marking_strings(out)["t_c"] == "t_c"
    # d = 1 is the identity
    assert marking_strings(induct(st, 1)) == marking_strings(st)


def test_induction_errors():
    with pytest.raises(NotDivisorError):
        induct(state(BS14), 3)
    with pytest.raises(NotAscendingError):
        induct(state(BS26), 2)


def test_move_str_matches_cli_syntax():
    assert str(Collapse("e")) == "collapse e"
    assert str(Expansion("v", 2, ())) == "expand v 2"
    assert str(Expansion("v", 2, (EdgeEnd("c", "B"),))) == "expand v 2 c.B"
    assert str(Slide(EdgeEnd("e", "A"), EdgeEnd("f", "B"))) == "slide e.A across f.B"
    assert str(Induction(3)) == "induct 3"


def test_verify_runs_on_every_apply():
    st = state(BS26)
    out = apply_move(st, Expansion("v", 2, ()))
    assert out.verify() is out


def test_modulus_fingerprint_stable_under_moves():
    st = state(BS26)
    assert modulus_fingerprint(st) == (Fraction(3),)
    out = expand(st, "v", 2, [parse_end("c.B")])
    assert modulus_fingerprint(out) == (Fraction(3),)
    out = slide(out, parse_end("c.A"), parse_end("d0.A"))
    assert modulus_fingerprint(out) == (Fraction(3),)


def test_enumerate_moves_bs26():
    st = state(BS26)
    moves = enumerate_moves(st, MoveBounds(max_edges=2, max_label=36))
    assert all(not isinstance(m, Collapse) for m in moves)  # loops never collapse
    slides = [m for m in moves if isinstance(m, Slide)]
    assert slides == []  # both ends are on the same edge
    expansions = [m for m in moves if isinstance(m, Expansion)]
    assert {m.p for m in expansions} == {2, 3, 6}
    assert all(not isinstance(m, Induction) for m in moves)  # (2, 6) is not ascending


def test_enumerate_moves_is_deterministic_and_legal():
    rng = random.Random(0x5EED5)
    for _ in range(40):
        g = oracle.random_graph(rng)
        st = initial_state(g)
        bounds = MoveBounds(max_edges=len(g.edges) + 1, max_label=36)
        moves = enumerate_moves(st, bounds)
        assert moves == enumerate_moves(st, bounds)
        for mv in moves[:30]:
            out = apply_move(st, mv)  # verification on
            assert out.depth == 1


def test_enumerate_moves_respects_caps():
    st = state(BS26)
    none = enumerate_moves(st, MoveBounds(max_edges=1, max_label=36))
    assert all(not isinstance(m, Expansion) for m in none)
    st = state("vertex u\nvertex v\nvertex w\nedge e v 4 2 u\nedge f v 2 3 w\n")
    tight = enumerate_moves(st, MoveBounds(max_edges=2, max_label=5))
    assert Slide(parse_end("e.A"), parse_end("f.A")) not in tight  # would make 6
    loose = enumerate_moves(st, MoveBounds(max_edges=2, max_label=6))
    assert Slide(parse_end("e.A"), parse_end("f.A")) in loose


def test_random_sequences_preserve_invariants():
    rng = random.Random(0xF00D)
    done = 0
    while done < 25:
        g = oracle.random_graph(rng)
        st = initial_state(g)
        fp = modulus_fingerprint(st)
        betti = g.betti()
        ok = True
        for _ in range(3):
            moves = enumerate_moves(st, MoveBounds(max_edges=4, max_label=40))
            if not moves:
                ok = False
                break
            st = apply_move(st, rng.choice(moves))  # verify=True inside
            assert modulus_fingerprint(st) == fp
            assert st.graph.betti() == betti
        if ok:
            done += 1


def test_induction_on_non_reduced_multi_vertex_graph():
    # a (1, 2) segment is not reduced; induction must still name the
    # ascending requirement rather than the reduction one
    with pytest.raises(NotAscendingError):
        induct(state("vertex a\nvertex b\nedge e a 1 2 b\n"), 1)


def test_enumerated_children_stay_within_max_label():
    rng = random.Random(0x1AB)
    checked = 0
    for _ in range(150):
        st = initial_state(oracle.random_graph(rng, 3, 4, 8))
        max_label = rng.randint(st.graph.max_label(), 3 * st.graph.max_label())
        bounds = MoveBounds(max_edges=len(st.graph.edges) + 1, max_label=max_label)
        for _ in range(3):
            moves = enumerate_moves(st, bounds)
            for mv in moves:
                child = apply_move(st, mv, verify=False)
                assert child.graph.max_label() <= max_label, (mv, max_label)
                checked += 1
            if not moves:
                break
            st = apply_move(st, rng.choice(moves), verify=False)
    assert checked > 1000


# sha256 of every "symbol = word" marking line along the walks below;
# the CLI prints these words, so a change of representation must not
# change a single one
PINNED_MARKINGS = "f04b53ea3acc2b2310bde77a30de7caff7855e1810b237575e0a271d19173a20"


def test_printed_markings_are_pinned():
    from gbsr.explorer import reduce_state

    bounds = MoveBounds(6, 60, 6)
    digest = hashlib.sha256()
    for seed in range(400):
        rng = random.Random(seed)
        st = initial_state(oracle.random_graph(rng))
        states = []
        for _ in range(rng.randrange(1, 7)):
            moves = enumerate_moves(st, bounds)
            if not moves:
                break
            st = apply_move(st, rng.choice(moves))
            states.append(st)
        states.append(reduce_state(st))
        for s in states:
            p, images = s.presentation, s.images()
            for sym, word in sorted(s.marking.items()):
                letters = to_path_word(p, word).letters + invert_path_letters(images[sym])
                assert reduce_letters(s.graph, letters) == (), (seed, sym)
                digest.update(("%s = %s\n" % (sym, format_word(word))).encode())
    assert digest.hexdigest() == PINNED_MARKINGS


def test_divisors_match_brute_force_scan():
    for n in range(1, 2001):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    assert _divisors(2**61 - 1) == [1, 2**61 - 1]
    assert len(_divisors(10**12)) == 13 * 13


def test_public_apply_move_builds_a_fresh_graph_each_call():
    st = state("vertex a\nvertex b\nedge e a 2 2 b\nedge c a 2 3 a\n")
    for mv in enumerate_moves(st, MoveBounds(max_edges=3)):
        first, second = apply_move(st, mv), apply_move(st, mv)
        assert (first.graph.vertices, first.graph.edges) == (
            second.graph.vertices,
            second.graph.edges,
        )
        assert first.graph is not second.graph
        assert first.presentation is not second.presentation
    red = state("vertex a\nvertex b\nedge e a 3 1 b\n")
    from gbsr.explorer import reduce_state

    assert reduce_state(red).graph is not reduce_state(red).graph


def test_pooled_and_public_routes_agree():
    from gbsr.explorer import _reduce, reduce_state

    bounds = MoveBounds(6, 60, 6)
    shared = 0
    for seed in range(200):
        rng = random.Random(seed)
        public = pooled = initial_state(oracle.random_graph(rng))
        pool = {}
        for _ in range(rng.randrange(1, 9)):
            moves = enumerate_moves(public, bounds)
            if not moves:
                break
            mv = rng.choice(moves)
            # a repeated move hands back the pooled graph object
            again = _apply_move(pooled, mv, pool, False)
            pooled = _apply_move(pooled, mv, pool, False)
            assert again.graph is pooled.graph
            shared += 1
            public = apply_move(public, mv, verify=False)
            assert (pooled.graph.vertices, pooled.graph.edges) == (
                public.graph.vertices,
                public.graph.edges,
            )
            assert pooled.images() == public.images()
            assert pooled.history == public.history
        pooled, public = _reduce(pooled, pool), reduce_state(public)
        assert (pooled.graph.vertices, pooled.graph.edges) == (
            public.graph.vertices,
            public.graph.edges,
        )
        assert pooled.images() == public.images()
        assert pooled.history == public.history
    assert shared > 500


def test_unknown_move_type_is_rejected():
    with pytest.raises(TypeError):
        apply_move(state(BS26), object())


def test_divisors_split_a_semiprime_quickly():
    p, q = 10**9 + 7, 10**9 + 9
    t0 = time.perf_counter()
    assert _divisors(p * q) == [1, p, q, p * q]
    assert time.perf_counter() - t0 < 2.0


def test_divisors_of_products_of_large_primes():
    # every prime factor is above the trial-division range, so each
    # composite cofactor goes through the rho split, repeats included
    rng = random.Random(0xD1F)
    primes = sorted(p for p in oracle.oracle_primes(20000) if p > 100)
    for _ in range(200):
        factors = [rng.choice(primes) for _ in range(rng.randint(2, 4))]
        factors += rng.choice([[], [2], [2, 2, 3], [97]])
        expected, n = {1}, 1
        for f in factors:
            expected |= {d * f for d in expected}
            n *= f
        assert _divisors(n) == sorted(expected), factors


# sha256 of every enumerated move, one per line, over the seeded graphs
# below, whose labels are all within the cap: on such states the moves
# and their order are fixed
PINNED_ENUMERATION = "621dfc4af87fac1188f35ebfd0ebdbffd9e05101ed5d4e7bbd9bcbdb8bb70c3d"


def test_enumerated_moves_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seed in range(300):
        g = oracle.random_graph(random.Random(seed))
        bounds = MoveBounds(max_edges=len(g.edges) + 1, max_label=36)
        moves = enumerate_moves(initial_state(g), bounds)
        count += len(moves)
        for mv in moves:
            digest.update(("%s\n" % mv).encode())
    assert count == 4241
    assert digest.hexdigest() == PINNED_ENUMERATION


def test_max_label_caps_the_result_above_a_capped_source():
    # labels 6 already exceed the cap 4: only moves whose result fits stay
    st = state("vertex v\nvertex w\nedge c v 2 6 v\nedge h v 2 3 w\n")
    moves = enumerate_moves(st, MoveBounds(max_edges=3, max_label=4))
    assert Slide(parse_end("c.A"), parse_end("h.A")) not in moves
    assert [str(m) for m in moves] == [
        "expand v 2 c.B",
        "expand v 2 c.A c.B",
        "expand v 2 c.B h.A",
        "expand v 2 c.A c.B h.A",
        "expand v 3 c.B",
    ]
    for mv in moves:
        assert apply_move(st, mv).graph.max_label() <= 4, mv
    assert Slide(parse_end("c.A"), parse_end("h.A")) in enumerate_moves(st, MoveBounds(max_edges=3))
