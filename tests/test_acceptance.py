"""Acceptance gate: every criterion the package must meet, each with its
stated budget.  Tests print one PASS line apiece so a transcript shows the
whole gate at a glance."""

import random
import time

import oracle
from oracle import modulus_fingerprint
from gbsr.explorer import (
    ascending_equivalent,
    enumerate_graphs,
    explore,
    fingerprint,
    reduce_state,
    witness_search,
)
from gbsr.graph import is_isomorphic, parse, parse_end, serialize
from gbsr.moves import (
    Expansion,
    MoveBounds,
    Slide,
    apply_move,
    enumerate_moves,
    initial_state,
)
from gbsr.rigidity import check, is_reduced
from gbsr.words import Presentation, parse_word, word_length


def loop(a, b):
    return parse("vertex v\nedge c v %d %d v\n" % (a, b))


def test_criterion_1_prime_rigidity():
    t0 = time.perf_counter()
    primes = set(oracle.oracle_primes(50))
    for s in range(1, 51):
        verdict = check(loop(1, s))
        assert verdict.rigid == (s == 1 or s in primes), s
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    print("PASS criterion 1: loop(1,s) rigid iff s=1 or prime, s<=50 (%.2fs)" % elapsed)


def test_criterion_2_bs26_deformation():
    t0 = time.perf_counter()
    seed = loop(2, 6)
    st = initial_state(seed)
    script = [
        Expansion("v", 2, ()),
        Slide(parse_end("c.B"), parse_end("d0.A")),
        Slide(parse_end("c.A"), parse_end("d0.A")),
        Slide(parse_end("d0.B"), parse_end("c.A")),
    ]
    for mv in script:
        st = apply_move(st, mv)  # verify=True re-checks the marking
    assert is_reduced(st.graph)
    target = parse("vertex u\nvertex v\nedge l u 1 3 u\nedge m v 2 3 u\n")
    assert is_isomorphic(st.graph, target)
    assert not is_isomorphic(st.graph, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    print("PASS criterion 2: scripted loop(2,6) deformation reaches the "
          "second reduced graph (%.2fs)" % elapsed)


SLIDE_DELTAS = [
    # graph, moving end, slid-across end, witness word, length before/after
    ("vertex x\nvertex y\nedge c x 2 2 x\nedge h x 2 3 y\n",
     "c.A", "h.A", "t_c", 1, 2),
    ("vertex v\nvertex u\nvertex w\nedge e v 4 2 u\nedge f v 2 3 w\n",
     "e.A", "f.A", "x_u x_v", 2, 4),
    ("vertex v\nvertex u\nedge e v 2 3 u\nedge f v 1 1 v\nedge e0 v 5 1 v\n",
     "e.A", "f.A", "x_u t_e0", 3, 5),
    ("vertex v\nvertex u\nvertex w\nedge f v 1 1 v\nedge e v 2 3 u\nedge e0 v 5 7 w\n",
     "e.A", "f.A", "x_w x_u", 4, 6),
]


def test_criterion_3_slide_length_deltas():
    for text, moving, across, wtext, before, after in SLIDE_DELTAS:
        st = initial_state(parse(text))
        word = parse_word(wtext)
        slid = apply_move(st, Slide(parse_end(moving), parse_end(across)))
        assert st.seed_length(word) == before, wtext
        assert slid.seed_length(word) == after, wtext
        # second route: substitute through the marking, then measure
        assert word_length(st.presentation, oracle.seed_word(st, word)) == before
        assert word_length(slid.presentation, oracle.seed_word(slid, word)) == after
    print("PASS criterion 3: slide moves witness lengths 1->2, 2->4, 3->5, 4->6")


def test_criterion_4_explore_never_contradicts_check():
    t0 = time.perf_counter()
    graphs = [g for g in enumerate_graphs(2, 6) if is_reduced(g)]
    conclusive = 0
    for g in graphs:
        verdict = check(g)
        report = explore(initial_state(g))
        if report.rigid == "inconclusive":
            continue
        conclusive += 1
        assert (report.rigid == "yes") == verdict.rigid, serialize(g)
    elapsed = time.perf_counter() - t0
    assert conclusive >= 0.9 * len(graphs), (conclusive, len(graphs))
    assert elapsed < 300.0, elapsed
    print("PASS criterion 4: explorer agrees with check on %d conclusive of "
          "%d reduced graphs (%.1fs)" % (conclusive, len(graphs), elapsed))


def test_criterion_5_equal_label_loop():
    g = parse("vertex x\nvertex y\nedge c x 2 2 x\nedge h x 2 3 y\n")
    verdict = check(g)
    assert not verdict.rigid and verdict.violations
    st = initial_state(g)
    moves = witness_search(st)
    assert len(moves) == 1 and isinstance(moves[0], Slide)
    slid = reduce_state(apply_move(st, moves[0]))
    assert is_reduced(slid.graph)
    separated = None
    for radius in range(1, 7):
        if fingerprint(st, radius) != fingerprint(slid, radius):
            separated = radius
            break
    assert separated is not None
    print("PASS criterion 5: equal-label loop slide detected and separated "
          "by fingerprint at radius %d" % separated)


def test_criterion_6_induction_arithmetic():
    for n in range(2, 31):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for d in divisors:
            assert ascending_equivalent(n, d) == (d == 1 or d == n), (n, d)
        all_equivalent = all(ascending_equivalent(n, d) for d in divisors)
        rigid = check(loop(1, n)).rigid
        assert rigid == all_equivalent, n
        assert rigid == (n in set(oracle.oracle_primes(n))), n
    print("PASS criterion 6: divisor classes of loop(1,n) collapse only for "
          "d=1 or d=n, matching the prime criterion")


def test_criterion_7_move_soundness_suite():
    t0 = time.perf_counter()
    rng = random.Random(0xACCE97)
    bounds = MoveBounds(max_edges=6, max_label=60, max_expansion=6)
    for trial in range(200):
        st = initial_state(oracle.random_graph(rng, 3, 3, 6))
        base_fp = modulus_fingerprint(st)
        base_betti = len(st.graph.edges) - len(st.graph.vertices) + 1
        for _ in range(rng.randrange(1, 6)):
            moves = enumerate_moves(st, bounds)
            if not moves:
                break
            st = apply_move(st, rng.choice(moves))  # verify=True
            st.verify()
            assert modulus_fingerprint(st) == base_fp, trial
            betti = len(st.graph.edges) - len(st.graph.vertices) + 1
            assert betti == base_betti, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed
    print("PASS criterion 7: 200 random move sequences preserve relations, "
          "ellipticity, modulus and Betti number (%.1fs)" % elapsed)


def test_criterion_8_word_engine_axioms():
    rng = random.Random(0x1E57)
    for trial in range(500):
        g = oracle.random_graph(rng, 3, 3, 6)
        p = Presentation(g)
        a = oracle.random_word(rng, p.generators)
        w = oracle.random_word(rng, p.generators)
        la = word_length(p, a)
        conj = w + a + tuple((s, -e) for s, e in reversed(w))
        assert word_length(p, conj) == la, trial
        k = rng.randrange(1, 5)
        assert word_length(p, a * k) == k * la, trial
    for n in (2, 3, 5, 10):
        p = Presentation(loop(1, n))
        for trial in range(40):
            word = oracle.random_word(rng, p.generators)
            texp = sum(e for s, e in word if s == "t_c")
            assert word_length(p, word) == abs(texp), (n, word)
    print("PASS criterion 8: conjugation invariance, power linearity, and "
          "ascending |t-exponent| law hold on random words")
