import random
import time
import tracemalloc

import pytest

import oracle
from oracle import divisors_are_powers
from gbsr.errors import AscendingCaseError, NotAscendingError, NotReducedError
from gbsr.graph import GbsGraph, parse
from gbsr.rigidity import (
    _ascending_n,
    _is_prime,
    _strong_lucas,
    _strong_probable_prime,
    ascending_modulus,
    ascending_rigid,
    check,
    divisible_pairs,
    is_ascending,
    is_reduced,
    is_strongly_slide_free,
    nonascending_rigid,
)


def loop(m, n):
    return parse("vertex v\nedge c v %d %d v\n" % (m, n))


def test_is_reduced():
    assert is_reduced(loop(1, 6))  # loops never collapse
    assert is_reduced(parse("vertex a\nvertex b\nedge e a 2 3 b\n"))
    assert not is_reduced(parse("vertex a\nvertex b\nedge e a 2 1 b\n"))


def test_is_ascending():
    assert is_ascending(loop(1, 4))
    assert is_ascending(loop(4, 1))
    assert is_ascending(loop(1, 1))
    assert not is_ascending(loop(2, 6))
    assert not is_ascending(parse("vertex a\nvertex b\nedge e a 1 1 b\n".replace("1 1", "2 3")))
    with pytest.raises(NotReducedError):
        is_ascending(parse("vertex a\nvertex b\nedge e a 2 1 b\n"))


def test_ascending_modulus():
    assert ascending_modulus(loop(1, 4)) == 4
    assert ascending_modulus(loop(4, 1)) == 4
    assert ascending_modulus(loop(1, 1)) == 1
    with pytest.raises(NotAscendingError):
        ascending_modulus(loop(2, 6))
    with pytest.raises(NotReducedError):
        ascending_modulus(parse("vertex v\nvertex w\nedge c v 1 4 v\nedge e v 1 3 w\n"))


def test_ascending_rigid_matches_prime_rule():
    primes = oracle.oracle_primes(200)
    for n in range(1, 201):
        assert ascending_rigid(n) == (n == 1 or n in primes)


def test_divisors_are_powers_equals_prime_rule():
    # second formulation: every divisor of n is a power of n
    primes = oracle.oracle_primes(10000)
    for n in range(1, 10001):
        assert divisors_are_powers(n) == (n == 1 or n in primes)


def test_nonascending_rigid_simple_cases():
    assert nonascending_rigid(loop(2, 3)).rigid  # no divisibility at all
    assert nonascending_rigid(loop(2, 2)).rigid  # equal labels on one loop
    v = nonascending_rigid(loop(2, 4))
    assert not v.rigid
    assert any(tag == "same-loop" for _, _, _, tag in v.violations)


def test_nonascending_rigid_divides_tag():
    g = parse("vertex x\nvertex y\nedge c x 2 2 x\nedge h x 2 3 y\n")
    v = nonascending_rigid(g)
    assert not v.rigid
    tags = {(str(e), str(f), t) for _, e, f, t in v.violations}
    assert ("c.A", "h.A", "divides") in tags
    assert ("h.A", "c.A", "divides") in tags
    assert len(v.violations) == 4


def test_unit_loop_valence_exemption():
    # a (1,1)-loop plus one more edge: exactly three ends at v is allowed
    g = parse("vertex u\nvertex v\nedge f v 1 1 v\nedge e v 2 3 u\n")
    assert nonascending_rigid(g).rigid
    # a fourth end breaks the exemption
    h = parse(
        "vertex u\nvertex v\nvertex w\n"
        "edge f v 1 1 v\nedge e v 2 3 u\nedge g v 5 7 w\n"
    )
    v = nonascending_rigid(h)
    assert not v.rigid
    assert any(tag == "valence" for _, _, _, tag in v.violations)


def test_nonascending_rigid_rejects_wrong_regime():
    with pytest.raises(NotReducedError):
        nonascending_rigid(parse("vertex a\nvertex b\nedge e a 2 1 b\n"))
    with pytest.raises(AscendingCaseError):
        nonascending_rigid(loop(1, 4))


def test_strongly_slide_free():
    assert is_strongly_slide_free(loop(2, 3))
    # equal labels on one loop still divide each other: not slide-free,
    # yet rigid through the equal-label loop exemption
    assert not is_strongly_slide_free(loop(2, 2))
    assert nonascending_rigid(loop(2, 2)).rigid
    assert not is_strongly_slide_free(loop(2, 4))
    assert not is_strongly_slide_free(loop(1, 6))


def test_check_ascending_loop_series():
    primes = oracle.oracle_primes(50)
    for s in range(1, 51):
        verdict = check(loop(1, s))
        assert verdict.reduced and verdict.ascending
        assert verdict.rigid == (s == 1 or s in primes)


def test_check_nonreduced_reports_witness():
    verdict = check(parse("vertex a\nvertex b\nedge e a 2 1 b\n"))
    assert not verdict.reduced
    assert not verdict.rigid
    assert verdict.violations[0][3] == "not-reduced"


def test_check_verdict_json_shape():
    verdict = check(loop(1, 6))
    data = verdict.to_json()
    assert set(data) == {"reduced", "ascending", "stronglySlideFree", "rigid", "violations"}
    assert data["reduced"] is True
    assert data["ascending"] is True
    assert data["rigid"] is False
    assert isinstance(data["violations"], list)
    for item in data["violations"]:
        assert set(item) == {"vertex", "endE", "endF", "condition"}


def test_check_agrees_under_isomorphism():
    rng = random.Random(0xA11CE)
    for _ in range(40):
        g = oracle.random_graph(rng)
        if not is_reduced(g):
            continue
        # rename everything and flip random edges
        vmap = {v: "z%d" % i for i, v in enumerate(g.vertices)}
        edges = []
        for i, e in enumerate(g.edges):
            if rng.random() < 0.5:
                edges.append(("y%d" % i, vmap[e.va], e.la, vmap[e.vb], e.lb))
            else:
                edges.append(("y%d" % i, vmap[e.vb], e.lb, vmap[e.va], e.la))
        h = GbsGraph(list(vmap.values()), edges)
        a, b = check(g), check(h)
        assert (a.reduced, a.ascending, a.strongly_slide_free, a.rigid) == (
            b.reduced,
            b.ascending,
            b.strongly_slide_free,
            b.rigid,
        )


def test_is_prime_is_exact():
    primes = oracle.oracle_primes(10**5)
    for n in range(10**5 + 1):
        assert _is_prime(n) == (n in primes), n
    assert not _is_prime(561)  # Carmichael number
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert _is_prime(2**61 - 1)
    assert not _is_prime((10**9 + 7) * (10**9 + 9))
    # strong pseudoprime to every base 2..37, caught only by base 41
    assert not _is_prime(318665857834031151167461)
    assert not check(loop(1, 318665857834031151167461)).rigid


def test_check_on_huge_prime_loop_is_fast():
    t0 = time.perf_counter()
    verdict = check(loop(1, 2**61 - 1))
    assert time.perf_counter() - t0 < 0.1
    assert verdict.rigid and verdict.ascending


def test_divisible_pairs_match_a_brute_force_scan():
    rng = random.Random(0xD1B)
    for _ in range(300):
        g = oracle.random_graph(rng, 4, 5, 12)
        ends = [(v, (eid, side), lab) for eid, va, la, vb, lb in g.edges
                for v, side, lab in ((va, "A", la), (vb, "B", lb))]
        expected = sorted(
            (g.vertices.index(v), e, f)
            for v, e, le in ends
            for w, f, lf in ends
            if v == w and e != f and le % lf == 0
        )
        pairs = list(divisible_pairs(g))
        assert [(g.vertices.index(v), tuple(e), tuple(f)) for v, e, f in pairs] == expected
        assert is_strongly_slide_free(g) == (not pairs)
        if is_reduced(g) and not is_ascending(g):
            assert nonascending_rigid(g).strongly_slide_free == (not pairs)


def test_is_prime_above_the_miller_rabin_bound():
    t0 = time.perf_counter()
    assert _is_prime(2**89 - 1)
    assert _is_prime(2**107 - 1)
    assert _is_prime(2**127 - 1)
    assert not _is_prime((2**89 - 1) * (2**61 - 1))
    assert not _is_prime((2**89 - 1) ** 2)
    assert time.perf_counter() - t0 < 0.1


def test_check_on_a_huge_prime_loop_is_fast():
    t0 = time.perf_counter()
    assert check(loop(1, 2**89 - 1)).rigid
    assert not check(loop(1, (2**89 - 1) * 3)).rigid
    assert time.perf_counter() - t0 < 0.1


def test_strong_lucas_test_against_the_sieve():
    primes = oracle.oracle_primes(10**6)
    # every strong Lucas pseudoprime below 10^5 with Selfridge's
    # parameters (OEIS A217255)
    pseudo = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    assert [n for n in range(3, 10**5, 2) if _strong_lucas(n) and n not in primes] == pseudo
    rng = random.Random(0x1CA5)
    for _ in range(20_000):
        n = rng.randrange(3, 10**6, 2)
        if n in primes:
            assert _strong_lucas(n), n
        # Baillie-PSW: no composite passes both tests below 2^64
        assert (_strong_probable_prime(n, 2) and _strong_lucas(n)) == (n in primes), n


def test_ascending_reader_matches_the_public_tests_and_the_inductions():
    from gbsr.explorer import enumerate_graphs
    from gbsr.moves import Induction, MoveBounds, enumerate_moves, initial_state

    # a one-vertex graph is reduced, so the reader needs no reduced graph
    non_reduced = [
        parse("vertex a\nvertex b\nedge e a 1 2 b\n"),
        parse("vertex a\nvertex b\nedge e a 1 1 b\nedge c a 1 4 a\n"),
        parse("vertex a\nvertex b\nvertex c\nedge e a 2 1 b\nedge f b 1 3 c\nedge l c 1 2 c\n"),
    ]
    seen = set()
    for g in enumerate_graphs(2, 6) + non_reduced:
        n = _ascending_n(g)
        if is_reduced(g) and is_ascending(g):
            assert n == ascending_modulus(g), g.edges
        else:
            assert n is None, g.edges
        # no expansion: only the inductions are in question
        moves = enumerate_moves(initial_state(g), MoveBounds(max_edges=len(g.edges)))
        assert any(type(mv) is Induction for mv in moves) == (n is not None), g.edges
        seen.add((n is None, is_reduced(g)))
    assert seen == {(False, True), (True, True), (True, False)}


def test_check_keeps_no_list_of_the_divisible_pairs():
    # n loops (2, 3) at one vertex: 2n(n - 1) violating pairs, each kept
    # once as a violation; a second list of the pairs doubles the peak
    n = 250
    g = parse("vertex v\n" + "".join("edge e%d v 2 3 v\n" % i for i in range(n)))
    tracemalloc.start()
    try:
        verdict = check(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(verdict.violations) == 2 * n * (n - 1)
    assert peak / len(verdict.violations) < 120
