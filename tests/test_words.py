import hashlib
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import oracle
from gbsr.errors import MalformedWordError, UnknownGeneratorError, WordTooLongError
from gbsr.graph import parse
from gbsr.words import (
    Presentation,
    _append,
    _extend,
    _seam_length,
    cyclically_reduce_letters,
    format_word,
    free_reduce,
    invert_path_letters,
    invert_word,
    is_elliptic,
    is_trivial,
    normalize_word,
    parse_word,
    reduce,
    reduce_letters,
    substitute,
    to_path_word,
    translation_length,
    word_length,
    word_modulus,
)

SEG23 = "vertex a\nvertex b\nedge e a 2 3 b\n"
LOOP23 = "vertex v\nedge c v 2 3 v\n"
BS14 = "vertex v\nedge c v 1 4 v\n"
THETA = "vertex u\nvertex v\nedge e u 2 3 v\nedge f u 5 7 v\n"
UNITS = "vertex v\nedge c1 v 1 2 v\nedge c2 v 1 3 v\n"
BS13 = "vertex v\nedge c v 1 3 v\n"


def pres(text):
    return Presentation(parse(text))


def test_parse_and_format_words():
    w = parse_word("t_c x_v^-3")
    assert w == (("t_c", 1), ("x_v", -3))
    assert format_word(w) == "t_c x_v^-3"
    assert parse_word("x_v^0") == ()
    assert format_word(()) == "1"
    assert parse_word("x_v x_v^2") == (("x_v", 3),)
    with pytest.raises(MalformedWordError):
        parse_word("y_v")
    with pytest.raises(MalformedWordError):
        parse_word("x_v^")


def test_an_exponent_past_the_int_digit_limit_is_malformed():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("int() converts any number of digits here")
    with pytest.raises(MalformedWordError, match="exponent of x_v has too many digits"):
        parse_word("t_c x_v^-" + "9" * (limit + 1))


@pytest.mark.parametrize("text", ["x_v t_c^-2000001", "x_v t_c^700000 " * 3])
def test_a_power_past_the_letter_budget_is_refused(text):
    # the budget counts the letters every power of the word spells out
    p = Presentation(parse("vertex v\nedge c v 1 3 v\n"))
    with pytest.raises(WordTooLongError, match="a power of t_c takes the word past 2,000,000"):
        word_length(p, parse_word(text))


def test_words_inside_the_letter_budget_are_measured():
    p = Presentation(parse("vertex v\nedge c v 1 3 v\n"))
    assert word_length(p, parse_word("x_v t_c^-1000000")) == 1000000
    assert word_length(p, parse_word("x_v t_c^600000 " * 3)) == 1800000
    # a lone power is measured once, and a power of x_v is one letter
    assert word_length(p, parse_word("t_c^-2000001")) == 2000001
    assert word_length(p, parse_word("x_v^2000001 t_c")) == 1


def test_free_reduce_and_invert():
    assert free_reduce([("a", 1), ("a", -1), ("b", 2)]) == (("b", 2),)
    assert free_reduce([("a", 2), ("a", -1)]) == (("a", 1),)
    w = (("a", 2), ("b", -1))
    assert invert_word(w) == (("b", 1), ("a", -2))
    assert free_reduce(list(w) + list(invert_word(w))) == ()


def test_presentation_spanning_tree_and_generators():
    p = pres(SEG23)
    assert p.base == "a"
    assert p.tree == frozenset({"e"})
    assert p.generators == ("x_a", "x_b")
    p = pres(THETA)
    # BFS from least vertex, ties by edge id: e joins the tree, f does not
    assert p.base == "u"
    assert p.tree == frozenset({"e"})
    assert p.generators == ("t_f", "x_u", "x_v")


def test_relators_die_under_reduction():
    for text in (SEG23, LOOP23, BS14, THETA, UNITS):
        p = pres(text)
        for rel in p.relators():
            assert is_trivial(p, to_path_word(p, rel))


def test_unknown_generator():
    p = pres(SEG23)
    with pytest.raises(UnknownGeneratorError):
        to_path_word(p, (("x_z", 1),))
    with pytest.raises(UnknownGeneratorError):
        to_path_word(p, (("t_e", 1),))  # e is a tree edge: no stable letter


# Expected lengths frozen from the scanning reducer in oracle.py.
LENGTH_TABLE = [
    (SEG23, "x_a", 0),
    (SEG23, "x_b", 0),
    (SEG23, "x_a x_b", 2),
    (SEG23, "x_a^2 x_b^3", 0),
    (SEG23, "x_a x_b^-3", 0),
    (SEG23, "x_a^3 x_b", 2),
    (SEG23, "x_a^4 x_b^6", 0),
    (SEG23, "x_a x_b x_a x_b", 4),
    (SEG23, "x_a x_b^2", 2),
    (LOOP23, "t_c", 1),
    (LOOP23, "t_c^2", 2),
    (LOOP23, "t_c x_v", 1),
    (LOOP23, "t_c x_v^2 t_c^-1", 0),
    (LOOP23, "t_c x_v t_c x_v", 2),
    (LOOP23, "t_c^-1 x_v t_c x_v", 2),
    (LOOP23, "t_c^-1 x_v^3 t_c", 0),
    (LOOP23, "t_c x_v t_c x_v t_c x_v", 3),
    (LOOP23, "t_c x_v^6 t_c^-1 x_v^-9", 0),
    (LOOP23, "t_c^-1 x_v^-1 t_c x_v", 2),
    (BS14, "t_c", 1),
    (BS14, "x_v t_c", 1),
    (BS14, "t_c x_v t_c^-1 x_v^-4", 0),
    (BS14, "t_c^-1 x_v t_c", 0),
    (BS14, "x_v t_c x_v t_c", 2),
    (BS14, "t_c^2 x_v t_c^-1 x_v t_c^-1", 0),
    (BS14, "t_c^-2 x_v t_c^2", 0),
    (THETA, "t_f", 2),
    (THETA, "x_u x_v", 2),
    (THETA, "x_u x_v^3", 0),
    (THETA, "x_u^5 x_v^7", 2),
    (THETA, "t_f x_u", 2),
    (THETA, "t_f x_v t_f^-1", 0),
    (THETA, "t_f x_u^5 t_f^-1 x_v^-7", 0),
    (UNITS, "t_c1", 1),
    (UNITS, "t_c2", 1),
    (UNITS, "t_c1 t_c2", 2),
    (UNITS, "t_c1 x_v t_c1^-1 x_v^-2", 0),
    (UNITS, "t_c2 x_v t_c2^-1", 0),
    (UNITS, "t_c1 t_c2^-1 x_v", 2),
]


@pytest.mark.parametrize("text,word,expected", LENGTH_TABLE)
def test_translation_length_frozen(text, word, expected):
    p = pres(text)
    assert word_length(p, parse_word(word)) == expected
    # second route: the fixpoint scanner from the test oracle
    letters = to_path_word(p, parse_word(word)).letters
    assert oracle.oracle_translation_length(p.graph, letters) == expected


def test_reduce_is_idempotent_and_matches_oracle():
    rng = random.Random(0xBEEF)
    for text in (SEG23, LOOP23, BS14, THETA, UNITS):
        p = pres(text)
        for _ in range(80):
            word = oracle.random_word(rng, p.generators)
            pw = to_path_word(p, word)
            assert reduce(p, pw) == pw  # to_path_word reduces eagerly
            assert pw.letters == oracle.oracle_reduce(p.graph, pw.letters)


def test_translation_length_matches_oracle_random():
    rng = random.Random(0xC0FFEE)
    for text in (SEG23, LOOP23, BS14, THETA, UNITS):
        p = pres(text)
        for _ in range(120):
            word = oracle.random_word(rng, p.generators)
            pw = to_path_word(p, word)
            assert translation_length(p, pw) == oracle.oracle_translation_length(
                p.graph, pw.letters
            )


def test_conjugation_invariance_random():
    rng = random.Random(0xD1CE)
    for text in (LOOP23, THETA):
        p = pres(text)
        for _ in range(80):
            g = oracle.random_word(rng, p.generators)
            w = oracle.random_word(rng, p.generators)
            conj = free_reduce(list(w) + list(g) + list(invert_word(w)))
            assert word_length(p, conj) == word_length(p, g)


def test_power_linearity_random():
    rng = random.Random(0xFACE)
    for text in (LOOP23, THETA):
        p = pres(text)
        for _ in range(60):
            g = oracle.random_word(rng, p.generators)
            k = rng.randint(1, 4)
            power = free_reduce(list(g) * k)
            assert word_length(p, power) == k * word_length(p, g)


def test_elliptic_vertex_generators():
    for text in (SEG23, LOOP23, BS14, THETA, UNITS):
        p = pres(text)
        for sym in p.generators:
            if sym.startswith("x_"):
                assert is_elliptic(p, to_path_word(p, ((sym, 5),)))


def test_normalize_word_round_trip():
    p = pres(LOOP23)
    w = parse_word("t_c x_v^2 t_c^-1")
    n = normalize_word(p, w)
    assert n == (("x_v", 3),)
    # normalizing twice changes nothing
    assert normalize_word(p, n) == n


def test_substitute_applies_tables():
    table = {"a": (("x", 1),), "b": (("x", -1), ("y", 1))}
    assert substitute((("a", 2), ("b", 1)), table) == (("x", 1), ("y", 1))


def test_modulus_values():
    p = pres(UNITS)
    assert word_modulus(p, parse_word("t_c1")) == Fraction(2)
    assert word_modulus(p, parse_word("t_c2")) == Fraction(3)
    assert word_modulus(p, parse_word("t_c1 t_c2^-1")) == Fraction(2, 3)
    assert word_modulus(p, parse_word("x_v^7")) == Fraction(1)
    p = pres(LOOP23)
    assert word_modulus(p, parse_word("t_c")) == Fraction(3, 2)
    assert word_modulus(p, parse_word("t_c^-2")) == Fraction(4, 9)


def test_modulus_is_multiplicative_random():
    rng = random.Random(0xABBA)
    p = pres(UNITS)
    for _ in range(60):
        a = oracle.random_word(rng, p.generators)
        b = oracle.random_word(rng, p.generators)
        ab = free_reduce(list(a) + list(b))
        assert word_modulus(p, ab) == word_modulus(p, a) * word_modulus(p, b)


def test_cyclic_reduction_matches_oracle_on_conjugates():
    rng = random.Random(0x5EA4)
    for _ in range(150):
        g = oracle.random_graph(rng, 3, 4, 6)
        p = Presentation(g)
        for _ in range(8):
            word = oracle.random_word(rng, p.generators, max_syllables=6)
            c = oracle.random_word(rng, p.generators, max_syllables=3)
            conj = free_reduce(list(c) + list(word) + list(invert_word(c)))
            letters = to_path_word(p, conj).letters
            cyc = cyclically_reduce_letters(g, letters)
            assert oracle.edge_count(cyc) == oracle.oracle_translation_length(g, letters)


def test_cyclic_reduction_is_linear_in_conjugator_length():
    p = pres(BS13)
    k = 10_000
    t0 = time.perf_counter()
    assert word_length(p, parse_word("t_c^-%d x_v^7 t_c^%d" % (k, k))) == 0
    assert time.perf_counter() - t0 < 1.0


def _substitute_by_repetition(word, table):
    out = []
    for sym, exp in word:
        image = table[sym] if exp > 0 else invert_word(table[sym])
        for _ in range(abs(exp)):
            out.extend(image)
    return free_reduce(out)


def test_substitute_matches_plain_repetition_random():
    rng = random.Random(0x5B57)
    letters = ("x", "y", "z")
    conjugates = 0
    for _ in range(600):
        table = {}
        for sym in ("a", "b", "c"):
            if rng.random() < 0.6:
                # u s^e u^-1, with u not necessarily freely reduced
                u = oracle.random_word(rng, letters, max_syllables=3) if rng.random() < 0.8 else ()
                core = ((rng.choice(letters), rng.choice([-3, -2, -1, 1, 2, 3])),)
                table[sym] = u + core + invert_word(u)
            else:
                table[sym] = oracle.random_word(rng, letters)
        word = oracle.random_word(rng, ("a", "b", "c"), max_syllables=5, max_exp=7)
        conjugates += sum(abs(e) > 1 and len(table[s]) % 2 == 1 for s, e in word)
        assert substitute(word, table) == _substitute_by_repetition(word, table), (word, table)
    assert conjugates > 500


def test_substitute_power_of_a_conjugate_is_constant_time():
    table = {"x": (("t", -1), ("x", 5), ("t", 1)), "t": (("t", 1),)}
    t0 = time.perf_counter()
    word = (("t", 1), ("x", 10**12), ("t", -1), ("x", -(10**9)))
    assert substitute(word, table) == (
        ("x", 5 * 10**12),
        ("t", -1),
        ("x", -5 * 10**9),
        ("t", 1),
    )
    assert time.perf_counter() - t0 < 0.1


def _random_walk_letters(rng, g, steps):
    """Letters of a random walk in g: powers that are often multiples of a
    label at the current vertex, steps across ends, and steps back."""
    v = rng.choice(g.vertices)
    out, taken = [], []
    for _ in range(steps):
        r = rng.random()
        if r < 0.35:
            labels = [g.end_label(e) for e in g.ends_at(v)] or [1]
            out.append(("v", v, rng.choice(labels) * rng.randint(-3, 3)))
        elif r < 0.6 and taken:
            back = taken.pop()
            out.append(("e", back[1], -back[2]))
            e = g.edge(back[1])
            v = e.va if back[2] == 1 else e.vb
        elif g.ends_at(v):
            end = rng.choice(g.ends_at(v))
            e = g.edge(end.edge)
            letter = ("e", e.eid, 1 if end.side == "A" else -1)
            v = e.vb if end.side == "A" else e.va
            out.append(letter)
            taken.append(letter)
    return tuple(out)


# sha256 of the reduce_letters outputs below, recorded before reduction
# moved to one table-driven stack kernel
REDUCE_DIGEST = "981c1426ccbc240d5bef09bdcbe7caa495f78b9ca99dad88afef38050032c316"


def test_reduce_letters_digest_is_unchanged():
    rng = random.Random(0x4ED0CE)
    h = hashlib.sha256()
    pinched = 0
    for _ in range(300):
        g = oracle.random_graph(rng, 3, 4, 6)
        for _ in range(80):
            letters = _random_walk_letters(rng, g, rng.randint(0, 16))
            out = reduce_letters(g, letters)
            pinched += oracle.edge_count(out) < oracle.edge_count(letters)
            h.update(repr(out).encode())
    assert pinched > 10_000  # most sequences exercise the pinch rule
    assert h.hexdigest() == REDUCE_DIGEST


def test_word_length_of_powers_matches_the_plain_route():
    rng = random.Random(0x9047)
    shortcut = 0
    for text in (SEG23, LOOP23, BS14, THETA, UNITS):
        p = pres(text)
        for _ in range(60):
            k = rng.choice([e for e in range(-50, 51) if e])
            u = oracle.random_word(rng, p.generators, max_syllables=3)
            core = rng.choice(
                [((rng.choice(p.generators), k),), oracle.random_word(rng, p.generators)]
            )
            for word in (core, free_reduce(list(u) + list(core) + list(invert_word(u)))):
                plain = translation_length(p, to_path_word(p, word))
                assert word_length(p, word) == plain, (text, word)
                shortcut += len(word) == 1
    assert shortcut > 50


def test_word_length_of_a_large_power_is_fast():
    p = pres(BS13)
    t0 = time.perf_counter()
    assert word_length(p, parse_word("t_c^1000000")) == 1_000_000
    assert word_length(p, parse_word("x_v^5 t_c^-1000000 x_v^-5")) == 1_000_000
    assert time.perf_counter() - t0 < 0.05


def test_word_length_rejects_unknown_generators_it_could_strip():
    p = pres(SEG23)
    with pytest.raises(UnknownGeneratorError):
        word_length(p, parse_word("t_e x_a t_e^-1"))  # e is a tree edge


# a loop away from the base: the closed-up piece of t_c backtracks
# across e where two copies meet
AWAY = "vertex a\nvertex b\nedge e a 2 3 b\nedge c b 2 4 b\n"


def _copied_letters(p, word):
    """Path letters of word with every power copied out in full and
    nothing reduced: the construction to_path_word must agree with."""
    letters = []
    for sym, exp in word:
        kind, _, name = sym.partition("_")
        if kind == "x":
            out = p.path_to[name]
            letters += out + (("v", name, exp),) + invert_path_letters(out)
        else:
            e = p.graph.edge(name)
            fwd = p.path_to[e.vb] + (("e", name, -1),) + invert_path_letters(p.path_to[e.va])
            letters += (fwd if exp > 0 else invert_path_letters(fwd)) * abs(exp)
    return tuple(letters)


def _junction_free(p, sym):
    e = p.graph.edge(sym[2:])
    piece = p.path_to[e.vb] + (("e", e.eid, -1),) + invert_path_letters(p.path_to[e.va])
    return reduce_letters(p.graph, piece * 2) == piece * 2


def _seeded_presentations(rng):
    for text in (LOOP23, BS13, THETA, UNITS, AWAY):
        yield pres(text)
    for _ in range(60):
        yield Presentation(oracle.random_graph(rng, 3, 4, 6))


def test_to_path_word_equals_reducing_the_copied_letters():
    rng = random.Random(0x70BA7)
    free = stuck = loops = 0
    for p in _seeded_presentations(rng):
        stable = [sym for sym in p.generators if sym.startswith("t_")]
        loops += len(p.graph.vertices) == 1 and bool(stable)
        for sym in stable:
            if _junction_free(p, sym):
                free += 1
            else:
                stuck += 1
        for _ in range(20):
            word = oracle.random_word(rng, p.generators, max_syllables=5, max_exp=50)
            want = reduce_letters(p.graph, _copied_letters(p, word))
            assert to_path_word(p, word).letters == want, word
    assert free > 30 and stuck > 10 and loops > 10


def test_append_equals_extend_on_reduced_blocks():
    rng = random.Random(0xB10C)
    head_pinched = 0
    for _ in range(200):
        g = oracle.random_graph(rng, 3, 4, 6)
        for _ in range(20):
            letters = _random_walk_letters(rng, g, rng.randint(0, 24))
            cut = rng.randint(0, len(letters))
            stack = list(reduce_letters(g, letters[:cut]))
            block = reduce_letters(g, letters[cut:])
            want = _extend(g, list(stack), block)
            assert _append(g, list(stack), block) == want
            head_pinched += len(want) < len(stack) + len(block)
    assert head_pinched > 500


def test_word_length_equals_the_oracle_on_powers():
    rng = random.Random(0x1E47)
    for p in _seeded_presentations(rng):
        for _ in range(4):
            word = oracle.random_word(rng, p.generators, max_syllables=4, max_exp=8)
            letters = to_path_word(p, word).letters
            assert word_length(p, word) == oracle.oracle_translation_length(p.graph, letters)


# sha256 of the cyclically_reduce_letters outputs below, recorded before
# the seam was peeled by index
CYCLIC_DIGEST = "c4434cf9e7cdfe1224034d6e8b599ab275e4d23004003054de80ee602a5563dc"


def test_seam_length_counts_the_edges_of_the_cyclic_reduction():
    rng = random.Random(0x5EA3)
    h = hashlib.sha256()
    leading = pinched = twice = 0
    for _ in range(200):
        g = oracle.random_graph(rng, 3, 4, 6)
        p = Presentation(g)
        for _ in range(10):
            word = oracle.random_word(rng, p.generators, max_syllables=5)
            c = oracle.random_word(rng, p.generators, max_syllables=3)
            conj = free_reduce(list(c) + list(word) + list(invert_word(c)))
            w = list(reduce_letters(g, to_path_word(p, conj).letters))
            cyc = cyclically_reduce_letters(g, w)
            h.update(repr(cyc).encode())
            n = _seam_length(g, w)
            assert n == oracle.edge_count(cyc) == oracle.oracle_translation_length(g, w)
            pinches = (oracle.edge_count(w) - n) // 2  # across the seam
            leading += bool(w) and w[0][0] == "v"
            pinched += pinches >= 1
            twice += pinches >= 2
    assert leading > 500 and pinched > 1000 and twice > 500
    assert h.hexdigest() == CYCLIC_DIGEST


def test_word_length_on_a_20000_vertex_path_reads_two_paths():
    # tree paths and lifts are built when read, so two lifts cost O(n):
    # about 0.4 s and an 18 MB peak under tracemalloc on a 2-core x86-64
    # host; building every path, as before, took 1.9 s and 178 MB already
    # at n = 2,000, and grows fourfold per doubling
    n = 20_000
    g = parse("".join("vertex v%d\n" % i for i in range(n))
              + "".join("edge e%d v%d 2 3 v%d\n" % (i, i, i + 1) for i in range(n - 1)))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        p = Presentation(g)
        assert word_length(p, parse_word("x_v0 x_v%d" % (n - 1))) == 39998
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 3.0 and peak < 100e6
    # only the vertex read is stored, not every vertex its path passes
    assert sorted(p.path_to) == ["v0", "v%d" % (n - 1)]
