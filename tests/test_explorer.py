import hashlib
import json
import random
import time
from collections import Counter, deque
from dataclasses import replace

import pytest

import oracle
from gbsr.errors import BoundsTooTightError, BrokenMarkingError, NoViolationError
import gbsr.explorer
import gbsr.graph
from gbsr.explorer import (
    ExploreBounds,
    _ClassRecord,
    _ClassTable,
    _legal_children,
    _lengths,
    _reduce,
    _reduced_search,
    _sample_plan,
    _soundness_check,
    _spread,
    _traverse,
    ascending_equivalent,
    enumerate_graphs,
    explore,
    fingerprint,
    reduce_state,
    witness_search,
)
from gbsr.graph import GbsGraph, _canonical_key, is_isomorphic, parse, parse_end, serialize, validate
from gbsr.moves import (
    Collapse,
    Expansion,
    Induction,
    MarkedState,
    MoveBounds,
    Slide,
    _LETTERS,
    _TrustedPool,
    _apply_move,
    _legal_content,
    apply_move,
    enumerate_moves,
    initial_state,
)
from gbsr.rigidity import check, collapse_witness, is_ascending, is_reduced, nonascending_rigid
from gbsr.words import invert_path_letters, reduce_letters, word_length

BS26 = "vertex v\nedge c v 2 6 v\n"
LOOP23 = "vertex v\nedge c v 2 3 v\n"
EQLOOP = "vertex x\nvertex y\nedge c x 2 2 x\nedge h x 2 3 y\n"
PATH22 = "vertex v0\nvertex v1\nvertex v2\nedge e0 v0 2 2 v1\nedge e1 v0 2 2 v2\n"


def state(text):
    return initial_state(parse(text))


def test_reduce_state_collapses_to_single_vertex():
    st = state("vertex a\nvertex b\nedge e a 3 1 b\nedge c b 5 7 b\n")
    red = reduce_state(st)
    assert is_reduced(red.graph)
    assert is_isomorphic(red.graph, parse("vertex a\nedge c a 15 21 a\n"))
    assert [str(m) for m in red.history] == ["collapse e"]


def test_explore_rigid_loop():
    rep = explore(state(LOOP23))
    assert rep.rigid == "yes"
    assert len(rep.classes) == 1
    assert rep.witness is None
    assert rep.classes[0].count >= 1


def test_explore_flexible_loop_finds_second_class():
    rep = explore(state(BS26))
    assert rep.rigid == "no"
    assert len(rep.classes) == 2
    assert rep.witness is not None
    # replay the witness with verification on; it must leave the class
    st = state(BS26)
    for mv in rep.witness:
        st = apply_move(st, mv)
    red = reduce_state(st)
    assert not is_isomorphic(red.graph, st.seed.presentation.graph)
    assert is_isomorphic(
        red.graph, parse("vertex u\nvertex v\nedge l u 1 3 u\nedge m v 2 3 u\n")
    )


def test_explore_separates_same_graph_classes():
    # sliding one (2,2) edge over the other relabels nothing but moves
    # the tree: both classes share one canonical graph
    rep = explore(state(PATH22))
    assert rep.rigid == "no"
    assert len(rep.classes) == 2
    a, b = rep.classes
    assert a.graph.canonical_form() == b.graph.canonical_form()
    assert a.fingerprint != b.fingerprint


def test_explore_agrees_with_check_on_equal_label_loop():
    rep = explore(state(EQLOOP))
    assert rep.rigid == "no"
    assert not check(parse(EQLOOP)).rigid


def test_explore_ascending_divisor_classes():
    rep = explore(state("vertex v\nedge c v 1 6 v\n"))
    assert rep.rigid == "no"
    # divisors 1 and 6 fuse (6 = 6^1 * 1); 2 and 3 are separate classes
    assert len(rep.classes) == 3
    assert [str(m) for m in rep.witness] == ["induct 2"]
    rep = explore(state("vertex v\nedge c v 1 7 v\n"))
    assert rep.rigid == "yes"
    rep = explore(state("vertex v\nedge c v 1 1 v\n"))
    assert rep.rigid == "yes"


def test_explore_bounds_errors_and_clipping():
    with pytest.raises(BoundsTooTightError):
        explore(state(BS26), ExploreBounds(max_label=3))
    rep = explore(state(LOOP23), ExploreBounds(max_depth=0))
    assert rep.rigid == "inconclusive"


def test_explore_clipped_by_the_state_budget_is_inconclusive():
    rep = explore(state("vertex v\nedge c v 2 2 v\n"), ExploreBounds(max_states=1))
    assert rep.rigid == "inconclusive" and rep.witness is None


def _round_trips(text):
    """The seed of text after four expand v 2 / collapse d0 pairs: the
    same graph and tree, with 8 moves of history."""
    st = state(text)
    for _ in range(4):
        st = apply_move(apply_move(st, Expansion("v", 2, ())), Collapse("d0"))
    return st


def test_the_depth_cap_counts_moves_from_the_seed_not_its_history():
    seed = _round_trips(BS26)
    assert len(seed.history) == ExploreBounds.max_depth
    assert explore(seed).rigid == "no"
    assert [str(m) for m in witness_search(seed)] == ["expand v 2 c.B", "slide d0.A across c.A"]
    rep, fresh = explore(_round_trips(LOOP23)), explore(state(LOOP23))
    assert rep.rigid == fresh.rigid == "yes"
    assert [c.count for c in rep.classes] == [c.count for c in fresh.classes] == [75]
    assert explore(_round_trips(LOOP23), ExploreBounds(max_depth=0)).rigid == "inconclusive"


def test_explore_refuses_a_negative_edge_allowance():
    with pytest.raises(BoundsTooTightError, match="max_extra_edges"):
        explore(state(BS26), ExploreBounds(max_extra_edges=-5))
    assert explore(state(LOOP23), ExploreBounds(max_extra_edges=0)).rigid == "yes"
    assert explore(state(BS26), ExploreBounds(max_extra_edges=1)).rigid == "no"


@pytest.mark.parametrize("max_states", [0, -3])
def test_explore_refuses_a_state_budget_below_one(max_states):
    # such a budget would end the search before the seed is expanded
    for text in (BS26, LOOP23):
        with pytest.raises(BoundsTooTightError, match="max_states"):
            explore(state(text), ExploreBounds(max_states=max_states))
    assert explore(state(BS26), ExploreBounds(max_states=1)).rigid == "inconclusive"


def test_explore_refuses_an_oversized_radius_at_once():
    # 2 seed generators: 2 * (3^r - 1) reduced words of length 1 to r
    t0 = time.perf_counter()
    with pytest.raises(BoundsTooTightError, match="radius 11 samples 354,292 words"):
        explore(state(BS26), ExploreBounds(radius=11))
    with pytest.raises(BoundsTooTightError, match="at least 354,292 words.*radius 10 or less"):
        explore(state(BS26), ExploreBounds(radius=10**9))
    with pytest.raises(BoundsTooTightError, match="at least 200,002 words"):
        explore(state("vertex v\n"), ExploreBounds(radius=10**9))
    assert time.perf_counter() - t0 < 1.0


def test_explore_samples_long_words_on_one_generator_quickly():
    # 10,000 sample words, up to 5000 letters long
    t0 = time.perf_counter()
    rep = explore(state("vertex v\n"), ExploreBounds(radius=5000))
    assert time.perf_counter() - t0 < 2.0
    assert rep.rigid == "yes" and len(rep.classes[0].fingerprint) == 10_000


def test_explore_is_deterministic():
    a = explore(state(BS26)).to_json()
    b = explore(state(BS26)).to_json()
    assert a == b


def test_explore_report_json_shape():
    data = explore(state(LOOP23)).to_json()
    assert set(data) == {"classes", "rigid", "witness"}
    cls = data["classes"][0]
    assert set(cls) == {"graph", "fingerprint", "representativeMoves", "count"}
    assert isinstance(cls["fingerprint"], list)


def test_fingerprint_sparse_evaluation_matches_direct():
    # second route: substitute into the marking and measure every word
    for text in (LOOP23, EQLOOP):
        st = _first_child(state(text))
        fp = fingerprint(st, 3)
        symbols = st.seed.presentation.generators
        letters = [(s, e) for s in symbols for e in (1, -1)]
        direct = []
        for length in range(1, 4):
            for w in oracle.recursive_reduced_words(letters, length):
                word = _merge(w)
                direct.append(word_length(st.presentation, oracle.seed_word(st, word)))
        assert list(fp) == direct


def _merge(letters):
    out = []
    for s, e in letters:
        if out and out[-1][0] == s:
            out[-1] = (s, out[-1][1] + e)
        else:
            out.append((s, e))
    return tuple(p for p in out if p[1])


def _first_child(st):
    from gbsr.moves import MoveBounds, enumerate_moves

    moves = list(enumerate_moves(st, MoveBounds(max_edges=4, max_label=36)))
    return apply_move(st, moves[0])


def test_witness_search_single_slide_on_equal_label_loop():
    moves = witness_search(state(EQLOOP))
    assert moves is not None
    assert len(moves) == 1
    assert isinstance(moves[0], Slide)


def test_witness_search_composite_for_one_loop():
    moves = witness_search(state(BS26))
    assert moves is not None
    st = state(BS26)
    for mv in moves:
        st = apply_move(st, mv)
    red = reduce_state(st)
    assert is_reduced(red.graph)
    assert not is_isomorphic(red.graph, parse(BS26))


def test_witness_search_unit_loop_valence():
    g = (
        "vertex u\nvertex v\nvertex w\n"
        "edge f v 1 1 v\nedge e v 2 3 u\nedge g v 5 7 w\n"
    )
    moves = witness_search(state(g))
    assert moves is not None and len(moves) == 1


def test_witness_search_slides_a_third_end_across_a_unit_loop_end():
    text = "vertex v\nvertex w\nedge c v 1 2 v\nedge h v 3 5 w\n"
    seed = state(text)
    _, E, F, tag = nonascending_rigid(seed.graph).violations[0]
    assert (tag, E, F) == ("same-loop", parse_end("c.B"), parse_end("c.A"))
    moves = witness_search(seed)
    assert [str(m) for m in moves] == ["slide h.A across c.A"]
    st = seed
    for mv in moves:
        st = apply_move(st, mv, verify=True)
    assert is_reduced(st.graph)
    assert fingerprint(st, 4) != fingerprint(seed, 4)
    assert explore(seed).rigid == "no"


def test_witness_search_lets_a_broken_marking_through(monkeypatch):
    def broken(st):
        raise BrokenMarkingError("seed relator no longer dies")

    monkeypatch.setattr(MarkedState, "verify", broken)
    with pytest.raises(BrokenMarkingError):
        witness_search(state(EQLOOP))


def test_witness_search_raises_when_rigid():
    with pytest.raises(NoViolationError):
        witness_search(state(LOOP23))


def test_witness_search_takes_every_graph_check_calls_non_rigid():
    # an ascending loop with a composite modulus: check says not rigid
    assert witness_search(state("vertex v\nedge c v 1 6 v\n")) == [Induction(2)]
    # a graph that is not reduced: explore reduces it first
    moves = witness_search(state("vertex a\nvertex b\nedge e a 1 2 b\nedge c a 2 4 a\n"))
    assert [str(m) for m in moves] == ["expand a 2 c.B", "slide d0.A across c.A", "collapse e"]
    with pytest.raises(NoViolationError):
        witness_search(state("vertex v\nedge c v 1 5 v\n"))
    rigid = [g for g in enumerate_graphs(2, 4) if check(g).rigid]
    assert any(is_ascending(g) for g in rigid) and not all(is_ascending(g) for g in rigid)
    for g in rigid:
        with pytest.raises(NoViolationError):
            witness_search(initial_state(g))


def _replay_witness(seed, moves):
    """Replay moves from seed with verification; the reduced end state."""
    st = seed
    for mv in moves:
        st = apply_move(st, mv, verify=True)
    return reduce_state(st)


def test_witness_search_on_every_non_rigid_two_edge_graph():
    first_moves = Counter()
    for g in enumerate_graphs(2, 6):
        if not is_reduced(g) or is_ascending(g):
            continue
        violations = check(g).violations
        if not violations:
            continue
        seed = initial_state(g)
        moves = witness_search(seed)
        assert moves, serialize(g)
        first = moves[0]
        if isinstance(first, Slide):
            assert (first.moving, first.across) in {(E, F) for _, E, F, _ in violations}, serialize(g)
        else:
            assert isinstance(first, Expansion), serialize(g)
            assert first.vertex in {v for v, _, _, _ in violations}, serialize(g)
        first_moves[type(first).__name__] += 1
        final = _replay_witness(seed, moves)
        assert is_reduced(final.graph), serialize(g)
        assert fingerprint(final, 4) != fingerprint(seed, 4), serialize(g)
    # 872 non-rigid graphs
    assert first_moves == {"Slide": 837, "Expansion": 35}


def test_witness_search_on_five_generators_uses_explores_radius_cap():
    seed = state(
        "vertex v\nedge a v 2 4 v\nedge b v 3 5 v\nedge c v 5 7 v\nedge d v 7 11 v\n"
    )
    t0 = time.perf_counter()
    moves = witness_search(seed)
    assert time.perf_counter() - t0 < 1.0
    assert [str(m) for m in moves] == ["slide b.B across c.A"]
    final = _replay_witness(seed, moves)
    assert is_reduced(final.graph)
    assert fingerprint(final, 4) != fingerprint(seed, 4)
    # radius 6 samples 664,300 words over five generators: refused at once
    t0 = time.perf_counter()
    with pytest.raises(BoundsTooTightError):
        witness_search(seed, radius=6)
    assert time.perf_counter() - t0 < 1.0


def test_ascending_equivalent_cases():
    assert ascending_equivalent(4, 1)
    assert ascending_equivalent(4, 4)
    assert not ascending_equivalent(4, 2)
    assert not ascending_equivalent(6, 2)
    assert not ascending_equivalent(6, 3)
    assert ascending_equivalent(6, 6)
    assert ascending_equivalent(2, 2)
    assert not ascending_equivalent(9, 3)
    assert ascending_equivalent(1, 1)


def test_ascending_equivalent_matches_brute_oracle():
    for n in range(2, 31):
        for d in range(1, n + 1):
            if n % d:
                continue
            assert ascending_equivalent(n, d) == oracle.oracle_ascending_equivalent(n, d)


def test_enumerate_graphs_small_count():
    gs = enumerate_graphs(1, 2)
    # trivial graph, three loops, three segments
    assert len(gs) == 7
    canons = {g.canonical_form() for g in gs}
    assert len(canons) == 7
    assert [serialize(g) for g in gs] == [serialize(g) for g in enumerate_graphs(1, 2)]


def test_enumerate_graphs_all_valid_and_sorted():
    gs = enumerate_graphs(2, 3)
    for g in gs:
        assert g.vertices  # validated on construction
    sizes = [len(g.edges) for g in gs]
    assert sizes == sorted(sizes)
    assert parse(LOOP23).canonical_form() in {g.canonical_form() for g in gs}


def test_ascending_equivalent_closed_form():
    assert not ascending_equivalent(1, 2)
    assert ascending_equivalent(1, 1)
    # 2^9 is a power of 2 beyond the reach of an exponent search capped at 8
    assert ascending_equivalent(2, 2**9)
    assert not ascending_equivalent(2, 3 * 2**9)
    for n in range(1, 8):
        for d in range(1, 600):
            assert ascending_equivalent(n, d) == oracle.oracle_ascending_equivalent(n, d, 10), (n, d)


def test_soundness_check_rejects_tampered_fingerprint():
    seed = state(BS26)
    bounds = ExploreBounds()
    report = explore(seed, bounds)
    _soundness_check(seed, report, _ClassTable(_sample_plan(len(seed.seed.presentation.generators), bounds.radius)))
    cls = report.classes[-1]
    fp = list(cls.fingerprint)
    fp[-1] += 1
    tampered = replace(report, classes=report.classes[:-1] + (replace(cls, fingerprint=tuple(fp)),))
    with pytest.raises(BrokenMarkingError):
        _soundness_check(seed, tampered, _ClassTable(_sample_plan(len(seed.seed.presentation.generators), bounds.radius)))


# sha256 over the JSON reports of the sample below, recorded before
# explore shared one graph pool between its states
PINNED_REPORTS = "90686a7de6865a20c71ecc1df238b157e46b2f5c9f36cf2b561aabff3dba5def"


def test_explore_reports_are_pinned():
    rng = random.Random(3141)
    digest = hashlib.sha256()
    done = 0
    while done < 60:
        g = oracle.random_graph(rng, max_vertices=3, max_edges=3, max_label=6)
        if not is_reduced(g):
            continue
        report = explore(initial_state(g)).to_json()
        digest.update(json.dumps(report, sort_keys=True).encode())
        done += 1
    assert digest.hexdigest() == PINNED_REPORTS


def test_explore_long_ascending_loop_is_fast():
    # the soundness replay transports t x t^-1 x^-n through the marking
    n = 2 * 10**6
    t0 = time.perf_counter()
    report = explore(parse("vertex v\nedge c v 1 %d v\n" % n))
    assert time.perf_counter() - t0 < 1.0
    assert report.rigid == "no"
    assert len(report.classes) == 7 * 8 - 1  # {1, n} form one class


def test_explore_semiprime_loop_is_fast():
    p, q = 10**9 + 7, 10**9 + 9
    t0 = time.perf_counter()
    report = explore(parse("vertex v\nedge c v 1 %d v\n" % (p * q)))
    assert time.perf_counter() - t0 < 2.0
    assert report.rigid == "no"
    assert [c.count for c in report.classes] == [2, 1, 1]


def test_classify_separates_states_that_share_a_canonical_graph():
    # PATH22 and the path after sliding e1 across e0 share a canonical
    # graph; their representative lengths tell them apart
    seed = state(PATH22)
    slid = reduce_state(apply_move(seed, Slide(parse_end("e1.A"), parse_end("e0.A"))))
    table = _ClassTable(_sample_plan(len(seed.seed.presentation.generators), 4))
    first, _ = table.classify(seed)
    second, created = table.classify(slid)
    assert created and second is not first
    assert first.lengths != second.lengths
    assert table.spread(second.lengths) == fingerprint(slid, 4)
    again, created = table.classify(slid)
    assert again is second and not created and second.count == 2


def _spelled(trie):
    """The syllable word of each leaf of a trie, in leaf order."""
    nodes, leaves = trie
    out = []
    for leaf in leaves:
        word = []
        while leaf:
            leaf, syllable = nodes[leaf - 1]
            word.append(syllable)
        out.append(tuple(reversed(word)))
    return out


def _named(st, word):
    """A syllable word over generator indices spelled over the seed's names."""
    symbols = st.seed.presentation.generators
    return tuple((symbols[s], e) for s, e in word)


def _oracle_lengths(st, trie):
    """Representative lengths by the oracle, on the concatenated images."""
    images = st.images()
    values = []
    for word in _spelled(trie):
        letters = []
        for sym, exp in _named(st, word):
            piece = images[sym] if exp > 0 else invert_path_letters(images[sym])
            letters.extend(piece * abs(exp))
        values.append(oracle.oracle_translation_length(st.graph, letters))
    return tuple(values)


def _entries(spreader, nleaves):
    """(index, power) per sample word, read back off a spreader."""
    gather, powers = spreader
    k = dict(powers)
    return [(i, k.get(pos, 1)) for pos, i in enumerate(gather(range(nleaves)))]


def test_index_plan_tries_share_prefixes():
    for nsymbols in range(1, 5):
        (nodes, leaves), _ = _sample_plan(nsymbols, 4)
        assert all(parent <= k for k, (parent, _) in enumerate(nodes))
        assert len(set(nodes)) == len(nodes)  # one node per prefix
        words = _spelled((nodes, leaves))
        assert len(set(words)) == len(words)
        sizes = [sum(abs(e) for _, e in w) for w in words]
        assert sizes == sorted(sizes)
        on_a_path = set()
        for leaf in leaves:
            while leaf:
                on_a_path.add(leaf)
                leaf = nodes[leaf - 1][0]
        assert on_a_path == set(range(1, len(nodes) + 1))


def test_stage_lengths_match_the_oracle_on_pooled_walks():
    rng = random.Random(0x7A1E)
    moved = 0
    for _ in range(200):
        g = oracle.random_graph(rng, 3, 3, 4)
        st = initial_state(g)
        pool = {}  # one pool for the whole walk, as explore keeps one
        for _ in range(rng.randint(1, 4)):
            children = _legal_children(st, len(g.edges) + 1, 16, pool)
            if not children:
                break
            st = _reduce(rng.choice(children)[1], pool)
        moved += bool(st.history)
        trie, _ = _sample_plan(len(st.seed.presentation.generators), 4)
        assert _lengths(st, trie) == _oracle_lengths(st, trie)
        for word, value in zip(_spelled(trie), _lengths(st, trie)):
            assert st.seed_length(_named(st, word)) == value
    assert moved > 150


def test_stage_lengths_inside_explore_match_the_oracle(monkeypatch):
    seen = []

    def recording(st, trie):
        values = _lengths(st, trie)
        seen.append((st, trie, values))
        return values

    monkeypatch.setattr(gbsr.explorer, "_lengths", recording)
    for text in (PATH22, EQLOOP, BS26, LOOP23, "vertex a\nvertex b\nedge e a 2 3 b\nedge f a 2 5 b\n",
                 "vertex v0\nvertex v1\nvertex v2\nedge e0 v0 2 2 v1\nedge e1 v0 3 2 v2\nedge e2 v1 3 3 v2\n",
                 "vertex v\nedge c v 2 4 v\nedge h v 3 3 v\n", "vertex v\nedge c v 3 9 v\n"):
        explore(parse(text), ExploreBounds(max_states=60))
    exact = {(st.graph.vertices, st.graph.edges, tuple(st.images().values()), trie) for st, trie, _ in seen}
    assert len(exact) >= 22
    for st, trie, values in seen:
        assert values == _oracle_lengths(st, trie)


def _exact_key(st):
    return (st.graph.vertices, st.graph.edges, tuple(st.images().values()))


def test_explore_measures_each_exact_state_once(monkeypatch):
    # the replay reads the lengths the searches measured; on BS(2,6) the
    # reduced search and the traversal measure 6 states, each once, and the
    # replay none of its 2 classes again; so too on PATH22, whose reduced
    # search measures a slide on its own graph, on LOOP23, a "yes" seed
    # whose traversal only counts, and on an ascending loop, whose classes
    # are measured without a search
    calls, replaying = [], []

    def recording(st, trie):
        calls.append((_exact_key(st), bool(replaying)))
        return _lengths(st, trie)

    def replay(*args):
        replaying.append(True)
        try:
            return _soundness_check(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(gbsr.explorer, "_lengths", recording)
    monkeypatch.setattr(gbsr.explorer, "_soundness_check", replay)
    for text, rigid, classes, measured in ((BS26, "no", 2, 6), (PATH22, "no", 2, 2), (LOOP23, "yes", 1, 1),
                                           ("vertex v\nedge c v 1 6 v\n", "no", 3, 3)):
        calls.clear()
        report = explore(state(text))
        assert report.rigid == rigid and len(report.classes) == classes
        assert not any(during for _, during in calls)
        assert len(calls) == len({key for key, _ in calls}) == measured, text


def test_class_table_memo_holds_the_lengths_of_its_keys(monkeypatch):
    tables = []

    class Recording(_ClassTable):
        def __init__(self, plan):
            super().__init__(plan)
            self.inserted = {}
            tables.append(self)

        def lengths(self, st):
            self.inserted.setdefault(_exact_key(st), st)
            return super().lengths(st)

    monkeypatch.setattr(gbsr.explorer, "_ClassTable", Recording)
    for text in (PATH22, EQLOOP, BS26, LOOP23, "vertex a\nvertex b\nedge e a 2 3 b\nedge f a 2 5 b\n",
                 "vertex v\nedge c v 2 4 v\nedge h v 3 3 v\n", "vertex v\nedge c v 3 9 v\nedge h v 2 2 v\n"):
        explore(state(text), ExploreBounds(max_states=60))
    assert sum(len(t.measured) for t in tables) >= 20
    for t in tables:
        assert t.measured.keys() == t.inserted.keys()
        for key, lengths in t.measured.items():
            st = t.inserted[key]
            assert lengths == _lengths(st, t.trie)
            assert t.lengths(st) is lengths


def test_soundness_replay_catches_a_wrong_search_marking(monkeypatch):
    # every reduced state the search classifies carries the images of its
    # two seed generators swapped; the replay rebuilds the true marking
    def swapped(st, pool):
        red = _reduce(st, pool)
        (a, ia), (b, ib) = red.images().items()
        return MarkedState(red.graph, red.history, red.seed, images={a: ib, b: ia})

    monkeypatch.setattr(gbsr.explorer, "_reduce", swapped)
    with pytest.raises(BrokenMarkingError):
        explore(state(BS26))


def _reduce_one_collapse_at_a_time(st):
    """The reference for _reduce: one public collapse at a time, each
    state's images read before the next move."""
    st.images()
    while (end := collapse_witness(st.graph)) is not None:
        st = apply_move(st, Collapse(end.edge), verify=False)
        st.images()
    return st


def test_reduce_composes_each_collapse_chain_exactly():
    rng = random.Random(0xC0A1E5CE)
    chains = long_chains = 0
    for _ in range(150):
        g = oracle.random_graph(rng, 3, 3, 4)
        st = initial_state(g)
        pool = {}  # one pool per walk, as explore keeps one
        for _ in range(rng.randint(1, 4)):
            children = _legal_children(st, len(g.edges) + 2, 16, pool)
            if not children:
                break
            for _, child in rng.sample(children, min(8, len(children))):
                got = _reduce(child, pool)
                images = got.images()  # read while child and its parents are lazy
                want = _reduce_one_collapse_at_a_time(child)
                assert (got.graph.vertices, got.graph.edges) == (
                    want.graph.vertices,
                    want.graph.edges,
                )
                assert images == want.images()
                assert got.history == want.history
                collapses = len(got.history) - len(child.history)
                chains += collapses >= 1
                long_chains += collapses >= 2
            st = rng.choice(children)[1]
    assert chains > 2000 and long_chains > 1000


def test_lazy_parents_give_the_images_of_read_ones():
    rng = random.Random(0x1A2B)
    bounds = MoveBounds(5, 24, 4)
    walked = 0
    for _ in range(120):
        read = lazy = initial_state(oracle.random_graph(rng, 3, 3, 4))
        pool = {}
        middle = []
        for _ in range(rng.randint(2, 5)):
            moves = enumerate_moves(lazy, bounds)
            if not moves:
                break
            mv = rng.choice(moves)
            read = _apply_move(read, mv, pool)
            read.images()
            lazy = _apply_move(lazy, mv, pool)
            middle.append(lazy)
        assert lazy.images() == read.images()
        assert lazy.history == read.history
        # one reduction at the end; the states in between stay lazy
        assert all(st._images is None for st in middle[:-1])
        walked += len(middle) >= 3
    assert walked > 50


def test_second_reduce_of_a_pooled_graph_reuses_its_chain(monkeypatch):
    seed = state("vertex a\nvertex b\nvertex c\nedge e a 3 1 b\nedge f b 2 1 c\nedge h c 5 7 c\n")
    pool = {}
    first = _reduce(seed, pool)
    calls = []
    monkeypatch.setattr(
        gbsr.explorer, "collapse_witness", lambda g: calls.append(g) or collapse_witness(g)
    )
    second = _reduce(seed, pool)
    assert calls == []
    assert second is not first and second.graph is first.graph
    assert second.history == first.history and len(first.history) == 2
    assert second.images() == first.images() == reduce_state(seed).images()


def test_reduce_leaves_one_lazy_state_per_collapse():
    # each collapse of the second chain drops the graph's base vertex, so
    # each of its steps re-bases the mapped paths along a tree path
    for text in (
        "vertex a\nvertex b\nvertex c\nedge e a 3 1 b\nedge f b 2 1 c\nedge h c 5 7 c\n",
        "vertex a\nvertex b\nvertex c\nvertex d\nedge e a 1 3 d\nedge f b 1 5 d\nedge g c 2 7 d\n",
    ):
        seed = state(text)
        reduced = _reduce(seed, {})
        chain = []
        st = reduced
        while st is not seed:
            chain.append(st)
            st = st._parent
        assert len(chain) == len(reduced.history) - len(seed.history) == 2
        for st, parent in zip(chain, chain[1:] + [seed]):
            assert st.history[:-1] == parent.history
            assert isinstance(st.history[-1], Collapse)
        assert reduced.images() == _reduce_one_collapse_at_a_time(seed).images()
        assert all(st._images is None for st in chain[1:])
        reduced.verify()


def test_pooled_expansion_children_build_no_presentation_until_read():
    st = state(BS26)
    children = [c for mv, c in _legal_children(st, 3, 36, {}) if isinstance(mv, Expansion)]
    assert len(children) >= 4
    assert all(c.graph._presentation is None for c in children)
    # the new vertex u0 sorts before v, so the mapped base is off the new base
    assert children[0].images() == apply_move(st, children[0].history[-1]).images()
    assert children[0].graph._presentation is not None


def test_reduced_words_and_index_plan_match_the_recursive_reference():
    # many symbols, long one-symbol words, and deeper plans on 2 and 3 symbols
    extra = [(6, 2), (1, 60), (2, 7), (3, 5)]
    for nsymbols, radius in [(n, r) for n in range(1, 5) for r in range(1, 5)] + extra:
        trie, spreader = _sample_plan(nsymbols, radius)
        want_stages, want_entries = oracle.oracle_index_plan(nsymbols, radius)
        assert _spelled(trie) == [w for stage in want_stages for w in stage]
        assert _entries(spreader, len(trie[1])) == want_entries


def test_spread_gathers_what_the_reference_spreads():
    rng = random.Random(0x5E7EAD)
    for nsymbols in range(1, 5):
        for radius in range(1, 5):
            (_, leaves), spreader = _sample_plan(nsymbols, radius)
            _, entries = oracle.oracle_index_plan(nsymbols, radius)
            values = tuple(rng.randrange(1, 40) for _ in leaves)
            got = _spread(spreader, values)
            assert type(got) is tuple and got == oracle.oracle_spread(entries, [values])
    # the smallest plan has two words, so the gather still gives a tuple
    assert _spread(_sample_plan(1, 1)[1], (5,)) == (5, 5)


def test_explore_builds_only_the_children_it_reads(monkeypatch):
    built, read = [], []
    real, listing = gbsr.explorer._child, gbsr.explorer._legal_content

    def counting(state, mv, *rest):
        built.append((state.history, mv))
        return real(state, mv, *rest)

    def reading(g, bounds):
        for listed in listing(g, bounds):
            read.append(listed)
            yield listed

    monkeypatch.setattr(gbsr.explorer, "_child", counting)
    monkeypatch.setattr(gbsr.explorer, "_legal_content", reading)
    report = explore(parse(BS26))
    assert report.rigid == "no"
    # the children built: of the moves that the traversal lists from each
    # state it expands, up to the witness's, each slide and collapse, which
    # it classifies, and each move to a new canonical graph, which it
    # queues; the reduced search reads no slide on BS(2,6), and builds its
    # one composite child through _apply_move
    inner, seed = MoveBounds(max_edges=3, max_label=36), state(BS26)
    want, listed, visited, queue = [], 0, {seed.graph.canonical_key()}, deque([seed])
    while queue:
        st = queue.popleft()
        for kind, fields, surgery in _legal_content(st.graph, inner):
            mv = kind(*fields)
            listed += 1
            key, classified = _canonical_key(*surgery), isinstance(mv, (Slide, Collapse))
            if classified or key not in visited:
                want.append((st.history, mv))
            if classified and st.history + (mv,) == report.witness[:st.depth + 1]:
                queue.clear()
                break
            if key not in visited:
                visited.add(key)
                queue.append(apply_move(st, mv, verify=False))
    assert built == want
    assert listed == len(read) > len(built) > 1

    # at the depth cap one listed move is enough to know the search was
    # clipped, and no child is built
    built.clear(), read.clear()
    assert explore(parse(BS26), ExploreBounds(max_depth=0)).rigid == "inconclusive"
    assert built == [] and len(read) == 1


def test_letter_maps_are_made_only_for_the_steps_images_reads(monkeypatch):
    # a child pays for its move's letter map only when images() reads
    # through its step; on a rigid seed the walk that counts children reads
    # none of them, and on BS(2,6) the search reads up to its witness.
    # children counts the states built and the contents the count walk reads
    made, children, walked = [], [], []
    for kind, letters in list(_LETTERS.items()):
        monkeypatch.setitem(_LETTERS, kind, lambda g, mv, f=letters: made.append(mv) or f(g, mv))
    for module in (gbsr.moves, gbsr.explorer):
        child = module._child
        monkeypatch.setattr(module, "_child", lambda *args, f=child: children.append(1) or f(*args))
    _, counting = _count_walk_recorder(monkeypatch)
    legal = gbsr.explorer._legal_content

    def reading(g, bounds):
        for listed in legal(g, bounds):
            if counting:
                children.append(1)
            yield listed

    monkeypatch.setattr(gbsr.explorer, "_legal_content", reading)
    images = MarkedState.images

    def walking(self):
        walked.append(len(_lazy_walk(self)) - 1)
        return images(self)

    monkeypatch.setattr(MarkedState, "images", walking)
    for text, rigid, steps in ((LOOP23, "yes", 0), ("vertex a\nvertex b\nedge e a 2 3 b\nedge c b 5 7 b\n", "yes", 0),
                               ("vertex a\nvertex b\nedge e a 3 1 b\nedge c b 5 7 b\n", "yes", 2), (BS26, "no", 26)):
        made.clear(), children.clear(), walked.clear()
        assert explore(state(text)).rigid == rigid
        assert len(made) == sum(walked) == steps, text
        assert rigid == "no" or len(made) < len(children) / 5, (text, len(children))


def _lazy_walk(st):
    """st and its lazy ancestors, oldest first, from the nearest ancestor
    whose images are read."""
    walk = [st]
    while walk[-1]._images is None:
        walk.append(walk[-1]._parent)
    return walk[::-1]


def test_pooled_transport_matches_the_oracle():
    # each pooled child, and the reduced state of its collapse chain, is
    # read once through the package's tables; the oracle carries the read
    # parent's images through the same moves letter by letter and reduces
    # once at the end
    rng = random.Random(0x7A45)
    seeds = [oracle.random_graph(rng, 3, 3, 6) for _ in range(80)]
    seeds += [parse("vertex v\nedge c v %d %d v\n" % ab) for ab in ((1, 12), (8, 1), (1, 30), (60, 1), (1, 36))]
    seen = Counter()
    for g in seeds:
        st, pool = initial_state(g), {}
        for _ in range(rng.randint(1, 3)):
            st.images()
            children = _legal_children(st, len(g.edges) + 2, 36, pool)
            if not children:
                break
            for _, child in rng.sample(children, min(8, len(children))):
                reduced = _reduce(child, pool)
                walk = _lazy_walk(reduced)
                assert walk[0] is st and walk[1] is child
                letters = dict(st.images())
                want = {}
                for before, after in zip(walk, walk[1:]):
                    mv = after.history[-1]
                    seen[type(mv).__name__] += 1
                    if isinstance(mv, Collapse):
                        e = before.graph.edge(mv.edge)
                        seen["re-basing collapse"] += (e.vb if e.lb == 1 else e.va) == before.graph.vertices[0]
                    letters = {
                        sym: oracle.oracle_transport(before.graph, mv, after.graph, w)
                        for sym, w in letters.items()
                    }
                    if after is child:
                        want[child] = {sym: reduce_letters(child.graph, w) for sym, w in letters.items()}
                want[reduced] = {sym: reduce_letters(reduced.graph, w) for sym, w in letters.items()}
                assert reduced.images() == want[reduced]
                assert child.images() == want[child]
            st = rng.choice(children)[1]
    assert min(seen[k] for k in ("Collapse", "Expansion", "Slide", "Induction")) >= 10
    assert seen["re-basing collapse"] >= 20


def test_explore_keeps_no_cache_across_calls(monkeypatch):
    # the pool and the count walk's keys live for one call: a second
    # explore of the same parsed graph object builds every graph and keys
    # every content again
    built, keyed = [], []
    init, key = GbsGraph.__init__, gbsr.explorer._canonical_key
    monkeypatch.setattr(GbsGraph, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    monkeypatch.setattr(gbsr.explorer, "_canonical_key", lambda *content: keyed.append(1) or key(*content))
    n = 0
    for g, rigid in ((parse(LOOP23), "yes"), (parse(BS26), "no")):
        built.clear(), keyed.clear()
        first = explore(initial_state(g))
        once = len(built), len(keyed)
        second = explore(initial_state(g))
        assert first.rigid == second.rigid == rigid
        assert (len(built), len(keyed)) == (2 * once[0], 2 * once[1])
        n += sum(once)
    assert n > 50


def _count_validations(monkeypatch):
    calls = []
    monkeypatch.setattr(gbsr.graph, "validate", lambda g: calls.append(g) or validate(g))
    return calls


def test_public_routes_validate_every_graph_they_build(monkeypatch):
    st = state(BS26)
    chain = state("vertex a\nvertex b\nvertex c\nedge e a 3 1 b\nedge f b 2 1 c\nedge h c 5 7 c\n")
    calls = _count_validations(monkeypatch)
    for verify in (True, False):
        out = apply_move(st, Expansion("v", 2, ()), verify=verify)
        assert calls == [out.graph]
        calls.clear()
    reduced = reduce_state(chain)
    assert len(reduced.history) == 2 and len(calls) == 2 and calls[-1] is reduced.graph
    calls.clear()
    # explore's own moves build trusted graphs: only the soundness replay,
    # one apply_move per replayed move, validates
    report = explore(st)
    replayed = sum(len(c.representative_moves) for c in report.classes)
    assert report.rigid == "no" and replayed > 0 and len(calls) == replayed


def test_trusted_pool_graphs_are_the_graphs_validation_builds():
    # children of every seed and of each of its children, and the collapse
    # chains of all of them, built in one explicit explore-style pool
    pool, expanded, built = _TrustedPool(), set(), []
    for g in enumerate_graphs(2, 4):
        seed = initial_state(g)
        max_edges, max_label = len(g.edges) + 1, g.max_label() ** 2
        for _, child in _legal_children(seed, max_edges, max_label, pool):
            expanded.add(child.graph)
            for _, grandchild in _legal_children(child, max_edges, max_label, pool):
                built += [grandchild, _reduce(grandchild, pool)]
            built += [child, _reduce(child, pool)]
    graphs = {id(st.graph): st.graph for st in built}.values()
    unexpanded = [h for h in graphs if h not in expanded]
    assert len(unexpanded) > 10_000
    assert all(h._ends is None for h in unexpanded)
    for h in graphs:
        validate(h)
        ref = GbsGraph(h.vertices, h.edges)
        assert (ref.vertices, ref.edges) == (h.vertices, h.edges)
        assert all(ref.ends_at(v) == h.ends_at(v) for v in ref.vertices)
        assert ref.canonical_form() == h.canonical_form()


def _node_pinches(st, trie):
    """Pinches the stack pass makes at each trie node when it extends the
    parent's reduced stack by the node's reduced block, counted from
    reduce_letters alone: the parent's edge letters plus the block's less
    the node's, halved."""
    nodes, _ = trie
    g, images = st.graph, tuple(st.images().values())
    edges = oracle.edge_count
    stacks, out = [()], []
    for parent, (s, e) in nodes:
        piece = images[s] if e > 0 else invert_path_letters(images[s])
        block = reduce_letters(g, piece * abs(e))
        stacks.append(reduce_letters(g, stacks[parent] + block))
        out.append((edges(stacks[parent]) + edges(block) - edges(stacks[-1])) // 2)
    return out


def test_lengths_kernel_matches_the_oracle_on_five_generators():
    # 4-edge graphs (5 seed generators) with labels up to 8, walked a few
    # pooled moves so the images grow; radius 3
    rng = random.Random(0xF05ED)
    twice = states = 0
    while states < 60:
        g = oracle.random_graph(rng, 3, 4, 8)
        if len(g.edges) != 4:
            continue
        st, pool = initial_state(g), {}
        for _ in range(rng.randint(1, 4)):
            children = _legal_children(st, len(g.edges) + 1, 16, pool)
            if not children:
                break
            st = _reduce(rng.choice(children)[1], pool)
        states += 1
        trie, _ = _sample_plan(len(st.seed.presentation.generators), 3)
        snapshot = {sym: list(letters) for sym, letters in st.images().items()}
        values = _lengths(st, trie)
        # e = +-1 blocks are the image tuples themselves: none was touched
        assert {sym: list(letters) for sym, letters in st.images().items()} == snapshot
        assert values == _oracle_lengths(st, trie)
        for word, value in zip(_spelled(trie), values):
            assert st.seed_length(_named(st, word)) == value
        twice += sum(k >= 2 for k in _node_pinches(st, trie))
    # the kernel's head loop runs on after a pinch at many nodes
    assert twice >= 100


def test_explore_on_one_generator_at_radius_100000_is_fast():
    # 200,000 sample words up to 100,000 letters long, from the closed-form
    # one-generator plan (about 0.2 s on a 2-core x86-64 host)
    t0 = time.perf_counter()
    rep = explore(state("vertex v\n"), ExploreBounds(radius=100_000))
    assert time.perf_counter() - t0 < 2.0
    assert rep.rigid == "yes" and rep.classes[0].fingerprint == (0,) * 200_000


def _shortcut_corpus():
    """Every reduced graph of enumerate_graphs(2, 4), then 25 seeded
    reduced graphs with 3 edges and labels up to 3."""
    graphs = [g for g in enumerate_graphs(2, 4) if is_reduced(g)]
    rng, three = random.Random(0xAB50B), []
    while len(three) < 25:
        g = oracle.random_graph(rng, 3, 3, 3)
        if len(g.edges) == 3 and is_reduced(g):
            three.append(g)
    return graphs + three


def _count_walk_recorder(monkeypatch):
    """(calls, counting): calls collects (clipped, children) for each
    _traverse in count mode that explore runs (the walk that counts into
    the base class), children being what it adds to the record, and
    counting is not empty while one runs."""
    calls, counting = [], []
    traverse = gbsr.explorer._traverse

    def recording(seed, bounds, inner, pool, table, counted):
        if counted is None:
            return traverse(seed, bounds, inner, pool, table, counted)
        before = counted.count
        counting.append(True)
        try:
            clipped = traverse(seed, bounds, inner, pool, table, counted)
        finally:
            counting.pop()
        calls.append((clipped, counted.count - before))
        return clipped

    monkeypatch.setattr(gbsr.explorer, "_traverse", recording)
    return calls, counting


def _default_cap(g):
    """explore's default max_label for the seed graph g: the square of the
    larger largest label, of g or of its reduction."""
    return max(g.max_label(), _reduce(initial_state(g), _TrustedPool()).graph.max_label()) ** 2


def _inner(g, bounds):
    """The move bounds of explore's traversal from g, max_label None."""
    return MoveBounds(max_edges=len(g.edges) + bounds.max_extra_edges, max_label=_default_cap(g))


def _reference_counted(seed, bounds=ExploreBounds()):
    """oracle.reference_count from seed under explore's bounds: (clipped,
    counted), counted holding the slide and collapse children as states."""
    return oracle.reference_count(seed, bounds, _inner(seed.graph, bounds), _TrustedPool())


def test_counted_children_land_in_the_record_they_are_counted_into(monkeypatch):
    # when the reduced search finds one class, the traversal counts each
    # slide and collapse child into the base class without reducing or
    # classifying it; take those children as states from the reference
    # walk, reduce and classify each one afresh, in a new table with the
    # same plan, and check that it lands in the base record
    calls, _ = _count_walk_recorder(monkeypatch)
    seeds = total = 0
    for g in _shortcut_corpus():
        if is_ascending(g):  # counted by divisors, with no search
            continue
        calls.clear()
        seed = initial_state(g)
        report = explore(seed)
        if report.rigid == "no":
            assert not calls, serialize(g)
            continue
        clipped, counted = _reference_counted(seed)
        assert calls == [(clipped, len(counted))] and clipped == (report.rigid == "inconclusive"), serialize(g)
        assert len(report.classes) == 1, serialize(g)
        assert report.classes[0].count == 1 + len(counted), serialize(g)
        table = _ClassTable(_sample_plan(len(seed.seed.presentation.generators), ExploreBounds().radius))
        table.classify(reduce_state(seed))
        for child in counted:
            assert not table.classify(reduce_state(child))[1], (serialize(g), [str(m) for m in child.history])
        seeds += 1
        total += len(counted)
    assert seeds > 50 and total > 1000, (seeds, total)


# reduced seeds whose deciding slide comes after two slides that stay in
# the seed's class, those of the (1, 1) loop's ends across each other
SLID_PAST = ("vertex v0\nvertex v1\nedge e0 v0 1 1 v0\nedge e1 v0 2 2 v1\nedge e2 v1 2 3 v1\n",
             "vertex v0\nvertex v1\nedge e0 v0 1 1 v0\nedge e1 v0 2 2 v1\nedge e2 v1 1 2 v1\n")
# an unreduced seed whose reduction a slide decides: the traversal runs
# from the seed itself, so the reduced search's slide is not its witness
UNREDUCED_NO = "vertex x\nvertex y\nvertex z\nedge c x 2 2 x\nedge h x 2 3 y\nedge u y 1 5 z\n"


def _slide_decided(g):
    """The number of slides the reduced search reads before the one that
    decides on the reduced graph g, or None when no slide decides."""
    seed = initial_state(g)
    table = _ClassTable(_sample_plan(len(seed.seed.presentation.generators), ExploreBounds().radius))
    found = _reduced_search(seed, table, _TrustedPool())
    return None if found is None else found[0]


def _shortcut_seeds():
    """(seed, bounds) for explore: every graph of _shortcut_corpus() and
    SLID_PAST under default bounds and max_depth 1 and 0; from every
    second graph that has a move, a seed carrying one seeded move of
    history; and the unreduced graphs of enumerate_graphs(2, 3),
    UNREDUCED_NO and 8 seeded unreduced 3-edge graphs, under default
    bounds."""
    graphs = _shortcut_corpus() + [parse(t) for t in SLID_PAST]
    seeds = [(initial_state(g), bounds) for g in graphs
             for bounds in (ExploreBounds(), ExploreBounds(max_depth=1), ExploreBounds(max_depth=0))]
    rng = random.Random(0x5EED)
    for g in graphs[::2]:
        seed = initial_state(g)
        children = _legal_children(seed, len(g.edges) + 1, g.max_label() ** 2, _TrustedPool())
        if children:
            seeds.append((apply_move(seed, rng.choice(children)[0]), ExploreBounds()))
    unreduced = [g for g in enumerate_graphs(2, 3) if not is_reduced(g)] + [parse(UNREDUCED_NO)]
    while len(unreduced) < 97:
        g = oracle.random_graph(rng, 3, 3, 3)
        if len(g.edges) == 3 and not is_reduced(g):
            unreduced.append(g)
    return seeds + [(initial_state(g), ExploreBounds()) for g in unreduced]


def test_explore_reports_match_with_the_shortcut_off(monkeypatch):
    # with the reduced search answering that a composite decided every
    # time, the traversal reduces and classifies every slide and collapse
    # child rather than counting them or taking the search's slide; the
    # reports stay the same, also under max_depth 1 and 0, from seeds
    # with history and from unreduced seeds
    seeds = _shortcut_seeds()
    on = [json.dumps(explore(seed, bounds).to_json(), sort_keys=True) for seed, bounds in seeds]
    monkeypatch.setattr(gbsr.explorer, "_reduced_search", lambda base, table, pool: (None, base))
    off = [json.dumps(explore(seed, bounds).to_json(), sort_keys=True) for seed, bounds in seeds]
    mismatched = [([str(m) for m in seed.history], serialize(seed.graph))
                  for (seed, _), one, other in zip(seeds, on, off) if one != other]
    assert mismatched == [], mismatched
    # the seeds reach the slide taken after in-class slides, on seeds with
    # history too, and the unreduced seed that reduces to a slide-decided one
    with_history = [seed for seed, _ in seeds if seed.history and is_reduced(seed.graph)]
    assert [_slide_decided(parse(t)) for t in SLID_PAST] == [2, 2]
    assert sum(_slide_decided(seed.graph) is not None for seed in with_history) >= 15
    assert _slide_decided(reduce_state(state(UNREDUCED_NO)).graph) == 0


def test_the_classify_walk_matches_the_reference_under_budget_and_edge_caps(monkeypatch):
    # with the reduced search answering that a composite decided every
    # time, explore's traversal classifies every slide and collapse child,
    # as the reference does; a state budget cuts the walk at a point that
    # depends on the visiting order, so equal reports under the caps pin
    # that order in this mode too.  Every third non-ascending graph of the
    # corpus keeps the test near 1.5 s on a 2-core x86-64 host
    monkeypatch.setattr(gbsr.explorer, "_reduced_search", lambda base, table, pool: (None, base))
    graphs = [g for g in _shortcut_corpus() if not is_ascending(g)][::3]
    verdicts = Counter()
    for bounds in [ExploreBounds(max_states=n) for n in (1, 2, 7, 50)] + [
            ExploreBounds(max_extra_edges=e) for e in (0, 1)]:
        for g in graphs:
            report = explore(initial_state(g), bounds).to_json()
            assert report == oracle.reference_explore(initial_state(g), bounds).to_json(), (serialize(g), bounds)
            verdicts[bounds.max_states, report["rigid"]] += 1
    assert len(graphs) == 85
    # every budget clips some walks, and the edge caps leave none clipped
    assert all(verdicts[n, "inconclusive"] >= 10 and verdicts[n, "no"] >= 50 for n in (1, 2, 7, 50)), verdicts
    assert verdicts[5000, "inconclusive"] == 0 and verdicts[5000, "yes"] >= 40, verdicts


def _strictly_ascending_loop(g):
    """Does g carry a loop labelled (1, n) with n > 1?"""
    return any(e.is_loop and min(e.la, e.lb) == 1 < max(e.la, e.lb) for e in g.edges)


def test_the_reduced_search_agrees_with_check_one_move_from_the_two_edge_corpus(monkeypatch):
    # seeds one legal move from a reduced graph with at most 2 edges and
    # labels up to 6 (one more edge, labels up to the square of the
    # graph's largest), whose reduction is not the one-loop (1, n) graph:
    # the reduced search that explore runs, under explore's own default
    # label cap, finds a second class exactly when check calls the
    # reduction not rigid.  Slides need not join the reduced trees of a
    # space with a strictly ascending loop, so every such seed is taken,
    # and a seeded 2,000 of the others.  With the cap taken from the seed
    # alone, 52 of the first group read one class where check finds two
    class Decided(Exception):
        pass

    decided, search = [], gbsr.explorer._reduced_search

    def deciding(base, table, pool):
        decided.append((base.graph, search(base, table, pool) is None))
        raise Decided

    monkeypatch.setattr(gbsr.explorer, "_reduced_search", deciding)
    pool, ascending, others = _TrustedPool(), [], []
    for g in enumerate_graphs(2, 6):
        if not is_reduced(g):
            continue
        seed = initial_state(g)
        for kind, fields, _ in _legal_content(g, MoveBounds(max_edges=len(g.edges) + 1, max_label=g.max_label() ** 2)):
            child = _apply_move(seed, kind(*fields), pool)
            base = _reduce(child, pool).graph
            if not is_ascending(base):
                (ascending if _strictly_ascending_loop(base) else others).append(child)
    assert (len(ascending), len(others)) == (2575, 15286)
    for group in (ascending, random.Random(0x6A7D).sample(others, 2000)):
        decided.clear()
        for child in group:
            with pytest.raises(Decided):
                explore(child)
        assert len(decided) == len(group)
        wrong = [serialize(base) for base, one_class in decided if one_class != check(base).rigid]
        assert wrong == [], wrong
    # one of the 52: the search takes label 12 at the (1, 4), (3, 3)
    # reduction, where the seed's labels allow 9
    monkeypatch.setattr(gbsr.explorer, "_reduced_search", search)
    seed = apply_move(state("vertex v0\nedge e0 v0 1 4 v0\nedge e1 v0 3 3 v0\n"),
                      Expansion("v0", 2, (parse_end("e0.B"),)))
    report = explore(seed)
    assert (report.rigid, [str(m) for m in report.witness]) == ("no", ["expand v0 2 e0.B", "collapse e0"])


def test_explore_runs_the_traversal_only_where_no_seed_slide_decides(monkeypatch):
    # a reduced seed that a slide decides, under max_depth >= 1, takes its
    # report from the reduced search and runs no traversal; a composite
    # (BS(2,6)), an unreduced seed and max_depth 0 still run it in
    # classify mode, and the last reads "inconclusive"
    searched, traverse = [], gbsr.explorer._traverse
    monkeypatch.setattr(gbsr.explorer, "_traverse",
                        lambda *args: searched.append(args[-1] is None) or traverse(*args))
    decided = 0
    for g in _shortcut_corpus() + [parse(t) for t in SLID_PAST]:
        if is_ascending(g) or _slide_decided(g) is None:
            continue
        for bounds in (ExploreBounds(), ExploreBounds(max_depth=1)):
            assert explore(initial_state(g), bounds).rigid == "no", serialize(g)
        decided += 1
    assert searched == [] and decided == 193
    for text, bounds, rigid in ((BS26, ExploreBounds(), "no"), (UNREDUCED_NO, ExploreBounds(), "no"),
                                (PATH22, ExploreBounds(max_depth=0), "inconclusive")):
        searched.clear()
        assert explore(state(text), bounds).rigid == rigid, text
        assert searched == [True], text


def test_explore_spreads_each_distinct_lengths_tuple_once(monkeypatch):
    # the report and the replay read one memo of fingerprints, so _spread
    # runs once per distinct lengths tuple of the call's classes, not once
    # for the report and again in the replay
    spreads, tables, spread = [], [], gbsr.explorer._spread

    class Recording(_ClassTable):
        def __init__(self, plan):
            super().__init__(plan)
            tables.append(self)

    monkeypatch.setattr(gbsr.explorer, "_ClassTable", Recording)
    monkeypatch.setattr(gbsr.explorer, "_spread", lambda spreader, lengths: spreads.append(lengths) or spread(spreader, lengths))
    for text in (BS26, SLID_PAST[0]):
        tables.clear()
        spreads.clear()
        report = explore(state(text))
        [table] = tables
        assert report.rigid == "no" and len(report.classes) == 2, text
        assert len(spreads) == len(set(spreads)), text
        assert set(spreads) == {rec.lengths for rec in table.classes.values()}, text


def test_the_count_walk_reads_no_marking_and_reduces_nothing(monkeypatch):
    # on a rigid seed explore classifies only in the reduced search; the
    # walk that counts children reads no images, reduces no child and
    # makes no marked state
    calls, counting = _count_walk_recorder(monkeypatch)
    read, made = [], []
    images, reduce_, init = MarkedState.images, gbsr.explorer._reduce, MarkedState.__init__

    def watched_images(self):
        if counting:
            read.append("images")
        return images(self)

    def watched_reduce(st, pool):
        if counting:
            read.append("reduce")
        return reduce_(st, pool)

    def watched_init(self, *args, **kwargs):
        made.append(bool(counting))
        init(self, *args, **kwargs)

    monkeypatch.setattr(MarkedState, "images", watched_images)
    monkeypatch.setattr(gbsr.explorer, "_reduce", watched_reduce)
    monkeypatch.setattr(MarkedState, "__init__", watched_init)
    for text in (LOOP23, "vertex a\nvertex b\nedge e a 2 3 b\nedge c b 5 7 b\n",
                 "vertex v\nedge c v 2 3 v\nedge h v 5 7 v\n"):
        calls.clear()
        seed = state(text)
        report = explore(seed)
        counted = _reference_counted(seed)[1]
        assert calls == [(False, len(counted))], text
        assert report.rigid == "yes" and report.classes[0].count == 1 + len(counted) > 1, text
    assert read == []
    # the watch sees the states made outside the walk, and none inside it
    assert made.count(False) > 50 and made.count(True) == 0, Counter(made)


def test_the_count_walk_builds_no_move_and_pools_no_graph(monkeypatch):
    # on a rigid seed the walk that counts children reads move kinds and
    # graph content only: no move object is made while it runs, and
    # explore's pool holds the same graphs before and after it
    calls, counting = _count_walk_recorder(monkeypatch)
    made, pools = [], []
    for kind in (Collapse, Slide, Expansion, Induction):
        init = kind.__init__
        monkeypatch.setattr(kind, "__init__", lambda self, *args, f=init: made.append(bool(counting)) or f(self, *args))
    traverse = gbsr.explorer._traverse

    def watched(seed, bounds, inner, pool, table, counted):
        before = dict(pool)
        out = traverse(seed, bounds, inner, pool, table, counted)
        pools.append(before == pool)
        return out

    monkeypatch.setattr(gbsr.explorer, "_traverse", watched)
    for text in (LOOP23, "vertex a\nvertex b\nedge e a 2 3 b\nedge c b 5 7 b\n"):
        calls.clear(), made.clear(), pools.clear()
        seed = state(text)
        report = explore(seed)
        assert report.rigid == "yes" and report.classes[0].count > 1, text
        assert len(calls) == 1 and pools == [True] and True not in made, text
        # the watch sees the moves that the walk lists from the seed when
        # they are enumerated outside it
        made.clear()
        listed = enumerate_moves(seed, _inner(seed.graph, ExploreBounds()))
        assert made == [False] * len(listed) and len(listed) > 1, text


def test_the_count_walk_matches_the_reference_count_under_every_cap():
    # _traverse's count mode walks graph content where the reference walks
    # marked states, and leaves the pool empty; a capped budget makes the
    # count depend on the visiting order, so equal results under the caps
    # pin the order too.  The uncapped bounds
    # run on the graphs that explore counts (one reduced class): on all
    # of them the two walks take minutes
    graphs = _shortcut_corpus()
    one_class = [g for g in graphs if not is_ascending(g) and check(g).rigid]
    runs = [(ExploreBounds(), one_class), (ExploreBounds(max_extra_edges=1), one_class)]
    runs += [(ExploreBounds(max_depth=d), graphs) for d in (0, 1, 2)]
    runs += [(ExploreBounds(max_states=n), graphs) for n in (1, 2, 7, 50)]
    runs += [(ExploreBounds(max_extra_edges=0), graphs)]
    clipped, counted = [], []
    for bounds, subset in runs:
        clipped.append(0), counted.append(0)
        for g in subset:
            want, children = _reference_counted(initial_state(g), bounds)
            record, pool = _ClassRecord(None, None), _TrustedPool()
            got = _traverse(initial_state(g), bounds, _inner(g, bounds), pool, None, record)
            assert (got, record.count, pool) == (want, len(children), {}), (serialize(g), bounds)
            clipped[-1] += want
            counted[-1] += len(children)
    assert (len(graphs), len(one_class)) == (259, 59)
    assert clipped == [0, 0, 258, 256, 256, 256, 256, 256, 204, 10], clipped
    assert min(counted[:2] + counted[3:]) > 700, counted
def test_composites_expand_each_dividing_loop_and_slide_its_new_edge():
    # one composite per loop (p, q) with p | q and 2 <= p < q, in edge
    # order, each built as the public, verified moves build it; the (3, 3)
    # and (2, 5) loops have none
    st = state("vertex v\nedge a v 2 4 v\nedge b v 3 3 v\nedge c v 9 3 v\nedge d v 2 5 v\n")
    composites = list(gbsr.explorer._composites(st, _TrustedPool()))
    assert [[str(m) for m in child.history] for _, child in composites] == [
        ["expand v 2 a.B", "slide d0.A across a.A"],
        ["expand v 3 c.A", "slide d0.A across c.B"],
    ]
    for mv, child in composites:
        assert child.history[-1] == mv
        verified = apply_move(apply_move(st, child.history[0]), mv)
        assert (child.graph.vertices, child.graph.edges) == (verified.graph.vertices, verified.graph.edges)
        assert child.images() == verified.images()


def test_the_reduced_search_answers_bs26_from_its_composite_graph():
    # BS(2,6) is reduced and has no slide; its one composite reduces to
    # another graph, so the search answers that a composite decided, with
    # only the seed measured
    base, pool = state(BS26), _TrustedPool()
    assert is_reduced(base.graph)
    table = _ClassTable(_sample_plan(1, 4))
    before, found = _reduced_search(base, table, pool)
    assert before is None
    assert not table.classes and list(table.measured) == [_exact_key(base)]
    [(_, child)] = gbsr.explorer._composites(base, pool)
    assert _reduce(child, pool).graph.canonical_form() != base.graph.canonical_form()
    assert found.history == _reduce(child, pool).history


def test_explore_makes_one_class_table_and_the_reduced_search_classifies_nothing(monkeypatch):
    # a non-ascending explore call classifies into one table, which the
    # reduced search only measures through, on a "no" seed and a rigid one
    tables, searched, searching = [], [], []

    class Recording(_ClassTable):
        def __init__(self, plan):
            super().__init__(plan)
            self.classified = []  # per call: made during the reduced search?
            tables.append(self)

        def classify(self, st):
            self.classified.append(bool(searching))
            return super().classify(st)

    def search(base, table, pool):
        searched.append(table)
        searching.append(True)
        try:
            return _reduced_search(base, table, pool)
        finally:
            searching.pop()

    monkeypatch.setattr(gbsr.explorer, "_ClassTable", Recording)
    monkeypatch.setattr(gbsr.explorer, "_reduced_search", search)
    for text, rigid in ((BS26, "no"), (LOOP23, "yes")):
        tables.clear()
        searched.clear()
        assert explore(state(text)).rigid == rigid
        assert len(tables) == 1 and searched == tables, text
        assert tables[0].classified and not any(tables[0].classified), text


def test_a_slide_across_an_edge_the_reduction_keeps_is_classified(monkeypatch):
    # the loop c of BS(2,6) is never collapsed; the traversal classifies
    # the witness's slide across c.A, which opens the second class
    classified = []

    class Recording(_ClassTable):
        def classify(self, st):
            classified.append(st.history)
            return super().classify(st)

    monkeypatch.setattr(gbsr.explorer, "_ClassTable", Recording)
    report = explore(state(BS26))
    assert [str(m) for m in report.witness] == ["expand v 2 c.B", "slide d0.A across c.A"]
    assert classified[-1] == report.witness


def _collapse_states(st):
    """The states of reduce_state's chain from st, made one public
    collapse at a time, each state's images read before the next move."""
    states = []
    while (end := collapse_witness(st.graph)) is not None:
        st = apply_move(st, Collapse(end.edge), verify=False)
        states.append(st)
    return states


def test_each_pooled_graph_costs_one_collapse_and_keeps_reduce_states_chain(monkeypatch):
    # a graph's chain is its first collapse followed by the pooled chain of
    # the graph that collapse makes; walk from every seed as explore does,
    # reducing each child, then check every graph whose chain was built
    # against one collapse at a time
    collapsed = []
    monkeypatch.setattr(
        gbsr.explorer, "_collapse", lambda g, mv: collapsed.append(g) or gbsr.moves._collapse(g, mv)
    )
    rng = random.Random(0xC4A1)
    built = long_chains = 0
    for seed in enumerate_graphs(2, 4):
        pool, st = _TrustedPool(), initial_state(seed)
        max_edges, max_label = len(seed.edges) + 2, seed.max_label() ** 2
        collapsed.clear()
        for _ in range(2):
            children = _legal_children(st, max_edges, max_label, pool)
            if not children:
                break
            for _, child in children:
                _reduce(child, pool)
            st = rng.choice(children)[1]
        chains = {g: pool[g] for g in pool if isinstance(g, GbsGraph)}
        nonreduced = [g for g, steps in chains.items() if steps]
        assert len(collapsed) <= len(nonreduced)
        assert len({id(g) for g in collapsed}) == len(collapsed)
        for g in nonreduced:
            steps = chains[g]
            states = _collapse_states(initial_state(GbsGraph(g.vertices, g.edges)))
            assert [(mv, h.vertices, h.edges) for mv, h in steps] == [
                (s.history[-1], s.graph.vertices, s.graph.edges) for s in states
            ]
            # the letter map each lazy state of the chain reads, made from
            # its pooled parent graph, is the one made from the parent that
            # the public route built afresh
            pooled = [g] + [h for _, h in steps]
            for (mv, h), parent, fresh in zip(steps, pooled, [g] + [s.graph for s in states]):
                assert (h.vertices, h.edges) == gbsr.moves._collapse(fresh, mv)
                assert _LETTERS[Collapse](parent, mv) == _LETTERS[Collapse](fresh, mv)
            built += 1
            long_chains += len(steps) >= 2
    assert built > 10_000 and long_chains > 5000


README_GRAPHS = (BS26, LOOP23, "vertex v\nvertex w\nedge c v 2 6 v\nedge h v 2 3 w\n")


def _reference_corpus():
    """Every graph of enumerate_graphs(2, 4), reduced or not, the README's
    and 25 seeded graphs with 3 edges and labels up to 3, less those that
    reduce to an ascending loop: explore counts those classes by divisors."""
    rng, three = random.Random(0xAB50B), []
    while len(three) < 25:
        g = oracle.random_graph(rng, 3, 3, 3)
        if len(g.edges) == 3:
            three.append(g)
    graphs = enumerate_graphs(2, 4) + [parse(t) for t in README_GRAPHS] + three
    return [g for g in graphs if not is_ascending(reduce_state(initial_state(g)).graph)]


def test_explore_reports_equal_the_reference_traversal():
    # explore's reports equal those of the reference traversal, which
    # classifies every slide and collapse child, and the reduced search's
    # verdict is check's on each seed's reduction (about 25 s on a 2-core
    # x86-64 host, most of it the reference)
    verdicts = Counter()
    for g in _reference_corpus():
        assert explore(initial_state(g)).to_json() == oracle.reference_explore(initial_state(g)).to_json(), serialize(g)
        seed, pool = initial_state(g), _TrustedPool()
        base = _reduce(seed, pool)
        table = _ClassTable(_sample_plan(len(seed.seed.presentation.generators), 4))
        verdict = _reduced_search(base, table, pool)
        assert (verdict is None) == check(base.graph).rigid, serialize(g)
        verdicts[verdict is None, is_reduced(g)] += 1
    assert min(verdicts.values()) >= 30, verdicts


def test_explore_under_a_cap_below_the_reductions_square_equals_the_reference():
    # a slide of the reduction can make a label up to the square of its
    # largest, so a tighter max_label can drop the slide that leaves the
    # seed's class; the reduced search would then read one class, and
    # explore must let the traversal classify instead.  Caps L and L + 1,
    # L the larger largest label of the seed and of its reduction, below
    # that square, on every graph of the corpus whose reduction is neither
    # ascending nor rigid; with the search run under them, 74 of the 412
    # reports read "yes" or "inconclusive"
    pairs, verdicts = 0, Counter()
    for g in enumerate_graphs(2, 4):
        base = reduce_state(initial_state(g)).graph
        if is_ascending(base) or check(base).rigid:
            continue
        top = max(g.max_label(), base.max_label())
        for cap in (top, top + 1):
            if cap < base.max_label() ** 2:
                bounds = ExploreBounds(max_label=cap)
                report = explore(initial_state(g), bounds).to_json()
                assert report == oracle.reference_explore(initial_state(g), bounds).to_json(), (serialize(g), cap)
                pairs += 1
                verdicts[report["rigid"]] += 1
    assert pairs == verdicts["no"] == 412, (pairs, verdicts)
    # the slide e1.A across e0.A makes label 6 > 3, but a witness within
    # labels 3 still exists through an expansion
    g = parse("vertex v0\nedge e0 v0 1 2 v0\nedge e1 v0 3 3 v0\n")
    report = explore(initial_state(g), ExploreBounds(max_label=3))
    assert (report.rigid, [str(m) for m in report.witness]) == (
        "no", ["expand v0 2 e0.B", "slide e1.A across e0.A", "collapse d0"])


def _wide_vertex(k):
    """One vertex with k loops (2p, 2q), p and q distinct odd primes, so no
    end's label divides another's and check calls it rigid at once."""
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59][:2 * k]
    return parse("vertex v\n" + "".join("edge e%d v %d %d v\n" % (i, 2 * p, 2 * q)
                                        for i, (p, q) in enumerate(zip(primes[::2], primes[1::2]))))


def test_the_reduced_search_exhausts_a_wide_vertex_at_once():
    # k = 8 gives 2^16 index-2 expansions of the seed, which the reduced
    # search never lists: the seed has no slide or composite (about 0.4 s
    # on a 2-core x86-64 host, most of it the sample plan over 9
    # generators, built before the clock starts)
    g = _wide_vertex(8)
    assert check(g).rigid
    seed, pool = initial_state(g), _TrustedPool()
    table = _ClassTable(_sample_plan(len(seed.seed.presentation.generators), 4))
    t0 = time.perf_counter()
    assert _reduced_search(seed, table, pool) is None
    assert time.perf_counter() - t0 < 5.0
    assert not table.classes and list(table.measured) == [_exact_key(seed)]


def test_explore_still_reads_inconclusive_on_four_wide_loops():
    # the reduced search answers at once, but the traversal that counts
    # the report's children runs out of its 5000-state budget first (about
    # 1.7 s on a 2-core x86-64 host), so the verdict stays "inconclusive"
    t0 = time.perf_counter()
    report = explore(_wide_vertex(4))
    assert time.perf_counter() - t0 < 10.0
    assert report.rigid == "inconclusive" and [c.count for c in report.classes] == [71267]


def test_the_count_walk_keys_each_content_once_and_never_the_seeds(monkeypatch):
    # the walk starts with the seed's content met, so the collapse that
    # undoes an expansion of the seed, which gives that content back, is
    # not keyed; no other content is keyed twice either
    keyed, real = [], gbsr.explorer._canonical_key
    monkeypatch.setattr(gbsr.explorer, "_canonical_key", lambda v, e: keyed.append((v, e)) or real(v, e))
    for text, keys in ((LOOP23, 42), ("vertex v\nvertex w\nedge a v 4 6 w\nedge b v 6 6 v\n", 740)):
        keyed.clear()
        g = parse(text)
        assert explore(g).rigid == "yes"
        assert len(keyed) == len(set(keyed)) == keys
        assert (g.vertices, g.edges) not in keyed
