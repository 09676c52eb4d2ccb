"""Independent cross-check implementations used only by the tests.

Everything here recomputes package results by a different route: the
reducer is a global fixpoint scanner (the package does one stack pass),
cyclic reduction tries every rotation (the package rotates only at the
seam), sample words are enumerated by recursion (the package keeps one
iterator per position), fingerprints are spread one entry at a time (the
package gathers them in one call), primality comes from a sieve (the
package runs Miller-Rabin and Baillie-PSW), ascending rigidity from a
divisor scan, modular-homomorphism values from the projected generator
words (the package reads them off path letters), canonical forms from a
search over every grouped vertex permutation (the package takes the
one ordering when the invariant tells the vertices apart), legal moves
by proposing every candidate and keeping those its move function
accepts (the package builds only legal moves), explore's reports from
one traversal that classifies every slide and collapse child (the
package decides by a search over reduced trees first), seed words are
carried into a state's presentation by substituting its marking (the
package measures them on path images), and random inputs are generated
here so property tests do not depend on the package's own
enumeration order.
"""

import random
from fractions import Fraction
from itertools import chain, permutations, product

from gbsr.graph import GbsGraph
from gbsr.words import substitute


def merge_powers(letters):
    """Merge adjacent powers of one vertex, drop zero powers."""
    out = []
    for letter in letters:
        if letter[0] == "v" and letter[2] == 0:
            continue
        if out and letter[0] == "v" and out[-1][0] == "v" and out[-1][1] == letter[1]:
            merged = out[-1][2] + letter[2]
            out.pop()
            if merged:
                out.append(("v", letter[1], merged))
        else:
            out.append(letter)
    return out


def _pinch_at(g, w, i):
    """Replacement letters and consumed count for a pinch at w[i], or None."""
    if w[i][0] != "e":
        return None
    opener = w[i]
    if i + 1 < len(w) and w[i + 1][0] == "v":
        mid, close_at = w[i + 1][2], i + 2
    else:
        mid, close_at = 0, i + 1
    if close_at >= len(w):
        return None
    closer = w[close_at]
    if closer[0] != "e" or closer[1] != opener[1] or closer[2] != -opener[2]:
        return None
    e = g.edge(opener[1])
    if opener[2] == 1:
        far, near_v, near_l = e.lb, e.va, e.la
    else:
        far, near_v, near_l = e.la, e.vb, e.lb
    if mid % far:
        return None
    carried = near_l * (mid // far)
    repl = [("v", near_v, carried)] if carried else []
    return repl, close_at + 1 - i


def oracle_reduce(g: GbsGraph, letters):
    """Britton-reduce by scanning for any pinch until none applies."""
    w = list(letters)
    changed = True
    while changed:
        w = merge_powers(w)
        changed = False
        for i in range(len(w)):
            hit = _pinch_at(g, w, i)
            if hit is not None:
                repl, k = hit
                w[i : i + k] = repl
                changed = True
                break
    return tuple(merge_powers(w))


def edge_count(letters):
    return sum(1 for letter in letters if letter[0] == "e")


def oracle_translation_length(g: GbsGraph, letters):
    """Cyclic reduction by trying every rotation; each pinch removes two
    traversals, so any strict improvement is kept and the loop ends."""
    best = list(oracle_reduce(g, letters))
    improved = True
    while improved and best:
        improved = False
        for r in range(len(best)):
            rot = best[r:] + best[:r]
            red = list(oracle_reduce(g, rot))
            if edge_count(red) < edge_count(best):
                best = red
                improved = True
                break
    return edge_count(best)


def oracle_primes(limit):
    """Sieve of Eratosthenes; returns the set of primes <= limit."""
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return {n for n in range(limit + 1) if flags[n]}


def divisors_are_powers(n):
    """Second formulation of ascending rigidity: every divisor of n is a
    power of n.  Equivalent to rigidity.ascending_rigid."""
    powers = {1}
    p = n
    while p <= n:
        powers.add(p)
        if n <= 1:
            break
        p *= n
    return all(d in powers for d in range(1, n + 1) if n % d == 0)


def oracle_ascending_equivalent(n, d, bound=8):
    """Brute scan of n^i = n^j * d over exact integers."""
    powers = [n**i for i in range(bound + 1)]
    return any(a == b * d for a in powers for b in powers)


# -- sample words ------------------------------------------------------------

def recursive_reduced_words(letters, length):
    """Freely reduced words of the given length over letters (symbol, +1|-1),
    one recursive call per position."""
    inv = {(s, e): (s, -e) for s, e in letters}
    word = []

    def rec(k):
        if k == length:
            yield tuple(word)
            return
        for let in letters:
            if word and word[-1] == inv[let]:
                continue
            word.append(let)
            yield from rec(k + 1)
            word.pop()

    yield from rec(0)


def oracle_index_plan(nsymbols, radius):
    """The explorer's index plan recomputed from recursive_reduced_words:
    (stages, entries), stages[i] listing the syllable words of the fresh
    primitive necklace representatives of core length i + 1 in order of
    discovery, entries (index, power) per word or None for an empty core."""
    letters = [(s, e) for s in range(nsymbols) for e in (1, -1)]

    def inverse(w):
        return tuple((s, -e) for s, e in w[::-1])

    stages, order, entries = [[] for _ in range(radius)], {}, []
    for length in range(1, radius + 1):
        for w in recursive_reduced_words(letters, length):
            while len(w) >= 2 and w[0] == (w[-1][0], -w[-1][1]):
                w = w[1:-1]
            if not w:
                entries.append(None)
                continue
            n = len(w)
            p = min(q for q in range(1, n + 1) if n % q == 0 and w[:q] * (n // q) == w)
            root = w[:p]
            key = min(min(u[r:] + u[:r] for r in range(p)) for u in (root, inverse(root)))
            if key not in order:
                order[key] = len(order)
                syllables = []
                for s, e in key:  # a cyclically reduced word: one sign per run
                    if syllables and syllables[-1][0] == s:
                        syllables[-1] = (s, syllables[-1][1] + e)
                    else:
                        syllables.append((s, e))
                stages[p - 1].append(tuple(syllables))
            entries.append((order[key], n // p))
    return stages, entries


def oracle_spread(entries, values):
    """Fingerprint from per-stage lengths, one entry at a time."""
    flat = [n for stage in values for n in stage]
    return tuple([0 if e is None else e[1] * flat[e[0]] for e in entries])


# -- markings ----------------------------------------------------------------

def modulus_fingerprint(state):
    """Sorted modular-homomorphism values over the seed's cycle basis.

    Read off state.marking: x_v contributes 1, and t_e contributes, per
    power, the value on the cycle it closes, the tree path to vb, e from
    B to A (lb / la) and the tree path back from va.  A traversal from
    side A to side B contributes la / lb.
    """
    g, path_to = state.graph, state.presentation.path_to

    def tree_path(v):
        q = Fraction(1)
        for _, eid, sign in path_to[v]:
            q *= Fraction(g.edge(eid).la, g.edge(eid).lb) ** sign
        return q

    values = []
    for sym, _ in state.seed.modulus:
        q = Fraction(1)
        for gen, exp in state.marking[sym]:
            if gen.startswith("t_"):
                e = g.edge(gen[2:])
                q *= (tree_path(e.vb) * Fraction(e.lb, e.la) / tree_path(e.va)) ** exp
        values.append(q)
    return tuple(sorted(values))


def seed_word(state, word):
    """A word over seed generators transported into state's current
    presentation by substituting each generator's marking word."""
    return substitute(word, state.marking)


# -- marking transport -------------------------------------------------------

def oracle_transport(g, move, h, letters):
    """Letters of a path based at g's least vertex, carried through move
    into h (the graph the move makes of g) one letter at a time, and
    re-based along h's spanning tree; unreduced.

    Written from the move definitions, not from the package's tables: a
    collapse deletes its edge and sends x_drop^m to x_keep^(p m); an
    expansion routes a traversal of a moved end through the new unit
    edge d (v to u before leaving, u to v after arriving); a slide routes
    a traversal of the moved end across the edge it slid over; an
    induction along k sends x^m to t^-1 x^(m n / k) t, t leaving the
    loop's unit end.
    """
    from gbsr.moves import Collapse, Expansion, Induction, Slide
    from gbsr.words import Presentation

    def end(letter, leaving):
        """The edge end a traversal leaves (or arrives at)."""
        return (letter[1], "A" if (letter[2] == 1) == leaving else "B")

    start = g.vertices[0]
    if isinstance(move, Collapse):
        e = g.edge(move.edge)
        keep, drop, p = (e.va, e.vb, e.la) if e.lb == 1 else (e.vb, e.va, e.lb)
        start = keep if start == drop else start
    elif isinstance(move, Expansion):
        (d,) = {e.eid for e in h.edges} - {e.eid for e in g.edges}
        detour, ends = ("e", d, 1), {(x.edge, x.side) for x in move.moved}
    elif isinstance(move, Slide):
        detour = ("e", move.across.edge, 1 if move.across.side == "A" else -1)
        ends = {(move.moving.edge, move.moving.side)}
    elif isinstance(move, Induction):
        e = g.edges[0]
        t = ("e", e.eid, 1 if e.la == 1 else -1)
        factor = max(e.la, e.lb) // move.d
    else:
        raise TypeError(move)
    out = []
    for letter in letters:
        kind, name, val = letter
        if isinstance(move, Collapse):
            if kind == "v" and name == drop:
                out.append(("v", keep, p * val))
            elif not (kind == "e" and name == move.edge):
                out.append(letter)
        elif isinstance(move, Induction):
            if kind == "v":
                out += [t, ("v", name, val * factor), ("e", t[1], -t[2])]
            else:
                out.append(letter)
        else:
            if kind == "e" and end(letter, True) in ends:
                out.append(detour)
            out.append(letter)
            if kind == "e" and end(letter, False) in ends:
                out.append(("e", detour[1], -detour[2]))
    pre = Presentation(h).path_to[start]
    return pre + tuple(out) + tuple((k, x, -v) for k, x, v in reversed(pre))


# -- canonical forms ---------------------------------------------------------

def canonical_key(g: GbsGraph) -> bytes:
    """The reference for graph._canonical_key: every product of
    permutations within the vertex invariant's groups is tried, even
    when each group holds one vertex."""
    # vertex invariant: (degree, sorted (near label, far label, loop) per end)
    sig = {v: [] for v in g.vertices}
    for _, va, la, vb, lb in g.edges:
        sig[va].append((la, lb, va == vb))
        sig[vb].append((lb, la, va == vb))
    groups = {}
    for v, ends in sig.items():
        ends.sort()
        groups.setdefault((len(ends), tuple(ends)), []).append(v)
    n, best = len(g.vertices), None
    for assignment in product(*(permutations(groups[k]) for k in sorted(groups))):
        index = dict(zip(chain.from_iterable(assignment), range(n)))
        rows = []
        for _, va, la, vb, lb in g.edges:
            a, b = index[va], index[vb]
            rows.append((a, la, b, lb) if (a, la) <= (b, lb) else (b, lb, a, la))
        rows.sort()
        key = (n, tuple(rows))
        if best is None or key < best:
            best = key
    return repr(best).encode()


def pooled_graphs(monkeypatch, g):
    """Every graph that one explore from g builds in its pool, then one
    for each other graph content that it canonicalises without building
    a graph (the count walk keys every child's content); g must be rigid
    within explore's default bounds, so the search runs to the end."""
    import gbsr.explorer
    from gbsr.graph import GbsGraph
    from gbsr.moves import _TrustedPool, initial_state

    pools, keyed = [], []

    class Recording(_TrustedPool):
        __slots__ = ()

        def __init__(self):
            pools.append(self)

    key = gbsr.explorer._canonical_key
    monkeypatch.setattr(gbsr.explorer, "_TrustedPool", Recording)
    monkeypatch.setattr(gbsr.explorer, "_canonical_key", lambda *content: keyed.append(content) or key(*content))
    assert gbsr.explorer.explore(initial_state(g)).rigid == "yes"
    (pool,) = pools
    contents = [content for content in pool if isinstance(content, tuple)]
    contents += [content for content in dict.fromkeys(keyed) if content not in pool]
    return [pool[content] if content in pool else GbsGraph(*content) for content in contents]


# -- the explorer's traversal -------------------------------------------------

def reference_explore(seed, bounds=None):
    """The reference for explore on a seed that does not reduce to an
    ascending (1, n) loop: one breadth-first traversal of every state
    within bounds, reduced or not, that reduces and classifies every
    slide and collapse child and stops at the first that opens a second
    class.  explore decides by a search over reduced states first, and
    runs this traversal only to count children or to find the witness."""
    from collections import deque

    from gbsr.explorer import (ExploreBounds, ExploreClass, ExploreReport, _children,
                               _ClassTable, _reduce, _sample_plan)
    from gbsr.moves import Collapse, MoveBounds, Slide, _TrustedPool
    from gbsr.rigidity import _ascending_n

    bounds = bounds or ExploreBounds()
    g0 = seed.graph
    pool = _TrustedPool()
    base = _reduce(seed, pool)
    max_label = bounds.max_label
    if max_label is None:
        max_label = max(g0.max_label(), base.graph.max_label()) ** 2
    inner = MoveBounds(max_edges=len(g0.edges) + bounds.max_extra_edges, max_label=max_label)
    table = _ClassTable(_sample_plan(len(seed.seed.presentation.generators), bounds.radius))
    assert _ascending_n(base.graph) is None
    table.classify(base)

    def traverse():
        """Whether a cap cut the traversal short, up to a second class."""
        clipped, visited, queue, popped = False, {seed.graph.canonical_key()}, deque([seed]), 0
        while queue:
            popped += 1
            if popped > bounds.max_states:
                return True
            state = queue.popleft()
            children = list(_children(state, inner, pool))
            if state.depth - seed.depth >= bounds.max_depth:
                clipped = clipped or bool(children)
                continue
            state.images()  # read once, not through each child's lazy chain
            for mv, child in children:
                if isinstance(mv, (Slide, Collapse)) and table.classify(_reduce(child, pool))[1]:
                    return clipped
                if child.graph.canonical_key() not in visited:
                    visited.add(child.graph.canonical_key())
                    queue.append(child)
        return clipped

    clipped = traverse()
    records = list(table.classes.values())
    witness = records[1].state.history if len(records) > 1 else None
    rigid = "no" if witness is not None else "inconclusive" if clipped else "yes"
    classes = sorted((ExploreClass(rec.state.graph, table.spread(rec.lengths), rec.state.history, rec.count)
                      for rec in records), key=lambda c: (c.graph.canonical_form(), c.fingerprint))
    return ExploreReport(tuple(classes), rigid, witness)


def reference_count(seed, bounds, inner, pool):
    """The reference for the count mode of explorer._traverse: explore's
    traversal from seed over marked states, built through _children,
    counting without classifying.  (clipped, counted), counted listing
    the slide and collapse children of every state it expands, as
    states, in the order read; _traverse(seed, bounds, inner, pool,
    table, record) returns clipped and adds len(counted) to
    record.count."""
    from collections import deque

    from gbsr.explorer import _children
    from gbsr.moves import Collapse, Slide

    clipped, counted = False, []
    visited = {seed.graph.canonical_key()}
    queue = deque([seed])
    popped = 0
    while queue:
        state = queue.popleft()
        popped += 1
        if popped > bounds.max_states:
            return True, counted
        moves = _children(state, inner, pool)
        if state.depth - seed.depth >= bounds.max_depth:
            if next(moves, None) is not None:
                clipped = True
            continue
        for mv, child in moves:
            if isinstance(mv, (Slide, Collapse)):
                counted.append(child)
            key = child.graph.canonical_key()
            if key not in visited:
                visited.add(key)
                queue.append(child)
    return clipped, counted


# -- legal moves -------------------------------------------------------------

def candidates(g: GbsGraph, bounds):
    """Every candidate move in enumerate_moves order, proposed one at a time."""
    from gbsr.moves import Collapse, Expansion, Induction, Slide, _divisors
    from gbsr.rigidity import _ascending_n, divisible_pairs

    for e in g.edges:
        yield Collapse(e.eid)
    for _, moving, across in divisible_pairs(g):
        yield Slide(moving, across)
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
                    yield Expansion(v, p, moved)
    n = _ascending_n(g)
    if n is not None:
        for d in _divisors(n):
            yield Induction(d)


def legal(g: GbsGraph, bounds):
    """The reference for moves._legal_content: (move, surgery) for every
    candidate its move function accepts and whose every resulting label
    is within bounds.max_label, in enumerate_moves order, where
    _legal_content yields (kind, fields, surgery) with kind(*fields) the
    move."""
    from gbsr.errors import GbsError
    from gbsr.moves import _MOVES

    cap = bounds.max_label
    for mv in candidates(g, bounds):
        try:
            surgery = _MOVES[type(mv)](g, mv)
        except GbsError:
            continue
        if cap is None or all(e.la <= cap and e.lb <= cap for e in surgery[1]):
            yield mv, surgery


# -- random inputs -----------------------------------------------------------

def random_graph(rng: random.Random, max_vertices=3, max_edges=3, max_label=6):
    """A random connected labelled graph: spanning tree plus extras."""
    nv = rng.randint(1, max_vertices)
    vertices = ["v%d" % i for i in range(nv)]
    edges = []

    def lab():
        return rng.randint(1, max_label)

    for i in range(1, nv):
        j = rng.randrange(i)
        edges.append(("e%d" % len(edges), vertices[j], lab(), vertices[i], lab()))
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        a, b = rng.choice(vertices), rng.choice(vertices)
        edges.append(("e%d" % len(edges), a, lab(), b, lab()))
    return GbsGraph(vertices, edges)


def random_word(rng: random.Random, symbols, max_syllables=4, max_exp=3):
    word = []
    for _ in range(rng.randint(1, max_syllables)):
        sym = rng.choice(symbols)
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e])
        word.append((sym, exp))
    return tuple(word)
