"""Words in the fundamental group of a GBS graph and their tree geometry.

The fundamental group is presented with one generator x_v per vertex and
one stable letter t_e per edge outside a deterministically chosen
spanning tree.  A tree edge e with side A at (v, p) and side B at (w, q)
contributes the relation x_v^p = x_w^q; a non-tree edge contributes
t_e x_v^p t_e^-1 = x_w^q.

Internally a group element is a based path word: an alternating sequence
of vertex powers and edge traversals tracing a closed path at the base
vertex.  Edge letters are ('e', eid, sign) with sign +1 meaning the
traversal from side A to side B; vertex powers are ('v', vertex, exp).
Reading words left to right as paths, the stable letter t_e is a single
backward traversal (side B to side A): with that convention the subword
t_e x_v^p t_e^-1 crosses to side A, winds p times, crosses back, and the
pinch rule below turns it into x_w^q exactly as the relation demands.

A pinch is a subword (traversal, vertex power, reverse traversal) whose
power is divisible by the edge label at the far end; it is replaced by
the transported power at the near end.  Translation length on the
Bass-Serre tree is the number of edge letters left after pinching and
cyclic reduction; an element is elliptic iff that count is zero.

All reduction is one stack pass driven by a per-graph pinch table.  The
pass over prefix + rest is the pass over prefix continued over rest, so
callers that share prefixes extend an already reduced stack instead of
starting over; the explorer's trie evaluation restates the pass inline.
One reader turns generator words into path letters through a table of
pieces: a presentation's lifts or a marked state's seed images.
"""

from fractions import Fraction
from operator import countOf, itemgetter
import re
from typing import NamedTuple

from .errors import MalformedWordError, UnknownGeneratorError, WordTooLongError
from .graph import GbsGraph


class PathWord(NamedTuple):
    """A based closed path word.  ``letters`` is a tuple of path letters."""

    base: str
    letters: tuple


class Presentation:
    """Generators with their lifts, relators and tree paths of a graph.

    The spanning tree is grown breadth-first from the least vertex,
    scanning edges in id order, so everything here is deterministic.
    The tree keeps each vertex's parent and the letter that reaches it;
    path_to[v] and lifts[sym] read as dicts, and each path and each lift
    is built when it is first read, so a deep tree costs memory only for
    what is read.

    >>> from .graph import GbsGraph
    >>> p = Presentation(GbsGraph(["v"], [("e", "v", 1, "v", 2)]))
    >>> p.generators
    ('t_e', 'x_v')
    >>> p.lifts["t_e"]
    (('e', 'e', -1),)
    """

    __slots__ = ("graph", "base", "tree", "path_to", "lifts", "generators")

    def __init__(self, graph: GbsGraph):
        self.graph = graph
        self.base = graph.vertices[0]
        tree = set()
        parent = {self.base: None}
        frontier = [self.base]
        while frontier:
            nxt = []
            for v in frontier:
                for end in graph.ends_at(v):
                    e = graph.edge(end.edge)
                    if e.is_loop:
                        continue
                    # outgoing traversal: from this end's side to the other
                    if end.side == "A":
                        w, sign = e.vb, 1
                    else:
                        w, sign = e.va, -1
                    if w not in parent:
                        tree.add(e.eid)
                        parent[w] = (v, ("e", e.eid, sign))
                        nxt.append(w)
            frontier = nxt
        self.tree = frozenset(tree)
        self.path_to = _Paths(self.base, parent)
        crossings = {e.eid: (e.va, e.vb) for e in graph.edges if e.eid not in tree}
        self.lifts = _Lifts(self.path_to, crossings)
        self.generators = tuple(sorted(["x_" + v for v in parent] + ["t_" + eid for eid in crossings]))

    def relators(self):
        """One relator word per edge, as generator words freely equal to 1.

        Tree edge: x_v^p x_w^-q.  Non-tree edge: t_e x_v^p t_e^-1 x_w^-q.
        """
        rel = []
        for e in self.graph.edges:
            xv, xw = "x_" + e.va, "x_" + e.vb
            if e.eid in self.tree:
                rel.append(((xv, e.la), (xw, -e.lb)))
            else:
                t = "t_" + e.eid
                rel.append(((t, 1), (xv, e.la), (t, -1), (xw, -e.lb)))
        return tuple(rel)


class _Paths(dict):
    """vertex -> tree path letters from the base, each built on first
    read by walking up parent to the nearest vertex already read; only
    the vertex read is stored, since storing every vertex passed would
    make a deep tree quadratic again."""

    __slots__ = ("parent",)

    def __init__(self, base, parent):
        super().__init__({base: ()})
        self.parent = parent

    def __missing__(self, v):
        up, w = [], v
        while w not in self:
            w, letter = self.parent[w]
            up.append(letter)
        path = self[w] + tuple(reversed(up))
        self[v] = path
        return path


class _Lifts(dict):
    """generator -> unreduced path letters closed up along the tree, each
    built on first read: x_v goes out to v, winds once and comes back;
    t_e, for e in crossings (edge id -> its A and B vertices), goes out
    to e's B end, crosses e backwards and comes back from its A end.  It
    holds the paths, not their Presentation, so it makes no reference
    cycle."""

    __slots__ = ("paths", "crossings")

    def __init__(self, paths, crossings):
        super().__init__()
        self.paths, self.crossings = paths, crossings

    def __missing__(self, sym):
        name = sym[2:]
        if sym[:2] == "x_" and name in self.paths.parent:
            out = self.paths[name]
            lift = out + (("v", name, 1),) + invert_path_letters(out)
        elif sym[:2] == "t_" and name in self.crossings:
            va, vb = self.crossings[name]
            lift = self.paths[vb] + (("e", name, -1),) + invert_path_letters(self.paths[va])
        else:
            raise KeyError(sym)
        self[sym] = lift
        return lift


def _presentation(g: GbsGraph) -> Presentation:
    """The Presentation of g, built on first use and kept on g."""
    p = g._presentation
    if p is None:
        p = g._presentation = Presentation(g)
    return p


# -- generator words --------------------------------------------------------

_TOKEN = re.compile(r"^([xt])_([A-Za-z0-9_]+)(?:\^(-?\d+))?$")


def parse_word(text: str):
    """Parse a whitespace-separated generator word.

    Tokens are ``x_<vertex>`` or ``t_<edge>`` with an optional integer
    exponent after ``^``:

    >>> parse_word("t_e x_v^-3")
    (('t_e', 1), ('x_v', -3))
    """
    out = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise MalformedWordError("bad token %r" % tok)
        sym, digits = m.group(1) + "_" + m.group(2), m.group(3) or "1"
        try:
            exp = int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise MalformedWordError("exponent of %s has too many digits" % sym) from None
        if exp:
            out.append((sym, exp))
    return free_reduce(out)


def format_word(word) -> str:
    if not word:
        return "1"
    parts = []
    for sym, exp in word:
        parts.append(sym if exp == 1 else "%s^%d" % (sym, exp))
    return " ".join(parts)


def free_reduce(word):
    """Merge adjacent powers of one symbol and drop zero exponents."""
    out = []
    for sym, exp in word:
        if not exp:
            continue
        if out and out[-1][0] == sym:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((sym, merged))
        else:
            out.append((sym, exp))
    return tuple(out)


def invert_word(word):
    return tuple((sym, -exp) for sym, exp in reversed(word))


def substitute(word, table):
    """Replace each generator by its image word and freely reduce.

    A power of an image of the form u s^e u^-1 is written u s^(e k) u^-1
    directly, so its cost does not grow with the exponent.
    """
    out = []
    for sym, exp in word:
        image = table[sym]
        if exp < 0:
            image = invert_word(image)
            exp = -exp
        h = len(image) // 2
        if exp > 1 and len(image) % 2 and image[:h] == invert_word(image[h + 1:]):
            s, e = image[h]
            out.extend(image[:h] + ((s, e * exp),) + image[h + 1:])
            continue
        for _ in range(exp):
            out.extend(image)
    return free_reduce(out)


# -- path words -------------------------------------------------------------

def invert_path_letters(letters):
    """Inverse of a path letter sequence (works for mixed v/e letters)."""
    return tuple((kind, name, -val) for kind, name, val in reversed(letters))


def path_to_generators(p: Presentation, pw: PathWord):
    """Project a based path word back to a generator word.

    Tree-edge traversals vanish; a backward traversal of a non-tree edge
    is the stable letter itself.
    """
    out = []
    for letter in pw.letters:
        if letter[0] == "v":
            out.append(("x_" + letter[1], letter[2]))
        elif letter[1] not in p.tree:
            out.append(("t_" + letter[1], -letter[2]))
    return free_reduce(out)


def _pinch_table(g: GbsGraph):
    """Traversal letter -> (closing letter, far label, near vertex, near
    label), built once per graph.

    This is the whole pinch rule: a traversal, a power at its far end and
    the closing letter pinch when the far label divides the power, and
    leave the power times near label / far label at the near vertex.
    """
    table = g._pinches
    if table is None:
        table = g._pinches = {}
        for e in g.edges:
            fwd, back = ("e", e.eid, 1), ("e", e.eid, -1)
            table[fwd] = (back, e.lb, e.va, e.la)
            table[back] = (fwd, e.la, e.vb, e.lb)
    return table


def _extend(g: GbsGraph, stack, letters):
    """Continue the stack pass of reduce_letters over letters.

    stack is a reduced list; it is extended in place and
    returned.  A stack pass over prefix + rest is the stack of prefix
    continued over rest, so a reduced prefix is never reduced again.
    """
    pinches = _pinch_table(g)
    push, pop = stack.append, stack.pop
    for letter in letters:
        if letter[0] == "v":
            if stack and stack[-1][0] == "v" and stack[-1][1] == letter[1]:
                power = pop()[2] + letter[2]
                if power:
                    push(("v", letter[1], power))
            elif letter[2]:
                push(letter)
            continue
        if not stack:
            push(letter)
            continue
        top = stack[-1]
        if top[0] == "e":
            opener, power = top, 0
        elif len(stack) >= 2 and stack[-2][0] == "e":
            opener, power = stack[-2], top[2]
        else:
            push(letter)
            continue
        closer, far, near_v, near_l = pinches[opener]
        if closer != letter or power % far:
            push(letter)
            continue
        # pinch: drop the opener and the power, carry the power across
        pop()
        if top is not opener:
            pop()
        power = near_l * (power // far)
        if stack and stack[-1][0] == "v" and stack[-1][1] == near_v:
            power += pop()[2]
        if power:
            push(("v", near_v, power))
    return stack


def _append(g: GbsGraph, stack, block):
    """_extend(g, stack, block) for an already reduced block.

    Only the block's head can pinch against the stack: once one of its
    traversals is pushed unchanged, the rest of a reduced block can
    never pinch, so it is copied onto the stack in bulk.
    """
    for i, letter in enumerate(block):
        n = len(stack)
        _extend(g, stack, (letter,))
        if letter[0] == "e" and len(stack) > n:
            stack.extend(block[i + 1:])
            break
    return stack


def reduce_letters(g: GbsGraph, letters):
    """Pinch a letter sequence to Britton-reduced form (single stack pass).

    Divisibility by zero powers always holds, so backtracking traversals
    with nothing in between cancel freely as a special case.
    """
    return tuple(_extend(g, [], letters))


def reduce(p: Presentation, pw: PathWord) -> PathWord:
    """Britton-reduce a based path word.  Idempotent."""
    return PathWord(pw.base, reduce_letters(p.graph, pw.letters))


def is_trivial(p: Presentation, pw: PathWord) -> bool:
    """True iff the based word represents the identity element."""
    return not _extend(p.graph, [], pw.letters)


def _peel(g: GbsGraph, w):
    """Cyclic reduction of the reduced closed list w, by index and without
    a copy: (i, j, seam, pinches).

    The powers at both ends of w meet at the seam and merge into one seam
    power.  While the last traversal, the seam power and the first
    traversal pinch, both traversals are peeled off and the pinch's power,
    merged with the powers next to them, becomes the seam power.  The
    cyclic reduction is w[i:j] followed by seam, a power letter or None,
    and has 2 * pinches fewer edge letters than w.
    """
    i, j = 0, len(w)
    vertex, power = None, 0
    if j and w[0][0] == "v":
        vertex, power, i = w[0][1], w[0][2], 1
    if j > i and w[-1][0] == "v":
        vertex, power, j = w[-1][1], power + w[-1][2], j - 1
    table, pinches = _pinch_table(g), 0
    while j - i >= 2:  # w[i] and w[j - 1] are distinct traversals
        closer, far, near_v, near_l = table[w[j - 1]]
        if closer != w[i] or power % far:
            break
        vertex, power = near_v, near_l * (power // far)
        i, j, pinches = i + 1, j - 1, pinches + 1
        if i < j and w[j - 1][0] == "v":
            power, j = power + w[j - 1][2], j - 1
        if i < j and w[i][0] == "v":
            power, i = power + w[i][2], i + 1
    return i, j, ("v", vertex, power) if power else None, pinches


def _seam_length(g: GbsGraph, w):
    """Translation length of the element spelled by the reduced list w."""
    return countOf(map(itemgetter(0), w), "e") - 2 * _peel(g, w)[3]


def cyclically_reduce_letters(g: GbsGraph, letters):
    """Reduce up to conjugation; the result may be based elsewhere."""
    w = _extend(g, [], letters)
    i, j, seam, _ = _peel(g, w)
    return tuple(w[i:j]) + ((seam,) if seam else ())


def translation_length(p: Presentation, pw: PathWord) -> int:
    """Translation length on the Bass-Serre tree (0 iff elliptic)."""
    return _seam_length(p.graph, _extend(p.graph, [], pw.letters))


def is_elliptic(p: Presentation, pw: PathWord) -> bool:
    return translation_length(p, pw) == 0


# -- generator words read through pieces ------------------------------------

# _read refuses a word whose powers would spell out past this many letters
# in all: the CLI peaks at about 60 MB of memory on 2e6 of them
_MAX_POWER_LETTERS = 2_000_000


def _read(g: GbsGraph, pieces, word):
    """The reduced stack of a generator word, each symbol read as pieces
    gives it: a presentation's lifts or a marked state's images.

    A power of a piece u (v, a, e) u^-1 is u (v, a, e k) u^-1.  Another
    piece is appended in bulk when two of its copies do not pinch (a
    pinch reads at most three letters, so it would lie within two
    copies), and extended once per copy otherwise.  A power that takes
    the letters spelled out so far past _MAX_POWER_LETTERS raises
    WordTooLongError first.
    """
    stack, spelled = [], 0
    for sym, k in word:
        piece, h = pieces[sym], len(pieces[sym]) // 2
        u, rest = piece[:h], piece[h + 1:]
        if len(piece) % 2 and piece[h][0] == "v" and u == invert_path_letters(rest):
            _extend(g, stack, u + (("v", piece[h][1], piece[h][2] * k),) + rest)
            continue
        if k < 0:
            piece, k = invert_path_letters(piece), -k
        spelled += k * len(piece)
        if spelled > _MAX_POWER_LETTERS:
            raise WordTooLongError("a power of %s takes the word past %s path letters"
                                   % (sym, format(_MAX_POWER_LETTERS, ",")))
        twice = piece * 2
        if k > 1 and _extend(g, [], twice) == list(twice):
            _append(g, stack, piece * k)
        else:
            for _ in range(k):
                _extend(g, stack, piece)
    return stack


def _read_length(g: GbsGraph, pieces, word) -> int:
    """Translation length of a generator word read through pieces.

    Conjugation does not change length, so matching first and last
    syllables are merged first; a power s^k left alone has length
    |k| times that of s, whatever the size of k.
    """
    word = list(word)
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        sym, exp = word.pop()
        exp += word.pop(0)[1]
        if exp:
            word.append((sym, exp))
    if len(word) == 1:
        sym, exp = word[0]
        return abs(exp) * _seam_length(g, _read(g, pieces, ((sym, 1),)))
    return _seam_length(g, _read(g, pieces, word))


def _lifts(p: Presentation, word):
    """p.lifts, once every symbol of word is known to be a generator of p
    (reading a lift builds it)."""
    lifts = p.lifts
    for sym, _ in word:
        try:
            lifts[sym]
        except KeyError:
            raise UnknownGeneratorError("%r is not a generator here" % sym) from None
    return lifts


def to_path_word(p: Presentation, word) -> PathWord:
    """A generator word as a based closed path word, read through p.lifts."""
    return PathWord(p.base, tuple(_read(p.graph, _lifts(p, word), word)))


def word_length(p: Presentation, word) -> int:
    """Translation length of a generator word."""
    return _read_length(p.graph, _lifts(p, word), word)


def normalize_word(p: Presentation, word):
    """Canonical-ish rewrite of a generator word through path reduction."""
    return path_to_generators(p, to_path_word(p, word))


def modulus(p: Presentation, pw: PathWord) -> Fraction:
    """Value of the modular homomorphism on a closed path word.

    Each traversal contributes (label at its source end) over (label at
    its target end); on the stable letter of a (1, n) loop this gives n.
    """
    q = Fraction(1)
    for letter in pw.letters:
        if letter[0] != "e":
            continue
        e = p.graph.edge(letter[1])
        if letter[2] == 1:
            q *= Fraction(e.la, e.lb)
        else:
            q *= Fraction(e.lb, e.la)
    return q


def word_modulus(p: Presentation, word) -> Fraction:
    return modulus(p, to_path_word(p, word))
