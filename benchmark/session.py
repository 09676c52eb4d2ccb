"""The cli-session workload: a seeded stream of `gbsr.cli.main(argv)` calls.

One pass of the stream always holds the same mix of commands, so that
seeds change the arguments and not the amount of work:

* `check` on random graphs, and on `(1, n)` loops (small n, primes and
  products of two primes near 1e11, and cheap composites near 1e11);
* `length` on `(1, n)` loops: words whose stable letters share one sign
  (exponents up to 3000 on t, 1e4 on x), and a fixed two per pass of the conjugate
  shape t^-k x^m t^k with k <= 300 (cyclic reduction rotates such a word
  one letter per reduction pass, which is quadratic in k: k = 1e4 would
  take about 40 s, so k is capped to keep every command within budget);
* the verified state commands `reduce`, `collapse`, `expand`, `slide`
  and `induct` (one of them `induct 720` on `(1, 720720)`);
* the README `explore` examples;
* illegal moves, which must exit 1 with a named domain error.

Each command carries its expected exit code and a check of its output
that does not use the package: loop verdicts come from the sieve in
`tests/oracle.py`, `length` on a loop must equal |t-exponent|, and the
legality of each move is decided here from the labels.
"""

import os
from math import isqrt

from corpus import expected_rigid, to_text

ROUND = {
    "check-random": 24,
    "check-loop-small": 2,
    "check-loop-prime": 5,
    "check-loop-semiprime": 5,
    "check-loop-composite": 4,
    "length": 14,
    "length-conjugate": 2,
    "reduce": 4,
    "collapse": 4,
    "expand": 4,
    "slide": 4,
    "induct": 4,
    "induct-heavy": 1,
    "illegal": 8,
    "explore": 2,
}

# README examples: bs26 is not rigid, loop(2, 3) is.
EXPLORE_EXAMPLES = (
    ((1, ((0, 2, 0, 6),)), "no"),
    ((1, ((0, 2, 0, 3),)), "yes"),
)

BIG = 10 ** 11


class Command:
    __slots__ = ("kind", "argv", "code", "error", "check")

    def __init__(self, kind, argv, code=0, error=None, check=None):
        self.kind = kind
        self.argv = argv
        self.code = code
        self.error = error  # expected domain error name when code == 1
        self.check = check  # stdout -> bool, or None


def _loop(n):
    return (1, ((0, 1, 0, n),))


def _random_graph(rng, max_label=8):
    nv = rng.randint(1, 3)
    edges = []
    for i in range(1, nv):
        edges.append((rng.randrange(i), rng.randint(1, max_label), i, rng.randint(1, max_label)))
    for _ in range(rng.randint(0, 3 - len(edges))):
        edges.append((rng.randrange(nv), rng.randint(1, max_label),
                      rng.randrange(nv), rng.randint(1, max_label)))
    return (nv, tuple(edges))


def _ends(graph):
    """(vertex, end name, label) for every edge end."""
    out = []
    for k, (a, la, b, lb) in enumerate(graph[1]):
        out.append((a, "e%d.A" % k, la))
        out.append((b, "e%d.B" % k, lb))
    return out


def _reduced(graph):
    return all(a == b or (la != 1 and lb != 1) for a, la, b, lb in graph[1])


def _check_flags(graph):
    reduced = _reduced(graph)
    rigid = reduced and expected_rigid(graph)

    def ok(out):
        flags = out.splitlines()[0].split()
        return flags[0] == ("reduced" if reduced else "not-reduced") and \
            flags[3] == ("rigid" if rigid else "not-rigid")

    return ok


class Oracle:
    """Primality by trial division with the primes of `oracle_primes`."""

    def __init__(self, oracle_primes, limit):
        self.primes = sorted(oracle_primes(isqrt(limit) + 1))

    def is_prime(self, n):
        if n < 2:
            return False
        for p in self.primes:
            if p * p > n:
                return True
            if n % p == 0:
                return False
        return True


def build(rng, oracle, workdir):
    """One pass of commands, with graph files written under workdir."""
    files = {}

    def path(graph):
        text = to_text(graph)
        if text not in files:
            name = os.path.join(workdir, "g%d.gbs" % len(files))
            with open(name, "w", encoding="utf-8") as f:
                f.write(text)
            files[text] = name
        return files[text]

    def loop_check(n):
        rigid = n == 1 or oracle.is_prime(n)
        return Command("check", ["check", path(_loop(n))],
                       check=lambda out: out.split()[3] == ("rigid" if rigid else "not-rigid"))

    def random_prime(lo, hi):
        n = rng.randrange(lo, hi)
        while not oracle.is_prime(n):
            n += 1
        return n

    def with_moves(choose):
        """Draw random graphs until `choose` finds a move on one."""
        while True:
            graph = _random_graph(rng)
            found = choose(graph)
            if found is not None:
                return graph, found

    def collapse(graph):
        ks = [k for k, (a, la, b, lb) in enumerate(graph[1]) if a != b and 1 in (la, lb)]
        return "e%d" % rng.choice(ks) if ks else None

    def expand(graph):
        v = rng.randrange(graph[0])
        here = [(end, lab) for w, end, lab in _ends(graph) if w == v]
        ps = sorted({p for _, lab in here for p in range(2, lab + 1) if lab % p == 0})
        if not ps:
            return None
        p = rng.choice(ps)
        moved = [end for end, lab in here if lab % p == 0 and rng.random() < 0.5]
        return ["v%d" % v, str(p)] + moved

    def slide_pairs(graph, legal):
        ends = _ends(graph)
        return [
            (e, f) for v, e, le in ends for w, f, lf in ends
            if v == w and e.split(".")[0] != f.split(".")[0] and (le % lf == 0) == legal
        ]

    def slide(graph, legal=True):
        pairs = slide_pairs(graph, legal)
        return rng.choice(pairs) if pairs else None

    def state(kind, graph, args, flag_json):
        argv = [kind, path(graph)] + list(args) + (["--json"] if flag_json else [])
        return Command(kind, argv)

    def illegal(i):
        which = i % 4
        if which == 0:
            graph = (1, ((0, rng.randint(1, 8), 0, rng.randint(1, 8)),))
            return Command("illegal", ["collapse", path(graph), "e0"], 1, "NotCollapsible")
        if which == 1:
            graph, (e, f) = with_moves(lambda g: slide(g, legal=False))
            return Command("illegal", ["slide", path(graph), e, "across", f], 1, "NotDivisible")
        if which == 2:
            n = rng.randint(2, 60)
            d = rng.choice([d for d in range(2, 2 * n + 2) if n % d])
            return Command("illegal", ["induct", path(_loop(n)), str(d)], 1, "NotDivisor")
        p = rng.randint(2, 5)
        graph = (1, ((0, p + 1, 0, p * rng.randint(1, 3)),))
        return Command("illegal", ["expand", path(graph), "v0", str(p), "e0.A"], 1, "NotDivisible")

    def length(conjugate):
        n = rng.randint(2, 12)
        if conjugate:
            k = rng.randint(200, 300)
            m = rng.choice([-1, 1]) * rng.randint(1, 10 ** 4)
            syllables = ["t_e0^-%d" % k, "x_v0^%d" % m, "t_e0^%d" % k]
            texp = 0
        else:
            sign = rng.choice([-1, 1])
            syllables = []
            texp = 0
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.6:
                    k = sign * rng.randint(1, 3000)
                    syllables.append("t_e0^%d" % k)
                    texp += k
                else:
                    syllables.append("x_v0^%d" % (rng.choice([-1, 1]) * rng.randint(1, 10 ** 4)))
        want = str(abs(texp))
        return Command("length", ["length", path(_loop(n)), " ".join(syllables)],
                       check=lambda out: out.strip() == want)

    cmds = []
    for kind, count in ROUND.items():
        for i in range(count):
            if kind == "check-random":
                graph = _random_graph(rng, 12)
                argv = ["check", path(graph)] + (["--json"] if i % 4 == 3 else [])
                cmds.append(Command("check", argv, check=None if i % 4 == 3 else _check_flags(graph)))
            elif kind == "check-loop-small":
                cmds.append(loop_check(rng.randint(1, 60)))
            elif kind == "check-loop-prime":
                cmds.append(loop_check(random_prime(BIG - BIG // 10, BIG)))
            elif kind == "check-loop-semiprime":
                p = random_prime(300_000, 316_000)
                q = random_prime(300_000, 316_000)
                cmds.append(loop_check(p * q))
            elif kind == "check-loop-composite":
                cmds.append(loop_check(rng.choice([2, 3, 5, 7]) * rng.randrange(BIG // 20, BIG // 10)))
            elif kind in ("length", "length-conjugate"):
                cmds.append(length(kind == "length-conjugate"))
            elif kind == "reduce":
                cmds.append(state("reduce", _random_graph(rng), [], i % 2))
            elif kind == "collapse":
                graph, edge = with_moves(collapse)
                cmds.append(state("collapse", graph, [edge], i % 2))
            elif kind == "expand":
                graph, args = with_moves(expand)
                cmds.append(state("expand", graph, args, i % 2))
            elif kind == "slide":
                graph, (e, f) = with_moves(slide)
                cmds.append(state("slide", graph, [e, "across", f], i % 2))
            elif kind == "induct":
                n = rng.randint(2, 5000)
                d = rng.choice([d for d in range(1, isqrt(n) + 1) if n % d == 0])
                cmds.append(state("induct", _loop(n), [str(d)], i % 2))
            elif kind == "induct-heavy":
                cmds.append(state("induct", _loop(720720), ["720"], False))
            elif kind == "illegal":
                cmds.append(illegal(i))
            elif kind == "explore":
                graph, rigid = EXPLORE_EXAMPLES[i % len(EXPLORE_EXAMPLES)]
                cmds.append(Command("explore", ["explore", path(graph)],
                                    check=lambda out, rigid=rigid: out.startswith("rigid: %s\n" % rigid)))
    rng.shuffle(cmds)
    return cmds
