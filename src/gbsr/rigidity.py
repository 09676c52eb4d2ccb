"""Rigidity decision procedures for GBS graphs.

Whether a reduced GBS tree is the only reduced tree in its deformation
space is decidable from the quotient graph alone.  Because vertex and
edge groups are infinite cyclic, containment of edge groups is just
divisibility of end labels, so every question below is a finite check
over pairs of edge ends at a common vertex.

Two regimes:

* non-ascending graphs: rigid iff every ordered pair of distinct ends
  (E, F) at a common vertex with label(F) | label(E) is harmless,
  meaning either E and F are the two ends of a single loop carrying
  equal labels, or F sits on a loop labelled (1, 1) at a vertex with
  exactly three ends;
* the ascending loop (1, n): rigid iff n is 1 or prime.  A second,
  search-based formulation of the same criterion lives in the explorer
  and both are asserted equal in the tests.

Violations are reported as (vertex, endE, endF, condition) with the
condition tag naming the closest rule that failed: "same-loop" when the
two ends bound one loop but with unequal labels, "valence" when F is on
a unit loop but the vertex has the wrong number of ends, "divides" for
a bare forbidden divisibility, "not-reduced" when the graph was never
reduced to begin with, and "composite" for an ascending loop whose
modulus is composite.
"""

from dataclasses import dataclass, field

from .errors import AscendingCaseError, NotAscendingError, NotReducedError
from .graph import EdgeEnd, GbsGraph


@dataclass(frozen=True)
class RigidityVerdict:
    reduced: bool
    ascending: bool
    strongly_slide_free: bool
    rigid: bool
    violations: tuple = field(default_factory=tuple)

    def to_json(self):
        return {
            "reduced": self.reduced,
            "ascending": self.ascending,
            "stronglySlideFree": self.strongly_slide_free,
            "rigid": self.rigid,
            "violations": [
                {"vertex": v, "endE": str(e), "endF": str(f), "condition": c}
                for v, e, f, c in self.violations
            ],
        }


def collapse_witness(g: GbsGraph):
    """An end labelled 1 on a non-loop edge, or None if g is reduced."""
    for e in g.edges:
        if not e.is_loop:
            if e.la == 1:
                return EdgeEnd(e.eid, "A")
            if e.lb == 1:
                return EdgeEnd(e.eid, "B")
    return None


def is_reduced(g: GbsGraph) -> bool:
    """True iff the label 1 occurs only on loop edges."""
    return collapse_witness(g) is None


def is_ascending(g: GbsGraph) -> bool:
    """True iff g is a single vertex carrying one loop with a unit end.

    Only meaningful for reduced graphs; raises NotReducedError otherwise.
    """
    if not is_reduced(g):
        raise NotReducedError("ascending test needs a reduced graph")
    if len(g.vertices) != 1 or len(g.edges) != 1:
        return False
    e = g.edges[0]
    return e.is_loop and (e.la == 1 or e.lb == 1)


def ascending_modulus(g: GbsGraph) -> int:
    """The n of an ascending (1, n) loop."""
    if not is_ascending(g):
        raise NotAscendingError("not a one-vertex (1, n) loop")
    e = g.edges[0]
    return max(e.la, e.lb)


def divisible_pairs(g: GbsGraph):
    """Every (vertex, endE, endF) of distinct ends at vertex with label(F) |
    label(E), in vertex, E, F order: the slides of E across F."""
    for v in g.vertices:
        ends = g.ends_at(v)
        for e in ends:
            le = g.end_label(e)
            for f in ends:
                if e != f and le % g.end_label(f) == 0:
                    yield v, e, f


def is_strongly_slide_free(g: GbsGraph) -> bool:
    """True iff no vertex carries two distinct ends with one label dividing the other."""
    return next(divisible_pairs(g), None) is None


def _unit_loop_at(g: GbsGraph, end) -> bool:
    e = g.edge(end.edge)
    return e.is_loop and e.la == 1 and e.lb == 1


def nonascending_rigid(g: GbsGraph) -> RigidityVerdict:
    """Decide rigidity of a reduced, non-ascending GBS graph.

    Every ordered pair of distinct ends (E, F) at a vertex with
    label(F) | label(E) must be excused by the equal-label-loop rule or
    the unit-loop-at-a-three-end-vertex rule; otherwise it is recorded
    as a violation and the graph is not rigid.
    """
    if not is_reduced(g):
        raise NotReducedError("rigidity criterion needs a reduced graph")
    if is_ascending(g):
        raise AscendingCaseError("ascending loop: use the modulus criterion")
    pairs = list(divisible_pairs(g))
    violations = []
    for v, e, f in pairs:
        same_loop = e.edge == f.edge
        if same_loop and g.end_label(e) == g.end_label(f):
            continue
        if _unit_loop_at(g, f) and len(g.ends_at(v)) == 3:
            continue
        if same_loop:
            tag = "same-loop"
        elif _unit_loop_at(g, f):
            tag = "valence"
        else:
            tag = "divides"
        violations.append((v, e, f, tag))
    return RigidityVerdict(
        reduced=True,
        ascending=False,
        strongly_slide_free=not pairs,
        rigid=not violations,
        violations=tuple(violations),
    )


# the first 13 primes; as Miller-Rabin bases they decide primality
# exactly for every n below _MR_BOUND (OEIS A014233: the first 12 alone
# are fooled by 318665857834031151167461 = 399165290221 * 798330580441)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below _MR_BOUND, trial
    division above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        d = 43
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ascending_rigid(n: int) -> bool:
    """Rigidity of the ascending loop (1, n): true iff n = 1 or n is prime."""
    return n == 1 or _is_prime(n)


def divisors_are_powers(n: int) -> bool:
    """Second formulation: every divisor of n is a power of n.

    Equivalent to ascending_rigid; both are kept and cross-asserted.
    """
    powers = {1}
    p = n
    while p <= n:
        powers.add(p)
        if n <= 1:
            break
        p *= n
    return all(d in powers for d in range(1, n + 1) if n % d == 0)


def check(g: GbsGraph) -> RigidityVerdict:
    """Full dispatch: handles non-reduced, ascending, and generic graphs."""
    witness = collapse_witness(g)
    if witness is not None:
        return RigidityVerdict(
            reduced=False,
            ascending=False,
            strongly_slide_free=is_strongly_slide_free(g),
            rigid=False,
            violations=((g.end_vertex(witness), witness, witness, "not-reduced"),),
        )
    if is_ascending(g):
        n = ascending_modulus(g)
        rigid = ascending_rigid(n)
        e = g.edges[0]
        a, b = EdgeEnd(e.eid, "A"), EdgeEnd(e.eid, "B")
        unit, other = (a, b) if e.la == 1 else (b, a)
        violations = () if rigid else ((e.va, other, unit, "composite"),)
        return RigidityVerdict(
            reduced=True,
            ascending=True,
            strongly_slide_free=is_strongly_slide_free(g),
            rigid=rigid,
            violations=violations,
        )
    return nonascending_rigid(g)
