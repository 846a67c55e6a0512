"""Symmetry type graphs.

The symmetry type graph of a map is the quotient of its flag graph by
the orbits of the automorphism group: one vertex per flag orbit, with the
induced action of the three involutions. Since automorphisms commute
with the generators, the quotient is well defined. It is a trivalent
edge-colored pregraph: t_i[v] = v encodes a semi-edge of color i, and
t_i[v] = t_j[v] = w a double edge.

Not every colored pregraph arises this way. The quotient of the 0-2
colored 4-cycles of the flag graph forces every component of the
{t0,t2}-subgraph to be one of five shapes:

- Q4: an alternating 4-cycle of colors 0 and 2,
- Q2a: a color-0 edge with color-2 semi-edges at both ends,
- Q2b: a color-2 edge with color-0 semi-edges at both ends,
- Q2c: two vertices joined by a double edge of colors 0 and 2,
- Q1: a single vertex with semi-edges of colors 0 and 2.

Equivalently t0 and t2 commute and their product has orbit sizes 1 or 2.

A self-dual map induces a polarity on its type graph: an involutory
vertex permutation d with d t1 = t1 d and d t0 d = t2. Recording d as a
fourth matching of color D yields the extended symmetry type graph. The
polarity is proper when d is the identity (every orbit preserved).
"""

from dataclasses import dataclass

from .errors import (BadZeroTwoComponent, NotDuality, NotPolarity, TooSmall,
                     check)
from .flagmap import flag_orbits
from .permtools import (canonical_form, check_connected, check_image_table,
                        check_involutions, descend, equivariant_bijections,
                        is_involution, orbit_partition)


class TypeGraph:
    """Trivalent edge-colored pregraph on k vertices, one involution image
    table per color; fixed points are semi-edges."""

    __slots__ = ("k", "t")

    def __init__(self, t0, t1, t2, check=True):
        t0, t1, t2 = tuple(t0), tuple(t1), tuple(t2)
        object.__setattr__(self, "k", len(t0))
        object.__setattr__(self, "t", (t0, t1, t2))
        if check:
            self._check()

    def _check(self):
        k = self.k
        if k < 1:
            raise TooSmall("a type graph", k, 1, "vertex")
        check_involutions(self.t, ("t0", "t1", "t2"))
        t0, _, t2 = self.t
        if any(t0[t2[v]] != t2[t0[v]] for v in range(k)):
            # commuting is exactly the 0-2 shape condition, so some
            # component is of a bad shape; name the first one
            for comp in zero_two_components(t0, t2):
                classify_zero_two_component(t0, t2, comp)
        check_connected(k, self.t)

    @property
    def t0(self):
        return self.t[0]

    @property
    def t1(self):
        return self.t[1]

    @property
    def t2(self):
        return self.t[2]

    def __eq__(self, other):
        return isinstance(other, TypeGraph) and self.t == other.t

    def __hash__(self):
        return hash(self.t)

    def __repr__(self):
        return f"TypeGraph(k={self.k}, t={self.t})"


def zero_two_components(t0, t2):
    orbits, _ = orbit_partition(len(t0), (t0, t2))
    return orbits


def classify_zero_two_component(t0, t2, comp):
    """Name the shape of one {t0,t2}-component, or raise
    BadZeroTwoComponent if it is none of the five admissible quotients."""
    if len(comp) == 1:
        return "Q1"
    if len(comp) == 2:
        x, y = comp
        swap0 = t0[x] == y
        swap2 = t2[x] == y
        if swap0 and swap2:
            return "Q2c"
        if swap0:
            return "Q2a"
        if swap2:
            return "Q2b"
        raise BadZeroTwoComponent(comp, "two vertices with no 0/2 edge")
    if len(comp) == 4:
        x = comp[0]
        a = t0[x]
        b = t2[a]
        c = t0[b]
        if (a != x and b != a and c != b and t2[c] == x
                and len({x, a, b, c}) == 4):
            return "Q4"
        raise BadZeroTwoComponent(comp, "4 vertices, not an alternating cycle")
    raise BadZeroTwoComponent(
        comp, f"{len(comp)} vertices is not a quotient size of a 4-cycle")


def validate_type(t0, t1, t2):
    """Check the pregraph invariants and return the TypeGraph."""
    return TypeGraph(t0, t1, t2)


class ExtendedTypeGraph:
    """A type graph together with a polarity matching of color D."""

    __slots__ = ("base", "d")

    def __init__(self, base, d, check=True):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "d", tuple(d))
        if check:
            self._check()

    def _check(self):
        t0, t1, t2 = self.base.t
        d = self.d
        k = self.base.k
        check_image_table(d, k, "d")
        for v in range(k):
            if d[d[v]] != v:
                raise NotPolarity(v)
        for v in range(k):
            if d[t1[v]] != t1[d[v]]:
                raise NotDuality(f"d t1 != t1 d at vertex {v}")
        for v in range(k):
            if d[t0[d[v]]] != t2[v]:
                raise NotDuality(f"d t0 d != t2 at vertex {v}")

    @property
    def k(self):
        return self.base.k

    def __eq__(self, other):
        return (isinstance(other, ExtendedTypeGraph)
                and self.base == other.base and self.d == other.d)

    def __hash__(self):
        return hash((self.base.t, self.d))

    def __repr__(self):
        return f"ExtendedTypeGraph(k={self.k}, d={self.d})"


def quotient(g):
    """The symmetry type graph of a map.

    Vertices are the flag orbits of flag_orbits; t_i sends the orbit of
    x to the orbit of s_i[x]. descend checks, for every flag, that this
    is well defined, and TypeGraph validates the result.
    """
    orbits = flag_orbits(g)
    return TypeGraph(*(descend(tab, *orbits) for tab in g.s))


def face_orbit_counts(t):
    """(c12, c02, c01): component counts of the three rank-2 subgraphs.

    c12 counts vertex orbits of the underlying maps, c02 edge orbits and
    c01 face orbits.
    """
    t0, t1, t2 = t.t
    c12 = len(orbit_partition(t.k, (t1, t2))[0])
    c02 = len(orbit_partition(t.k, (t0, t2))[0])
    c01 = len(orbit_partition(t.k, (t0, t1))[0])
    return (c12, c02, c01)


def is_edge_transitive_type(t):
    """True iff the colour-{0,2} subgraph is connected (one edge orbit)."""
    return face_orbit_counts(t)[1] == 1


def type_automorphisms(t):
    """All color-preserving vertex permutations commuting with t0,t1,t2."""
    return equivariant_bijections(t.t, t.t)


def type_dualities(t):
    """All vertex permutations phi with phi t1 = t1 phi, phi t0 = t2 phi,
    phi t2 = t0 phi; empty iff t is not a self-dual type."""
    t0, t1, t2 = t.t
    return equivariant_bijections(t.t, (t2, t1, t0))


def polarities(t):
    """The involutory dualities of t (the ones extendable to color D)."""
    return [d for d in type_dualities(t) if is_involution(d)]


def admits_proper(t):
    """Whether some polarity of t is proper, with an obstruction witness.

    A proper polarity preserves every vertex, so it must be the identity,
    and the identity is a duality iff t0 = t2. Components of shape Q4,
    Q2a or Q2b force t0 != t2 and are returned as the obstruction;
    otherwise all components are Q2c or Q1, t0 = t2 holds, and the
    identity polarity is verified directly.
    """
    t0, t2 = t.t[0], t.t[2]
    for comp in zero_two_components(t0, t2):
        shape = classify_zero_two_component(t0, t2, comp)
        if shape in ("Q4", "Q2a", "Q2b"):
            return False, comp
    check(t0 == t2, "t0 != t2 although no component forces it")
    ident = tuple(range(t.k))
    check(ident in polarities(t), "the identity is not a polarity")
    return True, None


def extend(t, d):
    """Attach a polarity as the color-D matching.

    Raises NotPolarity when d has order greater than 2 and NotDuality
    when the intertwining with t0, t1, t2 fails.
    """
    return ExtendedTypeGraph(t, d)


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Relabeling-invariant key of a (possibly extended) type graph.

    Two graphs get equal codes iff some vertex relabeling carries one to
    the other color by color. The canonical tables themselves are a valid
    representative graph.
    """

    kind: str
    tables: tuple

    @property
    def k(self):
        return len(self.tables[0])

    @property
    def code(self):
        parts = [self.kind, str(self.k)]
        parts.extend(",".join(map(str, tab)) for tab in self.tables)
        return ";".join(parts).encode("ascii")

    def __str__(self):
        return self.code.decode("ascii")


def canonical_code(t):
    """CanonicalCode of a TypeGraph or ExtendedTypeGraph.

    For each start vertex a breadth-first traversal visiting colors in
    the order 0, 1, 2 (then D) assigns discovery numbers; the least
    relabeled table tuple over all starts is the code. Rigidity of the
    traversal gives canonicity, exactly as in the semiregularity argument
    for flag graphs. A start is dropped at the first position where its
    colour-0 row exceeds the best one found so far; the tables are
    compared lexicographically, colour 0 first, so this leaves the code
    unchanged; on a rigid type graph most starts end after a few steps.
    """
    if isinstance(t, ExtendedTypeGraph):
        return CanonicalCode("xstg", canonical_form(t.base.t + (t.d,)))
    return CanonicalCode("stg", canonical_form(t.t))


def realize(code):
    """Concrete graph built from a code's canonical tables."""
    if code.kind == "stg":
        return TypeGraph(*code.tables)
    if code.kind == "xstg":
        return ExtendedTypeGraph(TypeGraph(*code.tables[:3]), code.tables[3])
    raise ValueError(f"unknown code kind {code.kind!r}")
