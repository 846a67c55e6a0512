"""Maps on surfaces encoded as flag graphs.

A map (a 2-cell embedding of a connected graph in a compact surface) is
represented by the action of three fixed-point free involutions s0, s1,
s2 on its flags. A flag stands for an incident (vertex, edge, face)
triple; s_i moves a flag to the unique adjacent flag differing only in
its rank-i element. The axioms are

- each s_i is a fixed-point free involution,
- s0 and s2 commute and their product is fixed-point free,
- the action is transitive on flags.

Vertices, edges and faces of the map are recovered as orbits of the
subgroups generated by pairs of involutions: vertices by <s1,s2>, edges
by <s0,s2>, faces by <s0,s1>. Every edge orbit has exactly 4 flags.

Automorphisms here are color-preserving symmetries of the flag graph,
i.e. permutations commuting with all three involutions. The action of
the automorphism group on flags is semiregular: an automorphism is
determined by the image of a single flag, which makes the search for the
full group a matter of at most n propagations. Dualities are the variant
commuting with s1 and exchanging s0 with s2.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (FixedPointPresent, NotDuality, SizeMismatch, TooSmall,
                     Zero2NotCommuting)
from .permtools import (check_connected, check_involutions, descend,
                        equivariant_bijections, is_bipartite,
                        orbit_partition)


class FlagGraph:
    """Action of the three monodromy generators on n flags.

    The involutions are stored as image tables. Instances are immutable;
    all derived data is computed by module functions.
    """

    __slots__ = ("n", "s")

    def __init__(self, s0, s1, s2, check=True):
        s0, s1, s2 = tuple(s0), tuple(s1), tuple(s2)
        object.__setattr__(self, "n", len(s0))
        object.__setattr__(self, "s", (s0, s1, s2))
        if check:
            self._check()

    def _check(self):
        n = self.n
        if n < 4:
            raise TooSmall("a map", n, 4, "flags")
        labels = ("s0", "s1", "s2")
        check_involutions(self.s, labels)
        for lbl, tab in zip(labels, self.s):
            for x in range(n):
                if tab[x] == x:
                    raise FixedPointPresent(lbl, x)
        s0, _, s2 = self.s
        for x in range(n):
            if s0[s2[x]] != s2[s0[x]]:
                raise Zero2NotCommuting(x)
        for x in range(n):
            if s0[s2[x]] == x:
                raise FixedPointPresent("s0*s2", x)
        check_connected(n, self.s)

    @property
    def s0(self):
        return self.s[0]

    @property
    def s1(self):
        return self.s[1]

    @property
    def s2(self):
        return self.s[2]

    def __eq__(self, other):
        return isinstance(other, FlagGraph) and self.s == other.s

    def __hash__(self):
        return hash(self.s)

    def __repr__(self):
        return f"FlagGraph(n={self.n})"


def validate(s0, s1, s2):
    """Check the map axioms and return the flag graph.

    Raises, in the order checked: TooSmall (fewer than four flags),
    NotPermutation (a table is not a permutation of the flags),
    NotInvolution, FixedPointPresent, Zero2NotCommuting (each with a
    witness flag) or Disconnected (with the component sizes).
    """
    return FlagGraph(s0, s1, s2)


@dataclass(frozen=True)
class MapSkeleton:
    """Vertices, edges and faces of a map, as orbit partitions of flags.

    schlafli is the pair {p, q} when all faces have 2p flags and all
    vertices 2q flags (the map is equivelar), else None.
    """

    vertex_orbits: tuple
    edge_orbits: tuple
    face_orbits: tuple
    euler: int
    orientable: bool
    schlafli: tuple | None

    @property
    def num_vertices(self):
        return len(self.vertex_orbits)

    @property
    def num_edges(self):
        return len(self.edge_orbits)

    @property
    def num_faces(self):
        return len(self.face_orbits)


def elements(g):
    """Orbit partitions of flags under the three rank-2 subgroups."""
    s0, s1, s2 = g.s
    vertices, _ = orbit_partition(g.n, (s1, s2))
    edges, _ = orbit_partition(g.n, (s0, s2))
    faces, _ = orbit_partition(g.n, (s0, s1))
    euler = len(vertices) - len(edges) + len(faces)
    orientable = is_bipartite(g.n, g.s)
    face_sizes = {len(o) for o in faces}
    vertex_sizes = {len(o) for o in vertices}
    schlafli = None
    if len(face_sizes) == 1 and len(vertex_sizes) == 1:
        schlafli = (face_sizes.pop() // 2, vertex_sizes.pop() // 2)
    return MapSkeleton(vertices, edges, faces, euler, orientable, schlafli)


def k_face_of(g, flag, rank):
    """The vertex (rank 0), edge (rank 1) or face (rank 2) containing a flag,
    as the frozen set of its flags.

    The rank-k element of a flag is its orbit under the two involutions of
    the other ranks, so two flags in one orbit yield the identical set.
    """
    if not 0 <= flag < g.n:
        raise ValueError(f"flag {flag} out of range")
    gens = tuple(tab for i, tab in enumerate(g.s) if i != rank)
    orbits, orbit_of = orbit_partition(g.n, gens)
    return frozenset(orbits[orbit_of[flag]])


@dataclass(frozen=True)
class FlagBijection:
    """A bijection between the flags of two maps intertwining the
    generators up to a relabeling of colors:

        image[s_i[x]] = s'_{sigma(i)}[image[x]]

    with sigma the color_action. Automorphisms have sigma = id, dualities
    the 0<->2 swap. The relation is verified at construction."""

    source: FlagGraph = field(repr=False)
    target: FlagGraph = field(repr=False)
    image: tuple
    color_action: tuple = (0, 1, 2)

    def __post_init__(self):
        src, dst = self.source, self.target
        if src.n != dst.n or len(self.image) != src.n:
            raise SizeMismatch(src.n, dst.n)
        img = self.image
        for i in range(3):
            si = src.s[i]
            ti = dst.s[self.color_action[i]]
            for x in range(src.n):
                if img[si[x]] != ti[img[x]]:
                    raise NotDuality(
                        f"color {i} not intertwined at flag {x}")

    def __call__(self, flag):
        return self.image[flag]


DUAL_SWAP = (2, 1, 0)


def color_automorphisms(g):
    """The full automorphism group of the map as explicit flag bijections.

    Found by propagation from the base flag 0 against each of the n
    candidate images; sorted by the image of flag 0. The group order
    divides n and all flag orbits share the size n / order.
    """
    perms = equivariant_bijections(g.s, g.s)
    return [FlagBijection(g, g, p) for p in perms]


@lru_cache(maxsize=1)
def flag_orbits(g):
    """Partition of flags into automorphism orbits.

    Returns (orbits, orbit_of); orbits are numbered by least flag index.
    The orbit count is the k for which the map is a k-orbit map. This is
    the one full automorphism search; the last map's result is kept.
    """
    perms = equivariant_bijections(g.s, g.s)
    return orbit_partition(g.n, perms)


def map_dualities(g):
    """All self-dualities of the map (empty iff the map is not self-dual).

    A duality is a flag bijection exchanging the roles of vertices and
    faces, i.e. intertwining (s0,s1,s2) with (s2,s1,s0). The composite of
    two of them is an automorphism, so the count is 0 or |Aut|.
    """
    s0, s1, s2 = g.s
    perms = equivariant_bijections(g.s, (s2, s1, s0))
    return [FlagBijection(g, g, p, DUAL_SWAP) for p in perms]


def map_polarity(g):
    """Image table of the self-dualities on flag_orbits, or None if the
    map is not self-dual. Dualities differ by automorphisms, which fix
    every orbit, so the first duality found gives the table of all."""
    found = equivariant_bijections(g.s, g.s[::-1], first_only=True)
    if not found:
        return None
    return descend(found[0], *flag_orbits(g))


def duality_kind(g):
    """None if the map is not self-dual, else "proper" or "improper".

    Proper means the polarity fixes every flag orbit. map_polarity checks
    (by descend) that one duality permutes the orbits; that all dualities
    give that polarity is a theorem, checked in the tests on the builtins
    and their medials, not at run time.
    """
    d = map_polarity(g)
    if d is None:
        return None
    return "proper" if d == tuple(range(len(d))) else "improper"


def isomorphic(g, h, color_perm=(0, 1, 2)):
    """A witness bijection g -> h respecting color_perm, or None.

    color_perm relabels colors: the witness f satisfies
    f(s_i[x]) = s'_{color_perm[i]}[f(x)].
    """
    if g.n != h.n:
        raise SizeMismatch(g.n, h.n)
    dst = tuple(h.s[color_perm[i]] for i in range(3))
    # dst[i] must be the target involution for source color i, i.e. we
    # need f(s_i x) = h.s[color_perm[i]](f x): pass reordered tables.
    perms = equivariant_bijections(g.s, dst, first_only=True)
    if not perms:
        return None
    return FlagBijection(g, h, perms[0], tuple(color_perm))
