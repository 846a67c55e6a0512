"""Operators on maps and their symmetry type graphs.

Dual and Petrie act on a flag graph without touching the flag set: the
dual swaps s0 and s2; the Petrie dual keeps vertices and edges but takes
the zig-zag closed walks as faces, replacing s0 by s0 s2. Together they
generate a group of operators isomorphic to S3, whose third involution
is the opposite map dual(petrie(dual)). All three descend to type
graphs color by color.

The medial lives on twice the flags: a flag x of the original map gives
a vertex-side flag (x,0) and a face-side flag (x,2) of Me(M), here laid
out as x and x+n. Its generator action is

    S0 (x,c) = (s1 x, c)
    S1 (x,0) = (s2 x, 0),  S1 (x,2) = (s0 x, 2)
    S2 (x,0) = (x,2)

so every vertex of the medial has valency 4. At the type level the same
recipe doubles a type graph (the symmetry type of Me(M) when M is not
self-dual), while for a self-dual map the two copies are identified
along the polarity d and the medial type lives on the same vertex set
with colors (t1, t2, d).

De-medialization inverts the construction: inside the flag action of a
medial, the subgroup generated by s1, s0 and s2 s1 s2 has two orbits,
and each block carries the flag graph of one of the two dual maps the
input is the medial of.
"""

from dataclasses import dataclass

from .errors import MapError, NotAMedial, check
from .flagmap import FlagGraph, elements, flag_orbits, isomorphic
from .permtools import compose, orbit_partition
from .typegraph import TypeGraph


def dual_flag(g):
    return FlagGraph(g.s2, g.s1, g.s0)


def dual_type(t):
    return TypeGraph(t.t2, t.t1, t.t0)


def petrie_flag(g):
    """Replace s0 by s0 s2; the Petrie polygons become the faces."""
    return FlagGraph(compose(g.s0, g.s2), g.s1, g.s2)


def petrie_type(t):
    return TypeGraph(compose(t.t0, t.t2), t.t1, t.t2)


def opposite_flag(g):
    """dual . petrie . dual, the third involution in the operator group.
    Faces and edges stay; s2 is replaced by s2 s0."""
    return FlagGraph(g.s0, g.s1, compose(g.s2, g.s0))


def opposite_type(t):
    return TypeGraph(t.t0, t.t1, compose(t.t2, t.t0))


def _medial_tables(s0, s1, s2):
    """The medial recipe on raw tables over n points: copy 0 of x is x,
    copy 2 is x + n."""
    n = len(s0)
    return (s1 + tuple(y + n for y in s1),
            s2 + tuple(y + n for y in s0),
            tuple(range(n, 2 * n)) + tuple(range(n)))


def medial_flag(g):
    """The medial map on 2n flags, vertex-side copy first."""
    return FlagGraph(*_medial_tables(*g.s))


def medial_type_double(t):
    """Medial at the type level for maps that are not self-dual: two
    copies (v,0) -> v and (v,2) -> v+k of the type graph, glued by color 2."""
    return TypeGraph(*_medial_tables(*t.t))


def medial_type_extended(x):
    """Medial at the type level for self-dual maps.

    The two copies of the doubling are identified along the polarity:
    class representatives are the copy-0 vertices, and on them the
    colors act as (t1, t2, d). Reading color 1 through the copy-2 side
    gives d t0 d, which the extended graph's own invariant pins to t2.
    """
    _, t1, t2 = x.base.t
    return TypeGraph(t1, t2, x.d)


def demedialize(g):
    """Split a medial map into the dual pair it is the medial of.

    Two checks gate the construction: (s1 s2)^4 must be the identity
    pointwise, and the action generated by {s1, s0, s2 s1 s2} must have
    exactly two orbits of n/2 flags each. Each orbit, reindexed densely,
    carries the involutions (s1, s0, s2 s1 s2) as its own (s0, s1, s2).
    The block containing flag 0 comes first. The result is definitive:
    medial_flag of the first block must reproduce the input up to
    isomorphism, else NotAMedial is raised.
    """
    n = g.n
    s0, s1, s2 = g.s
    r = compose(s1, s2)
    for x in range(n):
        if r[r[r[r[x]]]] != x:
            raise NotAMedial("(s1 s2)^4 is not the identity, "
                             f"witness flag {x}")
    s212 = compose(s2, compose(s1, s2))
    # orbit numbering is by least flag, so the block of flag 0 comes first
    blocks, _ = orbit_partition(n, (s1, s0, s212))
    if len(blocks) != 2 or any(len(b) != n // 2 for b in blocks):
        raise NotAMedial(
            f"vertex-face subgroup has {len(blocks)} flag orbits "
            f"of sizes {[len(b) for b in blocks]}, expected two of {n // 2}")
    out = []
    for block in blocks:
        index = {x: i for i, x in enumerate(block)}
        try:
            out.append(FlagGraph(
                tuple(index[s1[x]] for x in block),
                tuple(index[s0[x]] for x in block),
                tuple(index[s212[x]] for x in block)))
        except MapError as exc:
            raise NotAMedial(f"restricted block is not a map: {exc}") from exc
    if isomorphic(medial_flag(out[0]), g) is None:
        raise NotAMedial("medial of the candidate block does not "
                         "reproduce the input")
    return out[0], out[1]


@dataclass(frozen=True)
class DoubleMedialReport:
    """Flag-orbit counts of M, Me(M), Me(Me(M)) and the resulting gate.

    Equality of the first and third count is a necessary condition for
    Schläfli type {4,4}; when the counts agree the Schläfli pair is
    checked to be (4,4).
    """

    orbits: int
    medial_orbits: int
    double_medial_orbits: int
    schlafli: tuple | None

    @property
    def counts_equal(self):
        return self.orbits == self.double_medial_orbits


def schlafli_gate_for_double_medial(g):
    me = medial_flag(g)
    meme = medial_flag(me)
    report = DoubleMedialReport(
        orbits=len(flag_orbits(g)[0]),
        medial_orbits=len(flag_orbits(me)[0]),
        double_medial_orbits=len(flag_orbits(meme)[0]),
        schlafli=elements(g).schlafli)
    check(not report.counts_equal or report.schlafli == (4, 4),
          "orbit counts of M and Me(Me(M)) agree for a map of type "
          f"{report.schlafli}")
    return report
