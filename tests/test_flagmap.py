"""Flag graph validation, skeleton extraction and symmetry search.

Automorphism counts are cross-checked against an independent VF2
matching on the edge-colored graph (networkx), so the propagation search
never grades its own homework.
"""

import random

import networkx as nx
import pytest

from flagmaps import (FlagBijection, FlagGraph, color_automorphisms,
                      cube, duality_kind, elements, extend,
                      flag_graph_from_walks, flag_orbits, isomorphic,
                      k_face_of, map_dualities, map_polarity, medial_flag,
                      octahedron, quotient, tetrahedron, torus44, validate)
from flagmaps.errors import (Disconnected, FixedPointPresent, NotDuality,
                             NotInvolution, SizeMismatch, Zero2NotCommuting)
from flagmaps.permtools import conjugate, descend


def nx_aut_count(g):
    """Independent automorphism count: VF2 on the colored edge set."""
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    for c, tab in enumerate(g.s):
        for x in range(g.n):
            y = tab[x]
            if x < y:
                if graph.has_edge(x, y):
                    graph[x][y]["colors"] = graph[x][y]["colors"] | {c}
                else:
                    graph.add_edge(x, y, colors={c})
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        graph, graph, edge_match=lambda a, b: a["colors"] == b["colors"])
    return sum(1 for _ in matcher.isomorphisms_iter())


def relabeled(g, rng):
    s = list(range(g.n))
    rng.shuffle(s)
    s = tuple(s)
    return FlagGraph(*(conjugate(tab, s) for tab in g.s))


def asymmetric_map():
    """A sphere map with two pendant edges placed to kill every symmetry."""
    return flag_graph_from_walks(
        [[1, 2, 3], [1, 3, 4], [1, 6, 1, 4, 3, 2, 5, 2]])


def test_tetrahedron_validates():
    g = tetrahedron()
    assert g.n == 24
    assert validate(*g.s) == g


def test_validation_errors():
    g = cube()
    s0, s1, s2 = g.s
    shift = tuple((x + 1) % g.n for x in range(g.n))
    with pytest.raises(NotInvolution):
        FlagGraph(shift, s1, s2)
    fixed = list(s1)
    fixed[s1[0]] = s1[0]
    fixed[0] = 0
    with pytest.raises(FixedPointPresent):
        FlagGraph(s0, tuple(fixed), s2)
    with pytest.raises(Zero2NotCommuting):
        FlagGraph(s0, s1, conjugate(s2, s1))
    # s0 = s2 makes their product the identity, all fixed points
    with pytest.raises(FixedPointPresent) as err:
        FlagGraph(s0, s1, s0)
    assert "s0*s2" in str(err.value)
    with pytest.raises(ValueError):
        FlagGraph((1, 0), (1, 0), (1, 0))


def test_disconnected_rejected():
    g = tetrahedron()
    n = g.n
    doubled = tuple(
        tuple(tab) + tuple(x + n for x in tab) for tab in g.s)
    with pytest.raises(Disconnected):
        FlagGraph(*doubled)


@pytest.mark.parametrize("builder,counts,schlafli", [
    (tetrahedron, (4, 6, 4), (3, 3)),
    (cube, (8, 12, 6), (4, 3)),
    (octahedron, (6, 12, 8), (3, 4)),
])
def test_platonic_skeletons(builder, counts, schlafli):
    sk = elements(builder())
    assert (sk.num_vertices, sk.num_edges, sk.num_faces) == counts
    assert sk.euler == 2
    assert sk.orientable
    assert sk.schlafli == schlafli


def test_every_edge_orbit_has_four_flags():
    for g in (tetrahedron(), cube(), octahedron(), torus44(2, 1, -1, 2)):
        for orbit in elements(g).edge_orbits:
            assert len(orbit) == 4


def test_k_face_sizes():
    g = tetrahedron()
    assert len(k_face_of(g, 0, 0)) == 6    # valency 3 vertex
    assert len(k_face_of(g, 0, 1)) == 4
    assert len(k_face_of(g, 0, 2)) == 6    # triangular face
    # the flag itself belongs to each of its faces
    for rank in range(3):
        assert 0 in k_face_of(g, 0, rank)


def test_automorphism_counts_against_vf2():
    for g, expected in ((tetrahedron(), 24), (cube(), 48)):
        auts = color_automorphisms(g)
        assert len(auts) == expected
        assert nx_aut_count(g) == expected


def test_asymmetric_map_has_trivial_group():
    g = asymmetric_map()
    assert g.n == 28
    assert elements(g).euler == 2
    auts = color_automorphisms(g)
    assert len(auts) == 1
    assert auts[0].image == tuple(range(g.n))
    assert nx_aut_count(g) == 1
    orbits, _ = flag_orbits(g)
    assert len(orbits) == g.n


def test_flag_orbit_counts():
    assert len(flag_orbits(tetrahedron())[0]) == 1
    assert len(flag_orbits(torus44(2, 1, -1, 2))[0]) == 2


def test_dualities_and_kinds():
    tetra = tetrahedron()
    assert duality_kind(tetra) == "proper"
    assert duality_kind(cube()) is None
    assert not map_dualities(cube())
    # the skewed torus is self-dual but no duality fixes its two orbits
    assert duality_kind(torus44(2, 1, -1, 2)) == "improper"
    dualities = map_dualities(tetra)
    assert dualities
    assert all(d.color_action == (2, 1, 0) for d in dualities)


def test_isomorphic_accepts_relabelings():
    rng = random.Random(23)
    for g in (tetrahedron(), torus44(2, 1, -1, 2)):
        for _ in range(5):
            h = relabeled(g, rng)
            f = isomorphic(g, h)
            assert f is not None
            assert [f(x) for x in range(g.n)] == list(f.image)


def test_isomorphic_rejects():
    # same flag count, different maps
    assert isomorphic(cube(), octahedron()) is None
    # but dual to each other: color swap 0 <-> 2 matches them
    assert isomorphic(cube(), octahedron(), (2, 1, 0)) is not None
    with pytest.raises(SizeMismatch):
        isomorphic(cube(), tetrahedron())


def test_flag_bijection_checks_intertwining():
    g = tetrahedron()
    ident = tuple(range(g.n))
    FlagBijection(g, g, ident)
    bad = list(ident)
    bad[0], bad[1] = bad[1], bad[0]
    with pytest.raises(NotDuality):
        FlagBijection(g, g, tuple(bad))


BUILTINS = (tetrahedron, cube, octahedron, lambda: torus44(3, 0, 0, 3),
            lambda: torus44(2, 1, -1, 2))


@pytest.mark.parametrize("medial", (False, True), ids=("map", "medial"))
@pytest.mark.parametrize("build", BUILTINS,
                         ids=("tetrahedron", "cube", "octahedron",
                              "torus44(3,0,0,3)", "torus44(2,1,-1,2)"))
def test_every_duality_induces_the_map_polarity(build, medial):
    # the theorem behind map_polarity: dualities differ by automorphisms,
    # which fix every flag orbit, so they all descend to one polarity
    g = medial_flag(build()) if medial else build()
    polarity = map_polarity(g)
    dualities = map_dualities(g)
    assert (polarity is None) == (not dualities)
    orbits = flag_orbits(g)
    assert {descend(d.image, *orbits) for d in dualities} <= {polarity}
    if polarity is not None:
        extend(quotient(g), polarity)  # raises unless it is a polarity
        proper = polarity == tuple(range(len(polarity)))
        assert duality_kind(g) == ("proper" if proper else "improper")
