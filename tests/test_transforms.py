"""Operator identities, medials and de-medialization."""

import pytest

from flagmaps import (
    NotAMedial,
    TypeGraph,
    canonical_code,
    demedialize,
    dual_flag,
    dual_type,
    elements,
    extend,
    flag_orbits,
    isomorphic,
    medial_flag,
    medial_type_double,
    medial_type_extended,
    opposite_flag,
    opposite_type,
    petrie_flag,
    petrie_type,
    pinned_type,
    quotient,
    registry,
    schlafli_gate_for_double_medial,
    torus44,
)
from flagmaps.formats import cube, octahedron, tetrahedron
from flagmaps.permtools import compose


def test_operators_are_involutions():
    for g in (tetrahedron(), cube(), torus44(2, 1, -1, 2)):
        assert dual_flag(dual_flag(g)).s == g.s
        assert petrie_flag(petrie_flag(g)).s == g.s
        assert opposite_flag(opposite_flag(g)).s == g.s


def test_operator_group_is_symmetric_on_three_letters():
    g = cube()
    # dual and petrie generate S3: their product has order three
    h = g
    for _ in range(3):
        h = petrie_flag(dual_flag(h))
    assert h.s == g.s
    # the third involution equals both conjugates
    assert opposite_flag(g).s == dual_flag(petrie_flag(dual_flag(g))).s
    assert opposite_flag(g).s == petrie_flag(dual_flag(petrie_flag(g))).s


def test_type_level_operators_descend():
    for name in registry().values():
        t = pinned_type(name)
        assert dual_type(dual_type(t)).t == t.t
        assert petrie_type(petrie_type(t)).t == t.t
        assert opposite_type(t).t == dual_type(petrie_type(dual_type(t))).t
    assert canonical_code(dual_type(pinned_type("3^0"))) == \
        canonical_code(pinned_type("3^2"))
    # quotient commutes with dual on a concrete map
    g = cube()
    assert canonical_code(quotient(dual_flag(g))) == \
        canonical_code(dual_type(quotient(g)))


def test_medial_flag_layout():
    g = cube()
    me = medial_flag(g)
    n = g.n
    assert me.n == 2 * n
    for x in range(n):
        assert me.s0[x] == g.s1[x]
        assert me.s0[x + n] == g.s1[x] + n
        assert me.s1[x] == g.s2[x]
        assert me.s1[x + n] == g.s0[x] + n
        assert me.s2[x] == x + n
    # all medial vertices are 4-valent, so (s1 s2)^4 fixes every flag
    r = compose(me.s1, me.s2)
    fourth = compose(compose(r, r), compose(r, r))
    assert fourth == tuple(range(me.n))


def test_medial_of_tetrahedron_is_the_octahedron():
    assert isomorphic(medial_flag(tetrahedron()), octahedron()) is not None


def test_medial_skeleton_of_cube():
    sk = elements(medial_flag(cube()))
    assert (sk.num_vertices, sk.num_edges, sk.num_faces) == (12, 24, 14)
    assert sk.euler == 2
    assert sk.orientable
    # triangles and squares mix, so there is no Schlafli pair
    assert sk.schlafli is None


def test_medial_commutes_with_dual():
    for g in (tetrahedron(), cube(), torus44(2, 1, -1, 2)):
        assert isomorphic(medial_flag(g), medial_flag(dual_flag(g)))


DOUBLINGS = {
    "2_01": "4_A",
    "2_1": "4_C",
    "2_02": "4_F",
    "2": "4_G",
    "2_0": "4_H",
    "3^0": "6_D",
    "3^02": "6_M",
}


def test_medial_type_double_matches_pinned_names():
    for half, whole in DOUBLINGS.items():
        got = canonical_code(medial_type_double(pinned_type(half)))
        assert got == canonical_code(pinned_type(whole)), (half, whole)


def test_flag_and_type_medials_share_one_recipe():
    # a flag graph is a type graph with one vertex per flag
    for g in (tetrahedron(), cube(), octahedron(), torus44(3, 0, 0, 3),
              torus44(2, 1, -1, 2)):
        assert medial_flag(g).s == medial_type_double(TypeGraph(*g.s)).t


def test_medial_type_of_a_map_quotient():
    # cube is reflexible and not self-dual: its medial has type 2_01
    t = quotient(medial_flag(cube()))
    assert canonical_code(t) == canonical_code(pinned_type("2_01"))
    # tetrahedron is properly self-dual: its medial stays reflexible
    t = quotient(medial_flag(tetrahedron()))
    assert canonical_code(t) == canonical_code(pinned_type("1"))
    assert canonical_code(medial_type_extended(
        extend(pinned_type("1"), (0,)))) == canonical_code(pinned_type("1"))


def test_medial_type_extended_identifies_copies():
    half = pinned_type("2_1")
    by_d = {
        (0, 1): "2_02",
        (1, 0): "2_0",
    }
    for d, name in by_d.items():
        got = canonical_code(medial_type_extended(extend(half, d)))
        assert got == canonical_code(pinned_type(name)), (d, name)


def test_demedialize_round_trip():
    first, second = demedialize(medial_flag(cube()))
    # the block of flag 0 carries the dual of the original map
    assert isomorphic(first, octahedron()) is not None
    assert isomorphic(second, cube()) is not None
    assert isomorphic(dual_flag(first), second) is not None
    # on a freshly built medial the block layout is the identity
    assert second.s == cube().s

    a, b = demedialize(octahedron())
    assert isomorphic(a, tetrahedron()) is not None
    assert isomorphic(b, tetrahedron()) is not None


def test_demedialize_rejects_odd_valency():
    with pytest.raises(NotAMedial, match=r"witness flag"):
        demedialize(tetrahedron())


def test_demedialize_rejects_single_orbit():
    # the straight 3x3 torus is 4-valent everywhere but is no medial
    with pytest.raises(NotAMedial, match=r"1 flag orbits of sizes \[72\]"):
        demedialize(torus44(3, 0, 0, 3))


def test_double_medial_gate():
    rep = schlafli_gate_for_double_medial(torus44(3, 0, 0, 3))
    assert rep.counts_equal
    assert (rep.orbits, rep.medial_orbits, rep.double_medial_orbits) == \
        (1, 1, 1)
    assert rep.schlafli == (4, 4)

    rep = schlafli_gate_for_double_medial(cube())
    assert not rep.counts_equal
    assert (rep.orbits, rep.medial_orbits, rep.double_medial_orbits) == \
        (1, 2, 4)
    assert rep.schlafli == (4, 3)


def test_flag_orbit_growth_under_medial():
    # each medial step can only refine symmetry away, never add orbits of
    # the original map back
    g = cube()
    me = medial_flag(g)
    assert len(flag_orbits(me)[0]) >= len(flag_orbits(g)[0])
