"""Permutation toolkit tests.

The canonical-form and propagation-search routines carry the whole
package, so they get randomized cross-checks here: relabeling invariance
against seeded shuffles, and automorphism counts against structures
whose symmetry is known by hand.
"""

import hashlib
import random

import pytest

from flagmaps import (FlagGraph, canonical_code, enumerate_types, extend,
                      polarities, quotient, realize)
from flagmaps.errors import Disconnected
from flagmaps.permtools import (canonical_form, check_connected,
                                check_image_table, compose, conjugate,
                                descend, equivariant_bijections, inverse,
                                involutions, is_bipartite, is_involution,
                                orbit_partition)

TELEPHONE = (1, 2, 4, 10, 26, 76, 232, 764)


def random_perm(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_compose_inverse():
    rng = random.Random(11)
    for n in (1, 2, 5, 9, 17):
        ident = tuple(range(n))
        for _ in range(20):
            p = random_perm(n, rng)
            q = random_perm(n, rng)
            assert compose(p, inverse(p)) == ident
            assert compose(inverse(p), p) == ident
            # composition is x -> p[q[x]]
            assert compose(p, q)[3 % n] == p[q[3 % n]]


def test_conjugate_is_relabeling():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randrange(2, 12)
        t = random_perm(n, rng)
        s = random_perm(n, rng)
        c = conjugate(t, s)
        for x in range(n):
            assert c[s[x]] == s[t[x]]
        assert c == compose(s, compose(t, inverse(s)))


def test_is_involution():
    assert is_involution((0, 1, 2))
    assert is_involution((1, 0, 3, 2))
    assert not is_involution((1, 2, 0))


def test_check_image_table_rejects_malformed():
    check_image_table((1, 0, 2), 3, "p")
    with pytest.raises(ValueError):
        check_image_table((1, 0), 3, "p")
    with pytest.raises(ValueError):
        check_image_table((1, 0, 3), 3, "p")
    with pytest.raises(ValueError):
        check_image_table((1, 1, 0), 3, "p")
    with pytest.raises(ValueError):
        check_image_table((1, 0, "2"), 3, "p")


def test_orbit_partition_numbering():
    # two 4-cycles as one table
    tab = (1, 2, 3, 0, 5, 6, 7, 4)
    orbits, orbit_of = orbit_partition(8, (tab,))
    assert orbits == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert orbit_of == (0, 0, 0, 0, 1, 1, 1, 1)
    # orbits are numbered by least element even when discovered late
    orbits2, _ = orbit_partition(4, ((0, 1, 3, 2),))
    assert orbits2 == ((0,), (1,), (2, 3))


def test_check_connected():
    check_connected(4, ((1, 2, 3, 0),))
    with pytest.raises(Disconnected) as err:
        check_connected(4, ((1, 0, 3, 2),))
    assert err.value.component_sizes == (2, 2)


def test_is_bipartite():
    square = (1, 0, 3, 2), (3, 2, 1, 0)
    assert is_bipartite(4, square)
    triangle = (1, 0, 2), (0, 2, 1)
    assert not is_bipartite(3, triangle)


def test_involution_counts():
    for k, count in enumerate(TELEPHONE, 1):
        tabs = involutions(k)
        assert len(tabs) == count
        assert len(set(tabs)) == count
        assert all(is_involution(t) for t in tabs)


def test_canonical_form_invariance():
    """The form must not change under any relabeling of the vertices."""
    rng = random.Random(13)
    tables = ((1, 0, 3, 2, 5, 4), (2, 3, 0, 1, 4, 5), (0, 1, 2, 4, 3, 5))
    check_connected(6, tables)
    base = canonical_form(tables)
    for _ in range(100):
        s = random_perm(6, rng)
        shuffled = tuple(conjugate(t, s) for t in tables)
        assert canonical_form(shuffled) == base
    # idempotent, and the form is an actual relabeling of the input
    assert canonical_form(base) == base
    assert equivariant_bijections(tables, base)


def _canonical_form_reference(tables):
    """canonical_form without pruning: every start runs its whole BFS and
    builds its whole relabeled tuple before the comparison."""
    k = len(tables[0])
    best = None
    rng = range(k)
    for start in rng:
        num = [-1] * k
        verts = [0] * k
        num[start] = 0
        verts[0] = start
        filled = 1
        i = 0
        while i < filled:
            v = verts[i]
            for tab in tables:
                w = tab[v]
                if num[w] < 0:
                    num[w] = filled
                    verts[filled] = w
                    filled += 1
            i += 1
        if filled != k:
            raise Disconnected([filled, k - filled])
        cand = tuple(tuple(num[tab[verts[j]]] for j in rng) for tab in tables)
        if best is None or cand < best:
            best = cand
    return best


def asymmetric_flag_tables(n, rng):
    """s0 = x^1, s2 the edge quadrilaterals and s1 a random matching,
    redrawn until connected: a map on n flags (n divisible by 4) that
    almost surely has no automorphism but the identity."""
    s0 = tuple(x ^ 1 for x in range(n))
    s2 = tuple(x + (3, 1, -1, -3)[x % 4] for x in range(n))
    while True:
        order = random_perm(n, rng)
        s1 = [0] * n
        for i in range(0, n, 2):
            s1[order[i]], s1[order[i + 1]] = order[i + 1], order[i]
        if len(orbit_partition(n, (s0, s1, s2))[0]) == 1:
            return s0, tuple(s1), s2


def random_involution(n, rng):
    tab = list(range(n))
    points = random_perm(n, rng)
    for i in range(0, n - 1, 2):
        if rng.random() < 0.8:
            a, b = points[i], points[i + 1]
            tab[a], tab[b] = b, a
    return tuple(tab)


def _relabeled(tables, rng):
    perm = random_perm(len(tables[0]), rng)
    return tuple(conjugate(tab, perm) for tab in tables)


def _assert_matches_reference(tables):
    assert canonical_form(tables) == _canonical_form_reference(tables)


def test_canonical_form_pruning_on_asymmetric_maps():
    rng = random.Random(14)
    for n in (4, 8, 12, 20, 40, 80, 120, 160, 200):
        for _ in range(3):
            _assert_matches_reference(
                _relabeled(asymmetric_flag_tables(n, rng), rng))


def test_canonical_form_pruning_on_census_types():
    rng = random.Random(15)
    for k in range(1, 7):
        for code in enumerate_types(k):
            _assert_matches_reference(_relabeled(code.tables, rng))
    for k in range(1, 5):
        for code in enumerate_types(k):
            t = realize(code)
            for d in polarities(t):
                x = extend(t, d)
                _assert_matches_reference(_relabeled(x.base.t + (x.d,), rng))


def test_canonical_form_pruning_when_colour_zero_always_ties():
    # with t0 the identity every start's colour-0 row is 0, 1, 2, ...,
    # so only the full-tuple comparison tells the starts apart
    rng = random.Random(16)
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 41)
        tables = (tuple(range(n)), random_involution(n, rng),
                  random_involution(n, rng))
        if len(orbit_partition(n, tables)[0]) == 1:
            _assert_matches_reference(tables)
            checked += 1


# sha256 of str(canonical_code(quotient(g))) for the seeded asymmetric
# maps, frozen from the unpruned search: large codes must stay byte-identical
LARGE_CODE_SHA256 = {
    200: "1fc7cbf19ba3c46d401e4569f0de9dfb7d9212894171f69c445027015efd4fe8",
    360: "4bacd95cae7ccbfccd877f0db8461a9f3870b6026439200c946b47a9b722af6c",
    520: "f6ec0c83f9bca35520c487ae45ea2bfd1b7bfd71be538f57a62bdb77d7456e07",
}


@pytest.mark.parametrize("n", sorted(LARGE_CODE_SHA256))
def test_large_codes_are_frozen(n):
    g = FlagGraph(*asymmetric_flag_tables(n, random.Random(n)))
    t = quotient(g)
    assert t.k == n
    digest = hashlib.sha256(str(canonical_code(t)).encode()).hexdigest()
    assert digest == LARGE_CODE_SHA256[n]


def test_canonical_form_disconnected():
    with pytest.raises(Disconnected):
        canonical_form(((1, 0, 3, 2),))


def test_equivariant_bijections_counts():
    # all three generators equal the swap: the full S2 acts
    swap = (1, 0)
    assert equivariant_bijections((swap,) * 3, (swap,) * 3) == [
        (0, 1), (1, 0)]
    # 6-cycle as two alternating matchings: the color-preserving
    # symmetries act semiregularly, one per choice of image of vertex 0
    hexa = ((1, 0, 3, 2, 5, 4), (5, 2, 1, 4, 3, 0))
    auts = equivariant_bijections(hexa, hexa)
    assert len(auts) == 6
    assert [f[0] for f in auts] == sorted(f[0] for f in auts)


def test_equivariant_bijections_mismatch_and_disconnected():
    assert equivariant_bijections(((1, 0),), ((1, 2, 0),)) == []
    with pytest.raises(Disconnected):
        equivariant_bijections(((1, 0, 3, 2),), ((1, 0, 3, 2),))


def test_equivariant_bijections_first_only():
    swap = (1, 0)
    assert equivariant_bijections((swap,) * 3, (swap,) * 3,
                                  first_only=True) == [(0, 1)]


def test_descend_to_orbits():
    # orbits of the square's rotation by two: {0, 2} and {1, 3}
    orbits, orbit_of = orbit_partition(4, [(2, 3, 0, 1)])
    assert descend((1, 2, 3, 0), orbits, orbit_of) == (1, 0)
    assert descend((0, 3, 2, 1), orbits, orbit_of) == (0, 1)
    # (0 1) sends 0 into {1, 3} but 2 stays in {0, 2}
    with pytest.raises(AssertionError, match="does not descend"):
        descend((1, 0, 2, 3), orbits, orbit_of)
