"""Permutation toolkit tests.

The canonical-form and propagation-search routines carry the whole
package, so they get randomized cross-checks here: relabeling invariance
against seeded shuffles, and automorphism counts against structures
whose symmetry is known by hand.
"""

import random

import pytest

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
