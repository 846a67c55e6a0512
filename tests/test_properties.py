"""Property tests of the wire formats: round trips under relabeling, and
mutated documents that fail only with MapError; and of the symmetry
invariants of a map, which relabeling must not change."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from flagmaps import (AmbiguousPairing, DegenerateLattice,
                      EdgeOccurrenceCount, ExtendedTypeGraph, FlagGraph,
                      MapError, TypeGraph, canonical_code,
                      color_automorphisms, duality_kind, enumerate_types,
                      extend, face_walks, parse_document, polarities,
                      quotient, realize, serialize_flg, serialize_map,
                      serialize_stg, serialize_xstg, torus44)
from flagmaps.formats import cube, octahedron, tetrahedron
from flagmaps.permtools import conjugate

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

MAPS = (tetrahedron(), cube(), octahedron(), torus44(2, 1, -1, 2))
TYPES = tuple(realize(code) for k in range(1, 6)
              for code in enumerate_types(k))
EXTENDED = tuple(extend(t, d) for t in TYPES if t.k <= 4
                 for d in polarities(t))


def relabel(obj, perm):
    """The same object with point x renamed perm[x]."""
    if isinstance(obj, FlagGraph):
        return FlagGraph(*(conjugate(tab, perm) for tab in obj.s))
    if isinstance(obj, TypeGraph):
        return TypeGraph(*(conjugate(tab, perm) for tab in obj.t))
    return ExtendedTypeGraph(relabel(obj.base, perm), conjugate(obj.d, perm))


@st.composite
def torus(draw):
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    try:
        return torus44(a, b, c, d)
    except (AmbiguousPairing, DegenerateLattice, EdgeOccurrenceCount):
        assume(False)  # the lattice is too small to give a map


def size(obj):
    return obj.n if isinstance(obj, FlagGraph) else obj.k


def relabeled(objects):
    """A member of objects (a tuple or a strategy) under a random
    relabeling of its points."""
    if not isinstance(objects, st.SearchStrategy):
        objects = st.sampled_from(objects)
    return objects.flatmap(lambda obj: st.permutations(range(size(obj))).map(
        lambda perm: relabel(obj, tuple(perm))))


# kind: (objects, serializer, the rows a document holds)
ROUND_TRIPS = {
    "flg": (relabeled(MAPS), serialize_flg, lambda g: g.s),
    "flg-torus": (relabeled(torus()), serialize_flg, lambda g: g.s),
    "stg": (relabeled(TYPES), serialize_stg, lambda t: t.t),
    "xstg": (relabeled(EXTENDED), serialize_xstg,
             lambda x: x.base.t + (x.d,)),
}


@pytest.mark.parametrize("kind", ROUND_TRIPS)
@PROPERTY
@given(data=st.data())
def test_parse_inverts_serialize(kind, data):
    objects, serialize, rows = ROUND_TRIPS[kind]
    obj = data.draw(objects)
    text = serialize(obj)
    again = parse_document(text)
    assert type(again) is type(obj)
    assert rows(again) == rows(obj)
    assert serialize(again) == text


VALID_DOCUMENTS = (
    [serialize_flg(g) for g in MAPS]
    + [serialize_map(face_walks(g)) for g in MAPS[:2]]
    + [serialize_stg(t) for t in TYPES[:12]]
    + [serialize_xstg(x) for x in EXTENDED[:12]])

TOKENS = st.sampled_from(
    ("0", "1", "2", "3", "4", "-1", "99", "00", "+1", "1_0", "x", "#",
     "n", "s0", "s1", "s2", "t0", "t1", "t2", "d", "flg", "stg", "xstg",
     "map", "\n", ""))


@st.composite
def mutated(draw):
    """A valid document with one to three token-level edits: replace,
    swap, delete, duplicate or insert a token (newlines count as
    tokens)."""
    text = draw(st.sampled_from(VALID_DOCUMENTS))
    tokens = text.replace("\n", " \n ").split(" ")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("replace", "swap", "delete",
                                     "duplicate", "insert")))
        if edit == "replace":
            tokens[i] = draw(TOKENS)
        elif edit == "swap":
            j = min(i + draw(st.integers(1, 3)), len(tokens) - 1)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens.insert(i, draw(TOKENS))
        if not tokens:
            tokens = [""]
    return " ".join(tokens).replace(" \n ", "\n")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated())
def test_mutated_documents_fail_only_with_map_error(text):
    try:
        parse_document(text)
    except MapError:
        pass


@st.composite
def map_and_relabeling(draw):
    """A relabeled builtin or a random torus, and a relabeling of it."""
    g = draw(st.one_of(relabeled(MAPS), relabeled(torus())))
    perm = draw(st.permutations(range(g.n)))
    return g, relabel(g, tuple(perm))


@PROPERTY
@given(first=map_and_relabeling(), second=map_and_relabeling())
def test_symmetry_invariants_under_relabeling(first, second):
    (g, g2), (h, h2) = first, second
    # every call below switches maps, so the one-entry flag_orbits memo
    # is replaced between calls and must never answer for the wrong map
    codes = {x: canonical_code(quotient(x)) for x in (g, h, g2, h2)}
    kinds = {x: duality_kind(x) for x in (h2, g, h, g2)}
    for x in (g2, h, g, h2):
        assert len(color_automorphisms(x)) * quotient(x).k == x.n
    assert codes[g] == codes[g2] and codes[h] == codes[h2]
    assert kinds[g] == kinds[g2] and kinds[h] == kinds[h2]
