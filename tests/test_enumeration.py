"""Census of symmetry types: skeletons, counts, calibration, reports."""

import hashlib
import random

import pytest

from flagmaps import (
    TypeGraph,
    calibrate_duality_mode,
    canonical_code,
    census,
    dual_type,
    edge_transitive_medial_check,
    enumerate_types,
    enumerate_types_bruteforce,
    extend,
    medial_census,
    medial_type_double,
    medial_type_extended,
    pinned_type,
    polarities,
    realize,
    type_records,
)
from flagmaps.enumeration import (_conjugation_actions,
                                  enumerate_zero_two_skeletons,
                                  medial_products)
from flagmaps.permtools import conjugate, involutions
from flagmaps.typegraph import classify_zero_two_component, zero_two_components

TOTALS = (1, 7, 3, 22, 13, 70)

# sha256 of the newline-terminated code listing for k = 1..8
CODE_DIGESTS = {
    1: "1c91557ed9fbb2d162e6b5382ae5a675fb4366b0e1547386aa75f709cd557a90",
    2: "0960a02e566bdda7b4dd076000635a6102b0b7c907a6aa383540b5341752afe7",
    3: "8389617a9ef6cca5af2c26c298d69f8707546b4db01dba5e66fb7ab7660f68c1",
    4: "1f143e4c15a5ad2fe99783c9a074cfcecadfd49a4e28d3a3bc6c30c02e61506f",
    5: "3e40fa4c21029ae71276211abad6544c183662f294e56255f63ebe2b21da6eb9",
    6: "7624a160f9f0c4348fbfda3798b6d86cb214deb43b2c5417588f97d6d6bcc87a",
    7: "7fda029b0265e838d2ab393379eeecddcdd917eb2f299265abba9711c6942970",
    8: "c773e7308205b7ec7061d47e69429fde380164f94ac49de6f5c50d96511b7dfd",
}


def test_skeletons_at_four_vertices():
    skeletons = enumerate_zero_two_skeletons(4)
    assert len(skeletons) == 11
    seen = set()
    for t0, t2 in skeletons:
        # every component must classify, and no layout may repeat
        for comp in zero_two_components(t0, t2):
            classify_zero_two_component(t0, t2, comp)
        seen.add((t0, t2))
    assert len(seen) == 11


def test_enumeration_counts():
    for k, expected in enumerate(TOTALS, start=1):
        assert len(enumerate_types(k)) == expected, k


@pytest.mark.parametrize("k", sorted(CODE_DIGESTS))
def test_enumerated_codes_are_frozen(k):
    text = "".join(str(c) + "\n" for c in enumerate_types(k))
    assert hashlib.sha256(text.encode()).hexdigest() == CODE_DIGESTS[k]


def test_enumeration_agrees_with_bruteforce():
    for k in range(1, 6):
        assert set(enumerate_types(k)) == set(enumerate_types_bruteforce(k))


def test_conjugation_actions_are_permutations_matching_conjugate():
    for k in range(1, 8):
        invs = involutions(k)
        actions = _conjugation_actions(k)
        # one point has no symmetry to act with
        assert bool(actions) == (k > 1)
        for s, action in actions.items():
            assert sorted(action) == list(range(len(invs)))
            for i, t in enumerate(invs):
                assert invs[action[i]] == conjugate(t, s)


def test_parallel_enumeration_matches_serial():
    from flagmaps import enumeration as enum_mod

    serial = enumerate_types(6)
    # drop the memo so the worker pool really runs
    enum_mod._TABLES_CACHE.pop(6, None)
    assert enumerate_types(6, jobs=2) == serial


def test_parallel_enumeration_leaves_no_process():
    import multiprocessing

    from flagmaps import enumeration as enum_mod

    serial = enumerate_types(5)
    enum_mod._TABLES_CACHE.pop(5, None)
    assert enumerate_types(5, jobs=2) == serial
    assert multiprocessing.active_children() == []


def test_realize_round_trip():
    for k in range(1, 6):
        for code in enumerate_types(k):
            t = realize(code)
            assert isinstance(t, TypeGraph)
            assert canonical_code(t) == code


def test_canonical_code_is_relabeling_invariant():
    rng = random.Random(11)
    codes = enumerate_types(4)
    for code in codes:
        t = realize(code)
        for _ in range(5):
            perm = list(range(4))
            rng.shuffle(perm)
            moved = TypeGraph(*(conjugate(tab, tuple(perm)) for tab in t.t))
            assert canonical_code(moved) == code


def test_census_row_at_six_vertices():
    row = census(6)
    assert row.total == 70
    assert row.self_dual == 12
    assert row.self_polar == 12
    assert row.duality_count == 23
    assert row.polarity_count == 21
    assert row.medial_from_extended == 19
    assert row.medial_total == 21
    assert row.duality_mode == "raw"


def test_doubling_identifies_exactly_dual_pairs():
    for k in range(1, 5):
        groups = {}
        for code in enumerate_types(k):
            doubled = canonical_code(medial_type_double(realize(code)))
            groups.setdefault(doubled, set()).add(code)
        for doubled, sources in groups.items():
            some = next(iter(sources))
            partner = canonical_code(dual_type(realize(some)))
            assert sources == {some, partner}, doubled


def test_medial_census_on_two_vertices():
    mc = medial_census(2)
    assert (mc.f, mc.g) == (6, 7)
    assert mc.formula_ok
    assert mc.overlap == ()
    doubling_only = canonical_code(pinned_type("2_01"))
    assert mc.from_doubling == (doubling_only,)
    assert doubling_only not in mc.from_extended
    assert set(mc.codes) == set(enumerate_types(2))


def test_medial_products_match_the_public_path():
    for m in range(1, 8):
        ident = tuple(range(m))
        want = set()
        for code in enumerate_types(m):
            t = realize(code)
            for d in polarities(t):
                product = canonical_code(medial_type_extended(extend(t, d)))
                route = "proper" if d == ident else "improper"
                want.add((code.tables, route, product.tables))
        if m % 2 == 0:
            for code in enumerate_types(m // 2):
                product = canonical_code(medial_type_double(realize(code)))
                want.add((code.tables, "doubling", product.tables))
        assert set(medial_products(m)) == want, m
    # one entry per polarity and per doubling, so triples may repeat
    assert len(medial_products(4)) == 24
    assert len(set(medial_products(4))) == 22


def test_edge_transitive_report():
    rep = edge_transitive_medial_check()
    assert rep.all_present
    by_k = {}
    for code in rep.types:
        by_k[code.k] = by_k.get(code.k, 0) + 1
    assert by_k == {1: 1, 2: 6, 4: 7}
    named = rep.named()
    assert named["1"] == [("1", "proper")]
    assert named["2_01"] == [("1", "doubling")]
    assert named["2_0"] == [("2_1", "improper")]


def test_duality_mode_calibration():
    assert calibrate_duality_mode() == "raw"
    # counting conjugacy classes instead lands on different numbers, which
    # is why the calibration exists
    row = census(4, duality_mode="conjugacy")
    assert row.duality_count == 17
    assert row.polarity_count == 15
    row = census(4, duality_mode="raw")
    assert row.duality_count == 21
    assert row.polarity_count == 17


def test_type_records_on_two_vertices():
    records = {rec.name: rec for rec in type_records(2)}
    assert set(records) == {"2", "2_0", "2_1", "2_2", "2_01", "2_02", "2_12"}
    assert records["2"].flag_string == "D-EMP"
    assert records["2"].polarity_count == 2
    assert records["2_0"].flag_string == "--EM-"
    assert records["2_02"].flag_string == "DT-MP"
    assert records["2_12"].flag_string == "-TEM-"
    line = records["2_02"].line()
    assert "polarities=2" in line
    assert "name=2_02" in line


def test_type_records_reject_unknown_duality_modes():
    with pytest.raises(ValueError, match="unknown duality mode"):
        type_records(2, duality_mode="bogus")
