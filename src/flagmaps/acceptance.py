"""Self-test suite: the checks the package promises to pass.

Every criterion compares computed results against frozen reference
values or against an independent second computation (brute force,
flag-level versus type-level, round trips). Each one runs in isolation
and reports pass/fail with a one-line detail; a crash inside a
criterion is reported as its failure, never as a crash of the runner.

The census reference counts for k = 1..10 are pinned below; the k <= 4
slice is independently re-derived in-process by the brute-force
criterion, and the builtin-map criteria exercise the same operations
against hand-checkable instances.
"""

import time
from dataclasses import dataclass

from . import names
from .enumeration import (DEFAULT_DUALITY_MODE, calibrate_duality_mode,
                          census, edge_transitive_medial_check,
                          enumerate_types, enumerate_types_bruteforce,
                          medial_census, medial_products, type_records)
from .errors import NotAMedial, check
from .flagmap import elements, flag_orbits, isomorphic, map_polarity
from .formats import cube, octahedron, tetrahedron, torus44
from .transforms import (demedialize, dual_flag, dual_type, medial_flag,
                         medial_type_double, medial_type_extended,
                         petrie_flag, petrie_type,
                         schlafli_gate_for_double_medial)
from .typegraph import CanonicalCode, canonical_code, extend, quotient

EXPECTED_TOTAL = (1, 7, 3, 22, 13, 70, 67, 315, 393, 1577)
EXPECTED_SELF_DUAL = (1, 3, 1, 8, 3, 12, 7, 45, 25, 91)
EXPECTED_SELF_POLAR = (1, 3, 1, 8, 3, 12, 7, 44, 25, 91)
EXPECTED_DUALITIES = (1, 6, 1, 21, 3, 23, 7, 101, 25, 128)
EXPECTED_POLARITIES = (1, 6, 1, 17, 3, 21, 7, 83, 25, 124)
EXPECTED_MEDIAL_EXT = (1, 6, 1, 15, 3, 19, 7, 73, 25, 120)
EXPECTED_MEDIAL_ALL = (1, 7, 1, 20, 3, 21, 7, 88, 25, 128)

CENSUS_TIME_BUDGET = 300.0
BRUTE_TIME_BUDGET = 60.0


@dataclass(frozen=True)
class CriterionResult:
    ident: int
    title: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.ident:2d} {self.title}: {self.detail}"


def _rows(ctx, max_k, jobs):
    if "rows" not in ctx:
        start = time.monotonic()
        ctx["rows"] = [census(k, jobs=jobs) for k in range(1, max_k + 1)]
        ctx["census_seconds"] = time.monotonic() - start
    return ctx["rows"]


def _expect_rows(title, got, expected, max_k):
    got = tuple(got)
    want = expected[:max_k]
    check(got == want, f"{title}: got {got}, expected {want}")


def _crit_census_total(max_k, jobs, ctx):
    rows = _rows(ctx, max_k, jobs)
    _expect_rows("type totals", (r.total for r in rows),
                 EXPECTED_TOTAL, max_k)
    seconds = ctx["census_seconds"]
    check(seconds < CENSUS_TIME_BUDGET, f"census took {seconds:.1f}s")
    return (f"totals {tuple(r.total for r in rows)} for k=1..{max_k} "
            f"in {seconds:.1f}s (budget {CENSUS_TIME_BUDGET:.0f}s)")


def _crit_self_dual(max_k, jobs, ctx):
    rows = _rows(ctx, max_k, jobs)
    _expect_rows("self-dual", (r.self_dual for r in rows),
                 EXPECTED_SELF_DUAL, max_k)
    _expect_rows("self-polar", (r.self_polar for r in rows),
                 EXPECTED_SELF_POLAR, max_k)
    if max_k < 8:
        return (f"rows match for k=1..{max_k}; unpolarized witness "
                "needs k=8 (skipped at this depth)")
    witnesses = [r for r in type_records(8)
                 if r.self_dual and not r.self_polar]
    check(len(witnesses) == 1, [str(w.code) for w in witnesses])
    return ("rows match; the unique self-dual type on 8 vertices with "
            f"no polarity is {witnesses[0].code}")


def _crit_duality_counts(max_k, jobs, ctx):
    rows = _rows(ctx, max_k, jobs)
    mode = rows[0].duality_mode
    _expect_rows("dualities", (r.duality_count for r in rows),
                 EXPECTED_DUALITIES, max_k)
    _expect_rows("polarities", (r.polarity_count for r in rows),
                 EXPECTED_POLARITIES, max_k)
    calibrated = calibrate_duality_mode()
    check(calibrated == DEFAULT_DUALITY_MODE,
          f"calibration picks {calibrated!r}, not the default")
    return f"calibrated counting mode is {mode!r}; both rows match"


def _crit_medial_counts(max_k, jobs, ctx):
    rows = _rows(ctx, max_k, jobs)
    _expect_rows("medial from extended",
                 (r.medial_from_extended for r in rows),
                 EXPECTED_MEDIAL_EXT, max_k)
    _expect_rows("medial union", (r.medial_total for r in rows),
                 EXPECTED_MEDIAL_ALL, max_k)
    for k in range(1, max_k + 1):
        med = medial_census(k)
        check(med.formula_ok, f"closed form fails at k={k}")
    return ("medial-type counts match and the union size equals the "
            "extended count plus half the (total + self-dual) count of "
            "the half size, for every computed k")


def _crit_proper_counts(max_k, jobs, ctx):
    rows = _rows(ctx, max_k, jobs)
    for row in rows:
        want = 3 if row.k % 2 == 0 else 1
        check(row.proper_admitting == want,
              f"k={row.k}: {row.proper_admitting} proper-admitting types, "
              f"expected {want}")
    return f"three per even k, one per odd k, verified for k=1..{max_k}"


def _pinned_code(name):
    return canonical_code(names.pinned_type(name))


def _crit_edge_transitive(max_k, jobs, ctx):
    report = edge_transitive_medial_check()
    by_k = {}
    for code in report.types:
        by_k[code.k] = by_k.get(code.k, 0) + 1
    check(by_k == {1: 1, 2: 6, 4: 7}, by_k)
    for k in (1, 2, 4):
        med = set(medial_census(k).codes)
        missing = [c for c in report.types if c.k == k and c not in med]
        check(not missing, f"k={k}: not medial types: {missing}")
    check(report.all_present)
    prov = dict(report.provenance)
    for product, source, route in (
            ("2_01", "1", "doubling"),
            ("2_12", "2_02", "proper"),
            ("2_1", "2_02", "improper"),
            ("4_F", "2_02", "doubling"),
            ("2_2", "2", "proper"),
            ("2", "2", "improper"),
            ("4_G", "2", "doubling"),
            ("4_H", "2_0", "doubling"),
            ("4_H", "2_2", "doubling")):
        entry = (_pinned_code(source), route)
        check(entry in prov[_pinned_code(product)],
              f"{product} lacks provenance ({source}, {route})")
    return ("counts 1/6/7 on 1/2/4 vertices, all 14 codes are medial "
            "types, provenance matches on the 9 pinned routes")


def _products(name, route):
    """Medial codes of a pinned type by one route ("proper", "improper"
    or "doubling"), looked up in the census's medial products."""
    src = _pinned_code(name)
    m = 2 * src.k if route == "doubling" else src.k
    return {CanonicalCode("stg", product)
            for tabs, r, product in medial_products(m)
            if tabs == src.tables and r == route}


def _crit_pinned_products(max_k, jobs, ctx):
    checks = 0
    for source, route, product in (
            ("1", "proper", "1"),
            ("2_02", "proper", "2_12"),
            ("2_02", "improper", "2_1"),
            ("2_1", "improper", "2_0"),
            ("2", "proper", "2_2"),
            ("2", "improper", "2"),
            ("3^02", "proper", "3^0"),
            ("1", "doubling", "2_01"), ("2_0", "doubling", "4_H"),
            ("2_2", "doubling", "4_H"), ("2_01", "doubling", "4_A"),
            ("2_12", "doubling", "4_A"), ("2_1", "doubling", "4_C"),
            ("2_02", "doubling", "4_F"), ("2", "doubling", "4_G"),
            ("3^0", "doubling", "6_D"), ("3^2", "doubling", "6_D"),
            ("3^02", "doubling", "6_M")):
        got = _products(source, route)
        want = {_pinned_code(product)}
        check(got == want, f"({source}, {route}): {got} != {product}")
        checks += 1
    return f"{checks} pinned extended/doubling products, exact code match"


def _builtin_maps():
    base = [
        ("tetrahedron", tetrahedron()),
        ("cube", cube()),
        ("octahedron", octahedron()),
        ("torus44(3,0,0,3)", torus44(3, 0, 0, 3)),
        ("torus44(2,1,-1,2)", torus44(2, 1, -1, 2)),
    ]
    return base + [(f"medial of {name}", medial_flag(g))
                   for name, g in base]


def _crit_commutation(max_k, jobs, ctx):
    extended_path = 0
    doubling_path = 0
    for name, g in _builtin_maps():
        t = quotient(g)
        check(canonical_code(quotient(dual_flag(g)))
               == canonical_code(dual_type(t)), f"dual path on {name}")
        check(canonical_code(quotient(petrie_flag(g)))
               == canonical_code(petrie_type(t)), f"petrie path on {name}")
        me_code = canonical_code(quotient(medial_flag(g)))
        d = map_polarity(g)
        if d is not None:
            got = canonical_code(medial_type_extended(extend(t, d)))
            extended_path += 1
        else:
            got = canonical_code(medial_type_double(t))
            doubling_path += 1
        check(me_code == got, f"medial path on {name}")
    return (f"dual, petrie and medial commute with the quotient on all "
            f"10 builtins ({extended_path} extended, {doubling_path} "
            f"doubled medial paths)")


def _crit_demedialize(max_k, jobs, ctx):
    for name, g in _builtin_maps():
        me = medial_flag(g)
        first, second = demedialize(me)
        check(isomorphic(medial_flag(first), me) is not None, name)
        check(isomorphic(dual_flag(first), second) is not None, name)
    try:
        demedialize(tetrahedron())
    except NotAMedial:
        pass
    else:
        raise AssertionError("tetrahedron was demedialized")
    return ("round trip and duality of the two factors hold on all 10 "
            "builtins; the tetrahedron is rejected")


def _crit_medial_counts_flags(max_k, jobs, ctx):
    for name, g in _builtin_maps():
        sk = elements(g)
        me = medial_flag(g)
        skm = elements(me)
        check(skm.num_vertices == sk.num_edges, name)
        check(skm.num_edges == 2 * sk.num_edges, name)
        check(skm.num_faces == sk.num_vertices + sk.num_faces, name)
        check(skm.euler == sk.euler, name)
        check(me.n == 2 * g.n, name)
    return ("medial vertex/edge/face counts, Euler characteristic and "
            "flag doubling verified on all 10 builtins")


def _crit_bruteforce(max_k, jobs, ctx):
    start = time.monotonic()
    counts = []
    for k in range(1, 5):
        fast = enumerate_types(k)
        slow = enumerate_types_bruteforce(k)
        check(fast == slow, f"k={k}: skeleton-first != brute force")
        counts.append(len(fast))
    seconds = time.monotonic() - start
    check(seconds < BRUTE_TIME_BUDGET, f"{seconds:.1f}s")
    return (f"code-for-code equality for k=1..4 {tuple(counts)} in "
            f"{seconds:.1f}s (budget {BRUTE_TIME_BUDGET:.0f}s)")


def _crit_double_medial(max_k, jobs, ctx):
    report = schlafli_gate_for_double_medial(torus44(3, 0, 0, 3))
    check(report.counts_equal,
          (report.orbits, report.double_medial_orbits))
    cube_orbits = len(flag_orbits(cube())[0])
    meme_orbits = len(flag_orbits(medial_flag(medial_flag(cube())))[0])
    check(cube_orbits == 1)
    check(meme_orbits == 4, meme_orbits)
    return (f"square torus keeps {report.orbits} orbit(s) under the "
            f"double medial; the cube goes from 1 to {meme_orbits}")


_CRITERIA = (
    (1, "census type totals within the time budget", _crit_census_total),
    (2, "self-dual and self-polar counts, unpolarized witness",
     _crit_self_dual),
    (3, "duality and polarity counts under the calibrated mode",
     _crit_duality_counts),
    (4, "medial-type counts and the union closed form",
     _crit_medial_counts),
    (5, "proper-polarity admission counts by parity", _crit_proper_counts),
    (6, "edge-transitive types are medial types with pinned provenance",
     _crit_edge_transitive),
    (7, "pinned extended and doubling products", _crit_pinned_products),
    (8, "flag-level and type-level operations commute on builtins",
     _crit_commutation),
    (9, "demedialize round trip, dual factors, tetrahedron rejection",
     _crit_demedialize),
    (10, "medial element counts and Euler characteristic",
     _crit_medial_counts_flags),
    (11, "skeleton-first enumeration equals brute force for k <= 4",
     _crit_bruteforce),
    (12, "double-medial orbit counts on the square torus and the cube",
     _crit_double_medial),
)


def run_all(max_k=10, jobs=1):
    """Run the twelve criteria; never raises, failures are results."""
    if not 1 <= max_k <= 10:
        raise ValueError("max_k must be between 1 and 10")
    ctx = {}
    results = []
    for ident, title, fn in _CRITERIA:
        try:
            detail = fn(max_k, jobs, ctx)
            passed = True
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(CriterionResult(ident, title, passed, detail))
    return results
