"""Exhaustive generation of symmetry type graphs and census tables.

The vertex set of a type graph splits into components of its 0-2
subgraph, each one of the five admissible shapes, so every isomorphism
class contains a representative whose (t0, t2) is a canonical block
layout determined by the multiset of shapes alone. Enumeration is
therefore skeleton-first:

1. lay out one skeleton per shape multiset with total size k,
2. split the involutions t1 on k points (T(k) of them, the telephone
   numbers: 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, ...) into
   classes under the skeleton's automorphism group, as orbits of its
   generators acting on involution indices by t -> s t s^-1,
3. canonicalize the least member of each class, skipping the classes
   whose triple is disconnected.

Two triples over the same skeleton are isomorphic iff their t1's are
conjugate under the skeleton's automorphism group (block permutations of
equal shapes times the within-block symmetries), and triples over
different skeletons are never isomorphic, so only one representative
per class is canonicalized. The conjugation action of a generator does
not depend on the skeleton it came from; it is computed once per k for
the few distinct generators of all skeletons, as an index table. A
naive triple-sweep oracle is kept alongside for cross-checking small k.

From the enumerated codes the census rows are derived: self-dual and
self-polar counts, duality and polarity counts (raw permutations by
default, which the reference counts for k <= 4 confirm, or conjugacy
classes), medial-type sets from extended graphs and from doublings, and
the edge-transitive provenance report. medial_products(m) builds every
extended and doubled medial type on m vertices once, with its source and
route; the medial-type sets, the provenance and the records all read it.
"""

import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from . import names
from .errors import Disconnected, check
from .permtools import (canonical_form, compose, conjugate,
                        equivariant_bijections, involutions,
                        is_involution, orbit_partition)
from .typegraph import (CanonicalCode, ExtendedTypeGraph, TypeGraph,
                        is_edge_transitive_type)
from .transforms import medial_type_double, medial_type_extended

_SHAPES = (("Q4", 4), ("Q2a", 2), ("Q2b", 2), ("Q2c", 2), ("Q1", 1))


def _shape_multisets(k):
    """All (n_Q4, n_Q2a, n_Q2b, n_Q2c, n_Q1) with sizes summing to k."""
    out = []
    for n4 in range(k // 4 + 1):
        rest4 = k - 4 * n4
        for n2a in range(rest4 // 2 + 1):
            for n2b in range((rest4 - 2 * n2a) // 2 + 1):
                for n2c in range((rest4 - 2 * n2a - 2 * n2b) // 2 + 1):
                    n1 = rest4 - 2 * (n2a + n2b + n2c)
                    out.append((n4, n2a, n2b, n2c, n1))
    return out


def _build_skeleton(k, counts):
    """Canonical block layout of one shape multiset.

    Returns (t0, t2, gens) where gens generate the full color-preserving
    automorphism group of the skeleton: within each Q4 block the Klein
    four-group, within each 2-vertex block the swap, plus transpositions
    of adjacent identical blocks.
    """
    t0 = list(range(k))
    t2 = list(range(k))
    gens = []
    blocks = []
    pos = 0
    for (shape, size), count in zip(_SHAPES, counts):
        for _ in range(count):
            a = pos
            if shape == "Q4":
                # alternating cycle a -0- a+1 -2- a+2 -0- a+3 -2- a
                t0[a], t0[a + 1] = a + 1, a
                t0[a + 2], t0[a + 3] = a + 3, a + 2
                t2[a + 1], t2[a + 2] = a + 2, a + 1
                t2[a + 3], t2[a] = a, a + 3
                for pairs in (((a, a + 1), (a + 2, a + 3)),
                              ((a + 1, a + 2), (a + 3, a))):
                    g = list(range(k))
                    for (x, y) in pairs:
                        g[x], g[y] = y, x
                    gens.append(tuple(g))
            else:
                if shape in ("Q2a", "Q2c"):
                    t0[a], t0[a + 1] = a + 1, a
                if shape in ("Q2b", "Q2c"):
                    t2[a], t2[a + 1] = a + 1, a
                if size == 2:
                    g = list(range(k))
                    g[a], g[a + 1] = a + 1, a
                    gens.append(tuple(g))
            blocks.append((shape, a, size))
            pos += size
    for (sh1, a1, sz1), (sh2, a2, _) in zip(blocks, blocks[1:]):
        if sh1 == sh2:
            g = list(range(k))
            for i in range(sz1):
                g[a1 + i], g[a2 + i] = a2 + i, a1 + i
            gens.append(tuple(g))
    return tuple(t0), tuple(t2), tuple(gens)


def enumerate_zero_two_skeletons(k):
    """One labeled (t0, t2) representative per skeleton class."""
    return [_build_skeleton(k, counts)[:2] for counts in _shape_multisets(k)]


@lru_cache(maxsize=1)
def _conjugation_actions(k):
    """{generator: action} for the distinct generators of all skeletons
    on k points; action[i] is the index in involutions(k) of s t s^-1,
    t being involution i."""
    invs = involutions(k)
    gens = {s for counts in _shape_multisets(k)
            for s in _build_skeleton(k, counts)[2]}
    index = {t: i for i, t in enumerate(invs)}
    return {s: array("I", [index[conjugate(t, s)] for t in invs])
            for s in gens}


def _skeleton_worker(args):
    """Canonical forms of all connected classes over one skeleton."""
    k, counts = args
    t0, t2, gens = _build_skeleton(k, counts)
    invs = involutions(k)
    actions = _conjugation_actions(k)
    orbits, _ = orbit_partition(len(invs), [actions[s] for s in gens])
    forms = []
    for orbit in orbits:
        # connectivity is a class invariant, so the least member settles
        # the whole class
        try:
            forms.append(canonical_form((t0, invs[orbit[0]], t2)))
        except Disconnected:
            pass
    return forms


_TABLES_CACHE = {}


def _enumerate_tables(k, jobs=1):
    """Sorted canonical (t0,t1,t2) tuples of all connected types on k
    vertices."""
    if k in _TABLES_CACHE:
        return _TABLES_CACHE[k]
    work = [(k, counts) for counts in _shape_multisets(k)]
    if jobs > 1:
        # built once here; forked workers inherit it instead of each
        # rebuilding it (the package starts no thread, so fork is safe)
        _conjugation_actions(k)
        ctx = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods() else None)
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            chunks = list(pool.map(_skeleton_worker, work))
    else:
        chunks = [_skeleton_worker(item) for item in work]
    forms = set()
    for chunk in chunks:
        forms.update(chunk)
    result = tuple(sorted(forms))
    _TABLES_CACHE[k] = result
    return result


def enumerate_types(k, jobs=1):
    """Sorted canonical codes of all type graphs on k vertices."""
    return tuple(CanonicalCode("stg", tabs) for tabs in
                 _enumerate_tables(k, jobs))


def enumerate_types_bruteforce(k):
    """Oracle: sweep every involution triple, reject invalid and
    isomorph-duplicate ones. Exponential; intended for k <= 5."""
    forms = set()
    invs = involutions(k)
    rng = range(k)
    for t0 in invs:
        for t2 in invs:
            # commuting is exactly the 0-2 shape condition
            if any(t0[t2[x]] != t2[t0[x]] for x in rng):
                continue
            for t1 in invs:
                try:
                    forms.add(canonical_form((t0, t1, t2)))
                except Disconnected:
                    pass
    return tuple(CanonicalCode("stg", tabs) for tabs in sorted(forms))


@lru_cache(maxsize=None)
def _type_details(k):
    """Per-type data: (tables, dual form, petrie form, dualities, auts,
    polarities).

    dualities, auts and polarities (the involutory dualities) are only
    materialized for self-dual types; the composite of two dualities is
    an automorphism, so dualities and auts have equal length there.
    """
    recs = []
    for tabs in _enumerate_tables(k):
        t0, t1, t2 = tabs
        dual_form = canonical_form((t2, t1, t0))
        petrie_form = canonical_form((compose(t0, t2), t1, t2))
        if dual_form == tabs:
            dualities = tuple(equivariant_bijections(tabs, (t2, t1, t0)))
            auts = tuple(equivariant_bijections(tabs, tabs))
            check(len(dualities) == len(auts),
                  f"{len(dualities)} dualities but {len(auts)} automorphisms")
        else:
            dualities = ()
            auts = ()
        pols = tuple(d for d in dualities if is_involution(d))
        recs.append((tabs, dual_form, petrie_form, dualities, auts, pols))
    return tuple(recs)


def _mode_count(elems, auts, mode):
    """Number of elems under "raw" counting, or of their orbits under
    conjugation by the automorphisms auts under "conjugacy" counting."""
    if mode == "raw":
        return len(elems)
    if mode != "conjugacy":
        raise ValueError(f"unknown duality mode {mode!r}")
    seen = set()
    classes = 0
    for e in elems:
        if e in seen:
            continue
        classes += 1
        for a in auts:
            seen.add(conjugate(e, a))
    return classes


def _mode_counts(k, mode):
    """(duality count, polarity count) over all self-dual types on k
    vertices, under "raw" or "conjugacy" counting."""
    d_total = 0
    e_total = 0
    for _, _, _, dualities, auts, pols in _type_details(k):
        if dualities:
            d_total += _mode_count(dualities, auts, mode)
            e_total += _mode_count(pols, auts, mode)
    return d_total, e_total


# Duality/polarity counting when no mode is given: count permutations.
# calibrate_duality_mode re-derives it from the k = 1..4 reference counts
# below; the full expected tables live with the acceptance suite.
DEFAULT_DUALITY_MODE = "raw"
_CALIBRATION_DUALITIES = (1, 6, 1, 21)
_CALIBRATION_POLARITIES = (1, 6, 1, 17)


@lru_cache(maxsize=None)
def calibrate_duality_mode():
    """The counting mode whose k <= 4 rows match the reference counts.

    Both conventions are computed; "conjugacy" is tried first and "raw"
    second, and the first match is returned. The two differ at k = 4
    (conjugacy gives 17/15), so the answer is decided, not assumed.
    """
    for mode in ("conjugacy", "raw"):
        rows = [_mode_counts(k, mode) for k in range(1, 5)]
        if (tuple(r[0] for r in rows) == _CALIBRATION_DUALITIES
                and tuple(r[1] for r in rows) == _CALIBRATION_POLARITIES):
            return mode
    raise AssertionError(
        "neither duality counting mode reproduces the reference counts")


@dataclass(frozen=True)
class CensusRow:
    """One row of the census table.

    duality_count and polarity_count depend on the counting mode;
    self_petrie has no external reference values and is reported as an
    experimental extra.
    """

    k: int
    total: int
    self_dual: int
    self_polar: int
    duality_count: int
    polarity_count: int
    medial_from_extended: int
    medial_total: int
    duality_mode: str
    self_petrie: int
    proper_admitting: int


def census(k, duality_mode=None, jobs=1):
    """Census of all type graphs on k vertices.

    With duality_mode=None, DEFAULT_DUALITY_MODE is used. The count of
    types admitting a proper polarity is cross-checked against the
    expected exact values (three for even k, one for odd k).
    """
    mode = duality_mode or DEFAULT_DUALITY_MODE
    _enumerate_tables(k, jobs)
    details = _type_details(k)
    total = len(details)
    self_dual = 0
    self_polar = 0
    self_petrie = 0
    proper_admitting = 0
    for tabs, dual_form, petrie_form, _, _, pols in details:
        if tabs[0] == tabs[2]:
            proper_admitting += 1
        if petrie_form == tabs:
            self_petrie += 1
        if dual_form == tabs:
            self_dual += 1
            self_polar += bool(pols)
    d_total, e_total = _mode_counts(k, mode)
    med = medial_census(k)
    check(proper_admitting == (3 if k % 2 == 0 else 1),
          f"{proper_admitting} proper-admitting types at k={k}")
    check(self_polar <= self_dual <= total,
          f"self-polar {self_polar}, self-dual {self_dual}, total {total}")
    check(e_total <= d_total, f"{e_total} polarities, {d_total} dualities")
    check(med.f <= e_total, f"{med.f} medial types, {e_total} polarities")
    return CensusRow(
        k=k, total=total, self_dual=self_dual, self_polar=self_polar,
        duality_count=d_total, polarity_count=e_total,
        medial_from_extended=med.f, medial_total=med.g,
        duality_mode=mode, self_petrie=self_petrie,
        proper_admitting=proper_admitting)


@dataclass(frozen=True)
class MedialCensus:
    """Medial-type code sets on m vertices.

    from_extended collects the medial types of all extended graphs on m
    vertices (self-dual type, polarity); from_doubling the doubled types
    on m/2 vertices (empty for odd m). Membership is by canonical code;
    no realizability by an actual map is claimed. formula_ok records
    whether the union size equals the conjectured closed form
    f + (a+b)/2 taken over the half size (g = f for odd m).
    """

    m: int
    from_extended: tuple
    from_doubling: tuple
    overlap: tuple
    formula_ok: bool

    @property
    def f(self):
        return len(self.from_extended)

    @property
    def g(self):
        return len(set(self.from_extended) | set(self.from_doubling))

    @property
    def codes(self):
        return tuple(sorted(set(self.from_extended) |
                            set(self.from_doubling)))


@lru_cache(maxsize=None)
def medial_products(m):
    """(source tables, route, canonical product tables) for every medial
    type built on m vertices.

    Each polarity d of each self-dual type on m vertices gives the medial
    of the extended graph (type, d), by route "proper" when d is the
    identity and "improper" otherwise; for even m each type on m/2
    vertices gives its doubling, by route "doubling". Distinct entries
    may repeat a triple.
    """
    ident = tuple(range(m))
    out = []
    for tabs, _, _, _, _, pols in _type_details(m):
        base = TypeGraph(*tabs, check=False)
        for d in pols:
            med = medial_type_extended(ExtendedTypeGraph(base, d))
            out.append((tabs, "proper" if d == ident else "improper",
                        canonical_form(med.t)))
    if m % 2 == 0:
        for tabs in _enumerate_tables(m // 2):
            med = medial_type_double(TypeGraph(*tabs, check=False))
            out.append((tabs, "doubling", canonical_form(med.t)))
    return tuple(out)


def medial_census(m, jobs=1):
    _enumerate_tables(m, jobs)
    ext_set = set()
    dbl_set = set()
    for _, route, product in medial_products(m):
        (dbl_set if route == "doubling" else ext_set).add(
            CanonicalCode("stg", product))
    overlap = tuple(sorted(ext_set & dbl_set))
    f = len(ext_set)
    g = len(ext_set | dbl_set)
    if m % 2 == 0:
        half = _type_details(m // 2)
        a_half = len(half)
        b_half = sum(1 for tabs, dual_form, _, _, _, _ in half
                     if dual_form == tabs)
        formula_ok = g == f + (a_half + b_half) // 2
    else:
        formula_ok = g == f
    return MedialCensus(
        m=m,
        from_extended=tuple(sorted(ext_set)),
        from_doubling=tuple(sorted(dbl_set)),
        overlap=overlap,
        formula_ok=formula_ok)


@dataclass(frozen=True)
class EdgeTransitiveReport:
    """Presence and provenance of the 14 edge-transitive types among the
    medial-type sets on 1, 2 and 4 vertices.

    provenance maps each edge-transitive code to the sorted tuple of
    (source code, route) pairs that produce it, route being "proper",
    "improper" or "doubling".
    """

    types: tuple
    provenance: tuple
    all_present: bool

    def provenance_for(self, code):
        for c, sources in self.provenance:
            if c == code:
                return sources
        raise KeyError(code)

    def named(self, aliases=None):
        """Readable provenance: {type name: [(source name, route)]}."""
        out = {}
        for code, sources in self.provenance:
            key = names.lookup(code, aliases) or str(code)
            out[key] = [(names.lookup(src, aliases) or str(src), route)
                        for src, route in sources]
        return out


def edge_transitive_medial_check(jobs=1):
    """Verify that every edge-transitive type is a medial type.

    Edge-transitive types are the enumerated codes with a connected 0-2
    subgraph; they occur for 1, 2 and 4 vertices only (counts 1, 6, 7).
    For each, all producing routes through extended graphs and doublings
    are collected.
    """
    et_codes = [code for k in (1, 2, 4) for code in enumerate_types(k, jobs)
                if is_edge_transitive_type(
                    TypeGraph(*code.tables, check=False))]
    prov = {code: set() for code in et_codes}
    for m in (1, 2, 4):
        for src, route, product in medial_products(m):
            code = CanonicalCode("stg", product)
            if code in prov:
                prov[code].add((CanonicalCode("stg", src), route))
    all_present = all(prov[code] for code in et_codes)
    return EdgeTransitiveReport(
        types=tuple(et_codes),
        provenance=tuple((code, tuple(sorted(prov[code])))
                         for code in et_codes),
        all_present=all_present)


@dataclass(frozen=True)
class TypeRecord:
    """One machine-readable census record."""

    code: CanonicalCode
    name: str
    self_dual: bool
    self_petrie: bool
    edge_transitive: bool
    is_medial_type: bool
    self_polar: bool
    polarity_count: int

    @property
    def flag_string(self):
        return "".join(letter if value else "-" for letter, value in (
            ("D", self.self_dual), ("T", self.self_petrie),
            ("E", self.edge_transitive), ("M", self.is_medial_type),
            ("P", self.self_polar)))

    def line(self):
        return (f"{self.code} {self.flag_string} "
                f"polarities={self.polarity_count} name={self.name}")


def type_records(k, aliases=None, duality_mode=None, jobs=1):
    """Records for all types on k vertices, in canonical code order.

    Unregistered types get systematic names "k:index" by code order.
    polarity_count follows DEFAULT_DUALITY_MODE unless overridden.
    """
    mode = duality_mode or DEFAULT_DUALITY_MODE
    _enumerate_tables(k, jobs)
    medial_tabs = {product for _, _, product in medial_products(k)}
    records = []
    for index, (tabs, dual_form, petrie_form, _, auts, pols) in enumerate(
            _type_details(k)):
        code = CanonicalCode("stg", tabs)
        records.append(TypeRecord(
            code=code,
            name=names.lookup(code, aliases) or f"{k}:{index}",
            self_dual=dual_form == tabs,
            self_petrie=petrie_form == tabs,
            edge_transitive=is_edge_transitive_type(
                TypeGraph(*tabs, check=False)),
            is_medial_type=tabs in medial_tabs,
            self_polar=bool(pols),
            polarity_count=_mode_count(pols, auts, mode)))
    return records


def format_census_table(rows):
    """Fixed-schema text table for a sequence of CensusRow values."""
    header = ("k", "types", "selfdual", "selfpolar", "dualities",
              "polarities", "medial-ext", "medial-all", "selfpetrie")
    lines = ["  ".join(f"{h:>10}" for h in header)]
    for row in rows:
        cells = (row.k, row.total, row.self_dual, row.self_polar,
                 row.duality_count, row.polarity_count,
                 row.medial_from_extended, row.medial_total,
                 row.self_petrie)
        lines.append("  ".join(f"{c:>10}" for c in cells))
    lines.append(f"# duality counting mode: {rows[0].duality_mode}"
                 if rows else "# empty")
    return "\n".join(lines) + "\n"
