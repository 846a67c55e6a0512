"""The four workloads: seeded input documents and the checks on outputs.

plan(workload, seed, workdir) writes the workload's input documents into
workdir and returns its operations. Each operation is a dict with the
CLI argument vector the worker runs and what the benchmark expects of
the result. check(op, result) returns None when the operation's result
passes every check, else the reason it fails. Everything here depends
on the seed alone, so the same seed gives byte-identical documents.

Every seed runs the same operations on maps of the same sizes: the seed
varies the flag labelling, the vertex naming, face order and walk
direction, the mirror image of chiral lattices, the document format on
analyze-symmetric and the order of operations. Metrics then compare
across seeds without a draw of sizes showing up as noise.
"""

import hashlib
import math
import random
from pathlib import Path

import flags

WORKLOADS = ("census", "analyze-symmetric", "analyze-asymmetric",
             "transform")

# sha256 of the stdout of `flagmaps enumerate --k K --census --medial`,
# frozen when the benchmark was defined; any change to the CLI text of
# the census shows here.
CENSUS_SHA256 = {
    1: "82601198b38b8ad6eeae0fcb3d78601d228dba798e033426566ee5d0ceed644f",
    2: "abf988c411f9861b83dd4f358ca645bdb9bcde8ddb7a0209ab3130998a3e0443",
    3: "086dec9b7019c1844c49212130192e36fa8313f0ef20473e88c4740ccbc0d6d5",
    4: "347ff725d92ff8c9df36d41ab6d2b6e615a99494f10487641be6ea919a92eb67",
    5: "5392a76040976f3f8a7ee0e9d061c7e6b2dc69547a113b654594beca96aa6bee",
    6: "e02276d79b263c218f116fcdb33633d6303b4c0c7adf864c9e480e1ae7ed0bff",
    7: "cc0ac13401a5116b04de883807b4e2ed54c83cfdd8ee4bb4ed0538fffb48a535",
    8: "d4eafdb6ed50a264b075b340c2c3a5cfc86cb106f170b38e7f295f4e2cdafc6e",
    9: "a824b9f756b8365b7b683fa2d0b1a7a73540593b2ff30d6ab4576b191c2b9102",
    10: "ecf2cea94ede205dc7c5f210d9d2a5ddd2562e792364f5171fc44e2ae86c6256",
}

REGULAR_SIDES = (3, 4, 5, 6, 7, 8, 9, 12)
# Six copies of the 464-flag lattice (and the 392-flag regular torus) sit
# where op_p90_s falls, ranks 7-13 from the top by cost, so that p90 does
# not jump between two maps of different size from run to run.
CHIRAL_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2),
                (5, 3), (6, 1), (5, 4), (7, 1)) + ((7, 3),) * 6 + (
                (8, 3), (9, 2), (8, 5))
TRANSFORM_OPS = ("dual", "petrie", "opposite", "medial", "demedialize")
# The broken document of transform operation 9, 19, ..., 99. The schedule
# is fixed so that each seed breaks the same sizes the same way; a
# Disconnected document doubles the map, so it takes the smallest slot
# and does not set the workload's peak memory.
REJECT_SCHEDULE = ("Disconnected", "ParseError", "NotInvolution",
                   "FixedPointPresent", "Zero2NotCommuting",
                   "EdgeOccurrenceCount", "ParseError", "NotInvolution",
                   "FixedPointPresent", "Zero2NotCommuting")


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _relabel_walks(rng, walks):
    """The same map with vertices renamed, faces reordered, and each walk
    rotated and possibly reversed."""
    nverts = 1 + max(max(w) for w in walks)
    name = _shuffled(rng, range(nverts))
    out = []
    for walk in _shuffled(rng, walks):
        walk = [name[v] for v in walk]
        r = rng.randrange(len(walk))
        walk = walk[r:] + walk[:r]
        if rng.random() < 0.5:
            walk.reverse()
        out.append(walk)
    return out


def _relabel(rng, s):
    return flags.relabel(s, _shuffled(rng, range(len(s[0]))))


def _write(workdir, name, text):
    path = Path(workdir) / name
    path.write_text(text, encoding="ascii")
    return str(path)


# census ---------------------------------------------------------------

def _census_plan(rng, workdir):
    return [{"argv": ["enumerate", "--k", str(k), "--census", "--medial"],
             "k": k} for k in range(1, 11)]


def _census_check(op, res):
    from flagmaps import acceptance
    k = op["k"]
    text = res["stdout"]
    if hashlib.sha256(text.encode()).hexdigest() != CENSUS_SHA256[k]:
        return f"k={k}: CLI text differs from the frozen digest"
    lines = text.splitlines()
    records = [ln for ln in lines if ln.startswith("stg;")]
    if len(records) != acceptance.EXPECTED_TOTAL[k - 1]:
        return f"k={k}: {len(records)} records"
    header = next(i for i, ln in enumerate(lines) if ln.split()[:2] == [
        "k", "types"])
    row = tuple(map(int, lines[header + 1].split()))
    medial = dict(part.split("=") for part in lines[header + 3].split()[2:])
    want = tuple(table[k - 1] for table in (
        acceptance.EXPECTED_TOTAL, acceptance.EXPECTED_SELF_DUAL,
        acceptance.EXPECTED_SELF_POLAR, acceptance.EXPECTED_DUALITIES,
        acceptance.EXPECTED_POLARITIES, acceptance.EXPECTED_MEDIAL_EXT,
        acceptance.EXPECTED_MEDIAL_ALL))
    got = row[1:8]
    if row[0] != k or got != want:
        return f"k={k}: census row {got}, expected {want}"
    if (int(medial["from-extended"]), int(medial["union"])) != want[5:]:
        return f"k={k}: medial summary {medial}"
    return None


# analyze --------------------------------------------------------------

def _analyze_op(workdir, index, text, s, symmetry=None):
    path = _write(workdir, f"a{index:03d}.txt", text)
    return {"argv": ["analyze", path], "counts": flags.counts(s),
            "symmetry": symmetry}


def _symmetric_plan(rng, workdir):
    maps = []
    for a in REGULAR_SIDES:
        maps.append((flags.torus_walks(a, a, rect=True), "regular"))
    for a, b in CHIRAL_PAIRS:
        maps.append((flags.torus_walks(a, rng.choice((b, -b))), "chiral"))
    for walks in flags.PLATONIC.values():
        s = flags.from_walks(walks)
        for _ in range(4):
            for variant in (s, flags.dual(s), flags.petrie(s)):
                maps.extend([(variant, None)] * 2)
            s = flags.medial(s)
    tori = len(REGULAR_SIDES) + len(CHIRAL_PAIRS)
    fmts = _shuffled(rng, ["flg", "map"] * (tori // 2) + ["map"] * (tori % 2))
    ops = []
    for index, (m, symmetry) in enumerate(_shuffled(rng, maps)):
        if symmetry is None:
            s = _relabel(rng, m)
            text = flags.to_flg(s)
        elif fmts.pop() == "map":
            walks = _relabel_walks(rng, m)
            s = flags.from_walks(walks)
            text = flags.to_map(walks)
        else:
            s = _relabel(rng, flags.from_walks(m))
            text = flags.to_flg(s)
        ops.append(_analyze_op(workdir, index, text, s, symmetry))
    return ops


def random_asymmetric(rng, n):
    """Edge quadrilaterals for s0, s2 and a random perfect matching for s1,
    redrawn until the map is connected."""
    s0 = [x ^ 1 for x in range(n)]
    s2 = [x + (3, 1, -1, -3)[x % 4] for x in range(n)]
    while True:
        order = _shuffled(rng, range(n))
        s1 = [0] * n
        for i in range(0, n, 2):
            s1[order[i]], s1[order[i + 1]] = order[i + 1], order[i]
        if flags.orbit_count(n, (s0, s1, s2)) == 1:
            return s0, s1, s2


def _asymmetric_plan(rng, workdir):
    sizes = _shuffled(rng, [4 * round(10 + 120 * i / 99) for i in range(100)])
    ops = []
    for index, n in enumerate(sizes):
        s = _relabel(rng, random_asymmetric(rng, n))
        ops.append(_analyze_op(workdir, index, flags.to_flg(s), s))
    return ops


def _analyze_check(op, res):
    if res["rc"] != 0:
        return f"exit code {res['rc']} ({res['error']})"
    try:
        report = dict(line.split(": ", 1)
                      for line in res["stdout"].splitlines())
        n, v, e, f = (int(report[key]) for key in (
            "flags", "vertices", "edges", "faces"))
        euler, auts, orbits = (int(report[key]) for key in (
            "euler", "automorphisms", "orbits"))
    except (KeyError, ValueError) as exc:
        return f"unreadable report: {exc!r}"
    if (n, v, e, f) != tuple(op["counts"]):
        return f"counts {(n, v, e, f)}, expected {tuple(op['counts'])}"
    if euler != v - e + f:
        return f"euler {euler} != V - E + F = {v - e + f}"
    if auts * orbits != n:
        return f"|Aut| {auts} x orbits {orbits} != {n} flags"
    want = {"regular": 1, "chiral": 2}.get(op["symmetry"])
    if want is not None and orbits != want:
        return f"{op['symmetry']} torus reports {orbits} orbits"
    return None


# transform ------------------------------------------------------------

def _broken(rng, kind, s, walks):
    """Document text for a map that fails one axiom, detected as `kind`."""
    s0, s1, s2 = (list(tab) for tab in s)
    n = len(s0)
    x, z = rng.sample(range(n), 2)
    while z in (x, s1[x]):
        z = rng.randrange(n)
    y, w = s1[x], s1[z]
    if kind == "NotInvolution":
        s1[x], s1[z], s1[y] = z, y, x
        s1[w] = w
    elif kind == "FixedPointPresent":
        s1[x], s1[y] = x, y
    elif kind == "Zero2NotCommuting":
        # re-pair two colour-2 edges of different edge quadrilaterals
        while z in (x, s0[x], s2[x], s0[s2[x]]):
            z = rng.randrange(n)
        a, b, c, d = x, s2[x], z, s2[z]
        s2[a], s2[c], s2[b], s2[d] = c, a, d, b
    elif kind == "Disconnected":
        s0, s1, s2 = ([*tab, *(y + n for y in tab)] for tab in (s0, s1, s2))
    elif kind == "EdgeOccurrenceCount":
        return flags.to_map(walks[:-1])
    elif kind == "ParseError":
        text = flags.to_flg((s0, s1, s2))
        return text[:text.rindex(" ")] + "\n"
    return flags.to_flg((s0, s1, s2))


def _torus_near(rng, squares, chiral):
    """A 2:1 rectangular or a chiral torus with about `squares` square
    faces. The seed picks only the chiral torus's handedness, so that
    sizes, and with them the latency tail, are the same on every seed."""
    if not chiral:
        a = max(3, round((squares / 2) ** 0.5))
        return flags.torus_walks(a, round(squares / a), rect=True), (
            a * round(squares / a))
    a = int((squares / 2) ** 0.5) + 1
    while True:
        b = 1
        if squares > a * a:
            b = max(1, min(round((squares - a * a) ** 0.5), a - 1))
        if math.gcd(a, b) == 1:
            return flags.torus_walks(a, rng.choice((b, -b))), a * a + b * b
        a += 1


def _transform_plan(rng, workdir):
    """100 operations on tori of 1.6k to 16k flags and on their medials.

    Operation i runs TRANSFORM_OPS[i % 5] on the i-th of 100 log-spaced
    sizes, so every operation sees the same spread of sizes on every
    seed. Every tenth document is broken, as REJECT_SCHEDULE says, and
    must be rejected.
    """
    ops = []
    for i in range(100):
        op = TRANSFORM_OPS[i % 5]
        walks, squares = _torus_near(rng, round(200 * 10 ** (i / 99)),
                                     chiral=i // 5 % 2 == 1)
        torus = (8 * squares, squares, 2 * squares, squares)
        on_medial = op == "demedialize" or i % 4 == 3
        reject = REJECT_SCHEDULE[i // 10] if i % 10 == 9 else None
        if reject == "EdgeOccurrenceCount" or (
                reject is None and not on_medial and i % 2 == 0):
            walks = _relabel_walks(rng, walks)
            s = flags.from_walks(walks)
            text = flags.to_map(walks)
        else:
            s = flags.from_walks(walks)
            if on_medial:
                s = flags.medial(s)
            s = _relabel(rng, s)
            text = flags.to_flg(s)
        expected = None
        if reject:
            text = _broken(rng, reject, s, walks)
        else:
            expected = _transform_expectation(op, s, torus, on_medial)
        path = _write(workdir, f"t{i:03d}.txt", text)
        ops.append({"argv": ["transform", "--op", op, path,
                             "-o", f"{path}.out"],
                    "reject": reject, "parts": expected})
    return _shuffled(rng, ops)


def _transform_expectation(op, s, torus, on_medial):
    """Sorted (flags, V, E, F) of each output, from the input's own counts.

    Only the Petrie polygons need a traversal: for a {4,4} torus T with
    N squares, T and its dual have (8N, N, 2N, N), Me(T) has
    (16N, 2N, 4N, 2N), and Me(Me(T)) has (32N, 4N, 8N, 4N).
    """
    n, v, e, f = torus
    if on_medial:
        n, v, e, f = 2 * n, e, 2 * e, v + f
    if op == "demedialize":
        return sorted([list(torus), [torus[0], torus[3], torus[2], torus[1]]])
    if op == "dual":
        return [[n, f, e, v]]
    if op == "medial":
        return [[2 * n, e, 2 * e, v + f]]
    zigzags = flags.orbit_count(n, (flags.compose(s[0], s[2]), s[1]))
    if op == "petrie":
        return [[n, v, e, zigzags]]
    return [[n, zigzags, e, f]]


def transform_outputs(op):
    path = op["argv"][-1]
    if op["argv"][2] == "demedialize":
        return [path + ".a", path + ".b"]
    return [path]


def _transform_check(op, res):
    if op["reject"]:
        if res["rc"] != 1 or res["error"] != op["reject"]:
            return (f"expected {op['reject']} and exit 1, got exit "
                    f"{res['rc']} ({res['error']})")
        return None
    if res["rc"] != 0:
        return f"exit code {res['rc']} ({res['error']})"
    parts = []
    for path in transform_outputs(op):
        try:
            parts.append(list(flags.counts(flags.parse_flg(
                Path(path).read_text(encoding="ascii")))))
        except (OSError, ValueError, IndexError) as exc:
            return f"unreadable output {path}: {exc!r}"
    if sorted(parts) != op["parts"]:
        return f"output counts {sorted(parts)}, expected {op['parts']}"
    return None


def plan(workload, seed, workdir):
    """Write the workload's documents into workdir; return its operations."""
    rng = random.Random(f"{workload}:{seed}")
    return {"census": _census_plan,
            "analyze-symmetric": _symmetric_plan,
            "analyze-asymmetric": _asymmetric_plan,
            "transform": _transform_plan}[workload](rng, workdir)


def check(workload, op, res):
    """None when the result passes every check, else why it fails."""
    if res["error"] and not (workload == "transform" and op["reject"]):
        return f"raised {res['error']}: {res.get('detail', '')}"
    return {"census": _census_check,
            "analyze-symmetric": _analyze_check,
            "analyze-asymmetric": _analyze_check,
            "transform": _transform_check}[workload](op, res)
