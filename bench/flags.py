"""Flag-graph primitives of the benchmark's own.

The benchmark builds its inputs and checks the program's outputs with
this module alone, never with flagmaps, so a defect in the program can
neither shape the inputs nor vouch for its own results. A flag graph is
a tuple (s0, s1, s2) of image lists on flags 0..n-1.
"""


def from_walks(walks):
    """Flag graph of the map whose faces are the given closed vertex walks.

    Corner i of face f carries flags (f, i, 0) and (f, i, 1), one per end
    of the edge walk[i] -- walk[i+1]; the two traversals of each edge are
    glued by matching their endpoints.
    """
    base = []
    n = 0
    for walk in walks:
        base.append(n)
        n += 2 * len(walk)
    s0 = [0] * n
    s1 = [0] * n
    s2 = [0] * n
    seen = {}
    for f, walk in enumerate(walks):
        length = len(walk)
        for i in range(length):
            here = base[f] + 2 * i
            succ = base[f] + 2 * ((i + 1) % length)
            s0[here], s0[here + 1] = here + 1, here
            s1[here + 1], s1[succ] = succ, here + 1
            u, v = walk[i], walk[(i + 1) % length]
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen[key] = (here, u)
                continue
            other, other_u = seen.pop(key)
            for end in (0, 1):
                mate = other + (end if other_u == u else 1 - end)
                s2[here + end], s2[mate] = mate, here + end
    if seen:
        raise ValueError(f"edges traced once: {sorted(seen)[:3]}")
    return s0, s1, s2


def orbit_count(n, gens):
    """Number of orbits of {0..n-1} under the given image lists."""
    seen = bytearray(n)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = 1
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return count


def counts(s):
    """(flags, vertices, edges, faces) of a flag graph."""
    s0, s1, s2 = s
    n = len(s0)
    return (n, orbit_count(n, (s1, s2)), orbit_count(n, (s0, s2)),
            orbit_count(n, (s0, s1)))


def is_map(s):
    """True iff s satisfies the map axioms."""
    s0, s1, s2 = s
    n = len(s0)
    for tab in s:
        if len(tab) != n or sorted(tab) != list(range(n)):
            return False
        if any(tab[x] == x or tab[tab[x]] != x for x in range(n)):
            return False
    if any(s0[s2[x]] != s2[s0[x]] or s0[s2[x]] == x for x in range(n)):
        return False
    return orbit_count(n, s) == 1


def compose(p, q):
    """x -> p[q[x]]."""
    return [p[x] for x in q]


def dual(s):
    return s[2], s[1], s[0]


def petrie(s):
    return compose(s[0], s[2]), s[1], s[2]


def medial(s):
    """The medial map on 2n flags, vertex-side copy first."""
    s0, s1, s2 = s
    n = len(s0)
    return ([*s1, *(y + n for y in s1)],
            [*s2, *(y + n for y in s0)],
            [*range(n, 2 * n), *range(n)])


def relabel(s, perm):
    """The same map with flag x renamed perm[x]."""
    out = []
    for tab in s:
        img = [0] * len(tab)
        for x, y in enumerate(tab):
            img[perm[x]] = perm[y]
        out.append(img)
    return tuple(out)


def to_flg(s):
    return "flg 1\nn %d\n" % len(s[0]) + "".join(
        f"s{i} " + " ".join(map(str, tab)) + "\n" for i, tab in enumerate(s))


def to_map(walks):
    return "map 1\n" + "".join(" ".join(map(str, w)) + "\n" for w in walks)


def parse_flg(text):
    """Tables of an flg document as written by the program."""
    lines = text.split("\n")
    if lines[0] != "flg 1" or not lines[1].startswith("n "):
        raise ValueError("not an flg document")
    n = int(lines[1][2:])
    tabs = []
    for i in range(3):
        label, *rest = lines[2 + i].split(" ")
        if label != f"s{i}" or len(rest) != n:
            raise ValueError(f"bad s{i} row")
        tabs.append(list(map(int, rest)))
    return tuple(tabs)


def torus_walks(a, b, rect=False):
    """Faces of a {4,4} torus as vertex walks.

    rect: the a x b grid modulo (a, 0) and (0, b), vertex (x, y) named
    x * b + y. Otherwise the chiral quotient modulo (a, b) and (-b, a),
    gcd(a, b) = 1, whose N = a^2 + b^2 vertices are x + m y mod N with
    m = b / a mod N; a negative b gives the mirror image. Either way the
    map has 8 |det| flags, one square face per vertex.
    """
    if rect:
        return [[x * b + y, (x + 1) % a * b + y,
                 (x + 1) % a * b + (y + 1) % b, x * b + (y + 1) % b]
                for x in range(a) for y in range(b)]
    size = a * a + b * b
    m = b * pow(a, -1, size) % size
    return [[x, (x + 1) % size, (x + 1 + m) % size, (x + m) % size]
            for x in range(size)]


PLATONIC = {
    "tetrahedron": [[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]],
    "cube": [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
             [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]],
    "octahedron": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                   [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]],
}
