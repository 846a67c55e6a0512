"""Small permutation toolkit.

Permutations on {0..n-1} are stored as image tables: ``p[x]`` is the image
of x. Everything in this package is built out of a handful of operations
on such tables, collected here: composition, conjugation, orbit
partitions, involution generation, a deterministic canonical labeling for
edge-colored graphs given by generator tables, and the propagation search
for color-equivariant bijections.
"""

from functools import lru_cache

from .errors import Disconnected, NotInvolution, NotPermutation, check


def compose(p, q):
    """Image table of x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(q)))


def inverse(p):
    res = [0] * len(p)
    for x, px in enumerate(p):
        res[px] = x
    return tuple(res)


def conjugate(t, s):
    """Image table of s . t . s^-1."""
    res = [0] * len(t)
    for x, tx in enumerate(t):
        res[s[x]] = s[tx]
    return tuple(res)


def is_involution(p):
    return all(p[p[x]] == x for x in range(len(p)))


def check_image_table(p, n, label):
    """Raise NotPermutation unless p is a permutation image table of
    length n."""
    if len(p) != n:
        raise NotPermutation(label, f"has length {len(p)}, expected {n}")
    seen = [False] * n
    for x in p:
        if not isinstance(x, int) or not 0 <= x < n:
            raise NotPermutation(label, f"contains invalid image {x!r}")
        if seen[x]:
            raise NotPermutation(label, f"repeats image {x}")
        seen[x] = True


def check_involutions(tables, labels):
    """Raise NotPermutation, then NotInvolution, unless all tables are
    involutions on len(tables[0]) points; labels name them."""
    n = len(tables[0])
    for lbl, tab in zip(labels, tables):
        check_image_table(tab, n, lbl)
    for lbl, tab in zip(labels, tables):
        for x in range(n):
            if tab[tab[x]] != x:
                raise NotInvolution(lbl, x)


def orbit_partition(n, gens):
    """Orbits of {0..n-1} under a list of image tables.

    Returns (orbits, orbit_of): orbits is a tuple of sorted vertex tuples,
    numbered by least element; orbit_of[x] is the orbit index of x.
    """
    orbit_of = [-1] * n
    orbits = []
    for v in range(n):
        if orbit_of[v] >= 0:
            continue
        idx = len(orbits)
        orbit_of[v] = idx
        # members doubles as the breadth-first queue
        members = [v]
        add = members.append
        for x in members:
            for g in gens:
                y = g[x]
                if orbit_of[y] < 0:
                    orbit_of[y] = idx
                    add(y)
        orbits.append(tuple(sorted(members)))
    return tuple(orbits), tuple(orbit_of)


def descend(p, orbits, orbit_of):
    """Image table of p on the orbits of orbit_partition; AssertionError
    when the members of some orbit map into different orbits."""
    img = tuple(orbit_of[p[members[0]]] for members in orbits)
    check(all(orbit_of[px] == img[orbit_of[x]] for x, px in enumerate(p)),
          "permutation does not descend to orbits")
    return img


def check_connected(n, gens):
    orbits, _ = orbit_partition(n, gens)
    if len(orbits) > 1:
        raise Disconnected(sorted(len(o) for o in orbits))


def is_bipartite(n, gens):
    """True iff the graph with edges {x, g[x]} admits a proper 2-coloring.

    Self-loops (g[x] == x) make it non-bipartite only in spirit; here they
    never occur because callers pass fixed-point free generators.
    """
    color = [-1] * n
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if color[y] < 0:
                    color[y] = color[x] ^ 1
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


@lru_cache(maxsize=32)
def involutions(k):
    """All involution image tables on k points, fixed points allowed.

    The count is the telephone number T(k): 1, 2, 4, 10, 26, 76, ...
    """
    tabs = []
    tab = list(range(k))

    def rec(free):
        if not free:
            tabs.append(tuple(tab))
            return
        i = free[0]
        rec(free[1:])  # i stays fixed
        for idx in range(1, len(free)):
            j = free[idx]
            tab[i] = j
            tab[j] = i
            rec(free[1:idx] + free[idx + 1:])
            tab[i] = i
            tab[j] = j

    rec(tuple(range(k)))
    return tuple(tabs)


def canonical_form(tables):
    """Lexicographically least relabeling of a connected generator tuple.

    From every start vertex, breadth-first traversal visiting the tables
    in their given order assigns discovery numbers; the relabeled tables
    are compared and the least tuple wins. Because the traversal is
    determined by the start alone, two inputs get equal forms iff some
    relabeling carries one generator tuple to the other position by
    position. The result is itself a valid generator tuple.

    Entry i of a start's relabeled colour-0 table is final as soon as
    its i-th vertex is dequeued, so a start is dropped at the first
    position where its colour-0 row exceeds the best one. The tuples are
    compared lexicographically, colour 0 first, so a dropped start could
    never have won and the minimum is unchanged; only a start whose
    colour-0 row ties the best to the end builds the full tuple.
    """
    tab0 = tables[0]
    k = len(tab0)
    best = best0 = None
    rng = range(k)
    for start in rng:
        num = [-1] * k
        verts = [0] * k
        num[start] = 0
        verts[0] = start
        filled = 1
        i = 0
        # start 0 has nothing to beat, so it always runs to the end
        tied = best is not None
        while i < filled:
            v = verts[i]
            for tab in tables:
                w = tab[v]
                if num[w] < 0:
                    num[w] = filled
                    verts[filled] = w
                    filled += 1
            if tied:
                e = num[tab0[v]]
                if e > best0[i]:
                    break
                tied = e == best0[i]
            i += 1
        else:
            if filled != k:
                raise Disconnected([filled, k - filled])
            cand = tuple(tuple(num[tab[verts[j]]] for j in rng)
                         for tab in tables)
            if best is None or cand < best:
                best = cand
                best0 = best[0]
    return best


def _traversal_order(tables, k):
    """BFS discovery steps (vertex, parent, table index) from vertex 0."""
    order = []
    seen = [False] * k
    seen[0] = True
    queue = [0]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for c, tab in enumerate(tables):
            w = tab[v]
            if not seen[w]:
                seen[w] = True
                order.append((w, v, c))
                queue.append(w)
    return order


def equivariant_bijections(src, dst, first_only=False):
    """All bijections f with f(src[c][x]) = dst[c][f(x)] for every color c.

    src and dst are equal-length tuples of image tables on the same ground
    set size; src must be connected. For each candidate image y of vertex
    0 the rest of f is forced along a spanning traversal (the action is
    semiregular on a connected properly generated graph), then verified
    against every table. At most n candidates, O(n) work each.

    Results are sorted by f(0). With first_only, returns at most one.
    """
    k = len(src[0])
    if len(dst[0]) != k:
        return []
    order = _traversal_order(src, k)
    if len(order) != k - 1:
        sizes = sorted(len(o) for o in orbit_partition(k, src)[0])
        raise Disconnected(sizes)
    ncolors = len(src)
    results = []
    for y in range(k):
        img = [-1] * k
        img[0] = y
        for (w, v, c) in order:
            img[w] = dst[c][img[v]]
        ok = True
        for c in range(ncolors):
            sc = src[c]
            dc = dst[c]
            for x in range(k):
                if img[sc[x]] != dc[img[x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            results.append(tuple(img))
            if first_only:
                break
    return results
