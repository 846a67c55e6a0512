"""Wire formats, builtin map generators and DOT export.

Four line-oriented ASCII grammars, dispatched on the first token of the
first line:

    flg 1           stg 1           xstg 1          map 1
    n <N>           n <K>           n <K>           <walk>
    s0 <N images>   t0 <K images>   t0 <K images>   <walk>
    s1 ...          t1 ...          t1 ...          ...
    s2 ...          t2 ...          t2 ...
                                    d  <K images>

'#' starts a comment anywhere on a line; blank lines are skipped. All
indices are 0-based. Serialization is canonical: single spaces, LF
endings, trailing newline, no comments, so equal objects produce
byte-identical text.

A ``map`` document lists one closed face walk per line as a cyclic
vertex-id sequence. Every undirected edge must be traced exactly twice
over all walks; the two traversals are glued by matching endpoints,
which is why a loop (both endpoints equal) is rejected as ambiguous
rather than guessed. Gluings that endpoint matching cannot express must
be supplied in flg form directly.
"""

import math
import re

from .errors import (AmbiguousPairing, DegenerateLattice,
                     EdgeOccurrenceCount, ParseError, check)
from .flagmap import FlagGraph
from .permtools import orbit_partition
from .typegraph import ExtendedTypeGraph, TypeGraph

_TOKEN = re.compile(r"\S+")


def decode_ascii(data, source):
    """The text of ASCII bytes; a ParseError locates the first other byte.
    source names the document in the message."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"{source}: non-ASCII byte {data[exc.start]:#04x}",
                         line=line, column=column) from None


def _content_lines(text):
    """(line number, token list, spans) for non-blank, non-comment lines."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if tokens:
            out.append((lineno, tokens))
    return out


class _Reader:
    def __init__(self, text):
        self.lines = _content_lines(text)
        self.total = text.count("\n") + 1
        self.pos = 0

    def take(self, what):
        if self.pos >= len(self.lines):
            raise ParseError(f"unexpected end of input, expected {what}",
                             line=self.total)
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def finish(self):
        if self.pos < len(self.lines):
            lineno, tokens = self.lines[self.pos]
            raise ParseError("trailing content after document",
                             line=lineno, column=tokens[0][1])


def _expect_header(reader, kind):
    lineno, tokens = reader.take(f"header {kind!r}")
    if tokens[0][0] != kind:
        raise ParseError(f"expected {kind!r} header, got {tokens[0][0]!r}",
                         line=lineno, column=tokens[0][1])
    if len(tokens) != 2 or tokens[1][0] != "1":
        column = tokens[1][1] if len(tokens) > 1 else tokens[0][1]
        raise ParseError(f"unsupported {kind} version", line=lineno,
                         column=column)


def _int_token(token, lineno):
    text, column = token
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected integer, got {text!r}",
                         line=lineno, column=column) from None


def _expect_count(reader):
    lineno, tokens = reader.take("size line 'n <count>'")
    if tokens[0][0] != "n" or len(tokens) != 2:
        raise ParseError("expected size line 'n <count>'",
                         line=lineno, column=tokens[0][1])
    n = _int_token(tokens[1], lineno)
    if n < 1:
        raise ParseError("size must be positive",
                         line=lineno, column=tokens[1][1])
    return n


def _expect_row(reader, label, n):
    lineno, tokens = reader.take(f"{label} row")
    if tokens[0][0] != label:
        raise ParseError(f"expected {label!r} row, got {tokens[0][0]!r}",
                         line=lineno, column=tokens[0][1])
    if len(tokens) - 1 != n:
        raise ParseError(f"{label} row has {len(tokens) - 1} entries, "
                         f"expected {n}", line=lineno, column=tokens[0][1])
    return tuple(_int_token(tok, lineno) for tok in tokens[1:])


# kind: (class, row labels, object from rows, rows of an object)
_KINDS = {
    "flg": (FlagGraph, ("s0", "s1", "s2"), FlagGraph, lambda g: g.s),
    "stg": (TypeGraph, ("t0", "t1", "t2"), TypeGraph, lambda t: t.t),
    "xstg": (ExtendedTypeGraph, ("t0", "t1", "t2", "d"),
             lambda *r: ExtendedTypeGraph(TypeGraph(*r[:3]), r[3]),
             lambda x: x.base.t + (x.d,)),
}


def _read_rows(reader, kind):
    _, labels, build, _ = _KINDS[kind]
    _expect_header(reader, kind)
    n = _expect_count(reader)
    rows = [_expect_row(reader, label, n) for label in labels]
    reader.finish()
    return build(*rows)


def _read_map(reader):
    _expect_header(reader, "map")
    walks = []
    while reader.pos < len(reader.lines):
        lineno, tokens = reader.take("face walk")
        walks.append([_int_token(tok, lineno) for tok in tokens])
    if not walks:
        raise ParseError("map document has no face walks",
                         line=reader.total)
    return flag_graph_from_walks(walks)


def document_rows(obj):
    """(kind, labelled rows) of a flag graph, type graph or extended type
    graph; TypeError for anything else."""
    for kind, (cls, labels, _, rows) in _KINDS.items():
        if type(obj) is cls:
            return kind, tuple(zip(labels, rows(obj)))
    raise TypeError(f"no document kind for {type(obj).__name__}")


def _write(obj):
    """The canonical document of obj, in the kind document_rows gives."""
    kind, rows = document_rows(obj)
    lines = [f"{kind} 1", f"n {len(rows[0][1])}"]
    lines += [label + " " + " ".join(map(str, tab)) for label, tab in rows]
    return "\n".join(lines) + "\n"


def parse_flg(text):
    return _read_rows(_Reader(text), "flg")


def parse_stg(text):
    return _read_rows(_Reader(text), "stg")


def parse_xstg(text):
    return _read_rows(_Reader(text), "xstg")


def parse_map(text):
    return _read_map(_Reader(text))


def serialize_flg(g):
    return _write(g)


def serialize_stg(t):
    return _write(t)


def serialize_xstg(x):
    return _write(x)


def serialize_map(walks):
    return "map 1\n" + "".join(
        " ".join(map(str, walk)) + "\n" for walk in walks)


def parse_document(text):
    """Dispatch on the header line: flg, stg, xstg or map."""
    reader = _Reader(text)
    lineno, tokens = reader.take("document header")
    reader.pos = 0  # the kind's reader checks the header in full
    kind = tokens[0][0]
    if kind == "map":
        return _read_map(reader)
    if kind not in _KINDS:
        raise ParseError(f"unknown document kind {kind!r}",
                         line=lineno, column=tokens[0][1])
    return _read_rows(reader, kind)


def flag_graph_from_walks(walks):
    """Flag graph of the map whose faces trace the given closed walks.

    Each walk entry v_i stands for the corner of the face at vertex v_i;
    the corner carries two flags, one per end of the edge (v_i, v_i+1).
    Gluing across faces matches the two traversals of each undirected
    edge by their endpoints.
    """
    index = {}
    for f, walk in enumerate(walks):
        for i in range(len(walk)):
            for end in (0, 1):
                index[(f, i, end)] = len(index)
    n = len(index)
    s0 = [0] * n
    s1 = [0] * n
    s2 = [0] * n
    occurrences = {}
    for f, walk in enumerate(walks):
        length = len(walk)
        for i in range(length):
            here = index[(f, i, 0)]
            there = index[(f, i, 1)]
            s0[here] = there
            s0[there] = here
            succ = index[(f, (i + 1) % length, 0)]
            s1[there] = succ
            s1[succ] = there
            u, v = walk[i], walk[(i + 1) % length]
            occurrences.setdefault((min(u, v), max(u, v)),
                                   []).append((f, i, u, v))
    for edge, occs in occurrences.items():
        if len(occs) != 2:
            raise EdgeOccurrenceCount(edge, len(occs))
        if edge[0] == edge[1]:
            raise AmbiguousPairing(edge)
        (f1, i1, u1, _), (f2, i2, u2, _) = occs
        same = u1 == u2
        for end in (0, 1):
            mate_end = end if same else 1 - end
            a = index[(f1, i1, end)]
            b = index[(f2, i2, mate_end)]
            s2[a] = b
            s2[b] = a
    return FlagGraph(tuple(s0), tuple(s1), tuple(s2))


def face_walks(g):
    """Closed vertex walks around the faces of a flag graph.

    Vertices are numbered by their flag orbits under the colour-{1,2}
    subgroup, faces traversed from their least flag. Feeding the result
    back through flag_graph_from_walks reconstructs the map up to
    isomorphism whenever endpoint matching is unambiguous.
    """
    _, vertex_of = orbit_partition(g.n, (g.s1, g.s2))
    faces, _ = orbit_partition(g.n, (g.s0, g.s1))
    walks = []
    for orbit in faces:
        start = orbit[0]
        walk = []
        x = start
        while True:
            walk.append(vertex_of[x])
            x = g.s1[g.s0[x]]
            if x == start:
                break
        walks.append(walk)
    return walks


def tetrahedron():
    return flag_graph_from_walks(
        [[0, 1, 2], [0, 3, 1], [1, 3, 2], [2, 3, 0]])


def cube():
    return flag_graph_from_walks(
        [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
         [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]])


def octahedron():
    return flag_graph_from_walks(
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
         [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]])


def _lattice_basis(a, b, c, d):
    """Row-reduce the lattice spanned by (a,b), (c,d) to ((p,q),(0,r))
    with p, r > 0 and 0 <= q < r."""
    det = a * d - b * c
    if det == 0:
        raise DegenerateLattice(((a, b), (c, d)))
    if a == 0 and c == 0:
        raise DegenerateLattice(((a, b), (c, d)))
    p = math.gcd(a, c)
    # Bezout combination realizing the gcd in the first coordinate
    if a == 0:
        q = (d if c > 0 else -d)
    elif c == 0:
        q = (b if a > 0 else -b)
    else:
        g, u, v = _extended_gcd(a, c)
        check(g == p, f"extended gcd {g} differs from gcd {p}")
        q = u * b + v * d
    r = abs(det) // p
    q %= r
    return p, q, r


def _extended_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def torus44(a, b, c, d):
    """Quadrangulation of the torus as the square grid modulo the
    lattice spanned by (a, b) and (c, d); quadrilateral faces are the
    unit squares. The flag count is 8 |ad - bc|."""
    p, q, r = _lattice_basis(a, b, c, d)

    def vertex(x, y):
        x_red = x % p
        y_red = (y - ((x - x_red) // p) * q) % r
        return x_red * r + y_red

    walks = []
    for x in range(p):
        for y in range(r):
            walks.append([vertex(x, y), vertex(x + 1, y),
                          vertex(x + 1, y + 1), vertex(x, y + 1)])
    return flag_graph_from_walks(walks)


_DOT_STYLE = {"0": "solid", "1": "dashed", "2": "dotted", "D": "bold"}


def to_dot(obj):
    """Deterministic DOT text for a flag graph, type graph or extended
    type graph. Colours map to edge styles (0 solid, 1 dashed, 2 dotted,
    the duality colour bold); fixed points become edges to degree-1 stub
    nodes named v<i>_s<colour>."""
    _, rows = document_rows(obj)
    n = len(rows[0][1])
    stubs = []
    edges = []
    for label, tab in rows:
        # the colour is the label's last character: 0, 1, 2 or D
        color = label[-1].upper()
        style = _DOT_STYLE[color]
        for x in range(n):
            y = tab[x]
            if y == x:
                stub = f"v{x}_s{color}"
                stubs.append(stub)
                edges.append(f'  v{x} -- {stub} '
                             f'[color_id="{color}", style={style}];')
            elif x < y:
                edges.append(f'  v{x} -- v{y} '
                             f'[color_id="{color}", style={style}];')
    lines = ["graph {"]
    lines += [f"  v{x};" for x in range(n)]
    lines += [f"  {stub} [shape=point];" for stub in stubs]
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"
