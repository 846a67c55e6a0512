"""Exception hierarchy.

Every structural defect detected by a validator is reported through a
subclass of :class:`MapError`, carrying enough context (generator label,
witness index, component) to point at the offending part of the input.
The CLI maps any :class:`MapError` to exit code 1. Internal consistency
gates go through :func:`check`, which ``python -O`` does not strip.
"""


def check(holds, message=""):
    """A gate that python -O keeps: AssertionError(message) unless holds."""
    if not holds:
        raise AssertionError(message)


class MapError(ValueError):
    """Base class for all validation and parsing failures."""


class NotInvolution(MapError):
    """A generator table is not an involution.

    ``generator`` is a label such as ``"s1"`` or ``"t0"``; ``witness`` is an
    index x with g[g[x]] != x.
    """

    def __init__(self, generator, witness):
        self.generator = generator
        self.witness = witness
        super().__init__(f"{generator} is not an involution (witness {witness})")


class NotPermutation(MapError):
    """A generator table is not a permutation image table of the right
    length: too short or too long, an image out of range, or a repeated
    image. ``generator`` is a label such as ``"s1"`` or ``"d"``."""

    def __init__(self, generator, detail):
        self.generator = generator
        super().__init__(f"{generator} {detail}")


class TooSmall(MapError):
    """A flag graph or type graph has fewer points than its kind allows."""

    def __init__(self, kind, size, minimum, unit):
        self.size = size
        self.minimum = minimum
        super().__init__(f"{kind} needs at least {minimum} {unit}, "
                         f"got {size}")


class FixedPointPresent(MapError):
    """A flag-level generator (or the 0-2 composite) fixes a flag."""

    def __init__(self, generator, witness):
        self.generator = generator
        self.witness = witness
        super().__init__(f"{generator} fixes flag {witness}")


class Zero2NotCommuting(MapError):
    """s0 and s2 fail to commute at some flag."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"s0 and s2 do not commute at flag {witness}")


class Disconnected(MapError):
    """The union of the generators does not act transitively."""

    def __init__(self, component_sizes):
        self.component_sizes = tuple(component_sizes)
        super().__init__(
            "graph is disconnected (component sizes %s)"
            % (self.component_sizes,))


class SizeMismatch(MapError):
    """Two graphs compared for isomorphism have different sizes."""

    def __init__(self, n1, n2):
        self.sizes = (n1, n2)
        super().__init__(f"size mismatch: {n1} vs {n2}")


class BadZeroTwoComponent(MapError):
    """A component of the colour-{0,2} subgraph of a type graph is not one
    of the five admissible quotient shapes of an alternating 4-cycle."""

    def __init__(self, component, detail=""):
        self.component = tuple(component)
        msg = f"bad 0-2 component {self.component}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotPolarity(MapError):
    """A candidate duality permutation does not square to the identity."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a polarity: d*d moves vertex {witness}")


class NotDuality(MapError):
    """A candidate permutation fails the duality intertwining relations."""

    def __init__(self, detail):
        super().__init__(f"not a duality: {detail}")


class NotAMedial(MapError):
    """The map is not the medial of any map; ``reason`` names the failed
    structural check."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"not a medial map: {reason}")


class DegenerateLattice(MapError):
    """The two spanning vectors of a torus quotient are linearly dependent."""

    def __init__(self, vectors):
        self.vectors = vectors
        super().__init__(f"degenerate lattice spanned by {vectors}")


class ParseError(MapError):
    """Malformed document text. 1-based ``line`` (and ``column`` when it
    is meaningful) locate the defect."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}"
            if column is not None:
                loc += f", column {column}"
        super().__init__(message + loc)


class EdgeOccurrenceCount(MapError):
    """An undirected edge does not occur exactly twice across the face
    walks of a map description."""

    def __init__(self, edge, count):
        self.edge = edge
        self.count = count
        super().__init__(f"edge {edge} occurs {count} times, expected 2")


class AmbiguousPairing(MapError):
    """Face-walk input cannot decide how to glue an edge (both endpoints
    coincide, as on a loop)."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__(
            f"cannot pair occurrences of edge {edge} by endpoint matching")
