"""Human names for small symmetry type graphs.

Names are aliases over canonical codes. The pinned set covers the types
whose construction is forced structurally:

- "1": the one-vertex type (regular maps).
- "2_I" for I a subset of {0,1,2}: the two-vertex type whose semi-edge
  colors at each vertex are exactly I, i.e. t_i is the identity for
  i in I and the swap otherwise. "2" is the empty subset (triple edge).
- "3^02": the unique self-dual three-vertex type (its 0-2 subgraph has a
  double-edge component).
- "3^0": the medial type of 3^02 extended by its proper polarity; its
  two-vertex 0-2 component is a color-0 edge with color-2 semi-edges.
  "3^2" is the dual of 3^0.
- "4_A", "4_C", "4_F", "4_G", "4_H", "6_D", "6_M": the doublings of
  2_01, 2_1, 2_02, 2, 2_0 and of 3^0, 3^02 respectively.

Everything else (further 4-, 5-, 6-, 7-vertex names used in figures)
cannot be pinned from structure alone and may be supplied through an
alias file: a JSON object mapping code strings to names, whose path is
taken from the FLAGMAPS_ALIASES environment variable.
"""

import json
import os
from pathlib import Path

from .errors import MapError, ParseError, check
from .formats import decode_ascii
from .transforms import dual_type, medial_type_double, medial_type_extended
from .typegraph import (ExtendedTypeGraph, TypeGraph, canonical_code,
                        classify_zero_two_component, zero_two_components)

ALIAS_ENV_VAR = "FLAGMAPS_ALIASES"

_REGISTRY = None
_BUILDERS = None


def _two_vertex(semis):
    ident = (0, 1)
    swap = (1, 0)
    return TypeGraph(*(ident if i in semis else swap for i in range(3)))


def _build():
    one = TypeGraph((0,), (0,), (0,))
    t302 = TypeGraph((1, 0, 2), (2, 1, 0), (1, 0, 2))
    t30 = medial_type_extended(ExtendedTypeGraph(t302, (0, 1, 2)))
    shapes = {classify_zero_two_component(t30.t0, t30.t2, comp)
              for comp in zero_two_components(t30.t0, t30.t2)}
    check(shapes == {"Q2a", "Q1"}, shapes)
    graphs = {
        "1": one,
        "2": _two_vertex(()),
        "2_0": _two_vertex((0,)),
        "2_1": _two_vertex((1,)),
        "2_2": _two_vertex((2,)),
        "2_01": _two_vertex((0, 1)),
        "2_02": _two_vertex((0, 2)),
        "2_12": _two_vertex((1, 2)),
        "3^02": t302,
        "3^0": t30,
        "3^2": dual_type(t30),
    }
    for name, source in (("4_A", "2_01"), ("4_C", "2_1"), ("4_F", "2_02"),
                         ("4_G", "2"), ("4_H", "2_0"),
                         ("6_D", "3^0"), ("6_M", "3^02")):
        graphs[name] = medial_type_double(graphs[source])
    registry = {}
    for name, graph in graphs.items():
        code = canonical_code(graph)
        check(code not in registry,
              f"{name} collides with {registry.get(code)}")
        registry[code] = name
    return registry, graphs


def _ensure():
    global _REGISTRY, _BUILDERS
    if _REGISTRY is None:
        _REGISTRY, _BUILDERS = _build()


def registry():
    """The pinned mapping CanonicalCode -> name (18 entries)."""
    _ensure()
    return dict(_REGISTRY)


def pinned_type(name):
    """The TypeGraph pinned under a given name (KeyError if unknown)."""
    _ensure()
    return _BUILDERS[name]


def load_aliases(path=None):
    """Alias mapping {code string: name} from a JSON file.

    Without an argument the path is read from FLAGMAPS_ALIASES; a missing
    variable or file yields an empty mapping. A file that cannot be read,
    is not ASCII, or does not hold a JSON object raises a MapError.
    """
    if path is None:
        path = os.environ.get(ALIAS_ENV_VAR)
    if not path or not os.path.exists(path):
        return {}
    source = f"alias file {path}"
    try:
        data = json.loads(decode_ascii(Path(path).read_bytes(), source))
    except OSError as exc:
        raise MapError(f"cannot read {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source} is not JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from None
    if not isinstance(data, dict):
        raise MapError(f"{source} must contain a JSON object")
    return {str(k): str(v) for k, v in data.items()}


def lookup(code, aliases=None):
    """Name for a canonical code: pinned first, then aliases, else None."""
    _ensure()
    name = _REGISTRY.get(code)
    if name is None and aliases:
        name = aliases.get(str(code))
    return name
