"""Maps on surfaces through their flag graphs: validation, symmetry
type graphs, dual/Petrie/medial operations, and exhaustive census of
symmetry types."""

from .errors import (AmbiguousPairing, BadZeroTwoComponent,
                     DegenerateLattice, Disconnected, EdgeOccurrenceCount,
                     FixedPointPresent, MapError, NotAMedial, NotDuality,
                     NotInvolution, NotPermutation, NotPolarity,
                     ParseError, SizeMismatch, TooSmall, Zero2NotCommuting)
from .flagmap import (FlagBijection, FlagGraph, MapSkeleton,
                      color_automorphisms, duality_kind, elements,
                      flag_orbits, isomorphic, k_face_of, map_dualities,
                      map_polarity, validate)
from .typegraph import (CanonicalCode, ExtendedTypeGraph, TypeGraph,
                        admits_proper, canonical_code, extend,
                        face_orbit_counts, is_edge_transitive_type,
                        polarities, quotient, realize, type_automorphisms,
                        type_dualities, validate_type)
from .transforms import (demedialize, dual_flag, dual_type, medial_flag,
                         medial_type_double, medial_type_extended,
                         opposite_flag, opposite_type, petrie_flag,
                         petrie_type, schlafli_gate_for_double_medial)
from .enumeration import (CensusRow, MedialCensus, TypeRecord, census,
                          calibrate_duality_mode,
                          edge_transitive_medial_check,
                          enumerate_types, enumerate_types_bruteforce,
                          enumerate_zero_two_skeletons, medial_census,
                          type_records)
from .formats import (cube, face_walks, flag_graph_from_walks,
                      octahedron, parse_document, parse_flg, parse_map,
                      parse_stg, parse_xstg, serialize_flg, serialize_map,
                      serialize_stg, serialize_xstg, tetrahedron, to_dot,
                      torus44)
from .names import load_aliases, lookup, pinned_type, registry

__version__ = "0.1.0"
