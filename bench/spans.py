"""Per-layer tracing of flagmaps, installed from outside the program.

Tracer rebinds the public callables of each layer to wrappers. Because
`from .permtools import canonical_form` binds a separate name in every
importing module, each wrapper is bound at every flagmaps module whose
attribute is the original object. A spanned call records (name, start,
end, parent span, operation id, raised); spans stay in memory until the
pass ends. Hot inner callables are only counted, because a span for each
of millions of calls would measure the tracer instead of the program.
"""

import time
from collections import Counter, defaultdict

from speed import rescaled

# (module, attribute, span name). enumeration._enumerate_tables is the
# table sweep behind enumerate_types; the CLI reaches it only through
# type_records, census and medial_census, so it is traced under the
# public name.
SPANNED = (
    ("permtools", "canonical_form", "permtools.canonical_form"),
    ("permtools", "equivariant_bijections",
     "permtools.equivariant_bijections"),
    ("permtools", "orbit_partition", "permtools.orbit_partition"),
    ("flagmap", "color_automorphisms", "flagmap.color_automorphisms"),
    ("flagmap", "map_dualities", "flagmap.map_dualities"),
    ("flagmap", "duality_kind", "flagmap.duality_kind"),
    ("flagmap", "flag_orbits", "flagmap.flag_orbits"),
    ("flagmap", "isomorphic", "flagmap.isomorphic"),
    ("flagmap", "elements", "flagmap.elements"),
    ("typegraph", "quotient", "typegraph.quotient"),
    ("typegraph", "canonical_code", "typegraph.canonical_code"),
    ("transforms", "medial_flag", "transforms.medial_flag"),
    ("transforms", "demedialize", "transforms.demedialize"),
    ("transforms", "dual_flag", "transforms.dual_flag"),
    ("transforms", "petrie_flag", "transforms.petrie_flag"),
    ("transforms", "opposite_flag", "transforms.opposite_flag"),
    ("enumeration", "_enumerate_tables", "enumeration.enumerate_types"),
    ("enumeration", "type_records", "enumeration.type_records"),
    ("enumeration", "census", "enumeration.census"),
    ("enumeration", "medial_census", "enumeration.medial_census"),
    ("enumeration", "calibrate_duality_mode",
     "enumeration.calibrate_duality_mode"),
    ("formats", "parse_document", "formats.parse_document"),
    ("formats", "flag_graph_from_walks", "formats.flag_graph_from_walks"),
    ("formats", "serialize_flg", "formats.serialize_flg"),
    ("formats", "serialize_map", "formats.serialize_map"),
)
# Classes whose construction (validation included) is spanned.
CONSTRUCTED = (
    ("flagmap", "FlagGraph", "flagmap.FlagGraph"),
    ("typegraph", "TypeGraph", "typegraph.TypeGraph"),
)
# 5.36 M calls at k = 10: counted, never spanned.
COUNTED = (("permtools", "conjugate", "permtools.conjugate"),)
ROOT = "cli"


class Tracer:
    """Spans and counters for one pass; `modules` maps the dotted module
    names of the loaded flagmaps package to the module objects."""

    def __init__(self, modules):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = {}
        self.bijections = [0, 0]  # candidate images available, found
        self.missing = []
        for mod, attr, name in SPANNED + COUNTED:
            orig = getattr(modules.get(f"flagmaps.{mod}"), attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            if name == "permtools.equivariant_bijections":
                wrapper = self._spanned(name, orig, self._count_found)
            elif (mod, attr, name) in COUNTED:
                wrapper = self._counted(name, orig)
            else:
                wrapper = self._spanned(name, orig)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
        for mod, attr, name in CONSTRUCTED:
            cls = getattr(modules.get(f"flagmaps.{mod}"), attr, None)
            if cls is None:
                self.missing.append(name)
                continue
            cls.__init__ = self._spanned(name, cls.__init__)

    def _count_found(self, args, result):
        self.bijections[0] += len(args[0][0])
        self.bijections[1] += len(result)

    def _spanned(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op, raised)
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        box = self.counts.setdefault(name, [0])

        def wrapper(*args):
            box[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op, fn, *args):
        """Run one operation under the root span named cli."""
        self.op = op
        return self._spanned(ROOT, fn)(*args)

    def metrics(self, refs):
        """Flat per-layer metrics for a pass whose operation i ran at the
        reference-kernel time refs[i].

        Every span's duration is rescaled to the reference speed by its
        operation's kernel time, as the operation's own time is. NAME.s
        is inclusive time summed over the spans of NAME that have no
        ancestor of the same name; NAME.self_s is duration minus the time
        covered by direct child spans (children of one span never overlap
        in this single-threaded program); NAME.calls counts calls.
        """
        spans = self.spans
        durations = [rescaled(end - start, refs[op])
                     for _, start, end, _, op, _ in spans]
        covered = [0.0] * len(spans)
        for index, span in enumerate(spans):
            if span[3] >= 0:
                covered[span[3]] += durations[index]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        raised = Counter()
        for index, (name, _, _, parent, _, bad) in enumerate(spans):
            calls[name] += 1
            raised[name] += bad
            own[name] += durations[index] - covered[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total[name] += durations[index]
        out = {}
        for name in [s[2] for s in SPANNED + CONSTRUCTED] + [ROOT]:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        for _, _, name in COUNTED:
            out[f"{name}.calls"] = self.counts.get(name, [0])[0]
        out["flagmap.FlagGraph.rejects"] = raised["flagmap.FlagGraph"]
        available, found = self.bijections
        out["permtools.equivariant_bijections.found_ratio"] = (
            found / available if available else 0.0)
        out["flagmap.flag_orbits.calls_per_op"] = (
            calls["flagmap.flag_orbits"] / len(refs) if refs else 0.0)
        return out
