"""Command-line front end.

Subcommands: validate, analyze, transform, typegraph, enumerate,
selftest. Data goes to stdout, diagnostics to stderr. Exit codes: 0
success, 1 validation or self-test failure, 2 usage error. The optional
environment variable FLAGMAPS_ALIASES names a JSON file mapping
canonical type codes to display names, merged under the builtin pinned
names.
"""

import argparse
import sys
from pathlib import Path

from . import acceptance, names
from .enumeration import census, format_census_table, medial_census, \
    type_records
from .errors import MapError, NotAMedial
from .flagmap import FlagGraph, duality_kind, elements, isomorphic
from .formats import (decode_ascii, document_rows, parse_document,
                      serialize_flg, serialize_stg, to_dot)
from .transforms import (demedialize, dual_flag, medial_flag, opposite_flag,
                         petrie_flag)
from .typegraph import canonical_code, quotient, realize

_RECORD_HELP = """\
record line format (--format records):
  <code> <flags> polarities=<count> name=<name>
where <code> is the canonical type code (kind;size;tables, comma
separated entries), <flags> is five positions DTEMP with '-' for unset:
D self-dual, T self-petrie, E edge-transitive, M medial type, P
self-polar; <name> is the pinned or aliased name, else <k>:<index> in
code order."""


def _int_at_least(low, high=None):
    """argparse type: an integer in [low, high], else a usage error."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = (f"at least {low}" if high is None
                     else f"between {low} and {high}")
            raise argparse.ArgumentTypeError(
                f"must be {bound}, got {value}")
        return value
    return parse


def _read_document(path):
    try:
        text = decode_ascii(Path(path).read_bytes(), path)
    except OSError as exc:
        raise MapError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def _require_map(doc, command):
    if not isinstance(doc, FlagGraph):
        raise MapError(f"{command} expects a map document (flg or map), "
                       f"got a {type(doc).__name__}")
    return doc


def _cmd_validate(args):
    kind, rows = document_rows(_read_document(args.file))
    print(f"ok: {kind} document, size {len(rows[0][1])}")
    return 0


def _fmt_schlafli(pair):
    return "none" if pair is None else "{%d,%d}" % pair


def _cmd_analyze(args):
    g = _require_map(_read_document(args.file), "analyze")
    sk = elements(g)
    t = quotient(g)
    code = canonical_code(t)
    alias = names.lookup(code, names.load_aliases()) or "none"
    kind = duality_kind(g)
    petrie = isomorphic(g, petrie_flag(g)) is not None
    try:
        demedialize(g)
        is_medial = True
    except NotAMedial:
        is_medial = False
    print(f"flags: {g.n}")
    print(f"vertices: {sk.num_vertices}")
    print(f"edges: {sk.num_edges}")
    print(f"faces: {sk.num_faces}")
    print(f"euler: {sk.euler}")
    print(f"orientable: {'yes' if sk.orientable else 'no'}")
    print(f"schlafli: {_fmt_schlafli(sk.schlafli)}")
    # the automorphisms act semiregularly: each orbit has |Aut| flags
    print(f"automorphisms: {g.n // t.k}")
    print(f"orbits: {t.k}")
    print(f"type: {code}")
    print(f"alias: {alias}")
    print(f"self-dual: {kind if kind else 'no'}")
    print(f"self-petrie: {'yes' if petrie else 'no'}")
    print(f"medial: {'yes' if is_medial else 'no'}")
    return 0


def _write_or_print(text, out):
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _cmd_transform(args):
    g = _require_map(_read_document(args.file), "transform")
    if args.op == "demedialize":
        if not args.output:
            print("error: demedialize needs -o to name its two outputs",
                  file=sys.stderr)
            return 2
        first, second = demedialize(g)
        for suffix, part in ((".a", first), (".b", second)):
            Path(args.output + suffix).write_text(serialize_flg(part),
                                                  encoding="ascii")
        return 0
    op = {"dual": dual_flag, "petrie": petrie_flag,
          "opposite": opposite_flag, "medial": medial_flag}[args.op]
    _write_or_print(serialize_flg(op(g)), args.output)
    return 0


def _cmd_typegraph(args):
    g = _require_map(_read_document(args.file), "typegraph")
    t = quotient(g)
    if args.output and args.output.endswith(".dot"):
        text = to_dot(t)
    else:
        text = serialize_stg(t)
    _write_or_print(text, args.output)
    return 0


def _cmd_enumerate(args):
    k = args.k
    aliases = names.load_aliases()
    records = type_records(k, aliases, args.duality_mode, args.jobs)
    if args.format == "dot-dir":
        if not args.out:
            print("error: --format dot-dir needs --out <directory>",
                  file=sys.stderr)
            return 2
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for rec in records:
            text = to_dot(realize(rec.code))
            (outdir / (rec.name.replace(":", "-") + ".dot")).write_text(
                text, encoding="ascii")
        print(f"wrote {len(records)} DOT files to {outdir}")
    elif args.format == "table":
        header = f"{'name':>12}  {'flags':>5}  {'polarities':>10}  code"
        print(header)
        for rec in records:
            print(f"{rec.name:>12}  {rec.flag_string:>5}  "
                  f"{rec.polarity_count:>10}  {rec.code}")
    else:
        for rec in records:
            print(rec.line())
    if args.census:
        row = census(k, args.duality_mode, args.jobs)
        sys.stdout.write(format_census_table([row]))
    if args.medial:
        med = medial_census(k, args.jobs)
        formula = "holds" if med.formula_ok else "fails"
        print(f"medial-types k={k} from-extended={med.f} union={med.g} "
              f"closed-form={formula}")
        for code in med.codes:
            print(f"medial-code: {code}")
    return 0


def _cmd_selftest(args):
    results = acceptance.run_all(max_k=args.max_k, jobs=args.jobs)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flagmaps",
        description="Analyze maps on surfaces through their flag graphs "
                    "and symmetry type graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full report on a map")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("transform", help="apply a map operation")
    p.add_argument("--op", required=True,
                   choices=("dual", "petrie", "opposite", "medial",
                            "demedialize"))
    p.add_argument("file")
    p.add_argument("-o", "--output",
                   help="output path (demedialize appends .a and .b); "
                        "stdout when omitted")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("typegraph",
                       help="symmetry type graph of a map")
    p.add_argument("file")
    p.add_argument("-o", "--output",
                   help="output path; a .dot suffix selects DOT format")
    p.set_defaults(func=_cmd_typegraph)

    p = sub.add_parser(
        "enumerate", help="all symmetry types on k orbit vertices",
        epilog=_RECORD_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--k", type=_int_at_least(1), required=True)
    p.add_argument("--census", action="store_true",
                   help="append the census table row")
    p.add_argument("--medial", action="store_true",
                   help="append the medial-type summary and codes")
    p.add_argument("--duality-mode", choices=("conjugacy", "raw"),
                   help="counting convention; default is raw")
    p.add_argument("--format", choices=("table", "records", "dot-dir"),
                   default="records")
    p.add_argument("--out", help="directory for --format dot-dir")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--max-k", type=_int_at_least(1, 10), default=10)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
