"""Command-line interface: convert, conformance, and inspect.

Exit codes: 0 clean, 1 parse/input error, an output file that cannot be
written or an exporter's refusal, 2 bad flags (argparse or --approaches),
3 lossy conversion (the report lists the partial statements). Output for
a given invocation and input is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from itertools import chain
from json import JSONEncoder

# to_json, to_graphml and to_cypher are here only for perfbench/spans.py to patch; convert writes through _chunks.
from .exporters import UnrepresentableValue, _chunks, _utf8_chunks, to_cypher, to_graphml, to_json  # noqa: F401
from .model import _gc_paused, classify, quote_depth
from .parser import ParseError, parse_turtle_star
from .transform import (
    Approach,
    DatatypePolicy,
    ListPolicy,
    NamedGraphPolicy,
    RdfTypePolicy,
    TransformConfig,
    transform,
)


def _read_document(path: str):
    """Parse a file, or stdin for "-", read as strict UTF-8; None once it printed why not.

    Each CR LF or lone CR becomes LF, as text-mode reading makes it.
    """
    try:
        if path == "-":
            source = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "rb") as fh:
                source = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return parse_turtle_star(source)
    except ParseError as exc:
        print(f"parse error at line {exc.line}, column {exc.column}: {exc.message}",
              file=sys.stderr)
        return None


def _write_report(path: str, report: dict) -> bool:
    """Write a report as indented JSON, non-ASCII text as it is, as _write_output writes.

    The text is encoded and written as it is made, so neither it nor its
    bytes is ever held whole. With indent set, json.dumps joins this same
    pure-Python iterencode, so the bytes are json.dumps's.
    """
    pieces = JSONEncoder(indent=2, ensure_ascii=False).iterencode(report)
    return _write_output(path, _utf8_chunks(chain(pieces, ("\n",))))


def _write_output(path: str, chunks) -> bool:
    """Write bytes chunks to a file, or to stdout for "-"; False once it printed why not."""
    try:
        if path == "-":
            sys.stdout.buffer.writelines(chunks)
            sys.stdout.buffer.flush()
        else:
            with open(path, "wb") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        if path == "-":  # a closed pipe: the flush at exit must not raise again
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return False
    return True


@_gc_paused
def cmd_convert(args) -> int:
    """Parse, transform, export and report one document; returns the exit code."""
    dataset = _read_document(args.input)
    if dataset is None:
        return 1

    config = TransformConfig(
        approach=Approach(args.approach),
        datatype_policy=DatatypePolicy(args.datatype_policy),
        rdf_type_policy=RdfTypePolicy(args.rdf_type_policy) if args.rdf_type_policy else None,
        named_graph_policy=NamedGraphPolicy(args.named_graph_policy),
        list_policy=ListPolicy(args.list_policy),
    )
    graph, report = transform(dataset, config)
    del dataset  # the report holds the statements it names; nothing below reads the dataset

    # JSON is written as it is made; GraphML and Cypher, which can refuse
    # partway through a graph, come whole, so a refusal writes nothing.
    try:
        chunks = _chunks(graph, args.format)
    except UnrepresentableValue as exc:
        print(f"error: cannot write {args.format}: {exc}", file=sys.stderr)
        return 1
    if not _write_output(args.output, chunks):
        return 1
    # the graph and its kept walk go before the report is made and written
    del graph, chunks

    if args.report and not _write_report(args.report, report.to_dict()):
        return 1

    return 3 if report.lossy else 0


def cmd_conformance(args) -> int:
    approaches = None
    if args.approaches is not None:
        try:
            approaches = [
                Approach(name.strip()) for name in args.approaches.split(",") if name.strip()
            ]
        except ValueError:
            approaches = []
        if not approaches:
            valid = ", ".join(a.value for a in Approach)
            print(
                f"rdfstar2pg conformance: error: --approaches must be a comma-separated "
                f"subset of {valid}, got {args.approaches!r}",
                file=sys.stderr,
            )
            return 2
    from .conformance import run_conformance  # loaded only when asked, so convert never imports it

    report = run_conformance(approaches=approaches)
    print(report.to_table())
    if args.json and not _write_report(args.json, report.to_dict()):
        return 1
    return 0 if report.passed else 1


def cmd_inspect(args) -> int:
    dataset = _read_document(args.input)
    if dataset is None:
        return 1

    statements = [st for _, st in dataset.statements()]
    kinds = Counter(classify(st).value for st in statements)
    depth = max((quote_depth(st) for st in statements), default=0)
    named = [name.value for name, _ in dataset.graphs() if name is not None]

    print(f"statements: {len(statements)}")
    breakdown = ", ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
    print(f"kinds: {breakdown or 'none'}")
    print(f"max quote depth: {depth}")
    print(f"named graphs: {', '.join(named) if named else 'none'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdfstar2pg",
        description="Transform RDF-star (Turtle-star) documents into property graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="parse, transform, and export a document")
    convert.add_argument("input", help="input file, or - for standard input")
    convert.add_argument(
        "--approach", choices=[m.value for m in Approach], default="hybrid",
        help="transformation approach (default: hybrid)",
    )
    convert.add_argument(
        "--datatype-policy", choices=[m.value for m in DatatypePolicy], default="property",
        help="hybrid only: what plain datatype statements become (default: property)",
    )
    convert.add_argument(
        "--rdf-type-policy", choices=[m.value for m in RdfTypePolicy], default=None,
        help="rdf:type handling (default: label for pgt, edge otherwise)",
    )
    convert.add_argument(
        "--named-graph-policy", choices=[m.value for m in NamedGraphPolicy],
        default="edge-property",
        help="named graph handling (default: edge-property)",
    )
    convert.add_argument(
        "--list-policy", choices=[m.value for m in ListPolicy], default="expand",
        help="collection handling (default: expand)",
    )
    convert.add_argument(
        "--format", choices=["json", "graphml", "cypher"], default="json",
        help="output format (default: json)",
    )
    convert.add_argument("--output", default="-", help="output file, or - for standard output")
    convert.add_argument("--report", default=None, help="write the conversion report JSON here")
    convert.set_defaults(func=cmd_convert)

    conf = sub.add_parser("conformance", help="run the built-in corpus checks")
    conf.add_argument(
        "--approaches", default=None,
        help="comma-separated subset of rpt,pgt,hybrid (default: all three)",
    )
    conf.add_argument("--json", default=None, help="also write the report as JSON to this path")
    conf.set_defaults(func=cmd_conformance)

    inspect = sub.add_parser("inspect", help="summarize a document without transforming it")
    inspect.add_argument("input", help="input file, or - for standard input")
    inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
