"""The public pipeline calls run with the cyclic garbage collector paused.

The pause is safe only because the pipeline makes no reference cycles, so a
full pass must leave no cyclic garbage behind; and it must never change the
collector's state as the caller sees it.
"""

import argparse
import gc

import pytest

from rdfstar2pg.cli import build_parser, cmd_convert
from rdfstar2pg.conformance import builtin_corpus
from rdfstar2pg.exporters import from_json, to_cypher, to_graphml, to_json
from rdfstar2pg.parser import ParseError, parse_turtle_star
from rdfstar2pg.pgraph import Node, PropertyGraph
from rdfstar2pg.transform import Approach, TransformConfig, TransformReport, transform

EX = "@prefix ex: <http://example.org/> .\n"
SOURCE = EX + '<<ex:a ex:p ex:b>> ex:q "x" .\nex:a ex:age "25"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'


def full_pass() -> None:
    """Every approach into every format and back, the reports, and a parse error."""
    for case in builtin_corpus():
        dataset = parse_turtle_star(case.source)
        for approach in Approach:
            graph, report = transform(dataset, TransformConfig(approach=approach))
            from_json(to_json(graph))
            to_graphml(graph)
            to_cypher(graph)
            report.to_dict()
    try:
        parse_turtle_star(EX + "ex:a ex:b .\n")
    except ParseError:
        pass
    else:
        raise AssertionError("the broken document parsed")


def test_a_full_pass_leaves_no_cyclic_garbage():
    full_pass()  # lazy imports and caches settle first
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        full_pass()
        found = gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert found == 0, garbage[:20]


def test_a_large_parse_runs_no_collection():
    source = EX + "".join(f'ex:s{i} ex:p "v{i}" .\n' for i in range(5000))
    parse_turtle_star(source)  # warm-up
    gc.collect()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        parse_turtle_star(source)
        during = len(starts)  # nothing after the call has allocated yet
    finally:
        gc.callbacks.remove(count)
    assert during == 0


def _bad_graph() -> PropertyGraph:
    graph = PropertyGraph()
    graph.nodes["n:a"] = Node("n:a", {"X"}, {"v": 1.5})  # no property value: every exporter raises
    return graph


def calls(tmp_path):
    """Each entry point's name: (a call that returns, a call that raises)."""
    dataset = parse_turtle_star(SOURCE)
    graph, report = transform(dataset, TransformConfig())
    source = tmp_path / "in.ttl"
    source.write_text(SOURCE)
    good_args = build_parser().parse_args(["convert", str(source), "--output", str(tmp_path / "o"),
                                           "--report", str(tmp_path / "r")])
    broken_report = TransformReport(1, 0, [object()], [], [], [])
    return {
        "parse_turtle_star": (lambda: parse_turtle_star(SOURCE), lambda: parse_turtle_star("ex:a")),
        "transform": (lambda: transform(dataset, TransformConfig()), lambda: transform(None, TransformConfig())),
        "to_json": (lambda: to_json(graph), lambda: to_json(_bad_graph())),
        "to_graphml": (lambda: to_graphml(graph), lambda: to_graphml(_bad_graph())),
        "to_cypher": (lambda: to_cypher(graph), lambda: to_cypher(_bad_graph())),
        "from_json": (lambda: from_json(to_json(graph)), lambda: from_json(b"not json")),
        "TransformReport.to_dict": (lambda: report.to_dict(), lambda: broken_report.to_dict()),
        "cmd_convert": (lambda: cmd_convert(good_args),
                        lambda: cmd_convert(argparse.Namespace(input=str(source)))),
    }


ENTRY_POINTS = {
    "parse_turtle_star": parse_turtle_star,
    "transform": transform,
    "to_json": to_json,
    "to_graphml": to_graphml,
    "to_cypher": to_cypher,
    "from_json": from_json,
    "TransformReport.to_dict": TransformReport.to_dict,
    "cmd_convert": cmd_convert,
}


@pytest.fixture()
def collector_restored():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.usefixtures("collector_restored")
def test_collector_state_comes_back(tmp_path, name, enabled):
    returns, raises = calls(tmp_path)[name]
    (gc.enable if enabled else gc.disable)()
    returns()
    assert gc.isenabled() is enabled
    with pytest.raises(Exception):
        raises()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("qualname", ENTRY_POINTS)
def test_wrapping_keeps_name_and_docstring(qualname):
    function = ENTRY_POINTS[qualname]
    assert function.__qualname__ == qualname
    assert function.__name__ == qualname.rsplit(".", 1)[-1]
    assert function.__doc__ and function.__doc__ == function.__wrapped__.__doc__
