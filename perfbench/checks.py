"""Output checks that decide whether a conversion counts as failed.

Each check compares a program output with the generator's own expectation
or with another output of the same conversion. A conversion with any failed
check is counted in `failed`, which is where error_rate comes from.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from types import SimpleNamespace

GRAPHML_NODE = re.compile(rb"^    <node ", re.M)
GRAPHML_EDGE = re.compile(rb"^    <edge ", re.M)
CYPHER_NODE = re.compile(rb"^CREATE \(n\d+:", re.M)
CYPHER_EDGE = re.compile(rb"^CREATE \(n\d+\)-\[", re.M)
CYPHER_ANY = re.compile(rb"^CREATE ", re.M)


def report_bytes(report) -> bytes:
    """The report exactly as `rdfstar2pg convert --report` writes it."""
    return (json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def exit_code(report) -> int:
    """The exit code `rdfstar2pg convert` returns for this report."""
    return 3 if report.lossy else 0


class Tally:
    """Attempted and failed conversions, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, failures: list) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.update(failures)


def check_conversion(expect, approach: str, code: int, total: int, edges: int) -> list:
    """Exit code, report total and edge count against the generator."""
    failures = []
    if code != expect.exit_code(approach):
        failures.append(f"exit code {code} != {expect.exit_code(approach)}")
    if total != expect.units:
        failures.append(f"report total {total} != units {expect.units}")
    wanted = {"rpt": expect.rpt_edges, "hybrid": expect.hybrid_edges}.get(approach)
    if wanted is not None and edges != wanted:
        failures.append(f"{approach} edges {edges} != {wanted}")
    return failures


def check_exports(json_graph, graphml: bytes, cypher: bytes) -> list:
    """GraphML and Cypher hold as many nodes and edges as the JSON."""
    nodes, edges = len(json_graph.nodes), len(json_graph.edges)
    failures = []
    if (len(GRAPHML_NODE.findall(graphml)), len(GRAPHML_EDGE.findall(graphml))) != (nodes, edges):
        failures.append("graphml node/edge count differs from json")
    cy_nodes, cy_edges = len(CYPHER_NODE.findall(cypher)), len(CYPHER_EDGE.findall(cypher))
    if (cy_nodes, cy_edges) != (nodes, edges) or len(CYPHER_ANY.findall(cypher)) != nodes + edges:
        failures.append("cypher CREATE count differs from json")
    return failures


def check_round_trip(graph, read_back) -> list:
    """from_json(to_json(g)) has the canonical form of g."""
    if read_back.canonical_form() != graph.canonical_form():
        return ["from_json(to_json(g)) differs from g"]
    return []


def cli_check(api, expect, code: int, payload: bytes, report: bytes) -> list:
    """The output of `rdfstar2pg convert` (hybrid to JSON) and its report file."""
    read_back = api.from_json(payload)
    failures = check_conversion(expect, "hybrid", code, json.loads(report)["total"],
                                len(read_back.edges))
    if api.to_json(read_back) != payload:
        failures.append("to_json(from_json(output)) differs from output")
    return failures


def guarded(check, *args) -> list:
    """Run a check; an exception it raises (say, on unparseable output) is a failure."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def digest(*outputs: bytes) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(len(out).to_bytes(8, "big"))
        h.update(out)
    return h.hexdigest()


def full_check(api, expect, approach: str, graph, report, outputs: dict) -> list:
    """Every check for one in-process conversion.

    `outputs` maps format -> bytes for the formats the workload produced;
    the missing ones are produced here, outside any timed region.
    """
    json_bytes = outputs.get("json") or api.to_json(graph)
    graphml = outputs.get("graphml") or api.to_graphml(graph)
    cypher = outputs.get("cypher") or api.to_cypher(graph).encode("utf-8")
    read_back = outputs.get("read_back") or api.from_json(json_bytes)
    failures = check_conversion(expect, approach, exit_code(report), report.total,
                                len(graph.edges))
    if approach == "pgt":
        # pgt has no edge expectation of its own; the rpt count is checked instead,
        # on the rpt graph of the same conversion when there is one
        rpt_graph = outputs.get("rpt_graph") or api.transform(
            outputs["dataset"], api.TransformConfig(api.Approach.RPT))[0]
        if len(rpt_graph.edges) != expect.rpt_edges:
            failures.append(f"rpt edges {len(rpt_graph.edges)} != {expect.rpt_edges}")
    failures += check_round_trip(graph, read_back)
    failures += check_exports(read_back, graphml, cypher)
    return failures


def self_test(api, doc) -> dict:
    """Tamper with correct outputs and confirm each tamper is counted.

    Returns case name -> whether the checks counted it as a failure. The
    untampered cases must not be counted and every tampered one must be.
    `doc` must be lossy under pgt.
    """
    dataset = api.parse_turtle_star(doc.text)
    runs = {}
    for approach in (api.Approach.RPT, api.Approach.PGT):
        graph, report = api.transform(dataset, api.TransformConfig(approach))
        outputs = {"json": api.to_json(graph), "graphml": api.to_graphml(graph),
                   "cypher": api.to_cypher(graph).encode("utf-8"), "dataset": dataset}
        runs[approach.value] = (graph, report, outputs)
    graph, report, good = runs["rpt"]

    form = json.loads(good["json"])
    form["edges"].pop()
    dropped_edge = (json.dumps(form, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    cypher_lines = good["cypher"].splitlines(keepends=True)
    pgt_graph, pgt_report, pgt_good = runs["pgt"]

    cases = {
        "untampered rpt": (graph, report, "rpt", good),
        "untampered pgt": (pgt_graph, pgt_report, "pgt", pgt_good),
        "edge dropped from json": (graph, report, "rpt", {**good, "json": dropped_edge}),
        "edge dropped from cypher": (graph, report, "rpt",
                                     {**good, "cypher": b"".join(cypher_lines[:-1])}),
        "exit code 3 changed to 0": (pgt_graph, SimpleNamespace(lossy=False, total=pgt_report.total),
                                     "pgt", pgt_good),
        "report total off by one": (graph, SimpleNamespace(lossy=False, total=report.total - 1),
                                    "rpt", good),
    }
    hybrid_graph, hybrid_report = api.transform(dataset, api.TransformConfig(api.Approach.HYBRID))
    cli_good = (exit_code(hybrid_report), api.to_json(hybrid_graph), report_bytes(hybrid_report))
    cli_cases = {
        "untampered cli": cli_good,
        "cli stdout empty": (cli_good[0], b"", cli_good[2]),
        "cli report truncated": (*cli_good[:2], cli_good[2][:-20]),
    }
    counted = {}
    for name, (g, r, approach, outputs) in cases.items():
        tally = Tally()
        tally.record(guarded(full_check, api, doc.expect, approach, g, r, outputs))
        counted[name] = tally.failed == 1
    for name, (code, payload, report) in cli_cases.items():
        tally = Tally()
        tally.record(guarded(cli_check, api, doc.expect, code, payload, report))
        counted[name] = tally.failed == 1
    return counted
