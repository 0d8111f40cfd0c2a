"""Built-in test corpus and the conformance harness that replays it.

The corpus is 23 small Turtle-star documents covering plain RDF features
(datatypes, lists, blank nodes, named graphs, multi-typing) and quoted-triple
features (subject/object position, nesting, repeated embedded statements).
Sources and expected shapes ship as frozen JSON files; the CHANGELOG next to
them pins their hashes so silent edits fail the test suite.

run_conformance parses every case, transforms it under each requested
approach, and compares the observed graph shape (node/edge/property counts
and overall status) against the expected-shape table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Optional

from .parser import parse_turtle_star
from .transform import Approach, Status, TransformConfig, TransformReport, transform


@dataclass(frozen=True)
class TestCase:
    id: str
    title: str
    statement_count: int
    source: str
    note: Optional[str] = None


@dataclass(frozen=True)
class Shape:
    nodes: int
    edges: int
    node_properties: int
    edge_properties: int
    status: Status

    def render(self) -> str:
        return (
            f"{self.nodes}n/{self.edges}e/{self.node_properties}np/"
            f"{self.edge_properties}ep {self.status.value}"
        )


@dataclass(frozen=True)
class ExpectedShape:
    case_id: str
    approach: Approach
    shape: Shape
    basis: str  # "reference" (figure-backed) or "derived" (worked by hand)


@dataclass
class ConformanceRow:
    case_id: str
    approach: Approach
    observed: Shape
    expected: Shape
    basis: str
    passed: bool
    report: TransformReport


@dataclass
class ConformanceReport:
    rows: list
    aggregates: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "rows": [
                {
                    "case": row.case_id,
                    "approach": row.approach.value,
                    "observed": row.observed.render(),
                    "expected": row.expected.render(),
                    "basis": row.basis,
                    "passed": row.passed,
                    "report": row.report.to_dict(),
                }
                for row in self.rows
            ],
            "aggregates": {
                approach.value: dict(stats) for approach, stats in self.aggregates.items()
            },
        }

    def to_table(self) -> str:
        lines = [
            f"{'case':<6} {'approach':<8} {'observed':<28} {'expected':<28} result",
            "-" * 80,
        ]
        for row in self.rows:
            lines.append(
                f"{row.case_id:<6} {row.approach.value:<8} "
                f"{row.observed.render():<28} {row.expected.render():<28} "
                f"{'pass' if row.passed else 'FAIL'}"
            )
        lines.append("-" * 80)
        for approach, stats in self.aggregates.items():
            lines.append(
                f"{approach.value}: {stats['converted']}/{stats['total']} statements "
                f"converted (fraction {stats['fraction']:.3f})"
            )
        lines.append("result: " + ("all rows pass" if self.passed else "FAILURES PRESENT"))
        return "\n".join(lines)


def _data(name: str) -> str:
    return files("rdfstar2pg").joinpath("data").joinpath(name).read_text("utf-8")


def builtin_corpus() -> list:
    return [TestCase(**case) for case in json.loads(_data("corpus.json"))["cases"]]


def expected_shape_table() -> dict:
    raw = json.loads(_data("expected_shapes.json"))
    table = {}
    for row in raw["shapes"]:
        approach = Approach(row["approach"])
        shape = Shape(
            nodes=row["nodes"],
            edges=row["edges"],
            node_properties=row["node_properties"],
            edge_properties=row["edge_properties"],
            status=Status(row["status"]),
        )
        table[(row["case"], approach)] = ExpectedShape(
            case_id=row["case"], approach=approach, shape=shape, basis=row["basis"]
        )
    return table


def case_sort_key(case_id: str):
    return tuple(int(part) for part in case_id.split("."))


def observed_shape(graph, report: TransformReport) -> Shape:
    return Shape(
        nodes=len(graph.nodes),
        edges=len(graph.edges),
        node_properties=graph.semantic_node_property_count(),
        edge_properties=graph.semantic_edge_property_count(),
        status=Status.PARTIAL if report.lossy else Status.CONVERTED,
    )


def run_conformance(approaches: Optional[list] = None) -> ConformanceReport:
    """Replay the corpus under each approach's defaults and check expected shapes.

    Each requested approach runs once, in the order given; None or an
    empty list runs all three.
    """
    approaches = list(dict.fromkeys(approaches or Approach))
    table = expected_shape_table()
    cases = sorted(builtin_corpus(), key=lambda c: case_sort_key(c.id))

    rows = []
    aggregates = {a: {"converted": 0, "total": 0} for a in approaches}
    for case in cases:
        dataset = parse_turtle_star(case.source)
        for approach in approaches:
            graph, report = transform(dataset, TransformConfig(approach=approach))
            observed = observed_shape(graph, report)
            expected = table[(case.id, approach)]
            rows.append(
                ConformanceRow(
                    case_id=case.id,
                    approach=approach,
                    observed=observed,
                    expected=expected.shape,
                    basis=expected.basis,
                    passed=observed == expected.shape,
                    report=report,
                )
            )
            aggregates[approach]["converted"] += report.converted
            aggregates[approach]["total"] += report.total

    for stats in aggregates.values():
        stats["fraction"] = stats["converted"] / stats["total"] if stats["total"] else 1.0
    return ConformanceReport(rows=rows, aggregates=aggregates)
