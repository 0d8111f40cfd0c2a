import hashlib
import json
import re
from importlib import resources

import pytest

from rdfstar2pg.conformance import (
    ConformanceReport,
    Shape,
    builtin_corpus,
    case_sort_key,
    expected_shape_table,
    observed_shape,
    run_conformance,
)
from rdfstar2pg.model import statement_units
from rdfstar2pg.parser import parse_turtle_star
from rdfstar2pg.transform import Approach, Status, pgt

ALL_CASE_IDS = [
    "1",
    "2.1",
    "2.2",
    "2.3",
    "2.4",
    "3.1",
    "3.2",
    "4",
    "5",
    "6",
    "7",
    "8",
    "9",
    "10",
    "11.1",
    "11.2",
    "12.1",
    "12.2",
    "13",
    "14.1",
    "14.2",
    "15.1",
    "15.2",
]


def data_bytes(name: str) -> bytes:
    return resources.files("rdfstar2pg").joinpath("data").joinpath(name).read_bytes()


class TestGoldenDataPins:
    """corpus.json and expected_shapes.json are frozen golden data.

    Editing either file without appending a fresh entry (hash + reason) to
    data/CHANGELOG fails these tests, so silent drift cannot happen.
    """

    def newest_hashes(self) -> dict:
        text = data_bytes("CHANGELOG").decode()
        pins: dict = {}
        for match in re.finditer(r"^\s*([0-9a-f]{64})\s+(\S+)\s*$", text, re.MULTILINE):
            pins[match.group(2)] = match.group(1)  # later entries overwrite earlier ones
        return pins

    def test_changelog_has_pins(self):
        pins = self.newest_hashes()
        assert set(pins) == {"corpus.json", "expected_shapes.json"}

    @pytest.mark.parametrize("name", ["corpus.json", "expected_shapes.json"])
    def test_file_matches_newest_changelog_hash(self, name):
        actual = hashlib.sha256(data_bytes(name)).hexdigest()
        assert actual == self.newest_hashes()[name], (
            f"{name} changed without a CHANGELOG entry; append a new entry with "
            f"the fresh hash and the reason for the change"
        )


class TestCorpus:
    def test_case_ids_and_order(self):
        corpus = sorted(builtin_corpus(), key=lambda c: case_sort_key(c.id))
        assert [c.id for c in corpus] == ALL_CASE_IDS

    def test_23_cases_44_statements(self):
        corpus = builtin_corpus()
        assert len(corpus) == 23
        assert sum(c.statement_count for c in corpus) == 44

    def test_every_case_parses(self):
        for case in builtin_corpus():
            dataset = parse_turtle_star(case.source)
            assert dataset.default or dataset.named, case.id

    def test_declared_counts_match_parsed_units(self):
        mismatches = []
        for case in builtin_corpus():
            parsed = len(statement_units(parse_turtle_star(case.source)))
            if parsed != case.statement_count:
                mismatches.append((case.id, case.statement_count, parsed))
        assert mismatches == []

    def test_titles_distinct_and_present(self):
        corpus = builtin_corpus()
        assert all(c.title for c in corpus)

    def test_statement_units_recursion_examples(self):
        by_id = {c.id: c for c in builtin_corpus()}
        # a doubly nested quoted triple is two units
        assert len(statement_units(parse_turtle_star(by_id["13"].source))) == 2
        # a collection chain folds into a single unit
        assert len(statement_units(parse_turtle_star(by_id["4"].source))) == 1


class TestExpectedShapes:
    def test_complete_69_entry_table(self):
        table = expected_shape_table()
        assert len(table) == 69
        for case_id in ALL_CASE_IDS:
            for approach in Approach:
                assert (case_id, approach) in table

    def test_reference_rows_marked(self):
        table = expected_shape_table()
        reference = {
            (case_id, approach)
            for (case_id, approach), entry in table.items()
            if entry.basis == "reference"
        }
        assert reference == {
            ("1", Approach.RPT),
            ("3.1", Approach.RPT),
            ("3.1", Approach.PGT),
            ("9", Approach.RPT),
            ("9", Approach.PGT),
            ("14.1", Approach.PGT),
        }

    def test_only_expected_partial_is_case_9_pgt(self):
        table = expected_shape_table()
        partial = {
            (case_id, approach)
            for (case_id, approach), entry in table.items()
            if entry.shape.status is Status.PARTIAL
        }
        assert partial == {("9", Approach.PGT)}

    def test_anchor_shapes_verbatim(self):
        table = expected_shape_table()
        assert table[("1", Approach.RPT)].shape == Shape(2, 1, 0, 0, Status.CONVERTED)
        assert table[("3.1", Approach.RPT)].shape == Shape(5, 4, 0, 0, Status.CONVERTED)
        assert table[("3.1", Approach.PGT)].shape == Shape(1, 0, 4, 0, Status.CONVERTED)
        assert table[("9", Approach.PGT)].shape == Shape(1, 0, 1, 0, Status.PARTIAL)
        assert table[("14.1", Approach.PGT)].shape == Shape(1, 0, 1, 0, Status.CONVERTED)


@pytest.fixture(scope="module")
def report() -> ConformanceReport:
    return run_conformance()


class TestRunConformance:

    def test_all_rows_pass(self, report):
        failing = [(r.case_id, r.approach.value) for r in report.rows if not r.passed]
        assert failing == []
        assert report.passed

    def test_row_count(self, report):
        assert len(report.rows) == 69

    def test_aggregates(self, report):
        agg = report.aggregates
        assert agg[Approach.RPT] == {"converted": 44, "total": 44, "fraction": 1.0}
        assert agg[Approach.HYBRID] == {"converted": 44, "total": 44, "fraction": 1.0}
        assert agg[Approach.PGT]["converted"] == 43
        assert agg[Approach.PGT]["total"] == 44
        assert agg[Approach.PGT]["fraction"] == pytest.approx(43 / 44)

    def test_hybrid_is_at_least_as_complete(self, report):
        agg = report.aggregates
        assert agg[Approach.HYBRID]["converted"] >= max(
            agg[Approach.RPT]["converted"], agg[Approach.PGT]["converted"]
        )

    def test_report_algebra_every_row(self, report):
        for row in report.rows:
            r = row.report
            assert r.converted + len(r.partial) == r.total

    def test_no_ignored_or_errors_anywhere(self, report):
        for row in report.to_dict()["rows"]:
            assert list(row["report"]) == ["total", "converted", "converted_fraction", "partial", "notes"]

    def test_single_approach_run(self):
        report = run_conformance(approaches=[Approach.HYBRID])
        assert len(report.rows) == 23
        assert report.passed

    def test_to_dict_is_json_ready(self, report):
        blob = json.dumps(report.to_dict())
        data = json.loads(blob)
        assert data["passed"] is True
        assert len(data["rows"]) == 69
        assert data["aggregates"]["pgt"]["converted"] == 43

    def test_to_table_readable(self, report):
        table = report.to_table()
        assert "all rows pass" in table
        assert "rpt: 44/44" in table


class TestCaseTwoDisconnection:
    """Statements about a predicate leave its resource node disconnected."""

    def test_predicate_resource_is_an_island(self):
        by_id = {c.id: c for c in builtin_corpus()}
        graph, _ = pgt(parse_turtle_star(by_id["2.1"].source))
        mentor = next(
            n for n in graph.nodes.values() if n.properties.get("iri", "").endswith("/mentor")
        )
        assert any("mentor" in e.labels for e in graph.edges.values())

        neighbours: dict = {nid: set() for nid in graph.nodes}
        for e in graph.edges.values():
            neighbours[e.source].add(e.target)
            neighbours[e.target].add(e.source)
        component, frontier = set(), {mentor.id}
        while frontier:
            component |= frontier
            frontier = {n for nid in frontier for n in neighbours[nid]} - component
        mentor_edges = {
            e.id for e in graph.edges.values() if e.source in component or e.target in component
        }
        other_nodes = set(graph.nodes) - component
        assert other_nodes, "mentor component should not swallow the whole graph"
        for e in graph.edges.values():
            if e.id not in mentor_edges:
                assert e.source in other_nodes and e.target in other_nodes


class TestObservedShape:
    def test_render(self):
        shape = Shape(2, 1, 0, 0, Status.CONVERTED)
        assert shape.render() == "2n/1e/0np/0ep Converted"

    def test_observed_matches_manual_count(self):
        source = "@prefix ex: <http://example.org/> .\nex:a ex:name \"x\" ."
        graph, report = pgt(parse_turtle_star(source))
        shape = observed_shape(graph, report)
        assert shape == Shape(1, 0, 1, 0, Status.CONVERTED)

    def test_status_severity_partial_beats_converted(self):
        source = (
            "@prefix ex: <http://example.org/> .\n"
            '<<ex:alice ex:age "25">> ex:certainty 0.5 .\n'
            "ex:a ex:p ex:b ."
        )
        graph, report = pgt(parse_turtle_star(source))
        assert observed_shape(graph, report).status is Status.PARTIAL
        assert any(e.status is Status.PARTIAL for e in report.partial)
