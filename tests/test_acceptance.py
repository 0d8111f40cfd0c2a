"""End-to-end acceptance checks.

Each test here is one observable guarantee of the package, phrased so the
pytest -v output reads as a checklist. Timings are asserted where the
guarantee includes a budget. The last check drives a real openCypher engine
and only runs when RDFSTAR2PG_CYPHER_CMD is set (see README).
"""

import json
import os
import random
import shlex
import subprocess
import time

import pytest

from rdfstar2pg.conformance import builtin_corpus, run_conformance
from rdfstar2pg.exporters import from_json, to_cypher, to_json
from rdfstar2pg.model import (
    Dataset,
    QuotedTriple,
    StatementKind,
    classify,
    isomorphic,
    serialize_statement,
    statement_units,
)
from rdfstar2pg.parser import parse_turtle_star, to_turtle_star
from rdfstar2pg.transform import (
    Approach,
    TransformConfig,
    hybrid,
    pgt,
    rpt,
    transform,
)

CORPUS = {case.id: case for case in builtin_corpus()}
APPROACHES = (rpt, pgt, hybrid)


def parse_case(case_id: str) -> Dataset:
    return parse_turtle_star(CORPUS[case_id].source)


def report_line(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def embedded_datatype_statements():
    """Independent predictor for the lossy rows: top-level statements with a
    directly embedded datatype-property triple."""
    predicted = set()
    for case in CORPUS.values():
        dataset = parse_turtle_star(case.source)
        for graph_name, st in dataset.statements():
            for side in (st.subject, st.object):
                if isinstance(side, QuotedTriple) and (
                    classify(side.statement) is StatementKind.DATATYPE_PROPERTY
                ):
                    predicted.add((case.id, serialize_statement(st)))
    return predicted


def test_criterion_1_corpus_parses_quickly():
    start = time.monotonic()
    corpus = builtin_corpus()
    units = 0
    for case in corpus:
        dataset = parse_turtle_star(case.source)
        units += len(statement_units(dataset))
    elapsed = time.monotonic() - start
    assert len(corpus) == 23
    assert units == 44
    assert elapsed < 1.0, f"parsing took {elapsed:.3f}s"
    report_line("criterion 1", f"23 cases / 44 statements parsed in {elapsed * 1000:.0f}ms")


def test_criterion_2_reference_shapes_exact():
    graph, _ = rpt(parse_case("1"))
    assert (len(graph.nodes), len(graph.edges)) == (2, 1)

    graph, _ = rpt(parse_case("3.1"))
    assert (len(graph.nodes), len(graph.edges)) == (5, 4)

    graph, _ = pgt(parse_case("3.1"))
    assert (len(graph.nodes), len(graph.edges)) == (1, 0)
    node = next(iter(graph.nodes.values()))
    semantic = {k: v for k, v in node.properties.items() if k not in ("iri",)}
    assert len(semantic) == 4

    graph, _ = rpt(parse_case("9"))
    assert len(graph.edges) == 1
    edge = next(iter(graph.edges.values()))
    assert "age" in edge.labels
    assert edge.properties["certainty"] == 1

    graph, report = pgt(parse_case("9"))
    assert (len(graph.nodes), len(graph.edges)) == (1, 0)
    node = next(iter(graph.nodes.values()))
    assert node.properties["age"] == 28
    assert len(report.partial) == 1
    report_line("criterion 2", "reference shapes for cases 1, 3.1, and 9 match exactly")


def test_criterion_3_hybrid_converts_everything():
    total = converted = 0
    for case in CORPUS.values():
        _, report = hybrid(parse_turtle_star(case.source))
        total += report.total
        converted += report.converted
        assert not report.partial, case.id
    assert total == 44
    assert converted == total
    assert converted / total == 1.0
    report_line("criterion 3", f"hybrid fraction {converted}/{total} = 1.0, no partial rows")


def test_criterion_4_pgt_partial_set_is_exactly_the_embedded_datatype_rows():
    predicted = embedded_datatype_statements()
    observed = set()
    for case in CORPUS.values():
        _, report = pgt(parse_turtle_star(case.source))
        for entry in report.partial:
            observed.add((case.id, serialize_statement(entry.statement)))
    assert observed == predicted
    assert {case_id for case_id, _ in observed} == {"9"}
    report_line(
        "criterion 4",
        f"pgt partial rows == predicted embedded-datatype rows ({sorted(observed)})",
    )


def test_criterion_5_loss_accounting():
    rpt_total = rpt_ok = 0
    pgt_total = pgt_converted = 0
    shortfall = set()
    for case in CORPUS.values():
        dataset = parse_turtle_star(case.source)
        _, r = rpt(dataset)
        rpt_total += r.total
        rpt_ok += r.converted  # converted includes converted-with-note rows
        _, p = pgt(dataset)
        pgt_total += p.total
        pgt_converted += p.converted
        for entry in p.partial:
            shortfall.add((case.id, serialize_statement(entry.statement)))
    assert rpt_ok / rpt_total == 1.0
    assert pgt_converted / pgt_total < 1.0
    assert shortfall == embedded_datatype_statements()
    report_line(
        "criterion 5",
        f"rpt {rpt_ok}/{rpt_total} converted-or-noted; pgt {pgt_converted}/{pgt_total} "
        f"with shortfall exactly the criterion-4 rows",
    )


def test_criterion_6_permutation_invariance():
    start = time.monotonic()
    checked = 0
    for case in CORPUS.values():
        dataset = parse_turtle_star(case.source)
        for fn in APPROACHES:
            baseline = to_json(fn(dataset)[0])
            for seed in range(100):
                rng = random.Random(seed)
                default = list(dataset.default)
                rng.shuffle(default)
                named_names = list(dataset.named)
                rng.shuffle(named_names)
                named = {}
                for name in named_names:
                    statements = list(dataset.named[name])
                    rng.shuffle(statements)
                    named[name] = statements
                shuffled = Dataset(default=default, named=named)
                assert to_json(fn(shuffled)[0]) == baseline, (case.id, fn.__name__, seed)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"permutation sweep took {elapsed:.1f}s"
    report_line(
        "criterion 6",
        f"{checked} shuffled runs byte-identical to baseline in {elapsed:.2f}s",
    )


def test_criterion_7_randomized_invariants_within_budget():
    import test_properties

    start = time.monotonic()
    test_properties.test_rpt_edge_bijection()
    test_properties.test_pgt_decomposition()
    test_properties.test_statements_about_predicates_stay_disconnected()
    test_properties.test_approach_agreement_without_quotes_or_literals()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"invariant sweep took {elapsed:.1f}s"
    report_line(
        "criterion 7",
        f"4 invariants x 1000 generated datasets in {elapsed:.1f}s",
    )


def test_criterion_8_round_trips():
    for case in CORPUS.values():
        dataset = parse_turtle_star(case.source)
        # parser round trip preserves isomorphism
        assert isomorphic(dataset, parse_turtle_star(to_turtle_star(dataset))), case.id
        # exporter round trip preserves the canonical form
        for fn in APPROACHES:
            graph, _ = fn(dataset)
            assert from_json(to_json(graph)).canonical_form() == graph.canonical_form(), (
                case.id,
                fn.__name__,
            )
    report_line("criterion 8", "JSON and parser round trips clean on all 23 cases")


def test_criterion_9_cypher_script_loads_into_an_engine():
    command = os.environ.get("RDFSTAR2PG_CYPHER_CMD")
    if not command:
        pytest.skip("RDFSTAR2PG_CYPHER_CMD not set; see README for the interface")
    graph, _ = hybrid(parse_case("1"))
    script = to_cypher(graph)
    payload = script + "\nMATCH (n) RETURN count(n);\nMATCH ()-[r]->() RETURN count(r);\n"
    proc = subprocess.run(
        shlex.split(command),
        input=payload.encode(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    output = proc.stdout.decode()
    numbers = [
        token
        for line in output.splitlines()
        for token in line.replace("|", " ").split()
        if token.isdigit()
    ]
    assert "2" in numbers and "1" in numbers, output
    report_line("criterion 9", "engine reports 2 nodes and 1 relationship for case 1")


def test_full_conformance_suite_passes():
    report = run_conformance()
    assert report.passed
    assert len(report.rows) == 69
    report_line("conformance", "69/69 expected shapes matched")


def test_conversion_report_fractions_by_approach():
    expected = {Approach.RPT: 1.0, Approach.PGT: 43 / 44, Approach.HYBRID: 1.0}
    for approach, want in expected.items():
        total = converted = 0
        for case in CORPUS.values():
            _, report = transform(
                parse_turtle_star(case.source), TransformConfig(approach=approach)
            )
            total += report.total
            converted += report.converted
        assert total == 44
        assert converted / total == pytest.approx(want)
    report_line("aggregates", "rpt 44/44, pgt 43/44, hybrid 44/44")
