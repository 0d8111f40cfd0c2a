import datetime
import hashlib
import itertools
import json
from decimal import Decimal

import pytest

from rdfstar2pg.conformance import builtin_corpus, case_sort_key
from rdfstar2pg.exporters import to_cypher, to_graphml, to_json
from rdfstar2pg.model import Dataset, Iri, statement_units
from rdfstar2pg.parser import parse_turtle_star
from rdfstar2pg.transform import (
    LOSS_GRAPH_NAME_DISCARDED,
    LOSS_PROPERTIES_OVER_PROPERTIES,
    NOTE_BNODE_AS_STRING,
    NOTE_EDGE_TO_EDGE,
    NOTE_INVERSE,
    NOTE_IRI_AS_STRING,
    NOTE_LONG_INTEGER,
    NOTE_MIXED_TYPES,
    NOTE_NESTED,
    NOTE_OVERWRITTEN,
    Approach,
    DatatypePolicy,
    ListPolicy,
    NamedGraphPolicy,
    RdfTypePolicy,
    Status,
    TransformConfig,
    hybrid,
    literal_value,
    pgt,
    rpt,
    transform,
)

EX = "@prefix ex: <http://example.org/> .\n"
XSD = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
RDF = "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"


def ds(source: str) -> Dataset:
    return parse_turtle_star(source)


def node_by_iri(graph, iri: str):
    for node in graph.nodes.values():
        if node.properties.get("iri") == iri:
            return node
    raise AssertionError(f"no node for {iri}")


def the_edge(graph):
    assert len(graph.edges) == 1
    return next(iter(graph.edges.values()))


class TestLiteralValue:
    def cases(self):
        return parse_turtle_star(
            EX
            + XSD
            + 'ex:a ex:p "plain" .\n'
            + "ex:a ex:q 42 .\n"
            + 'ex:a ex:r "0.50"^^xsd:decimal .\n'
            + 'ex:a ex:s "true"^^xsd:boolean .\n'
            + 'ex:a ex:t "1963-03-22"^^xsd:date .\n'
        )

    def test_xsd_mapping(self):
        from rdfstar2pg.model import local_name

        lits = {local_name(st.predicate): st.object for st in self.cases().default}
        assert literal_value(lits["p"]) == "plain"
        assert literal_value(lits["q"]) == 42
        assert literal_value(lits["r"]) == Decimal("0.50")
        assert literal_value(lits["s"]) is True
        assert literal_value(lits["t"]) == datetime.date(1963, 3, 22)

    def test_bad_lexical_falls_back_to_string(self):
        st = parse_turtle_star(EX + XSD + 'ex:a ex:p "not a date"^^xsd:date .').default[0]
        assert literal_value(st.object) == "not a date"

    def test_language_tagged_stays_string(self):
        st = parse_turtle_star(EX + 'ex:a ex:p "Bog"@da .').default[0]
        assert literal_value(st.object) == "Bog"

    @staticmethod
    def value_of(literal: str):
        return literal_value(parse_turtle_star(EX + XSD + f"ex:a ex:p {literal} .").default[0].object)

    @pytest.mark.parametrize("text,expected", [("false", False), ("0", False), ("yes", "yes")])
    def test_boolean(self, text, expected):
        value = self.value_of(f'"{text}"^^xsd:boolean')
        assert type(value) is type(expected) and value == expected

    # Python's readers take each of these; XSD's lexical spaces do not, so
    # each keeps its text, the same on every CPython
    @pytest.mark.parametrize(
        "text,datatype",
        [
            ("1_000", "integer"),
            (" 12 ", "integer"),
            ("١٢", "integer"),
            ("1_000.5", "decimal"),
            (" 1.5", "double"),
            ("١.٥", "decimal"),
            ("2020-W01-1", "date"),
            ("20200101", "date"),
        ],
        ids=["underscore", "spaces", "arabic-indic", "decimal-underscore", "double-space",
             "decimal-arabic-indic", "iso-week-date", "basic-date"],
    )
    def test_lax_form_keeps_its_text(self, text, datatype):
        value = self.value_of(f'"{text}"^^xsd:{datatype}')
        assert type(value) is str and value == text


class TestLongIntegers:
    """int() refuses more than 4,300 digits by default; such an integer is
    kept as its text, and the report says so."""

    BIG = "9" * 5000

    @pytest.mark.parametrize("fn", [pgt, hybrid, rpt])
    def test_too_long_for_int_is_noted(self, fn):
        graph, report = fn(ds(EX + f"ex:a ex:big {self.BIG} ."))
        values = [p for n in graph.nodes.values() for k, p in n.properties.items() if k in ("big", "value")]
        assert values == [self.BIG]
        assert [entry.notes for entry in report.notes] == [[NOTE_LONG_INTEGER]]
        assert not report.lossy

    @pytest.mark.parametrize("fn", [pgt, hybrid])
    def test_quoted_too_long_for_int_is_noted(self, fn):
        _, report = fn(ds(EX + f"<<ex:a ex:big -{self.BIG}>> ex:source ex:b ."))
        (entry,) = report.notes + report.partial
        assert NOTE_LONG_INTEGER in entry.notes

    @pytest.mark.parametrize("fn", [pgt, hybrid])
    @pytest.mark.parametrize(
        "literal", ["9" * 4300, f'"{BIG}x"^^xsd:integer', f'"{BIG}"', f"( {'9' * 4300} )"]
    )
    def test_read_or_not_an_integer_is_not_noted(self, fn, literal):
        _, report = fn(ds(EX + XSD + f"ex:a ex:big {literal} ."))
        assert report.notes == []

    # An rdf:first statement has no unit of its own; a unit that names a
    # cell of the collection carries the note, whether or not the chain
    # collapses, and however long the walk back from the integer to the head.
    @pytest.mark.parametrize("fn", [pgt, hybrid, rpt])
    @pytest.mark.parametrize("policy", list(ListPolicy))
    @pytest.mark.parametrize(
        "items",
        [BIG, f"1 {BIG}", f"( {BIG} )", "1 " * 19_999 + BIG],
        ids=["alone", "beside-an-int", "nested", "last-of-20000"],
    )
    def test_in_a_collection_is_noted_on_the_head(self, fn, policy, items):
        graph, report = fn(ds(EX + f"ex:a ex:tags ( {items} ) ."), TransformConfig(list_policy=policy))
        collapses = policy is ListPolicy.COLLAPSE_LITERALS and fn is not rpt and items == self.BIG
        assert (not graph.edges) is collapses
        (entry,) = report.notes
        assert entry.statement.predicate == Iri("http://example.org/tags")
        assert entry.notes == [NOTE_LONG_INTEGER]
        assert report.total == 1 and not report.lossy

    LIST = f" _:l rdf:first {BIG} ; rdf:rest rdf:nil ."
    LONG = NOTE_LONG_INTEGER

    # (source, notes of each noted unit in report order): the note comes
    # first, on a unit that names a long cell or quotes the integer at any
    # depth; each star statement quoted inside another is a unit too
    @pytest.mark.parametrize("fn", [rpt, pgt, hybrid], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("policy", list(ListPolicy))
    @pytest.mark.parametrize(
        "source, notes",
        [
            (f"<<ex:a ex:b ex:c>> ex:p ( {BIG} ) .", [[LONG, NOTE_BNODE_AS_STRING]]),
            (f"( {BIG} ) ex:p ex:o .", [[LONG]]),
            ("<<ex:a ex:p _:l>> ex:q ex:r ." + LIST, [[LONG, NOTE_IRI_AS_STRING]]),
            (
                "<< <<ex:a ex:b ex:c>> ex:p _:l >> ex:q ex:r ." + LIST,
                [[LONG, NOTE_NESTED, NOTE_IRI_AS_STRING], [LONG, NOTE_NESTED, NOTE_BNODE_AS_STRING]],
            ),
            (
                f"<< <<ex:a ex:big {BIG}>> ex:p ex:b >> ex:q ex:c .",
                [[LONG, NOTE_NESTED, NOTE_IRI_AS_STRING]] * 2,
            ),
            (
                f"ex:c ex:q << ex:d ex:p << <<ex:a ex:big {BIG}>> ex:r ex:b >> >> .",
                [[LONG, NOTE_NESTED, NOTE_INVERSE, NOTE_IRI_AS_STRING]] * 2
                + [[LONG, NOTE_NESTED, NOTE_IRI_AS_STRING]],
            ),
        ],
        ids=[
            "star-subject-list-object", "cell-as-subject", "list-only-quoted", "nested-unit-heads-list",
            "quoted-two-deep", "quoted-three-deep",
        ],
    )
    def test_a_unit_naming_a_long_cell_is_noted(self, fn, policy, source, notes):
        _, report = fn(ds(EX + RDF + source), TransformConfig(list_policy=policy))
        assert [entry.notes for entry in report.notes] == notes
        assert report.total == len(notes) and not report.lossy

    @pytest.mark.parametrize("fn", [rpt, pgt, hybrid], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("policy", list(NamedGraphPolicy))
    def test_only_the_graph_holding_it_is_noted(self, fn, policy):
        # _:l is one node in every graph, but only ex:g1 links it to the integer
        source = (
            f"ex:a ex:p _:l . ex:g1 {{ ex:a ex:p _:l . {self.LIST} }}"
            " ex:g2 { ex:a ex:p _:l . ex:a ex:q 5 . }"
        )
        _, report = fn(ds(EX + RDF + source), TransformConfig(named_graph_policy=policy))
        noted = [entry.graph for entry in report.notes + report.partial if self.LONG in entry.notes]
        assert noted == [Iri("http://example.org/g1")] and report.total == 4


class TestApproachShapes:
    SOURCE = EX + "ex:alice ex:meets ex:bob ."

    def test_rpt_materializes_everything(self):
        graph, report = rpt(ds(self.SOURCE))
        assert len(graph.nodes) == 2 and len(graph.edges) == 1
        edge = the_edge(graph)
        assert edge.labels == {"meets", "ObjectProperty"}
        assert report.converted_fraction == 1.0

    def test_pgt_object_property_is_edge_without_kind_label(self):
        graph, _ = pgt(ds(self.SOURCE))
        assert the_edge(graph).labels == {"meets"}

    def test_rpt_literal_becomes_node(self):
        graph, _ = rpt(ds(EX + 'ex:alice ex:age "25" .'))
        assert len(graph.nodes) == 2 and len(graph.edges) == 1
        literal_node = next(n for n in graph.nodes.values() if "Literal" in n.labels)
        assert literal_node.properties["value"] == "25"
        assert literal_node.properties["datatype"].endswith("#string")

    def test_pgt_literal_becomes_property(self):
        graph, _ = pgt(ds(EX + 'ex:alice ex:age "25" .'))
        assert len(graph.nodes) == 1 and len(graph.edges) == 0
        assert node_by_iri(graph, "http://example.org/alice").properties["age"] == "25"

    def test_hybrid_defaults_match_pgt_for_plain_data(self):
        g1, _ = hybrid(ds(self.SOURCE))
        g2, _ = pgt(ds(self.SOURCE))
        assert g1.canonical_form() == g2.canonical_form()

    def test_hybrid_datatype_as_edge_override(self):
        cfg = TransformConfig(datatype_policy=DatatypePolicy.AS_EDGE)
        graph, _ = hybrid(ds(EX + 'ex:alice ex:age "25" .'), cfg)
        assert len(graph.nodes) == 2 and len(graph.edges) == 1

    def test_bnode_nodes(self):
        graph, _ = pgt(ds(EX + "ex:a ex:p _:x .\n_:x ex:q ex:b ."))
        bnode = next(n for n in graph.nodes.values() if "bnode" in n.properties)
        assert bnode.properties["bnode"] == "b0"
        assert len(graph.edges) == 2


class TestRdfType:
    SOURCE = EX + "ex:alice a ex:Artist ."

    def test_pgt_default_label(self):
        graph, _ = pgt(ds(self.SOURCE))
        assert len(graph.nodes) == 1 and len(graph.edges) == 0
        assert node_by_iri(graph, "http://example.org/alice").labels == {"Resource", "Artist"}

    def test_rpt_default_edge(self):
        graph, _ = rpt(ds(self.SOURCE))
        assert len(graph.nodes) == 2 and len(graph.edges) == 1
        assert "type" in the_edge(graph).labels

    def test_explicit_label_policy_for_rpt(self):
        cfg = TransformConfig(rdf_type_policy=RdfTypePolicy.AS_LABEL)
        graph, _ = rpt(ds(self.SOURCE), cfg)
        assert len(graph.nodes) == 1
        assert node_by_iri(graph, "http://example.org/alice").labels == {"Resource", "Artist"}

    def test_explicit_edge_policy_for_pgt(self):
        cfg = TransformConfig(rdf_type_policy=RdfTypePolicy.AS_EDGE)
        graph, _ = pgt(ds(self.SOURCE), cfg)
        assert len(graph.nodes) == 2 and len(graph.edges) == 1

    def test_bnode_class_falls_back_to_edge(self):
        graph, _ = pgt(ds(EX + "ex:alice a _:cls ."))
        assert len(graph.nodes) == 2 and len(graph.edges) == 1

    def test_quoted_type_statement_is_not_a_label(self):
        # rdf:type inside a quoted triple keeps its statement character
        graph, _ = pgt(ds(EX + "<<ex:alice a ex:Artist>> ex:certainty 0.5 ."))
        edge = the_edge(graph)
        assert "type" in edge.labels
        assert edge.properties["certainty"] == Decimal("0.5")


class TestStarStatements:
    def test_star_subject_datatype_pair_pgt(self):
        graph, _ = pgt(ds(EX + "<<ex:alice ex:likes ex:bob>> ex:certainty 0.5 ."))
        edge = the_edge(graph)
        assert edge.labels == {"likes"}
        assert edge.properties["certainty"] == Decimal("0.5")

    def test_star_subject_iri_pair_noted(self):
        graph, report = pgt(ds(EX + "<<ex:alice ex:likes ex:bob>> ex:source ex:web ."))
        edge = the_edge(graph)
        assert edge.properties["source"] == "http://example.org/web"
        (entry,) = report.notes
        assert NOTE_IRI_AS_STRING in entry.notes
        assert entry.status is Status.CONVERTED

    def test_star_subject_bnode_pair_noted(self):
        graph, report = pgt(ds(EX + "<<ex:alice ex:likes ex:bob>> ex:seenBy _:w ."))
        edge = the_edge(graph)
        assert edge.properties["seenBy"] == "_:b0"
        (entry,) = report.notes
        assert NOTE_BNODE_AS_STRING in entry.notes

    def test_star_object_inverse(self):
        source = EX + "ex:bobhomepage ex:source <<ex:monica ex:worksAt ex:acme>> ."
        graph, report = pgt(ds(source))
        edge = the_edge(graph)
        assert edge.properties["inv:source"] == "http://example.org/bobhomepage"
        homepage = node_by_iri(graph, "http://example.org/bobhomepage")
        assert homepage.properties["source"] == edge.id
        (entry,) = report.notes
        assert NOTE_INVERSE in entry.notes

    def test_star_both_edge_to_edge(self):
        source = EX + "<<ex:a ex:p ex:b>> ex:implies <<ex:c ex:q ex:d>> ."
        graph, report = pgt(ds(source))
        assert len(graph.edges) == 2
        by_label = {next(iter(e.labels)): e for e in graph.edges.values()}
        assert by_label["p"].properties["implies"] == by_label["q"].id
        assert by_label["q"].properties["inv:implies"] == by_label["p"].id
        (entry,) = report.notes
        assert NOTE_EDGE_TO_EDGE in entry.notes

    def test_nested_star_dotted_key(self):
        source = EX + '<<<<ex:S ex:position "CEO">> ex:mentionedBy ex:book>> ex:source ex:journal .'
        graph, _ = pgt(ds(source))
        edge = the_edge(graph)
        assert edge.properties["mentionedBy"] == "http://example.org/book"
        assert edge.properties["mentionedBy.source"] == "http://example.org/journal"

    def test_nested_source_counts_two_units(self):
        source = EX + '<<<<ex:S ex:position "CEO">> ex:mentionedBy ex:book>> ex:source ex:journal .'
        dataset = ds(source)
        assert len(statement_units(dataset)) == 2
        _, report = pgt(dataset)
        assert report.total == 2

    def test_asserted_and_quoted_share_one_edge(self):
        source = EX + "ex:alice ex:likes ex:bob .\n<<ex:alice ex:likes ex:bob>> ex:certainty 0.5 ."
        graph, report = pgt(ds(source))
        assert len(graph.edges) == 1
        assert the_edge(graph).properties["certainty"] == Decimal("0.5")
        assert report.total == 2 and report.converted == 2


CONVERTED, PARTIAL = Status.CONVERTED, Status.PARTIAL
IRI, BNODE = NOTE_IRI_AS_STRING, NOTE_BNODE_AS_STRING
INV, E2E, NESTED = NOTE_INVERSE, NOTE_EDGE_TO_EDGE, NOTE_NESTED
LOSS = LOSS_PROPERTIES_OVER_PROPERTIES
DROP = '<<ex:a ex:age "25">>'
DEPTH2 = "<< <<ex:a ex:p ex:b>> ex:q ex:c >>"
LAST_WINS = "<<ex:a ex:q ex:b>> ex:r "
OVERWRITTEN = NOTE_OVERWRITTEN
# (source, expected): expected is a list of (status, reason, notes), one per
# unit in statement_units order, shared by every approach, or a dict from an
# approach name ("*" for the others) to such a list.
STAR_REPORT_TABLE = [
    # StarSubject
    ("<<ex:a ex:p ex:b>> ex:q ex:c .", [(CONVERTED, "", [IRI])]),
    ("<<ex:a ex:p ex:b>> ex:q _:w .", [(CONVERTED, "", [BNODE])]),
    ('<<ex:a ex:p ex:b>> ex:q "v" .', [(CONVERTED, "", [])]),
    (DEPTH2 + " ex:r ex:d .", [(CONVERTED, "", [NESTED, IRI]), (CONVERTED, "", [NESTED, IRI])]),
    # StarObject
    ("ex:s ex:q <<ex:a ex:p ex:b>> .", [(CONVERTED, "", [INV, IRI])]),
    ("_:w ex:q <<ex:a ex:p ex:b>> .", [(CONVERTED, "", [INV, BNODE])]),
    ("ex:s ex:r " + DEPTH2 + " .", [(CONVERTED, "", [NESTED, INV, IRI]), (CONVERTED, "", [NESTED, IRI])]),
    # StarBoth
    ("<<ex:a ex:p ex:b>> ex:q <<ex:c ex:p ex:d>> .", [(CONVERTED, "", [E2E])]),
    (DEPTH2 + " ex:r <<ex:d ex:p ex:e>> .", [(CONVERTED, "", [NESTED, E2E]), (CONVERTED, "", [NESTED, IRI])]),
    ("<<ex:d ex:p ex:e>> ex:r " + DEPTH2 + " .", [(CONVERTED, "", [E2E]), (CONVERTED, "", [NESTED, IRI])]),
    # both edge keys of the first unit lose to later values: one note all the same
    (
        "<<ex:a ex:p ex:b>> ex:q <<ex:c ex:r ex:d>> .\n<<ex:a ex:p ex:b>> ex:q <<ex:e ex:r ex:f>> .\n"
        "<<ex:x ex:y ex:z>> ex:q <<ex:c ex:r ex:d>> .",
        [(CONVERTED, "", [E2E, OVERWRITTEN]), (CONVERTED, "", [E2E]), (CONVERTED, "", [E2E])],
    ),
    # depth-3 chain: every unit is nested or has a dotted key
    (
        "<< " + DEPTH2 + " ex:r ex:d >> ex:s ex:e .",
        [(CONVERTED, "", [NESTED, IRI])] * 3,
    ),
    # pgt drop rule, alone and with the other side quoted
    (DROP + " ex:certainty 0.5 .", {"pgt": [(PARTIAL, LOSS, [])], "*": [(CONVERTED, "", [])]}),
    (
        DROP + " ex:implies <<ex:b ex:p ex:c>> .",
        {"pgt": [(PARTIAL, LOSS, [])], "*": [(CONVERTED, "", [E2E])]},
    ),
    (
        DROP + " ex:implies " + DEPTH2 + " .",
        {
            "pgt": [(PARTIAL, LOSS, []), (CONVERTED, "", [NESTED, IRI])],
            "*": [(CONVERTED, "", [E2E]), (CONVERTED, "", [NESTED, IRI])],
        },
    ),
    (
        DEPTH2 + " ex:implies " + DROP + " .",
        {
            "pgt": [(PARTIAL, LOSS, []), (CONVERTED, "", [NESTED, IRI])],
            "*": [(CONVERTED, "", [NESTED, E2E]), (CONVERTED, "", [NESTED, IRI])],
        },
    ),
    # ... and one fact both asserted and quoted, or quoted on both sides
    (
        'ex:a ex:age "25" .\n' + DROP + " ex:certainty 0.5 .",
        {"pgt": [(CONVERTED, "", []), (PARTIAL, LOSS, [])], "*": [(CONVERTED, "", [])] * 2},
    ),
    (DROP + " ex:same " + DROP + " .", {"pgt": [(PARTIAL, LOSS, [])], "*": [(CONVERTED, "", [E2E])]}),
    # last-wins on one edge key notes a value of another kind or canonical
    # text, and only such a value
    (
        LAST_WINS + '"sNaN"^^xsd:decimal .\n' + LAST_WINS + '"1"^^xsd:decimal .',
        [(CONVERTED, "", []), (CONVERTED, "", [OVERWRITTEN])],
    ),
    (
        LAST_WINS + '"true"^^xsd:boolean .\n' + LAST_WINS + "1 .",
        [(CONVERTED, "", []), (CONVERTED, "", [OVERWRITTEN])],
    ),
    (
        LAST_WINS + '"1.0"^^xsd:decimal .\n' + LAST_WINS + '"1.00"^^xsd:decimal .',
        [(CONVERTED, "", [OVERWRITTEN]), (CONVERTED, "", [])],
    ),
    (LAST_WINS + '"NaN"^^xsd:decimal .\n' + LAST_WINS + '"sNaN"^^xsd:decimal .', [(CONVERTED, "", [])] * 2),
    (LAST_WINS + '"1"^^xsd:integer .\n' + LAST_WINS + '"01"^^xsd:integer .', [(CONVERTED, "", [])] * 2),
    # one unit overwritten on an edge and merged on a node: last-wins is noted first
    (
        "ex:s1 ex:p <<ex:a ex:b ex:c>> .\nex:s2 ex:p <<ex:a ex:b ex:c>> .\nex:s1 ex:p 5 .",
        {
            "rpt": [(CONVERTED, "", [INV, IRI, OVERWRITTEN]), (CONVERTED, "", [INV, IRI]), (CONVERTED, "", [])],
            "*": [
                (CONVERTED, "", [INV, IRI, OVERWRITTEN, NOTE_MIXED_TYPES]),
                (CONVERTED, "", [INV, IRI]),
                (CONVERTED, "", [NOTE_MIXED_TYPES]),
            ],
        },
    ),
]


def unit_rows(dataset, report) -> list:
    """(status, reason, notes) for every accounting unit, in statement_units order."""
    listed: dict = {}
    for entry in report.partial + report.ignored + report.errors + report.notes:
        listed.setdefault((entry.graph, entry.statement), []).append(entry)
    rows = []
    for unit in statement_units(dataset):
        entries = listed.get(unit)
        if entries:
            entry = entries.pop(0)
            rows.append((entry.status, entry.reason, list(entry.notes)))
        else:
            rows.append((CONVERTED, "", []))
    return rows


@pytest.mark.parametrize("fn", [rpt, pgt, hybrid], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("source, expected", STAR_REPORT_TABLE, ids=[s for s, _ in STAR_REPORT_TABLE])
def test_star_report_table(fn, source, expected):
    if isinstance(expected, dict):
        expected = expected.get(fn.__name__, expected["*"])
    dataset = ds(EX + XSD + source)
    _, report = fn(dataset)
    assert report.total == len(expected)
    assert unit_rows(dataset, report) == expected


class TestPgtDropRule:
    SOURCE = EX + '<<ex:alice ex:age "25">> ex:certainty 0.5 .'

    def test_pgt_moves_pair_onto_subject_node(self):
        graph, report = pgt(ds(self.SOURCE))
        assert len(graph.nodes) == 1 and len(graph.edges) == 0
        alice = node_by_iri(graph, "http://example.org/alice")
        assert alice.properties["age"] == "25"
        assert "certainty" not in alice.properties
        (entry,) = report.partial
        assert entry.status is Status.PARTIAL
        assert entry.reason == LOSS_PROPERTIES_OVER_PROPERTIES

    @pytest.mark.parametrize(
        "source",
        [
            'ex:alice ex:age "25" .\n<<ex:alice ex:age "25">> ex:certainty 0.5 .',
            '<<ex:alice ex:age "25">> ex:same <<ex:alice ex:age "25">> .',
        ],
    )
    def test_one_fact_is_staged_once(self, source):
        graph, _ = pgt(ds(EX + source))
        assert node_by_iri(graph, "http://example.org/alice").properties["age"] == "25"

    def test_rpt_keeps_both(self):
        graph, report = rpt(ds(self.SOURCE))
        assert len(graph.edges) == 1
        assert the_edge(graph).properties["certainty"] == Decimal("0.5")
        assert not report.partial

    def test_hybrid_keeps_both_via_literal_node(self):
        graph, report = hybrid(ds(self.SOURCE))
        assert len(graph.edges) == 1
        assert the_edge(graph).properties["certainty"] == Decimal("0.5")
        assert not report.partial

    def test_drop_rule_only_hits_direct_datatype_embeddings(self):
        nested = EX + '<<<<ex:S ex:position "CEO">> ex:mentionedBy ex:book>> ex:source ex:journal .'
        _, report = pgt(ds(nested))
        assert not report.partial


class TestMultiValuePolicies:
    MULTI = EX + 'ex:dp ex:subject "Info_Page" .\nex:dp ex:subject "aau_page" .'

    def test_list_merge_default(self):
        graph, _ = pgt(ds(self.MULTI))
        node = node_by_iri(graph, "http://example.org/dp")
        assert node.properties["subject"] == ["Info_Page", "aau_page"]

    def test_mixed_types_merge_as_strings(self):
        source = EX + 'ex:a ex:val "x" .\nex:a ex:val 3 .'
        graph, report = pgt(ds(source))
        node = node_by_iri(graph, "http://example.org/a")
        assert node.properties["val"] == ["3", "x"]
        assert any(NOTE_MIXED_TYPES in e.notes for e in report.notes)

    def test_edge_props_default_last_wins(self):
        source = (
            EX
            + "<<ex:a ex:likes ex:b>> ex:certainty 0.5 .\n"
            + "<<ex:a ex:likes ex:b>> ex:certainty 1 ."
        )
        graph, report = pgt(ds(source))
        assert the_edge(graph).properties["certainty"] == 1
        losers = [e for e in report.notes if NOTE_OVERWRITTEN in e.notes]
        assert len(losers) == 1
        assert "0.5" in str(losers[0].statement)

    def test_canonical_order_decides_winner_not_document_order(self):
        forward = (
            EX
            + "<<ex:a ex:likes ex:b>> ex:certainty 0.5 .\n"
            + "<<ex:a ex:likes ex:b>> ex:certainty 1 ."
        )
        backward = (
            EX
            + "<<ex:a ex:likes ex:b>> ex:certainty 1 .\n"
            + "<<ex:a ex:likes ex:b>> ex:certainty 0.5 ."
        )
        g1, _ = pgt(ds(forward))
        g2, _ = pgt(ds(backward))
        assert g1.canonical_form() == g2.canonical_form()
        assert the_edge(g1).properties["certainty"] == 1


@pytest.mark.parametrize("approach", ["rpt", "pgt", "hybrid"])
def test_signalling_nan_overwrite_converts(tmp_path, approach):
    from rdfstar2pg.cli import main

    path = tmp_path / "snan.ttls"
    path.write_text(EX + XSD + LAST_WINS + '"sNaN"^^xsd:decimal .\n' + LAST_WINS + '"1"^^xsd:decimal .\n')
    report_path = tmp_path / "report.json"
    args = ["convert", str(path), "--approach", approach, "--output", str(tmp_path / "out.json")]
    assert main([*args, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    (loser,) = report["notes"]
    assert NOTE_OVERWRITTEN in loser["notes"]


class TestNamedGraphs:
    SOURCE = (
        EX
        + 'ex:Graph1 { ex:monica ex:name "Monica" . ex:monica a ex:Person . }\n'
        + "ex:Graph2 { ex:monica a ex:Person . }"
    )

    def test_edge_property_policy_default(self):
        cfg = TransformConfig(rdf_type_policy=RdfTypePolicy.AS_EDGE)
        graph, report = pgt(ds(self.SOURCE), cfg)
        monica = node_by_iri(graph, "http://example.org/monica")
        assert monica.properties["name"] == "Monica"
        assert monica.properties["name.graph"] == "http://example.org/Graph1"
        graphs = sorted(e.properties["graph"] for e in graph.edges.values())
        assert graphs == ["http://example.org/Graph1", "http://example.org/Graph2"]
        # same statement in two graphs stays two edges under edge-property policy
        assert len(graph.edges) == 2
        assert not report.partial

    def test_label_conversion_gets_graph_companion(self):
        graph, _ = pgt(ds(self.SOURCE))
        monica = node_by_iri(graph, "http://example.org/monica")
        assert "Person" in monica.labels
        assert sorted(monica.properties["Person.graph"]) == [
            "http://example.org/Graph1",
            "http://example.org/Graph2",
        ]

    def test_merge_policy_discards_graph_names_with_partial(self):
        cfg = TransformConfig(named_graph_policy=NamedGraphPolicy.MERGE)
        graph, report = pgt(ds(self.SOURCE), cfg)
        monica = node_by_iri(graph, "http://example.org/monica")
        assert "name.graph" not in monica.properties
        assert all(e.reason == LOSS_GRAPH_NAME_DISCARDED for e in report.partial)
        assert len(report.partial) == report.total == 3

    def test_partition_policy_keeps_graphs_apart(self):
        cfg = TransformConfig(named_graph_policy=NamedGraphPolicy.PARTITION)
        source = EX + "ex:g1 { ex:a ex:p ex:b . }\nex:g2 { ex:a ex:p ex:b . }"
        graph, report = pgt(ds(source), cfg)
        assert len(graph.nodes) == 4 and len(graph.edges) == 2
        assert not report.partial

    def test_default_graph_untouched_by_policy(self):
        source = EX + "ex:a ex:p ex:b ."
        for policy in NamedGraphPolicy:
            cfg = TransformConfig(named_graph_policy=policy)
            graph, report = pgt(ds(source), cfg)
            assert len(graph.edges) == 1
            assert "graph" not in the_edge(graph).properties
            assert not report.partial


class TestLists:
    WELL_FORMED = EX + 'ex:L ex:contents ("one" "two" "three") .'

    def test_expand_default(self):
        graph, _ = pgt(ds(self.WELL_FORMED))
        # chain edges stay visible: contents + 2 rest hops + 3 first hops... as edges/props
        assert len(graph.nodes) >= 4

    def test_expand_counts_chain_as_one_unit(self):
        dataset = ds(self.WELL_FORMED)
        _, report = pgt(dataset)
        assert report.total == 1

    def test_collapse_literals(self):
        cfg = TransformConfig(list_policy=ListPolicy.COLLAPSE_LITERALS)
        graph, report = pgt(ds(self.WELL_FORMED), cfg)
        assert len(graph.nodes) == 1 and len(graph.edges) == 0
        node = node_by_iri(graph, "http://example.org/L")
        assert node.properties["contents"] == ["one", "two", "three"]
        assert report.total == 1 and report.converted == 1

    def test_collapse_preserves_list_order_not_sorted(self):
        cfg = TransformConfig(list_policy=ListPolicy.COLLAPSE_LITERALS)
        graph, _ = pgt(ds(EX + 'ex:L ex:contents ("zebra" "apple") .'), cfg)
        node = node_by_iri(graph, "http://example.org/L")
        assert node.properties["contents"] == ["zebra", "apple"]

    def test_collapse_ignored_for_rpt(self):
        cfg = TransformConfig(list_policy=ListPolicy.COLLAPSE_LITERALS)
        graph, _ = rpt(ds(self.WELL_FORMED), cfg)
        assert len(graph.edges) > 1

    def test_non_literal_member_falls_back_to_expand(self):
        cfg = TransformConfig(list_policy=ListPolicy.COLLAPSE_LITERALS)
        graph, _ = pgt(ds(EX + 'ex:L ex:contents ("one" ex:two) .'), cfg)
        assert len(graph.edges) >= 1

    def test_shared_cell_falls_back_to_expand(self):
        rdf = "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        source = (
            EX
            + rdf
            + 'ex:L ex:contents _:c1 .\n_:c1 rdf:first "one" .\n_:c1 rdf:rest rdf:nil .\n'
            + "ex:M ex:contents _:c1 ."
        )
        cfg = TransformConfig(list_policy=ListPolicy.COLLAPSE_LITERALS)
        graph, _ = pgt(ds(source), cfg)
        cell = next(n for n in graph.nodes.values() if n.properties.get("bnode") == "b0")
        assert cell is not None
        assert len(graph.edges) >= 2

    def test_mixed_element_types_fall_back(self):
        cfg = TransformConfig(list_policy=ListPolicy.COLLAPSE_LITERALS)
        graph, _ = pgt(ds(EX + 'ex:L ex:contents ("one" 2) .'), cfg)
        assert len(graph.edges) >= 1

    @pytest.mark.parametrize("approach", list(Approach))
    def test_cell_named_in_a_quoted_triple_stays_expanded(self, approach):
        # the quoted statement's edge starts at the cell, so the cell keeps its node
        rdf = "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        dataset = ds(
            EX + rdf + "_:l rdf:first 1 ; rdf:rest rdf:nil . ex:s ex:p _:l . <<_:l ex:q ex:r>> ex:t ex:u ."
        )
        outputs = []
        for policy in (ListPolicy.EXPAND, ListPolicy.COLLAPSE_LITERALS):
            graph, report = transform(dataset, TransformConfig(approach=approach, list_policy=policy))
            outputs.append((to_json(graph), report.to_dict()))
        assert outputs[0] == outputs[1]

    CHAIN = "ex:s ex:p _:l . _:l rdf:first 1 ; rdf:rest "
    FOURTH_MENTION = {
        "second_first": CHAIN + "rdf:nil . _:l rdf:first 2 .",
        # either rest the walk follows ends in a well-formed chain
        "second_rest": CHAIN + "rdf:nil , _:m . _:m rdf:first 2 ; rdf:rest rdf:nil .",
        "loop": CHAIN + "_:m . _:m rdf:first 2 ; rdf:rest _:l .",
    }

    @pytest.mark.parametrize("approach", [Approach.PGT, Approach.HYBRID])
    @pytest.mark.parametrize("source", FOURTH_MENTION.values(), ids=FOURTH_MENTION.keys())
    def test_cell_with_a_fourth_mention_stays_expanded(self, approach, source):
        # a well-formed cell is named three times: chain target, first subject, rest subject
        rdf = "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"

        def outputs(source):
            dataset = ds(EX + rdf + source)
            return [
                (to_json(graph), report.to_dict())
                for graph, report in (
                    transform(dataset, TransformConfig(approach=approach, list_policy=policy)) for policy in ListPolicy
                )
            ]

        expanded, collapsed = outputs(self.CHAIN + "rdf:nil .")
        assert expanded != collapsed  # the well-formed chain collapses
        expanded, collapsed = outputs(source)
        assert expanded == collapsed

    def test_lookalike_first_rest_nil_not_collapsed(self):
        # only rdf:first / rdf:rest / rdf:nil make a list, not any IRI ending in #first
        source = (
            EX
            + "@prefix o: <http://other.org/ns#> .\n"
            + 'ex:s ex:list _:c . _:c o:first "1" . _:c o:rest <http://x.org/#nil> .'
        )
        cfg = TransformConfig(list_policy=ListPolicy.COLLAPSE_LITERALS)
        graph, report = pgt(ds(source), cfg)
        assert "list" not in node_by_iri(graph, "http://example.org/s").properties
        assert len(graph.edges) == 2
        assert report.total == 3 and report.converted == 3


class TestReservedKeyCollisions:
    def test_predicate_named_graph_gets_renamed(self):
        graph, _ = pgt(ds(EX + 'ex:a ex:graph "g" .'))
        node = node_by_iri(graph, "http://example.org/a")
        assert node.properties["p_graph"] == "g"
        assert "graph" not in node.properties

    def test_predicate_named_id_gets_renamed(self):
        graph, _ = pgt(ds(EX + 'ex:a ex:id "7" .'))
        node = node_by_iri(graph, "http://example.org/a")
        assert node.properties["p_id"] == "7"

    def test_predicate_named_labels_gets_renamed(self):
        graph, _ = pgt(ds(EX + 'ex:a ex:labels "x" .'))
        node = node_by_iri(graph, "http://example.org/a")
        assert node.properties["p_labels"] == "x"
        assert "labels" not in node.properties

    def test_unreserved_keys_untouched(self):
        graph, _ = pgt(ds(EX + 'ex:a ex:name "x" .'))
        assert node_by_iri(graph, "http://example.org/a").properties["name"] == "x"


class TestReportAlgebra:
    def test_unit_count_matches_model(self):
        source = (
            EX
            + "ex:a ex:p ex:b .\n"
            + 'ex:a ex:q "1" .\n'
            + "<<ex:a ex:p ex:b>> ex:certainty 0.5 .\n"
            + 'ex:L ex:contents ("one" "two") .'
        )
        dataset = ds(source)
        for fn in (rpt, pgt, hybrid):
            _, report = fn(dataset)
            assert report.total == len(statement_units(dataset))

    def test_counts_are_a_partition(self):
        _, report = pgt(ds(EX + '<<ex:alice ex:age "25">> ex:certainty 0.5 .\nex:a ex:p ex:b .'))
        assert report.converted + len(report.partial) + len(report.ignored) + len(
            report.errors
        ) == report.total

    def test_lossy_flag(self):
        _, clean = pgt(ds(EX + "ex:a ex:p ex:b ."))
        assert not clean.lossy
        _, lossy = pgt(ds(EX + '<<ex:alice ex:age "25">> ex:certainty 0.5 .'))
        assert lossy.lossy

    def test_to_dict_round_trips_to_json(self):
        import json

        _, report = pgt(ds(EX + '<<ex:alice ex:age "25">> ex:certainty 0.5 .'))
        blob = json.dumps(report.to_dict())
        data = json.loads(blob)
        assert data["total"] == 1
        assert data["partial"][0]["reason"] == LOSS_PROPERTIES_OVER_PROPERTIES

    def test_empty_dataset(self):
        graph, report = pgt(Dataset())
        assert not graph.nodes and not graph.edges
        assert report.total == 0 and report.converted_fraction == 1.0 and not report.lossy


class TestDeterminism:
    def test_transform_accepts_explicit_config(self):
        cfg = TransformConfig(approach=Approach.RPT)
        graph, _ = transform(ds(EX + "ex:a ex:p ex:b ."), cfg)
        assert the_edge(graph).labels == {"p", "ObjectProperty"}

    def test_graph_block_order_is_irrelevant(self):
        a = ds(EX + "ex:g1 { ex:a ex:p ex:b . }\nex:g2 { ex:c ex:q ex:d . }")
        b = ds(EX + "ex:g2 { ex:c ex:q ex:d . }\nex:g1 { ex:a ex:p ex:b . }")
        ga, _ = pgt(a)
        gb, _ = pgt(b)
        assert ga.canonical_form() == gb.canonical_form()

    def test_wrappers_do_not_mutate_config(self):
        cfg = TransformConfig()
        rpt(ds(EX + "ex:a ex:p ex:b ."), cfg)
        assert cfg.approach is Approach.HYBRID


class TestKindConstants:
    def test_enum_values_are_cli_friendly(self):
        assert Approach.RPT.value == "rpt"
        assert Approach.HYBRID.value == "hybrid"
        assert NamedGraphPolicy.EDGE_PROPERTY.value == "edge-property"
        assert ListPolicy.COLLAPSE_LITERALS.value == "collapse"

    def test_status_values(self):
        assert [s.value for s in Status] == ["Converted", "Partial"]


class TestGraphCompanionDedup:
    def test_same_graph_twice_single_companion_value(self):
        source = EX + 'ex:g { ex:a ex:name "x" . ex:a ex:other "y" . }'
        graph, _ = pgt(ds(source))
        node = node_by_iri(graph, "http://example.org/a")
        assert node.properties["name.graph"] == "http://example.org/g"
        assert node.properties["other.graph"] == "http://example.org/g"

    def test_same_key_from_two_graphs_lists_both(self):
        source = EX + 'ex:g1 { ex:a ex:name "x" . }\nex:g2 { ex:a ex:name "y" . }'
        graph, _ = pgt(ds(source))
        node = node_by_iri(graph, "http://example.org/a")
        assert node.properties["name"] == ["x", "y"]
        assert sorted(node.properties["name.graph"]) == [
            "http://example.org/g1",
            "http://example.org/g2",
        ]


@pytest.mark.parametrize("fn", [rpt, pgt, hybrid])
def test_wrapper_signatures(fn):
    graph, report = fn(ds(EX + "ex:a ex:p ex:b ."))
    assert graph.nodes and report.total == 1


class TestRepeatedNaN:
    """A NaN literal's node is made once, however often the literal recurs.

    Decimal('NaN') never equals itself, so upserting the node again used to
    read as a conflicting property value.
    """

    SOURCE = EX + XSD + 'ex:a ex:p "NaN"^^xsd:decimal .\nex:b ex:p "NaN"^^xsd:decimal .\n'

    @pytest.mark.parametrize("approach", list(Approach))
    @pytest.mark.parametrize("policy", list(DatatypePolicy))
    def test_every_approach_and_policy_converts(self, approach, policy):
        cfg = TransformConfig(approach=approach, datatype_policy=policy)
        graph, report = transform(ds(self.SOURCE), cfg)
        assert report.total == report.converted == 2
        literals = [n for n in graph.nodes.values() if "Literal" in n.labels]
        as_property = approach is Approach.PGT or (
            approach is Approach.HYBRID and policy is DatatypePolicy.AS_PROPERTY
        )
        if as_property:
            assert not literals
            values = [node_by_iri(graph, f"http://example.org/{n}").properties["p"] for n in "ab"]
        else:
            assert len(literals) == 1 and len(graph.edges) == 2
            values = [literals[0].properties["value"]]
        assert all(isinstance(v, Decimal) and v.is_nan() for v in values)


# sha256 over every corpus report as `convert --report` writes it (without the
# final newline): cases by case_sort_key, then Approach order, as the corpus
# export digest in test_exporters.py is taken.
CORPUS_REPORTS_SHA256 = "11a75c049f31b220f37b45d0c54163a30558fa5c1fe7d4363d7ad0e4b3815db7"


def test_corpus_report_bytes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for case in sorted(builtin_corpus(), key=lambda c: case_sort_key(c.id)):
        dataset = parse_turtle_star(case.source)
        for approach in Approach:
            _, report = transform(dataset, TransformConfig(approach=approach))
            digest.update(json.dumps(report.to_dict(), indent=2, ensure_ascii=False).encode())
            count += 1
    assert count == 69
    assert digest.hexdigest() == CORPUS_REPORTS_SHA256


# sha256 over the JSON, GraphML, Cypher and report bytes of every corpus case
# under every TransformConfig: configurations in field and enum order (None
# first for the rdf:type policy), then cases by case_sort_key.
ALL_CONFIGS_SHA256 = {
    "json": "53c3f06f224c19ce045ad9e68bc303190de96461c95cf2c79a82d7b774ad85fe",
    "graphml": "1d4142d5892f9b33f3ad11ee7a968c4fe371d4e7503432b8e9354cf281271045",
    "cypher": "58c3993cfb6e461ca99a6231944ead996885a12f04b716c98293d4cd201b3848",
    "report": "18f0a0fa97532201ddde9b151e9f1069d7e2792eaa81a9f51fb172596c848aa4",
}


def test_every_configuration_is_pinned():
    cases = [
        parse_turtle_star(case.source)
        for case in sorted(builtin_corpus(), key=lambda c: case_sort_key(c.id))
    ]
    configs = [
        TransformConfig(*fields)
        for fields in itertools.product(
            Approach, DatatypePolicy, [None, *RdfTypePolicy], NamedGraphPolicy, ListPolicy
        )
    ]
    digests = {fmt: hashlib.sha256() for fmt in ALL_CONFIGS_SHA256}
    for cfg in configs:
        for dataset in cases:
            graph, report = transform(dataset, cfg)
            digests["json"].update(to_json(graph))
            digests["graphml"].update(to_graphml(graph))
            digests["cypher"].update(to_cypher(graph).encode())
            digests["report"].update(
                json.dumps(report.to_dict(), indent=2, ensure_ascii=False).encode()
            )
    assert (len(configs), len(cases)) == (108, 23)
    assert {fmt: d.hexdigest() for fmt, d in digests.items()} == ALL_CONFIGS_SHA256
