"""Randomized invariants over generated datasets.

Four structural guarantees, each checked against at least a thousand
generated datasets (at most ten statements, quoting depth at most two), one
text round trip, checked against four hundred, the report algebra on the
same star data, checked against three hundred, and the hash contract on the
same statements and datasets, checked against four and three hundred, and
a crash-freedom check on documents with collections, checked against three
hundred:

1. edge bijection    - without quoted triples, the fully node-materializing
                       approach produces exactly one edge per statement
2. decomposition     - the property-oriented approach turns every statement
                       into either an edge (object property) or a node
                       property value (datatype property), with nothing
                       dropped or double-counted
3. disconnection     - statements about a predicate IRI live in their own
                       component; they never attach to the statements that
                       merely use the predicate
4. approach agreement - on datasets made purely of object properties the
                       three approaches agree exactly once label policies
                       are harmonized
5. text round trip   - parse_turtle_star(to_turtle_star(d)) == d, for
                       literals full of escapes and control characters,
                       language tags, named graphs and quoted triples up to
                       depth three
6. report algebra    - on the same star data, every approach reports one
                       unit per statement unit, only pgt reports Partial
                       (exactly for statements that directly quote a
                       datatype-property statement), and no unit carries
                       a note twice
7. hash contract     - equal terms and statements have equal hashes however
                       they were built, so statements built in code and
                       statements read back from their text meet in one set
8. no crash          - documents with empty, nested, literal and IRI
                       collections, as objects of plain and of quoted
                       statements, transform under every configuration with
                       one unit per statement unit
9. surface spellings - the text round trip's datasets, written with prefixed,
                       full and \\u-escaped IRIs, escaped string characters,
                       number shorthand, other blank-node labels, comments and
                       blank lines, every @prefix declared again midway and
                       each graph block split in two, give the same JSON,
                       GraphML, Cypher and report bytes under every approach
                       as to_turtle_star's text, checked against two hundred
10. statement order  - the same datasets, and the collection documents, with
                       each graph's statements and the named graphs in
                       another order give the same bytes under every
                       approach and any configuration, checked against two
                       hundred
11. identity ids    - every node the transform files has a node id, and
                       every edge the edge_id of a statement the dataset
                       holds or quotes, in one of its graphs, and the graph
                       keeps every graph rule, on the built-in corpus under
                       every configuration and on the datasets of 10,
                       checked against two hundred
"""

import itertools
import json
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfstar2pg import pgraph
from rdfstar2pg.conformance import builtin_corpus

from rdfstar2pg.exporters import UnrepresentableValue, to_cypher, to_graphml, to_json
from rdfstar2pg.model import (
    XSD_DATE,
    XSD_INTEGER,
    XSD_STRING,
    Dataset,
    BlankNode,
    Iri,
    Literal,
    QuotedTriple,
    Statement,
    StatementKind,
    classify,
    escape_string,
    local_name,
    serialize_statement,
    statement_units,
    terms,
)
from rdfstar2pg.parser import parse_turtle_star, to_turtle_star
from rdfstar2pg.pgraph import DanglingEndpoint, is_bookkeeping_key
from rdfstar2pg.transform import (
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
    TransformConfig,
    hybrid,
    pgt,
    rpt,
    transform,
)

MAX_STATEMENTS = 10

SUBJECT_IRIS = [Iri(f"http://left.example/s{i}") for i in range(6)]
PREDICATE_IRIS = [Iri(f"http://pred.example/p{i}") for i in range(6)]
OBJECT_IRIS = [Iri(f"http://right.example/o{i}") for i in range(6)]

subjects = st.one_of(
    st.sampled_from(SUBJECT_IRIS),
    st.builds(BlankNode, st.sampled_from(["b0", "b1", "b2"])),
)
predicates = st.sampled_from(PREDICATE_IRIS)
iri_objects = st.sampled_from(OBJECT_IRIS)
literal_objects = st.one_of(
    st.builds(Literal, st.sampled_from(["x", "y", "1", "2.5", ""])),
    st.builds(
        Literal,
        st.sampled_from(["1", "7", "42"]),
        st.just(Iri("http://www.w3.org/2001/XMLSchema#integer")),
    ),
)

object_statements = st.builds(Statement, subjects, predicates, st.one_of(iri_objects, subjects))
datatype_statements = st.builds(Statement, subjects, predicates, literal_objects)
mixed_statements = st.one_of(object_statements, datatype_statements)


def dataset_of(statement_strategy):
    return st.builds(
        Dataset, st.lists(statement_strategy, min_size=1, max_size=MAX_STATEMENTS)
    )


@settings(max_examples=1000, deadline=None)
@given(dataset_of(mixed_statements))
def test_rpt_edge_bijection(dataset):
    """One edge per statement when nothing is quoted."""
    graph, report = rpt(dataset)
    assert len(graph.edges) == len(dataset)
    assert report.total == len(dataset)
    assert report.converted == report.total
    assert not report.partial and not report.ignored and not report.errors


@settings(max_examples=1000, deadline=None)
@given(dataset_of(mixed_statements))
def test_pgt_decomposition(dataset):
    """Every statement lands exactly once: as an edge or as a property value."""
    object_count = sum(
        1 for st_ in dataset.default if classify(st_) is StatementKind.OBJECT_PROPERTY
    )
    datatype_units = [
        st_ for st_ in dataset.default if classify(st_) is StatementKind.DATATYPE_PROPERTY
    ]

    graph, report = pgt(dataset)

    assert len(graph.edges) == object_count

    semantic_keys = 0
    semantic_values = 0
    for node in graph.nodes.values():
        for key, value in node.properties.items():
            if is_bookkeeping_key(key):
                continue
            semantic_keys += 1
            semantic_values += len(value) if isinstance(value, list) else 1

    expected_keys = len(
        {(st_.subject, local_name(st_.predicate)) for st_ in datatype_units}
    )
    assert semantic_keys == expected_keys
    assert semantic_values == len(datatype_units)
    assert report.converted == report.total == len(dataset)


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(SUBJECT_IRIS),
    st.sampled_from(PREDICATE_IRIS),
    st.one_of(iri_objects, st.sampled_from(SUBJECT_IRIS)),
    st.sampled_from([Iri(f"http://meta.example/q{i}") for i in range(3)]),
    st.one_of(st.sampled_from([Iri(f"http://meta.example/x{i}") for i in range(3)])),
)
def test_statements_about_predicates_stay_disconnected(s, p, o, q, x):
    """Using a predicate and talking about it never fuse into one component."""
    dataset = Dataset(default=[Statement(s, p, o), Statement(p, q, x)])
    graph, report = pgt(dataset)
    assert report.converted == report.total == 2

    def node_for(iri):
        return next(
            n.id for n in graph.nodes.values() if n.properties.get("iri") == iri.value
        )

    neighbours = {nid: set() for nid in graph.nodes}
    for edge in graph.edges.values():
        neighbours[edge.source].add(edge.target)
        neighbours[edge.target].add(edge.source)

    component, frontier = set(), {node_for(s)}
    while frontier:
        component |= frontier
        frontier = {n for nid in frontier for n in neighbours[nid]} - component
    assert node_for(p) not in component


HARMONIZED = TransformConfig(rdf_type_policy=RdfTypePolicy.AS_EDGE)


def without_kind_labels(graph):
    """The graph with rpt's statement-kind edge label taken off."""
    for edge in graph.edges.values():
        edge.labels.discard("ObjectProperty")
    return graph


@settings(max_examples=1000, deadline=None)
@given(dataset_of(object_statements))
def test_approach_agreement_without_quotes_or_literals(dataset):
    """Object-property-only data converts identically under all approaches,
    apart from the kind label rpt puts on every edge."""
    outputs = {
        to_json(without_kind_labels(fn(dataset, HARMONIZED)[0])) for fn in (rpt, pgt, hybrid)
    }
    assert len(outputs) == 1


# --- text round trip ---------------------------------------------------------

TEXT_IRIS = st.one_of(
    st.sampled_from(SUBJECT_IRIS + PREDICATE_IRIS + OBJECT_IRIS),
    st.text(alphabet="azAZ09-._~%#/?:=&\u00e9\u03c0", max_size=8).map(
        lambda tail: Iri("http://text.example/" + tail)
    ),
)
LEXICAL = st.text(
    alphabet=st.one_of(
        st.sampled_from('\\"\n\t\r\x00\x01\x1f\x7f'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
TEXT_LITERALS = st.one_of(
    st.builds(Literal, LEXICAL),
    st.builds(
        Literal,
        LEXICAL,
        st.sampled_from([Iri(XSD_INTEGER), Iri(XSD_DATE), Iri("http://text.example/dt")]),
    ),
    st.builds(
        lambda lexical, lang: Literal(lexical, lang=lang),
        LEXICAL,
        st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True),
    ),
)
TEXT_BNODES = st.builds(BlankNode, st.sampled_from(["x", "y", "z"]))


def text_statements(depth):
    """Statements whose quoted triples nest at most `depth` levels."""
    subject = st.one_of(TEXT_IRIS, TEXT_BNODES)
    obj = st.one_of(TEXT_IRIS, TEXT_BNODES, TEXT_LITERALS)
    if depth:
        quoted = text_statements(depth - 1).map(QuotedTriple)
        subject = st.one_of(subject, quoted)
        obj = st.one_of(obj, quoted)
    return st.builds(Statement, subject, TEXT_IRIS, obj)


def canonical_bnodes(dataset):
    """`dataset` with blank nodes renamed b0, b1, ... in order of first
    appearance in to_turtle_star's output, as the parser names them."""
    labels = {}

    def term(t):
        if isinstance(t, BlankNode):
            return BlankNode(labels.setdefault(t.label, f"b{len(labels)}"))
        if isinstance(t, QuotedTriple):
            return QuotedTriple(statement(t.statement))
        return t

    def statement(s):
        subject = term(s.subject)
        return Statement(subject, s.predicate, term(s.object))

    default = [statement(s) for s in dataset.default]
    named = {
        name: [statement(s) for s in dataset.named[name]]
        for name in sorted(dataset.named, key=lambda iri: iri.value)
    }
    return Dataset(default, named)


TEXT_STATEMENTS = text_statements(3)
text_datasets = st.builds(
    Dataset,
    st.lists(TEXT_STATEMENTS, max_size=4),
    st.dictionaries(TEXT_IRIS, st.lists(TEXT_STATEMENTS, max_size=2), max_size=2),
).map(canonical_bnodes)


@settings(max_examples=400, deadline=None)
@given(text_datasets)
def test_turtle_star_text_round_trip(dataset):
    """Serializing and re-parsing gives back the same dataset."""
    assert parse_turtle_star(to_turtle_star(dataset)) == dataset


def quotes_datatype_statement(statement) -> bool:
    return any(
        isinstance(term, QuotedTriple)
        and classify(term.statement) is StatementKind.DATATYPE_PROPERTY
        for term in (statement.subject, statement.object)
    )


# the order of README's note table, which is the order a unit's notes come in
NOTE_ORDER = [
    NOTE_LONG_INTEGER,
    NOTE_NESTED,
    NOTE_INVERSE,
    NOTE_EDGE_TO_EDGE,
    NOTE_IRI_AS_STRING,
    NOTE_BNODE_AS_STRING,
    NOTE_OVERWRITTEN,
    NOTE_MIXED_TYPES,
]


@settings(max_examples=300, deadline=None)
@given(text_datasets)
def test_report_algebra_on_star_data(dataset):
    """Unit count, Partial placement and once-only, table-ordered notes hold under every approach."""
    for approach in (rpt, pgt, hybrid):
        _, report = approach(dataset)
        assert report.total == len(statement_units(dataset))
        listed = report.partial + report.ignored + report.errors + report.notes
        assert all(len(set(entry.notes)) == len(entry.notes) for entry in listed)
        assert all(entry.notes == sorted(entry.notes, key=NOTE_ORDER.index) for entry in listed)
        partial = Counter((entry.graph, entry.statement) for entry in report.partial)
        if approach is pgt:
            expected = Counter(
                (name, st_) for name, st_ in dataset.statements() if quotes_datatype_statement(st_)
            )
            assert partial == expected
        else:
            assert not partial


# --- hash contract -----------------------------------------------------------


def rebuilt(item):
    """An equal copy of a term or statement, made of new objects all the way down."""
    if isinstance(item, Statement):
        return Statement(rebuilt(item.subject), rebuilt(item.predicate), rebuilt(item.object))
    if isinstance(item, QuotedTriple):
        return QuotedTriple(rebuilt(item.statement))
    if isinstance(item, Iri):
        return Iri(item.value)
    if isinstance(item, BlankNode):
        return BlankNode(item.label, original="elsewhere")
    return Literal(item.lexical, Iri(item.datatype.value), item.lang)


def parts(item):
    """The statement or term and everything inside it, in a fixed order."""
    yield item
    if isinstance(item, Statement):
        for term in (item.subject, item.predicate, item.object):
            yield from parts(term)
    elif isinstance(item, QuotedTriple):
        yield from parts(item.statement)
    elif isinstance(item, Literal):
        yield item.datatype


@settings(max_examples=400, deadline=None)
@given(TEXT_STATEMENTS)
def test_equal_terms_have_equal_hashes(statement):
    copy = rebuilt(statement)
    assert copy is not statement
    pairs = list(zip(parts(statement), parts(copy)))
    assert len(pairs) == len(list(parts(statement)))
    for original, twin in pairs:
        assert twin == original and hash(twin) == hash(original)


@settings(max_examples=300, deadline=None)
@given(text_datasets)
def test_parsed_statements_meet_built_ones_in_one_set(dataset):
    parsed = parse_turtle_star(to_turtle_star(dataset))
    assert set(parsed.named) == set(dataset.named)
    for name in [None, *dataset.named]:
        built = dataset.default if name is None else dataset.named[name]
        read = parsed.default if name is None else parsed.named[name]
        assert len(set(built) | set(read)) == len(set(built)) == len(read)


# --- no configuration crashes ------------------------------------------------


def collection(items) -> str:
    return "( " + " ".join(items) + " )"


LIST_ATOMS = st.sampled_from(["1", "2", '"a"', '"b"@en', "2.5", "ex:o", "_:b0"])
COLLECTIONS = st.lists(
    st.recursive(LIST_ATOMS, lambda inner: st.lists(inner, max_size=3).map(collection), max_leaves=6),
    max_size=3,
).map(collection)
COLLECTION_STATEMENTS = st.builds(
    "{} {} {} .".format,
    st.sampled_from(
        ["ex:s", "_:b0", "<<ex:a ex:b ex:c>>", "<<ex:a ex:age 5>>", "<< <<ex:a ex:b ex:c>> ex:q 1 >>"]
    ),
    st.sampled_from(["ex:p", "ex:q", "rdf:type"]),
    st.one_of(COLLECTIONS, LIST_ATOMS),
)
COLLECTION_DOCUMENTS = st.builds(
    lambda default, named: "@prefix ex: <http://example.org/> .\n"
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    + "\n".join(default) + "\nex:g {\n" + "\n".join(named) + "\n}\n",
    st.lists(COLLECTION_STATEMENTS, min_size=1, max_size=4),
    st.lists(COLLECTION_STATEMENTS, max_size=2),
)
CONFIGS = st.builds(
    TransformConfig,
    approach=st.sampled_from(Approach),
    datatype_policy=st.sampled_from(DatatypePolicy),
    rdf_type_policy=st.one_of(st.none(), st.sampled_from(RdfTypePolicy)),
    named_graph_policy=st.sampled_from(NamedGraphPolicy),
    list_policy=st.sampled_from(ListPolicy),
)


@settings(max_examples=300, deadline=None)
@given(COLLECTION_DOCUMENTS, CONFIGS)
def test_no_configuration_crashes_on_collections(source, config):
    dataset = parse_turtle_star(source)
    _, report = transform(dataset, config)
    assert report.total == len(statement_units(dataset))


# --- surface spellings -------------------------------------------------------

# a local name from the first digit or '_' after the last letters: many IRIs
# then share a local name ("0"), so a prefix rebound to another namespace
# gives a lexeme read before the rebinding a new meaning
NAMESPACE_AND_LOCAL = re.compile(r"(.*[/#][A-Za-z]*)([0-9_][A-Za-z0-9_\-]*)?")
INTEGER = re.compile(r"[+-]?[0-9]+")
GAPS = [" ", "\t", "\n", "\n\n", " # a comment with << and .\n", "\n# a comment line\n\n"]


def spelled_iris(dataset) -> set:
    """Every IRI that a dataset's text spells: graph names, predicates, terms, datatypes."""
    iris = set(dataset.named)
    for _, statement in dataset.statements():
        iris.add(statement.predicate)
        for term in terms(statement):
            if isinstance(term, QuotedTriple):
                iris.add(term.statement.predicate)
            elif isinstance(term, Literal):
                iris.add(term.datatype)
            elif isinstance(term, Iri):
                iris.add(term)
    return iris


class Speller:
    """Writes a dataset as Turtle-star in a surface spelling that `rng` picks
    term by term. Prefix p<k> names namespace k - shift; shift changes once,
    where every @prefix is declared again (0: each to the same namespace)."""

    def __init__(self, dataset, rng):
        self.rng = rng
        self.namespaces = sorted(
            {m.group(1) for iri in spelled_iris(dataset) if (m := NAMESPACE_AND_LOCAL.fullmatch(iri.value))}
        )
        self.shift = 0
        self.bnode_prefix = rng.choice(["", "n", "x_"])
        self.dataset = dataset

    def gap(self) -> str:
        return self.rng.choice(GAPS)

    def escaped(self, char: str, plain: str) -> str:
        """`char` as a \\u escape, now and then, else as `plain`."""
        if ord(char) < 0x10000 and self.rng.randrange(3) == 0:
            return "\\u%04X" % ord(char)
        return plain

    def iri_ref(self, value: str) -> str:
        if self.rng.randrange(2):
            return "<" + "".join(self.escaped(char, char) for char in value) + ">"
        return f"<{value}>"

    def iri(self, value: str) -> str:
        match = NAMESPACE_AND_LOCAL.fullmatch(value)
        if match and self.rng.randrange(2):
            index = (self.namespaces.index(match.group(1)) + self.shift) % len(self.namespaces)
            return f"p{index}:{match.group(2) or ''}"
        return self.iri_ref(value)

    def prefixes(self) -> str:
        count = len(self.namespaces)
        return "".join(
            f"@prefix p{(k + self.shift) % count}: {self.iri_ref(namespace)} .\n"
            for k, namespace in enumerate(self.namespaces)
        )

    def literal(self, lit: Literal) -> str:
        if lit.datatype.value == XSD_INTEGER and INTEGER.fullmatch(lit.lexical) and self.rng.randrange(2):
            return lit.lexical
        body = '"' + "".join(self.escaped(char, escape_string(char)) for char in lit.lexical) + '"'
        if lit.lang is not None:
            return f"{body}@{lit.lang}"
        if lit.datatype.value == XSD_STRING and self.rng.randrange(2):
            return body
        return f"{body}^^{self.iri(lit.datatype.value)}"

    def term(self, term) -> str:
        if isinstance(term, Iri):
            return self.iri(term.value)
        if isinstance(term, BlankNode):
            return f"_:{self.bnode_prefix}{term.label}"
        if isinstance(term, Literal):
            return self.literal(term)
        return "<<" + self.gap() + self.statement(term.statement) + self.gap() + ">>"

    def statement(self, st_) -> str:
        subject = self.term(st_.subject) + self.gap()
        return subject + self.iri(st_.predicate.value) + self.gap() + self.term(st_.object)

    def document(self) -> str:
        # top-level items in to_turtle_star's order: (None, [statement]) for
        # the default graph, then (name, statements), each graph in two blocks
        items = []
        for name, statements in self.dataset.graphs():
            if name is None:
                items += [(None, [statement]) for statement in statements]
            else:
                cut = self.rng.randrange(len(statements) + 1)
                items += [(name, statements[:cut]), (name, statements[cut:])]
        pieces, rebind_at = [self.prefixes()], self.rng.randrange(len(items) + 1)
        for number, (name, statements) in enumerate(items):
            if number == rebind_at and self.namespaces:
                self.shift = self.rng.randrange(len(self.namespaces))
                pieces.append(self.prefixes())
            lines = [self.statement(statement) + self.gap() + "." for statement in statements]
            if name is None:
                pieces += lines
            else:
                block = self.gap() + self.gap().join(lines) + self.gap()
                pieces.append(self.iri(name.value) + self.gap() + "{" + block + "}")
        return self.gap().join(pieces) + "\n"


def outputs(dataset, config=TransformConfig()) -> list:
    """The report, JSON, GraphML and Cypher bytes (or refusal) of dataset under
    config with each approach; the three exports share the graph's one walk."""
    found = []
    for approach in Approach:
        graph, report = transform(dataset, replace(config, approach=approach))
        found.append(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
        for export in (to_json, to_graphml, to_cypher):
            try:
                found.append(export(graph))
            except UnrepresentableValue as exc:
                found.append(repr(exc))
    return found


@settings(max_examples=200, deadline=None)
@given(text_datasets, st.randoms(use_true_random=False))
def test_surface_spellings_give_the_same_bytes(dataset, rng):
    text = Speller(dataset, rng).document()
    assert parse_turtle_star(text) == dataset
    assert outputs(parse_turtle_star(text)) == outputs(parse_turtle_star(to_turtle_star(dataset)))


# --- statement order -----------------------------------------------------------


def shuffled(dataset, rng):
    """dataset with each graph's statements, and the named graphs, in an order rng picks.

    Shuffled here rather than in the text, where the parser would name the
    blank nodes in another order."""

    def mixed(items) -> list:
        items = list(items)
        rng.shuffle(items)
        return items

    return Dataset(mixed(dataset.default), {name: mixed(dataset.named[name]) for name in mixed(dataset.named)})


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(text_datasets, COLLECTION_DOCUMENTS.map(parse_turtle_star)),
    CONFIGS,
    st.randoms(use_true_random=False),
)
def test_statement_order_gives_the_same_bytes(dataset, config, rng):
    assert outputs(shuffled(dataset, rng), config) == outputs(dataset, config)


# --- every record is filed under its identity key's id -------------------------


def edge_ids(dataset) -> set:
    """The id of the edge for every statement dataset holds or quotes, in every graph."""
    suffixes = [None, *(name.value for name in dataset.named)]
    ids = set()
    for _, statement in dataset.statements():
        quoted = [term.statement for term in terms(statement) if isinstance(term, QuotedTriple)]
        for each in (statement, *quoted):
            for suffix in suffixes:
                ids.add(pgraph.edge_id(pgraph.with_graph("stmt:" + serialize_statement(each), suffix)))
    return ids


def assert_filed_by_identity(graph, dataset) -> None:
    """graph's records are filed under their identity keys' ids, and the walk refuses none."""
    assert all(node_id.startswith("n:") for node_id in graph.nodes)
    assert graph.edges.keys() <= edge_ids(dataset)
    graph.canonical_records()


ALL_CONFIGS = [
    TransformConfig(*fields)
    for fields in itertools.product(
        Approach, DatatypePolicy, [None, *RdfTypePolicy], NamedGraphPolicy, ListPolicy
    )
]


@pytest.mark.parametrize("case", builtin_corpus(), ids=lambda case: case.id)
def test_the_corpus_files_each_record_under_its_identity(case):
    dataset = parse_turtle_star(case.source)
    for config in ALL_CONFIGS:
        assert_filed_by_identity(transform(dataset, config)[0], dataset)


@settings(max_examples=200, deadline=None)
@given(st.one_of(text_datasets, COLLECTION_DOCUMENTS.map(parse_turtle_star)), CONFIGS)
def test_generated_datasets_file_each_record_under_its_identity(dataset, config):
    assert_filed_by_identity(transform(dataset, config)[0], dataset)


@pytest.mark.parametrize("case", builtin_corpus(), ids=lambda case: case.id)
def test_a_hand_edit_of_a_corpus_graph_is_refused_by_its_next_export(case):
    def exported():
        graph, _ = transform(parse_turtle_star(case.source), TransformConfig(Approach.RPT))
        to_json(graph)  # the graph now keeps its walk
        return graph

    graph = exported()
    next(iter(graph.nodes.values())).labels.clear()
    with pytest.raises(ValueError, match="^nodes and edges need at least one label$"):
        to_json(graph)
    graph = exported()
    next(iter(graph.edges.values())).target = "n:gone"
    with pytest.raises(DanglingEndpoint, match="^edge endpoint 'n:gone' is not a node$"):
        to_json(graph)
