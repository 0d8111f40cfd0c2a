"""Randomized invariants over generated datasets.

Four structural guarantees, each checked against at least a thousand
generated datasets (at most ten statements, quoting depth at most two), one
text round trip, checked against four hundred, the report algebra on the
same star data, checked against three hundred, and the hash contract on the
same statements and datasets, checked against four and three hundred:

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
                       the nested-key note twice
7. hash contract     - equal terms and statements have equal hashes however
                       they were built, so statements built in code and
                       statements read back from their text meet in one set
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from rdfstar2pg.exporters import to_json
from rdfstar2pg.model import (
    XSD_DATE,
    XSD_INTEGER,
    Dataset,
    BlankNode,
    Iri,
    Literal,
    QuotedTriple,
    Statement,
    StatementKind,
    classify,
    local_name,
    statement_units,
)
from rdfstar2pg.parser import parse_turtle_star, to_turtle_star
from rdfstar2pg.pgraph import is_bookkeeping_key
from rdfstar2pg.transform import (
    NOTE_NESTED,
    RdfTypePolicy,
    TransformConfig,
    hybrid,
    pgt,
    rpt,
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


@settings(max_examples=300, deadline=None)
@given(text_datasets)
def test_report_algebra_on_star_data(dataset):
    """Unit count, Partial placement and nested notes hold under every approach."""
    for approach in (rpt, pgt, hybrid):
        _, report = approach(dataset)
        assert report.total == len(statement_units(dataset))
        listed = report.partial + report.ignored + report.errors + report.notes
        assert all(entry.notes.count(NOTE_NESTED) <= 1 for entry in listed)
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
