import copy
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import rdfstar2pg
from rdfstar2pg.model import (
    MAX_NESTING,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Dataset,
    Iri,
    Literal,
    NestingTooDeep,
    QuotedTriple,
    Statement,
    StatementKind,
    classify,
    embedded_star_statements,
    escape_string,
    folded_chain_statements,
    is_chain_statement,
    is_star,
    isomorphic,
    local_name,
    quote_depth,
    serialize_statement,
    statement_units,
)
from rdfstar2pg.parser import ParseError, parse_turtle_star

EX = "http://example.org/"


def iri(name):
    return Iri(EX + name)


def st(s, p, o):
    return Statement(s, p, o)


class TestTerms:
    def test_literal_defaults_to_xsd_string(self):
        assert Literal("hi").datatype == Iri(XSD_STRING)

    def test_lang_literal_requires_langstring_datatype(self):
        lit = Literal("Bog", lang="da")
        assert lit.datatype.value.endswith("langString")

    def test_lang_with_explicit_wrong_datatype_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=Iri(XSD_INTEGER), lang="en")

    def test_blank_node_equality_ignores_original(self):
        assert BlankNode("b0", original="c") == BlankNode("b0", original="zzz")

    def test_literal_subject_rejected(self):
        with pytest.raises(ValueError):
            st(Literal("no"), iri("p"), iri("o"))

    def test_literal_predicate_rejected(self):
        with pytest.raises(TypeError):
            st(iri("s"), Literal("no"), iri("o"))


class TestClassify:
    def test_object_property(self):
        assert classify(st(iri("a"), iri("p"), iri("b"))) is StatementKind.OBJECT_PROPERTY

    def test_bnode_object_is_object_property(self):
        assert classify(st(iri("a"), iri("p"), BlankNode("b0"))) is StatementKind.OBJECT_PROPERTY

    def test_datatype_property(self):
        assert classify(st(iri("a"), iri("p"), Literal("x"))) is StatementKind.DATATYPE_PROPERTY

    def test_star_subject(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        outer = st(QuotedTriple(inner), iri("q"), Literal("1"))
        assert classify(outer) is StatementKind.STAR_SUBJECT
        assert is_star(outer)

    def test_star_object(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        outer = st(iri("x"), iri("q"), QuotedTriple(inner))
        assert classify(outer) is StatementKind.STAR_OBJECT

    def test_star_both(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        outer = st(QuotedTriple(inner), iri("q"), QuotedTriple(inner))
        assert classify(outer) is StatementKind.STAR_BOTH

    def test_star_wins_over_datatype(self):
        # a quoted subject with a literal object is a star statement
        inner = st(iri("a"), iri("p"), iri("b"))
        outer = st(QuotedTriple(inner), iri("q"), Literal("0.5"))
        assert classify(outer) is not StatementKind.DATATYPE_PROPERTY


class TestLocalName:
    def test_fragment(self):
        assert local_name(Iri("http://x/v#certainty")) == "certainty"

    def test_last_segment(self):
        assert local_name(Iri("http://example.org/meets")) == "meets"

    def test_no_separator_keeps_whole_iri(self):
        assert local_name(Iri("urn:meets")) == "urn:meets"
        assert local_name(Iri("meets")) == "meets"

    def test_fragment_beats_slash(self):
        assert local_name(Iri("http://x/path#frag")) == "frag"

    def test_truncated_rdf_namespace(self):
        assert local_name(Iri("http://www.w3.org/1999/02/22-rdf-syntax-nstype")) == (
            "22-rdf-syntax-nstype"
        )


class TestQuoteDepth:
    def test_plain_is_zero(self):
        assert quote_depth(st(iri("a"), iri("p"), iri("b"))) == 0

    def test_single_nesting(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        assert quote_depth(st(QuotedTriple(inner), iri("q"), Literal("1"))) == 1

    def test_double_nesting(self):
        inner = st(iri("a"), iri("p"), Literal("CEO"))
        mid = st(QuotedTriple(inner), iri("q"), iri("b"))
        outer = st(QuotedTriple(mid), iri("r"), iri("c"))
        assert quote_depth(outer) == 2

    def test_depth_follows_the_deeper_side(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        mid = st(QuotedTriple(inner), iri("q"), iri("b"))
        both = QuotedTriple(st(QuotedTriple(inner), iri("r"), QuotedTriple(mid)))
        assert both.depth == 3 and quote_depth(both) == 3
        assert both == QuotedTriple(st(QuotedTriple(inner), iri("r"), QuotedTriple(mid)))
        assert "depth" not in repr(both)

    def test_cap_reached_in_code_still_hashes(self):
        statement = st(iri("a"), iri("p"), iri("b"))
        for _ in range(MAX_NESTING):
            statement = st(QuotedTriple(statement), iri("p"), iri("b"))
        assert quote_depth(statement) == MAX_NESTING
        assert len(Dataset([statement, statement])) == 1

    def test_nesting_2000_deep_in_code_is_refused(self):
        # Wrapping a statement 2000 times used to build fine and then crash
        # Dataset() with RecursionError while hashing.
        statement = st(iri("a"), iri("p"), iri("b"))
        with pytest.raises(NestingTooDeep) as exc_info:
            for _ in range(2000):
                statement = st(QuotedTriple(statement), iri("p"), iri("b"))
            Dataset([statement])
        assert isinstance(exc_info.value, ValueError)
        assert str(MAX_NESTING) in str(exc_info.value)
        assert quote_depth(statement) == MAX_NESTING


class TestSerialization:
    def test_escapes_control_characters(self):
        s = serialize_statement(st(iri("a"), iri("p"), Literal('say "hi"\n')))
        assert '\\"hi\\"' in s and "\\n" in s

    def test_sort_key_orders_canonically(self):
        a = st(iri("a"), iri("p"), Literal("0.5"))
        b = st(iri("a"), iri("p"), Literal("1"))
        assert serialize_statement(a) < serialize_statement(b)

    def test_quoted_serialization(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        outer = st(QuotedTriple(inner), iri("q"), Literal("1"))
        assert serialize_statement(outer).startswith("<< <")

    def test_statement_text_is_made_once(self):
        inner = st(iri("a"), iri("p"), Literal("x"))
        outer = st(QuotedTriple(inner), iri("q"), Literal("1"))
        text = serialize_statement(outer)
        assert serialize_statement(outer) is text
        assert text == f"<< {serialize_statement(inner)} >> <{EX}q> \"1\""


_SHORT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def escape_by_character(text: str) -> str:
    """escape_string written as a loop over the characters, as a reference."""
    out = []
    for ch in text:
        if ch in _SHORT_ESCAPES:
            out.append(_SHORT_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append("\\u%04X" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


@settings(max_examples=500, deadline=None)
@given(
    hst.text(
        alphabet=hst.one_of(
            hst.characters(max_codepoint=0x7F),
            hst.sampled_from('\\"\n\r\t\x00\x1f\x7f\u2028'),
            hst.characters(blacklist_categories=("Cs",)),
        )
    )
)
def test_escape_string_matches_character_loop(text):
    assert escape_string(text) == escape_by_character(text)


SHARED_SOURCE = """@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:p ex:b ; ex:q "1"^^xsd:integer , 1 , "x"@en , "y" , "y"^^xsd:string .
<http://example.org/b> ex:p _:n , [] , ( 1 "y" ) .
<< ex:a ex:p <http://example.org/b> >> ex:q << _:n ex:p "x"@en >> .
ex:g { ex:b ex:p ex:a , _:n , "x"@en . ex:b a ex:T . }
<http://example.org/g> { _:n ex:q 1 . }
"""


def all_terms(dataset):
    """Every term object in a dataset: graph names, quoted triples and datatypes too."""
    found = list(dataset.named)

    def walk(term):
        found.append(term)
        if isinstance(term, QuotedTriple):
            for part in (term.statement.subject, term.statement.predicate, term.statement.object):
                walk(part)
        elif isinstance(term, Literal):
            found.append(term.datatype)

    for _, statement in dataset.statements():
        for term in (statement.subject, statement.predicate, statement.object):
            walk(term)
    return found


class TestSharedTerms:
    """Within one parse, each distinct term is one object."""

    def test_each_value_is_one_object(self):
        groups = {}
        for term in all_terms(parse_turtle_star(SHARED_SOURCE)):
            if not isinstance(term, QuotedTriple):
                groups.setdefault(term, set()).add(id(term))
        assert all(len(ids) == 1 for ids in groups.values()), groups
        assert Iri(EX + "b") in groups and Literal("1", Iri(XSD_INTEGER)) in groups
        assert Literal("y") in groups and Iri(RDF_FIRST) in groups

    def test_every_occurrence_of_an_iri_is_the_same_object(self):
        dataset = parse_turtle_star(SHARED_SOURCE)
        b = [term for term in all_terms(dataset) if term == Iri(EX + "b")]
        assert len(b) == 9 and all(term is b[0] for term in b)

    # each source binds ex: to <http://a/>, uses it, binds it to
    # <http://b/> and uses it again; prefixed names are cached per lexeme,
    # so every use after the rebinding must miss the cache
    A, B = "@prefix ex: <http://a/> .\n", "@prefix ex: <http://b/> .\n"

    @pytest.mark.parametrize(
        "source,expected",
        [
            (
                A + "ex:x ex:p ex:o .\n" + B + "ex:x ex:p ex:o .\n",
                [(None, "<http://a/x> <http://a/p> <http://a/o>"), (None, "<http://b/x> <http://b/p> <http://b/o>")],
            ),
            (
                A + "ex:g { ex:x ex:p ex:o }\n" + B + "ex:g { ex:x ex:p ex:o }\n",
                [
                    ("http://a/g", "<http://a/x> <http://a/p> <http://a/o>"),
                    ("http://b/g", "<http://b/x> <http://b/p> <http://b/o>"),
                ],
            ),
            (
                A + "<< ex:x ex:p ex:o >> ex:q ex:r .\n" + B + "<< ex:x ex:p ex:o >> ex:q ex:r .\n",
                [
                    (None, "<< <http://a/x> <http://a/p> <http://a/o> >> <http://a/q> <http://a/r>"),
                    (None, "<< <http://b/x> <http://b/p> <http://b/o> >> <http://b/q> <http://b/r>"),
                ],
            ),
            (
                A + "ex:x ex:p ex:o .\n" * 4000 + B + "ex:x ex:p ex:o .\n",
                [(None, "<http://a/x> <http://a/p> <http://a/o>"), (None, "<http://b/x> <http://b/p> <http://b/o>")],
            ),
        ],
        ids=["default_graph", "graph_block", "quoted_triples", "after_64_kb"],
    )
    def test_redefined_prefix_gives_a_new_iri(self, source, expected):
        dataset = parse_turtle_star(source)
        assert [(name and name.value, serialize_statement(st)) for name, st in dataset.statements()] == expected

    def test_relative_iri_still_refused_after_its_absolute_lookalike(self):
        with pytest.raises(ParseError, match="line 3, column 1: relative IRI <x>"):
            parse_turtle_star(
                "@prefix ex: <http://a/> .\nex:x ex:p <http://a/x> .\n<x> ex:p ex:o .\n"
            )

    def test_documents_share_nothing(self):
        first, second = (parse_turtle_star(SHARED_SOURCE).default[0] for _ in range(2))
        assert first == second and first.subject is not second.subject


PICKLED = "@prefix ex: <http://example.org/> .\n" + (
    '<< _:x ex:p "\u00e9t\u00e9"@fr >> ex:q << ex:a ex:p 1 >> .\n'
    'ex:a ex:p "t\\"ext" , _:x .\n'
)

# Loads pickled statements from stdin and looks them up in a set of the same
# statements parsed here, under this interpreter's own hash seed.
CHILD = """
import pickle, sys
from rdfstar2pg.parser import parse_turtle_star
loaded = pickle.loads(sys.stdin.buffer.read())
built = set(parse_turtle_star(sys.argv[1]).default)
print(hash("probe"), sum(statement in built for statement in loaded), len(built))
"""


class TestStoredHashes:
    """A stored hash is rebuilt, never carried, by pickle and copy."""

    @pytest.mark.parametrize(
        "duplicate", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copies_are_equal_with_equal_hashes(self, duplicate):
        for statement in parse_turtle_star(PICKLED).default:
            twin = duplicate(statement)
            assert twin == statement and hash(twin) == hash(statement)
            assert serialize_statement(twin) == serialize_statement(statement)

    def test_pickled_statement_found_in_another_process(self):
        statements = list(parse_turtle_star(PICKLED).default)
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        package_root = os.path.dirname(os.path.dirname(rdfstar2pg.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, PICKLED],
            input=pickle.dumps(statements),
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        probe, found, built = proc.stdout.split()
        assert int(probe) != hash("probe")  # the child hashes strings differently
        assert int(found) == int(built) == len(statements) == 3


def test_pipeline_objects_are_slotted_and_pickle():
    from rdfstar2pg.pgraph import Edge, Node
    from rdfstar2pg.transform import ReportEntry, Status

    statement = parse_turtle_star(PICKLED).default[0]
    serialize_statement(statement)  # fills its text slot
    objects = [
        Iri("http://x/a"), BlankNode("b0", original="x"), Literal("1", Iri(XSD_INTEGER)),
        Literal("a", lang="en"), QuotedTriple(statement), statement,
        Node("n:a", {"A"}, {"k": 1}), Edge("e:1", "n:a", "n:a", {"r"}, {}),
        ReportEntry(None, statement, Status.CONVERTED, notes=["a note"]),
    ]
    for item in objects:
        assert not hasattr(item, "__dict__"), type(item).__name__
        assert pickle.loads(pickle.dumps(item)) == item, type(item).__name__


class TestDataset:
    def test_dedup_preserves_first_appearance(self):
        s1 = st(iri("a"), iri("p"), iri("b"))
        s2 = st(iri("c"), iri("p"), iri("d"))
        ds = Dataset([s1, s2, s1])
        assert ds.default == (s1, s2)

    def test_named_graphs_sorted_in_iteration(self):
        s1 = st(iri("a"), iri("p"), iri("b"))
        ds = Dataset([], {Iri(EX + "zzz"): [s1], Iri(EX + "aaa"): [s1]})
        names = [name.value for name, _ in ds.graphs() if name]
        assert names == [EX + "aaa", EX + "zzz"]

    def test_equality_is_set_based(self):
        s1 = st(iri("a"), iri("p"), iri("b"))
        s2 = st(iri("c"), iri("p"), iri("d"))
        assert Dataset([s1, s2]) == Dataset([s2, s1])

    def test_graph_name_must_be_iri(self):
        with pytest.raises(TypeError):
            Dataset([], {"not-an-iri": []})


class TestStatementUnits:
    def test_plain_statements_one_unit_each(self):
        ds = Dataset([st(iri("a"), iri("p"), iri("b")), st(iri("a"), iri("q"), Literal("1"))])
        assert len(statement_units(ds)) == 2

    def test_chain_statements_fold_into_head(self):
        head = BlankNode("b0")
        ds = Dataset(
            [
                st(iri("L"), iri("contents"), head),
                st(head, Iri(RDF_FIRST), Literal("one")),
                st(head, Iri(RDF_REST), Iri(RDF_NIL)),
            ]
        )
        assert len(statement_units(ds)) == 1

    def test_chain_that_nothing_names_is_units(self):
        cell, tail = BlankNode("b0"), BlankNode("b1")
        chain = [
            st(cell, Iri(RDF_FIRST), Literal("one")),
            st(cell, Iri(RDF_REST), tail),
            st(tail, Iri(RDF_FIRST), Literal("two")),
            st(tail, Iri(RDF_REST), Iri(RDF_NIL)),
        ]
        assert statement_units(Dataset(chain)) == [(None, statement) for statement in chain]
        assert folded_chain_statements(chain) == set()
        # named once, in a quoted triple, the whole chain folds
        star = st(QuotedTriple(st(iri("a"), iri("p"), cell)), iri("q"), iri("r"))
        assert folded_chain_statements([star, *chain]) == set(chain)
        assert statement_units(Dataset([star, *chain])) == [(None, star)]

    def test_nested_star_is_its_own_unit(self):
        inner = st(iri("Steve"), iri("position"), Literal("CEO"))
        mid = st(QuotedTriple(inner), iri("mentionedBy"), iri("book"))
        outer = st(QuotedTriple(mid), iri("source"), iri("journal"))
        units = statement_units(Dataset([outer]))
        assert len(units) == 2
        assert units[0][1] == outer and units[1][1] == mid

    def test_singly_nested_star_is_one_unit(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        outer = st(QuotedTriple(inner), iri("q"), Literal("1"))
        assert len(statement_units(Dataset([outer]))) == 1

    def test_embedded_star_statements_walks_both_sides(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        mid = st(QuotedTriple(inner), iri("q"), iri("c"))
        outer = st(QuotedTriple(mid), iri("r"), QuotedTriple(mid))
        assert len(embedded_star_statements(outer)) == 2

    def test_chain_predicate_detection(self):
        assert is_chain_statement(st(BlankNode("b0"), Iri(RDF_FIRST), Literal("x")))
        assert is_chain_statement(st(BlankNode("b0"), Iri(RDF_REST), Iri(RDF_NIL)))
        assert not is_chain_statement(st(iri("a"), Iri(RDF_TYPE), iri("b")))

    def test_a_star_statement_is_never_a_chain_statement(self):
        quoted = QuotedTriple(st(iri("a"), iri("p"), iri("b")))
        for statement in (
            st(quoted, Iri(RDF_FIRST), iri("d")),
            st(BlankNode("b0"), Iri(RDF_REST), quoted),
        ):
            assert not is_chain_statement(statement)
            assert statement_units(Dataset([statement])) == [(None, statement)]


class TestIsomorphic:
    def test_identical(self):
        ds = Dataset([st(iri("a"), iri("p"), iri("b"))])
        assert isomorphic(ds, ds)

    def test_bnode_relabeling(self):
        a = Dataset([st(iri("x"), iri("p"), BlankNode("b0")), st(BlankNode("b0"), iri("q"), iri("y"))])
        b = Dataset([st(iri("x"), iri("p"), BlankNode("zz")), st(BlankNode("zz"), iri("q"), iri("y"))])
        assert isomorphic(a, b)

    def test_structure_difference_detected(self):
        a = Dataset([st(iri("x"), iri("p"), BlankNode("b0")), st(BlankNode("b0"), iri("q"), iri("y"))])
        b = Dataset([st(iri("x"), iri("p"), BlankNode("b0")), st(BlankNode("b1"), iri("q"), iri("y"))])
        assert not isomorphic(a, b)

    def test_bnodes_inside_quoted_triples(self):
        inner_a = st(BlankNode("b0"), iri("p"), iri("b"))
        inner_b = st(BlankNode("c9"), iri("p"), iri("b"))
        a = Dataset([st(QuotedTriple(inner_a), iri("q"), Literal("1")), st(BlankNode("b0"), iri("r"), iri("z"))])
        b = Dataset([st(QuotedTriple(inner_b), iri("q"), Literal("1")), st(BlankNode("c9"), iri("r"), iri("z"))])
        assert isomorphic(a, b)

    def test_named_graphs_must_share_mapping(self):
        g = Iri(EX + "g")
        a = Dataset([st(iri("x"), iri("p"), BlankNode("b0"))], {g: [st(BlankNode("b0"), iri("q"), iri("y"))]})
        # same bnode label used in the named graph refers to a different node here
        b = Dataset([st(iri("x"), iri("p"), BlankNode("b0"))], {g: [st(BlankNode("b1"), iri("q"), iri("y"))]})
        assert not isomorphic(a, b)

    def test_graph_name_mismatch(self):
        s = st(iri("a"), iri("p"), iri("b"))
        a = Dataset([], {Iri(EX + "g1"): [s]})
        b = Dataset([], {Iri(EX + "g2"): [s]})
        assert not isomorphic(a, b)

    def test_a_long_blank_node_chain_is_isomorphic_to_itself(self):
        # a search taking a stack frame per blank node would pass the recursion limit
        nodes = [BlankNode(f"b{i}") for i in range(1100)]
        ds = Dataset([st(a, iri("next"), b) for a, b in zip(nodes, nodes[1:])])
        assert isomorphic(ds, ds)


# Statements over at most six blank nodes, with a quoted subject now and then
FEW_BNODES = [BlankNode(f"b{i}") for i in range(6)]
few_terms = hst.sampled_from(FEW_BNODES + [iri("a"), iri("b")])
few_predicates = hst.sampled_from([iri("p"), iri("q")])
plain_few = hst.builds(st, few_terms, few_predicates, hst.one_of(few_terms, hst.just(Literal("1"))))
few_statements = hst.one_of(
    plain_few, hst.builds(lambda q, p, o: st(QuotedTriple(q), p, o), plain_few, few_predicates, few_terms)
)
few_bnode_datasets = hst.builds(
    lambda default, named: Dataset(default, {iri("g"): named}),
    hst.lists(few_statements, min_size=1, max_size=6),
    hst.lists(few_statements, max_size=3),
)


def relabelled(dataset: Dataset, names: dict) -> Dataset:
    """dataset with each blank node b renamed names[b.label]; quoting is one level deep."""

    def term(t):
        return BlankNode(names[t.label]) if isinstance(t, BlankNode) else t

    def statement(s):
        subject = s.subject
        if isinstance(subject, QuotedTriple):
            q = subject.statement
            subject = QuotedTriple(st(term(q.subject), q.predicate, term(q.object)))
        return st(term(subject), s.predicate, term(s.object))

    return Dataset(
        [statement(s) for s in dataset.default],
        {name: [statement(s) for s in graph] for name, graph in dataset.named.items()},
    )


@settings(max_examples=60, deadline=None)
@given(few_bnode_datasets, hst.permutations(range(6)), hst.integers(min_value=0))
def test_isomorphic_is_true_after_relabelling_and_false_after_one_change(dataset, order, index):
    names = {f"b{i}": f"c{j}" for i, j in enumerate(order)}
    assert isomorphic(dataset, relabelled(dataset, names))
    default = list(dataset.default)
    i = index % len(default)
    default[i] = st(default[i].subject, default[i].predicate, iri("changed"))
    assert not isomorphic(dataset, Dataset(default, dataset.named))
