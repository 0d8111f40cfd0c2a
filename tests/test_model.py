import pytest

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
    is_chain_statement,
    is_star,
    isomorphic,
    local_name,
    quote_depth,
    serialize_statement,
    statement_sort_key,
    statement_units,
)

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
        assert statement_sort_key(a) < statement_sort_key(b)

    def test_quoted_serialization(self):
        inner = st(iri("a"), iri("p"), iri("b"))
        outer = st(QuotedTriple(inner), iri("q"), Literal("1"))
        assert serialize_statement(outer).startswith("<< <")


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
