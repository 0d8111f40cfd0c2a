import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rdfstar2pg.conformance import builtin_corpus
from rdfstar2pg.model import (
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    QuotedTriple,
    Statement,
    isomorphic,
    serialize_statement,
)
from rdfstar2pg.exporters import to_cypher, to_graphml, to_json
from rdfstar2pg.parser import (
    _CHUNK,
    _TOKEN,
    MAX_NESTING,
    ErrorKind,
    ParseError,
    _chunks,
    parse_turtle_star,
    to_turtle_star,
)
from rdfstar2pg.transform import hybrid, pgt, rpt

EX = "@prefix ex: <http://example.org/> .\n"
FILLER = "ex:s ex:p ex:o .\n" * 2000


def only(dataset):
    statements = [st for _, st in dataset.statements()]
    assert len(statements) == 1
    return statements[0]


class TestBasics:
    def test_simple_statement(self):
        st = only(parse_turtle_star(EX + "ex:alice ex:meets ex:bob ."))
        assert st == Statement(
            Iri("http://example.org/alice"),
            Iri("http://example.org/meets"),
            Iri("http://example.org/bob"),
        )

    def test_full_iris(self):
        st = only(parse_turtle_star("<http://a/s> <http://a/p> <http://a/o> ."))
        assert st.subject == Iri("http://a/s")

    def test_comments_ignored(self):
        ds = parse_turtle_star("#Case 1\n" + EX + "ex:a ex:b ex:c . # trailing\n")
        assert len(ds.default) == 1

    def test_a_keyword(self):
        st = only(parse_turtle_star(EX + "ex:alice a ex:Artist ."))
        assert st.predicate == Iri(RDF_TYPE)

    def test_semicolon_lists(self):
        ds = parse_turtle_star(EX + 'ex:a ex:p "1" ;\n  ex:q "2" .')
        assert len(ds.default) == 2
        assert ds.default[0].subject == ds.default[1].subject

    def test_comma_object_lists(self):
        ds = parse_turtle_star(EX + 'ex:a ex:p "1", "2" .')
        assert [st.object.lexical for st in ds.default] == ["1", "2"]

    def test_dangling_semicolon_is_legal(self):
        ds = parse_turtle_star(EX + "ex:a ex:p ex:b ; .")
        assert len(ds.default) == 1

    def test_empty_prefix(self):
        st = only(parse_turtle_star("@prefix : <http://x/> .\n:a :b :c ."))
        assert st.subject == Iri("http://x/a")

    def test_duplicate_statements_dedup(self):
        ds = parse_turtle_star(EX + "ex:a ex:b ex:c .\nex:a ex:b ex:c .")
        assert len(ds.default) == 1

    def test_empty_document(self):
        ds = parse_turtle_star("")
        assert ds.default == () and ds.named == {}


class TestLiterals:
    def test_plain_string(self):
        st = only(parse_turtle_star(EX + 'ex:a ex:p "55" .'))
        assert st.object == Literal("55")

    def test_typed_literal(self):
        src = EX + "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n" + 'ex:a ex:p "100"^^xsd:integer .'
        st = only(parse_turtle_star(src))
        assert st.object == Literal("100", Iri(XSD_INTEGER))

    def test_integer_shorthand(self):
        st = only(parse_turtle_star(EX + "ex:a ex:p 20 ."))
        assert st.object == Literal("20", Iri(XSD_INTEGER))

    def test_negative_integer_shorthand(self):
        st = only(parse_turtle_star(EX + "ex:a ex:p -5 ."))
        assert st.object == Literal("-5", Iri(XSD_INTEGER))

    def test_decimal_shorthand(self):
        st = only(parse_turtle_star(EX + "ex:a ex:p 0.5 ."))
        assert st.object == Literal("0.5", Iri(XSD_DECIMAL))

    def test_leading_dot_decimal(self):
        st = only(parse_turtle_star(EX + "ex:a ex:p .5 ."))
        assert st.object == Literal(".5", Iri(XSD_DECIMAL))

    def test_language_tag(self):
        st = only(parse_turtle_star(EX + 'ex:a ex:p "Bog"@da .'))
        assert st.object.lang == "da"

    def test_string_escapes(self):
        st = only(parse_turtle_star(EX + r'ex:a ex:p "tab\there \"q\" é" .'))
        assert st.object.lexical == 'tab\there "q" é'

    @pytest.mark.parametrize("escape,char", [("\\b", "\b"), ("\\f", "\f"), ("\\'", "'")], ids=["b", "f", "quote"])
    def test_every_echar_escape(self, escape, char):
        # Turtle's ECHAR is \[tbnrf"'\\]; \b and \f are written back as \u0008 and \u000C
        dataset = parse_turtle_star(EX + f'ex:a ex:p "x{escape}y" .')
        assert only(dataset).object.lexical == f"x{char}y"
        assert parse_turtle_star(to_turtle_star(dataset)) == dataset

    def test_lexical_forms_preserved(self):
        # 20 and "20"^^xsd:integer are the same literal; 20 and 020 are not
        ds = parse_turtle_star(EX + "ex:a ex:p 020 .\nex:a ex:p 20 .")
        assert len(ds.default) == 2


class TestBlankNodesAndCollections:
    def test_labelled_bnode_canonicalized(self):
        ds = parse_turtle_star(EX + "ex:a ex:p _:c .\n_:c ex:q ex:b .")
        assert ds.default[0].object == BlankNode("b0")
        assert ds.default[0].object.original == "c"
        assert ds.default[1].subject == BlankNode("b0")

    def test_anonymous_bnodes_distinct(self):
        ds = parse_turtle_star(EX + "ex:a ex:p [] .\nex:b ex:q [] .")
        assert ds.default[0].object != ds.default[1].object

    def test_collection_expands_to_chain(self):
        ds = parse_turtle_star(EX + 'ex:L ex:contents ("one" "two") .')
        preds = [st.predicate.value for st in ds.default]
        assert preds.count(RDF_FIRST) == 2 and preds.count(RDF_REST) == 2
        tail = [st for st in ds.default if st.predicate.value == RDF_REST][-1]
        assert tail.object == Iri(RDF_NIL)

    def test_empty_collection_is_nil(self):
        st = only(parse_turtle_star(EX + "ex:a ex:p () ."))
        assert st.object == Iri(RDF_NIL)


class TestQuotedTriples:
    def test_quoted_subject(self):
        st = only(parse_turtle_star(EX + "<<ex:alice ex:likes ex:bob>> ex:certainty 0.5 ."))
        assert isinstance(st.subject, QuotedTriple)
        assert st.subject.statement.predicate == Iri("http://example.org/likes")

    def test_quoted_object(self):
        st = only(parse_turtle_star(EX + "ex:x ex:source <<ex:m ex:w ex:a>> ."))
        assert isinstance(st.object, QuotedTriple)

    def test_double_nesting(self):
        st = only(
            parse_turtle_star(EX + '<<<<ex:S ex:position "CEO">> ex:mentionedBy ex:book>> ex:source ex:journal .')
        )
        inner = st.subject.statement
        assert isinstance(inner.subject, QuotedTriple)
        assert inner.subject.statement.object == Literal("CEO")

    def test_quoted_on_both_sides(self):
        st = only(parse_turtle_star(EX + "<<ex:a ex:p ex:b>> ex:q <<ex:c ex:r ex:d>> ."))
        assert isinstance(st.subject, QuotedTriple) and isinstance(st.object, QuotedTriple)

    def test_bnode_inside_quote(self):
        st = only(parse_turtle_star(EX + "<<_:x ex:p ex:b>> ex:q ex:c ."))
        assert st.subject.statement.subject == BlankNode("b0")


class TestNamedGraphs:
    def test_graph_block(self):
        ds = parse_turtle_star(EX + "ex:g1 { ex:a ex:b ex:c . ex:a ex:d ex:e }")
        assert len(ds.named) == 1
        name = next(iter(ds.named))
        assert name == Iri("http://example.org/g1")
        assert len(ds.named[name]) == 2

    def test_mixed_default_and_named(self):
        ds = parse_turtle_star(EX + "ex:a ex:b ex:c .\nex:g { ex:d ex:e ex:f . }")
        assert len(ds.default) == 1 and len(ds.named) == 1

    def test_same_graph_reopened_merges(self):
        ds = parse_turtle_star(EX + "ex:g { ex:a ex:b ex:c . }\nex:g { ex:d ex:e ex:f . }")
        assert len(ds.named) == 1
        assert len(ds.named[Iri("http://example.org/g")]) == 2

    def test_full_iri_graph_name(self):
        ds = parse_turtle_star("<http://x/g> { <http://x/a> <http://x/b> <http://x/c> . }")
        assert Iri("http://x/g") in ds.named


class TestErrors:
    def check(self, source, kind, line=None, column=None, fragment=None):
        with pytest.raises(ParseError) as exc_info:
            parse_turtle_star(source)
        err = exc_info.value
        assert err.kind is kind
        if line is not None:
            assert err.line == line
        if column is not None:
            assert err.column == column
        if fragment is not None:
            assert fragment in err.message
        return err

    def test_undefined_prefix(self):
        self.check("ex:a ex:b ex:c .", ErrorKind.UNDEFINED_PREFIX, line=1, column=1, fragment="ex:")

    def test_relative_iri(self):
        self.check("@prefix e: <rel/path> .", ErrorKind.RELATIVE_IRI, line=1, column=12)

    def test_literal_subject_position(self):
        self.check(EX + '"lit" ex:p ex:o .', ErrorKind.SYNTAX, line=2, column=1)

    def test_missing_final_dot(self):
        self.check(EX + "ex:a ex:b ex:c", ErrorKind.SYNTAX)

    def test_unterminated_string(self):
        self.check(EX + 'ex:a ex:b "open .', ErrorKind.LEXICAL)

    def test_unterminated_iri(self):
        self.check("<http://x/a <http://x/b> <http://x/c> .", ErrorKind.LEXICAL)

    def test_bad_escape(self):
        self.check(EX + r'ex:a ex:b "\q" .', ErrorKind.LEXICAL)

    def test_annotation_syntax_unsupported(self):
        self.check(EX + "ex:a ex:b ex:c {| ex:d ex:e |} .", ErrorKind.UNSUPPORTED, line=2, column=16)

    def test_long_strings_unsupported(self):
        self.check(EX + 'ex:a ex:b """long""" .', ErrorKind.UNSUPPORTED)

    def test_base_unsupported(self):
        self.check("@base <http://x/> .", ErrorKind.UNSUPPORTED, line=1, column=1)

    def test_sparql_prefix_unsupported(self):
        self.check("PREFIX ex: <http://x/>", ErrorKind.UNSUPPORTED)

    def test_boolean_shorthand_unsupported(self):
        self.check(EX + "ex:a ex:b true .", ErrorKind.UNSUPPORTED)

    def test_bnode_property_list_unsupported(self):
        self.check(EX + "ex:a ex:b [ ex:c ex:d ] .", ErrorKind.UNSUPPORTED)

    def test_collection_inside_quote_unsupported(self):
        self.check(EX + '<<("a") ex:p ex:o>> ex:q ex:r .', ErrorKind.UNSUPPORTED)

    def test_quoted_triple_inside_collection_unsupported(self):
        source = EX + "ex:s ex:p (\n  ex:a <<ex:a ex:b ex:c>> ) ."
        err = self.check(source, ErrorKind.UNSUPPORTED, line=3, column=8)
        assert err.message == "quoted triples inside collections are not supported"

    def test_quoted_triple_inside_nested_collection_unsupported(self):
        source = EX + "ex:s ex:p ( ( <<ex:a ex:b ex:c>> ) ) ."
        self.check(source, ErrorKind.UNSUPPORTED, line=2, column=15)

    def test_exponent_unsupported(self):
        self.check(EX + "ex:a ex:b 1e2 .", ErrorKind.UNSUPPORTED)

    def test_literal_as_quoted_subject(self):
        self.check(EX + '<<"lit" ex:p ex:o>> ex:q ex:r .', ErrorKind.SYNTAX)

    def test_error_reports_position_of_offending_token(self):
        err = self.check(EX + "ex:a ex:b\nzz:c ex:d .", ErrorKind.UNDEFINED_PREFIX)
        assert (err.line, err.column) == (3, 1)


# Every error site of the scanner, pinned as (id, source, kind, line, column,
# message). Positions inside a token (a bad escape, a newline in a string)
# point at the offending character; every other error points at the token's
# first character. Lines count "\n" only, so a CR is one more column.
LEXER_ERRORS = [
    ("stray_gt", EX + "ex:a ex:b > .", ErrorKind.LEXICAL, 2, 11, "stray '>'"),
    ("stray_gt_after_comment", "# intro <x>\r\n" + EX + "ex:a ex:b ex:c .\r\n  > .", ErrorKind.LEXICAL, 4, 3, "stray '>'"),
    ("unterminated_iri", "# c\n<http://x/a <http://x/b", ErrorKind.LEXICAL, 2, 1, "unterminated IRI reference"),
    ("unterminated_iri_eof", EX + "ex:a ex:b <http://x/c", ErrorKind.LEXICAL, 2, 11, "unterminated IRI reference"),
    ("iri_space", "<http://x/a b> <http://x/p> <http://x/o> .", ErrorKind.LEXICAL, 1, 1, "illegal character inside IRI reference"),
    ("iri_brace", EX + "ex:a ex:b\n\t<http://x/{o}> .", ErrorKind.LEXICAL, 3, 2, "illegal character inside IRI reference"),
    ("iri_control", EX + "ex:a ex:b <http://x/\x01> .", ErrorKind.LEXICAL, 2, 11, "illegal character inside IRI reference"),
    ("iri_escape_newline", EX + "ex:a ex:b <http://x/a\\n> .", ErrorKind.LEXICAL, 2, 22, "unsupported escape sequence \\n"),
    ("iri_escape_big_u", "<http://x/\\U00000061> <http://x/p> <http://x/o> .", ErrorKind.LEXICAL, 1, 11, "unsupported escape sequence \\U"),
    ("iri_escape_backslash_end", "<http://x/\\> <http://x/p> <http://x/o> .", ErrorKind.LEXICAL, 1, 11, "unsupported escape sequence \\>"),
    ("iri_bad_u_escape", EX + "ex:a ex:b <http://x/\\u12> .", ErrorKind.LEXICAL, 2, 21, "bad \\u escape (need 4 hex digits)"),
    ("iri_escape_after_space", "<http://x/a b\\q> <http://x/p> <http://x/o> .", ErrorKind.LEXICAL, 1, 1, "illegal character inside IRI reference"),
    ("iri_escaped_space", EX + "ex:a ex:b <http://x/a\\u0020b> .", ErrorKind.LEXICAL, 2, 22, "escape \\u0020 stands for a character IRIs exclude"),
    ("iri_escaped_gt", EX + "ex:a ex:b\n  <http://x/\\u00e9\\u003e> .", ErrorKind.LEXICAL, 3, 19, "escape \\u003e stands for a character IRIs exclude"),
    ("iri_escaped_backslash", "@prefix ex: <http://x/\\u005C> .", ErrorKind.LEXICAL, 1, 23, "escape \\u005C stands for a character IRIs exclude"),
    ("iri_escaped_surrogate", "<http://x/\\uD800> <http://x/p> <http://x/o> .", ErrorKind.LEXICAL, 1, 11, "escape \\uD800 stands for a character IRIs exclude"),
    ("long_string", EX + 'ex:a ex:b """long""" .', ErrorKind.UNSUPPORTED, 2, 11, "long string literals are not supported"),
    ("newline_in_string", EX + 'ex:a ex:b "ab\ncd" .', ErrorKind.LEXICAL, 2, 14, "newline inside string literal"),
    ("newline_in_string_crlf", EX + 'ex:a ex:b "ab\r\ncd" .', ErrorKind.LEXICAL, 2, 14, "newline inside string literal"),
    ("newline_in_string_cr", EX + 'ex:a ex:b "ab\rcd" .', ErrorKind.LEXICAL, 2, 14, "newline inside string literal"),
    ("bad_u_escape", EX + 'ex:a ex:b "ok \\u12G4" .', ErrorKind.LEXICAL, 2, 15, "bad \\u escape (need 4 hex digits)"),
    ("short_u_escape", EX + 'ex:a ex:b "\\u12', ErrorKind.LEXICAL, 2, 12, "bad \\u escape (need 4 hex digits)"),
    ("unsupported_escape", EX + 'ex:a ex:b "x\\q" .', ErrorKind.LEXICAL, 2, 13, "unsupported escape sequence \\q"),
    ("unterminated_string", EX + 'ex:a ex:b "open .', ErrorKind.LEXICAL, 2, 11, "unterminated string literal"),
    ("string_escaped_surrogate", EX + 'ex:a ex:p "\\uD800" .', ErrorKind.LEXICAL, 2, 12, "escape \\uD800 stands for a character strings exclude"),
    ("string_escaped_low_surrogate", EX + 'ex:a ex:p\n  "ok \\t\\udfff" .', ErrorKind.LEXICAL, 3, 9, "escape \\udfff stands for a character strings exclude"),
    ("string_escaped_surrogate_in_quote", EX + '<<ex:a ex:p "x\\uDBFF\\uDC00">> ex:q ex:r .', ErrorKind.LEXICAL, 2, 15, "escape \\uDBFF stands for a character strings exclude"),
    ("string_raw_surrogate_beside_escape", EX + 'ex:a ex:p "\ud800\\t" .', ErrorKind.LEXICAL, 2, 12, "lone surrogate '\\ud800' inside string literal"),
    ("string_raw_surrogate", '<http://a> <http://b> "x\ud800" .', ErrorKind.LEXICAL, 1, 25, "lone surrogate '\\ud800' inside string literal"),
    ("iri_raw_surrogate", "<http://a\ud800> <http://b> <http://c> .", ErrorKind.LEXICAL, 1, 1, "illegal character inside IRI reference"),
    ("unterminated_string_after_escape", EX + 'ex:a ex:b\n  "a\\"b', ErrorKind.LEXICAL, 3, 3, "unterminated string literal"),
    ("base", "@base <http://x/> .", ErrorKind.UNSUPPORTED, 1, 1, "@base / relative IRIs are not supported"),
    ("base_after_comment", "# header\r\n\r\n  @base <http://x/> .", ErrorKind.UNSUPPORTED, 3, 3, "@base / relative IRIs are not supported"),
    ("bad_lang_tag", EX + 'ex:a ex:b "x"@1 .', ErrorKind.LEXICAL, 2, 14, "bad language tag or directive"),
    ("bare_at", EX + 'ex:a ex:b "x" @ .', ErrorKind.LEXICAL, 2, 15, "bad language tag or directive"),
    ("annotation", EX + "ex:a ex:b ex:c {| ex:d ex:e |} .", ErrorKind.UNSUPPORTED, 2, 16, "annotation syntax {| ... |} is not supported"),
    ("stray_caret", EX + 'ex:a ex:b "1"^xsd:int .', ErrorKind.LEXICAL, 2, 14, "stray '^' (datatype marker is '^^')"),
    ("bad_blank", EX + "_x ex:b ex:c .", ErrorKind.LEXICAL, 2, 1, "bad blank node (expected '_:')"),
    ("blank_label_missing", EX + "_: ex:b ex:c .", ErrorKind.LEXICAL, 2, 1, "blank node label missing"),
    ("blank_label_dash", EX + "ex:a ex:b _:-c .", ErrorKind.LEXICAL, 2, 11, "blank node label missing"),
    ("exponent", EX + "ex:a ex:b 1e2 .", ErrorKind.UNSUPPORTED, 2, 11, "double shorthand (exponent) is not supported"),
    ("exponent_decimal", EX + "ex:a ex:b 12.5E3 .", ErrorKind.UNSUPPORTED, 2, 11, "double shorthand (exponent) is not supported"),
    ("exponent_leading_dot", EX + "ex:a ex:b .5e1 .", ErrorKind.UNSUPPORTED, 2, 11, "double shorthand (exponent) is not supported"),
    ("exponent_signed", EX + "ex:a ex:b -2e1 .", ErrorKind.UNSUPPORTED, 2, 11, "double shorthand (exponent) is not supported"),
    ("true", EX + "ex:a ex:b true .", ErrorKind.UNSUPPORTED, 2, 11, "boolean shorthand is not supported"),
    ("false", EX + "ex:a ex:b\n false .", ErrorKind.UNSUPPORTED, 3, 2, "boolean shorthand is not supported"),
    ("sparql_prefix", "PREFIX ex: <http://x/>", ErrorKind.UNSUPPORTED, 1, 1, "SPARQL-style PREFIX is not supported (use @prefix)"),
    ("sparql_base", "# c\nBASE <http://x/>", ErrorKind.UNSUPPORTED, 2, 1, "SPARQL-style BASE is not supported (use @prefix)"),
    ("graph_keyword", EX + "GRAPH ex:g { ex:a ex:b ex:c }", ErrorKind.UNSUPPORTED, 2, 1, "GRAPH keyword is not supported (use `<name> { ... }`)"),
    ("unexpected_word", EX + "ex:a ex:b foo .", ErrorKind.SYNTAX, 2, 11, "unexpected word 'foo'"),
    ("word_after_number", EX + "ex:a ex:b 12abc .", ErrorKind.SYNTAX, 2, 13, "unexpected word 'abc'"),
    ("prefix_without_colon", "@prefix a <http://x/> .", ErrorKind.SYNTAX, 1, 9, "expected prefix name ending in ':'"),
    ("prefix_namespace_not_iri", "@prefix ex: ex:foo .", ErrorKind.SYNTAX, 1, 13, "expected namespace IRI, got 'ex'"),
    ("unterminated_graph_block", EX + "ex:g { ex:a ex:b ex:c .", ErrorKind.SYNTAX, 2, 24, "unterminated graph block"),
    ("graph_block_missing_dot", EX + "ex:g { ex:a ex:b ex:c ex:d }", ErrorKind.SYNTAX, 2, 23, "expected '.' or '}', got 'ex'"),
    ("blank_predicate", EX + "ex:a _:b ex:c .", ErrorKind.SYNTAX, 2, 6, "predicate must be an IRI"),
    ("datatype_not_iri", EX + 'ex:a ex:b "1"^^"x" .', ErrorKind.SYNTAX, 2, 16, "expected datatype IRI after '^^'"),
    ("lang_string_datatype", EX + "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n" + 'ex:a ex:b "1"^^rdf:langString .', ErrorKind.SYNTAX, 3, 16, "rdf:langString requires a language tag, not '^^'"),
    ("unterminated_collection", EX + "ex:a ex:b ( 1 2", ErrorKind.SYNTAX, 2, 16, "unterminated collection"),
    ("unexpected_char", EX + "ex:a ex:b ex:c é .", ErrorKind.LEXICAL, 2, 16, "unexpected character 'é'"),
    ("unexpected_plus", EX + "ex:a ex:b +x .", ErrorKind.LEXICAL, 2, 11, "unexpected character '+'"),
    ("unexpected_pipe", EX + "ex:a ex:b ex:c |} .", ErrorKind.LEXICAL, 2, 16, "unexpected character '|'"),
    ("malformed_number", EX + "ex:a ex:b ² .", ErrorKind.LEXICAL, 2, 11, "malformed number"),
    ("malformed_number_after_dot", EX + "ex:a ex:b ex:c .²", ErrorKind.LEXICAL, 2, 16, "malformed number"),
    ("bom", "\ufeff\ufeff" + EX + "ex:a ex:b ^ .", ErrorKind.LEXICAL, 2, 11, "stray '^' (datatype marker is '^^')"),
    ("crlf_tabs", "@prefix ex: <http://example.org/> .\r\n\r\nex:a\tex:b\r\n\t\t$ .", ErrorKind.LEXICAL, 4, 3, "unexpected character '$'"),
    ("comment_with_tokens", "# <<unterminated \"string\n" + EX + "ex:a ex:b ex:c . # trailing <x\n?", ErrorKind.LEXICAL, 4, 1, "unexpected character '?'"),
    ("token_inside_comment", EX + "ex:a ex:b ex:c . # <http://x/o> ^\n?", ErrorKind.LEXICAL, 3, 1, "unexpected character '?'"),
    # space before an error must not backtrack exponentially: this row hangs if it does
    ("long_space_run", EX + "ex:a ex:b\n" + " \t" * 20 + "?", ErrorKind.LEXICAL, 3, 41, "unexpected character '?'"),
    ("lexical_after_syntax", EX + "ex:a ex:b ex:c ex:d .\nex:e ex:f ^ .", ErrorKind.LEXICAL, 3, 11, "stray '^' (datatype marker is '^^')"),
    # the scanner runs only two tokens ahead of the parser; a lexical error
    # far past the parser's first error must still win
    ("lexical_2000_statements_after_syntax", EX + "ex:a ex:b ex:c ex:d .\n" + FILLER + "ex:e ex:f ^ .", ErrorKind.LEXICAL, 2003, 11, "stray '^' (datatype marker is '^^')"),
    ("lexical_2000_statements_after_undefined_prefix", EX + "ex:a zz:b ex:c .\n" + FILLER + "ex:e ex:f $ .", ErrorKind.LEXICAL, 2003, 11, "unexpected character '$'"),
    ("lexical_2000_statements_after_unsupported", EX + "ex:a ex:b [ ex:c ex:d ] .\n" + FILLER + '"\\q"', ErrorKind.LEXICAL, 2003, 2, "unsupported escape sequence \\q"),
]


# The scanner reads the text a chunk of about _CHUNK characters at a time.
# Every row whose first line is an @prefix runs again with 5,000 statements
# (about 85 KB) after that line, so that its error sits in a later chunk.
LONG_FILLER = "ex:s ex:p ex:o .\n" * 5000
LEXER_ERRORS_AFTER_FILLER = [
    (f"{name}_after_filler", first + "\n" + LONG_FILLER + rest, kind, line + 5000, column, message)
    for name, source, kind, line, column, message in LEXER_ERRORS
    if source.lstrip("\ufeff").startswith("@prefix ex:") and line > 1
    for first, _, rest in [source.partition("\n")]
]
# The lexical error of each lexical_2000_statements_after_* row, moved two
# chunks past the first error.
TWO_CHUNKS = "ex:s ex:p ex:o .\n" * (2 * _CHUNK // 17 + 1)
LEXER_ERRORS_TWO_CHUNKS_ON = [
    (f"{name}_two_chunks_on", source.replace(FILLER, TWO_CHUNKS), kind, line - 2000 + TWO_CHUNKS.count("\n"), column, message)
    for name, source, kind, line, column, message in LEXER_ERRORS
    if name.startswith("lexical_2000_statements_after_")
]
ALL_LEXER_ERRORS = LEXER_ERRORS + LEXER_ERRORS_AFTER_FILLER + LEXER_ERRORS_TWO_CHUNKS_ON


@pytest.mark.parametrize(
    "source,kind,line,column,message",
    [row[1:] for row in ALL_LEXER_ERRORS],
    ids=[row[0] for row in ALL_LEXER_ERRORS],
)
def test_lexer_error_table(source, kind, line, column, message):
    with pytest.raises(ParseError) as exc_info:
        parse_turtle_star(source)
    err = exc_info.value
    assert (err.kind, err.line, err.column, err.message) == (kind, line, column, message)
    assert str(err) == f"line {line}, column {column}: {message}"


def test_long_rows_cross_chunk_ends():
    for row in LEXER_ERRORS_AFTER_FILLER:
        assert len(list(_chunks(row[1]))) > 1, row[0]
    for name, source, *_ in LEXER_ERRORS_TWO_CHUNKS_ON:
        # the first error is on line 2, the lexical one on the last line
        first, second, _ = _chunks(source)
        assert source.index("\n", len(EX)) < len(first), name
        assert len(first + second) <= source.rindex("\n") + 1, name


def test_graph_name_and_brace_split_by_a_chunk_end():
    # the newline after ex:g is the first one at offset _CHUNK or beyond
    head = EX + "#" + "x" * (_CHUNK - 6 - len(EX)) + "\n"
    source = head + "ex:g\n{ ex:a ex:b ex:c . }\n"
    assert next(_chunks(source)) == head + "ex:g\n"
    dataset = parse_turtle_star(source)
    assert dataset.default == ()
    assert dataset.named == {
        Iri("http://example.org/g"): (
            Statement(Iri("http://example.org/a"), Iri("http://example.org/b"), Iri("http://example.org/c")),
        )
    }


class TestIriEscapes:
    def test_an_escaped_iri_is_the_iri_it_spells(self):
        source = EX + "ex:s ex:p ex:ab . ex:s ex:p <http://example.org/a\\u0062> ."
        assert len(parse_turtle_star(source).default) == 1

    def test_escapes_decode_in_every_iri_position(self):
        escaped = parse_turtle_star(
            "@prefix ex: <http://example.org/\\u0065x/> .\n"
            "ex:a <http://example.org/ex/caf\\u00E9> <http://example.org/ex/\\u00e9t\\u00E9> ."
        )
        plain = parse_turtle_star(
            "<http://example.org/ex/a> <http://example.org/ex/caf\u00e9> <http://example.org/ex/\u00e9t\u00e9> ."
        )
        assert escaped.default == plain.default

    def test_decoded_iris_serialize_to_parseable_text(self):
        dataset = parse_turtle_star(EX + "ex:a ex:p <http://example.org/\\u00e9\\u007e> .")
        text = to_turtle_star(dataset)
        assert "<http://example.org/\u00e9~>" in text
        assert parse_turtle_star(text).default == dataset.default


class TestStringEscapes:
    def test_escapes_beside_the_surrogates_decode(self):
        dataset = parse_turtle_star(EX + 'ex:a ex:p "\\uD7FF\\uE000\\uFFFD" .')
        assert dataset.default[0].object.lexical == "\ud7ff\ue000\ufffd"


def quoted_as_subject(depth):
    return EX + "<< " * depth + "ex:a ex:p ex:b" + " >> ex:p ex:b" * (depth - 1) + " >> ex:q ex:c .\n"


def quoted_as_object(depth):
    return EX + "ex:a ex:p << " * depth + "ex:a ex:p ex:b" + " >>" * depth + " .\n"


class TestNestingCap:
    @pytest.mark.parametrize("build", [quoted_as_subject, quoted_as_object])
    @pytest.mark.parametrize("approach", [rpt, pgt, hybrid])
    def test_deepest_accepted_nesting_converts(self, build, approach):
        dataset = parse_turtle_star(build(MAX_NESTING))
        graph, report = approach(dataset)
        # the asserted statement plus every embedded star statement
        assert report.total == MAX_NESTING
        for export in (to_json, to_graphml, to_cypher):
            assert export(graph)

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2000])
    @pytest.mark.parametrize("build", [quoted_as_subject, quoted_as_object])
    def test_one_level_deeper_is_refused_at_that_quote(self, build, depth):
        source = build(depth)
        offending = 0
        for _ in range(MAX_NESTING + 1):
            offending = source.index("<<", offending + 1)
        with pytest.raises(ParseError) as exc_info:
            parse_turtle_star(source)
        err = exc_info.value
        assert err.kind is ErrorKind.UNSUPPORTED
        assert (err.line, err.column) == (2, offending - len(EX) + 1)
        assert str(MAX_NESTING) in err.message

    def test_deep_collections_are_refused(self):
        source = EX + "ex:a ex:p " + "(" * 2000 + ")" * 2000 + " ."
        with pytest.raises(ParseError) as exc_info:
            parse_turtle_star(source)
        assert exc_info.value.kind is ErrorKind.UNSUPPORTED
        assert exc_info.value.column == len("ex:a ex:p ") + MAX_NESTING + 1

    def test_nesting_limit_is_per_term(self):
        # sibling quoted triples and collections do not add up
        deep = "<< " * MAX_NESTING + "ex:a ex:p ex:b" + " >> ex:p ex:b" * (MAX_NESTING - 1) + " >>"
        lists = ", ".join(['("x")'] * (MAX_NESTING + 1))
        dataset = parse_turtle_star(EX + f"{deep} ex:q {deep} .\n{deep} ex:r ex:c .\nex:l ex:p {lists} .")
        assert len(dataset.default) == 2 + (MAX_NESTING + 1) * 3


class TestScannerBranches:
    """Inputs where the scanner's branches meet: each branch starts with a
    character or a class, so a prefixed name, the bare ':', a number and the
    statement's '.' must still cut apart as before."""

    def test_a_prefix_named_a_beside_the_a_keyword(self):
        st = only(parse_turtle_star("@prefix a: <http://a.example/> .\na:s a a:C ."))
        assert st == Statement(Iri("http://a.example/s"), Iri(RDF_TYPE), Iri("http://a.example/C"))

    def test_the_bare_empty_prefix_in_each_position(self):
        iri = Iri("http://e.example/x")
        dataset = parse_turtle_star(
            '@prefix : <http://e.example/x> .\n: : : .\n: : "v"^^: .\n<< : : : >> : (:) .\n: { : : :.}\n'
        )
        first, rest, nil = Iri(RDF_FIRST), Iri(RDF_REST), Iri(RDF_NIL)
        cell = BlankNode("b0")
        assert dataset.default == (
            Statement(iri, iri, iri),
            Statement(iri, iri, Literal("v", iri)),
            Statement(QuotedTriple(Statement(iri, iri, iri)), iri, cell),
            Statement(cell, first, iri),
            Statement(cell, rest, nil),
        )
        assert dataset.named == {iri: (Statement(iri, iri, iri),)}

    def test_a_prefix_only_name_as_object(self):
        assert only(parse_turtle_star(EX + "ex:s ex:p ex: .")).object == Iri("http://example.org/")

    @pytest.mark.parametrize(
        "number,literal",
        [("5.", Literal("5", Iri(XSD_INTEGER))), (".5 .", Literal(".5", Iri(XSD_DECIMAL))),
         ("-.5 .", Literal("-.5", Iri(XSD_DECIMAL))), ("+5.", Literal("+5", Iri(XSD_INTEGER))),
         ("5.0.", Literal("5.0", Iri(XSD_DECIMAL))), ('"5".', Literal("5", Iri(XSD_STRING)))],
    )
    def test_a_number_before_the_statement_dot(self, number, literal):
        assert only(parse_turtle_star(EX + "ex:s ex:p " + number)).object == literal


# _TOKEN as it was before its branches were reordered to each start with a
# character or a class, kept to show that the order changes no lexeme.
REFERENCE_TOKEN = re.compile(
    r"[ \t\n]*(?:\#[^\n]*(?:\n|\Z)[ \t\n]*)*(?![ \t\n\#])"
    + r"""(
    (?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?
  | <<|>>|\^\^|[;,()\[\]}]|\.(?!\d)|\{(?!\|)
  | "(?!"")[^"\\\n\ud800-\udfff]*(?:\\(?:[tbnrf"'\\]|u[0-9A-Fa-f]{4})[^"\\\n\ud800-\udfff]*)*"
  | <[^\x00-\x20<>"{}|^`\\\ud800-\udfff]*(?:\\u[0-9A-Fa-f]{4}[^\x00-\x20<>"{}|^`\\\ud800-\udfff]*)*>
  | [+-]?(?:\d+\.\d+|\d+(?!\.\d)|\.\d+)(?![\deE])
  | @(?!prefix|base)[a-zA-Z]+(?:-[a-zA-Z0-9]+)*
  | _:[A-Za-z0-9_][A-Za-z0-9_\-]*
  | a(?![A-Za-z0-9_\-:])
  | @prefix
  | \Z
  | [\s\S]+
)""",
    re.VERBOSE,
)

# Pieces of Turtle-star, well-formed and not, that meet at a branch: joined
# at random, they put every pair of branches side by side.
SCANNER_PIECES = [
    "ex:", ":", "a", "a:", "ab:c", "a-b:_x", "A9:", "_:", "_:b", "_:b-1", "_", ".", ".5", "5.", "5", "55",
    "+", "-", "-.5", "+5.0", "1.2.3", "12.5e3", "1e", "E", "@en", "@en-GB", "@", "@prefix", "@base",
    "@prefixx", "<", ">", "<<", ">>", "<http://x/>", "<a b>", "<\\u0041>", '"', '"x"', '""', '"""', '"\\u0041"',
    "\\", "^^", "^", "{", "{|", "|}", "}", "(", ")", "[", "]", ";", ",", " ", "\t", "\n", "#", "# c\n", "é",
    "true", "PREFIX", "\x00", "\ud800",
]


def reference_lexemes(text: str) -> list:
    return [REFERENCE_TOKEN.findall(chunk) for chunk in _chunks(text)]


def lexemes(text: str) -> list:
    return [_TOKEN.findall(chunk) for chunk in _chunks(text)]


def test_the_branch_order_changes_no_lexeme_of_the_corpus():
    sources = [case.source for case in builtin_corpus()]
    assert len(sources) == 23
    for source in sources:
        assert lexemes(source) == reference_lexemes(source)


@settings(max_examples=500, deadline=None)
@given(hst.lists(hst.one_of(hst.sampled_from(SCANNER_PIECES), hst.text(max_size=3)), max_size=40).map("".join))
def test_the_branch_order_changes_no_lexeme_of_generated_text(text):
    assert lexemes(text) == reference_lexemes(text)


class TestRoundTrip:
    CASES = [
        EX + "ex:alice ex:meets ex:bob .",
        EX + 'ex:book ex:date "1963-03-22"^^<http://www.w3.org/2001/XMLSchema#date> .',
        EX + 'ex:a ex:p "x"@en .',
        EX + "ex:a ex:p _:c .\n_:c ex:q ex:b .",
        EX + 'ex:L ex:contents ("one" "two" "three") .',
        EX + "<<ex:alice ex:likes ex:bob>> ex:certainty 0.5 .",
        EX + '<<<<ex:S ex:position "CEO">> ex:mentionedBy ex:book>> ex:source ex:journal .',
        EX + "ex:g1 { ex:a ex:b ex:c . }\nex:g2 { ex:d ex:e ex:f . }",
        EX + 'ex:a ex:p "say \\"hi\\"\\n" .',
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_parse_serialize_parse_isomorphic(self, source):
        ds = parse_turtle_star(source)
        again = parse_turtle_star(to_turtle_star(ds))
        assert isomorphic(ds, again)

    def test_serializer_is_deterministic_for_a_dataset(self):
        ds = parse_turtle_star(EX + "ex:d ex:e ex:f .\nex:a ex:b ex:c .")
        assert to_turtle_star(ds) == to_turtle_star(ds)
        # statements come out in dataset order
        lines = to_turtle_star(ds).splitlines()
        assert lines[0].startswith("<http://example.org/d>")


class TestSerializeStatement:
    def test_statement_text_is_stable(self):
        st = only(parse_turtle_star(EX + "ex:alice ex:meets ex:bob ."))
        assert serialize_statement(st) == (
            "<http://example.org/alice> <http://example.org/meets> <http://example.org/bob>"
        )


def mixed_document(count: int) -> str:
    """count distinct statements of every kind the parser reads, some quoted."""
    lines = [EX, "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"]
    for i in range(count // 5):
        lines.append(
            f"ex:s{i} ex:knows ex:s{i + 1} ; a ex:Person ;\n"
            f'    ex:name "n\\t{i}"@en ; ex:age {i} .\n'
            f"<<ex:s{i} ex:knows ex:s{i + 1}>> ex:since \"{i}.5\"^^xsd:decimal .\n"
        )
    return "".join(lines)


def test_parse_peaks_near_what_the_dataset_keeps():
    # a token list of the whole document puts the peak at about 3.4 times this
    text = mixed_document(5000)
    tracemalloc.start()
    try:
        dataset = parse_turtle_star(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 5000
    assert peak <= 2 * kept, (peak, kept)
