"""Turtle-star scanner and recursive-descent parser.

Supported surface: @prefix directives, prefixed names, absolute IRIs (their
\\uXXXX escapes decoded), string literals with ^^datatype or @lang,
integer/decimal shorthand, predicate lists (;), object lists (,), the `a`
keyword, labeled and anonymous blank nodes, collections (expanded to
rdf:first/rdf:rest/rdf:nil chains), quoted triples << s p o >>, and
named-graph blocks `<name> { ... }`. Quoted triples and collections nest at
most MAX_NESTING (128) levels, counted together; the first '<<' or '(' past
that is an UnsupportedConstruct error.

Everything else fails loudly with a positioned ParseError; nothing is ever
guessed at. In particular @base/relative IRIs, annotation syntax {| ... |},
non-empty blank-node property lists, long strings, and numeric double
shorthand are out of scope.

The scanner is one compiled pattern of named alternatives, matched once per
token at the current offset, with space and comments as its prefix. Tokens
carry only their source offset; line and column are worked out when an
error is raised. When no alternative matches, _lex_error explains why at
the offending character. The whole document is scanned before parsing, so a
lexical error anywhere wins over a syntax error before it.

Blank nodes are relabeled b0, b1, ... in order of first appearance; the
source label survives on BlankNode.original. Each graph is deduplicated with
set semantics. File extension makes no difference to parsing.

Terms are shared within a document: the parser builds one Iri per resolved
IRI string, one Literal per (lexical, datatype, language) and one BlankNode
per source label, and hands out that object at every later occurrence. Each
carries its hash, and each statement its canonical text once asked for (see
model), so lookups downstream find the identical object at once. The shared
terms belong to one parse; nothing is kept between documents.
"""

from __future__ import annotations

import enum
import re
from typing import Optional

from .model import (
    MAX_NESTING,
    RDF_FIRST,
    RDF_LANG_STRING,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Dataset,
    Iri,
    Literal,
    QuotedTriple,
    Statement,
    _gc_paused,
    serialize_statement,
)


class ErrorKind(enum.Enum):
    LEXICAL = "Lexical"
    SYNTAX = "Syntax"
    UNDEFINED_PREFIX = "UndefinedPrefix"
    RELATIVE_IRI = "RelativeIri"
    UNSUPPORTED = "UnsupportedConstruct"


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int, kind: ErrorKind):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.kind = kind


_ABSOLUTE_IRI = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# Token kinds
IRIREF = "IRIREF"
PNAME = "PNAME"
BLANK = "BLANK"
STRING = "STRING"
INTEGER = "INTEGER"
DECIMAL = "DECIMAL"
LANGTAG = "LANGTAG"
PREFIX_KW = "PREFIX_KW"
A_KW = "A_KW"
EOF = "EOF"
# punctuation tokens use their surface text as kind: . ; , ( ) [ ] { } << >> ^^


class Token:
    __slots__ = ("kind", "value", "start", "extra")

    def __init__(self, kind, value, start, extra=None):
        self.kind = kind
        self.value = value
        self.start = start  # offset into the (BOM-stripped) source text
        self.extra = extra

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


# Whitespace and comments. Each iteration takes a maximal run or a whole
# comment, so a failed token match cannot backtrack into them: it neither
# finds a token inside a comment nor retries every split of a long run.
_SPACE = r"(?:[ \t\r\n]+(?![ \t\r\n])|\#[^\n]*(?![^\n]))*"

# One token after optional space; the named group is the token class. Each
# alternative accepts exactly the tokens of the surface in the module
# docstring, so a failed match always means a lexical error, which _lex_error
# then explains. The lookaheads make a NUMBER the longest run of digits, so
# "12.5e3" fails as an exponent instead of scanning as "12".
_TOKEN = re.compile(
    _SPACE
    + r"""(?:
    (?P<PNAME>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?)
  | (?P<PUNCT><<|>>|\^\^|[;,()\[\]}]|\.(?!\d)|\{(?!\|))
  | (?P<STRING>"(?!"")[^"\\\n]*(?:\\(?:[tnr"\\]|u[0-9A-Fa-f]{4})[^"\\\n]*)*")
  | (?P<IRIREF><[^\x00-\x20<>"{}|^`\\]*(?:\\u[0-9A-Fa-f]{4}[^\x00-\x20<>"{}|^`\\]*)*>)
  | (?P<NUMBER>[+-]?(?:\d+\.\d+|\d+(?!\.\d)|\.\d+)(?![\deE]))
  | (?P<LANGTAG>@(?!prefix|base)[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
  | (?P<BLANK>_:[A-Za-z0-9_][A-Za-z0-9_\-]*)
  | (?P<A_KW>a(?![A-Za-z0-9_\-:]))
  | (?P<PREFIX_KW>@prefix)
  | (?P<EOF>\Z)
)""",
    re.VERBOSE,
)
_SKIP_SPACE = re.compile(_SPACE)
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|(.))")
_ESCAPED = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
# What an IRI may not hold: IRIREF's exclusions, and the surrogates that no
# UTF-8 output can carry.
_IRI_EXCLUDED = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')

_BARE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
_NUMBER = re.compile(r"[+-]?(?:\d+\.\d+|\.\d+|\d+)")
_HEX4 = re.compile(r"[0-9A-Fa-f]{4}")


def _unescape(match) -> str:
    code, char = match.groups()
    return chr(int(code, 16)) if code else _ESCAPED[char]


def _error_at(text: str, offset: int, message: str, kind: ErrorKind) -> ParseError:
    """A ParseError at a source offset; line and column are 1-based."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset), kind)


def _tokenize(text: str) -> list:
    """All tokens of `text`, ending in two EOF tokens (the parser looks one ahead)."""
    out = []
    append = out.append
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:
            raise _lex_error(text, pos)
        kind = m.lastgroup
        lexeme = m.group(kind)
        pos = m.end()
        start = pos - len(lexeme)
        if kind == "PNAME":
            prefix, _, local = lexeme.partition(":")
            append(Token(PNAME, prefix, start, local))
        elif kind == "PUNCT":
            append(Token(lexeme, lexeme, start))
        elif kind == "STRING":
            value = lexeme[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            append(Token(STRING, value, start))
        elif kind == "IRIREF":
            value = lexeme[1:-1]
            if "\\" in value:  # only \uXXXX escapes match
                value = _ESCAPE.sub(_unescape, value)
                if _IRI_EXCLUDED.search(value):
                    raise _iri_error(text, start)
            append(Token(IRIREF, value, start))
        elif kind == "NUMBER":
            append(Token(DECIMAL if "." in lexeme else INTEGER, lexeme, start))
        elif kind == "LANGTAG":
            append(Token(LANGTAG, lexeme[1:], start))
        elif kind == "BLANK":
            append(Token(BLANK, lexeme[2:], start))
        elif kind == "EOF":
            eof = Token(EOF, "", start)
            out += (eof, eof)
            return out
        else:  # A_KW, PREFIX_KW
            append(Token(kind, lexeme, start))


def _lex_error(text: str, pos: int) -> ParseError:
    """Explain why no token starts at `pos` (after any space and comments)."""
    pos = _SKIP_SPACE.match(text, pos).end()
    ch = text[pos]
    unsupported = ErrorKind.UNSUPPORTED

    def error(message, offset=pos, kind=ErrorKind.LEXICAL):
        return _error_at(text, offset, message, kind)

    if ch.isdigit() and text[pos - 1 : pos] == ".":
        # a '.' before any digit starts a number; one that \d does not match
        # (such as '²') leaves it malformed, reported at the '.'
        return error("malformed number", pos - 1)
    if ch == "<":
        return _iri_error(text, pos)
    if ch == ">":
        return error("stray '>'")
    if text.startswith("{|", pos):
        return error("annotation syntax {| ... |} is not supported", kind=unsupported)
    if ch == "^":
        return error("stray '^' (datatype marker is '^^')")
    if ch == '"':
        return _string_error(text, pos)
    if ch == "@":
        if text.startswith("@base", pos):
            return error("@base / relative IRIs are not supported", kind=unsupported)
        return error("bad language tag or directive")
    if ch == "_":
        if not text.startswith("_:", pos):
            return error("bad blank node (expected '_:')")
        return error("blank node label missing")
    number = _NUMBER.match(text, pos)
    if ch.isdigit() or (ch in "+-." and number):
        if not number:
            return error("malformed number")
        return error("double shorthand (exponent) is not supported", kind=unsupported)
    bare = _BARE.match(text, pos)
    if bare:
        word = bare.group(0)
        if word in ("true", "false"):
            return error("boolean shorthand is not supported", kind=unsupported)
        if word in ("PREFIX", "BASE"):
            return error(f"SPARQL-style {word} is not supported (use @prefix)", kind=unsupported)
        if word == "GRAPH":
            return error("GRAPH keyword is not supported (use `<name> { ... }`)", kind=unsupported)
        return error(f"unexpected word {word!r}", kind=ErrorKind.SYNTAX)
    return error(f"unexpected character {ch!r}")


def _iri_error(text: str, start: int) -> ParseError:
    """The first fault of the IRI reference opening at `start`."""
    if text.find(">", start + 1) < 0:
        return _error_at(text, start, "unterminated IRI reference", ErrorKind.LEXICAL)
    pos = start + 1
    while text[pos] != ">":
        if text[pos] == "\\":
            esc = text[pos + 1 : pos + 2]
            if esc != "u":
                return _error_at(text, pos, f"unsupported escape sequence \\{esc}", ErrorKind.LEXICAL)
            if not _HEX4.match(text, pos + 2):
                return _error_at(text, pos, "bad \\u escape (need 4 hex digits)", ErrorKind.LEXICAL)
            if _IRI_EXCLUDED.match(chr(int(text[pos + 2 : pos + 6], 16))):
                message = f"escape {text[pos : pos + 6]} stands for a character IRIs exclude"
                return _error_at(text, pos, message, ErrorKind.LEXICAL)
            pos += 6
        elif _IRI_EXCLUDED.match(text, pos):
            break
        else:
            pos += 1
    return _error_at(text, start, "illegal character inside IRI reference", ErrorKind.LEXICAL)


def _string_error(text: str, start: int) -> ParseError:
    """The first fault of the string literal opening at `start`."""
    if text.startswith('"""', start):
        return _error_at(text, start, "long string literals are not supported", ErrorKind.UNSUPPORTED)
    pos = start + 1
    # no '"' is met before the fault: a closed string would have matched
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            return _error_at(text, pos, "newline inside string literal", ErrorKind.LEXICAL)
        if ch == "\\":
            esc = text[pos + 1 : pos + 2]
            if esc == "u":
                if not _HEX4.match(text, pos + 2):
                    return _error_at(text, pos, "bad \\u escape (need 4 hex digits)", ErrorKind.LEXICAL)
                pos += 6
                continue
            if esc not in _ESCAPED:
                return _error_at(text, pos, f"unsupported escape sequence \\{esc}", ErrorKind.LEXICAL)
            pos += 2
            continue
        pos += 1
    return _error_at(text, start, "unterminated string literal", ErrorKind.LEXICAL)


class _Parser:
    def __init__(self, text: str):
        self.text = text.lstrip("\ufeff")
        self.toks = _tokenize(self.text)
        self.i = 0
        self.depth = 0  # << >> and ( ) nesting of the term in flight
        self.prefixes: dict = {}
        self.bnode_map: dict = {}  # source label -> BlankNode
        self.bnode_counter = 0
        self.iris: dict = {}  # resolved IRI string -> Iri
        self.literals: dict = {}  # (lexical, datatype, lang) -> Literal
        self.pending: list = []  # collection-chain statements of the statement in flight
        self.default: list = []
        self.named: dict = {}

    # --- token helpers ---

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def next(self) -> Token:
        # every caller that consumes an EOF raises at once, so the index never
        # passes the second EOF
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            self.error(f"expected {what}, got {tok.value!r}", tok)
        return tok

    def error(self, message: str, tok: Token, kind: ErrorKind = ErrorKind.SYNTAX):
        raise _error_at(self.text, tok.start, message, kind)

    # --- shared terms and blank nodes ---

    def _iri(self, value: str) -> Iri:
        term = self.iris.get(value)
        if term is None:
            term = self.iris[value] = Iri(value)
        return term

    def _iriref(self, tok: Token) -> Iri:
        # every string in self.iris is absolute: checked here, or a checked
        # @prefix namespace with a local name after it
        if tok.value not in self.iris:
            self._check_absolute(tok)
        return self._iri(tok.value)

    def _pname(self, tok: Token) -> Iri:
        namespace = self.prefixes.get(tok.value)
        if namespace is None:
            self.error(f"undefined prefix '{tok.value}:'", tok, ErrorKind.UNDEFINED_PREFIX)
        return self._iri(namespace + tok.extra)

    def _literal(self, lexical: str, datatype: str, lang: Optional[str] = None) -> Literal:
        key = (lexical, datatype, lang)
        term = self.literals.get(key)
        if term is None:
            term = self.literals[key] = Literal(lexical, self._iri(datatype), lang)
        return term

    def _labeled_bnode(self, original: str) -> BlankNode:
        term = self.bnode_map.get(original)
        if term is None:
            term = self.bnode_map[original] = BlankNode(f"b{self.bnode_counter}", original=original)
            self.bnode_counter += 1
        return term

    def _fresh_bnode(self) -> BlankNode:
        label = f"b{self.bnode_counter}"
        self.bnode_counter += 1
        return BlankNode(label)

    # --- grammar ---

    def parse(self) -> Dataset:
        while True:
            tok = self.peek()
            if tok.kind == EOF:
                break
            if tok.kind == PREFIX_KW:
                self._prefix_directive()
                continue
            # graph block vs ordinary triples: a single IRI term followed by '{'
            if tok.kind in (IRIREF, PNAME) and self._starts_graph_block():
                self._graph_block()
                continue
            statements = self._triples(in_block=False)
            self.expect(".", "'.' after statement")
            self.default.extend(statements)
        return Dataset(self.default, self.named)

    def _starts_graph_block(self) -> bool:
        return self.peek(1).kind == "{"

    def _prefix_directive(self) -> None:
        self.next()  # @prefix
        tok = self.next()
        if tok.kind != PNAME or tok.extra:
            self.error("expected prefix name ending in ':'", tok)
        iri_tok = self.expect(IRIREF, "namespace IRI")
        self._check_absolute(iri_tok)
        self.expect(".", "'.' after @prefix directive")
        self.prefixes[tok.value] = iri_tok.value

    def _check_absolute(self, tok: Token) -> None:
        if not _ABSOLUTE_IRI.match(tok.value):
            self.error(f"relative IRI <{tok.value}> (no @base support)", tok, ErrorKind.RELATIVE_IRI)

    def _graph_block(self) -> None:
        name = self._term(position="graph name")
        if not isinstance(name, Iri):
            self.error("graph name must be an IRI", self.peek())
        self.expect("{", "'{'")
        statements = self.named.setdefault(name, [])
        while True:
            tok = self.peek()
            if tok.kind == "}":
                self.next()
                break
            if tok.kind == EOF:
                self.error("unterminated graph block", tok)
            statements.extend(self._triples(in_block=True))
            sep = self.peek()
            if sep.kind == ".":
                self.next()
            elif sep.kind != "}":
                self.error(f"expected '.' or '}}', got {sep.value!r}", sep)

    def _triples(self, in_block: bool) -> list:
        self.pending = []
        first_tok = self.peek()
        subject = self._term(position="subject")
        if isinstance(subject, Literal):
            self.error("literal cannot be the subject of a statement", first_tok)
        statements = []
        self._predicate_object_list(subject, statements)
        return statements + self.pending

    def _predicate_object_list(self, subject, statements: list) -> None:
        while True:
            predicate = self._verb()
            while True:
                obj = self._term(position="object")
                statements.append(Statement(subject, predicate, obj))
                if self.peek().kind == ",":
                    self.next()
                    continue
                break
            if self.peek().kind == ";":
                # swallow repeats; a dangling ';' before the terminator is legal
                while self.peek().kind == ";":
                    self.next()
                if self.peek().kind in (".", "}"):
                    return
                continue
            return

    def _verb(self) -> Iri:
        tok = self.peek()
        if tok.kind == A_KW:
            self.next()
            return self._iri(RDF_TYPE)
        term = self._term(position="predicate")
        if not isinstance(term, Iri):
            self.error("predicate must be an IRI", tok)
        return term

    def _term(self, position: str):
        tok = self.next()
        if tok.kind == IRIREF:
            return self._iriref(tok)
        if tok.kind == PNAME:
            return self._pname(tok)
        if tok.kind == BLANK:
            return self._labeled_bnode(tok.value)
        if tok.kind == "[":
            close = self.next()
            if close.kind != "]":
                self.error(
                    "blank node property lists [ ... ] are not supported (only anonymous [])",
                    close,
                    ErrorKind.UNSUPPORTED,
                )
            return self._fresh_bnode()
        if tok.kind == STRING:
            return self._literal_tail(tok)
        if tok.kind == INTEGER:
            return self._literal(tok.value, XSD_INTEGER)
        if tok.kind == DECIMAL:
            return self._literal(tok.value, XSD_DECIMAL)
        if tok.kind == "<<":
            if position == "collection element":
                self.error(
                    "quoted triples inside collections are not supported",
                    tok,
                    ErrorKind.UNSUPPORTED,
                )
            return self._quoted(tok)
        if tok.kind == "(":
            return self._collection(tok, position)
        self.error(f"expected {position}, got {tok.value!r}", tok)

    def _literal_tail(self, tok: Token) -> Literal:
        nxt = self.peek()
        if nxt.kind == LANGTAG:
            self.next()
            return self._literal(tok.value, RDF_LANG_STRING, nxt.value)
        if nxt.kind == "^^":
            self.next()
            dt_tok = self.next()
            if dt_tok.kind == IRIREF:
                dt = self._iriref(dt_tok).value
            elif dt_tok.kind == PNAME:
                dt = self._pname(dt_tok).value
            else:
                self.error("expected datatype IRI after '^^'", dt_tok)
            if dt == RDF_LANG_STRING:
                self.error("rdf:langString requires a language tag, not '^^'", dt_tok)
            return self._literal(tok.value, dt)
        return self._literal(tok.value, XSD_STRING)

    def _enter(self, open_tok: Token) -> None:
        # << >> and ( ) terms count together against model.MAX_NESTING, so
        # deep input is refused at the offending '<<' or '(' with a position,
        # before the parser's own recursion or QuotedTriple's check can fail.
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(
                f"terms nested deeper than {MAX_NESTING} levels are not supported",
                open_tok,
                ErrorKind.UNSUPPORTED,
            )

    def _quoted(self, open_tok: Token) -> QuotedTriple:
        self._enter(open_tok)
        subject = self._term(position="quoted subject")
        if isinstance(subject, Literal):
            self.error("literal cannot be the subject of a quoted triple", open_tok)
        predicate = self._verb()
        obj = self._term(position="quoted object")
        self.expect(">>", "'>>'")
        self.depth -= 1
        return QuotedTriple(Statement(subject, predicate, obj))

    def _collection(self, open_tok: Token, position: str):
        if position.startswith("quoted"):
            self.error(
                "collections inside quoted triples are not supported",
                open_tok,
                ErrorKind.UNSUPPORTED,
            )
        self._enter(open_tok)
        elements = []
        while True:
            tok = self.peek()
            if tok.kind == ")":
                self.next()
                break
            if tok.kind == EOF:
                self.error("unterminated collection", tok)
            elements.append(self._term(position="collection element"))
        self.depth -= 1
        if not elements:
            return self._iri(RDF_NIL)
        cells = [self._fresh_bnode() for _ in elements]
        first, rest = self._iri(RDF_FIRST), self._iri(RDF_REST)
        for idx, element in enumerate(elements):
            self.pending.append(Statement(cells[idx], first, element))
            tail = cells[idx + 1] if idx + 1 < len(cells) else self._iri(RDF_NIL)
            self.pending.append(Statement(cells[idx], rest, tail))
        return cells[0]


@_gc_paused
def parse_turtle_star(text: str) -> Dataset:
    """Parse a Turtle-star document (TriG-style graph blocks allowed)."""
    return _Parser(text).parse()


def parse_file(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_turtle_star(handle.read())


def to_turtle_star(dataset: Dataset) -> str:
    """Serialize a dataset so parse_turtle_star(to_turtle_star(d)) ~ d.

    Emits full IRIs and explicit datatypes; round-trips are equal up to
    blank-node relabeling (the parser re-canonicalizes labels).
    """
    lines = []
    for st in dataset.default:
        lines.append(serialize_statement(st) + " .")
    for name in sorted(dataset.named, key=lambda iri: iri.value):
        lines.append(f"<{name.value}> {{")
        for st in dataset.named[name]:
            lines.append("    " + serialize_statement(st) + " .")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
