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

The scanner is one compiled pattern, one alternative per token class, with
space and comments as its prefix. No two token alternatives match at the
same place, so their order changes no lexeme, only speed; only the one
that takes the rest of a chunk where no token matches must come last.
Each alternative starts with a character or a character class, never with
an optional or repeated part, so `re` skips it on the lexeme's first
character without entering it: a prefixed name is two alternatives (with
a prefix, and bare ':'), a number three (unsigned, signed and '.'-led),
and the frequent statement '.' comes first among the punctuation.

The text is cut into chunks of about 64 KB (_CHUNK), each ending at a
newline, which no token spans. One `findall` per chunk returns the chunk's
lexemes as plain strings, and the parser reads them by index and
dispatches on each lexeme itself; IRIs, prefixed names, blank nodes and
numbers resolve through a per-document cache keyed by lexeme, which every
@prefix clears. So only one chunk's lexemes are held at a time, never a
token list of the document. Where no token matches, the pattern takes the
rest of the chunk, and the parser reads a marker there that no rule accepts.

A source offset is worked out only when an error is raised: _fault
re-matches the document with the same pattern to find the offending
lexeme. A lexical error still wins over a syntax error before it: _fault
raises the first lexical error at or after the offending lexeme, if any,
with _lex_error explaining it at the offending character.

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

# Whitespace and comments: one run of space, then whole comments, each with
# its newline and the run after it (parse_turtle_star leaves no CR). The
# lookahead forbids stopping inside a run or a comment, so a failed token
# match cannot backtrack into them: it neither finds a token inside a
# comment nor retries every split of a long run.
_SPACE = r"[ \t\n]*(?:\#[^\n]*(?:\n|\Z)[ \t\n]*)*(?![ \t\n\#])"

# One lexeme after optional space, in the pattern's only group, so findall
# returns plain strings. The token alternatives, in order: prefixed name
# (with a prefix, then bare ':'), punctuation, string, IRI reference, number
# (unsigned, signed, then '.'-led), language tag, blank node, the `a`
# keyword, @prefix; each starts with a character or a class (see the module
# docstring). Each accepts exactly the tokens of the surface in the
# module docstring, so a failed match always means a lexical error, which
# _lex_error then explains. The lookaheads make a number the longest run of
# digits, so "12.5e3" fails as an exponent instead of scanning as "12".
# After the tokens, \Z gives "" at the end of a chunk, and where no token
# matches, the last alternative takes the rest of the chunk: a newline ends
# that rest, and no token holds one.
_TOKEN = re.compile(
    _SPACE
    + r"""(
    [A-Za-z][A-Za-z0-9_\-]*:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?
  | :(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?
  | \.(?!\d)|<<|>>|\^\^|[;,()\[\]}]|\{(?!\|)
  | "(?!"")[^"\\\n\ud800-\udfff]*(?:\\(?:[tbnrf"'\\]|u[0-9A-Fa-f]{4})[^"\\\n\ud800-\udfff]*)*"
  | <[^\x00-\x20<>"{}|^`\\\ud800-\udfff]*(?:\\u[0-9A-Fa-f]{4}[^\x00-\x20<>"{}|^`\\\ud800-\udfff]*)*>
  | \d+(?:\.\d+|(?!\.\d))(?![\deE]) | [+-](?:\d+(?:\.\d+|(?!\.\d))|\.\d+)(?![\deE]) | \.\d+(?![\deE])
  | @(?!prefix|base)[a-zA-Z]+(?:-[a-zA-Z0-9]+)*
  | _:[A-Za-z0-9_][A-Za-z0-9_\-]*
  | a(?![A-Za-z0-9_\-:])
  | @prefix
  | \Z
  | [\s\S]+
)""",
    re.VERBOSE,
)
_SKIP_SPACE = re.compile(_SPACE)
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|(.))")
_ESCAPED = {'"': '"', "'": "'", "\\": "\\", "b": "\b", "f": "\f", "n": "\n", "t": "\t", "r": "\r"}
# What an IRI may not hold, raw or escaped: IRIREF's exclusions, the
# surrogates that no UTF-8 output can carry among them.
_IRI_EXCLUDED = re.compile(r'[\x00-\x20<>"{}|^`\\\ud800-\udfff]')
# What a string literal may not hold, raw or escaped; no UTF-8 output carries it.
_SURROGATE = re.compile("[\ud800-\udfff]")

_BARE = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
_NUMBER = re.compile(r"[+-]?(?:\d+\.\d+|\.\d+|\d+)")
_HEX4 = re.compile(r"[0-9A-Fa-f]{4}")

# Characters per scanned chunk, give or take the rest of a line.
_CHUNK = 1 << 16
# What the parser reads in place of a chunk's rest that no token matched: no
# grammar rule accepts it, so the parser fails there, and _fault explains it.
_NO_TOKEN = "\n"
# The lexemes the parser reads past the last chunk: "" (EOF), again and again.
_EOF = ("", "")


def _unescape(match) -> str:
    code, char = match.groups()
    return chr(int(code, 16)) if code else _ESCAPED[char]


def _decode(lexeme: str) -> Optional[str]:
    """The value of a string or IRI reference lexeme, its escapes decoded.

    None when an escape stands for a character that the token excludes: a
    surrogate in a string, an IRIREF exclusion in an IRI.
    """
    value = lexeme[1:-1]
    if "\\" in value:  # in an IRI only \uXXXX escapes scan
        value = _ESCAPE.sub(_unescape, value)
        excluded = _SURROGATE if lexeme[0] == '"' else _IRI_EXCLUDED
        if excluded.search(value):
            return None
    return value


def _is_iri(lexeme: str) -> bool:
    """Whether a lexeme is an IRI reference or a prefixed name."""
    if lexeme[:1] == "<":
        return lexeme != "<<"
    return ":" in lexeme and lexeme[0] not in '"_'


def _shown(lexeme: str) -> str:
    """A lexeme as a syntax error quotes it: without its delimiters or, for
    a prefixed name, as its prefix."""
    if lexeme[:1] in ('"', "<") and lexeme != "<<":
        return _ESCAPE.sub(_unescape, lexeme[1:-1])
    if lexeme.startswith("_:"):
        return lexeme[2:]
    if lexeme[:1] == "@" and lexeme != "@prefix":
        return lexeme[1:]
    return lexeme.partition(":")[0]


def _chunks(text: str):
    """Cut `text` into pieces of about _CHUNK characters, each ending at a newline.

    No token spans a newline, so each piece scans on its own. The last piece
    gets a newline if it has none, so that every piece ends in one.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        yield chunk if chunk.endswith("\n") else chunk + "\n"
        start = end


def _fault(text: str, at: int, message: str, kind: ErrorKind) -> ParseError:
    """The error to raise for a fault the parser found at lexeme number `at`.

    Lexemes are numbered from 0 over the whole document; at or past the last
    one, `at` stands for the end of the text. The parser has checked every
    lexeme before `at`, so the first lexical error at or after it is the
    first in the document, and it wins; otherwise the error is `message` at
    that lexeme.
    """
    offset = len(text)
    start = number = 0
    for chunk in _chunks(text):
        for match in _TOKEN.finditer(chunk):
            lexeme = match.group(1)
            if not lexeme:  # the end of the chunk
                break
            if number >= at:
                if number == at:
                    offset = start + match.start(1)
                # the rest of a chunk where no token matched, or an escape that stands
                # for a character the string or IRI excludes
                if lexeme[-1] == "\n" or (lexeme[0] in '"<' and "\\" in lexeme and _decode(lexeme) is None):
                    return _lex_error(text, start + match.start(1))
            number += 1
        start += len(chunk)
    return _error_at(text, offset, message, kind)


def _error_at(text: str, offset: int, message: str, kind: ErrorKind) -> ParseError:
    """A ParseError at a source offset; line and column are 1-based."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset), kind)


def _lex_error(text: str, pos: int) -> ParseError:
    """Explain the lexical error at `pos` (after any space and comments).

    Either no token starts there, or the string or IRI reference starting
    there holds an escape for a character it excludes.
    """
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
                if _SURROGATE.match(chr(int(text[pos + 2 : pos + 6], 16))):
                    message = f"escape {text[pos : pos + 6]} stands for a character strings exclude"
                    return _error_at(text, pos, message, ErrorKind.LEXICAL)
                pos += 6
                continue
            if esc not in _ESCAPED:
                return _error_at(text, pos, f"unsupported escape sequence \\{esc}", ErrorKind.LEXICAL)
            pos += 2
            continue
        if _SURROGATE.match(ch):
            return _error_at(text, pos, f"lone surrogate {ch!r} inside string literal", ErrorKind.LEXICAL)
        pos += 1
    return _error_at(text, start, "unterminated string literal", ErrorKind.LEXICAL)


class _Parser:
    def __init__(self, text: str):
        self.text = text.lstrip("\ufeff")
        self.chunks = map(_TOKEN.findall, _chunks(self.text))
        # The lexemes of the chunk in flight, the index of the current one
        # among them, and the number of lexemes in the chunks before it: the
        # current lexeme is number base + i in the document.
        self.lexemes = _EOF
        self.i = 0
        self.base = 0
        self.tok = self._refill()
        self.depth = 0  # << >> and ( ) nesting of the term in flight
        self.prefixes: dict = {}
        self.terms: dict = {}  # lexeme -> term, for IRIs, prefixed names, blank nodes, numbers
        self.bnode_map: dict = {}  # source label -> BlankNode
        self.bnode_counter = 0
        self.iris: dict = {}  # resolved IRI string -> Iri
        self.literals: dict = {}  # (lexical, datatype, lang) -> Literal
        self.pending: list = []  # collection-chain statements of the statement in flight
        self.default: list = []
        self.named: dict = {}

    # --- lexemes ---

    def _refill(self) -> str:
        """Step past the end of the chunk in flight; return the next lexeme.

        Chunks that hold no lexeme are skipped. Past the last chunk the
        lexeme is "" (EOF), for as many reads as the parser makes.
        """
        self.base += self.i
        self.i = 0
        for lexemes in self.chunks:
            if lexemes[-2]:  # the rest of the chunk, where no token matched
                lexemes[-2] = _NO_TOKEN
            if lexemes[0]:
                self.lexemes = lexemes
                return lexemes[0]
        self.lexemes = _EOF
        return ""

    def next(self) -> str:
        """Consume the current lexeme and return it."""
        lexeme = self.tok
        self.i += 1
        self.tok = self.lexemes[self.i] or self._refill()
        return lexeme

    def here(self) -> int:
        """The number of the current lexeme; the one just consumed is here() - 1."""
        return self.base + self.i

    def expect(self, lexeme: str, what: str) -> None:
        got = self.next()
        if got != lexeme:
            self.error(f"expected {what}, got {_shown(got)!r}")

    def error(self, message: str, at: Optional[int] = None, kind: ErrorKind = ErrorKind.SYNTAX):
        """Raise the error for a fault at lexeme number `at`, by default the
        one just consumed; a lexical error from there on wins (see _fault)."""
        if at is None:
            at = self.here() - 1
        raise _fault(self.text, at, message, kind)

    # --- shared terms and blank nodes ---

    def _iri(self, value: str) -> Iri:
        term = self.iris.get(value)
        if term is None:
            term = self.iris[value] = Iri(value)
        return term

    def _absolute(self, lexeme: str) -> str:
        """The IRI that an IRI reference lexeme, just consumed, spells; it must be absolute."""
        value = _decode(lexeme)
        if value is None:  # _fault finds the escape and explains it
            self.error("escape stands for a character IRIs exclude")
        # every string in self.iris is absolute: checked here, or a checked
        # @prefix namespace with a local name after it
        if value not in self.iris and not _ABSOLUTE_IRI.match(value):
            self.error(f"relative IRI <{value}> (no @base support)", kind=ErrorKind.RELATIVE_IRI)
        return value

    def _pname(self, lexeme: str) -> Iri:
        prefix, _, local = lexeme.partition(":")
        namespace = self.prefixes.get(prefix)
        if namespace is None:
            self.error(f"undefined prefix '{prefix}:'", kind=ErrorKind.UNDEFINED_PREFIX)
        return self._iri(namespace + local)

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
        while self.tok:
            if self.tok == "@prefix":
                self._prefix_directive()
                continue
            first, at = self.tok, self.here()
            subject = self._term("subject")
            # a graph block: a single IRI term, then '{'
            if self.tok == "{" and _is_iri(first):
                self._graph_block(subject)
                continue
            self._triples(at, subject, self.default)
            self.expect(".", "'.' after statement")
        return Dataset(self.default, self.named)

    def _prefix_directive(self) -> None:
        self.next()  # @prefix
        name = self.next()
        if not name.endswith(":"):  # of all lexemes, only a prefixed name with no local part does
            self.error("expected prefix name ending in ':'")
        namespace = self.next()
        if namespace[:1] != "<" or namespace == "<<":
            self.error(f"expected namespace IRI, got {_shown(namespace)!r}")
        namespace = self._absolute(namespace)
        self.expect(".", "'.' after @prefix directive")
        self.prefixes[name[:-1]] = namespace
        self.terms.clear()  # a prefixed name may stand for another IRI from here on

    def _graph_block(self, name: Iri) -> None:
        self.next()  # {
        statements = self.named.setdefault(name, [])
        while self.tok != "}":
            if not self.tok:
                self.error("unterminated graph block", self.here())
            at = self.here()
            self._triples(at, self._term("subject"), statements)
            if self.tok == ".":
                self.next()
            elif self.tok != "}":
                self.error(f"expected '.' or '}}', got {_shown(self.tok)!r}", self.here())
        self.next()

    def _triples(self, at: int, subject, statements: list) -> None:
        """Append the statements of the subject, which began at lexeme `at`,
        and its predicate-object list to `statements`, collection chains last."""
        if isinstance(subject, Literal):
            self.error("literal cannot be the subject of a statement", at)
        self._predicate_object_list(subject, statements)
        if self.pending:
            statements.extend(self.pending)
            self.pending.clear()

    def _predicate_object_list(self, subject, statements: list) -> None:
        append = statements.append
        while True:
            predicate = self._verb()
            append(Statement(subject, predicate, self._term("object")))
            while self.tok == ",":
                self.next()
                append(Statement(subject, predicate, self._term("object")))
            if self.tok != ";":
                return
            # swallow repeats; a dangling ';' before the terminator is legal
            while self.tok == ";":
                self.next()
            if self.tok in (".", "}"):
                return

    def _verb(self) -> Iri:
        lexeme = self.next()
        term = self.terms.get(lexeme)
        if isinstance(term, Iri):  # a name or IRI met before: the usual case
            return term
        if lexeme == "a":
            return self._iri(RDF_TYPE)
        at = self.here() - 1  # the predicate's first lexeme; _new_term may read more
        term = term or self._new_term(lexeme, "predicate")
        if not isinstance(term, Iri):
            self.error("predicate must be an IRI", at)
        return term

    def _term(self, position: str):
        lexeme = self.next()
        return self.terms.get(lexeme) or self._new_term(lexeme, position)

    def _new_term(self, lexeme: str, position: str):
        """The term that `lexeme`, just consumed and not in self.terms, begins."""
        first = lexeme[:1]
        if first == '"':
            return self._literal_tail(lexeme)
        if lexeme == "<<":
            return self._quoted(position)
        if lexeme == "(":
            return self._collection(position)
        if lexeme == "[":
            if self.next() != "]":
                self.error(
                    "blank node property lists [ ... ] are not supported (only anonymous [])",
                    kind=ErrorKind.UNSUPPORTED,
                )
            return self._fresh_bnode()
        if first == "<":
            term = self._iri(self._absolute(lexeme))
        elif first == "_":
            term = self._labeled_bnode(lexeme[2:])
        elif ":" in lexeme:
            term = self._pname(lexeme)
        elif lexeme[-1:].isdecimal() and first != "@":  # a number; language tags end in a digit too
            term = self._literal(lexeme, XSD_DECIMAL if "." in lexeme else XSD_INTEGER)
        else:
            self.error(f"expected {position}, got {_shown(lexeme)!r}")
        self.terms[lexeme] = term
        return term

    def _literal_tail(self, lexeme: str) -> Literal:
        """The literal that the string `lexeme`, just consumed, begins."""
        value = _decode(lexeme)
        if value is None:  # _fault finds the escape and explains it
            self.error("escape stands for a character strings exclude")
        tail = self.tok
        if tail[:1] == "@" and tail != "@prefix":
            self.next()
            return self._literal(value, RDF_LANG_STRING, tail[1:])
        if tail != "^^":
            return self._literal(value, XSD_STRING)
        self.next()
        datatype = self.next()
        term = self.terms.get(datatype)
        if term is None and _is_iri(datatype):
            term = self._new_term(datatype, "datatype")
        if not isinstance(term, Iri):
            self.error("expected datatype IRI after '^^'")
        if term.value == RDF_LANG_STRING:
            self.error("rdf:langString requires a language tag, not '^^'")
        return self._literal(value, term.value)

    def _enter(self, at: int) -> None:
        # << >> and ( ) terms count together against model.MAX_NESTING, so
        # deep input is refused at the offending '<<' or '(' with a position,
        # before the parser's own recursion or QuotedTriple's check can fail.
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(
                f"terms nested deeper than {MAX_NESTING} levels are not supported",
                at,
                ErrorKind.UNSUPPORTED,
            )

    def _quoted(self, position: str) -> QuotedTriple:
        at = self.here() - 1  # the '<<'
        if position == "collection element":
            self.error("quoted triples inside collections are not supported", at, ErrorKind.UNSUPPORTED)
        self._enter(at)
        subject = self._term("quoted subject")
        if isinstance(subject, Literal):
            self.error("literal cannot be the subject of a quoted triple", at)
        predicate = self._verb()
        obj = self._term("quoted object")
        self.expect(">>", "'>>'")
        self.depth -= 1
        return QuotedTriple(Statement(subject, predicate, obj))

    def _collection(self, position: str):
        at = self.here() - 1  # the '('
        if position.startswith("quoted"):
            self.error("collections inside quoted triples are not supported", at, ErrorKind.UNSUPPORTED)
        self._enter(at)
        elements = []
        while self.tok != ")":
            if not self.tok:
                self.error("unterminated collection", self.here())
            elements.append(self._term("collection element"))
        self.next()
        self.depth -= 1
        if not elements:
            return self._iri(RDF_NIL)
        cells = [self._fresh_bnode() for _ in elements]
        first, rest = self._iri(RDF_FIRST), self._iri(RDF_REST)
        for cell, element, tail in zip(cells, elements, cells[1:] + [self._iri(RDF_NIL)]):
            self.pending += (Statement(cell, first, element), Statement(cell, rest, tail))
        return cells[0]


@_gc_paused
def parse_turtle_star(text: str) -> Dataset:
    """Parse a Turtle-star document (TriG-style graph blocks allowed).

    Each CR LF or lone CR reads as LF, as text-mode reading makes it, so a
    raw CR inside a string is a newline there, and errors are positioned
    by LF lines. The text is copied only when it holds a CR.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _Parser(text).parse()


def to_turtle_star(dataset: Dataset) -> str:
    """Serialize a dataset so parse_turtle_star(to_turtle_star(d)) ~ d.

    Emits full IRIs and explicit datatypes; round-trips are equal up to
    blank-node relabeling (the parser re-canonicalizes labels).
    """
    lines = []
    for name, statements in dataset.graphs():
        if name is None:
            lines += (serialize_statement(st) + " ." for st in statements)
            continue
        lines.append(f"<{name.value}> {{")
        lines += ("    " + serialize_statement(st) + " ." for st in statements)
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
