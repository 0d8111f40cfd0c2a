"""RDF and RDF-star terms, statements, and datasets.

Statements follow the usual shape: the subject is an IRI, a blank node, or a
quoted triple; the predicate is always an IRI; the object may additionally be
a literal. Quoted triples nest, so a statement can embed other statements,
at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import enum
import functools
import gc
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF_NS + "type"
RDF_FIRST = RDF_NS + "first"
RDF_REST = RDF_NS + "rest"
RDF_NIL = RDF_NS + "nil"
RDF_LANG_STRING = RDF_NS + "langString"

XSD_STRING = XSD_NS + "string"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"
XSD_BOOLEAN = XSD_NS + "boolean"
XSD_DATE = XSD_NS + "date"

# Deepest accepted nesting of quoted triples. Deeper terms are refused when
# built rather than left to exhaust the recursion of hashing, equality and
# every walker downstream.
MAX_NESTING = 128


class NestingTooDeep(ValueError):
    """Raised when a quoted triple would nest deeper than MAX_NESTING."""


def _gc_paused(func):
    """Wrap a public pipeline call so it runs with the cyclic collector paused.

    The pipeline builds trees of terms, statements, records and dicts, not
    reference cycles, so a collection while it runs rescans a growing heap
    and frees nothing. A caller that already paused the collector, or an
    outer paused call, is left as it is; otherwise the collector is enabled
    again when the call returns or raises.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _stored_hash(term) -> int:
    return term._hash


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI. Equality is exact string equality."""

    value: str
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.value,)))

    __hash__ = _stored_hash

    def __reduce__(self):
        return Iri, (self.value,)

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A blank node under its canonical document-scoped label (b0, b1, ...).

    The label as it appeared in the source is kept for provenance but is
    excluded from equality and hashing.
    """

    label: str
    original: Optional[str] = field(default=None, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.label,)))

    __hash__ = _stored_hash

    def __reduce__(self):
        return BlankNode, (self.label, self.original)

    def __repr__(self) -> str:
        return f"BlankNode(_:{self.label})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal: lexical form, datatype IRI, optional language tag.

    The datatype defaults to xsd:string, or rdf:langString when a language
    tag is given. A language tag is only legal with rdf:langString, and
    rdf:langString requires one.
    """

    lexical: str
    datatype: Iri = Iri(XSD_STRING)
    lang: Optional[str] = None
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.lang is not None and self.datatype.value == XSD_STRING:
            object.__setattr__(self, "datatype", Iri(RDF_LANG_STRING))
        if self.lang is not None and self.datatype.value != RDF_LANG_STRING:
            raise ValueError("language tag requires rdf:langString datatype")
        if self.lang is None and self.datatype.value == RDF_LANG_STRING:
            raise ValueError("rdf:langString literal requires a language tag")
        object.__setattr__(self, "_hash", hash((self.lexical, self.datatype._hash, self.lang)))

    __hash__ = _stored_hash

    def __reduce__(self):
        return Literal, (self.lexical, self.datatype, self.lang)

    def __repr__(self) -> str:
        if self.lang is not None:
            return f"Literal({self.lexical!r}@{self.lang})"
        return f"Literal({self.lexical!r}^^{self.datatype.value})"


@dataclass(frozen=True, slots=True)
class QuotedTriple:
    """A statement used as a term (quoted, not asserted).

    depth is 1 plus the depth of the deepest quoted triple inside it; it is
    worked out once, from the inner terms' own depths.
    """

    statement: "Statement"
    depth: int = field(default=1, init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        depth = 1 + quote_depth(self.statement)
        if depth > MAX_NESTING:
            raise NestingTooDeep(f"quoted triples nested deeper than {MAX_NESTING} levels")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "_hash", hash((self.statement._hash,)))

    __hash__ = _stored_hash

    def __reduce__(self):
        return QuotedTriple, (self.statement,)

    def __repr__(self) -> str:
        return f"QuotedTriple({self.statement!r})"


class StatementKind(enum.Enum):
    OBJECT_PROPERTY = "ObjectProperty"
    DATATYPE_PROPERTY = "DatatypeProperty"
    STAR_SUBJECT = "StarSubject"
    STAR_OBJECT = "StarObject"
    STAR_BOTH = "StarBoth"


_STAR_KINDS = (StatementKind.STAR_SUBJECT, StatementKind.STAR_OBJECT, StatementKind.STAR_BOTH)


def _kind_of(subject_type: type, object_type: type) -> StatementKind:
    """The kind of a statement whose subject and object are of these types."""
    quoted_object = issubclass(object_type, QuotedTriple)
    if issubclass(subject_type, QuotedTriple):
        return StatementKind.STAR_BOTH if quoted_object else StatementKind.STAR_SUBJECT
    if quoted_object:
        return StatementKind.STAR_OBJECT
    if issubclass(object_type, Literal):
        return StatementKind.DATATYPE_PROPERTY
    return StatementKind.OBJECT_PROPERTY


_SUBJECT_TYPES, _OBJECT_TYPES = (Iri, BlankNode, QuotedTriple), (Iri, BlankNode, Literal, QuotedTriple)
# _kind_of for the exact term types, looked up as each statement is built
_KIND_BY_TYPES = {(s, o): _kind_of(s, o) for s in _SUBJECT_TYPES for o in _OBJECT_TYPES}


def _check_terms(subject, predicate, obj) -> None:
    """Refuse a statement whose subject, predicate or object is not of its position's terms."""
    if isinstance(subject, Literal):
        raise ValueError("statement subject cannot be a literal")
    if not isinstance(subject, _SUBJECT_TYPES):
        raise TypeError(f"bad subject term: {subject!r}")
    if not isinstance(predicate, Iri):
        raise TypeError("statement predicate must be an IRI")
    if not isinstance(obj, _OBJECT_TYPES):
        raise TypeError(f"bad object term: {obj!r}")


Term = Union[Iri, BlankNode, Literal, QuotedTriple]
SubjectTerm = Union[Iri, BlankNode, QuotedTriple]


@dataclass(frozen=True, slots=True)
class Statement:
    """One (subject, predicate, object) statement, possibly with quoted terms.

    _kind is the statement's kind, worked out once from its terms, as a
    QuotedTriple works out its depth; classify and is_star read it. _text
    is the canonical text, made on first use by serialize_statement and
    kept in its slot; None until then.
    """

    subject: SubjectTerm
    predicate: Iri
    object: Term
    _hash: int = field(init=False, compare=False, repr=False)
    _kind: StatementKind = field(init=False, compare=False, repr=False)
    _text: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        subject, predicate, obj = self.subject, self.predicate, self.object
        kind = _KIND_BY_TYPES.get((type(subject), type(obj)))
        if kind is None or not isinstance(predicate, Iri):
            _check_terms(subject, predicate, obj)
            kind = _kind_of(type(subject), type(obj))  # terms of subclasses
        object.__setattr__(self, "_hash", hash((subject._hash, predicate._hash, obj._hash)))
        object.__setattr__(self, "_kind", kind)

    __hash__ = _stored_hash

    def __reduce__(self):
        return Statement, (self.subject, self.predicate, self.object)

    def __repr__(self) -> str:
        return f"Statement({serialize_statement(self)})"


def classify(statement: Statement) -> StatementKind:
    """Classify a statement; total over every constructible statement."""
    return statement._kind


def is_star(statement: Statement) -> bool:
    return statement._kind in _STAR_KINDS


def local_name(iri: Union[Iri, str]) -> str:
    """Substring after the last '#', else after the last '/', else the IRI."""
    value = iri.value if isinstance(iri, Iri) else iri
    if "#" in value:
        tail = value.rsplit("#", 1)[1]
        if tail:
            return tail
    if "/" in value:
        tail = value.rsplit("/", 1)[1]
        if tail:
            return tail
    return value


def quote_depth(item: Union[Term, Statement]) -> int:
    """Nesting depth: 0 for scalar terms, 1 + max child depth for quoting."""
    if isinstance(item, Statement):
        return max(quote_depth(item.subject), quote_depth(item.object))
    return item.depth if isinstance(item, QuotedTriple) else 0


# ---------------------------------------------------------------------------
# Canonical serialization (used for ordering, identity keys, round-trips)
# ---------------------------------------------------------------------------

_ESCAPES = {chr(code): "\\u%04X" % code for code in range(0x20)}
_ESCAPES.update({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _escape_char(match) -> str:
    return _ESCAPES[match.group()]


def escape_string(text: str) -> str:
    return _NEEDS_ESCAPE.sub(_escape_char, text)


def serialize_term(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{escape_string(term.lexical)}"'
        if term.lang is not None:
            return f"{body}@{term.lang}"
        if term.datatype.value == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype.value}>"
    if isinstance(term, QuotedTriple):
        return f"<< {serialize_statement(term.statement)} >>"
    raise TypeError(f"not a term: {term!r}")


def serialize_statement(statement: Statement) -> str:
    """The statement's canonical text; made once per statement object."""
    text = statement._text
    if text is None:
        text = " ".join(map(serialize_term, (statement.subject, statement.predicate, statement.object)))
        object.__setattr__(statement, "_text", text)
    return text


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


class Dataset:
    """A default graph plus named graphs; each graph is a set of statements.

    Statements keep a deterministic iteration order (first appearance), but
    equality and cardinality follow set semantics.
    """

    def __init__(self, default=(), named=None):
        self.default: tuple = tuple(dict.fromkeys(default))
        self.named: dict = {}
        for name, statements in (named or {}).items():
            if not isinstance(name, Iri):
                raise TypeError("graph name must be an IRI")
            self.named[name] = tuple(dict.fromkeys(statements))

    def graphs(self) -> Iterator[tuple]:
        """Yield (name, statements) pairs; None names the default graph."""
        yield None, self.default
        for name in sorted(self.named, key=lambda iri: iri.value):
            yield name, self.named[name]

    def statements(self) -> Iterator[tuple]:
        """Yield (graph name or None, statement) for every statement."""
        for name, statements in self.graphs():
            for st in statements:
                yield name, st

    def __len__(self) -> int:
        return len(self.default) + sum(len(v) for v in self.named.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if set(self.default) != set(other.default):
            return False
        if set(self.named) != set(other.named):
            return False
        return all(set(self.named[k]) == set(other.named[k]) for k in self.named)

    def __repr__(self) -> str:
        return f"Dataset({len(self.default)} default, {len(self.named)} named graphs)"


# ---------------------------------------------------------------------------
# Statement units (conversion accounting)
# ---------------------------------------------------------------------------


def terms(statement: Statement) -> list:
    """The subject and object of `statement` and of every statement it quotes.

    One pre-order walk: each quoted triple comes first, then the terms of
    its subject, then those of its object.
    """
    found = []
    stack = [statement.object, statement.subject]
    while stack:
        term = stack.pop()
        found.append(term)
        if isinstance(term, QuotedTriple):
            stack += (term.statement.object, term.statement.subject)
    return found


def embedded_star_statements(statement: Statement) -> list:
    """Embedded statements that are themselves star statements, recursively."""
    return [t.statement for t in terms(statement) if isinstance(t, QuotedTriple) and is_star(t.statement)]


_CHAIN_PREDICATES = frozenset((RDF_FIRST, RDF_REST))
_predicate_iri = operator.attrgetter("predicate.value")


def is_chain_statement(statement: Statement) -> bool:
    """A plain rdf:first/rdf:rest statement, which folds into its head statement if it has one.

    A star statement is a unit of its own whatever its predicate.
    """
    return statement.predicate.value in _CHAIN_PREDICATES and not is_star(statement)


def folded_chain_statements(statements) -> set:
    """The chain statements of one graph that fold into a head.

    A chain statement folds when rdf:first/rdf:rest links reach its subject
    from a blank node that a non-chain statement of the graph names, in any
    position and at any quote depth. Any other chain statement, such as
    `_:l rdf:first 1 ; rdf:rest rdf:nil .` alone, has no head to fold into,
    so it is a unit of its own. A graph with a chain predicate is read in one
    pass; one without is told apart by a scan that runs no Python code per
    statement.
    """
    if _CHAIN_PREDICATES.isdisjoint(map(_predicate_iri, statements)):
        return set()
    named, links, chain = set(), {}, []  # named: the blank nodes non-chain statements name
    for st in statements:
        if st._kind in _STAR_KINDS:
            # the canonical text holds "_:" wherever the statement names a blank node
            if "_:" in serialize_statement(st):
                named.update(term for term in terms(st) if isinstance(term, BlankNode))
        elif st.predicate.value in _CHAIN_PREDICATES:
            chain.append(st)
            links.setdefault(st.subject, []).append(st.object)
        else:
            if isinstance(st.subject, BlankNode):
                named.add(st.subject)
            if isinstance(st.object, BlankNode):
                named.add(st.object)
    reached = reachable(links, [cell for cell in links if cell in named])
    return {st for st in chain if st.subject in reached}


def reachable(links: dict, start) -> set:
    """start, and every item that links (item -> list of items) lead to from it."""
    found = set(start)
    stack = list(found)
    while stack:
        for item in links.get(stack.pop(), ()):
            if item not in found:
                found.add(item)
                stack.append(item)
    return found


def statement_units(dataset: Dataset) -> list:
    """(graph, statement) accounting units for conversion reports.

    Every top-level statement is a unit but a chain statement that folds
    into its head (folded_chain_statements), and so is every embedded
    statement that is itself a star statement (nesting depth >= 2 introduces
    additional triples that the transformation must handle).
    """
    units = []
    for name, statements in dataset.graphs():
        folded = folded_chain_statements(statements)
        for st in statements:
            if st in folded:
                continue
            units.append((name, st))
            for nested in embedded_star_statements(st):
                units.append((name, nested))
    return units


# ---------------------------------------------------------------------------
# Isomorphism (equality modulo a blank-node bijection)
# ---------------------------------------------------------------------------


def _bnode_labels(statements) -> set:
    return {t.label for st in statements for t in terms(st) if isinstance(t, BlankNode)}


def _rename(statement: Statement, mapping: dict) -> Statement:
    def conv(term: Term) -> Term:
        if isinstance(term, BlankNode):
            return BlankNode(mapping.get(term.label, term.label))
        if isinstance(term, QuotedTriple):
            return QuotedTriple(
                Statement(
                    conv(term.statement.subject),
                    term.statement.predicate,
                    conv(term.statement.object),
                )
            )
        return term

    return Statement(conv(statement.subject), statement.predicate, conv(statement.object))


def isomorphic(a: Dataset, b: Dataset) -> bool:
    """True when the datasets are equal up to blank-node relabeling.

    Blank-node labels are document-scoped, so the bijection is searched per
    dataset (one mapping shared across the default and named graphs). Every
    bijection is tried in turn, so the cost grows factorially with the
    number of blank nodes.
    """
    if set(a.named) != set(b.named):
        return False

    a_labels = sorted(_bnode_labels(st for _, st in a.statements()))
    b_labels = sorted(_bnode_labels(st for _, st in b.statements()))
    if len(a_labels) != len(b_labels):
        return False

    pairs = [(a.default, set(b.default))]
    pairs += [(a.named[name], set(b.named[name])) for name in a.named]
    if any(len(set(l)) != len(r) for l, r in pairs):
        return False

    for image in itertools.permutations(b_labels):
        mapping = dict(zip(a_labels, image))
        if all({_rename(st, mapping) for st in l} == r for l, r in pairs):
            return True
    return False
