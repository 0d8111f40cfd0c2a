"""Labeled property graph: two dicts of records and one canonical walk.

Nodes and edges live in disjoint id spaces ("n:..." vs "e:..."), each filed
in its own dict under its id: graph.nodes[i] = Node(i, labels, properties).
node_id and edge_id make the id of an identity key, so a record made twice
for one key is filed once. canonical_records() is the one canonical walk:
nodes by id, then edges by (source, labels, target, id), each with sorted
labels and sorted properties whose values stay Python values, all held in
tuples. Every exporter reads that walk directly. canonical_form() is the
same walk as a plain JSON-ready structure, so two graphs are equal exactly
when their canonical forms are equal.

The transform seals the graph it returns, since nothing else holds a part of
it: a sealed graph keeps its first walk and returns it to every later call,
so its exports walk it once. Reading nodes or edges, or taking a shallow
copy, ends the seal for good and drops the kept walk, so an edit made
through them always shows in the next walk. A graph built by hand or by
from_json is never sealed and is walked again on every call.

A valid graph keeps five rules, one helper each: every id, endpoint, label
and key is a str (_strings), every record has a label (_labelled), every
value passes check_value, every endpoint is a node (_endpoints), and every
record is filed under its own id, so no two share one (_own_key once filed,
_unique as records are filed). The rules are checked in two places. The
canonical walk checks every graph, however it was filed, before it returns
a record. from_json checks each record as it files it. Both run each
rule's cheap test inline and call its helper only when that test fails, so
a broken rule raises the helper's exception and message. The exporters
trust the walk.

Property values: str, bool, int, decimal.Decimal (exact lexical), datetime.date
(not a datetime.datetime), or a flat homogeneous list of one of those. The
value-kind table, _KINDS, is the one place that decides what kind a value is
(kind_of) and, for each kind, its canonical text, JSON form, GraphML type and
Cypher literal. Values compare by value_key, (kind name, canonical text).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Union

try:  # edge_id's SHA-256, without the OpenSSL that hashlib loads
    _sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:
    from hashlib import sha256 as _sha256

PropertyValue = Union[str, bool, int, Decimal, date, list]

# Keys the tooling itself uses (term bookkeeping, provenance, exporter ids
# and GraphML's label key) rather than RDF payload; predicate-derived keys
# must stay out of this set.
RESERVED_KEYS = frozenset({"id", "iri", "bnode", "value", "datatype", "lang", "graph", "labels"})


class DanglingEndpoint(ValueError):
    """Raised when an edge's source or target is not a node of its graph."""


def _quote(component: str) -> str:
    """Escape identity-key separator characters inside a key component."""
    return component.replace("%", "%25").replace(":", "%3A").replace("|", "%7C")


def iri_key(iri: str) -> str:
    return f"iri:{_quote(iri)}"


def bnode_key(doc: str, label: str) -> str:
    return f"bn:{_quote(doc)}:{_quote(label)}"


def literal_key(datatype: str, lang: Optional[str], lexical: str) -> str:
    return f"lit:{_quote(datatype)}:{_quote(lang or '')}:{_quote(lexical)}"


def with_graph(key: str, graph_iri: Optional[str]) -> str:
    return key if graph_iri is None else f"{key}|g:{_quote(graph_iri)}"


def node_id(identity_key: str) -> str:
    """The id of the node for identity_key."""
    return "n:" + identity_key


def edge_id(identity_key: str) -> str:
    """The id of the edge for identity_key: a short hash, so ids stay small.

    The hash is the first 16 hex digits of the key's UTF-8 SHA-256, taken
    from CPython's built-in _sha2 (3.12 on) or _sha256 (3.10, 3.11), and from
    hashlib only where neither imports. The digest is the same either way;
    the built-in one spares every launch OpenSSL's libcrypto (about 3 MB).
    """
    return "e:" + _sha256(identity_key.encode("utf-8")).hexdigest()[:16]


class _ValueKind(NamedTuple):
    """How one kind of property value is named, written and read back."""

    name: str
    text: Callable  # canonical text: GraphML data, merged strings, comparison
    graphml: str  # GraphML attr.type
    cypher: Callable  # openCypher 9 literal
    json: Optional[Callable] = None  # JSON text, for kinds JSON holds as they are
    tag: Optional[str] = None  # JSON tag, for kinds JSON holds as {tag: text}
    decode: Optional[Callable] = None  # the value a tag's text stands for


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _decimal_text(value: Decimal) -> str:
    """str(value), or the xsd:double spelling NaN, INF or -INF."""
    if value.is_finite():
        return str(value)
    if value.is_nan():
        return "NaN"
    return "-INF" if value.is_signed() else "INF"


def _cypher_string(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


def _cypher_decimal(value: Decimal) -> str:
    # openCypher has no NaN or infinity literal and no "+" in an exponent
    if value.is_finite():
        return str(value).replace("E+", "E")
    return _cypher_string(_decimal_text(value))


def _cypher_date(value: date) -> str:
    return _cypher_string(value.isoformat())


# The one place that decides what a property value is, keyed on its exact
# type: a subclass (a datetime, say) is no property value.
_KINDS = {
    str: _ValueKind("string", str, "string", _cypher_string, json=encode_basestring),
    bool: _ValueKind("boolean", _bool_text, "boolean", _bool_text, json=_bool_text),
    int: _ValueKind("integer", int.__repr__, "long", int.__repr__, json=int.__repr__),
    Decimal: _ValueKind("decimal", _decimal_text, "double", _cypher_decimal, tag="decimal", decode=Decimal),
    date: _ValueKind("date", date.isoformat, "string", _cypher_date, tag="date", decode=date.fromisoformat),
}
_TAGGED = {kind.tag: kind for kind in _KINDS.values() if kind.tag}
_SHOWN = 80  # the most characters of a value that a refusal message shows


def _shown(text: str) -> str:
    """text as a refusal message shows it: cut to _SHOWN characters."""
    return text if len(text) <= _SHOWN else text[: _SHOWN - 3] + "..."


def kind_of(value) -> _ValueKind:
    """The kind of one (non-list) property value; TypeError if it is none."""
    kind = _KINDS.get(type(value))
    if kind is None:
        raise TypeError(f"unsupported property value: {value!r}")
    return kind


def value_key(value: PropertyValue) -> tuple:
    """What property values compare by: equal keys, equal values.

    (kind name, canonical text), so True is not 1, Decimal 1.0 is not 1.00
    and a NaN equals itself; a list compares item by item.
    """
    if isinstance(value, list):
        return tuple(map(value_key, value))
    kind = kind_of(value)
    return kind.name, kind.text(value)


def check_value(value: PropertyValue) -> None:
    """The value rule: one value of a known kind, or a flat, non-empty list of one kind."""
    if type(value) is list:
        if not value:
            raise TypeError("empty list is not a valid property value")
        kinds = {kind_of(v).name for v in value}  # raises on nested lists
        if len(kinds) > 1:
            raise TypeError(f"list property values must be homogeneous, got {sorted(kinds)}")
        return
    kind_of(value)


def encode_value(value: PropertyValue):
    """JSON-ready encoding; exact for every value kind."""
    if isinstance(value, (list, tuple)):  # a tuple is how a walk record holds a list
        return [encode_value(v) for v in value]
    kind = kind_of(value)
    return value if kind.tag is None else {kind.tag: kind.text(value)}


def decode_value(encoded) -> PropertyValue:
    """The value encode_value encoded; ValueError for anything it cannot write.

    A tag's text must be the kind's canonical text, so " 1_0 " is no decimal
    and "2020-W01-1" no date, though Decimal and date.fromisoformat read them.
    A list's items are decoded as scalars: a list is flat.
    """
    if isinstance(encoded, list):
        if any(isinstance(v, list) for v in encoded):
            raise ValueError("list property values must be flat")
        return [decode_value(v) for v in encoded]
    if isinstance(encoded, dict):
        kind = _TAGGED.get(next(iter(encoded))) if len(encoded) == 1 else None
        if kind is None:
            raise ValueError(f"unknown tagged value: {_shown(repr(encoded))}")
        text = encoded[kind.tag]
        if type(text) is str:  # a JSON number would read as a binary float
            try:
                value = kind.decode(text)
            except (ValueError, InvalidOperation):
                pass
            else:
                if kind.text(value) == text:
                    return value
        raise ValueError(f"invalid {kind.name} text: {_shown(repr(text))}")
    kind = _KINDS.get(type(encoded))
    if kind is None or kind.tag is not None:
        raise ValueError(f"cannot decode property value: {_shown(repr(encoded))}")
    return encoded


def is_bookkeeping_key(key: str) -> bool:
    return key in RESERVED_KEYS or key.endswith(".graph")


@dataclass(slots=True)
class Node:
    id: str
    labels: set = field(default_factory=set)
    properties: dict = field(default_factory=dict)


@dataclass(slots=True)
class Edge:
    id: str
    source: str
    target: str
    labels: set = field(default_factory=set)
    properties: dict = field(default_factory=dict)


def _strings(names):
    """The name rule: names, each checked to be a str."""
    for name in names:
        if type(name) is not str:
            raise TypeError(
                f"node and edge ids, labels and property keys must be strings, got {_shown(repr(name))}"
            )
    return names


def _labelled(labels):
    """The label rule: labels, checked to hold at least one label."""
    if not labels:
        raise ValueError("nodes and edges need at least one label")
    return labels


def _endpoints(nodes: dict, *ends: str) -> None:
    """The endpoint rule: each of ends is a node of nodes."""
    for end in ends:
        if end not in nodes:
            raise DanglingEndpoint(f"edge endpoint {end!r} is not a node")


def _unique(records: dict, record_id: str) -> None:
    """The id rule as records are filed: no record of records has record_id yet."""
    if record_id in records:
        raise ValueError(f"id {record_id!r} is repeated")


def _own_key(key: str, record_id: str) -> None:
    """The id rule once filed: a record's id is its key, so no two records share an id."""
    if record_id != key:
        raise ValueError(f"id {record_id!r} is filed under the key {key!r}")


class NodeRecord(NamedTuple):
    """A node as the canonical walk yields it."""

    id: str
    labels: tuple
    properties: tuple  # (key, value) pairs sorted by key


class EdgeRecord(NamedTuple):
    """An edge as the canonical walk yields it."""

    id: str
    source: str
    target: str
    labels: tuple
    properties: tuple  # (key, value) pairs sorted by key


_first, _second = itemgetter(0), itemgetter(1)
_new_tuple = tuple.__new__  # a walk record, built without its class's keyword-taking __new__


# The walk runs each rule's cheap test inline and calls the rule's own
# helper only when that test fails, so a broken rule raises the helper's
# exception and message.


def _sorted_labels(labels) -> tuple:
    """labels sorted, once the name and label rules hold."""
    for label in labels:
        if type(label) is not str:
            _strings(labels)
    if not labels:
        _labelled(labels)
    return tuple(sorted(labels))


def _sorted_properties(properties: dict) -> tuple:
    """(key, value) pairs sorted by key, each list value as a tuple, once the name and value rules hold."""
    for key, value in properties.items():
        if type(key) is not str or type(value) not in _KINDS:  # a list, or a broken rule
            return _checked_pairs(properties)
    return tuple(sorted(properties.items()))


def _checked_pairs(properties: dict) -> tuple:
    """_sorted_properties where a key is no str or a value no scalar: the rules' helpers decide."""
    _strings(properties)
    for value in properties.values():
        if type(value) not in _KINDS:
            check_value(value)
    pairs = [(key, tuple(value) if type(value) is list else value) for key, value in properties.items()]
    return tuple(sorted(pairs))


def _json_ready(record) -> dict:
    """A walk record as canonical_form lays it out: its fields, in lists, values encoded."""
    return {
        **record._asdict(),
        "labels": list(record.labels),
        "properties": {key: encode_value(value) for key, value in record.properties},
    }


def _semantic_property_count(records: dict) -> int:
    """How many properties of the nodes or edges in records are not bookkeeping keys."""
    return sum(
        1 for record in records.values() for key in record.properties if not is_bookkeeping_key(key)
    )


class PropertyGraph:
    def __init__(self) -> None:
        self._nodes: dict = {}
        self._edges: dict = {}
        self._sealed = False
        self._walk: Optional[tuple] = None  # a sealed graph's first canonical walk

    @property
    def nodes(self) -> dict:
        """Node id -> Node, to read and edit; reading it ends the graph's seal."""
        self._unseal()
        return self._nodes

    @property
    def edges(self) -> dict:
        """Edge id -> Edge, to read and edit; reading it ends the graph's seal."""
        self._unseal()
        return self._edges

    def _seal(self) -> None:
        """Keep the next canonical walk for every later one.

        Only a maker that has let go of every part of the graph may seal it:
        its dicts, its Node and Edge objects and its list values. Any later
        reference then comes through nodes, edges or copy.copy, which unseal.
        """
        self._sealed = True

    def _unseal(self) -> None:
        """End the seal for good, and drop the kept walk."""
        self._sealed = False
        self._walk = None

    def __copy__(self) -> "PropertyGraph":
        """A graph sharing this one's dicts; since each can then edit both, neither is sealed."""
        self._unseal()
        copied = PropertyGraph()
        copied._nodes, copied._edges = self._nodes, self._edges
        return copied

    # --- canonical walk ---

    def canonical_records(self) -> tuple:
        """The one canonical walk: (node records, edge records), in order.

        Nodes come sorted by id and edges by (source, labels joined with
        ";", target, id). Each record has a tuple of sorted labels and a
        tuple of (key, value) property pairs sorted by key, with the values
        as Python values and a list as a tuple. Every record is checked
        against the module's five graph rules before any is returned, so a
        graph that breaks one raises that rule's exception and message,
        whichever exporter asked. It is the one check of a graph whose
        records were filed straight into its dicts, by transform or by hand.

        The walk holds tuples only, so no caller can change it. A graph that
        transform returns is sealed: its first walk is kept and every later
        call returns it, so its JSON, GraphML and Cypher exports walk it
        once. Reading nodes or edges, or taking a shallow copy, ends the seal
        for good and drops the kept walk; every call after that walks again.
        """
        if self._walk is not None:
            return self._walk
        by_id = self._nodes
        nodes = []
        for key in sorted(_strings(by_id)):
            node = by_id[key]
            if node.id != key:
                _own_key(key, node.id)
            labels, properties = _sorted_labels(node.labels), _sorted_properties(node.properties)
            nodes.append(_new_tuple(NodeRecord, (key, labels, properties)))
        keyed = []  # (sort key, record) for each edge
        for key, edge in self._edges.items():
            record_id, source, target = edge.id, edge.source, edge.target
            if type(record_id) is not str or type(source) is not str or type(target) is not str:
                _strings((record_id, source, target))
            if record_id != key:
                _own_key(key, record_id)
            if source not in by_id or target not in by_id:
                _endpoints(by_id, source, target)
            labels, properties = _sorted_labels(edge.labels), _sorted_properties(edge.properties)
            record = _new_tuple(EdgeRecord, (record_id, source, target, labels, properties))
            keyed.append(((source, ";".join(labels), target, record_id), record))
        keyed.sort(key=_first)
        walk = tuple(nodes), tuple(map(_second, keyed))
        if self._sealed:
            self._walk = walk
        return walk

    def canonical_form(self) -> dict:
        """The canonical walk as a JSON-ready structure (values via encode_value)."""
        nodes, edges = self.canonical_records()
        return {
            "nodes": [_json_ready(record) for record in nodes],
            "edges": [_json_ready(record) for record in edges],
        }

    # --- small conveniences ---

    def semantic_node_property_count(self) -> int:
        return _semantic_property_count(self._nodes)

    def semantic_edge_property_count(self) -> int:
        return _semantic_property_count(self._edges)
