"""Labeled property graph with identity-keyed upserts and a canonical walk.

Nodes and edges live in disjoint id spaces ("n:..." vs "e:..."). Every node
is created through an identity key so repeated upserts merge instead of
duplicating; merging never silently overwrites a property (PropertyConflict).
canonical_records() is the one canonical walk: nodes by id, then edges by
(source, labels, target, id), each with sorted labels and sorted properties
whose values stay Python values. Every exporter reads that walk directly.
canonical_form() is the same walk as a plain JSON-ready structure, so two
graphs are equal exactly when their canonical forms are equal.

A valid graph keeps five rules, each checked where it can break: every id,
endpoint, label and key is a str (_strings), every record has a label
(_labelled), every value passes check_value, every endpoint is a node
(_endpoints), and every record is filed under its own id, so no two share
one (_own_key in the walk, _unique as from_json files records; the setters
file each record under its id). The exporters trust the walk.

Property values: str, bool, int, decimal.Decimal (exact lexical), datetime.date
(not a datetime.datetime), or a flat homogeneous list of one of those. The
value-kind table, _KINDS, is the one place that decides what kind a value is
(kind_of) and, for each kind, its canonical text, JSON form, GraphML type and
Cypher literal. Values compare by value_key, (kind name, canonical text).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal, InvalidOperation
from json.encoder import encode_basestring
from typing import Callable, NamedTuple, Optional, Union

PropertyValue = Union[str, bool, int, Decimal, date, list]

# Keys the tooling itself uses (term bookkeeping, provenance, exporter ids
# and GraphML's label key) rather than RDF payload; predicate-derived keys
# must stay out of this set.
RESERVED_KEYS = frozenset({"id", "iri", "bnode", "value", "datatype", "lang", "graph", "labels"})


class PropertyConflict(Exception):
    """Raised when an upsert would change an already-set property value."""


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
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    kind = kind_of(value)
    return value if kind.tag is None else {kind.tag: kind.text(value)}


def decode_value(encoded) -> PropertyValue:
    """The value encode_value encoded; ValueError for anything it cannot write.

    A tag's text must be the kind's canonical text, so " 1_0 " is no decimal
    and "2020-W01-1" no date, though Decimal and date.fromisoformat read them.
    """
    if isinstance(encoded, list):
        return [decode_value(v) for v in encoded]
    if isinstance(encoded, dict):
        kind = _TAGGED.get(next(iter(encoded))) if len(encoded) == 1 else None
        if kind is None:
            raise ValueError(f"unknown tagged value: {encoded!r}")
        text = encoded[kind.tag]
        if type(text) is str:  # a JSON number would read as a binary float
            try:
                value = kind.decode(text)
            except (ValueError, InvalidOperation):
                pass
            else:
                if kind.text(value) == text:
                    return value
        raise ValueError(f"invalid {kind.name} text: {text!r}")
    kind = _KINDS.get(type(encoded))
    if kind is None or kind.tag is not None:
        raise ValueError(f"cannot decode property value: {encoded!r}")
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
            raise TypeError(f"node and edge ids, labels and property keys must be strings, got {name!r}")
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


def _merge_properties(owner: str, existing: dict, incoming: dict) -> None:
    for key, value in _strings(incoming).items():
        check_value(value)
        if key in existing and value_key(existing[key]) != value_key(value):
            raise PropertyConflict(
                f"{owner}: property {key!r} already {existing[key]!r}, refusing {value!r}"
            )
        existing[key] = value


class NodeRecord(NamedTuple):
    """A node as the canonical walk yields it."""

    id: str
    labels: list
    properties: list  # (key, value) pairs sorted by key


class EdgeRecord(NamedTuple):
    """An edge as the canonical walk yields it."""

    id: str
    source: str
    target: str
    labels: list
    properties: list  # (key, value) pairs sorted by key


def _sorted_labels(labels) -> list:
    return sorted(_labelled(_strings(labels)))


def _sorted_properties(properties: dict) -> list:
    for value in _strings(properties).values():
        if type(value) not in _KINDS:  # a list, or no property value
            check_value(value)
    return sorted(properties.items())


def _json_ready(record) -> dict:
    """A walk record as canonical_form lays it out: its fields, values encoded."""
    return {
        **record._asdict(),
        "properties": {key: encode_value(value) for key, value in record.properties},
    }


class PropertyGraph:
    def __init__(self) -> None:
        self.nodes: dict = {}
        self.edges: dict = {}

    # --- nodes ---

    def upsert_node(self, identity_key: str, labels=(), properties=None) -> str:
        """Create or merge the node for identity_key; returns its id."""
        labels = _labelled(set(labels))
        _strings((identity_key, *labels))
        node_id = "n:" + identity_key
        node = self.nodes.get(node_id)
        if node is None:
            node = Node(node_id)
            self.nodes[node_id] = node
        node.labels |= labels
        _merge_properties(node_id, node.properties, properties or {})
        return node_id

    def set_node_property(self, node_id: str, key: str, value: PropertyValue) -> None:
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(node_id)
        _merge_properties(node_id, node.properties, {key: value})

    # --- edges ---

    def upsert_edge(self, identity_key: str, source: str, target: str, labels=(), properties=None) -> str:
        """Create or merge the edge for identity_key; returns its id."""
        labels = _labelled(set(labels))
        _strings((identity_key, source, target, *labels))
        _endpoints(self.nodes, source, target)
        edge_id = "e:" + hashlib.sha256(identity_key.encode("utf-8")).hexdigest()[:16]
        edge = self.edges.get(edge_id)
        if edge is None:
            edge = self.edges[edge_id] = Edge(edge_id, source, target)
        if (edge.source, edge.target) != (source, target):
            raise PropertyConflict(f"edge {edge_id} endpoints differ for key {identity_key!r}")
        edge.labels |= labels
        _merge_properties(edge_id, edge.properties, properties or {})
        return edge_id

    def replace_edge_property(self, edge_id: str, key: str, value: PropertyValue) -> None:
        """Deliberate overwrite; the transform uses this for last-wins merges."""
        _strings((key,))
        check_value(value)
        self.edges[edge_id].properties[key] = value

    # --- canonical walk ---

    def canonical_records(self) -> tuple:
        """The one canonical walk: (node records, edge records), in order.

        Nodes come sorted by id and edges by (source, labels joined with
        ";", target, id). Each record has sorted labels and (key, value)
        property pairs sorted by key, with the values as Python values.
        Every record is checked against the module's five graph rules before
        any is returned, so a graph that breaks one raises that rule's
        exception and message, whichever exporter asked.
        """
        nodes = []
        for node_id in sorted(_strings(self.nodes)):
            node = self.nodes[node_id]
            _own_key(node_id, node.id)
            nodes.append(NodeRecord(node_id, _sorted_labels(node.labels), _sorted_properties(node.properties)))
        edges = []
        for edge_id, edge in self.edges.items():
            _strings((edge.id, edge.source, edge.target))
            _own_key(edge_id, edge.id)
            _endpoints(self.nodes, edge.source, edge.target)
            labels, properties = _sorted_labels(edge.labels), _sorted_properties(edge.properties)
            edges.append(EdgeRecord(edge.id, edge.source, edge.target, labels, properties))
        edges.sort(key=lambda record: (record.source, ";".join(record.labels), record.target, record.id))
        return nodes, edges

    def canonical_form(self) -> dict:
        """The canonical walk as a JSON-ready structure (values via encode_value)."""
        nodes, edges = self.canonical_records()
        return {
            "nodes": [_json_ready(record) for record in nodes],
            "edges": [_json_ready(record) for record in edges],
        }

    # --- small conveniences ---

    def semantic_node_property_count(self) -> int:
        return sum(
            1
            for node in self.nodes.values()
            for key in node.properties
            if not is_bookkeeping_key(key)
        )

    def semantic_edge_property_count(self) -> int:
        return sum(
            1
            for edge in self.edges.values()
            for key in edge.properties
            if not is_bookkeeping_key(key)
        )
