"""Labeled property graph with identity-keyed upserts and a canonical walk.

Nodes and edges live in disjoint id spaces ("n:..." vs "e:..."). Every node
is created through an identity key so repeated upserts merge instead of
duplicating; merging never silently overwrites a property (PropertyConflict).
canonical_records() is the one canonical walk: nodes by id, then edges by
(source, labels, target, id), each with sorted labels and sorted properties
whose values stay Python values. Every exporter reads that walk directly.
canonical_form() is the same walk as a plain JSON-ready structure, so two
graphs are equal exactly when their canonical forms are equal.

Property values: str, bool, int, decimal.Decimal (exact lexical), datetime.date
(not a datetime.datetime), or a flat homogeneous list of one of those.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import date, datetime
from decimal import Decimal
from typing import NamedTuple, Optional, Union

PropertyValue = Union[str, bool, int, Decimal, date, list]

# Keys the tooling itself uses (term bookkeeping, provenance, exporter ids)
# rather than RDF payload; predicate-derived keys must stay out of this set.
RESERVED_KEYS = frozenset({"id", "iri", "bnode", "value", "datatype", "lang", "graph"})


class PropertyConflict(Exception):
    """Raised when an upsert would change an already-set property value."""


class DanglingEndpoint(Exception):
    """Raised when an edge references a node id that does not exist."""


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


def _kind_tag(value: PropertyValue) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, Decimal):
        return "decimal"
    if isinstance(value, date) and not isinstance(value, datetime):
        # a datetime would export as a "date" that from_json cannot read back
        return "date"
    if isinstance(value, str):
        return "string"
    raise TypeError(f"unsupported property value: {value!r}")


def check_value(value: PropertyValue) -> None:
    if isinstance(value, list):
        if not value:
            raise TypeError("empty list is not a valid property value")
        kinds = {_kind_tag(v) for v in value}  # raises on nested lists
        if len(kinds) > 1:
            raise TypeError(f"list property values must be homogeneous, got {kinds}")
        return
    _kind_tag(value)


def encode_value(value: PropertyValue):
    """JSON-ready encoding; exact for every value kind."""
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, Decimal):
        return {"decimal": str(value)}
    if isinstance(value, date):
        return {"date": value.isoformat()}
    raise TypeError(f"unsupported property value: {value!r}")


def decode_value(encoded) -> PropertyValue:
    if isinstance(encoded, list):
        return [decode_value(v) for v in encoded]
    if isinstance(encoded, dict):
        if set(encoded) == {"decimal"}:
            return Decimal(encoded["decimal"])
        if set(encoded) == {"date"}:
            return date.fromisoformat(encoded["date"])
        raise ValueError(f"unknown tagged value: {encoded!r}")
    if isinstance(encoded, (bool, int, str)):
        return encoded
    raise ValueError(f"cannot decode property value: {encoded!r}")


def is_bookkeeping_key(key: str) -> bool:
    return key in RESERVED_KEYS or key.endswith(".graph")


@dataclass
class Node:
    id: str
    labels: set = field(default_factory=set)
    properties: dict = field(default_factory=dict)


@dataclass
class Edge:
    id: str
    source: str
    target: str
    labels: set = field(default_factory=set)
    properties: dict = field(default_factory=dict)


def _merge_properties(owner: str, existing: dict, incoming: dict) -> None:
    for key, value in incoming.items():
        check_value(value)
        if key in existing and existing[key] != value:
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


def _edge_order(edge: Edge) -> tuple:
    return (edge.source, ";".join(sorted(edge.labels)), edge.target, edge.id)


# Exact types whose values encode_value accepts as they are; anything else
# (lists, subclasses, unsupported values) is checked by encode_value itself.
_PLAIN_TYPES = frozenset({str, bool, int, Decimal, date})


def _sorted_properties(properties: dict) -> list:
    items = sorted(properties.items())
    for _, value in items:
        if type(value) not in _PLAIN_TYPES:
            encode_value(value)
    return items


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
        self._edge_ids: dict = {}

    # --- nodes ---

    def upsert_node(self, identity_key: str, labels=(), properties=None) -> str:
        """Create or merge the node for identity_key; returns its id."""
        labels = set(labels)
        if not labels:
            raise ValueError("nodes need at least one label")
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
        if source not in self.nodes:
            raise DanglingEndpoint(f"edge source {source!r} does not exist")
        if target not in self.nodes:
            raise DanglingEndpoint(f"edge target {target!r} does not exist")
        labels = set(labels)
        if not labels:
            raise ValueError("edges need at least one label")
        edge_id = self._edge_ids.get(identity_key)
        if edge_id is None:
            digest = hashlib.sha256(identity_key.encode("utf-8")).hexdigest()[:16]
            edge_id = "e:" + digest
            self._edge_ids[identity_key] = edge_id
            self.edges[edge_id] = Edge(edge_id, source, target)
        edge = self.edges[edge_id]
        if (edge.source, edge.target) != (source, target):
            raise PropertyConflict(f"edge {edge_id} endpoints differ for key {identity_key!r}")
        edge.labels |= labels
        _merge_properties(edge_id, edge.properties, properties or {})
        return edge_id

    def replace_edge_property(self, edge_id: str, key: str, value: PropertyValue) -> None:
        """Deliberate overwrite; the transform uses this for last-wins merges."""
        check_value(value)
        self.edges[edge_id].properties[key] = value

    # --- canonical walk ---

    def canonical_records(self) -> tuple:
        """The one canonical walk: (node records, edge records), in order.

        Nodes come sorted by id and edges by _edge_order. Each record has
        sorted labels and (key, value) property pairs sorted by key, with the
        values as Python values. A value JSON cannot encode raises the same
        TypeError encode_value raises, before any record is returned.
        """
        nodes = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            nodes.append(NodeRecord(node_id, sorted(node.labels), _sorted_properties(node.properties)))
        edges = [
            EdgeRecord(
                edge.id, edge.source, edge.target, sorted(edge.labels),
                _sorted_properties(edge.properties),
            )
            for edge in sorted(self.edges.values(), key=_edge_order)
        ]
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
