"""Property graph serialization: JSON, GraphML, and openCypher CREATE scripts.

All three exporters read the same canonical walk,
PropertyGraph.canonical_records(), so their output depends only on graph
content, never on construction order. They read the typed property values
directly; nothing is encoded to JSON-ready form and decoded back. JSON and
GraphML return UTF-8 bytes; Cypher returns text. Every format is written
line by line with LF endings to keep output byte-reproducible.

to_json writes, record by record, exactly the bytes of
json.dumps(graph.canonical_form(), indent=2, ensure_ascii=False) plus a
newline, using json's own C string encoder.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring

from .model import _gc_paused
from .pgraph import (
    Edge,
    EdgeRecord,
    Node,
    PropertyGraph,
    _json_ready,
    check_value,
    decode_value,
    kind_of,
)

LIST_SEPARATOR = "\x1f"  # US unit separator; joins list elements in GraphML


class UnrepresentableValue(Exception):
    """Raised when a value cannot survive the target format's encoding."""


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


@_gc_paused
def to_json(graph: PropertyGraph) -> bytes:
    """The graph's canonical form as indented JSON, in UTF-8."""
    nodes, edges = graph.canonical_records()
    text = "{\n" + _json_array("nodes", nodes) + ",\n" + _json_array("edges", edges) + "\n}\n"
    return text.encode("utf-8")


def _json_array(name: str, records: list) -> str:
    if not records:
        return f'  "{name}": []'
    return f'  "{name}": [\n' + ",\n".join(map(_json_record, records)) + "\n  ]"


def _json_record(record) -> str:
    """One walk record, laid out as json.dumps(indent=2) puts it in the array."""
    try:
        text = '    {\n      "id": ' + encode_basestring(record.id)
        if isinstance(record, EdgeRecord):
            text += (
                ',\n      "source": ' + encode_basestring(record.source)
                + ',\n      "target": ' + encode_basestring(record.target)
            )
        if record.labels:
            text += ',\n      "labels": [\n        ' + ",\n        ".join(
                map(encode_basestring, record.labels)
            ) + "\n      ]"
        else:
            text += ',\n      "labels": []'
        if not record.properties:
            return text + ',\n      "properties": {}\n    }'
        return text + ',\n      "properties": {\n        ' + ",\n        ".join(
            encode_basestring(key) + ": " + _json_value(value, "        ")
            for key, value in record.properties
        ) + "\n      }\n    }"
    except TypeError:
        # A non-string id, label or key (only a graph built by hand has one):
        # json decides how it prints.
        text = json.dumps(_json_ready(record), indent=2, ensure_ascii=False)
        return "    " + text.replace("\n", "\n    ")


def _json_value(value, indent: str) -> str:
    """encode_value(value) as json.dumps(indent=2) prints it at this indent."""
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = ",\n".join(inner + _json_value(item, inner) for item in value)
        return "[\n" + items + "\n" + indent + "]"
    kind = kind_of(value)
    if kind.tag is None:
        return kind.json(value)
    text = encode_basestring(kind.text(value))
    return "{\n" + inner + f'"{kind.tag}": ' + text + "\n" + indent + "}"


def _record_parts(record, kind: str, string_fields: tuple) -> tuple:
    """(labels, properties) of one JSON node or edge record, shape-checked."""
    if not isinstance(record, dict):
        raise ValueError(f"{kind} record is not an object: {record!r}")
    for name in string_fields:
        if not isinstance(record.get(name), str):
            raise ValueError(f"{kind} {name} must be a string, got {record.get(name)!r}")
    labels, properties = record.get("labels"), record.get("properties")
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValueError(f"{kind} {record['id']} labels must be a list of strings")
    if not labels:
        raise ValueError(f"{kind} {record['id']} has no labels")
    if not isinstance(properties, dict):
        raise ValueError(f"{kind} {record['id']} properties must be an object")
    try:
        props = {k: decode_value(v) for k, v in properties.items()}
        for value in props.values():
            check_value(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind} {record['id']}: {exc}") from exc
    return set(labels), props


@_gc_paused
def from_json(data) -> PropertyGraph:
    """The graph to_json wrote; ValueError for a document it cannot have written."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    try:
        form = json.loads(data)
        nodes = form["nodes"]
        edges = form["edges"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise ValueError(f"not a property graph JSON document: {exc}") from exc
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise ValueError("not a property graph JSON document: nodes and edges must be lists")

    graph = PropertyGraph()
    for record in nodes:
        labels, props = _record_parts(record, "node", ("id",))
        graph.nodes[record["id"]] = Node(record["id"], labels, props)
    for record in edges:
        labels, props = _record_parts(record, "edge", ("id", "source", "target"))
        edge = Edge(record["id"], record["source"], record["target"], labels, props)
        if edge.source not in graph.nodes or edge.target not in graph.nodes:
            raise ValueError(f"edge {edge.id} references a missing node")
        graph.edges[edge.id] = edge
    return graph


# ---------------------------------------------------------------------------
# GraphML
# ---------------------------------------------------------------------------


def _graphml_value(value) -> str:
    if not isinstance(value, list):
        return kind_of(value).text(value)
    parts = [kind_of(item).text(item) for item in value]
    for part in parts:
        if LIST_SEPARATOR in part:
            raise UnrepresentableValue(f"list element {part!r} contains the 0x1f separator")
    return LIST_SEPARATOR.join(parts)


@_gc_paused
def to_graphml(graph: PropertyGraph) -> bytes:
    """The graph as GraphML in UTF-8, with one typed <key> per property key."""
    # Imported here: saxutils pulls in urllib.request, http.client and ssl,
    # tens of milliseconds that every convert launch would pay otherwise.
    from xml.sax.saxutils import escape, quoteattr

    nodes, edges = graph.canonical_records()

    # One <key> per (domain, property key); "labels" is always declared.
    key_values: dict = {}
    for domain, records in (("node", nodes), ("edge", edges)):
        for record in records:
            for key, value in record.properties:
                key_values.setdefault((domain, key), []).append(value)

    declarations = [("node", "labels"), ("edge", "labels")]
    for pair in declarations:
        if pair in key_values:  # the transform writes p_labels instead
            raise UnrepresentableValue(f"{pair[0]} property key 'labels' would share the label key")
    declarations.extend(sorted(key_values))
    key_ids = {pair: f"d{i}" for i, pair in enumerate(declarations)}

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for pair in declarations:
        domain, key = pair
        values = key_values.get(pair, [])
        # a key whose values are all of one kind gets that kind's attr.type
        items = [item for value in values for item in (value if isinstance(value, list) else [value])]
        types = {kind_of(item).graphml for item in items}
        attr_type = types.pop() if key != "labels" and len(types) == 1 else "string"
        extra = ' list="true"' if any(isinstance(v, list) for v in values) else ""
        lines.append(
            f'  <key id="{key_ids[pair]}" for="{domain}" '
            f"attr.name={quoteattr(key)} attr.type=\"{attr_type}\"{extra}/>"
        )
    lines.append('  <graph id="G" edgedefault="directed">')

    def data_lines(domain: str, record, indent: str) -> list:
        out = [
            f"{indent}<data key=\"{key_ids[(domain, 'labels')]}\">"
            + escape(";".join(record.labels))
            + "</data>"
        ]
        for key, value in record.properties:
            out.append(
                f'{indent}<data key="{key_ids[(domain, key)]}">'
                + escape(_graphml_value(value))
                + "</data>"
            )
        return out

    # each node id is quoted once; edges reuse it for their endpoints (an
    # endpoint with no node, in a graph built by hand, is quoted on the spot)
    quoted_ids: dict = {}
    for record in nodes:
        quoted_ids[record.id] = quoted = quoteattr(record.id)
        lines.append(f"    <node id={quoted}>")
        lines.extend(data_lines("node", record, "      "))
        lines.append("    </node>")
    for record in edges:
        source = quoted_ids.get(record.source) or quoteattr(record.source)
        target = quoted_ids.get(record.target) or quoteattr(record.target)
        lines.append(f"    <edge id={quoteattr(record.id)} source={source} target={target}>")
        lines.extend(data_lines("edge", record, "      "))
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Cypher
# ---------------------------------------------------------------------------

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _name(name: str) -> str:
    """A label or key as openCypher reads it: bare if an identifier, else in backticks."""
    if _IDENTIFIER.match(name):
        return name
    if not name:
        raise UnrepresentableValue("an empty label or property key has no Cypher name")
    return "`" + name.replace("`", "``") + "`"


def _cypher_value(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(kind_of(item).cypher(item) for item in value) + "]"
    return kind_of(value).cypher(value)


def _label_chain(labels) -> str:
    ordered = sorted(labels, key=lambda s: (s.casefold(), s))
    return "".join(":" + _name(label) for label in ordered)


def _prop_block(record) -> str:
    props = dict(record.properties)
    if "id" in props:  # the transform writes p_id instead
        raise UnrepresentableValue(f"property key 'id' of {record.id!r} would share the record id")
    props["id"] = record.id
    parts = [f"{_name(key)}: {_cypher_value(props[key])}" for key in sorted(props)]
    return "{" + ", ".join(parts) + "}"


@_gc_paused
def to_cypher(graph: PropertyGraph) -> str:
    """The graph as openCypher CREATE statements, one per line."""
    nodes, edges = graph.canonical_records()
    if not nodes:
        return ""
    lines = []
    variables = {}
    for i, record in enumerate(nodes):
        var = f"n{i}"
        variables[record.id] = var
        lines.append(f"CREATE ({var}{_label_chain(record.labels)} {_prop_block(record)})")
    for record in edges:
        source = variables[record.source]
        target = variables[record.target]
        lines.append(
            f"CREATE ({source})-[{_label_chain(record.labels)} "
            f"{_prop_block(record)}]->({target})"
        )
    return "\n".join(lines) + "\n"
