"""Property graph serialization: JSON, GraphML, and openCypher CREATE scripts.

All three exporters read the same canonical walk,
PropertyGraph.canonical_records(), so their output depends only on graph
content, never on construction order. They read the typed property values
directly; nothing is encoded to JSON-ready form and decoded back. JSON and
GraphML return UTF-8 bytes; Cypher returns text. Every format is written
line by line with LF endings to keep output byte-reproducible.

The walk refuses a graph that breaks pgraph's rules, so each exporter
refuses only what its own format cannot hold (UnrepresentableValue).

to_json writes, record by record, exactly the bytes of
json.dumps(graph.canonical_form(), indent=2, ensure_ascii=False) plus a
newline, using json's own C string encoder. It joins the chunks of
_json_chunks, which the CLI writes out one by one instead, so that it never
holds the whole output.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections import defaultdict
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterator

from .model import _gc_paused
from .pgraph import (
    _KINDS,
    Edge,
    EdgeRecord,
    Node,
    PropertyGraph,
    _endpoints,
    _labelled,
    _strings,
    _unique,
    check_value,
    decode_value,
)

_CHUNK = 1 << 16  # least JSON characters per chunk streamed, the last excepted
LIST_SEPARATOR = "\x1f"  # US unit separator; joins list elements in GraphML
_INT64 = range(-(2**63), 2**63)  # GraphML's long and openCypher's INTEGER
_first = itemgetter(0)


class UnrepresentableValue(Exception):
    """Raised when a value cannot survive the target format's encoding."""


def _kind_64(key, value):
    """The kind of value, refusing an integer that 64 bits cannot hold."""
    if type(value) is int and value not in _INT64:
        raise UnrepresentableValue(f"property {key!r} holds an integer outside the signed 64-bit range")
    return _KINDS[type(value)]


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


@_gc_paused
def to_json(graph: PropertyGraph) -> bytes:
    """The graph's canonical form as indented JSON, in UTF-8."""
    return b"".join(_json_chunks(graph))


def _json_chunks(graph: PropertyGraph) -> Iterator[bytes]:
    """to_json's bytes, in UTF-8 chunks of _CHUNK characters or a record more.

    The walk runs, and refuses an invalid graph, before this returns; the
    chunks cannot fail after that, since JSON holds every valid graph.
    """
    nodes, edges = graph.canonical_records()
    return _utf8_chunks(_json_pieces(nodes, edges))


def _json_pieces(nodes: list, edges: list) -> Iterator[str]:
    yield "{\n"
    yield from _json_array("nodes", nodes)
    yield ",\n"
    yield from _json_array("edges", edges)
    yield "\n}\n"


def _json_array(name: str, records: list) -> Iterator[str]:
    if not records:
        yield f'  "{name}": []'
        return
    before = f'  "{name}": [\n'
    for record in records:
        yield before + _json_record(record)
        before = ",\n"
    yield "\n  ]"


def _utf8_chunks(pieces) -> Iterator[bytes]:
    """The text of pieces, encoded in chunks of at least _CHUNK characters, the last excepted."""
    buffer: list = []
    size = 0
    for piece in pieces:
        buffer.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            yield "".join(buffer).encode("utf-8")
            buffer.clear()
            size = 0
    yield "".join(buffer).encode("utf-8")


def _json_record(record) -> str:
    """One walk record, laid out as json.dumps(indent=2) puts it in the array."""
    text = '    {\n      "id": ' + encode_basestring(record.id)
    if isinstance(record, EdgeRecord):
        text += (
            ',\n      "source": ' + encode_basestring(record.source)
            + ',\n      "target": ' + encode_basestring(record.target)
        )
    text += ',\n      "labels": [\n        ' + ",\n        ".join(
        map(encode_basestring, record.labels)
    ) + "\n      ]"
    if not record.properties:
        return text + ',\n      "properties": {}\n    }'
    return text + ',\n      "properties": {\n        ' + ",\n        ".join(
        encode_basestring(key) + ": "
        + (encode_basestring(value) if type(value) is str else _json_value(value, "        "))
        for key, value in record.properties
    ) + "\n      }\n    }"


def _json_value(value, indent: str) -> str:
    """encode_value(value) as json.dumps(indent=2) prints it at this indent."""
    inner = indent + "  "
    if type(value) is list:  # flat and non-empty: the walk checked it
        items = ",\n".join(inner + _json_value(item, inner) for item in value)
        return "[\n" + items + "\n" + indent + "]"
    kind = _KINDS[type(value)]
    if kind.tag is None:
        return kind.json(value)
    text = encode_basestring(kind.text(value))
    return "{\n" + inner + f'"{kind.tag}": ' + text + "\n" + indent + "}"


def _record_parts(record, kind: str, string_fields: tuple, nodes: dict, filed: dict) -> tuple:
    """(labels, properties) of one JSON record; string_fields name its id, then any endpoints.

    filed holds the records of its kind read so far.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{kind} record is not an object: {record!r}")
    labels, properties = record.get("labels"), record.get("properties")
    try:
        record_id, *ends = _strings([record.get(name) for name in string_fields])
        _unique(filed, record_id)
        _endpoints(nodes, *ends)
        if not isinstance(labels, list):
            raise ValueError("labels must be a list")
        _labelled(_strings(labels))
        if not isinstance(properties, dict):
            raise ValueError("properties must be an object")
        props = {}
        # a JSON key and a JSON string are strings, and decode_value returns
        # only valid scalars: just a list still needs its kinds checked
        for key, value in properties.items():
            if type(value) is not str:
                value = decode_value(value)
                if type(value) is list:
                    check_value(value)
            props[key] = value
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind} {record.get('id')}: {exc}") from exc
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
        labels, props = _record_parts(record, "node", ("id",), graph.nodes, graph.nodes)
        graph.nodes[record["id"]] = Node(record["id"], labels, props)
    for record in edges:
        labels, props = _record_parts(record, "edge", ("id", "source", "target"), graph.nodes, graph.edges)
        graph.edges[record["id"]] = Edge(record["id"], record["source"], record["target"], labels, props)
    return graph


# ---------------------------------------------------------------------------
# GraphML
# ---------------------------------------------------------------------------

# The characters saxutils.escape (text) and quoteattr (attributes) change;
# text holding none of them is written as it is, without the call.
_XML_TEXT_SPECIAL = re.compile("[&<>]")
_XML_ATTR_SPECIAL = re.compile(r'[&<>"\n\r\t]')


def _xml_text(text: str) -> str:
    """saxutils.escape(text)."""
    if _XML_TEXT_SPECIAL.search(text) is None:
        return text
    # Imported here: saxutils pulls in urllib.request, http.client and ssl,
    # tens of milliseconds that every convert launch would pay otherwise.
    from xml.sax.saxutils import escape

    return escape(text)


def _xml_attr(text: str) -> str:
    """saxutils.quoteattr(text)."""
    if _XML_ATTR_SPECIAL.search(text) is None:
        return '"' + text + '"'
    from xml.sax.saxutils import quoteattr

    return quoteattr(text)


def _graphml_value(key: str, value) -> str:
    if not isinstance(value, list):
        return _kind_64(key, value).text(value)
    parts = [_kind_64(key, item).text(item) for item in value]
    for part in parts:
        if LIST_SEPARATOR in part:
            raise UnrepresentableValue(f"list element {part!r} contains the 0x1f separator")
    return LIST_SEPARATOR.join(parts)


@_gc_paused
def to_graphml(graph: PropertyGraph) -> bytes:
    """The graph as GraphML in UTF-8, with one typed <key> per property key."""
    nodes, edges = graph.canonical_records()

    # One <key> per (domain, property key), typed by the kinds of its values
    # and marked if any value is a list; "labels" is always declared. A list
    # is non-empty and of one kind, so its first item gives its kind.
    value_types = {"node": defaultdict(set), "edge": defaultdict(set)}
    list_keys = set()
    for domain, records in (("node", nodes), ("edge", edges)):
        seen = value_types[domain]
        for record in records:
            for key, value in record.properties:
                if type(value) is list:
                    list_keys.add((domain, key))
                    value = value[0]
                seen[key].add(type(value))

    for domain, seen in value_types.items():
        if "labels" in seen:  # the transform writes p_labels instead
            raise UnrepresentableValue(f"{domain} property key 'labels' would share the label key")
    declarations = [("node", "labels"), ("edge", "labels")]
    declarations.extend(sorted((domain, key) for domain, seen in value_types.items() for key in seen))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    openers = {"node": {}, "edge": {}}  # domain -> key -> its <data> opening tag
    for i, (domain, key) in enumerate(declarations):
        openers[domain][key] = f'      <data key="d{i}">'
        # a key whose values are all of one kind gets that kind's attr.type
        types = {_KINDS[t].graphml for t in value_types[domain].get(key, ())}
        attr_type = types.pop() if key != "labels" and len(types) == 1 else "string"
        extra = ' list="true"' if (domain, key) in list_keys else ""
        lines.append(
            f'  <key id="d{i}" for="{domain}" '
            f'attr.name={_xml_attr(key)} attr.type="{attr_type}"{extra}/>'
        )
    lines.append('  <graph id="G" edgedefault="directed">')

    def data_lines(record, opener: dict) -> None:
        lines.append(opener["labels"] + _xml_text(";".join(record.labels)) + "</data>")
        for key, value in record.properties:
            text = value if type(value) is str else _graphml_value(key, value)
            lines.append(opener[key] + _xml_text(text) + "</data>")

    # each node id is quoted once; edges reuse it for their endpoints
    quoted_ids: dict = {}
    for record in nodes:
        quoted_ids[record.id] = quoted = _xml_attr(record.id)
        lines.append(f"    <node id={quoted}>")
        data_lines(record, openers["node"])
        lines.append("    </node>")
    for record in edges:
        source, target = quoted_ids[record.source], quoted_ids[record.target]
        lines.append(f"    <edge id={_xml_attr(record.id)} source={source} target={target}>")
        data_lines(record, openers["edge"])
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Cypher
# ---------------------------------------------------------------------------

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# The characters the string kind's Cypher literal escapes; a string holding
# none of them is written as it is, in double quotes.
_CYPHER_SPECIAL = re.compile(r'[\\"\n\r\t]')


def _name(name: str) -> str:
    """A label or key as openCypher reads it: bare if an identifier, else in backticks."""
    if _IDENTIFIER.match(name):
        return name
    if not name:
        raise UnrepresentableValue("an empty label or property key has no Cypher name")
    if "\n" in name or "\r" in name:
        raise UnrepresentableValue(f"the name {name!r} holds a line break; each record is one line")
    return "`" + name.replace("`", "``") + "`"


def _cypher_scalar(key: str, value) -> str:
    """The kind table's Cypher literal for one (non-list) value of property `key`."""
    if type(value) is str and _CYPHER_SPECIAL.search(value) is None:
        return '"' + value + '"'
    return _kind_64(key, value).cypher(value)


def _cypher_value(key: str, value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join([_cypher_scalar(key, item) for item in value]) + "]"
    return _cypher_scalar(key, value)


def _label_chain(labels) -> str:
    ordered = sorted(labels, key=lambda s: (s.casefold(), s))
    return "".join(":" + _name(label) for label in ordered)


def _prop_block(record, prefixes: dict) -> str:
    """{key: value, ...} with the record's id merged in at its sorted place.

    prefixes maps each key already written to its "name: " text.
    """
    pairs = record.properties
    at = bisect_left(pairs, "id", key=_first)
    if at < len(pairs) and pairs[at][0] == "id":  # the transform writes p_id instead
        raise UnrepresentableValue(f"property key 'id' of {record.id!r} would share the record id")
    parts = []
    for key, value in pairs:
        prefix = prefixes.get(key)
        if prefix is None:
            prefix = prefixes[key] = _name(key) + ": "
        parts.append(prefix + _cypher_value(key, value))
    parts.insert(at, "id: " + _cypher_scalar("id", record.id))
    return "{" + ", ".join(parts) + "}"


@_gc_paused
def to_cypher(graph: PropertyGraph) -> str:
    """The graph as openCypher CREATE statements, one per line."""
    nodes, edges = graph.canonical_records()
    if not nodes:
        return ""
    chains: dict = {}  # sorted labels -> ":A:B"
    prefixes: dict = {}  # property key -> "name: "

    def body(record) -> str:
        """Labels and properties, as every CREATE line writes them."""
        labels = tuple(record.labels)
        chain = chains.get(labels)
        if chain is None:
            chain = chains[labels] = _label_chain(labels)
        return chain + " " + _prop_block(record, prefixes)

    lines = []
    variables = {}
    for i, record in enumerate(nodes):
        var = f"n{i}"
        variables[record.id] = var
        lines.append(f"CREATE ({var}{body(record)})")
    for record in edges:
        source = variables[record.source]
        target = variables[record.target]
        lines.append(f"CREATE ({source})-[{body(record)}]->({target})")
    return "\n".join(lines) + "\n"
