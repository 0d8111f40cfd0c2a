"""Property graph serialization: JSON, GraphML, and openCypher CREATE scripts.

All three exporters read the same canonical walk,
PropertyGraph.canonical_records(), so their output depends only on graph
content, never on construction order. The JSON, GraphML and Cypher exports
of one transform result share one walk, which the sealed graph keeps. The
exporters read the typed property values directly, a list value as the
walk's tuple; nothing is encoded to JSON-ready form and decoded back. JSON
and GraphML return UTF-8 bytes; Cypher returns text. Every format is written
line by line with LF endings to keep output byte-reproducible.

The walk refuses a graph that breaks pgraph's rules, so each exporter
refuses only what its own format cannot hold (UnrepresentableValue).

to_json writes the walk record by record as JSON indented by two spaces,
with non-ASCII text kept as it is and each string written by json's own C
string encoder. It joins the chunks of _json_chunks, which the CLI writes
out one by one instead, so that it never holds the whole output.
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
    _checked,
    _endpoints,
    _shown,
    _unique,
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

    The walk runs, and refuses an invalid graph, before this returns. A
    chunk can still refuse a string holding a lone surrogate, which UTF-8
    cannot encode, or an integer too long for str(). A graph made by
    transform holds neither, since the parser refuses surrogates and
    literal_value keeps such an integer as its text: so its chunks cannot
    fail, and convert can write each as it comes.
    """
    nodes, edges = graph.canonical_records()
    return _utf8_chunks(_json_pieces(nodes, edges))


def _json_pieces(nodes: tuple, edges: tuple) -> Iterator[str]:
    yield "{\n"
    yield from _json_array("nodes", nodes)
    yield ",\n"
    yield from _json_array("edges", edges)
    yield "\n}\n"


def _json_array(name: str, records: tuple) -> Iterator[str]:
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
            yield _utf8("".join(buffer))
            buffer.clear()
            size = 0
    yield _utf8("".join(buffer))


def _utf8(text: str) -> bytes:
    """text in UTF-8, which refuses only a lone surrogate, worded as from_json words it."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UnrepresentableValue(f"text holds a lone surrogate {exc.object[exc.start:exc.end]!r}") from None


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
        + (encode_basestring(value) if type(value) is str else _json_value(key, value, "        "))
        for key, value in record.properties
    ) + "\n      }\n    }"


def _json_value(key: str, value, indent: str) -> str:
    """encode_value(value) of property key as json.dumps(indent=2) prints it at this indent."""
    inner = indent + "  "
    if type(value) is tuple:  # a list, flat and non-empty: the walk checked it
        items = ",\n".join(inner + _json_value(key, item, inner) for item in value)
        return "[\n" + items + "\n" + indent + "]"
    kind = _KINDS[type(value)]
    if kind.tag is None:
        try:
            return kind.json(value)
        except ValueError:  # int's alone: more digits than sys.get_int_max_str_digits()
            raise UnrepresentableValue(f"property {key!r} holds an integer too long for str()") from None
    text = encode_basestring(kind.text(value))
    return "{\n" + inner + f'"{kind.tag}": ' + text + "\n" + indent + "}"


# Only text with a \uD800-\uDFFF escape, or a raw surrogate, can give a
# string that UTF-8, and so to_json, cannot write. Two patterns, as one
# alternation scans many times slower.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_RAW_SURROGATE = re.compile("[\ud800-\udfff]")


def _record_parts(record, kind: str, string_fields: tuple, nodes: dict, filed: dict,
                  surrogates: bool) -> tuple:
    """(names, labels, properties) of one JSON record; string_fields name its id, then any endpoints.

    filed holds the records of its kind read so far; surrogates says whether
    the document's text may hold a lone surrogate, which the record is then
    checked for. Here are refused only what a JSON document alone can get
    wrong: a record that is no object, labels that are no list, properties
    that are no object, a value decode_value refuses, a lone surrogate and
    a repeated id (_unique). Rules 1-3 are pgraph's _checked, the one check
    the canonical walk makes too, and rule 4 is _endpoints.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{kind} record is not an object: {_shown(repr(record))}")
    names = tuple(map(record.get, string_fields))
    labels, properties = record.get("labels"), record.get("properties")
    try:
        if surrogates:
            try:
                json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(f"text holds a lone surrogate {exc.object[exc.start:exc.end]!r}") from None
        if not isinstance(labels, list):
            raise ValueError("labels must be a list")
        if not isinstance(properties, dict):
            raise ValueError("properties must be an object")
        for value in properties.values():
            if type(value) is not str:  # a JSON string is a str value as it stands
                properties = {key: decode_value(value) for key, value in properties.items()}
                break
        _checked(names, labels, properties)
        if names[0] in filed:
            _unique(filed, names[0])
        for end in names[1:]:
            if end not in nodes:
                _endpoints(nodes, *names[1:])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind} {_shown(str(record.get('id')))}: {exc}") from exc
    return names, set(labels), properties


@_gc_paused
def from_json(data) -> PropertyGraph:
    """The graph of a JSON graph document such as to_json writes.

    ValueError for text that is not JSON (arrays nested too deep for
    json.loads among it) or has no "nodes" and "edges" lists, and for a
    record that is not an object, whose labels are not a list or whose
    properties are not an object, that holds a value decode_value refuses
    or a lone surrogate, or that breaks a graph rule (a repeated id among
    them). It accepts what to_json never writes: a repeated label, records,
    labels and keys in any order, and keys it does not read.
    """
    from_bytes = isinstance(data, (bytes, bytearray))
    if from_bytes:
        data = data.decode("utf-8")  # strict: no raw surrogate gets through
    try:
        form = json.loads(data)
        nodes = form["nodes"]
        edges = form["edges"]
    except (json.JSONDecodeError, TypeError, KeyError, RecursionError) as exc:
        raise ValueError(f"not a property graph JSON document: {exc}") from exc
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise ValueError("not a property graph JSON document: nodes and edges must be lists")

    surrogates = _SURROGATE_ESCAPE.search(data) is not None or (
        not from_bytes and _RAW_SURROGATE.search(data) is not None
    )
    # records are filed straight into the new graph's dicts, once checked
    graph = PropertyGraph()
    graph_nodes, graph_edges = graph._nodes, graph._edges
    for record in nodes:
        (record_id,), labels, props = _record_parts(
            record, "node", ("id",), graph_nodes, graph_nodes, surrogates
        )
        graph_nodes[record_id] = Node(record_id, labels, props)
    for record in edges:
        names, labels, props = _record_parts(
            record, "edge", ("id", "source", "target"), graph_nodes, graph_edges, surrogates
        )
        graph_edges[names[0]] = Edge(*names, labels, props)
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
    if type(value) is not tuple:
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
                if type(value) is tuple:  # a list value, as the walk holds it
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
    return _utf8("\n".join(lines) + "\n")


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
    if type(value) is tuple:
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
    """The graph as openCypher CREATE statements, one per line.

    The script is text, but a caller writes it in UTF-8, as convert does: so
    a string holding a lone surrogate is refused as to_json refuses it.
    """
    nodes, edges = graph.canonical_records()
    if not nodes:
        return ""
    chains: dict = {}  # sorted labels -> ":A:B"
    prefixes: dict = {}  # property key -> "name: "

    def body(record) -> str:
        """Labels and properties, as every CREATE line writes them."""
        chain = chains.get(record.labels)
        if chain is None:
            chain = chains[record.labels] = _label_chain(record.labels)
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
    text = "\n".join(lines) + "\n"
    if not text.isascii():  # only text beyond ASCII can hold a lone surrogate
        _utf8(text)
    return text
