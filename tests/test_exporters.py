import copy
import datetime
import hashlib
import json
import re
import xml.etree.ElementTree as ET
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfstar2pg.conformance import builtin_corpus, case_sort_key
from rdfstar2pg.exporters import (
    _IDENTIFIER,
    LIST_SEPARATOR,
    UnrepresentableValue,
    _cypher_scalar,
    _xml_attr,
    _xml_text,
    from_json,
    to_cypher,
    to_graphml,
    to_json,
)
from rdfstar2pg.parser import parse_turtle_star
from rdfstar2pg import pgraph
from rdfstar2pg.pgraph import DanglingEndpoint, Edge, Node, PropertyGraph, iri_key, kind_of
from rdfstar2pg.transform import Approach, TransformConfig, hybrid, pgt, rpt, transform

EX = "@prefix ex: <http://example.org/> .\n"


def add_node(graph, key, labels, properties=None) -> str:
    """File the node for identity key by hand; returns its id."""
    node = Node(pgraph.node_id(key), set(labels), dict(properties or {}))
    graph.nodes[node.id] = node
    return node.id


def add_edge(graph, key, source, target, labels, properties=None) -> str:
    """File the edge for identity key by hand; returns its id."""
    edge = Edge(pgraph.edge_id(key), source, target, set(labels), dict(properties or {}))
    graph.edges[edge.id] = edge
    return edge.id


def sample_graph():
    g = PropertyGraph()
    a = add_node(g, iri_key("http://x/a"), {"Resource"}, {"iri": "http://x/a"})
    b = add_node(g, iri_key("http://x/b"), {"Resource"}, {"iri": "http://x/b"})
    add_edge(
        g,
        "stmt:x",
        a,
        b,
        {"likes"},
        {
            "certainty": Decimal("0.5"),
            "count": 3,
            "flag": True,
            "when": datetime.date(2020, 5, 17),
            "tags": ["x", "y"],
        },
    )
    return g


def corpus_graphs():
    from rdfstar2pg.conformance import builtin_corpus

    for case in builtin_corpus():
        ds = parse_turtle_star(case.source)
        for fn in (rpt, pgt, hybrid):
            graph, _ = fn(ds)
            yield case.id, fn.__name__, graph


def node(**fields):
    return {"id": "n:a", "labels": ["X"], "properties": {}, **fields}


def edge(**fields):
    return {"id": "e:1", "source": "n:a", "target": "n:a", "labels": ["l"], "properties": {}, **fields}


def graph_doc(*records):
    """A JSON graph document: the first record is a node, the rest are edges."""
    return {"nodes": list(records[:1]), "edges": list(records[1:])}


class TestJson:
    def test_bytes_utf8_trailing_newline(self):
        blob = to_json(sample_graph())
        assert isinstance(blob, bytes)
        assert blob.endswith(b"\n")
        json.loads(blob)  # valid JSON

    def test_round_trip_preserves_canonical_form(self):
        g = sample_graph()
        g2 = from_json(to_json(g))
        assert g2.canonical_form() == g.canonical_form()

    def test_round_trip_value_types(self):
        g2 = from_json(to_json(sample_graph()))
        edge = next(iter(g2.edges.values()))
        assert edge.properties["certainty"] == Decimal("0.5")
        assert edge.properties["count"] == 3
        assert edge.properties["flag"] is True
        assert edge.properties["when"] == datetime.date(2020, 5, 17)
        assert edge.properties["tags"] == ["x", "y"]

    def test_corpus_round_trips(self):
        for case_id, approach, graph in corpus_graphs():
            restored = from_json(to_json(graph))
            assert restored.canonical_form() == graph.canonical_form(), (case_id, approach)

    def test_same_graph_same_bytes(self):
        assert to_json(sample_graph()) == to_json(sample_graph())

    def test_from_json_rejects_non_graph_documents(self):
        with pytest.raises(ValueError):
            from_json(b'{"foo": 1}')
        with pytest.raises(ValueError):
            from_json(b"[1, 2]")

    def test_from_json_rejects_dangling_edge(self):
        doc = {
            "nodes": [{"id": "n:a", "labels": ["X"], "properties": {}}],
            "edges": [
                {
                    "id": "e:1",
                    "source": "n:a",
                    "target": "n:missing",
                    "labels": ["l"],
                    "properties": {},
                }
            ],
        }
        with pytest.raises(ValueError):
            from_json(json.dumps(doc).encode())

    def test_from_json_rejects_unlabelled_node(self):
        doc = {"nodes": [{"id": "n:a", "labels": [], "properties": {}}], "edges": []}
        with pytest.raises(ValueError):
            from_json(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "doc, message",
        [
            (graph_doc(node(id=7)), "node 7: node and edge ids, labels and property keys must be strings, got 7"),
            (graph_doc(node(labels=[1])), "node n:a: node and edge ids, labels and property keys must be strings, got 1"),
            (graph_doc(node(labels="X")), "node n:a: labels must be a list"),
            (graph_doc(node(labels=[])), "node n:a: nodes and edges need at least one label"),
            (graph_doc(node(properties=[])), "node n:a: properties must be an object"),
            (graph_doc(node(properties=None)), "node n:a: properties must be an object"),
            (graph_doc(node(properties={"k": []})), "node n:a: empty list"),
            (graph_doc(node(properties={"k": [1, "x"]})), "node n:a: list property values must be homogeneous"),
            (graph_doc("n:a"), "node record is not an object"),
            ({"nodes": {"n:a": node()}, "edges": []}, "nodes and edges must be lists"),
            (graph_doc(node(), edge(id=1)), "edge 1: node and edge ids, labels and property keys must be strings, got 1"),
            (graph_doc(node(), edge(source=None)), "edge e:1: node and edge ids, labels and property keys must be strings, got None"),
            (graph_doc(node(), edge(target=["n:a"])), "edge e:1: node and edge ids, labels and property keys must be strings, got "),
            (graph_doc(node(), edge(target="n:b")), "edge e:1: edge endpoint 'n:b' is not a node"),
            (graph_doc(node(), edge(labels=[None])), "edge e:1: node and edge ids, labels and property keys must be strings, got None"),
            (graph_doc(node(), edge(labels=[])), "edge e:1: nodes and edges need at least one label"),
            (graph_doc(node(), edge(properties=[1])), "edge e:1: properties must be an object"),
            (graph_doc(node(properties={"k": {"decimal": "abc"}})), "node n:a: invalid decimal text: 'abc'"),
            (graph_doc(node(properties={"k": {"date": 20200101}})), "node n:a: invalid date text: 20200101"),
            (graph_doc(node(properties={"k": {"decimal": 0.1}})), "node n:a: invalid decimal text: 0.1"),
            (graph_doc(node(properties={"k": [{"decimal": 1}]})), "node n:a: invalid decimal text: 1"),
            # text Decimal or date.fromisoformat reads but to_json never writes
            (graph_doc(node(properties={"k": {"decimal": " 1_0 "}})), "node n:a: invalid decimal text: ' 1_0 '"),
            (graph_doc(node(properties={"k": {"decimal": "sNaN"}})), "node n:a: invalid decimal text: 'sNaN'"),
            (graph_doc(node(properties={"k": {"decimal": "Infinity"}})), "node n:a: invalid decimal text: 'Infinity'"),
            (graph_doc(node(properties={"k": {"date": "2020-W01-1"}})), "node n:a: invalid date text: '2020-W01-1'"),
            (graph_doc(node(properties={"k": {"time": "03:04"}})), "node n:a: unknown tagged value"),
            (graph_doc(node(properties={"k": 1.5})), "node n:a: cannot decode property value: 1.5"),
            # a second record with one id used to replace the first: one node labelled Y, k lost
            ({"nodes": [node(properties={"k": 1}), node(labels=["Y"])], "edges": []}, "node n:a: id 'n:a' is repeated"),
            (graph_doc(node(), edge(), edge()), "edge e:1: id 'e:1' is repeated"),
            # text that UTF-8, and so to_json and to_graphml, cannot write
            (graph_doc(node(properties={"s": "\ud800"})), r"node n:a: text holds a lone surrogate '\\ud800'"),
            (graph_doc(node(id="n:\udc00")), r"node n:\udc00: text holds a lone surrogate '\\udc00'"),
            (graph_doc(node(properties={"k": [1, [2]]})), "node n:a: list property values must be flat"),
        ],
    )
    def test_from_json_rejects_malformed_records(self, doc, message):
        with pytest.raises(ValueError, match=message):
            from_json(json.dumps(doc).encode())

    def test_from_json_rejects_a_raw_surrogate_in_text(self):
        text = json.dumps(graph_doc(node(labels=["X\udfff"])), ensure_ascii=False)
        with pytest.raises(ValueError, match=r"node n:a: text holds a lone surrogate '\\udfff'"):
            from_json(text)

    def test_from_json_rejects_datetime_text(self):
        # the bytes the parent's to_json wrote for a datetime property
        doc = graph_doc(node(properties={"when": {"date": "2020-01-02T03:04:00"}}))
        with pytest.raises(ValueError):
            from_json(json.dumps(doc).encode())

    def test_from_json_rejects_bad_bytes(self):
        with pytest.raises(ValueError):
            from_json(b"not json")

    # a value's repr is cut to 80 characters: 77 of it and "..."
    @pytest.mark.parametrize(
        "doc, message",
        [
            (graph_doc("@"), "node record is not an object: {cut}"),
            (graph_doc(node(id="@")), "node {cut}: node and edge ids, labels and property keys must be strings, got {cut}"),
            (graph_doc(node(labels=["@"])), "node n:a: node and edge ids, labels and property keys must be strings, got {cut}"),
            (graph_doc(node(properties={"k": {"decimal": "@"}})), "node n:a: invalid decimal text: {cut}"),
            (graph_doc(node(properties={"k": {"time": "@"}})), "node n:a: unknown tagged value: {{'time': " + "[" * 68 + "..."),
        ],
        ids=["record", "id", "label", "tag-text", "unknown-tag"],
    )
    def test_from_json_shows_at_most_80_characters_of_a_value(self, doc, message):
        with pytest.raises(ValueError) as raised:
            from_json(json.dumps(doc).replace('"@"', "[" * 200 + "]" * 200))
        assert str(raised.value) == message.format(cut="[" * 77 + "...")

    # json.loads reads 500 levels, and decode_value meets them; it refuses 100,000
    @pytest.mark.parametrize("depth", [500, 100_000])
    def test_from_json_refuses_deeply_nested_arrays(self, depth):
        text = json.dumps(graph_doc(node(properties={"k": "@"})))
        with pytest.raises(ValueError) as raised:
            from_json(text.replace('"@"', "[" * depth + "]" * depth))
        assert len(str(raised.value)) < 200


def scalar_graph():
    g = PropertyGraph()
    a = add_node(g, iri_key("http://x/a"), {"Resource"}, {"iri": "http://x/a"})
    b = add_node(g, iri_key("http://x/b"), {"Resource"}, {"iri": "http://x/b"})
    add_edge(
        g,
        "stmt:x",
        a,
        b,
        {"likes"},
        {"certainty": Decimal("0.5"), "count": 3, "flag": True, "when": datetime.date(2020, 5, 17)},
    )
    return g


class TestGraphml:
    def test_well_formed_xml_for_scalar_graphs(self):
        root = ET.fromstring(to_graphml(scalar_graph()))
        assert root.tag.endswith("graphml")

    def test_edge_endpoints_quoted_as_their_nodes(self):
        graph = PropertyGraph()
        graph.nodes['n:<a&"b">'] = Node('n:<a&"b">', {"X"}, {})
        graph.nodes["n:c"] = Node("n:c", {"X"}, {})
        graph.edges["e:1"] = Edge("e:1", 'n:<a&"b">', "n:c", {"r"}, {})
        text = to_graphml(graph).decode()
        assert """<node id='n:&lt;a&amp;"b"&gt;'>""" in text
        assert """<edge id="e:1" source='n:&lt;a&amp;"b"&gt;' target="n:c">""" in text
        graph.edges["e:1"].target = "n:gone"  # built by hand: no such node
        with pytest.raises(DanglingEndpoint, match="edge endpoint 'n:gone' is not a node"):
            to_graphml(graph)

    def test_list_separator_is_a_raw_control_character(self):
        # list values embed U+001F verbatim; consumers split on it, and strict
        # XML 1.0 parsers will reject documents that contain lists
        blob = to_graphml(sample_graph())
        assert LIST_SEPARATOR.encode() in blob
        with pytest.raises(ET.ParseError):
            ET.fromstring(blob)

    def test_key_declarations(self):
        text = to_graphml(sample_graph()).decode()
        assert '<key id="d0" for="node" attr.name="labels" attr.type="string"/>' in text
        assert '<key id="d1" for="edge" attr.name="labels" attr.type="string"/>' in text
        # typed keys
        assert 'attr.name="certainty" attr.type="double"' in text
        assert 'attr.name="count" attr.type="long"' in text
        assert 'attr.name="flag" attr.type="boolean"' in text

    def test_list_values_joined_and_marked(self):
        source = EX + 'ex:dp ex:subject "Info_Page" .\nex:dp ex:subject "aau_page" .'
        graph, _ = hybrid(parse_turtle_star(source))
        text = to_graphml(graph).decode()
        assert 'attr.name="subject" attr.type="string" list="true"' in text
        assert f"Info_Page{LIST_SEPARATOR}aau_page" in text

    def test_list_round_trip_by_splitting(self):
        source = EX + 'ex:dp ex:subject "Info_Page" .\nex:dp ex:subject "aau_page" .'
        graph, _ = hybrid(parse_turtle_star(source))
        text = to_graphml(graph).decode()
        joined = next(
            line.split(">", 1)[1].rsplit("<", 1)[0]
            for line in text.splitlines()
            if LIST_SEPARATOR in line
        )
        assert joined.split(LIST_SEPARATOR) == ["Info_Page", "aau_page"]

    def test_separator_inside_element_rejected(self):
        g = PropertyGraph()
        add_node(g, "a", {"X"}, {"bad": [f"has{LIST_SEPARATOR}sep", "ok"]})
        with pytest.raises(UnrepresentableValue):
            to_graphml(g)

    def test_labels_property_from_a_predicate_gets_its_own_key(self):
        graph, _ = pgt(parse_turtle_star(EX + 'ex:a ex:labels "x" .'))
        text = to_graphml(graph).decode()
        assert text.count('attr.name="labels"') == 2  # the node and edge label keys
        assert 'attr.name="p_labels"' in text

    @pytest.mark.parametrize("domain", ["node", "edge"])
    def test_labels_property_built_by_hand_rejected(self, domain):
        g = PropertyGraph()
        a = add_node(g, "a", {"X"}, {"labels": "x"} if domain == "node" else {})
        add_edge(g, "e", a, a, {"r"}, {"labels": "x"} if domain == "edge" else {})
        with pytest.raises(UnrepresentableValue, match=f"{domain} property key 'labels'"):
            to_graphml(g)

    def test_scalar_with_separator_is_fine(self):
        # only list elements are ambiguous; scalars never get split
        g = PropertyGraph()
        add_node(g, "a", {"X"}, {"odd": f"has{LIST_SEPARATOR}sep"})
        to_graphml(g)

    def test_xml_escaping(self):
        g = PropertyGraph()
        add_node(g, "a", {"X"}, {"text": '<tag> & "quoted"'})
        root = ET.fromstring(to_graphml(g))
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        data = [d.text for d in root.findall(".//g:node/g:data", ns)]
        assert '<tag> & "quoted"' in data

    def test_labels_semicolon_joined(self):
        g = PropertyGraph()
        add_node(g, "a", {"Zeta", "Alpha"})
        text = to_graphml(g).decode()
        assert ">Alpha;Zeta<" in text

    def test_deterministic(self):
        assert to_graphml(sample_graph()) == to_graphml(sample_graph())

    def test_mixed_type_key_degrades_to_string(self):
        g = PropertyGraph()
        add_node(g, "a", {"X"}, {"v": 1})
        add_node(g, "b", {"X"}, {"v": "s"})
        text = to_graphml(g).decode()
        assert 'attr.name="v" attr.type="string"' in text

    def test_edges_reference_node_ids(self):
        source = EX + "ex:alice ex:meets ex:bob ."
        graph, _ = hybrid(parse_turtle_star(source))
        root = ET.fromstring(to_graphml(graph))
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        node_ids = {n.get("id") for n in root.findall(".//g:node", ns)}
        for edge in root.findall(".//g:edge", ns):
            assert edge.get("source") in node_ids
            assert edge.get("target") in node_ids


class TestCypher:
    def test_simple_statement_script(self):
        graph, _ = hybrid(parse_turtle_star(EX + "ex:alice ex:meets ex:bob ."))
        script = to_cypher(graph)
        assert script.splitlines() == [
            'CREATE (n0:Resource {id: "n:iri:http%3A//example.org/alice", iri: "http://example.org/alice"})',
            'CREATE (n1:Resource {id: "n:iri:http%3A//example.org/bob", iri: "http://example.org/bob"})',
            'CREATE (n0)-[:meets {id: "e:0fe09a35486a791f"}]->(n1)',
        ]

    def test_multi_label_relationships_sorted_case_insensitively(self):
        graph, _ = rpt(parse_turtle_star(EX + 'ex:s ex:p "a" .'))
        script = to_cypher(graph)
        assert "-[:DatatypeProperty:p {" in script

    def test_string_escaping(self):
        g = PropertyGraph()
        add_node(g, "a", {"X"}, {"text": 'say "hi"\n\tdone\\'})
        script = to_cypher(g)
        assert '\\"hi\\"' in script and "\\n" in script and "\\t" in script and "\\\\" in script

    def test_value_rendering(self):
        g = PropertyGraph()
        add_node(
            g,
            "a",
            {"X"},
            {
                "d": Decimal("0.5"),
                "i": 7,
                "b": True,
                "w": datetime.date(2020, 5, 17),
                "l": ["x", "y"],
            },
        )
        script = to_cypher(g)
        assert "d: 0.5" in script
        assert "i: 7" in script
        assert "b: true" in script
        assert 'w: "2020-05-17"' in script
        assert 'l: ["x", "y"]' in script

    def test_digit_prefix_label_quoted(self):
        g = PropertyGraph()
        add_node(g, "a", {"22-rdf-syntax-nstype"})
        assert ":`22-rdf-syntax-nstype`" in to_cypher(g)

    def test_near_names_stay_distinct(self):
        g = PropertyGraph()
        add_node(g, "a", {"X"}, {"a-b": 1, "a_b": 2, "a:b": 3, "a.b": 4})
        assert "{`a-b`: 1, `a.b`: 4, `a:b`: 3, a_b: 2, id: " in to_cypher(g)

    def test_backticks_doubled(self):
        g = PropertyGraph()
        add_node(g, "a", {"--", "x`y"}, {"`": 1})
        script = to_cypher(g)
        assert ":`--`:`x``y` {````: 1, id: " in script

    @pytest.mark.parametrize("labels, props", [({""}, {}), ({"X"}, {"": 1})])
    def test_empty_name_refused(self, labels, props):
        g = PropertyGraph()
        g.nodes["a"] = Node("a", labels, props)
        with pytest.raises(UnrepresentableValue):
            to_cypher(g)

    @pytest.mark.parametrize("edge", [False, True])
    def test_id_property_refused(self, edge):
        g = PropertyGraph()
        g.nodes["n:a"] = Node("n:a", {"X"}, {} if edge else {"id": "mine"})
        if edge:
            g.edges["e:a"] = Edge("e:a", "n:a", "n:a", {"r"}, {"id": "mine"})
        with pytest.raises(UnrepresentableValue, match="'id'"):
            to_cypher(g)

    def test_empty_graph_is_empty_script(self):
        assert to_cypher(PropertyGraph()) == ""

    def test_deterministic(self):
        g1 = to_cypher(sample_graph())
        g2 = to_cypher(sample_graph())
        assert g1 == g2

    def test_every_corpus_graph_exports(self):
        for case_id, approach, graph in corpus_graphs():
            script = to_cypher(graph)
            assert script.count("CREATE") == len(graph.nodes) + len(graph.edges), (
                case_id,
                approach,
            )


# Every non-empty label and key survives to_cypher: bare when it is an
# identifier, in backticks (each inner backtick doubled) otherwise.
CYPHER_NAME = re.compile(r"`((?:[^`]|``)+)`|([A-Za-z_][A-Za-z0-9_]*)")
SMALL_VALUE = re.compile(r': (?:-?[0-9]+|"[^"]*")')
cypher_names = st.one_of(
    st.sampled_from(["22-rdf-syntax-nstype", "inv:source", "name.graph", "`", "a``b", "caf\u00e9", "a b"]),
    # a lone surrogate is refused (TestUtf8AndDigitLimits), so none is drawn
    st.text(st.one_of(st.sampled_from("` :.09_-aZ"), st.characters(blacklist_categories=("Cs",))),
            min_size=1, max_size=8),
).filter(lambda name: "\n" not in name and "\r" not in name)  # refused: see below


def read_names(text: str, pos: int) -> tuple:
    """The (name, was bare) labels and keys of the CREATE pattern body at pos, and its end."""
    labels, keys = [], []

    def read(pos):
        match = CYPHER_NAME.match(text, pos)
        quoted, bare = match.groups()
        name = bare if bare is not None else quoted.replace("``", "`")
        return (name, bare is not None), match.end()

    while text.startswith(":", pos):
        label, pos = read(pos + 1)
        labels.append(label)
    assert text.startswith(" {", pos)
    pos += 2
    while True:
        key, pos = read(pos)
        keys.append(key)
        pos = SMALL_VALUE.match(text, pos).end()
        if not text.startswith(", ", pos):
            break
        pos += 2
    assert text.startswith("}", pos)
    return labels, keys, pos + 1


class TestCypherNames:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sets(cypher_names, min_size=1, max_size=3),
        st.dictionaries(cypher_names.filter(lambda key: key != "id"), st.integers(-9, 9), max_size=3),
        st.sets(cypher_names, min_size=1, max_size=3),
        st.dictionaries(cypher_names.filter(lambda key: key != "id"), st.integers(-9, 9), max_size=3),
    )
    def test_quoting_undoes_to_the_graph_names(self, node_labels, node_props, edge_labels, edge_props):
        graph = PropertyGraph()
        graph.nodes["n"] = Node("n", node_labels, node_props)
        graph.edges["e"] = Edge("e", "n", "n", edge_labels, edge_props)
        script, pos, records = to_cypher(graph), 0, []
        for head, tail in (("CREATE (n0", ")\n"), ("CREATE (n0)-[", "]->(n0)\n")):
            assert script.startswith(head, pos)
            labels, keys, pos = read_names(script, pos + len(head))
            assert script.startswith(tail, pos)
            pos += len(tail)
            records.append((labels, keys))
        assert pos == len(script)
        for (labels, keys), (graph_labels, graph_props) in zip(
            records, [(node_labels, node_props), (edge_labels, edge_props)]
        ):
            assert [name for name, _ in labels] == sorted(graph_labels, key=lambda s: (s.casefold(), s))
            assert [name for name, _ in keys] == sorted([*graph_props, "id"])
            for name, bare in labels + keys:
                assert bare == bool(_IDENTIFIER.match(name)), name

    @pytest.mark.parametrize("name", ["a\nCREATE (x)", "a\rb", "\r\n", "`\n`"])
    @pytest.mark.parametrize("place", ["node label", "node key", "edge label", "edge key"])
    def test_a_line_break_in_a_name_is_refused(self, name, place):
        # one record per line: a name spread over two lines would not be
        graph = PropertyGraph()
        graph.nodes["n"] = Node("n", {name if place == "node label" else "X"},
                                {name: 1} if place == "node key" else {})
        graph.edges["e"] = Edge("e", "n", "n", {name if place == "edge label" else "p"},
                                {name: 1} if place == "edge key" else {})
        with pytest.raises(UnrepresentableValue, match="line break"):
            to_cypher(graph)


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------

# sha256 over every corpus export in one format: cases by case_sort_key, then
# Approach order. Any change to that exporter's output, however small,
# changes its digest.
CORPUS_EXPORTS_SHA256 = {
    "json": "f25e8c229728429a9dba98cf99edc8bfe58742a7709aeffb40b675e9adc2b1a8",
    "graphml": "1e49b8d8cc2fe6c92c583705c6aaca492516f8e2b289cc97819ae95aa4bf6ba0",
    "cypher": "7650468355f5ab925bfc1e4a50794bc5fb7779197a9809094d4f535a00cb68f7",
}
EXPORTERS = {"json": to_json, "graphml": to_graphml, "cypher": lambda g: to_cypher(g).encode()}


@pytest.mark.parametrize("fmt", sorted(CORPUS_EXPORTS_SHA256))
def test_corpus_export_bytes_are_pinned(fmt):
    digest = hashlib.sha256()
    count = 0
    for case in sorted(builtin_corpus(), key=lambda c: case_sort_key(c.id)):
        dataset = parse_turtle_star(case.source)
        for approach in Approach:
            graph, _ = transform(dataset, TransformConfig(approach=approach))
            digest.update(EXPORTERS[fmt](graph))
            count += 1
    assert count == 69
    assert digest.hexdigest() == CORPUS_EXPORTS_SHA256[fmt]


TRICKY_TEXT = ["", "caf\u00e9 \u65e5\u672c", "\x00\x1f\x7f", "a\u2028b\u2029c", '"\\/\n\t', "\U0001f600"]

text_values = st.one_of(st.sampled_from(TRICKY_TEXT), st.text(max_size=12))
scalar_kinds = [
    text_values,
    st.integers(min_value=-(2**100), max_value=2**100),
    st.booleans(),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.dates(),
]
property_values = st.one_of(
    *scalar_kinds, *(st.lists(kind, min_size=1, max_size=3) for kind in scalar_kinds)
)
property_maps = st.dictionaries(text_values, property_values, max_size=4)
label_sets = st.sets(text_values, min_size=1, max_size=3)


@st.composite
def hand_built_graphs(draw):
    """Valid graphs built record by record, so empty properties and names occur."""
    graph = PropertyGraph()
    for node_id in draw(st.lists(text_values, max_size=4, unique=True)):
        graph.nodes[node_id] = Node(node_id, draw(label_sets), draw(property_maps))
    if graph.nodes:
        ids = sorted(graph.nodes)
        for edge_id in draw(st.lists(text_values, max_size=4, unique=True)):
            source, target = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
            graph.edges[edge_id] = Edge(
                edge_id, source, target, draw(label_sets), draw(property_maps)
            )
    return graph


def json_reference(graph) -> bytes:
    return (json.dumps(graph.canonical_form(), indent=2, ensure_ascii=False) + "\n").encode()


class TestJsonMatchesReference:
    """to_json writes exactly json.dumps(canonical_form(), indent=2) bytes."""

    @settings(max_examples=400, deadline=None)
    @given(hand_built_graphs())
    def test_every_value_kind(self, graph):
        assert to_json(graph) == json_reference(graph)

    @settings(max_examples=200, deadline=None)
    @given(hand_built_graphs())
    def test_from_json_reads_back_every_graph_the_walk_accepts(self, graph):
        assert from_json(to_json(graph)).canonical_form() == graph.canonical_form()

    def test_empty_graph(self):
        assert to_json(PropertyGraph()) == json_reference(PropertyGraph())
        assert to_json(PropertyGraph()) == b'{\n  "nodes": [],\n  "edges": []\n}\n'

    def test_non_string_ids_labels_and_keys(self):
        # Only a graph built by hand breaks a graph rule; the walk refuses
        # each break with the same exception and message, whichever format asked.
        def node_id(graph):
            graph.nodes[7] = Node(7, {"C"}, {})

        def edge_id(graph):
            graph.edges["e:s"] = Edge(7, "n:a", "n:b", {"r"}, {})

        def source(graph):
            graph.edges["e:r"].source = 7

        def target(graph):
            graph.edges["e:r"].target = 7

        def node_label(graph):
            graph.nodes["n:a"].labels.add(7)

        def edge_label(graph):
            graph.edges["e:r"].labels.add(7)

        def key(graph):
            graph.nodes["n:b"].properties[7] = "x"

        def node_no_labels(graph):
            graph.nodes["n:a"].labels.clear()

        def edge_no_labels(graph):
            graph.edges["e:r"].labels.clear()

        def dangling_source(graph):
            graph.edges["e:r"].source = "n:zz"

        def dangling_target(graph):
            graph.edges["e:r"].target = "n:zz"

        def empty_list(graph):
            graph.nodes["n:a"].properties["k"] = []

        def nested_lists(graph):
            graph.edges["e:r"].properties["w"] = [[1, 2], []]

        def mixed_list(graph):
            graph.nodes["n:b"].properties["k"] = [1, "x"]

        def node_filed_elsewhere(graph):
            graph.nodes["n:b"].id = "n:c"

        def two_edges_one_id(graph):
            # to_json used to write both records, and from_json kept the second
            graph.edges["e:2"] = Edge("e:r", "n:a", "n:b", {"r"}, {})

        not_a_string = (TypeError, "node and edge ids, labels and property keys must be strings, got 7")
        no_labels = (ValueError, "nodes and edges need at least one label")
        refusals = [
            (node_id, not_a_string), (edge_id, not_a_string), (source, not_a_string),
            (target, not_a_string), (node_label, not_a_string), (edge_label, not_a_string),
            (key, not_a_string), (node_no_labels, no_labels), (edge_no_labels, no_labels),
            (dangling_source, (DanglingEndpoint, "edge endpoint 'n:zz' is not a node")),
            (dangling_target, (DanglingEndpoint, "edge endpoint 'n:zz' is not a node")),
            (empty_list, (TypeError, "empty list is not a valid property value")),
            (nested_lists, (TypeError, "unsupported property value: [1, 2]")),
            (mixed_list, (TypeError, "list property values must be homogeneous")),
            (node_filed_elsewhere, (ValueError, "id 'n:c' is filed under the key 'n:b'")),
            (two_edges_one_id, (ValueError, "id 'e:r' is filed under the key 'e:2'")),
        ]
        for spoil, (error, message) in refusals:
            graph = PropertyGraph()
            graph.nodes["n:a"] = Node("n:a", {"A"}, {"k": "x"})
            graph.nodes["n:b"] = Node("n:b", {"B"}, {})
            graph.edges["e:r"] = Edge("e:r", "n:a", "n:b", {"r"}, {"w": Decimal("1.5")})
            spoil(graph)
            with pytest.raises(Exception) as expected:
                graph.canonical_form()
            assert type(expected.value) is error, spoil.__name__
            assert str(expected.value).startswith(message), spoil.__name__
            for export in (to_json, to_graphml, to_cypher):
                with pytest.raises(Exception) as raised:
                    export(graph)
                assert type(raised.value) is error, (spoil.__name__, export.__name__)
                assert str(raised.value) == str(expected.value), (spoil.__name__, export.__name__)

    @settings(max_examples=100, deadline=None)
    @given(
        hand_built_graphs(),
        st.one_of(
            st.floats(), st.none(), st.just(object()), st.just(datetime.datetime(2020, 1, 2, 3, 4)),
            st.just([]), st.just([[1, 2], []]), st.just([1, "x"]),
        ),
        st.booleans(),
    )
    def test_unsupported_value_raises_the_same_type_error(self, graph, bad, in_list):
        if not graph.nodes:
            graph.nodes["n:x"] = Node("n:x", {"X"}, {})
        node = graph.nodes[min(graph.nodes)]
        node.properties["bad"] = [bad] if in_list else bad
        with pytest.raises(TypeError) as expected:
            graph.canonical_form()
        for export in (to_json, to_graphml, to_cypher):
            with pytest.raises(TypeError) as raised:
                export(graph)
            assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Every format's literals are valid in that format
# ---------------------------------------------------------------------------

EDGE_DECIMALS = [
    Decimal(text)
    for text in ("NaN", "-NaN", "sNaN", "-sNaN", "Infinity", "-Infinity", "1e400", "-1.5E-7", "0E-8", "-0")
]
any_decimal = st.one_of(st.sampled_from(EDGE_DECIMALS), st.decimals(allow_nan=True, allow_infinity=True))
kind_values = [text_values, st.integers(min_value=-(2**100), max_value=2**100), st.booleans(), any_decimal, st.dates()]
# one value of one kind, or a non-empty list of one kind
valid_values = st.one_of(*kind_values, *(st.lists(kind, min_size=1, max_size=3) for kind in kind_values))

# openCypher 9 literals: StringLiteral, BooleanLiteral, IntegerLiteral (decimal
# form) and DoubleLiteral, each with an optional leading minus
CYPHER_STRING = r'"(?:[^"\\]|\\[\\\'"bfnrtBFNRT])*"'
CYPHER_NUMBER = r"-?(?:(?:0|[1-9][0-9]*)|[0-9]*\.[0-9]+|(?:[0-9]+|[0-9]+\.[0-9]+|\.[0-9]+)[Ee]-?[0-9]+)"
CYPHER_SCALAR = f"(?:{CYPHER_STRING}|true|false|{CYPHER_NUMBER})"
CYPHER_NODE = re.compile(
    f'CREATE \\(n0:X \\{{id: "n", v: (?:{CYPHER_SCALAR}|\\[{CYPHER_SCALAR}(?:, {CYPHER_SCALAR})*\\])\\}}\\)\n',
    re.DOTALL,
)
# the xsd:double lexical space (XSD 1.0: no "+INF")
XSD_DOUBLE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[Ee][+-]?[0-9]+)?|-?INF|NaN")


def one_value_graph(value):
    graph = PropertyGraph()
    graph.nodes["n"] = Node("n", {"X"}, {"v": value})
    return graph


class TestIntegerRange:
    @pytest.mark.parametrize(
        "value, cypher_text",
        [(2**63 - 1, "9223372036854775807"), (-(2**63), "-9223372036854775808"),
         ([0, 2**63 - 1], "[0, 9223372036854775807]")],
    )
    def test_64_bit_integers_are_written(self, value, cypher_text):
        graph = one_value_graph(value)
        assert 'attr.type="long"' in to_graphml(graph).decode()
        assert f"v: {cypher_text}}}" in to_cypher(graph)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, [1, 2**100], -(10**30)])
    def test_wider_integers_are_refused_naming_the_key(self, value):
        graph = one_value_graph(value)
        for export in (to_graphml, to_cypher):
            with pytest.raises(UnrepresentableValue) as exc_info:
                export(graph)
            assert str(exc_info.value) == "property 'v' holds an integer outside the signed 64-bit range"
        assert from_json(to_json(graph)).canonical_form() == graph.canonical_form()

    def test_a_parsed_integer_beyond_64_bits_is_refused(self):
        graph, _ = pgt(parse_turtle_star(EX + "ex:a ex:big 1267650600228229401496703205376 ."))
        for export in (to_graphml, to_cypher):
            with pytest.raises(UnrepresentableValue, match="'big'"):
                export(graph)
        assert b'"big": 1267650600228229401496703205376' in to_json(graph)


class TestUtf8AndDigitLimits:
    """A hand-built graph can hold what no transformed graph does: a lone
    surrogate, which UTF-8 cannot encode, or an integer too long for str()."""

    # to_cypher returns text, but its callers write it in UTF-8
    @pytest.mark.parametrize("export", [to_json, to_graphml, to_cypher], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("value", ["a\udc80b", ["x", "\udc80"]], ids=["string", "list"])
    def test_a_lone_surrogate_is_refused(self, export, value):
        with pytest.raises(UnrepresentableValue, match=r"^text holds a lone surrogate '\\udc80'$"):
            export(one_value_graph(value))

    @pytest.mark.parametrize("export", [to_json, to_graphml, to_cypher], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("place", ["label", "key"])
    def test_a_lone_surrogate_in_a_name_is_refused(self, export, place):
        graph = PropertyGraph()
        graph.nodes["n"] = Node("n", {"a\udc80b" if place == "label" else "X"},
                                {"a\udc80b": 1} if place == "key" else {})
        with pytest.raises(UnrepresentableValue, match=r"^text holds a lone surrogate '\\udc80'$"):
            export(graph)

    @pytest.mark.parametrize("value", [10**5000, [1, -(10**5000)]], ids=["integer", "list"])
    def test_an_integer_too_long_for_str_is_refused_naming_the_key(self, value):
        graph = one_value_graph(value)
        with pytest.raises(UnrepresentableValue, match="^property 'v' holds an integer too long for str"):
            to_json(graph)
        for export in (to_graphml, to_cypher):
            with pytest.raises(UnrepresentableValue, match="^property 'v' holds an integer outside"):
                export(graph)


# Text that every escape path must treat alike: the characters each escapes,
# other controls, quotes, backslashes, markup and non-ASCII.
escape_text = st.text(
    st.one_of(st.sampled_from('\\"\'\n\r\t&<>\x00\x1f\x7f\u2028\u00e9\U0001f600 a'), st.characters()),
    max_size=16,
)


class TestEscapeFastPaths:
    @settings(max_examples=500, deadline=None)
    @given(escape_text)
    def test_cypher_string_is_the_kind_tables_literal(self, text):
        assert _cypher_scalar("k", text) == kind_of(text).cypher(text)

    @settings(max_examples=500, deadline=None)
    @given(escape_text)
    def test_graphml_text_and_attributes_are_saxutils_escapes(self, text):
        from xml.sax.saxutils import escape, quoteattr

        assert _xml_text(text) == escape(text)
        assert _xml_attr(text) == quoteattr(text)


class TestLiteralsAreValid:
    @settings(max_examples=300, deadline=None)
    @given(valid_values)
    def test_every_kind_writes_a_valid_literal_in_every_format(self, value):
        graph = one_value_graph(value)
        assert from_json(to_json(graph)).canonical_form() == graph.canonical_form()
        items = value if isinstance(value, list) else [value]
        if any(type(item) is int and not -(2**63) <= item < 2**63 for item in items):
            # GraphML's long and openCypher's INTEGER hold 64 bits
            for export in (to_cypher, to_graphml):
                with pytest.raises(UnrepresentableValue, match="'v' holds an integer outside"):
                    export(graph)
            return
        assert CYPHER_NODE.fullmatch(to_cypher(graph)), to_cypher(graph)
        try:
            graphml = to_graphml(graph).decode()
        except UnrepresentableValue:  # a list element holding the separator
            assert any(LIST_SEPARATOR in item for item in value if isinstance(item, str))
            graphml = ""
        double_keys = re.findall(r'<key id="(d[0-9]+)" [^>]*attr\.type="double"', graphml)
        for key in double_keys:
            for text in re.findall(f'<data key="{key}">([^<]*)</data>', graphml):
                for item in text.split(LIST_SEPARATOR):
                    assert XSD_DOUBLE.fullmatch(item), item

    @pytest.mark.parametrize(
        "value, json_text, graphml_text, cypher_text",
        [
            (Decimal("NaN"), "NaN", "NaN", '"NaN"'),
            (Decimal("sNaN"), "NaN", "NaN", '"NaN"'),
            (Decimal("Infinity"), "INF", "INF", '"INF"'),
            (Decimal("-Infinity"), "-INF", "-INF", '"-INF"'),
            (Decimal("1e400"), "1E+400", "1E+400", "1E400"),
            (Decimal("1.5e-7"), "1.5E-7", "1.5E-7", "1.5E-7"),
        ],
    )
    def test_decimal_spelling(self, value, json_text, graphml_text, cypher_text):
        graph = one_value_graph(value)
        assert json.loads(to_json(graph))["nodes"][0]["properties"]["v"] == {"decimal": json_text}
        assert f">{graphml_text}</data>" in to_graphml(graph).decode()
        assert f"v: {cypher_text}}}" in to_cypher(graph)


# ---------------------------------------------------------------------------
# A transform result keeps its first walk
# ---------------------------------------------------------------------------

KEPT_SOURCE = EX + (
    "ex:alice ex:knows ex:bob .\n"
    "<<ex:alice ex:knows ex:bob>> ex:certainty 0.5 .\n"
    'ex:alice ex:name "Alice", "Ally" .\n'
)


def transformed():
    """A fresh transform result, with a list value (alice's names) and an edge property."""
    return hybrid(parse_turtle_star(KEPT_SOURCE))[0]


def ids() -> tuple:
    """(alice's node id, the edge's id), read from a graph of their own."""
    graph = transformed()
    return min(graph.nodes), next(iter(graph.edges))


def exports(graph) -> tuple:
    return to_json(graph), to_graphml(graph), to_cypher(graph)


def containers(value):
    """The types of value and of everything a tuple in it holds."""
    yield type(value)
    if isinstance(value, tuple):
        for item in value:
            yield from containers(item)


def held_before_export(graph, node, edge):
    nodes = graph.nodes
    to_json(graph)
    nodes[node].labels.add("Extra")


EDITS = {
    "node-item": lambda graph, node, edge: graph.nodes[node].labels.add("Extra"),
    "new-node-item": lambda graph, node, edge: graph.nodes.__setitem__("n:new", Node("n:new", {"New"}, {})),
    "edge-item": lambda graph, node, edge: graph.edges[edge].properties.__setitem__("note", "x"),
    "new-edge-item": lambda graph, node, edge: graph.edges.__setitem__("e:new", Edge("e:new", node, node, {"self"}, {})),
    "copy": lambda graph, node, edge: copy.copy(graph).nodes[node].labels.add("Extra"),
    "nodes-held-before-export": held_before_export,
}


class TestKeptWalk:
    @pytest.fixture
    def walked(self, monkeypatch) -> list:
        """Grows by one item for each record any canonical walk reads."""
        calls = []
        sorted_labels = pgraph._sorted_labels
        monkeypatch.setattr(pgraph, "_sorted_labels", lambda labels: calls.append(1) or sorted_labels(labels))
        return calls

    def test_exports_of_a_transform_result_walk_it_once(self, walked):
        unsealed = transformed()
        assert unsealed.nodes  # reading nodes ends the seal
        expected = exports(unsealed), unsealed.canonical_form()
        walked.clear()
        graph = transformed()
        assert (exports(graph), graph.canonical_form()) == expected
        assert len(walked) == 3  # one walk: two nodes and an edge

    @pytest.mark.parametrize(
        "build", [sample_graph, lambda: from_json(to_json(transformed()))], ids=["hand-built", "from_json"]
    )
    def test_hand_built_and_read_back_graphs_walk_every_time(self, walked, build):
        graph = build()  # two nodes and an edge
        walked.clear()
        assert exports(graph) == exports(graph)
        assert len(walked) == 6 * 3

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS.keys())
    def test_an_edit_after_an_export_shows_in_the_next(self, edit):
        node, edge = ids()
        graph = transformed()
        before = exports(graph)
        edit(graph, node, edge)
        never_exported = transformed()
        edit(never_exported, node, edge)
        after = exports(graph)
        assert after != before
        assert after == exports(never_exported)

    @pytest.mark.parametrize(
        "spoil, error, message",
        [
            (lambda graph, node, edge: graph.nodes[node].labels.clear(),
             ValueError, "nodes and edges need at least one label"),
            (lambda graph, node, edge: setattr(graph.edges[edge], "target", "n:zz"),
             DanglingEndpoint, "edge endpoint 'n:zz' is not a node"),
            (lambda graph, node, edge: graph.edges[edge].properties.__setitem__("w", []),
             TypeError, "empty list is not a valid property value"),
            (lambda graph, node, edge: graph.edges[edge].properties.__setitem__(7, "x"),
             TypeError, "node and edge ids, labels and property keys must be strings, got 7"),
            (lambda graph, node, edge: graph.nodes.__setitem__("n:new", Node("n:new", {7}, {})),
             TypeError, "node and edge ids, labels and property keys must be strings, got 7"),
            (lambda graph, node, edge: graph.nodes.__setitem__("n:new", Node("n:new", set(), {})),
             ValueError, "nodes and edges need at least one label"),
            (lambda graph, node, edge: graph.edges.__setitem__("e:new", Edge("e:new", node, "n:zz", {"r"}, {})),
             DanglingEndpoint, "edge endpoint 'n:zz' is not a node"),
            (lambda graph, node, edge: graph.nodes.__setitem__("n:new", Node("n:new", {"X"}, {"v": 1.5})),
             TypeError, "unsupported property value: 1.5"),
        ],
        ids=["no-labels", "dangling-target", "empty-list", "non-string-key", "filed-non-string-label",
             "filed-no-labels", "filed-dangling-edge", "filed-invalid-value"],
    )
    def test_a_rule_broken_after_an_export_is_refused(self, spoil, error, message):
        node, edge = ids()
        graph = transformed()
        exports(graph)
        spoil(graph, node, edge)
        walks = PropertyGraph.canonical_records, PropertyGraph.canonical_form
        for export in (*walks, to_json, to_graphml, to_cypher):
            with pytest.raises(Exception) as raised:
                export(graph)
            assert type(raised.value) is error
            assert str(raised.value) == message

    def test_what_the_graph_hands_out_cannot_change_the_walk(self):
        graph = transformed()
        before = exports(graph)
        form = graph.canonical_form()
        for record in form["nodes"] + form["edges"]:
            record["labels"].append("Extra")
            for value in record["properties"].values():
                if isinstance(value, list):
                    value.append("Extra")
            record["properties"]["extra"] = 1
        form["nodes"].clear()
        walk = graph.canonical_records()
        assert ("name", ("Alice", "Ally")) in walk[0][0].properties
        assert set(containers(walk)).isdisjoint({list, dict, set})
        assert exports(graph) == before
