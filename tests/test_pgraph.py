import datetime
from decimal import Decimal

import pytest

from rdfstar2pg.pgraph import (
    RESERVED_KEYS,
    DanglingEndpoint,
    Edge,
    Node,
    PropertyGraph,
    bnode_key,
    check_value,
    decode_value,
    edge_id,
    encode_value,
    iri_key,
    is_bookkeeping_key,
    literal_key,
    node_id,
    value_key,
    with_graph,
)

NAMES_MESSAGE = "node and edge ids, labels and property keys must be strings, got 7"


def small_graph():
    g = PropertyGraph()
    for iri in ("http://x/a", "http://x/b"):
        node = Node(node_id(iri_key(iri)), {"Resource"}, {"iri": iri})
        g.nodes[node.id] = node
    return g, *g.nodes


def filed_edge(g, source, target, labels, properties=None, key="stmt:x"):
    """g with an edge for identity key filed by hand."""
    edge = Edge(edge_id(key), source, target, labels, properties or {})
    g.edges[edge.id] = edge
    return g


class TestIdentityKeys:
    def test_iri_key_quotes_delimiters(self):
        assert ":" not in iri_key("http://x/a").removeprefix("iri:")
        assert iri_key("http://x/a") != iri_key("http://x/b")

    def test_bnode_key_scoped_by_document(self):
        assert bnode_key("d0", "b0") != bnode_key("d1", "b0")

    def test_literal_key_components(self):
        k1 = literal_key("http://www.w3.org/2001/XMLSchema#string", None, "x")
        k2 = literal_key("http://www.w3.org/2001/XMLSchema#string", "en", "x")
        k3 = literal_key("http://www.w3.org/2001/XMLSchema#string", None, "y")
        assert len({k1, k2, k3}) == 3

    def test_with_graph_suffix(self):
        base = iri_key("http://x/a")
        assert with_graph(base, None) == base
        assert with_graph(base, "http://x/g") != base
        assert with_graph(base, "http://x/g") != with_graph(base, "http://x/h")

    def test_no_collision_between_crafted_iri_and_graph_suffix(self):
        # an IRI literally containing the suffix delimiter must not alias a
        # graph-suffixed key of another IRI
        crafted = iri_key("http://x/a|g:http%3A//x/g")
        suffixed = with_graph(iri_key("http://x/a"), "http://x/g")
        assert crafted != suffixed


class TestValues:
    @pytest.mark.parametrize(
        "value",
        [
            "s",
            True,
            7,
            Decimal("0.5"),
            datetime.date(1963, 3, 22),
            ["a", "b"],
            [1, 2, 3],
            [Decimal("1.5"), Decimal("2.5")],
        ],
    )
    def test_check_value_accepts(self, value):
        check_value(value)

    @pytest.mark.parametrize(
        "value",
        [
            None,
            [],
            ["a", 1],
            [["nested"]],
            [None],
            {"d": 1},
            1.5,
        ],
    )
    def test_check_value_rejects(self, value):
        with pytest.raises((TypeError, ValueError)):
            check_value(value)

    @pytest.mark.parametrize(
        "value",
        [
            "s",
            True,
            7,
            Decimal("0.5"),
            datetime.date(1963, 3, 22),
            ["a", "b"],
            [Decimal("1"), Decimal("2")],
            [datetime.date(2020, 1, 1)],
        ],
    )
    def test_encode_decode_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_decimal_encoding_keeps_lexical_form(self):
        assert encode_value(Decimal("0.50")) == {"decimal": "0.50"}

    def test_date_encoding_is_iso(self):
        assert encode_value(datetime.date(1963, 3, 22)) == {"date": "1963-03-22"}

    def test_datetime_refused(self):
        # to_json would write it as {"date": "2020-01-02T03:04:00"}, which
        # from_json cannot read back
        moment = datetime.datetime(2020, 1, 2, 3, 4)
        for value in (moment, [moment], [datetime.date(2020, 1, 2), moment]):
            with pytest.raises(TypeError, match="unsupported property value"):
                check_value(value)
        g, a, _ = small_graph()
        g.nodes[a].properties["when"] = moment
        with pytest.raises(TypeError, match="unsupported property value"):
            g.canonical_records()

    def test_bool_is_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    # _last_wins notes NOTE_OVERWRITTEN on a unit whose value's key differs
    # from the winner's
    @pytest.mark.parametrize(
        "old, new",
        [
            (True, 1),
            (1, True),
            (Decimal("1.0"), Decimal("1.00")),
            ("1", 1),
            (datetime.date(2020, 1, 2), "2020-01-02"),
            (["a"], "a"),
        ],
    )
    def test_values_of_another_kind_or_text_conflict(self, old, new):
        assert value_key(old) != value_key(new)

    @pytest.mark.parametrize(
        "old, new",
        [(Decimal("NaN"), Decimal("NaN")), (Decimal("NaN"), Decimal("sNaN")), ([1, 2], [1, 2])],
    )
    def test_values_of_one_kind_and_text_agree(self, old, new):
        assert value_key(old) == value_key(new)


class TestNodes:
    def test_node_requires_label(self):
        g = PropertyGraph()
        g.nodes["n:k"] = Node("n:k", set(), {})
        with pytest.raises(ValueError, match="^nodes and edges need at least one label$"):
            g.canonical_records()

    @pytest.mark.parametrize(
        "build",
        [
            lambda g, a: g.nodes.__setitem__(7, Node(7, {"A"})),
            lambda g, a: g.nodes[a].labels.add(7),
            lambda g, a: g.nodes[a].properties.__setitem__(7, "x"),
            lambda g, a: filed_edge(g, 7, a, {"r"}),
            lambda g, a: filed_edge(g, a, a, {7}),
            lambda g, a: filed_edge(g, a, a, {"r"}, {7: "x"}),
        ],
    )
    def test_the_walk_refuses_names_that_are_not_strings(self, build):
        g, a, _ = small_graph()
        build(g, a)
        with pytest.raises(TypeError) as raised:
            g.canonical_records()
        assert str(raised.value) == NAMES_MESSAGE


class TestEdges:
    def test_distinct_keys_make_distinct_edges(self):
        assert edge_id("stmt:x") != edge_id("stmt:y")

    def test_dangling_endpoints_rejected(self):
        g, a, _ = small_graph()
        for source, target in (a, "n:ghost"), ("n:ghost", a):
            filed_edge(g, source, target, {"likes"})
            with pytest.raises(DanglingEndpoint, match="^edge endpoint 'n:ghost' is not a node$"):
                g.canonical_records()

    def test_edge_requires_label(self):
        g, a, b = small_graph()
        filed_edge(g, a, b, set())
        with pytest.raises(ValueError, match="^nodes and edges need at least one label$"):
            g.canonical_records()


class TestCanonicalForm:
    def test_shape(self):
        g, a, b = small_graph()
        filed_edge(g, a, b, {"likes"}, {"certainty": Decimal("0.5")})
        form = g.canonical_form()
        assert set(form) == {"nodes", "edges"}
        assert [n["id"] for n in form["nodes"]] == sorted(n["id"] for n in form["nodes"])
        edge = form["edges"][0]
        assert set(edge) == {"id", "source", "target", "labels", "properties"}
        assert edge["properties"]["certainty"] == {"decimal": "0.5"}

    def test_insertion_order_does_not_matter(self):
        g1 = PropertyGraph()
        g1.nodes["n:a"] = Node("n:a", {"X"})
        g1.nodes["n:b"] = Node("n:b", {"Y"})
        g2 = PropertyGraph()
        g2.nodes["n:b"] = Node("n:b", {"Y"})
        g2.nodes["n:a"] = Node("n:a", {"X"})
        assert g1.canonical_form() == g2.canonical_form()

    def test_labels_sorted(self):
        g = PropertyGraph()
        g.nodes["n:a"] = Node("n:a", {"Zeta", "Alpha"})
        form = g.canonical_form()
        assert form["nodes"][0]["labels"] == ["Alpha", "Zeta"]
        assert form["nodes"][0]["id"] == "n:a"


class TestSemanticCounts:
    def test_bookkeeping_keys_excluded(self):
        assert is_bookkeeping_key("iri")
        assert is_bookkeeping_key("graph")
        assert is_bookkeeping_key("name.graph")
        assert not is_bookkeeping_key("name")
        assert not is_bookkeeping_key("p_graph")

    def test_reserved_keys_cover_exporter_ids(self):
        assert "id" in RESERVED_KEYS

    def test_node_count_counts_keys_not_list_elements(self):
        g = PropertyGraph()
        g.nodes["n:a"] = Node("n:a", {"X"}, {"iri": "http://x/a", "subject": ["s1", "s2"], "name": "n"})
        assert g.semantic_node_property_count() == 2  # subject + name; iri is bookkeeping

    def test_edge_count_skips_graph_property(self):
        g, a, b = small_graph()
        filed_edge(g, a, b, {"likes"}, {"graph": "http://x/g", "certainty": 1})
        assert g.semantic_edge_property_count() == 1
