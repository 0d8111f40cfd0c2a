import datetime
from decimal import Decimal

import pytest

from rdfstar2pg.pgraph import (
    RESERVED_KEYS,
    DanglingEndpoint,
    PropertyConflict,
    PropertyGraph,
    bnode_key,
    check_value,
    decode_value,
    encode_value,
    iri_key,
    is_bookkeeping_key,
    literal_key,
    with_graph,
)


def small_graph():
    g = PropertyGraph()
    a = g.upsert_node(iri_key("http://x/a"), labels={"Resource"}, properties={"iri": "http://x/a"})
    b = g.upsert_node(iri_key("http://x/b"), labels={"Resource"}, properties={"iri": "http://x/b"})
    return g, a, b


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
        with pytest.raises(TypeError, match="unsupported property value"):
            g.set_node_property(a, "when", moment)
        assert "when" not in g.nodes[a].properties

    def test_bool_is_not_confused_with_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True


class TestNodes:
    def test_upsert_merges_labels_and_properties(self):
        g = PropertyGraph()
        nid = g.upsert_node("k", labels={"A"}, properties={"p": 1})
        same = g.upsert_node("k", labels={"B"}, properties={"q": 2})
        assert nid == same == "n:k"
        node = g.nodes[nid]
        assert node.labels == {"A", "B"}
        assert node.properties == {"p": 1, "q": 2}

    def test_node_requires_label(self):
        g = PropertyGraph()
        with pytest.raises(ValueError, match="nodes and edges need at least one label"):
            g.upsert_node("k")

    @pytest.mark.parametrize(
        "build",
        [
            lambda g, a: g.upsert_node(7, labels={"A"}),
            lambda g, a: g.upsert_node("k", labels={7}),
            lambda g, a: g.upsert_node("k", labels={"A"}, properties={7: "x"}),
            lambda g, a: g.set_node_property(a, 7, "x"),
            lambda g, a: g.upsert_edge(7, a, a, labels={"r"}),
            lambda g, a: g.upsert_edge("e", a, a, labels={7}),
            lambda g, a: g.upsert_edge("e", a, a, labels={"r"}, properties={7: "x"}),
            lambda g, a: g.replace_edge_property(g.upsert_edge("e", a, a, labels={"r"}), 7, "x"),
        ],
    )
    def test_setters_refuse_names_that_are_not_strings(self, build):
        g = PropertyGraph()
        a = g.upsert_node("a", labels={"A"})
        with pytest.raises(TypeError) as raised:
            build(g, a)
        assert str(raised.value) == "node and edge ids, labels and property keys must be strings, got 7"

    def test_same_value_reassignment_is_fine(self):
        g = PropertyGraph()
        nid = g.upsert_node("k", labels={"A"}, properties={"p": 1})
        g.set_node_property(nid, "p", 1)
        assert g.nodes[nid].properties["p"] == 1

    def test_conflicting_value_raises(self):
        g = PropertyGraph()
        nid = g.upsert_node("k", labels={"A"}, properties={"p": 1})
        with pytest.raises(PropertyConflict):
            g.set_node_property(nid, "p", 2)

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
        g = PropertyGraph()
        nid = g.upsert_node("k", labels={"A"}, properties={"p": old})
        with pytest.raises(PropertyConflict):
            g.set_node_property(nid, "p", new)
        assert g.nodes[nid].properties["p"] is old

    @pytest.mark.parametrize(
        "old, new",
        [(Decimal("NaN"), Decimal("NaN")), (Decimal("NaN"), Decimal("sNaN")), ([1, 2], [1, 2])],
    )
    def test_values_of_one_kind_and_text_agree(self, old, new):
        g = PropertyGraph()
        nid = g.upsert_node("k", labels={"A"}, properties={"p": old})
        g.set_node_property(nid, "p", new)

    def test_set_property_on_missing_node(self):
        g = PropertyGraph()
        with pytest.raises(KeyError):
            g.set_node_property("n:nope", "p", 1)


class TestEdges:
    def test_upsert_edge_identity(self):
        g, a, b = small_graph()
        e1 = g.upsert_edge("stmt:x", a, b, labels={"likes"})
        e2 = g.upsert_edge("stmt:x", a, b, labels={"likes"}, properties={"w": 1})
        assert e1 == e2
        assert len(g.edges) == 1
        assert g.edges[e1].properties == {"w": 1}

    def test_distinct_keys_make_distinct_edges(self):
        g, a, b = small_graph()
        e1 = g.upsert_edge("stmt:x", a, b, labels={"likes"})
        e2 = g.upsert_edge("stmt:y", a, b, labels={"likes"})
        assert e1 != e2 and len(g.edges) == 2

    def test_dangling_endpoints_rejected(self):
        g, a, _ = small_graph()
        with pytest.raises(DanglingEndpoint, match="edge endpoint 'n:ghost' is not a node"):
            g.upsert_edge("stmt:x", a, "n:ghost", labels={"likes"})
        with pytest.raises(DanglingEndpoint, match="edge endpoint 'n:ghost' is not a node"):
            g.upsert_edge("stmt:x", "n:ghost", a, labels={"likes"})

    def test_same_key_different_endpoints_rejected(self):
        g, a, b = small_graph()
        g.upsert_edge("stmt:x", a, b, labels={"likes"})
        with pytest.raises(PropertyConflict):
            g.upsert_edge("stmt:x", b, a, labels={"likes"})

    def test_edge_requires_label(self):
        g, a, b = small_graph()
        with pytest.raises(ValueError, match="nodes and edges need at least one label"):
            g.upsert_edge("stmt:x", a, b)

    def test_edge_property_conflict(self):
        g, a, b = small_graph()
        g.upsert_edge("stmt:x", a, b, labels={"likes"}, properties={"w": 1})
        with pytest.raises(PropertyConflict):
            g.upsert_edge("stmt:x", a, b, labels={"likes"}, properties={"w": 2})

    def test_replace_edge_property_overwrites(self):
        g, a, b = small_graph()
        e = g.upsert_edge("stmt:x", a, b, labels={"likes"}, properties={"w": 1})
        g.replace_edge_property(e, "w", 2)
        assert g.edges[e].properties["w"] == 2


class TestCanonicalForm:
    def test_shape(self):
        g, a, b = small_graph()
        g.upsert_edge("stmt:x", a, b, labels={"likes"}, properties={"certainty": Decimal("0.5")})
        form = g.canonical_form()
        assert set(form) == {"nodes", "edges"}
        assert [n["id"] for n in form["nodes"]] == sorted(n["id"] for n in form["nodes"])
        edge = form["edges"][0]
        assert set(edge) == {"id", "source", "target", "labels", "properties"}
        assert edge["properties"]["certainty"] == {"decimal": "0.5"}

    def test_insertion_order_does_not_matter(self):
        g1 = PropertyGraph()
        g1.upsert_node("a", labels={"X"})
        g1.upsert_node("b", labels={"Y"})
        g2 = PropertyGraph()
        g2.upsert_node("b", labels={"Y"})
        g2.upsert_node("a", labels={"X"})
        assert g1.canonical_form() == g2.canonical_form()

    def test_labels_sorted(self):
        g = PropertyGraph()
        nid = g.upsert_node("a", labels={"Zeta", "Alpha"})
        form = g.canonical_form()
        assert form["nodes"][0]["labels"] == ["Alpha", "Zeta"]
        assert nid in {n["id"] for n in form["nodes"]}


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
        nid = g.upsert_node(
            "a",
            labels={"X"},
            properties={"iri": "http://x/a", "subject": ["s1", "s2"], "name": "n"},
        )
        assert nid
        assert g.semantic_node_property_count() == 2  # subject + name; iri is bookkeeping

    def test_edge_count_skips_graph_property(self):
        g, a, b = small_graph()
        g.upsert_edge(
            "stmt:x", a, b, labels={"likes"}, properties={"graph": "http://x/g", "certainty": 1}
        )
        assert g.semantic_edge_property_count() == 1
