"""RDF / RDF-star to property graph transformation.

Three approaches:

- rpt: every statement becomes an edge; literals become "Literal" nodes.
- pgt: object-property statements become edges, datatype-property statements
  become node properties; rdf:type can become a node label.
- hybrid: star statements always take the rpt path (so nothing is dropped),
  plain object-property statements become edges, and plain datatype-property
  statements follow a user choice between the two styles.

Star statements materialize their embedded statement as an edge and attach
the asserted (predicate, object) pair as an edge property. The one genuine
loss is pgt on a star statement that quotes a datatype-property statement
directly: there is no edge to attach to, so the asserted pair is dropped
and the statement is reported as partial.

The engine reads its TransformConfig once, at construction, into the rules
that differ between approaches: rpt's kind labels on edges, pgt's
drop-and-stage-once rule for quoted facts, datatype statements as
properties or edges, rdf:type as a label or an edge (None resolved per
approach), and whether all-literal collections collapse. Each graph of the
dataset is then entered once: the graph in flight fixes the node and edge
key suffixes, the edge "graph" property value and whether the graph name is
discarded, so no statement re-decides the named-graph policy. Entering also
finds the graph's integers too long for int(), by model.terms over the
statements whose canonical text is long enough to hold one, and the list
cells whose rdf:first/rdf:rest links reach one.

The engine fills and seals its own graph. It files each Node and Edge, and
at the end each staged property, straight into the graph's dicts: nothing
it files can conflict (see _Engine.__init__), and the canonical walk checks
the result as it checks every graph. Each
statement's kind is read from the statement, and each predicate's local
name is worked out once per transform.

Each accounting unit's report entry is made in _Engine._unit, the one place
that decides NOTE_LONG_INTEGER: a unit gets it when one of its terms is in
that set. Every other note goes through _note, so a unit carries each note
once, in the order of README's note table. Every statement is a unit but a
chain statement that folds into its head (model.folded_chain_statements,
the rule statement_units follows).

Statements are processed in canonical sorted order, which makes every output
(including multi-value resolution) independent of input statement order.
The sort key and every edge identity key are the statement's canonical text,
made once per statement (model.serialize_statement), and each term's node is
made once per graph scope.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from datetime import date as _date
from decimal import Decimal, InvalidOperation

from . import pgraph
from .model import (
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Dataset,
    Iri,
    Literal,
    QuotedTriple,
    Statement,
    StatementKind,
    _gc_paused,
    classify,
    folded_chain_statements,
    is_chain_statement,
    is_star,
    local_name,
    reachable,
    serialize_statement,
    terms,
)
from .pgraph import PropertyGraph

_DOC = "d0"  # blank-node scope tag; one dataset is one document
# StatementKind's members under plain names, since the engine compares a
# statement's kind with them every time: on CPython 3.11 a member looked up
# on its Enum class takes about ten times as long as a module global
_OBJECT_PROPERTY = StatementKind.OBJECT_PROPERTY
_DATATYPE_PROPERTY = StatementKind.DATATYPE_PROPERTY
_STAR_SUBJECT = StatementKind.STAR_SUBJECT
_STAR_OBJECT = StatementKind.STAR_OBJECT
_STAR_BOTH = StatementKind.STAR_BOTH


class Approach(enum.Enum):
    RPT = "rpt"
    PGT = "pgt"
    HYBRID = "hybrid"


class DatatypePolicy(enum.Enum):
    AS_EDGE = "edge"
    AS_PROPERTY = "property"


class RdfTypePolicy(enum.Enum):
    AS_EDGE = "edge"
    AS_LABEL = "label"


class NamedGraphPolicy(enum.Enum):
    MERGE = "merge"
    PARTITION = "partition"
    EDGE_PROPERTY = "edge-property"


class ListPolicy(enum.Enum):
    EXPAND = "expand"
    COLLAPSE_LITERALS = "collapse"


@dataclass(frozen=True)
class TransformConfig:
    approach: Approach = Approach.HYBRID
    # hybrid only: what plain datatype-property statements become
    datatype_policy: DatatypePolicy = DatatypePolicy.AS_PROPERTY
    # None resolves per approach: label for pgt, edge otherwise
    rdf_type_policy: Optional[RdfTypePolicy] = None
    named_graph_policy: NamedGraphPolicy = NamedGraphPolicy.EDGE_PROPERTY
    list_policy: ListPolicy = ListPolicy.EXPAND


class Status(enum.Enum):
    CONVERTED = "Converted"
    PARTIAL = "Partial"


@dataclass(slots=True)
class ReportEntry:
    graph: Optional[Iri]
    statement: Statement
    status: Status = Status.CONVERTED
    reason: str = ""
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.value if self.graph else None,
            "statement": serialize_statement(self.statement),
            "status": self.status.value,
            "reason": self.reason,
            "notes": list(self.notes),
        }


@dataclass
class TransformReport:
    total: int
    converted: int
    partial: list  # every Partial unit's entry
    notes: list  # every Converted unit's entry that carries a note
    # no unit is ever ignored or an error; perfbench/run.py's count pass still reads these two
    ignored = errors = ()

    @property
    def converted_fraction(self) -> float:
        return self.converted / self.total if self.total else 1.0

    @property
    def lossy(self) -> bool:
        return bool(self.partial)

    @_gc_paused
    def to_dict(self) -> dict:
        """The report as JSON-ready data; convert --report writes it.

        Each Partial unit is listed in full. The Converted units' notes are
        counted per (note, predicate IRI), one row each, sorted, with the
        text of the first such unit in report order as the example; so the
        notes' size follows the schema, not the data. self.notes still
        holds every noted unit's entry.
        """
        rows: dict = {}  # (note, predicate IRI) -> its row
        for entry in self.notes:
            predicate = entry.statement.predicate.value
            for note in entry.notes:
                row = rows.get((note, predicate))
                if row is None:
                    example = serialize_statement(entry.statement)
                    rows[note, predicate] = {"note": note, "predicate": predicate, "units": 1, "example": example}
                else:
                    row["units"] += 1
        return {
            "total": self.total,
            "converted": self.converted,
            "converted_fraction": self.converted_fraction,
            "partial": [e.to_dict() for e in self.partial],
            "notes": [rows[key] for key in sorted(rows)],
        }


LOSS_PROPERTIES_OVER_PROPERTIES = "properties over other properties"
LOSS_GRAPH_NAME_DISCARDED = "graph name discarded"

NOTE_IRI_AS_STRING = "IRI object stored as string value"
NOTE_BNODE_AS_STRING = "blank node stored as string value"
NOTE_INVERSE = "quoted triple in object position; direction recorded as inv: property"
NOTE_NESTED = "nested quoted triple flattened to dotted property key"
NOTE_OVERWRITTEN = "value overwritten by a later statement (last-wins)"
NOTE_MIXED_TYPES = "mixed-type values merged as strings"
NOTE_EDGE_TO_EDGE = "statement relates two quoted triples; recorded as edge id references"
NOTE_LONG_INTEGER = "integer longer than int() reads stored as string value"


# The lexical forms literal_value reads. Python's own readers are laxer: int()
# and Decimal() take "_", white space around the text and non-ASCII digits,
# and date.fromisoformat() takes "2020-W01-1" and, from 3.11, "20200101".
_XSD_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMBER_TEXT = re.compile(r"[!-^`-~]+")  # printable ASCII but "_"; Decimal() reads NaN, sNaN and INF
_XSD_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def literal_value(lit: Literal) -> pgraph.PropertyValue:
    """Literal to property value; an unread or unreadable lexical form falls back to its string."""
    if lit.lang is not None:
        return lit.lexical
    dt, text = lit.datatype.value, lit.lexical
    try:
        if dt == XSD_INTEGER and _XSD_INTEGER.fullmatch(text):
            return int(text)
        if dt in (XSD_DECIMAL, XSD_DOUBLE) and _NUMBER_TEXT.fullmatch(text):
            return Decimal(text)
        if dt == XSD_BOOLEAN:
            if text in ("true", "1"):
                return True
            if text in ("false", "0"):
                return False
        if dt == XSD_DATE and _XSD_DATE.fullmatch(text):
            return _date.fromisoformat(text)
    except (ValueError, InvalidOperation):
        return text
    return text


# int() reads any decimal string this short, whatever sys.set_int_max_str_digits says
_ALWAYS_READ = sys.int_info.str_digits_check_threshold


def _is_long_integer(term) -> bool:
    """Whether term is a valid xsd:integer too long for int(); literal_value keeps its text."""
    return (
        isinstance(term, Literal)
        and len(term.lexical) > _ALWAYS_READ
        and term.datatype.value == XSD_INTEGER
        and _XSD_INTEGER.fullmatch(term.lexical) is not None
        and type(literal_value(term)) is str
    )


def _long_terms(statements) -> set:
    """The graph's integers too long for int(), and the list cells whose first/rest links reach one.

    Only a statement whose canonical text is longer than _ALWAYS_READ can
    hold such an integer, since the text holds its lexical form; the sort
    makes the text anyway.
    """
    found = {
        term
        for st in statements
        if len(serialize_statement(st)) > _ALWAYS_READ
        for term in terms(st)
        if _is_long_integer(term)
    }
    if not found:
        return found
    links: dict = {}  # term -> the cells whose rdf:first or rdf:rest is it
    for st in statements:
        if is_chain_statement(st):
            links.setdefault(st.object, []).append(st.subject)
    return reachable(links, found)


def _note(unit: Optional[ReportEntry], text: str) -> None:
    """Give a unit, if there is one, the note `text`; a unit carries each note once."""
    if unit is not None and text not in unit.notes:
        unit.notes.append(text)


def _list_merge(staged: list) -> pgraph.PropertyValue:
    """A node key's staged values as one list; mixed kinds merge as text, noted."""
    if len(staged) == 1:
        return staged[0][0]
    flat: list = []
    for value, _ in staged:
        flat.extend(value if isinstance(value, list) else [value])
    kinds = [pgraph.kind_of(v) for v in flat]
    if len({kind.name for kind in kinds}) > 1:
        flat = [kind.text(v) for kind, v in zip(kinds, flat)]
        for _, unit in staged:
            _note(unit, NOTE_MIXED_TYPES)
    return flat


def _last_wins(staged: list) -> pgraph.PropertyValue:
    """An edge key's last staged value; each unit with another value is noted."""
    winner = staged[-1][0]
    if len(staged) > 1:
        winner_key = pgraph.value_key(winner)
        for value, unit in staged[:-1]:
            if pgraph.value_key(value) != winner_key:
                _note(unit, NOTE_OVERWRITTEN)
    return winner


def _safe_key(key: str) -> str:
    """Dodge the bookkeeping keys; a predicate named 'iri' must not clobber ours."""
    return "p_" + key if key in pgraph.RESERVED_KEYS else key


class _Engine:
    def __init__(self, dataset: Dataset, cfg: TransformConfig):
        self.dataset = dataset
        approach = cfg.approach
        # rpt: an edge also carries its statement kind as a label
        self.kind_labels = approach is Approach.RPT
        # pgt: a star statement quoting a datatype statement stages that fact,
        # once per graph, and drops its own pair
        self.drop_fact_pairs = approach is Approach.PGT
        self.datatype_as_property = approach is Approach.PGT or (
            approach is Approach.HYBRID and cfg.datatype_policy is DatatypePolicy.AS_PROPERTY
        )
        type_policy = cfg.rdf_type_policy or (
            RdfTypePolicy.AS_LABEL if approach is Approach.PGT else RdfTypePolicy.AS_EDGE
        )
        self.type_as_label = type_policy is RdfTypePolicy.AS_LABEL
        self.collapse_lists = (
            cfg.list_policy is ListPolicy.COLLAPSE_LITERALS and self.datatype_as_property
        )
        self.graph_policy = cfg.named_graph_policy
        self.graph = PropertyGraph()
        # the engine files its records straight into the graph's dicts: each
        # term's node is made once, an edge's key fixes its endpoints and
        # properties, and each staged (owner, key) is set once, on a key
        # that _safe_key or the ".graph" suffix keeps off the bookkeeping
        # keys, so nothing it files can conflict. The walk checks the result.
        self.nodes, self.edges = self.graph._nodes, self.graph._edges
        self.units: list = []
        # staged properties: identity -> list of (value, unit or None)
        self.node_props: dict = {}
        self.edge_props: dict = {}
        self.node_ids: dict = {}  # (term, node key suffix) -> node id
        self.local_names: dict = {}  # predicate or class Iri -> its local name

    def _enter(self, graph_name: Optional[Iri], statements) -> None:
        """Set the graph in flight; every statement until the next call is in it."""
        name = None if graph_name is None else graph_name.value
        policy = self.graph_policy
        self.graph_name = graph_name
        self.name_discarded = name is not None and policy is NamedGraphPolicy.MERGE
        self.node_suffix = name if policy is NamedGraphPolicy.PARTITION else None
        self.edge_suffix = None if policy is NamedGraphPolicy.MERGE else name
        self.graph_value = name if policy is NamedGraphPolicy.EDGE_PROPERTY else None
        self.facts: set = set()  # pgt: datatype statements already staged in this graph
        self.long_terms = _long_terms(statements)

    def _unit(self, st: Statement) -> ReportEntry:
        entry = ReportEntry(self.graph_name, st)
        if self.long_terms and not self.long_terms.isdisjoint(terms(st)):
            entry.notes.append(NOTE_LONG_INTEGER)
        if self.name_discarded:
            self._mark_partial(entry, LOSS_GRAPH_NAME_DISCARDED)
        self.units.append(entry)
        return entry

    @staticmethod
    def _mark_partial(entry: ReportEntry, reason: str) -> None:
        entry.status = Status.PARTIAL
        entry.reason = f"{entry.reason}; {reason}" if entry.reason else reason

    # --- node materialization ---

    def node_id(self, term) -> str:
        """The node of a term in the graph in flight, made the first time only."""
        suffix = self.node_suffix
        node_id = self.node_ids.get((term, suffix))
        if node_id is None:
            node = self._node(term, suffix)
            self.nodes[node.id] = node
            node_id = self.node_ids[term, suffix] = node.id
        return node_id

    @staticmethod
    def _node(term, suffix: Optional[str]) -> pgraph.Node:
        if isinstance(term, Iri):
            key = pgraph.with_graph(pgraph.iri_key(term.value), suffix)
            return pgraph.Node(pgraph.node_id(key), {"Resource"}, {"iri": term.value})
        if isinstance(term, BlankNode):
            key = pgraph.with_graph(pgraph.bnode_key(_DOC, term.label), suffix)
            return pgraph.Node(pgraph.node_id(key), {"Resource"}, {"bnode": term.label})
        if isinstance(term, Literal):
            key = pgraph.with_graph(
                pgraph.literal_key(term.datatype.value, term.lang, term.lexical), suffix
            )
            props = {"value": literal_value(term), "datatype": term.datatype.value}
            if term.lang is not None:
                props["lang"] = term.lang
            return pgraph.Node(pgraph.node_id(key), {"Literal"}, props)
        raise TypeError(f"cannot materialize node for {term!r}")

    def local(self, iri: Iri) -> str:
        """local_name(iri), worked out once per transform; a term's identity is its memo key."""
        name = self.local_names.get(iri)
        if name is None:
            name = self.local_names[iri] = local_name(iri)
        return name

    # --- property staging (applied after all statements, in the order staged) ---

    @staticmethod
    def _stage(table: dict, owner: str, key: str, value, unit) -> None:
        table.setdefault((owner, key), []).append((value, unit))

    def stage_graph_companion(self, node_id: str, key: str) -> None:
        """Under edge-property, record on a node the graphs that stated key."""
        if self.graph_value is None:
            return
        staged = self.node_props.setdefault((node_id, key), [])
        if all(value != self.graph_value for value, _ in staged):
            staged.append((self.graph_value, None))

    def stage_fact(self, st: Statement, value, unit) -> Tuple[str, str]:
        """Stage a fact's value on its subject node; returns (node, key).

        A statement both asserted and quoted, or quoted twice, is one fact:
        its value is staged once per graph. Only pgt's drop rule stages
        quoted statements, so only pgt keeps track.
        """
        node = self.node_id(st.subject)
        key = _safe_key(self.local(st.predicate))
        if self.drop_fact_pairs:
            if st in self.facts:
                return node, key
            self.facts.add(st)
        self._stage(self.node_props, node, key, value, unit)
        return node, key

    def _apply_staged(self) -> None:
        # edges first, so a unit's NOTE_OVERWRITTEN comes before its NOTE_MIXED_TYPES
        for (edge_id, key), staged in self.edge_props.items():
            self.edges[edge_id].properties[key] = _last_wins(staged)
        for (node_id, key), staged in self.node_props.items():
            self.nodes[node_id].properties[key] = _list_merge(staged)

    # --- edges ---

    def edge_for(self, st: Statement) -> str:
        """Materialize a plain statement as an edge between term nodes, the first time only."""
        edge_id = pgraph.edge_id(pgraph.with_graph("stmt:" + serialize_statement(st), self.edge_suffix))
        if edge_id not in self.edges:
            labels = {self.local(st.predicate)}
            if self.kind_labels:
                labels.add(classify(st).value)  # ObjectProperty / DatatypeProperty
            props = {} if self.graph_value is None else {"graph": self.graph_value}
            source, target = self.node_id(st.subject), self.node_id(st.object)
            self.edges[edge_id] = pgraph.Edge(edge_id, source, target, labels, props)
        return edge_id

    # --- star statements ---

    @staticmethod
    def pair_value(term, unit: ReportEntry) -> pgraph.PropertyValue:
        if isinstance(term, Literal):
            return literal_value(term)
        if isinstance(term, Iri):
            _note(unit, NOTE_IRI_AS_STRING)
            return term.value
        if isinstance(term, BlankNode):
            _note(unit, NOTE_BNODE_AS_STRING)
            return "_:" + term.label
        raise TypeError(f"no property value for {term!r}")

    def embedded_edge(self, st: Statement) -> Tuple[str, str]:
        """Turn an embedded statement into an edge; returns (edge id, key prefix).

        A plain embedded statement maps straight to an edge regardless of
        approach or rdf:type policy. A star embedded statement (nesting) is
        its own accounting unit: it reuses the edge of its own embedded
        statement and attaches its asserted pair under a dotted key.
        """
        if not is_star(st):
            return self.edge_for(st), ""
        unit = self._unit(st)
        _note(unit, NOTE_NESTED)
        return self.attach_pair(st, unit)

    def attach_pair(self, st: Statement, unit: ReportEntry) -> Tuple[str, str]:
        """Attach a star statement's asserted pair to the edge it quotes.

        The carrier is the subject-side edge, or the object-side edge when
        only the object is quoted. Returns (carrier edge id, dotted key); the
        key is the prefix that statements quoting this one build on. A unit
        whose key is dotted carries NOTE_NESTED, as every nested unit does.
        """
        kind = classify(st)
        predicate = self.local(st.predicate)
        if kind is _STAR_OBJECT:
            edge_id, prefix = self.embedded_edge(st.object.statement)
            key = "inv:" + predicate
        else:
            edge_id, prefix = self.embedded_edge(st.subject.statement)
            key = predicate
        if kind is _STAR_BOTH:
            object_edge, _ = self.embedded_edge(st.object.statement)
        if prefix:
            key = f"{prefix}.{key}"
            _note(unit, NOTE_NESTED)
        if kind is _STAR_SUBJECT:
            value = self.pair_value(st.object, unit)
            self._stage(self.edge_props, edge_id, _safe_key(key), value, unit)
        elif kind is _STAR_OBJECT:
            _note(unit, NOTE_INVERSE)
            value = self.pair_value(st.subject, unit)
            self._stage(self.edge_props, edge_id, _safe_key(key), value, unit)
            subject_node = self.node_id(st.subject)
            self._stage(self.node_props, subject_node, _safe_key(predicate), edge_id, unit)
        else:  # STAR_BOTH: the two edges reference each other
            _note(unit, NOTE_EDGE_TO_EDGE)
            self._stage(self.edge_props, edge_id, _safe_key(key), object_edge, unit)
            self._stage(self.edge_props, object_edge, _safe_key("inv:" + predicate), edge_id, unit)
        return edge_id, key

    def star_statement(self, st: Statement, unit: ReportEntry) -> None:
        if self.drop_fact_pairs:
            quoted = [t.statement for t in (st.subject, st.object) if isinstance(t, QuotedTriple)]
            drops = [q for q in quoted if classify(q) is _DATATYPE_PROPERTY]
            if drops:
                # a directly quoted datatype statement becomes a node
                # property; the asserted pair has nowhere to live
                for embedded in drops:
                    self.stage_fact(embedded, literal_value(embedded.object), unit)
                for embedded in quoted:
                    if embedded not in drops:
                        self.embedded_edge(embedded)
                self._mark_partial(unit, LOSS_PROPERTIES_OVER_PROPERTIES)
                return
        self.attach_pair(st, unit)

    # --- plain statements ---

    def datatype_statement(self, st: Statement, unit) -> None:
        if not self.datatype_as_property:
            self.edge_for(st)
            return
        node, key = self.stage_fact(st, literal_value(st.object), unit)
        self.stage_graph_companion(node, key + ".graph")

    def object_statement(self, st: Statement, unit) -> None:
        if self.type_as_label and st.predicate.value == RDF_TYPE and isinstance(st.object, Iri):
            label = self.local(st.object)
            node = self.node_id(st.subject)
            self.nodes[node].labels.add(label)
            self.stage_graph_companion(node, label + ".graph")
            return
        self.edge_for(st)

    # --- collections ---

    def _chains(self, statements) -> Tuple[dict, set]:
        """The graph's well-formed all-literal chains: ({head statement: values}, members)."""
        firsts, rests, mentions = {}, {}, {}
        for st in statements:
            # a mention inside a quoted triple counts too: its edge needs the cell's node
            for term in terms(st):
                if isinstance(term, BlankNode):
                    mentions[term] = mentions.get(term, 0) + 1
            if isinstance(st.subject, BlankNode):
                # a cell with a second first or rest has a fourth mention, so _walk_chain refuses it
                if st.predicate.value == RDF_FIRST:
                    firsts[st.subject] = st
                elif st.predicate.value == RDF_REST:
                    rests[st.subject] = st
        heads, members = {}, set()
        for st in statements:
            # a star statement never heads a chain: its quoted subject has no node
            if not isinstance(st.object, BlankNode) or is_star(st) or is_chain_statement(st):
                continue
            chain = self._walk_chain(st.object, firsts, rests, mentions)
            if chain is not None:
                values, chain_members = chain
                heads[st] = values
                members.update(chain_members)
        return heads, members

    @staticmethod
    def _walk_chain(head: BlankNode, firsts: dict, rests: dict, mentions: dict):
        values, members, cell = [], [], head
        while True:
            # each cell must appear exactly as: chain target, first subject, rest subject;
            # a chain that comes back to a cell makes it a target twice, so the walk ends
            if cell not in firsts or cell not in rests or mentions.get(cell, 0) != 3:
                return None
            first_st, rest_st = firsts[cell], rests[cell]
            if not isinstance(first_st.object, Literal):
                return None
            values.append(literal_value(first_st.object))
            members.extend((first_st, rest_st))
            tail = rest_st.object
            if isinstance(tail, Iri):
                if tail.value == RDF_NIL and len({pgraph.kind_of(v).name for v in values}) == 1:
                    return values, members
                return None
            if not isinstance(tail, BlankNode):
                return None
            cell = tail

    # --- driver ---

    def run(self) -> Tuple[PropertyGraph, TransformReport]:
        for graph_name, statements in self.dataset.graphs():
            self._enter(graph_name, statements)
            heads, members = self._chains(statements) if self.collapse_lists else ({}, set())
            folded = folded_chain_statements(statements)
            for st in sorted(statements, key=serialize_statement):
                if folded and st in folded:
                    # no unit: it folds into its head
                    if st in members:
                        continue
                    unit = None
                else:
                    unit = self._unit(st)
                    if st in heads:
                        self.stage_fact(st, heads[st], unit)
                        continue
                kind = classify(st)
                if kind is _OBJECT_PROPERTY:
                    self.object_statement(st, unit)
                elif kind is _DATATYPE_PROPERTY:
                    self.datatype_statement(st, unit)
                else:
                    self.star_statement(st, unit)
        self._apply_staged()
        self.graph._seal()  # the engine is dropped on return, holding no part of the graph
        return self.graph, self._report()

    def _report(self) -> TransformReport:
        partial, noted, lossy = [], [], Status.PARTIAL  # one Enum lookup, not one per unit
        for unit in self.units:
            if unit.status is lossy:
                partial.append(unit)
            elif unit.notes:
                noted.append(unit)
        total = len(self.units)
        return TransformReport(total, total - len(partial), partial, noted)


@_gc_paused
def transform(dataset: Dataset, config: TransformConfig) -> Tuple[PropertyGraph, TransformReport]:
    """Transform a dataset under the given configuration."""
    return _Engine(dataset, config).run()


def rpt(dataset: Dataset, config: Optional[TransformConfig] = None):
    return transform(dataset, replace(config or TransformConfig(), approach=Approach.RPT))


def pgt(dataset: Dataset, config: Optional[TransformConfig] = None):
    return transform(dataset, replace(config or TransformConfig(), approach=Approach.PGT))


def hybrid(dataset: Dataset, config: Optional[TransformConfig] = None):
    return transform(dataset, replace(config or TransformConfig(), approach=Approach.HYBRID))
