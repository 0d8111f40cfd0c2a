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
loss is pgt on a star statement whose embedded statement is a
datatype-property statement: there is no edge to attach to, so the asserted
pair is dropped and the statement is reported as partial.

Statements are processed in canonical sorted order, which makes every output
(including multi-value resolution) independent of input statement order.
The sort key and every edge identity key are the statement's canonical text,
made once per statement (model.serialize_statement), and each term's node is
upserted once per graph scope.
"""

from __future__ import annotations

import enum
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
    is_chain_statement,
    is_star,
    local_name,
    serialize_statement,
    statement_sort_key,
)
from .pgraph import PropertyGraph

_DOC = "d0"  # blank-node scope tag; one dataset is one document


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


class MultiValuePolicy(enum.Enum):
    LIST_MERGE = "list-merge"
    LAST_WINS = "last-wins"


@dataclass(frozen=True)
class TransformConfig:
    approach: Approach = Approach.HYBRID
    # hybrid only: what plain datatype-property statements become
    datatype_policy: DatatypePolicy = DatatypePolicy.AS_PROPERTY
    # None resolves per approach: label for pgt, edge otherwise
    rdf_type_policy: Optional[RdfTypePolicy] = None
    named_graph_policy: NamedGraphPolicy = NamedGraphPolicy.EDGE_PROPERTY
    list_policy: ListPolicy = ListPolicy.EXPAND
    # plain datatype properties with several values for one (subject, key)
    multi_value_policy: MultiValuePolicy = MultiValuePolicy.LIST_MERGE
    # asserted pairs attached to one edge under the same key
    star_multi_value_policy: MultiValuePolicy = MultiValuePolicy.LAST_WINS
    # None resolves per approach: statement-kind edge labels on for rpt only
    kind_labels: Optional[bool] = None

    def resolved_type_policy(self) -> RdfTypePolicy:
        if self.rdf_type_policy is not None:
            return self.rdf_type_policy
        if self.approach is Approach.PGT:
            return RdfTypePolicy.AS_LABEL
        return RdfTypePolicy.AS_EDGE

    def resolved_kind_labels(self) -> bool:
        if self.kind_labels is not None:
            return self.kind_labels
        return self.approach is Approach.RPT

    def datatype_as_property(self) -> bool:
        """Whether plain datatype-property statements become node properties."""
        return self.approach is Approach.PGT or (
            self.approach is Approach.HYBRID
            and self.datatype_policy is DatatypePolicy.AS_PROPERTY
        )


class Status(enum.Enum):
    CONVERTED = "Converted"
    PARTIAL = "Partial"
    IGNORED = "Ignored"
    ERROR = "Error"


@dataclass
class ReportEntry:
    graph: Optional[Iri]
    statement: Statement
    status: Status
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
    partial: list
    ignored: list
    errors: list
    notes: list  # converted-with-note entries

    @property
    def converted_fraction(self) -> float:
        return self.converted / self.total if self.total else 1.0

    @property
    def lossy(self) -> bool:
        return bool(self.partial or self.ignored or self.errors)

    @_gc_paused
    def to_dict(self) -> dict:
        """The report as JSON-ready data; convert --report writes it."""
        return {
            "total": self.total,
            "converted": self.converted,
            "converted_fraction": self.converted_fraction,
            "partial": [e.to_dict() for e in self.partial],
            "ignored": [e.to_dict() for e in self.ignored],
            "errors": [e.to_dict() for e in self.errors],
            "notes": [e.to_dict() for e in self.notes],
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


def literal_value(lit: Literal) -> pgraph.PropertyValue:
    """Literal to property value; unparseable lexicals fall back to strings."""
    if lit.lang is not None:
        return lit.lexical
    dt = lit.datatype.value
    try:
        if dt == XSD_INTEGER:
            return int(lit.lexical)
        if dt in (XSD_DECIMAL, XSD_DOUBLE):
            return Decimal(lit.lexical)
        if dt == XSD_BOOLEAN:
            if lit.lexical in ("true", "1"):
                return True
            if lit.lexical in ("false", "0"):
                return False
            return lit.lexical
        if dt == XSD_DATE:
            return _date.fromisoformat(lit.lexical)
    except (ValueError, InvalidOperation):
        return lit.lexical
    return lit.lexical


def _safe_key(key: str) -> str:
    """Dodge the bookkeeping keys; a predicate named 'iri' must not clobber ours."""
    return "p_" + key if key in pgraph.RESERVED_KEYS else key


class _Engine:
    def __init__(self, dataset: Dataset, cfg: TransformConfig):
        self.dataset = dataset
        self.cfg = cfg
        self.graph = PropertyGraph()
        self.units: list = []
        # staged properties: identity -> list of (value, unit or None)
        self.node_props: dict = {}
        self.edge_props: dict = {}
        self.collapsed: dict = {}  # graph scope -> {statement -> role}
        self.node_ids: dict = {}  # (term, graph suffix) -> node id
        self.facts: set = set()  # pgt: (graph name, datatype statement) already staged

    # --- context helpers ---

    def _suffix(self, graph_name: Optional[Iri], for_edge: bool) -> Optional[str]:
        if graph_name is None:
            return None
        policy = self.cfg.named_graph_policy
        if policy is NamedGraphPolicy.PARTITION:
            return graph_name.value
        if policy is NamedGraphPolicy.EDGE_PROPERTY and for_edge:
            return graph_name.value
        return None

    def _unit(self, graph_name: Optional[Iri], st: Statement) -> ReportEntry:
        entry = ReportEntry(graph_name, st, Status.CONVERTED)
        if graph_name is not None and self.cfg.named_graph_policy is NamedGraphPolicy.MERGE:
            entry.status = Status.PARTIAL
            entry.reason = LOSS_GRAPH_NAME_DISCARDED
        self.units.append(entry)
        return entry

    @staticmethod
    def _mark_partial(entry: ReportEntry, reason: str) -> None:
        entry.status = Status.PARTIAL
        entry.reason = f"{entry.reason}; {reason}" if entry.reason else reason

    # --- node materialization ---

    def node_id(self, term, graph_name: Optional[Iri]) -> str:
        """The node of a term in a graph scope, upserted the first time only."""
        suffix = self._suffix(graph_name, for_edge=False)
        node_id = self.node_ids.get((term, suffix))
        if node_id is None:
            node_id = self.node_ids[term, suffix] = self._upsert_node(term, suffix)
        return node_id

    def _upsert_node(self, term, suffix: Optional[str]) -> str:
        if isinstance(term, Iri):
            key = pgraph.with_graph(pgraph.iri_key(term.value), suffix)
            return self.graph.upsert_node(key, {"Resource"}, {"iri": term.value})
        if isinstance(term, BlankNode):
            key = pgraph.with_graph(pgraph.bnode_key(_DOC, term.label), suffix)
            return self.graph.upsert_node(key, {"Resource"}, {"bnode": term.label})
        if isinstance(term, Literal):
            key = pgraph.with_graph(
                pgraph.literal_key(term.datatype.value, term.lang, term.lexical), suffix
            )
            props = {"value": literal_value(term), "datatype": term.datatype.value}
            if term.lang is not None:
                props["lang"] = term.lang
            return self.graph.upsert_node(key, {"Literal"}, props)
        raise TypeError(f"cannot materialize node for {term!r}")

    # --- property staging (applied after all statements, in canonical order) ---

    @staticmethod
    def _stage(table: dict, owner: str, key: str, value, unit) -> None:
        table.setdefault((owner, key), []).append((value, unit))

    def stage_graph_companion(self, node_id: str, key: str, graph_iri: str) -> None:
        staged = self.node_props.setdefault((node_id, key), [])
        if all(value != graph_iri for value, _ in staged):
            staged.append((graph_iri, None))

    def stage_fact(self, st: Statement, graph_name: Optional[Iri], unit) -> Tuple[str, str]:
        """Stage a datatype statement's value on its subject node; returns (node, key).

        A statement both asserted and quoted, or quoted twice, is one fact:
        its value is staged once per graph. Only pgt's drop rule stages
        quoted statements, so only pgt keeps track.
        """
        node = self.node_id(st.subject, graph_name)
        key = _safe_key(local_name(st.predicate))
        if self.cfg.approach is Approach.PGT:
            if (graph_name, st) in self.facts:
                return node, key
            self.facts.add((graph_name, st))
        self._stage(self.node_props, node, key, literal_value(st.object), unit)
        return node, key

    def _resolve(self, staged: list, policy: MultiValuePolicy):
        values = [v for v, _ in staged]
        if len(values) == 1:
            return values[0]
        if policy is MultiValuePolicy.LAST_WINS:
            winner = pgraph.value_key(values[-1])
            for value, unit in staged[:-1]:
                if unit is not None and pgraph.value_key(value) != winner:
                    unit.notes.append(NOTE_OVERWRITTEN)
            return values[-1]
        flat: list = []
        for value in values:
            flat.extend(value if isinstance(value, list) else [value])
        kinds = [pgraph.kind_of(v) for v in flat]
        if len({kind.name for kind in kinds}) > 1:
            flat = [kind.text(v) for kind, v in zip(kinds, flat)]
            for _, unit in staged:
                if unit is not None and NOTE_MIXED_TYPES not in unit.notes:
                    unit.notes.append(NOTE_MIXED_TYPES)
        return flat

    def _apply_staged(self) -> None:
        for (node_id, key), staged in sorted(self.node_props.items()):
            self.graph.set_node_property(node_id, key, self._resolve(staged, self.cfg.multi_value_policy))
        for (edge_id, key), staged in sorted(self.edge_props.items()):
            value = self._resolve(staged, self.cfg.star_multi_value_policy)
            self.graph.replace_edge_property(edge_id, key, value)

    # --- edges ---

    def edge_for(self, st: Statement, graph_name: Optional[Iri]) -> str:
        """Materialize a plain statement as an edge between term nodes."""
        source = self.node_id(st.subject, graph_name)
        target = self.node_id(st.object, graph_name)
        labels = {local_name(st.predicate)}
        if self.cfg.resolved_kind_labels():
            labels.add(classify(st).value)  # ObjectProperty / DatatypeProperty
        suffix = self._suffix(graph_name, for_edge=True)
        key = pgraph.with_graph("stmt:" + serialize_statement(st), suffix)
        props = {}
        if (
            graph_name is not None
            and self.cfg.named_graph_policy is NamedGraphPolicy.EDGE_PROPERTY
        ):
            props["graph"] = graph_name.value
        return self.graph.upsert_edge(key, source, target, labels, props)

    # --- star statements ---

    @staticmethod
    def pair_value(term, unit: ReportEntry) -> pgraph.PropertyValue:
        if isinstance(term, Literal):
            return literal_value(term)
        if isinstance(term, Iri):
            unit.notes.append(NOTE_IRI_AS_STRING)
            return term.value
        if isinstance(term, BlankNode):
            unit.notes.append(NOTE_BNODE_AS_STRING)
            return "_:" + term.label
        raise TypeError(f"no property value for {term!r}")

    def embedded_edge(self, st: Statement, graph_name: Optional[Iri]) -> Tuple[str, str]:
        """Turn an embedded statement into an edge; returns (edge id, key prefix).

        A plain embedded statement maps straight to an edge regardless of
        approach or rdf:type policy. A star embedded statement (nesting) is
        its own accounting unit: it reuses the edge of its own embedded
        statement and attaches its asserted pair under a dotted key.
        """
        if not is_star(st):
            return self.edge_for(st, graph_name), ""
        unit = self._unit(graph_name, st)
        unit.notes.append(NOTE_NESTED)
        return self.attach_pair(st, graph_name, unit)

    def attach_pair(self, st: Statement, graph_name: Optional[Iri], unit: ReportEntry) -> Tuple[str, str]:
        """Attach a star statement's asserted pair to the edge it quotes.

        The carrier is the subject-side edge, or the object-side edge when
        only the object is quoted. Returns (carrier edge id, dotted key); the
        key is the prefix that statements quoting this one build on. A unit
        whose key is dotted carries NOTE_NESTED, as every nested unit does.
        """
        kind = classify(st)
        predicate = local_name(st.predicate)
        if kind is StatementKind.STAR_OBJECT:
            edge_id, prefix = self.embedded_edge(st.object.statement, graph_name)
            key = "inv:" + predicate
        else:
            edge_id, prefix = self.embedded_edge(st.subject.statement, graph_name)
            key = predicate
        if kind is StatementKind.STAR_BOTH:
            object_edge, _ = self.embedded_edge(st.object.statement, graph_name)
        if prefix:
            key = f"{prefix}.{key}"
            if NOTE_NESTED not in unit.notes:
                unit.notes.append(NOTE_NESTED)
        if kind is StatementKind.STAR_SUBJECT:
            value = self.pair_value(st.object, unit)
            self._stage(self.edge_props, edge_id, _safe_key(key), value, unit)
        elif kind is StatementKind.STAR_OBJECT:
            unit.notes.append(NOTE_INVERSE)
            value = self.pair_value(st.subject, unit)
            self._stage(self.edge_props, edge_id, _safe_key(key), value, unit)
            subject_node = self.node_id(st.subject, graph_name)
            self._stage(self.node_props, subject_node, _safe_key(predicate), edge_id, unit)
        else:  # STAR_BOTH: the two edges reference each other
            unit.notes.append(NOTE_EDGE_TO_EDGE)
            self._stage(self.edge_props, edge_id, _safe_key(key), object_edge, unit)
            self._stage(self.edge_props, object_edge, _safe_key("inv:" + predicate), edge_id, unit)
        return edge_id, key

    def star_statement(self, st: Statement, graph_name: Optional[Iri], unit: ReportEntry) -> None:
        quoted = [t.statement for t in (st.subject, st.object) if isinstance(t, QuotedTriple)]
        drops = [q for q in quoted if classify(q) is StatementKind.DATATYPE_PROPERTY]
        if self.cfg.approach is Approach.PGT and drops:
            # pgt turns a directly embedded datatype-property statement into
            # a node property; the asserted pair has nowhere to live
            for embedded in drops:
                self.stage_fact(embedded, graph_name, unit)
            for embedded in quoted:
                if embedded not in drops:
                    self.embedded_edge(embedded, graph_name)
            self._mark_partial(unit, LOSS_PROPERTIES_OVER_PROPERTIES)
            return
        self.attach_pair(st, graph_name, unit)

    # --- plain statements ---

    def datatype_statement(self, st: Statement, graph_name: Optional[Iri], unit) -> None:
        if not self.cfg.datatype_as_property():
            self.edge_for(st, graph_name)
            return
        node, key = self.stage_fact(st, graph_name, unit)
        if (
            graph_name is not None
            and self.cfg.named_graph_policy is NamedGraphPolicy.EDGE_PROPERTY
        ):
            self.stage_graph_companion(node, key + ".graph", graph_name.value)

    def object_statement(self, st: Statement, graph_name: Optional[Iri], unit) -> None:
        if (
            st.predicate.value == RDF_TYPE
            and self.cfg.resolved_type_policy() is RdfTypePolicy.AS_LABEL
            and isinstance(st.object, Iri)
        ):
            label = local_name(st.object)
            node = self.node_id(st.subject, graph_name)
            self.graph.nodes[node].labels.add(label)
            if (
                graph_name is not None
                and self.cfg.named_graph_policy is NamedGraphPolicy.EDGE_PROPERTY
            ):
                self.stage_graph_companion(node, label + ".graph", graph_name.value)
            return
        self.edge_for(st, graph_name)

    # --- collection collapsing (pgt-style lists) ---

    def _collect_chains(self) -> None:
        """When collapsing, map each well-formed all-literal chain to a list."""
        if self.cfg.list_policy is not ListPolicy.COLLAPSE_LITERALS or not self.cfg.datatype_as_property():
            return
        for graph_name, statements in self.dataset.graphs():
            statements = list(statements)
            firsts, rests, mentions = {}, {}, {}
            for st in statements:
                for term in (st.subject, st.object):
                    if isinstance(term, BlankNode):
                        mentions[term] = mentions.get(term, 0) + 1
                if isinstance(st.subject, BlankNode):
                    if st.predicate.value == RDF_FIRST:
                        firsts.setdefault(st.subject, []).append(st)
                    elif st.predicate.value == RDF_REST:
                        rests.setdefault(st.subject, []).append(st)
            collapsed = {}
            for st in statements:
                if is_chain_statement(st) or not isinstance(st.object, BlankNode):
                    continue
                chain = self._walk_chain(st.object, firsts, rests, mentions)
                if chain is not None:
                    values, members = chain
                    collapsed[st] = ("head", values)
                    for member in members:
                        collapsed[member] = ("member", None)
            if collapsed:
                self.collapsed[graph_name] = collapsed

    @staticmethod
    def _walk_chain(head: BlankNode, firsts: dict, rests: dict, mentions: dict):
        values, members, cell, seen = [], [], head, set()
        while True:
            if cell in seen or cell not in firsts or cell not in rests:
                return None
            if len(firsts[cell]) != 1 or len(rests[cell]) != 1 or mentions.get(cell, 0) != 3:
                # each cell must appear exactly as: chain target, first subject, rest subject
                return None
            seen.add(cell)
            first_st, rest_st = firsts[cell][0], rests[cell][0]
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
        self._collect_chains()
        for graph_name, statements in self.dataset.graphs():
            collapsed = self.collapsed.get(graph_name, {})
            for st in sorted(statements, key=statement_sort_key):
                role = collapsed.get(st)
                if role is not None:
                    if role[0] == "member":
                        continue
                    unit = self._unit(graph_name, st)
                    node = self.node_id(st.subject, graph_name)
                    key = _safe_key(local_name(st.predicate))
                    self._stage(self.node_props, node, key, role[1], unit)
                    continue
                if is_chain_statement(st):
                    # chain statements fold into their head for accounting
                    # but still materialize structurally
                    self._chain_statement(st, graph_name)
                    continue
                unit = self._unit(graph_name, st)
                kind = classify(st)
                if kind is StatementKind.OBJECT_PROPERTY:
                    self.object_statement(st, graph_name, unit)
                elif kind is StatementKind.DATATYPE_PROPERTY:
                    self.datatype_statement(st, graph_name, unit)
                else:
                    self.star_statement(st, graph_name, unit)
        self._apply_staged()
        return self.graph, self._report()

    def _chain_statement(self, st: Statement, graph_name: Optional[Iri]) -> None:
        if classify(st) is StatementKind.DATATYPE_PROPERTY:
            self.datatype_statement(st, graph_name, None)
        else:
            self.object_statement(st, graph_name, None)

    def _report(self) -> TransformReport:
        partial = [u for u in self.units if u.status is Status.PARTIAL]
        ignored = [u for u in self.units if u.status is Status.IGNORED]
        errors = [u for u in self.units if u.status is Status.ERROR]
        noted = [u for u in self.units if u.status is Status.CONVERTED and u.notes]
        converted = sum(1 for u in self.units if u.status is Status.CONVERTED)
        return TransformReport(
            total=len(self.units),
            converted=converted,
            partial=partial,
            ignored=ignored,
            errors=errors,
            notes=noted,
        )


@_gc_paused
def transform(dataset: Dataset, config: TransformConfig) -> Tuple[PropertyGraph, TransformReport]:
    """Transform a dataset under the given configuration."""
    return _Engine(dataset, config).run()


def rpt(dataset: Dataset, config: Optional[TransformConfig] = None):
    cfg = replace(config or TransformConfig(), approach=Approach.RPT)
    return transform(dataset, cfg)


def pgt(dataset: Dataset, config: Optional[TransformConfig] = None):
    cfg = replace(config or TransformConfig(), approach=Approach.PGT)
    return transform(dataset, cfg)


def hybrid(dataset: Dataset, config: Optional[TransformConfig] = None):
    cfg = replace(config or TransformConfig(), approach=Approach.HYBRID)
    return transform(dataset, cfg)
