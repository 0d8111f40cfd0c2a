"""Seeded Turtle-star generator with independently computed expectations.

Every document is built as logical statements first and rendered to text
second. The expectation record is computed from the logical statements,
never from the program under test, which only ever sees the text.

Logical terms are tuples:
    ("I", iri)                       IRI
    ("B", label)                     blank node (document-scoped label)
    ("L", lexical, datatype, lang)   literal, lexical form as the parser keeps it
    ("Q", statement)                 quoted triple
A statement is (subject, predicate_iri, object).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD = "http://www.w3.org/2001/XMLSchema#"
EX = "http://example.org/"
FOAF = "http://xmlns.com/foaf/0.1/"
PROV = "http://www.w3.org/ns/prov#"
PREFIXES = {"ex": EX, "foaf": FOAF, "prov": PROV, "rdf": RDF, "xsd": XSD}

RDF_TYPE = RDF + "type"
RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"
XSD_STRING = XSD + "string"
LANG_STRING = RDF + "langString"

# Local names are plain lower-camel words: no underscores, no word "inv",
# nothing reserved, so no two keys can sanitize to the same Cypher name.
OBJECT_PREDICATES = [EX + "knows", FOAF + "knows", EX + "worksFor", EX + "cites",
                     EX + "likes", EX + "partOf", PROV + "wasDerivedFrom", EX + "mentions"]
DATA_PREDICATES = [EX + "name", FOAF + "name", EX + "age", EX + "score", EX + "born",
                   EX + "title", EX + "height", EX + "active", EX + "comment"]
STAR_PREDICATES = [EX + "certainty", EX + "source", EX + "since", EX + "statedBy",
                   PROV + "wasGeneratedBy", EX + "supports", EX + "says"]
LIST_PREDICATES = [EX + "tags", EX + "members"]
CLASSES = [EX + "Person", EX + "Organisation", EX + "Document", FOAF + "Agent", EX + "Event"]
GRAPHS = [EX + "graphs/alpha", EX + "graphs/beta", EX + "graphs/gamma"]

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
         "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa"]
LANGS = ["en", "de", "fr", "en-GB", "pt-BR"]
ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


@dataclass(frozen=True)
class Params:
    """Generator knobs; one set per workload, read from catalog.json."""

    statements: tuple      # (min, max) asserted statements per document, before collections
    quoted_frac: float     # share of statements that are star statements
    depth: tuple           # (min, max) nesting depth of quoted triples
    positions: tuple       # weights for quoted triple in subject, object, both positions
    reuse_frac: float      # chance a quoted triple reuses an earlier embedded one
    assert_embedded: float # chance a depth-1 embedded triple is asserted as well
    pool_ratio: float      # entity pool size per statement (small = more node merging)
    literal_frac: float    # share of plain statements with a literal object
    type_frac: float       # share of plain statements that are rdf:type
    collection_frac: float # share of plain statements whose object is a collection
    graphs: int            # named graphs used besides the default graph
    full_iri_frac: float   # share of IRIs written as <...> instead of prefixed names
    bnode_frac: float      # share of subjects that are labeled blank nodes


@dataclass
class Expectation:
    statements: int    # distinct asserted statements, collection chains included
    units: int         # accounting units (statement_units) the report must cover
    rpt_edges: int     # distinct plain statements, asserted or embedded, per graph
    hybrid_edges: int  # distinct plain object statements asserted, plus embedded ones
    pgt_lossy: bool    # pgt meets a directly embedded datatype statement

    def exit_code(self, approach: str) -> int:
        return 3 if approach == "pgt" and self.pgt_lossy else 0


@dataclass
class Doc:
    index: int
    text: str
    expect: Expectation


# --- logical terms -------------------------------------------------------


def is_star(st) -> bool:
    return st[0][0] == "Q" or st[2][0] == "Q"


def is_plain_datatype(st) -> bool:
    return not is_star(st) and st[2][0] == "L"


def _embedded_plain(st, out: set) -> None:
    """Plain statements reachable through the quoted terms of st."""
    for term in (st[0], st[2]):
        if term[0] == "Q":
            inner = term[1]
            if is_star(inner):
                _embedded_plain(inner, out)
            else:
                out.add(inner)


def _nested_star_count(st) -> int:
    count = 0
    for term in (st[0], st[2]):
        if term[0] == "Q":
            inner = term[1]
            count += is_star(inner) + _nested_star_count(inner)
    return count


def expectation(graphs: dict) -> Expectation:
    """Expectations from logical statements: graph name -> set of statements."""
    statements = units = rpt_edges = hybrid_edges = 0
    pgt_lossy = False
    for asserted in graphs.values():
        statements += len(asserted)
        embedded: set = set()
        for st in asserted:
            if st[1] not in (RDF_FIRST, RDF_REST):
                units += 1 + _nested_star_count(st)
            _embedded_plain(st, embedded)
            if any(t[0] == "Q" and is_plain_datatype(t[1]) for t in (st[0], st[2])):
                pgt_lossy = True
        plain = {st for st in asserted if not is_star(st)}
        rpt_edges += len(plain | embedded)
        hybrid_edges += len({st for st in plain if st[2][0] != "L"} | embedded)
    return Expectation(statements, units, rpt_edges, hybrid_edges, pgt_lossy)


# --- rendering -------------------------------------------------------------


def _local_ok(local: str) -> bool:
    return bool(local) and all(c.isalnum() for c in local) and local.isascii()


class _Renderer:
    def __init__(self, rng: random.Random, full_iri_frac: float):
        self.rng = rng
        self.full_iri_frac = full_iri_frac

    def iri(self, value: str) -> str:
        if self.rng.random() >= self.full_iri_frac:
            for prefix, ns in PREFIXES.items():
                if value.startswith(ns) and _local_ok(value[len(ns):]):
                    return f"{prefix}:{value[len(ns):]}"
        return f"<{value}>"

    def literal(self, term) -> str:
        _, lexical, datatype, lang = term
        rng = self.rng
        if lang is not None:
            return f'"{self.escape(lexical)}"@{lang}'
        if datatype == XSD + "integer" and rng.random() < 0.6:
            return lexical
        if datatype == XSD + "decimal" and rng.random() < 0.6:
            return lexical
        body = f'"{self.escape(lexical)}"'
        if datatype == XSD_STRING:
            return body if rng.random() < 0.8 else f"{body}^^{self.iri(XSD_STRING)}"
        return f"{body}^^{self.iri(datatype)}"

    def escape(self, text: str) -> str:
        out = []
        for ch in text:
            if ch in ESCAPES:
                out.append(ESCAPES[ch])
            elif not ch.isascii():
                out.append("\\u%04X" % ord(ch))
            else:
                out.append(ch)
        return "".join(out)

    def term(self, term) -> str:
        kind = term[0]
        if kind == "I":
            return self.iri(term[1])
        if kind == "B":
            return "_:" + term[1]
        if kind == "L":
            return self.literal(term)
        s, p, o = term[1]
        return f"<< {self.term(s)} {self.predicate(p)} {self.term(o)} >>"

    def predicate(self, iri: str) -> str:
        if iri == RDF_TYPE and self.rng.random() < 0.7:
            return "a"
        return self.iri(iri)


# --- generation --------------------------------------------------------------


class _Maker:
    def __init__(self, rng: random.Random, p: Params, size: int):
        self.rng = rng
        self.p = p
        pool = max(4, int(size * p.pool_ratio))
        self.entities = [("I", f"{EX}e{i}") for i in range(pool)]
        self.bnodes = [("B", f"n{i}") for i in range(max(2, pool // 8))]
        self.embedded_pool: list = []

    def entity(self):
        if self.rng.random() < self.p.bnode_frac:
            return self.rng.choice(self.bnodes)
        return self.rng.choice(self.entities)

    def literal(self):
        rng = self.rng
        kind = rng.randrange(8)
        if kind == 0:
            return ("L", str(rng.randrange(-500, 5000)), XSD + "integer", None)
        if kind == 1:
            return ("L", f"{rng.randrange(0, 999)}.{rng.randrange(0, 99):02d}", XSD + "decimal", None)
        if kind == 2:
            return ("L", f"{rng.randrange(1, 9)}.{rng.randrange(0, 9)}E{rng.randrange(1, 6)}",
                    XSD + "double", None)
        if kind == 3:
            return ("L", f"{rng.randrange(1950, 2024)}-{rng.randrange(1, 13):02d}-"
                         f"{rng.randrange(1, 29):02d}", XSD + "date", None)
        if kind == 4:
            return ("L", rng.choice(["true", "false"]), XSD + "boolean", None)
        if kind == 5:
            return ("L", rng.choice(WORDS), LANG_STRING, rng.choice(LANGS))
        text = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, 5)))
        if kind == 7:
            text += rng.choice(['"quoted"', "back\\slash", "two\nlines", "tab\there", "café"])
        return ("L", text, XSD_STRING, None)

    def plain(self):
        """One plain statement (never a collection; used inside quotes too)."""
        rng = self.rng
        r = rng.random()
        if r < self.p.type_frac:
            return (self.entity(), RDF_TYPE, ("I", rng.choice(CLASSES)))
        if r < self.p.type_frac + self.p.literal_frac:
            return (self.entity(), rng.choice(DATA_PREDICATES), self.literal())
        return (self.entity(), rng.choice(OBJECT_PREDICATES), self.entity())

    def quoted(self, depth: int):
        rng = self.rng
        if depth == 1 and self.embedded_pool and rng.random() < self.p.reuse_frac:
            return ("Q", rng.choice(self.embedded_pool))
        inner = self.plain() if depth == 1 else self.star(depth - 1)
        if depth == 1:
            self.embedded_pool.append(inner)
        return ("Q", inner)

    def star(self, depth: int):
        """A star statement whose deepest quoted triple sits `depth` levels down."""
        rng = self.rng
        where = rng.choices(("subject", "object", "both"), weights=self.p.positions)[0]
        pred = rng.choice(STAR_PREDICATES)
        if where == "subject":
            obj = self.literal() if rng.random() < 0.6 else self.entity()
            return (self.quoted(depth), pred, obj)
        if where == "object":
            return (self.entity(), pred, self.quoted(depth))
        other = rng.randrange(1, depth + 1)
        return (self.quoted(depth), pred, self.quoted(other))


def generate(seed: int, index: int, p: Params) -> Doc:
    """Document `index` of the stream for `seed`; deterministic in both."""
    rng = random.Random(f"{seed}:{index}")
    size = rng.randrange(p.statements[0], p.statements[1] + 1)
    b = _Maker(rng, p, size)
    renderer = _Renderer(rng, p.full_iri_frac)
    graph_names = [None] + GRAPHS[: p.graphs]
    logical = {name: set() for name in graph_names}
    blocks = {name: [] for name in graph_names}
    cell = 0

    for _ in range(size):
        graph = rng.choice(graph_names)
        if rng.random() < p.quoted_frac:
            st = b.star(rng.randrange(p.depth[0], p.depth[1] + 1))
            text = f"{renderer.term(st[0])} {renderer.predicate(st[1])} {renderer.term(st[2])}"
            logical[graph].add(st)
            if st[0][0] == "Q" and rng.random() < p.assert_embedded and not is_star(st[0][1]):
                inner = st[0][1]
                logical[graph].add(inner)
                text += (f" .\n{renderer.term(inner[0])} {renderer.predicate(inner[1])} "
                         f"{renderer.term(inner[2])}")
            blocks[graph].append(text)
            continue
        if rng.random() < p.collection_frac:
            subject = b.entity()
            pred = rng.choice(LIST_PREDICATES)
            items = [b.literal() if rng.random() < 0.7 else b.entity()
                     for _ in range(rng.randrange(1, 5))]
            cells = [("B", f"__list{cell + i}") for i in range(len(items))]
            cell += len(items)
            logical[graph].add((subject, pred, cells[0]))
            for i, item in enumerate(items):
                logical[graph].add((cells[i], RDF_FIRST, item))
                tail = cells[i + 1] if i + 1 < len(cells) else ("I", RDF_NIL)
                logical[graph].add((cells[i], RDF_REST, tail))
            rendered = " ".join(renderer.term(item) for item in items)
            blocks[graph].append(f"{renderer.term(subject)} {renderer.predicate(pred)} ( {rendered} )")
            continue
        # plain statement, sometimes followed by more objects (,) or predicates (;)
        st = b.plain()
        logical[graph].add(st)
        text = f"{renderer.term(st[0])} {renderer.predicate(st[1])} {renderer.term(st[2])}"
        if rng.random() < 0.25:
            extra = b.plain()
            extra = (st[0], extra[1], extra[2])
            logical[graph].add(extra)
            text += f" ;\n    {renderer.predicate(extra[1])} {renderer.term(extra[2])}"
        elif rng.random() < 0.15 and st[2][0] != "L":
            extra = (st[0], st[1], b.entity())
            logical[graph].add(extra)
            text += f" , {renderer.term(extra[2])}"
        blocks[graph].append(text)

    lines = [f"@prefix {name}: <{ns}> ." for name, ns in PREFIXES.items()]
    lines.append(f"# seed {seed} document {index}")
    lines.extend(text + " ." for text in blocks[None])
    for name in graph_names[1:]:
        if blocks[name]:
            lines.append(f"{renderer.iri(name)} {{")
            lines.extend("    " + text + " ." for text in blocks[name])
            lines.append("}")
        else:
            del logical[name]
    return Doc(index, "\n".join(lines) + "\n", expectation(logical))
