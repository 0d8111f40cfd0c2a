"""rdfstar2pg: transform RDF-star graphs into property graphs.

Parse Turtle-star (with named-graph blocks), transform under one of three
approaches (rpt, pgt, hybrid), inspect the statement-level conversion
report, and export to JSON, GraphML, or Cypher. A built-in corpus of 23
cases with expected output shapes doubles as a conformance suite.
"""

from .conformance import (
    ConformanceReport,
    ExpectedShape,
    TestCase,
    builtin_corpus,
    expected_shape_table,
    run_conformance,
)
from .exporters import (
    UnrepresentableValue,
    from_json,
    to_cypher,
    to_graphml,
    to_json,
)
from .model import (
    BlankNode,
    Dataset,
    Iri,
    Literal,
    QuotedTriple,
    Statement,
    StatementKind,
    classify,
    isomorphic,
    local_name,
    quote_depth,
    statement_units,
)
from .parser import ParseError, parse_turtle_star, to_turtle_star
from .pgraph import (
    DanglingEndpoint,
    Edge,
    Node,
    PropertyGraph,
)
from .transform import (
    Approach,
    DatatypePolicy,
    ListPolicy,
    NamedGraphPolicy,
    RdfTypePolicy,
    Status,
    TransformConfig,
    TransformReport,
    hybrid,
    pgt,
    rpt,
    transform,
)

__version__ = "0.1.0"

__all__ = [
    "Approach",
    "BlankNode",
    "ConformanceReport",
    "DanglingEndpoint",
    "Dataset",
    "DatatypePolicy",
    "Edge",
    "ExpectedShape",
    "Iri",
    "ListPolicy",
    "Literal",
    "NamedGraphPolicy",
    "Node",
    "ParseError",
    "PropertyGraph",
    "QuotedTriple",
    "RdfTypePolicy",
    "Statement",
    "StatementKind",
    "Status",
    "TestCase",
    "TransformConfig",
    "TransformReport",
    "UnrepresentableValue",
    "builtin_corpus",
    "classify",
    "expected_shape_table",
    "from_json",
    "hybrid",
    "isomorphic",
    "local_name",
    "parse_turtle_star",
    "pgt",
    "quote_depth",
    "rpt",
    "run_conformance",
    "statement_units",
    "to_cypher",
    "to_graphml",
    "to_json",
    "to_turtle_star",
    "transform",
    "__version__",
]
