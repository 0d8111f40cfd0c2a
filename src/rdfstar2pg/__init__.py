"""rdfstar2pg: transform RDF-star graphs into property graphs.

Parse Turtle-star (with named-graph blocks), transform under one of three
approaches (rpt, pgt, hybrid), inspect the statement-level conversion
report, and export to JSON, GraphML, or Cypher. A built-in corpus of 23
cases with expected output shapes doubles as a conformance suite.
"""

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

# The conformance names load on first use (PEP 562), so a launch that only
# converts never imports the corpus harness.
_CONFORMANCE = ("ConformanceReport", "ExpectedShape", "TestCase", "builtin_corpus",
                "expected_shape_table", "run_conformance")


def __getattr__(name: str):
    if name in _CONFORMANCE:
        from . import conformance

        return getattr(conformance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The public names: each class and function imported above from the
# package's modules, the conformance names and __version__.
__all__ = sorted(
    [name for name, value in globals().items() if getattr(value, "__module__", "").startswith(__name__ + ".")]
    + list(_CONFORMANCE)
) + ["__version__"]
