"""In-memory spans around the benchmark's calls into each rdfstar2pg layer.

The program is not changed: `instrument` swaps traced wrappers into the
names the benchmark and the CLI call through, and restores them on exit.
Spans are kept in a list and written once, after the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans are [name, start, end, parent index or -1, document id]."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.doc = None
        self.records = 0  # nodes + edges passed through canonical_form

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.doc]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> dict:
        """name -> {doc: summed self time}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, doc) in enumerate(self.spans):
            out[name][doc] += end - start - child[i]
        return out

    def durations(self) -> dict:
        """name -> {doc: summed wall time}, children included."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, doc in self.spans:
            out[name][doc] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "doc": doc}) + "\n")


def median_per_doc(per_doc: dict) -> float:
    """Median over the documents that ran the span; 0.0 when none did."""
    return statistics.median(per_doc.values()) if per_doc else 0.0


@contextlib.contextmanager
def instrument(tracer: Tracer, api, cli_module, graph_cls, report_cls):
    """Route every public call made through `api` and the CLI into spans."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def traced_transform(fn):
        def call(dataset, config):
            return tracer.call("transform." + config.approach.value, fn, dataset, config)

        return call

    canonical = graph_cls.canonical_form

    def traced_canonical(graph):
        tracer.records += len(graph.nodes) + len(graph.edges)
        return tracer.call("canonical", canonical, graph)

    for owner in (api, cli_module):
        patch(owner, "parse_turtle_star", tracer.wrap("parse", owner.parse_turtle_star))
        patch(owner, "transform", traced_transform(owner.transform))
        patch(owner, "to_json", tracer.wrap("export.json", owner.to_json))
        patch(owner, "to_graphml", tracer.wrap("export.graphml", owner.to_graphml))
        patch(owner, "to_cypher", tracer.wrap("export.cypher", owner.to_cypher))
    patch(api, "from_json", tracer.wrap("from_json", api.from_json))
    patch(api, "run_conformance", tracer.wrap("conformance", api.run_conformance))
    patch(graph_cls, "canonical_form", traced_canonical)
    patch(report_cls, "to_dict", tracer.wrap("report", report_cls.to_dict))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
