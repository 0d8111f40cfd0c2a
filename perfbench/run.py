"""rdfstar2pg benchmark: seeded workloads, checked outputs, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload plain-cli --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --smoke   # all three, in seconds
    python3 perfbench/run.py --selftest                         # tampered outputs must fail

Workloads and metrics are listed in BENCHMARK.json (units, directions,
reasons) and perfbench/catalog.json (layers, generator parameters), and
described in README.md. Load is closed-loop: one caller converts one
document at a time. --trace 0 measures the end-to-end metrics with no
instrumentation; --trace 1 converts every document twice, untraced and
traced, and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import gen
import reference
from spans import Tracer, instrument, median_per_doc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CATALOG = json.loads((HERE / "catalog.json").read_text(encoding="utf-8"))
WORKLOADS = list(CATALOG["workloads"])
# unit of every metric a run can print: BENCHMARK.json's, plus the
# workload-only metrics that the table shows where their layer runs
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
BENCHMARK_METRICS = set(UNITS)
UNITS.update({name: spec["unit"] for name, spec in CATALOG["per_workload"].items()})
APPROACHES = ("rpt", "pgt", "hybrid")
FORMATS = ("json", "graphml", "cypher")
PAIRS = [(a, f) for a in APPROACHES for f in FORMATS]
MB = 2 ** 20
SETUP_LAUNCHES = 15
CHILD_TIMEOUT_S = 120
STORED_DIGESTS = 200
# the reference task runs at least this often, so a conversion's host speed
# is read from timings no more than a few seconds apart
REFERENCE_EVERY_S = 0.5
CONVERSIONS_PER_DOC = 2
# Documents whose work counts, tracemalloc peaks and (in process) peak RSS
# are reported; fixed per seed so that they repeat however many documents a
# run reaches.
COUNT_PREFIX = {"plain-cli": 1, "star-sweep": 1, "tiny-docs": 90}
SMOKE_STATEMENTS = {"plain-cli": [200, 300], "star-sweep": [40, 60]}


def load_api():
    """Import rdfstar2pg from this checkout's src/, never from elsewhere."""
    if not (SRC / "rdfstar2pg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rdfstar2pg sources in {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import rdfstar2pg
    import rdfstar2pg.cli

    if Path(rdfstar2pg.__file__).resolve().parent != (SRC / "rdfstar2pg").resolve():
        sys.exit(f"perfbench: imported rdfstar2pg from {rdfstar2pg.__file__}, not {SRC}")
    api = SimpleNamespace(**{name: getattr(rdfstar2pg, name) for name in rdfstar2pg.__all__})
    return api, rdfstar2pg.cli


def params_for(workload: str, smoke: bool) -> gen.Params:
    params = dict(CATALOG["workloads"][workload]["params"])
    if smoke and workload in SMOKE_STATEMENTS:
        params["statements"] = SMOKE_STATEMENTS[workload]
    return gen.Params(**{k: tuple(v) if isinstance(v, list) else v for k, v in params.items()})


def plan(workload: str, index: int) -> tuple:
    """(approaches, formats) a workload runs on document `index`."""
    if workload == "plain-cli":
        return ("hybrid",), ("json",)
    if workload == "star-sweep":
        return APPROACHES, FORMATS
    approach, fmt = PAIRS[index % len(PAIRS)]
    return (approach,), (fmt,)


def export(api, fmt: str, graph) -> bytes:
    if fmt == "json":
        return api.to_json(graph)
    if fmt == "graphml":
        return api.to_graphml(graph)
    return api.to_cypher(graph).encode("utf-8")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rdfstar2pg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class HostSpeed:
    """Timings of the reference task, taken between the timed conversions.

    `correct` scales a time measured after timing number `before` to the
    host speed at which the task takes its nominal time. The local speed is
    the mean of the two timings before the conversion and the two after it:
    one timing of the task varies by about a fifth, and the host's slow
    spells last longer than four timings. With `child` the task runs as a
    fresh interpreter, as the CLI conversions do. See reference.py for why.
    """

    def __init__(self, tally: checks.Tally, child: bool) -> None:
        self.tally = tally
        self.child = child
        self.nominal = reference.NOMINAL_CHILD_S if child else reference.NOMINAL_S
        self.times: list = []
        self.last = 0.0

    def sample(self) -> None:
        start = perf_counter()
        if self.child:
            proc = subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            result = int(proc.stdout) if proc.stdout.strip().isdigit() else None
        else:
            result = reference.task()
        self.last = perf_counter()
        self.times.append(self.last - start)
        if result != reference.RESULT:
            self.tally.record([f"reference task returned {result}, not {reference.RESULT}"])

    def due(self) -> bool:
        return perf_counter() - self.last >= REFERENCE_EVERY_S

    def correct(self, seconds: float, before: int) -> float:
        local = statistics.fmean(self.times[max(0, before - 1):before + 3])
        return seconds * self.nominal / local


class Bench:
    def __init__(self, api, cli, args):
        self.api = api
        self.cli = cli
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.traced_run = bool(args.trace)
        self.params = params_for(args.workload, args.smoke)
        self.tally = checks.Tally()
        self.digests: dict = {}
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.doc_path = WORK / f"{self.workload}.ttl"
        self.out_path = WORK / f"{self.workload}.out"
        self.report_path = WORK / f"{self.workload}.report.json"

    def doc(self, index: int) -> gen.Doc:
        return gen.generate(self.seed, index, self.params)

    # --- the timed conversions ---------------------------------------------

    def cli_subprocess(self, doc):
        """plain-cli untraced: the real command, timed from launch to exit."""
        cmd = [sys.executable, "-m", "rdfstar2pg", "convert", str(self.doc_path),
               "--report", str(self.report_path)]
        self.report_path.unlink(missing_ok=True)  # never check the previous document's report
        start = perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - start
        return elapsed, (proc.returncode, proc.stdout, self.report_path.read_bytes())

    def cli_in_process(self, doc, tracer=None):
        """plain-cli traced run: cli.main in this process, with or without spans."""
        argv = ["convert", str(self.doc_path), "--output", str(self.out_path),
                "--report", str(self.report_path)]
        self.out_path.unlink(missing_ok=True)
        self.report_path.unlink(missing_ok=True)
        if tracer is None:
            start = perf_counter()
            code = self.cli.main(argv)
            elapsed = perf_counter() - start
        else:
            with instrument(tracer, self.api, self.cli, self.api.PropertyGraph,
                            self.api.TransformReport):
                start = perf_counter()
                code = tracer.call("cli.main", self.cli.main, argv)
                elapsed = perf_counter() - start
        return elapsed, (code, self.out_path.read_bytes(), self.report_path.read_bytes())

    def library(self, doc, tracer=None):
        """star-sweep and tiny-docs: the library pipeline the CLI runs, in process."""
        api = self.api
        approaches, formats = plan(self.workload, doc.index)
        context = (instrument(tracer, api, self.cli, api.PropertyGraph, api.TransformReport)
                   if tracer else contextlib.nullcontext())
        with context:
            start = perf_counter()
            dataset = api.parse_turtle_star(doc.text)
            runs = []
            for approach in approaches:
                graph, report = api.transform(dataset, api.TransformConfig(api.Approach(approach)))
                outputs = {fmt: export(api, fmt, graph) for fmt in formats}
                if "json" in outputs and self.workload == "star-sweep":
                    outputs["read_back"] = api.from_json(outputs["json"])
                outputs["report"] = checks.report_bytes(report)
                runs.append((approach, graph, report, outputs))
            elapsed = perf_counter() - start
        return elapsed, (dataset, runs)

    def convert(self, doc, tracer=None):
        if self.workload != "plain-cli":
            return self.library(doc, tracer)
        if not self.traced_run:
            return self.cli_subprocess(doc)
        return self.cli_in_process(doc, tracer)

    # --- checks (never timed) ---------------------------------------------

    def check(self, doc, result) -> tuple:
        """Record one outcome per conversion; returns (output digest, exported bytes).

        A check that raises, say on unparseable output, records a failure."""
        if self.workload == "plain-cli":
            code, payload, report = result
            self.tally.record(checks.guarded(checks.cli_check, self.api, doc.expect,
                                             code, payload, report))
            return checks.digest(payload, report), len(payload)
        dataset, runs = result
        rpt_graph = next((graph for approach, graph, *_ in runs if approach == "rpt"), None)
        parts = []
        exported = 0
        for approach, graph, report, outputs in runs:
            self.tally.record(checks.guarded(
                checks.full_check, self.api, doc.expect, approach, graph, report,
                {**outputs, "dataset": dataset, "rpt_graph": rpt_graph}))
            parts += [outputs[key] for key in sorted(outputs) if key != "read_back"]
            exported += sum(len(outputs[fmt]) for fmt in FORMATS if fmt in outputs)
        return checks.digest(*parts), exported

    def attempt(self, doc, tracer=None):
        """Convert and check one document: (seconds, digest, exported bytes), or
        None when the conversion or its check raised."""
        try:
            elapsed, result = self.convert(doc, tracer)
            return (elapsed, *self.check(doc, result))
        except Exception as exc:  # an exception is a failed conversion, not a crash
            self.tally.record([f"exception {type(exc).__name__}: {exc}"])
            return None

    def input_key(self, doc) -> str:
        """What a conversion's output may depend on: the text and what runs on it."""
        return hashlib.sha256(repr((doc.text, plan(self.workload, doc.index))).encode()).hexdigest()

    def compare_digest(self, doc, digest: str, what: str) -> None:
        """The first digest for an input is kept; each later one is a checked repeat."""
        key = self.input_key(doc)
        if key not in self.digests:
            self.digests[key] = digest
            return
        self.tally.record([] if self.digests[key] == digest else [f"{what}: output digest differs"])

    # --- run-level steps -------------------------------------------------------

    def self_test(self) -> dict:
        tiny = params_for("tiny-docs", False)
        index = 10 ** 6
        while not (doc := gen.generate(self.seed, index, tiny)).expect.pgt_lossy:
            index += 1
        counted = checks.self_test(self.api, doc)
        misjudged = [name for name, failed in counted.items()
                     if failed == name.startswith("untampered")]
        self.tally.record([f"self-test misjudged: {name}" for name in misjudged])
        return counted

    def conformance(self, tracer=None) -> int:
        if tracer is None:
            report = self.api.run_conformance()
        else:
            tracer.doc = "conformance"
            with instrument(tracer, self.api, self.cli, self.api.PropertyGraph,
                            self.api.TransformReport):
                report = self.api.run_conformance()
        rows = sum(row.passed for row in report.rows)
        self.tally.record([] if report.passed and rows == 69 else [f"conformance {rows} of 69"])
        return rows

    def setup_launch(self) -> float:
        """One fresh interpreter converting an empty document, exit 0."""
        cmd = [sys.executable, "-m", "rdfstar2pg", "convert", str(WORK / "empty.ttl")]
        start = perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - start
        ok = proc.returncode == 0 and proc.stdout == self.api.to_json(self.api.PropertyGraph())
        self.tally.record([] if ok else [f"empty document: exit {proc.returncode}"])
        return elapsed

    def stored_digests(self) -> None:
        """The same input and sources give byte-identical output across runs.

        Digests of the first STORED_DIGESTS inputs of each run are kept in the
        work directory, keyed by input, so any later run of the same seed in
        this checkout repeats them.
        """
        path = WORK / f"digests-{self.workload}.json"
        source = src_digest()
        stored = json.loads(path.read_text()) if path.exists() else {}
        if stored.get("src") != source:
            stored = {"src": source, "docs": {}}
        differ = [key for key, digest in list(self.digests.items())[:STORED_DIGESTS]
                  if stored["docs"].setdefault(key, digest) != digest]
        self.tally.record([f"{len(differ)} outputs differ from an earlier run"] if differ else [])
        path.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")

    # --- the two kinds of run ---------------------------------------------------

    def run_untraced(self) -> dict:
        self.self_test()
        self.conformance()
        (WORK / "empty.ttl").write_text("", encoding="utf-8")
        self.setup_launch()  # warms the bytecode cache, as an installed package has it
        speed = HostSpeed(self.tally, child=self.workload == "plain-cli")
        speed.sample()
        # (seconds, index of the reference timing just before) per set-up
        # launch, and a list of them per document, one per conversion
        setup, latencies = [], []
        statements = 0
        index = 0
        start = perf_counter()
        while index < 1 or perf_counter() - start < self.seconds:
            # set-up launches are spread over the run so that a short burst of
            # host load cannot move their median
            due = SETUP_LAUNCHES * (perf_counter() - start) / self.seconds
            if len(setup) < min(SETUP_LAUNCHES, due):
                setup.append((self.setup_launch(), len(speed.times) - 1))
            doc = self.doc(index)
            self.doc_path.write_text(doc.text, encoding="utf-8")
            # a document's time is the faster of two conversions back to back,
            # so a stall of the host during one of them does not count; the
            # second must also repeat the first one's output
            runs = []
            for _ in range(CONVERSIONS_PER_DOC):
                if speed.due():
                    speed.sample()
                runs.append((self.attempt(doc), len(speed.times) - 1))
            if all(outcome is not None for outcome, _ in runs):
                latencies.append([(outcome[0], before) for outcome, before in runs])
                statements += doc.expect.statements
                for outcome, _ in runs:
                    self.compare_digest(doc, outcome[1], "repeated conversion")
            index += 1
        while len(setup) < SETUP_LAUNCHES:
            setup.append((self.setup_launch(), len(speed.times) - 1))
        speed.sample()
        self.stored_digests()

        peak_mb = self.rss_probe()
        raw = {"setup_s": [t for t, _ in setup],
               "latency": [min(t for t, _ in timed) for timed in latencies]}
        setup = [speed.correct(*item) for item in setup]
        latencies = [min(speed.correct(*item) for item in timed) for timed in latencies]
        latencies = latencies or [0.0]  # only when every conversion raised
        samples = {"setup_s": len(setup), "throughput_st_s": len(latencies),
                   "latency_p50_ms": len(latencies), "latency_p99_ms": len(latencies),
                   "peak_rss_mb": COUNT_PREFIX[self.workload]}
        metrics = {**timing_metrics(setup, latencies, statements), "peak_rss_mb": peak_mb}
        uncorrected = timing_metrics(raw["setup_s"], raw["latency"] or [0.0], statements)
        return {"metrics": metrics, "samples": samples, "uncorrected": uncorrected,
                "reference_s": statistics.median(speed.times), "nominal_s": speed.nominal,
                "reference_n": len(speed.times)}

    def rss_probe(self) -> float:
        """Peak RSS (MB) of a fresh process that converts the count prefix as
        this workload does, and does nothing else.

        This process cannot stand for it: its high-water mark is set by the
        checks, which hold every output, read-back and canonical form at once.
        On plain-cli its children include the reference task; the probe's only
        child is the CLI.
        """
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload,
               "--seed", str(self.seed), "--rss-probe"] + (["--smoke"] if self.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        self.tally.record([] if proc.returncode == 0 else [f"rss probe: exit {proc.returncode}"])
        return float(proc.stdout.split()[-1]) if proc.returncode == 0 else 0.0

    def probe(self) -> float:
        """The child side of rss_probe: convert, drop every result, report ru_maxrss."""
        for index in range(COUNT_PREFIX[self.workload]):
            doc = self.doc(index)
            if self.workload == "plain-cli":
                self.doc_path.write_text(doc.text, encoding="utf-8")
                self.cli_subprocess(doc)
            else:
                self.library(doc)
        who = resource.RUSAGE_CHILDREN if self.workload == "plain-cli" else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024

    def run_traced(self) -> dict:
        tracer = Tracer()
        self.self_test()
        rows = self.conformance(tracer)
        tracer.records = 0  # canonical_form records of the documents only
        sizes, plain_times = [], []
        plain_s = traced_s = 0.0
        statements = transforms = text_bytes = out_bytes = 0
        index = 0
        start = perf_counter()
        while index < COUNT_PREFIX[self.workload] or perf_counter() - start < self.seconds:
            doc = self.doc(index)
            self.doc_path.write_text(doc.text, encoding="utf-8")
            tracer.doc = index
            # alternate which of the pair runs first, so neither always gets warm caches
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            outcomes = {who is None: self.attempt(doc, who) for who in order}
            plain, traced = outcomes[True], outcomes[False]
            if plain is not None and traced is not None:
                plain_s += plain[0]
                traced_s += traced[0]
                sizes.append(doc.expect.statements)
                plain_times.append(plain[0])
                self.compare_digest(doc, plain[1], "untraced")
                self.compare_digest(doc, traced[1], "traced against untraced")
                statements += doc.expect.statements
                transforms += doc.expect.statements * len(plan(self.workload, index)[0])
                text_bytes += len(doc.text.encode("utf-8"))
                out_bytes += traced[2]
            index += 1
        self.stored_digests()
        tracer.write(WORK / f"spans-{self.workload}-{self.seed}.jsonl")

        counts, peaks = self.fixed_pass()
        wall = tracer.durations()
        # the conformance replay's spans are not a document's
        own = defaultdict(dict, {name: {d: v for d, v in per_doc.items() if d != "conformance"}
                                 for name, per_doc in tracer.self_times().items()})

        def total(*names):
            return sum(sum(own[name].values()) for name in names)

        def per_doc_sum(*names):
            merged: dict = {}
            for name in names:
                for doc_id, seconds in own[name].items():
                    merged[doc_id] = merged.get(doc_id, 0.0) + seconds
            return merged

        def rate(amount, seconds):
            return amount / seconds if seconds else 0.0

        transform_names = [f"transform.{a}" for a in APPROACHES]
        export_names = [f"export.{f}" for f in FORMATS]
        shares = {layer: total(*names) / traced_s if traced_s else 0.0 for layer, names in (
            ("parser", ["parse"]), ("transform", transform_names), ("report", ["report"]),
            ("pgraph", ["canonical"]), ("exporters", export_names + ["from_json"]),
            ("cli", ["cli.main"]))}
        shares["outside spans"] = 1 - sum(shares.values())
        metrics = {
            "parser.self_s": median_per_doc(own["parse"]),
            "parser.st_per_s": rate(statements, total("parse")),
            "parser.mb_per_s": rate(text_bytes / MB, total("parse")),
            "parser.statements": counts["parser.statements"],
            "parser.peak_mb": peaks["parser"],
            "model.units": counts["model.units"],
            "transform.self_s": median_per_doc(per_doc_sum(*transform_names)),
            "transform.st_per_s": rate(transforms, total(*transform_names)),
            **{f"transform.{a}_s": median_per_doc(own[f"transform.{a}"]) for a in APPROACHES},
            **{f"transform.{k}": counts[f"transform.{k}"]
               for k in ("nodes", "edges", "props", "lossy_units", "noted_units")},
            "transform.report_s": median_per_doc(own["report"]),
            "transform.peak_mb": peaks["transform"],
            "pgraph.canonical_s": median_per_doc(own["canonical"]),
            "pgraph.records_per_s": rate(tracer.records, total("canonical")),
            "pgraph.peak_mb": peaks["pgraph"],
            **{f"exporters.{f}_s": median_per_doc(own[f"export.{f}"]) for f in FORMATS},
            "exporters.from_json_s": median_per_doc(own["from_json"]),
            "exporters.bytes_out": counts["exporters.bytes_out"],
            "exporters.mb_out_per_s": rate(out_bytes / MB, total(*export_names)),
            "exporters.peak_mb": peaks["exporters"],
            "cli.main_s": median_per_doc(wall["cli.main"]),
            "cli.overhead_s": median_per_doc(own["cli.main"]),
            "cli.report_bytes": counts["cli.report_bytes"],
            "conformance.replay_s": sum(wall["conformance"].values()),
            "conformance.rows_passed": rows,
            "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
        }
        metrics = {name: value for name, value in metrics.items() if name in UNITS and (
            self.workload in CATALOG["per_workload"].get(name, {}).get("workloads", WORKLOADS))}
        docs = len({d for d in own["parse"]} | {d for d in own["cli.main"]})
        samples = {name: docs for name in metrics}
        samples.update({name: COUNT_PREFIX[self.workload] for name in counts})
        samples.update({f"{layer}.peak_mb": COUNT_PREFIX[self.workload] for layer in
                        ("parser", "transform", "pgraph", "exporters")})
        samples.update({"conformance.replay_s": 1, "conformance.rows_passed": 1})
        return {"metrics": metrics, "samples": samples, "shares": shares,
                "fixed_share": fixed_share(sizes, plain_times)}

    def fixed_pass(self) -> tuple:
        """Work counts and tracemalloc peaks on the count prefix, after all timing.

        tracemalloc slows Python allocation several-fold, so it never runs
        while a timed span is open.
        """
        api = self.api
        counts: Counter = Counter()
        peaks = {"parser": 0.0, "transform": 0.0, "pgraph": 0.0, "exporters": 0.0}

        def peak(layer, fn, *args):
            tracemalloc.start()
            try:
                result = fn(*args)
                peaks[layer] = max(peaks[layer], tracemalloc.get_traced_memory()[1] / MB)
            finally:
                tracemalloc.stop()
            return result

        for index in range(COUNT_PREFIX[self.workload]):
            doc = self.doc(index)
            approaches, formats = plan(self.workload, index)
            dataset = peak("parser", api.parse_turtle_star, doc.text)
            counts["parser.statements"] += len(dataset)
            counts["model.units"] += len(api.statement_units(dataset))
            for approach in approaches:
                graph, report = peak("transform", api.transform, dataset,
                                     api.TransformConfig(api.Approach(approach)))
                peak("pgraph", graph.canonical_form)
                counts["transform.nodes"] += len(graph.nodes)
                counts["transform.edges"] += len(graph.edges)
                counts["transform.props"] += sum(
                    len(item.properties) for item in (*graph.nodes.values(), *graph.edges.values()))
                counts["transform.lossy_units"] += (
                    len(report.partial) + len(report.ignored) + len(report.errors))
                counts["transform.noted_units"] += len(report.notes)
                for fmt in formats:
                    counts["exporters.bytes_out"] += len(peak("exporters", export, api, fmt, graph))
                counts["cli.report_bytes"] += len(checks.report_bytes(report))
        return counts, peaks


def timing_metrics(setup: list, latencies: list, statements: int) -> dict:
    p99 = (statistics.quantiles(latencies, n=100, method="inclusive")[98]
           if len(latencies) > 1 else latencies[0])
    return {
        "setup_s": statistics.median(setup),
        "throughput_st_s": statements / sum(latencies) if statements else 0.0,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p99_ms": 1000 * p99,
    }


def fixed_share(sizes: list, seconds: list):
    """Share of the mean document time that does not grow with its statement
    count: the intercept of a least-squares line over the documents, divided
    by their mean time. None when the documents hardly differ in size."""
    if len(sizes) < 100 or max(sizes) < 4 * min(sizes):
        return None
    _, intercept = statistics.linear_regression(sizes, seconds)
    return intercept / statistics.fmean(seconds)


def print_result(bench_name: str, result: dict, tally: checks.Tally) -> None:
    """The human-readable table; the JSON result line follows it."""
    print(f"# {bench_name}: {tally.attempted} attempted, {tally.failed} failed")
    for name, value in result["metrics"].items():
        listed = "" if name in BENCHMARK_METRICS else "  (table only, where its layer runs)"
        print(f"  {name:26s} {value:>16.6g} {UNITS[name]:13s} n={result['samples'][name]}{listed}")
    if "reference_s" in result:
        print(f"  reference task: median {1000 * result['reference_s']:.1f} ms over "
              f"{result['reference_n']} timings; times above are scaled to "
              f"{1000 * result['nominal_s']:.0f} ms. Unscaled:")
        for name, value in result["uncorrected"].items():
            print(f"  {name:26s} {value:>16.6g} {UNITS[name]:13s} (as measured)")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':26s} {rate:>16.6g} {'fraction':13s} n={tally.attempted}")
    for layer, share in result.get("shares", {}).items():
        if share:
            print(f"  share of traced time: {layer:14s} {share:6.1%}")
    if result.get("fixed_share") is not None:
        print(f"  share of document time fixed per document: {result['fixed_share']:.1%}")
    for reason, count in tally.reasons.most_common(10):
        print(f"  failure x{count}: {reason}")


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# {workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default run_seconds from BENCHMARK.json, "
                             "or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small documents, so all three workloads run in seconds")
    parser.add_argument("--selftest", action="store_true",
                        help="only check that tampered outputs are counted as failures")
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(BENCHMARK["run_seconds"])

    api, cli = load_api()
    WORK.mkdir(exist_ok=True)
    if args.selftest:
        bench = Bench(api, cli, SimpleNamespace(workload="tiny-docs", seed=args.seed,
                                                seconds=0, trace=0, smoke=True))
        for name, failed in bench.self_test().items():
            print(f"  {name:28s} counted as failed: {failed}")
        ok = bench.tally.failed == 0
        print(json.dumps({"correct": ok, "attempted": bench.tally.attempted,
                          "failed": bench.tally.failed, "metrics": {}}))
        return 0 if ok else 1
    if args.workload == "all":
        return run_all(args)

    bench = Bench(api, cli, args)
    if args.rss_probe:
        print(bench.probe())
        return 0
    result = bench.run_traced() if args.trace else bench.run_untraced()
    tally = bench.tally
    print_result(f"{args.workload} seed {args.seed} trace {args.trace}", result, tally)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in BENCHMARK[kind]}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
