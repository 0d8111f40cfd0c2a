import json
import subprocess
import sys

import pytest

from rdfstar2pg.cli import _report_json, build_parser, main
from rdfstar2pg.conformance import builtin_corpus
from rdfstar2pg.model import Iri, Literal, Statement
from rdfstar2pg.parser import parse_turtle_star
from rdfstar2pg.transform import Approach, ReportEntry, Status, TransformConfig, TransformReport, transform

EX = "@prefix ex: <http://example.org/> .\n"
SIMPLE = EX + "ex:alice ex:meets ex:bob .\n"
LOSSY = EX + '<<ex:alice ex:age "25">> ex:certainty 0.5 .\n'
BROKEN = "ex:a ex:b ex:c .\n"


def run_cli(args, stdin: str = ""):
    proc = subprocess.run(
        [sys.executable, "-m", "rdfstar2pg", *args],
        input=stdin.encode(),
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def simple_file(tmp_path):
    path = tmp_path / "simple.ttls"
    path.write_text(SIMPLE)
    return str(path)


class TestConvert:
    def test_json_to_stdout(self, simple_file):
        code, out, err = run_cli(["convert", simple_file])
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["nodes"]) == 2 and len(doc["edges"]) == 1

    def test_stdin_dash(self):
        code, out, _ = run_cli(["convert", "-"], stdin=SIMPLE)
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 2

    def test_output_file(self, simple_file, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(["convert", simple_file, "--output", str(target)])
        assert code == 0 and out == b""
        assert json.loads(target.read_text())["edges"]

    def test_byte_identical_across_invocations(self, simple_file):
        _, first, _ = run_cli(["convert", simple_file])
        _, second, _ = run_cli(["convert", simple_file])
        assert first == second

    def test_graphml_format(self, simple_file):
        code, out, _ = run_cli(["convert", simple_file, "--format", "graphml"])
        assert code == 0
        assert out.startswith(b"<?xml")
        assert b"graphml" in out

    def test_cypher_format(self, simple_file):
        code, out, _ = run_cli(["convert", simple_file, "--format", "cypher"])
        assert code == 0
        assert out.decode().count("CREATE") == 3

    def test_approach_flag_changes_output(self, simple_file):
        _, hybrid_out, _ = run_cli(["convert", simple_file])
        _, rpt_out, _ = run_cli(["convert", simple_file, "--approach", "rpt"])
        assert hybrid_out != rpt_out
        assert b"ObjectProperty" in rpt_out

    def test_lossy_conversion_exits_3(self, tmp_path):
        path = tmp_path / "lossy.ttls"
        path.write_text(LOSSY)
        code, out, _ = run_cli(["convert", str(path), "--approach", "pgt"])
        assert code == 3
        assert json.loads(out)["nodes"]  # output still produced

    def test_same_input_clean_under_rpt(self, tmp_path):
        path = tmp_path / "lossy.ttls"
        path.write_text(LOSSY)
        code, _, _ = run_cli(["convert", str(path), "--approach", "rpt"])
        assert code == 0

    def test_parse_error_exits_1(self):
        code, out, err = run_cli(["convert", "-"], stdin=BROKEN)
        assert code == 1
        assert out == b""
        message = err.decode()
        assert "parse error at line 1, column 1" in message
        assert "ex:" in message

    def test_quoted_triple_in_collection_exits_1(self):
        source = EX + "ex:s ex:p ( <<ex:a ex:b ex:c>> ) .\n"
        code, out, err = run_cli(["convert", "-", "--approach", "rpt"], stdin=source)
        assert code == 1 and out == b""
        assert err.decode().startswith("parse error at line 2, column 13: ")
        assert "Traceback" not in err.decode()

    def test_exporter_refusal_exits_1(self, tmp_path):
        # a collapsed list element holding GraphML's U+001F list separator
        source = EX + 'ex:s ex:p ("a\\u001Fb" "c") .\n'
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["convert", "-", "--list-policy", "collapse", "--format", "graphml",
             "--report", str(report_path)],
            stdin=source,
        )
        assert code == 1 and out == b""
        assert err.decode().splitlines() == [
            "error: cannot write graphml: list element 'a\\x1fb' contains the 0x1f separator"
        ]
        assert not report_path.exists()

    @pytest.mark.parametrize("fmt", ["graphml", "cypher"])
    def test_integer_beyond_64_bits_exits_1(self, fmt, tmp_path):
        source = EX + "ex:a ex:big 1267650600228229401496703205376 .\n"
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["convert", "-", "--approach", "pgt", "--format", fmt, "--report", str(report_path)],
            stdin=source,
        )
        assert code == 1 and out == b""
        assert err.decode().splitlines() == [
            f"error: cannot write {fmt}: property 'big' holds an integer outside the signed 64-bit range"
        ]
        assert not report_path.exists()
        # JSON holds any integer
        code, out, _ = run_cli(["convert", "-", "--approach", "pgt"], stdin=source)
        assert code == 0 and b'"big": 1267650600228229401496703205376' in out

    def test_quoted_names_stay_distinct(self):
        source = EX + 'ex:s ex:a-b "1" . ex:s ex:a_b "2" .\n'
        code, out, err = run_cli(["convert", "-", "--approach", "pgt", "--format", "cypher"], stdin=source)
        assert code == 0, err
        assert b'`a-b`: "1", a_b: "2"' in out

    def test_missing_file_exits_1(self):
        code, _, err = run_cli(["convert", "/nonexistent/input.ttls"])
        assert code == 1
        assert err

    def test_bad_flag_exits_2(self, simple_file):
        code, _, _ = run_cli(["convert", simple_file, "--format", "dot"])
        assert code == 2

    def test_unknown_subcommand_exits_2(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_report_file(self, tmp_path):
        path = tmp_path / "lossy.ttls"
        path.write_text(LOSSY)
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["convert", str(path), "--approach", "pgt", "--report", str(report_path)]
        )
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["total"] == 1
        assert report["partial"][0]["reason"] == "properties over other properties"

    def test_policy_flags_accepted(self, simple_file):
        code, _, err = run_cli(
            [
                "convert",
                simple_file,
                "--approach",
                "hybrid",
                "--datatype-policy",
                "edge",
                "--rdf-type-policy",
                "edge",
                "--named-graph-policy",
                "partition",
                "--list-policy",
                "collapse",
            ]
        )
        assert code == 0, err

    def test_collapse_flag_changes_result(self, tmp_path):
        path = tmp_path / "list.ttls"
        path.write_text(EX + 'ex:L ex:contents ("one" "two") .\n')
        _, expanded, _ = run_cli(["convert", str(path), "--approach", "pgt"])
        _, collapsed, _ = run_cli(
            ["convert", str(path), "--approach", "pgt", "--list-policy", "collapse"]
        )
        assert len(json.loads(expanded)["nodes"]) > len(json.loads(collapsed)["nodes"])

    @pytest.mark.parametrize(
        "flags", [["--approach", "rpt"], ["--approach", "hybrid", "--datatype-policy", "edge"]]
    )
    def test_repeated_nan_literal_converts(self, tmp_path, flags):
        path = tmp_path / "nan.ttls"
        path.write_text(
            EX + "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:a ex:p "NaN"^^xsd:decimal .\nex:b ex:p "NaN"^^xsd:decimal .\n'
        )
        code, out, err = run_cli(["convert", str(path), *flags])
        assert code == 0, err
        literals = [n for n in json.loads(out)["nodes"] if "Literal" in n["labels"]]
        assert [n["properties"]["value"] for n in literals] == [{"decimal": "NaN"}]

    def test_nesting_beyond_cap_is_positioned_error(self, tmp_path):
        path = tmp_path / "deep.ttls"
        path.write_text(EX + "<< " * 129 + "ex:a ex:p ex:b" + " >> ex:p ex:b" * 128 + " .\n")
        code, out, err = run_cli(["convert", str(path)])
        assert code == 1 and out == b""
        assert err.decode().startswith("parse error at line 2, column 385: ")
        assert "Traceback" not in err.decode()


def hand_report() -> TransformReport:
    """Entries whose text holds non-ASCII and control characters, some notes empty."""
    st = Statement(Iri("http://example.org/ä"), Iri("http://example.org/p"), Literal("\x01\u2028é\ud83d"))
    entry = ReportEntry(Iri("http://example.org/g\u00fc"), st, Status.PARTIAL, "tab\there \x1f \"q\" \\", ["ü", "\x7f\n"])
    bare = ReportEntry(None, st, Status.IGNORED)
    return TransformReport(3, 1, [entry], [bare], [], [entry, bare])


class TestReportWriter:
    """convert --report writes the bytes json.dumps(indent=2) would."""

    def expect_same(self, report: TransformReport) -> None:
        data = report.to_dict()
        assert _report_json(data) == json.dumps(data, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
    def test_corpus_reports(self, approach):
        for case in builtin_corpus():
            _, report = transform(parse_turtle_star(case.source), TransformConfig(approach=approach))
            self.expect_same(report)

    def test_non_ascii_and_control_characters(self):
        self.expect_same(hand_report())

    @pytest.mark.parametrize("total, converted", [(0, 0), (3, 1), (7, 7)])
    def test_empty_reports_and_fractions(self, total, converted):
        self.expect_same(TransformReport(total, converted, [], [], [], []))


class TestConformanceCommand:
    def test_default_run_passes(self):
        code, out, _ = run_cli(["conformance"])
        assert code == 0
        text = out.decode()
        assert "rpt: 44/44" in text
        assert "pgt: 43/44" in text
        assert "hybrid: 44/44" in text
        assert "all rows pass" in text

    def test_single_approach(self):
        code, out, _ = run_cli(["conformance", "--approaches", "hybrid"])
        assert code == 0
        text = out.decode()
        assert "hybrid: 44/44 statements converted (fraction 1.000)" in text
        assert "rpt:" not in text

    def test_json_report(self, tmp_path):
        target = tmp_path / "conf.json"
        code, _, _ = run_cli(["conformance", "--json", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["passed"] is True
        assert len(data["rows"]) == 69

    def test_bad_approach_exits_2(self):
        code, _, _ = run_cli(["conformance", "--approaches", "quantum"])
        assert code == 2

    def test_no_color_in_pipes(self):
        _, out, _ = run_cli(["conformance"])
        assert b"\x1b[" not in out  # not a tty, so no ANSI codes


class TestInspect:
    def test_summary_lines(self, tmp_path):
        path = tmp_path / "case9.ttls"
        path.write_text(LOSSY)
        code, out, _ = run_cli(["inspect", str(path)])
        assert code == 0
        text = out.decode()
        assert "statements: 1" in text
        assert "StarSubject=1" in text
        assert "max quote depth: 1" in text
        assert "named graphs: none" in text

    def test_named_graphs_listed(self, tmp_path):
        path = tmp_path / "graphs.ttls"
        path.write_text(EX + "ex:g1 { ex:a ex:b ex:c . }\n")
        _, out, _ = run_cli(["inspect", str(path)])
        assert "http://example.org/g1" in out.decode()

    def test_parse_error_exits_1(self):
        code, _, err = run_cli(["inspect", "-"], stdin=BROKEN)
        assert code == 1 and b"parse error" in err


class TestEntryPoints:
    def test_main_returns_int(self, simple_file, capsys):
        assert main(["inspect", simple_file]) == 0
        captured = capsys.readouterr()
        assert "statements: 1" in captured.out

    def test_build_parser_help_mentions_defaults(self):
        parser = build_parser()
        assert parser.prog == "rdfstar2pg"

    def test_import_leaves_xml_sax_unloaded(self):
        # saxutils drags in urllib.request, http.client and ssl; only
        # to_graphml needs it, so launching the CLI must not import it.
        code = "import sys, rdfstar2pg.cli; print('xml.sax.saxutils' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == b"False"

    def test_console_script_installed(self):
        proc = subprocess.run(["rdfstar2pg", "--help"], capture_output=True)
        assert proc.returncode == 0
        assert b"convert" in proc.stdout and b"conformance" in proc.stdout
