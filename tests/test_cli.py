import argparse
import dataclasses
import enum
import json
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from rdfstar2pg.cli import build_parser, main
from rdfstar2pg.conformance import builtin_corpus, run_conformance
from rdfstar2pg.exporters import _CHUNK, _chunks, to_json
from rdfstar2pg.model import statement_units
from rdfstar2pg.parser import ParseError, parse_turtle_star
from rdfstar2pg.transform import Approach, TransformConfig, transform

EX = "@prefix ex: <http://example.org/> .\n"
SIMPLE = EX + "ex:alice ex:meets ex:bob .\n"
LOSSY = EX + '<<ex:alice ex:age "25">> ex:certainty 0.5 .\n'
BROKEN = "ex:a ex:b ex:c .\n"


def run_cli(args, stdin="") -> tuple:
    """(exit code, stdout, stderr); stdin is text, or bytes sent as they are."""
    proc = subprocess.run(
        [sys.executable, "-m", "rdfstar2pg", *args],
        input=stdin if isinstance(stdin, bytes) else stdin.encode(),
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


# a document whose JSON runs to several chunks, with text of every UTF-8 length
STREAMED = EX + "".join(
    f'ex:s{i} ex:knows ex:s{i + 1} ; ex:name "näme {i} ✓ 𝄞" .\n'
    f"<<ex:s{i} ex:knows ex:s{i + 1}>> ex:since {i} .\n"
    for i in range(400)
)


class TestStreamedJson:
    """convert writes JSON chunk by chunk, byte for byte what to_json returns."""

    @pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
    @pytest.mark.parametrize(
        "source", [case.source for case in builtin_corpus()] + [STREAMED],
        ids=[case.id for case in builtin_corpus()] + ["streamed"],
    )
    def test_stdout_and_output_file_are_to_json(self, source, approach, tmp_path, capsysbinary):
        path = tmp_path / "in.ttl"
        path.write_text(source, encoding="utf-8")
        graph, report = transform(parse_turtle_star(source), TransformConfig(approach=approach))
        expected = to_json(graph)
        code = 3 if report.lossy else 0
        assert main(["convert", str(path), "--approach", approach.value]) == code
        assert capsysbinary.readouterr().out == expected
        target = tmp_path / "out.json"
        assert main(["convert", str(path), "--approach", approach.value, "--output", str(target)]) == code
        assert capsysbinary.readouterr().out == b""
        assert target.read_bytes() == expected

    def test_large_output_comes_in_several_chunks(self):
        graph, _ = transform(parse_turtle_star(STREAMED), TransformConfig())
        chunks = list(_chunks(graph, "json"))
        assert len(chunks) > 2
        assert b"".join(chunks) == to_json(graph)
        for chunk in chunks:
            chunk.decode("utf-8")  # no character is split between chunks


# non-ASCII text and a \u0001 escape, in a Partial entry under pgt and a noted one otherwise
REPORT_TEXT = EX + (
    '<http://ex.org/gü> { <<<http://ex.org/ä> ex:age "25 \\u0001 é ✓">> ex:source <http://ex.org/wö> . }\n'
)


class TestReportBytes:
    """convert --report and conformance --json write json.dumps(report, indent=2, ensure_ascii=False)."""

    @staticmethod
    def expect_report(source: str, approach: Approach, tmp_path) -> None:
        path, target = tmp_path / "in.ttls", tmp_path / "report.json"
        path.write_text(source, encoding="utf-8")
        _, report = transform(parse_turtle_star(source), TransformConfig(approach=approach))
        code = main(["convert", str(path), "--approach", approach.value, "--output", str(tmp_path / "out"),
                     "--report", str(target)])
        assert code == (3 if report.lossy else 0)
        expected = json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"
        assert target.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
    def test_corpus_reports(self, approach, tmp_path):
        for case in builtin_corpus():
            self.expect_report(case.source, approach, tmp_path)

    @pytest.mark.parametrize("approach", list(Approach), ids=lambda a: a.value)
    def test_non_ascii_and_control_characters(self, approach, tmp_path):
        self.expect_report(REPORT_TEXT, approach, tmp_path)

    def test_a_report_longer_than_a_chunk(self, tmp_path):
        # streamed in chunks of _CHUNK characters, the report's bytes are still json.dumps's
        source = EX + "".join(f'<<ex:s{i} ex:age "{i} é">> ex:source ex:w{i} .\n' for i in range(600))
        self.expect_report(source, Approach.PGT, tmp_path)
        assert (tmp_path / "report.json").stat().st_size > 2 * _CHUNK

    def test_conformance_json(self, tmp_path):
        target = tmp_path / "conformance.json"
        assert main(["conformance", "--json", str(target)]) == 0
        expected = json.dumps(run_conformance().to_dict(), indent=2, ensure_ascii=False) + "\n"
        assert target.read_bytes() == expected.encode("utf-8")


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

    @pytest.mark.parametrize("approaches", [",", " , ", ""])
    def test_empty_selection_exits_2(self, approaches, capsys):
        assert main(["conformance", "--approaches", approaches]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "rdfstar2pg conformance: error: --approaches must be a comma-separated "
            f"subset of rpt, pgt, hybrid, got {approaches!r}\n"
        )

    def test_a_repeated_approach_runs_once(self, capsys):
        assert main(["conformance", "--approaches", "hybrid,hybrid"]) == 0
        assert capsys.readouterr().out == run_conformance([Approach.HYBRID]).to_table() + "\n"

    def test_approaches_run_once_each_in_the_given_order(self):
        report = run_conformance([Approach.HYBRID, Approach.RPT, Approach.HYBRID])
        assert len(report.rows) == 2 * len(builtin_corpus())
        assert [row.approach for row in report.rows[:2]] == [Approach.HYBRID, Approach.RPT]
        assert list(report.aggregates) == [Approach.HYBRID, Approach.RPT]
        assert report.aggregates[Approach.HYBRID]["total"] == 44

    def test_no_color_in_pipes(self):
        _, out, _ = run_cli(["conformance"])
        assert b"\x1b[" not in out  # the table carries no ANSI codes

    def test_stdout_is_the_table(self, capsys):
        assert main(["conformance"]) == 0
        assert capsys.readouterr().out == run_conformance().to_table() + "\n"


@pytest.mark.parametrize(
    "command",
    [["convert", "IN", "--output"], ["convert", "IN", "--report"], ["conformance", "--json"]],
    ids=["output", "report", "conformance-json"],
)
@pytest.mark.parametrize(
    "where, reason",
    [("missing/out", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_an_output_that_cannot_be_written_exits_1(command, where, reason, simple_file, tmp_path, capsys):
    path = tmp_path / where
    assert main([simple_file if arg == "IN" else arg for arg in command] + [str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: cannot write {path}: [Errno ")
    assert err[0].endswith(f"] {reason}: {str(path)!r}")



def test_a_closed_stdout_exits_1(tmp_path):
    # the document's JSON outgrows the pipe buffer, so a write meets the closed pipe
    path = tmp_path / "big.ttls"
    path.write_text(EX + "".join(f'ex:s{i} ex:name "{i}" .\n' for i in range(3000)))
    with subprocess.Popen([sys.executable, "-m", "rdfstar2pg", "convert", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write -: [Errno "), lines

NOT_UTF8 = EX.encode() + b'ex:a ex:name "caf\xe9" .\n'


@pytest.mark.parametrize("command", ["convert", "inspect"])
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_input_that_is_not_utf8_exits_1(command, from_stdin, tmp_path):
    path = tmp_path / "latin1.ttls"
    path.write_bytes(NOT_UTF8)
    where = "-" if from_stdin else str(path)
    code, out, err = run_cli([command, where], stdin=NOT_UTF8 if from_stdin else "")
    assert code == 1 and out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: cannot read {where}: 'utf-8' codec can't decode byte 0xe9")


def test_cr_and_crlf_line_ends_read_as_lf(tmp_path):
    # each line end, whatever the file uses, cuts the string on line 3
    source = SIMPLE + 'ex:a ex:p "x\ny" .\n'
    expected = run_cli(["convert", "-"], stdin=source)
    assert expected[0] == 1 and b"line 3, column 13" in expected[2]
    for ending in ("\r\n", "\r"):
        path = tmp_path / "lines.ttls"
        path.write_bytes(source.replace("\n", ending).encode())
        assert run_cli(["convert", str(path)]) == expected
        # the library reads the same line ends, so it reports the same place
        with pytest.raises(ParseError) as exc_info:
            parse_turtle_star(source.replace("\n", ending))
        assert (exc_info.value.line, exc_info.value.column) == (3, 13)


STAR_CHAINS = [
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    + EX + "<<ex:a ex:b ex:c>> rdf:first ex:d .\n",
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    + EX + "ex:x rdf:rest <<ex:a ex:b ex:c>> .\n",
]


@pytest.mark.parametrize("approach", ["rpt", "pgt", "hybrid"])
@pytest.mark.parametrize("source", STAR_CHAINS, ids=["star_first", "star_rest"])
def test_star_statement_with_a_chain_predicate_is_one_unit(source, approach, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, err = run_cli(
        ["convert", "-", "--approach", approach, "--report", str(report_path)], stdin=source
    )
    assert code == 0, err
    assert json.loads(out)["edges"]
    total = json.loads(report_path.read_text())["total"]
    assert total == len(statement_units(parse_turtle_star(source))) == 1


@pytest.mark.parametrize("approach", ["pgt", "hybrid"])
def test_star_statement_never_heads_a_collapsed_list(approach, tmp_path):
    path = tmp_path / "in.ttls"
    path.write_text(EX + "<<ex:a ex:b ex:c>> ex:p ( 1 2 ) .\n")
    outputs = {}
    for policy in ("expand", "collapse"):
        out, report = tmp_path / f"{policy}.json", tmp_path / f"{policy}.report.json"
        argv = ["convert", str(path), "--approach", approach, "--list-policy", policy]
        assert main([*argv, "--output", str(out), "--report", str(report)]) == 0
        outputs[policy] = (out.read_bytes(), report.read_bytes())
    assert outputs["collapse"] == outputs["expand"]


def convert_flags() -> dict:
    """convert's options: flag -> its argparse action."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag: action for action in sub.choices["convert"]._actions for flag in action.option_strings}


def test_every_config_field_is_a_convert_flag_and_a_readme_row():
    """No TransformConfig option is library-only, and README lists exactly the fields."""
    flags = convert_flags()
    hints = typing.get_type_hints(TransformConfig)
    names = [field.name for field in dataclasses.fields(TransformConfig)]
    for name in names:
        flag = "--" + name.replace("_", "-")
        assert flag in flags, f"TransformConfig.{name} has no convert flag {flag}"
        enum_type = next(
            t for t in (hints[name], *typing.get_args(hints[name]))
            if isinstance(t, type) and issubclass(t, enum.Enum)
        )
        assert sorted(flags[flag].choices) == sorted(m.value for m in enum_type), flag
        default = getattr(TransformConfig(), name)
        assert flags[flag].default == (None if default is None else default.value), flag
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert rows == names


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

    def test_import_leaves_conformance_and_openssl_unloaded(self):
        # convert needs neither the corpus harness nor hashlib's OpenSSL, whose
        # libcrypto costs a launch about 3 MB; edge_id uses CPython's own SHA-256
        code = (
            "import importlib.util, sys, rdfstar2pg.cli\n"
            "builtin = any(importlib.util.find_spec(m) for m in ('_sha2', '_sha256'))\n"
            "print('rdfstar2pg.conformance' in sys.modules, builtin and '_hashlib' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [b"False", b"False"]

    def test_package_names_resolve(self):
        import rdfstar2pg
        import rdfstar2pg.conformance

        assert rdfstar2pg.run_conformance is rdfstar2pg.conformance.run_conformance
        namespace: dict = {}
        exec("from rdfstar2pg import *", namespace)
        assert [name for name in rdfstar2pg.__all__ if name not in namespace] == []
        with pytest.raises(AttributeError, match="has no attribute 'corpus_integrity'"):
            rdfstar2pg.corpus_integrity

    def test_console_script_installed(self):
        proc = subprocess.run(["rdfstar2pg", "--help"], capture_output=True)
        assert proc.returncode == 0
        assert b"convert" in proc.stdout and b"conformance" in proc.stdout
