import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from graphqa.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from tests.conftest import fixture_path

BERLIN_Q = "Who is the mayor of Berlin?"
BERLIN_TREE = "(SBARQ (WHNP (WP Who)) (SQ (VBZ is) (NP (NP (DT the) (NN mayor)) (PP (IN of) (NP (NNP Berlin))))) (. ?))"


def resource_args(kb="golden.nt"):
    return [
        "--kb", fixture_path(kb),
        "--gazetteer", fixture_path("gazetteer.tsv"),
        "--lexicon", fixture_path("lexicon.tsv"),
        "--prefixes", fixture_path("prefixes.json"),
    ]


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_ask_berlin_prints_answer():
    code, out = run_cli(["ask", *resource_args(), BERLIN_Q, BERLIN_TREE])
    assert code == EXIT_OK
    assert "answers: res:Klaus_Wowereit" in out


def test_ask_verbose_prints_path_table():
    code, out = run_cli(["ask", "-v", *resource_args(), BERLIN_Q, BERLIN_TREE])
    assert code == EXIT_OK
    assert "res:Klaus_Wowereit" in out
    assert "dbo:leader" in out
    assert "score=0.7100" in out


def test_ask_explain_shows_structure_and_decomposition():
    code, out = run_cli(["ask", "--explain", *resource_args(), BERLIN_Q, BERLIN_TREE])
    assert code == EXIT_OK
    assert "--[mayor of]--" in out
    assert "total=1.7100 (predicates=0.7100 + type=1.0000)" in out


def test_explain_subcommand_equivalent_to_explain_flag():
    _, via_flag = run_cli(["ask", "--explain", *resource_args(), BERLIN_Q, BERLIN_TREE])
    _, via_cmd = run_cli(["explain", *resource_args(), BERLIN_Q, BERLIN_TREE])
    assert via_flag == via_cmd


def test_ask_unprocessed_exits_zero():
    code, out = run_cli(
        ["ask", *resource_args(), "Who is the mayor of Gotham?",
         BERLIN_TREE.replace("Berlin", "Gotham")]
    )
    assert code == EXIT_OK
    assert out.startswith("unprocessed: entity_linking")


def test_empty_phrase_writes_nothing_to_stderr():
    # A subprocess, so stderr is the real one and pytest's log capture is not installed.
    tree = "(SBARQ (WHADVP (WRB Where)) (SQ (VBZ has) (NP (NNP Berlin)) (VP (VBN been))) (. ?))"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    result = subprocess.run(
        [sys.executable, "-m", "graphqa.cli", "ask", *resource_args(), "Where has Berlin been?", tree],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.path.normpath(src)},
    )
    assert result.returncode == EXIT_OK
    assert result.stderr == ""
    assert "unprocessed: path_ranking" in result.stdout


def test_bad_lexicon_path_exits_two(capsys):
    argv = ["ask", "--kb", fixture_path("golden.nt"),
            "--gazetteer", fixture_path("gazetteer.tsv"),
            "--lexicon", "/nonexistent/lexicon.tsv",
            BERLIN_Q, BERLIN_TREE]
    assert main(argv) == EXIT_RESOURCE
    assert "/nonexistent/lexicon.tsv" in capsys.readouterr().err


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["ask"])  # missing required --kb
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("flag, value, message", [
    ("--tau", "1.5", "tau must be within [0, 1], got 1.5"),
    ("--beam", "0", "beam must be >= 1, got 0"),
    ("--link-threshold", "2", "link threshold must be within [0, 1], got 2.0"),
])
def test_out_of_range_flag_is_usage_error_before_any_file_is_read(capsys, flag, value, message):
    argv = ["ask", *resource_args(), "--kb", "/nonexistent/kb.nt", flag, value,
            BERLIN_Q, BERLIN_TREE]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert f"graphqa: error: {message}" in capsys.readouterr().err


def test_question_without_tree_is_usage_error(capsys):
    assert main(["ask", *resource_args(), BERLIN_Q]) == EXIT_USAGE
    assert "tree" in capsys.readouterr().err


def test_ask_stdin_pairs(monkeypatch):
    lines = f"{BERLIN_Q}\n{BERLIN_TREE}\nWho produces Orangina?\n(SBARQ (WHNP (WP Who)) (SQ (VP (VBZ produces) (NP (NNP Orangina)))) (. ?))\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    code, out = run_cli(["ask", *resource_args()])
    assert code == EXIT_OK
    assert "res:Klaus_Wowereit" in out
    assert "res:Suntory" in out


def test_eval_golden_dataset():
    code, out = run_cli(["eval", *resource_args(), "--dataset", fixture_path("golden.jsonl")])
    assert code == EXIT_OK
    assert "Avg.Recall" in out and "Avg.Precision" in out and "Avg.F-1" in out
    summary = [l for l in out.splitlines() if l.strip().startswith("5")]
    assert summary, out
    fields = summary[0].split()
    assert fields[:4] == ["5", "5", "4", "1"]


def test_eval_rows_recompute_to_report_averages():
    _, out = run_cli(["eval", *resource_args(), "--dataset", fixture_path("golden.jsonl")])
    rows = [l.split("\t") for l in out.splitlines() if l.startswith("q-")]
    precisions = [float(r[3]) for r in rows]
    recalls = [float(r[4]) for r in rows]
    f1s = [float(r[5]) for r in rows]
    summary = [l for l in out.splitlines() if l.strip().startswith("5")][0].split()
    assert abs(sum(recalls) / len(recalls) - float(summary[4])) < 5e-5
    assert abs(sum(precisions) / len(precisions) - float(summary[5])) < 5e-5
    assert abs(sum(f1s) / len(f1s) - float(summary[6])) < 5e-5
    # the 12-digit rows themselves match exact recomputation
    from graphqa import PipelineConfig, load_dataset, run_dataset
    import graphqa

    kb = graphqa.load_ntriples_file(fixture_path("golden.nt"))
    gaz = graphqa.load_gazetteer_file(fixture_path("gazetteer.tsv"))
    lex = graphqa.load_lexicon_file(fixture_path("lexicon.tsv"))
    report = run_dataset(kb, gaz, lex, PipelineConfig(), load_dataset(fixture_path("golden.jsonl")))
    assert abs(sum(precisions) / len(precisions) - report.avg_precision) < 1e-9
    assert abs(sum(recalls) / len(recalls) - report.avg_recall) < 1e-9
    assert abs(sum(f1s) / len(f1s) - report.avg_f1) < 1e-9


def test_eval_empty_dataset_is_resource_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argv = ["eval", *resource_args(), "--dataset", str(empty)]
    assert main(argv) == EXIT_RESOURCE
    assert "no questions" in capsys.readouterr().err


def test_eval_respect_direction_changes_parents_row():
    base_code, base_out = run_cli(
        ["eval", *resource_args(), "--dataset", fixture_path("golden.jsonl")]
    )
    flag_code, flag_out = run_cli(
        ["eval", "--respect-direction", *resource_args(), "--dataset", fixture_path("golden.jsonl")]
    )
    assert base_code == flag_code == EXIT_OK
    base_row = [l for l in base_out.splitlines() if l.startswith("q-parents")][0]
    flag_row = [l for l in flag_out.splitlines() if l.startswith("q-parents")][0]
    assert "partial" in base_row
    assert "right" in flag_row


def test_repeated_eval_is_byte_identical():
    first = run_cli(["eval", *resource_args(), "--dataset", fixture_path("golden.jsonl")])
    second = run_cli(["eval", *resource_args(), "--dataset", fixture_path("golden.jsonl")])
    assert first == second


@pytest.mark.parametrize("option, content", [
    ("--types-config", "{not json"),
    ("--prefixes", "{not json"),
    ("--prefixes", '{"dbo": 5}'),
    ("--types-config", '{"Person": 5}'),
    ("--types-config", '{"Person": [5]}'),
    ("--types-config", '{"Person": "http://xmlns.com/foaf/0.1/Person"}'),
])
def test_bad_json_resource_exits_two(tmp_path, capsys, option, content):
    path = tmp_path / "resource.json"
    path.write_text(content)
    argv = ["ask", *resource_args(), option, str(path), BERLIN_Q, BERLIN_TREE]
    assert main(argv) == EXIT_RESOURCE
    assert str(path) in capsys.readouterr().err


def test_non_utf8_kb_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.nt"
    path.write_bytes('<http://example.org/a> <http://example.org/p> "café" .\n'.encode("latin-1"))
    argv = ["ask", *resource_args(), "--kb", str(path), BERLIN_Q, BERLIN_TREE]
    assert main(argv) == EXIT_RESOURCE
    assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize("option, content, reason", [
    ("--kb", '<http://example.org/a> <http://example.org/p> "café" .\n'.encode("latin-1"),
     " line 1: invalid utf-8 byte 0xe9"),
    ("--kb", b"<http://example.org/a> <http://example.org/p> .\n", " line 1: malformed triple"),
    ("--gazetteer", "Café\thttp://example.org/Cafe\t0.9\tResource\n".encode("latin-1"),
     " line 1: invalid utf-8 byte 0xe9"),
    ("--lexicon", "café\tbar\t0.5\n".encode("latin-1"), " line 1: invalid utf-8 byte 0xe9"),
    ("--prefixes", '{"res": "http://example.org/Café"}'.encode("latin-1"), ": invalid JSON"),
    ("--types-config", '{"Person": ["http://example.org/Café"]}'.encode("latin-1"),
     ": invalid JSON"),
])
def test_bad_resource_file_is_named(tmp_path, capsys, option, content, reason):
    path = tmp_path / "resource.txt"
    path.write_bytes(content)
    argv = ["ask", *resource_args(), option, str(path), BERLIN_Q, BERLIN_TREE]
    assert main(argv) == EXIT_RESOURCE
    assert f"{path}{reason}" in capsys.readouterr().err


def test_eval_non_utf8_dataset_names_its_line(tmp_path, capsys):
    golden = Path(fixture_path("golden.jsonl")).read_bytes()
    path = tmp_path / "data.jsonl"
    path.write_bytes(golden + b'{"id": "q-caf\xe9"}\n')
    argv = ["eval", *resource_args(), "--dataset", str(path)]
    assert main(argv) == EXIT_RESOURCE
    lineno = golden.count(b"\n") + 1
    assert f"{path} line {lineno}: invalid utf-8 byte 0xe9" in capsys.readouterr().err


@pytest.mark.parametrize("sep", ["\u2028", "\u0085"])
def test_eval_keeps_a_raw_line_separator_inside_its_record(tmp_path, sep):
    with open(fixture_path("golden.jsonl"), encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    records[0]["id"] += f"{sep}raw"
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")
    code, out = run_cli(["eval", *resource_args(), "--dataset", str(path)])
    assert code == EXIT_OK
    assert f"\n{records[0]['id']}\tright\t" in out
    summary = [l for l in out.split("\n") if l.strip().startswith("5")]
    assert summary[0].split()[:4] == ["5", "5", "4", "1"]
