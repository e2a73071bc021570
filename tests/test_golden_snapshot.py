"""Byte-for-byte gate on the golden evaluation and its explain traces.

``fixtures/golden_explain.txt`` holds, for the default ranker and for
``respect_direction=True``, the eval report of ``fixtures/golden.jsonl``
followed by the full trace of every golden question.  Regenerate it only for
an intended change of answers or output:

    PYTHONPATH=src python -m tests.test_golden_snapshot > fixtures/golden_explain.txt
"""

from graphqa import (
    PipelineConfig,
    answer,
    load_dataset,
    load_gazetteer_file,
    load_lexicon_file,
    load_ntriples_file,
)
from graphqa.evalkit import format_report, run_dataset
from graphqa.kbstore import load_prefixes
from graphqa.pipeline import format_trace
from graphqa.traversal import RankerConfig
from tests.conftest import fixture_path

SNAPSHOT = fixture_path("golden_explain.txt")


def golden_snapshot() -> str:
    kb = load_ntriples_file(fixture_path("golden.nt"))
    gaz = load_gazetteer_file(fixture_path("gazetteer.tsv"))
    lex = load_lexicon_file(fixture_path("lexicon.tsv"))
    prefixes = load_prefixes(fixture_path("prefixes.json"))
    questions = load_dataset(fixture_path("golden.jsonl"))
    sections = []
    for name, ranker in (
        ("default", RankerConfig()),
        ("respect_direction", RankerConfig(respect_direction=True)),
    ):
        cfg = PipelineConfig(ranker=ranker)
        sections.append(f"== eval ({name}) ==")
        sections.append(format_report(run_dataset(kb, gaz, lex, cfg, questions)))
        for q in questions:
            sections.append(f"== explain {q.id} ({name}) ==")
            sections.append(format_trace(answer(kb, gaz, lex, cfg, q), prefixes))
    return "\n".join(sections) + "\n"


def test_golden_eval_and_explain_match_snapshot():
    with open(SNAPSHOT, "rb") as handle:
        expected = handle.read()
    assert golden_snapshot().encode("utf-8") == expected


if __name__ == "__main__":
    print(golden_snapshot(), end="")
