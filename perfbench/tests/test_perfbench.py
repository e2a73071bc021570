"""Tests of the benchmark itself (not of graphqa).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import graphqa.pipeline as pipeline_mod  # noqa: E402
import graphqa.traversal as traversal_mod  # noqa: E402
import tracing  # noqa: E402
from graphqa import (  # noqa: E402
    PipelineConfig,
    load_dataset,
    load_gazetteer_file,
    load_lexicon_file,
    load_ntriples_file,
)

FILES = ("store.nt", "gazetteer.tsv", "lexicon.tsv", "questions.jsonl", "expected.tsv")


def _generate(out: str, hash_seed: str) -> None:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "gen.py"), "--workload", "hub_chain",
         "--seed", "7", "--out", out],
        check=True, env=env, timeout=300,
    )


def test_same_seed_writes_identical_files(tmp_path):
    # Two processes with different string-hash seeds, so set iteration
    # order cannot leak into the output.
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    _generate(first, "1")
    _generate(second, "2")
    match, mismatch, errors = filecmp.cmpfiles(first, second, FILES, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert sorted(match) == sorted(FILES)


def _fixture(name: str) -> str:
    return os.path.join(ROOT, "fixtures", name)


def test_traced_self_times_sum_to_answer_and_wrappers_are_removed():
    kb = load_ntriples_file(_fixture("golden.nt"))
    gaz = load_gazetteer_file(_fixture("gazetteer.tsv"))
    lex = load_lexicon_file(_fixture("lexicon.tsv"))
    questions = load_dataset(_fixture("golden.jsonl"))
    before = (pipeline_mod.build_subgraph, traversal_mod.type_score, traversal_mod.tokenize)

    tracer = tracing.Tracer()
    with tracing.install(tracer, kb):
        traces = [tracer.answer(q.id, pipeline_mod.answer, kb, gaz, lex, PipelineConfig(), q)
                  for q in questions]

    assert (pipeline_mod.build_subgraph, traversal_mod.type_score, traversal_mod.tokenize) == before
    assert "neighbors" not in vars(kb)
    assert [t.status for t in traces] == ["answered"] * len(questions)
    selfs, roots = tracer.self_times(), tracer.root_durations()
    assert sorted(roots) == sorted(f"{q.id}#1" for q in questions)
    for qid, root in roots.items():
        assert abs(sum(selfs[qid].values()) - root) < 1e-9
        assert selfs[qid]["traversal.subgraph"] > 0
        assert tracer.per_question[qid]["neighbors_calls"] > 0
        assert tracer.per_question[qid]["predicate_score_calls"] >= len(
            tracer.per_question[qid]["pred_keys"])
