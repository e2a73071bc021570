import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqa.evalkit import (
    VERDICT_PARTIAL,
    VERDICT_RIGHT,
    VERDICT_UNPROCESSED,
    VERDICT_WRONG,
    DatasetError,
    build_report,
    format_report,
    load_dataset,
    normalize_answer,
    run_dataset,
    score_question,
)
from graphqa.kbstore import XSD, Literal
from graphqa.pipeline import QuestionInput

RES = "http://dbpedia.org/resource/"


def test_exact_match_is_right():
    s = score_question({"a", "b"}, {"a", "b"})
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    assert s.verdict == VERDICT_RIGHT


def test_superset_prediction_partial():
    gold = {RES + "P1", RES + "P2"}
    predicted = gold | {RES + "C1", RES + "C2", RES + "C3"}
    s = score_question(gold, predicted)
    assert s.precision == pytest.approx(0.40, abs=1e-9)
    assert s.recall == 1.0
    assert s.verdict == VERDICT_PARTIAL


def test_empty_prediction_is_unprocessed():
    s = score_question({"a"}, set())
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
    assert s.verdict == VERDICT_UNPROCESSED


def test_disjoint_prediction_is_wrong():
    s = score_question({"a"}, {"b"})
    assert s.f1 == 0.0
    assert s.verdict == VERDICT_WRONG


def test_empty_gold_rejected():
    with pytest.raises(DatasetError):
        score_question(set(), {"a"})


def test_normalization_dates():
    assert normalize_answer(Literal("2009-06-25", XSD + "date")) == normalize_answer("2009-06-25")
    assert normalize_answer(Literal("2009-06-25T00:00:00", XSD + "dateTime")) == normalize_answer(
        "2009-06-25"
    )


def test_normalization_numbers():
    assert normalize_answer(Literal("1800", XSD + "integer")) == normalize_answer("1800.0")
    assert normalize_answer(Literal("891.8", XSD + "double")) == normalize_answer("891.80")
    assert normalize_answer(Literal("1969", XSD + "gYear")) == normalize_answer("1969")


def test_normalization_strings_trim_only():
    assert normalize_answer(Literal(" Governing Mayor ")) == normalize_answer("Governing Mayor")
    assert normalize_answer("Mayor") != normalize_answer("mayor")


def test_normalization_iris():
    assert normalize_answer(RES + "Berlin") == ("iri", RES + "Berlin")


HAND_CASES = [
    # (gold, predicted, precision, recall)
    ({"a"}, {"a"}, 1.0, 1.0),
    ({"a", "b"}, {"a"}, 1.0, 0.5),
    ({"a"}, {"a", "b"}, 0.5, 1.0),
    ({"a", "b"}, {"b", "c"}, 0.5, 0.5),
    ({"a", "b", "c"}, {"a", "b", "c", "d"}, 0.75, 1.0),
    ({"a"}, {"b"}, 0.0, 0.0),
    ({"a"}, set(), 0.0, 0.0),
    ({"a", "b"}, {"a", "b", "c", "d", "e"}, 0.4, 1.0),
    ({"a", "b", "c", "d"}, {"a"}, 1.0, 0.25),
    ({"x"}, {"x", "y", "z"}, 1.0 / 3.0, 1.0),
    # NaN text compares as a string: a NaN number would equal nothing, and
    # a signaling NaN cannot even be hashed
    ({"NaN"}, {Literal("NaN")}, 1.0, 1.0),
    ({"sNaN"}, {Literal("sNaN")}, 1.0, 1.0),
]


@pytest.mark.parametrize("gold,predicted,precision,recall", HAND_CASES)
def test_hand_computed_cases(gold, predicted, precision, recall):
    s = score_question(gold, predicted)
    assert s.precision == pytest.approx(precision, abs=1e-9)
    assert s.recall == pytest.approx(recall, abs=1e-9)
    expected_f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    assert s.f1 == pytest.approx(expected_f1, abs=1e-9)


def test_macro_averages_include_zeros():
    scores = [score_question({"a"}, {"a"}, "q1"), score_question({"a"}, set(), "q2")]
    report = build_report(scores, processed=1)
    assert report.avg_f1 == pytest.approx(0.5)
    assert report.avg_precision == pytest.approx(0.5)
    assert report.total == 2 and report.processed == 1
    assert report.processed_avg_f1 == pytest.approx(1.0)


def test_adding_unprocessed_lowers_every_average():
    base = build_report([score_question({"a"}, {"a"}, "q1")], processed=1)
    extended = build_report(
        [score_question({"a"}, {"a"}, "q1"), score_question({"b"}, set(), "q2")], processed=1
    )
    assert extended.avg_precision < base.avg_precision
    assert extended.avg_recall < base.avg_recall
    assert extended.avg_f1 < base.avg_f1


def test_subset_ratio_projection():
    scores = [
        score_question({"a"}, {"a"}, "q1"),
        score_question({"a", "b"}, {"a"}, "q2"),
        score_question({"a"}, {"a", "b"}, "q3"),
    ]
    report = build_report(scores, processed=3)
    projected = report.projected(10)
    padded = build_report(
        scores + [score_question({"g"}, set(), f"z{i}") for i in range(7)], processed=3
    )
    assert projected[0] == pytest.approx(padded.avg_precision, abs=1e-12)
    assert projected[1] == pytest.approx(padded.avg_recall, abs=1e-12)
    assert projected[2] == pytest.approx(padded.avg_f1, abs=1e-12)


def test_permuting_question_order_changes_no_aggregate(
    golden_kb, gazetteer, lexicon, config, golden_questions
):
    forward = run_dataset(golden_kb, gazetteer, lexicon, config, golden_questions)
    backward = run_dataset(golden_kb, gazetteer, lexicon, config, list(reversed(golden_questions)))
    assert forward.avg_f1 == backward.avg_f1
    assert forward.avg_precision == backward.avg_precision
    assert forward.avg_recall == backward.avg_recall
    assert forward.right == backward.right
    assert forward.partial == backward.partial


def test_golden_dataset_counts(golden_kb, gazetteer, lexicon, config, golden_questions):
    report = run_dataset(golden_kb, gazetteer, lexicon, config, golden_questions)
    assert report.total == 5
    assert report.processed == 5
    assert report.right == 4
    assert report.partial == 1
    by_id = {s.id: s for s in report.per_question}
    assert by_id["q-parents"].precision == pytest.approx(0.40, abs=1e-9)
    assert by_id["q-parents"].recall == 1.0


def test_missing_gold_raises(golden_kb, gazetteer, lexicon, config):
    q = QuestionInput("q-x", "Who produces Orangina?", "(NP (NNP Orangina))")
    with pytest.raises(DatasetError):
        run_dataset(golden_kb, gazetteer, lexicon, config, [q])


def test_load_dataset_round_trip(tmp_path):
    path = tmp_path / "data.jsonl"
    record = {"id": "q1", "question": "Who?", "tree": "(NP (NN x))", "gold": ["a"]}
    path.write_text(json.dumps(record) + "\n# comment\n\n")
    questions = load_dataset(str(path))
    assert len(questions) == 1
    assert questions[0].gold == frozenset({"a"})


def test_load_dataset_reports_bad_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "q1"}\nnot json\n')
    with pytest.raises(DatasetError) as err:
        load_dataset(str(path))
    assert "line 1" in str(err.value) or "line 2" in str(err.value)


@pytest.mark.parametrize("gold", ['"http://dbpedia.org/resource/Klaus_Wowereit"', "5", '{"a": 1}',
                                  "[null]", '["a", true]', '[{"a": 1}]', '[["a"]]'])
def test_load_dataset_rejects_gold_that_is_not_a_list(tmp_path, gold):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": "q0", "question": "Who?", "tree": "(NP (NN x))", "gold": ["a"]}\n'
                    f'{{"id": "q1", "question": "Who?", "tree": "(NP (NN x))", "gold": {gold}}}\n')
    with pytest.raises(DatasetError) as err:
        load_dataset(str(path))
    assert str(err.value) == f"{path} line 2: gold must be a list of strings or numbers"


def test_load_dataset_accepts_missing_null_and_empty_gold(tmp_path):
    path = tmp_path / "data.jsonl"
    base = {"question": "Who?", "tree": "(NP (NN x))"}
    records = [{"id": "q0", **base}, {"id": "q1", **base, "gold": None},
               {"id": "q2", **base, "gold": []}]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert [q.gold for q in load_dataset(str(path))] == [None, None, None]


def test_format_report_rows_match_scores(golden_kb, gazetteer, lexicon, config, golden_questions):
    report = run_dataset(golden_kb, gazetteer, lexicon, config, golden_questions)
    text = format_report(report)
    rows = [l for l in text.splitlines() if l.startswith("q-")]
    assert len(rows) == 5
    precisions = [float(r.split("\t")[3]) for r in rows]
    assert sum(precisions) / len(precisions) == pytest.approx(report.avg_precision, abs=1e-9)


_scores = st.tuples(
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)


@settings(max_examples=100, derandomize=True)
@given(st.sets(st.sampled_from("abcdefgh"), min_size=1), st.sets(st.sampled_from("abcdefgh")))
def test_f1_matches_direct_reimplementation(gold, predicted):
    s = score_question(gold, predicted)
    inter = len(gold & predicted)
    p = inter / len(predicted) if predicted else 0.0
    r = inter / len(gold)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    assert s.precision == pytest.approx(p, abs=1e-12)
    assert s.recall == pytest.approx(r, abs=1e-12)
    assert s.f1 == pytest.approx(f1, abs=1e-12)
    assert s.f1 <= 1.0
