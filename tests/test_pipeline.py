import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqa.entitylink import load_gazetteer
from graphqa.evalkit import load_dataset
from graphqa.intent import MAX_TREE_DEPTH
from graphqa.kbstore import load_ntriples
from graphqa.lexsim import load_lexicon
from graphqa.pipeline import (
    STAGE_LINKING,
    STAGE_RANKING,
    STAGE_STRUCTURE,
    STAGE_TRAVERSAL,
    STATUS_ANSWERED,
    STATUS_UNPROCESSED,
    AnswerTrace,
    PipelineConfig,
    QuestionInput,
    answer,
    format_trace,
)
from graphqa.traversal import RankerConfig
from tests.conftest import fixture_path

RES = "http://dbpedia.org/resource/"
DBO = "http://dbpedia.org/ontology/"

BERLIN_Q = QuestionInput(
    "q-berlin",
    "Who is the mayor of Berlin?",
    "(SBARQ (WHNP (WP Who)) (SQ (VBZ is) (NP (NP (DT the) (NN mayor)) (PP (IN of) (NP (NNP Berlin))))) (. ?))",
)


def test_berlin_end_to_end(golden_kb, gazetteer, lexicon, config):
    trace = answer(golden_kb, gazetteer, lexicon, config, BERLIN_Q)
    assert trace.status == STATUS_ANSWERED
    assert trace.answers == frozenset({RES + "Klaus_Wowereit"})
    assert trace.paths[0].steps[0].predicate == DBO + "leader"


def test_no_gazetteer_hit_is_unprocessed_at_linking(golden_kb, gazetteer, lexicon, config):
    q = QuestionInput("q-x", "Who is the mayor of Gotham?", BERLIN_Q.tree.replace("Berlin", "Gotham"))
    trace = answer(golden_kb, gazetteer, lexicon, config, q)
    assert trace.status == STATUS_UNPROCESSED
    assert trace.failed_stage == STAGE_LINKING
    assert trace.answers == frozenset()


def test_no_pattern_is_unprocessed_at_structure(golden_kb, gazetteer, lexicon, config):
    q = QuestionInput("q-x", "Berlin?", "(NP (NNP Berlin) (. ?))")
    trace = answer(golden_kb, gazetteer, lexicon, config, q)
    assert trace.failed_stage == STAGE_STRUCTURE


def test_bad_tree_is_unprocessed_not_crash(golden_kb, gazetteer, lexicon, config):
    q = QuestionInput("q-x", "Who is the mayor of Berlin?", "(SQ (WP Who")
    trace = answer(golden_kb, gazetteer, lexicon, config, q)
    assert trace.status == STATUS_UNPROCESSED
    assert trace.failed_stage == STAGE_STRUCTURE


@pytest.mark.parametrize("text", ["", "   "])
def test_empty_question_is_unprocessed_at_linking(golden_kb, gazetteer, lexicon, config, text):
    trace = answer(golden_kb, gazetteer, lexicon, config, QuestionInput("q-x", text, BERLIN_Q.tree))
    assert trace.status == STATUS_UNPROCESSED
    assert trace.failed_stage == STAGE_LINKING


def _deep_tree(depth):
    return "(X " * (depth - 1) + "(NNP Berlin)" + ")" * (depth - 1)


@pytest.mark.parametrize("depth", [500, 5000])
def test_deeply_nested_tree_is_unprocessed_at_structure(golden_kb, gazetteer, lexicon, config, depth):
    q = QuestionInput("q-x", "Who is the mayor of Berlin?", _deep_tree(depth))
    trace = answer(golden_kb, gazetteer, lexicon, config, q)
    assert trace.status == STATUS_UNPROCESSED
    assert trace.failed_stage == STAGE_STRUCTURE
    assert "nested deeper" in trace.failure_reason


def test_deepest_allowed_tree_gives_a_trace(golden_kb, gazetteer, lexicon, config):
    q = QuestionInput("q-x", "Berlin", _deep_tree(MAX_TREE_DEPTH))
    trace = answer(golden_kb, gazetteer, lexicon, config, q)
    assert trace.failed_stage == STAGE_STRUCTURE
    assert "nested deeper" not in trace.failure_reason


def test_unknown_seed_is_unprocessed_at_traversal(berlin_kb, gazetteer, lexicon, config):
    q = QuestionInput(
        "q-x",
        "Who produces Orangina?",
        "(SBARQ (WHNP (WP Who)) (SQ (VP (VBZ produces) (NP (NNP Orangina)))) (. ?))",
    )
    # Orangina is linkable but absent from the Berlin-only store
    trace = answer(berlin_kb, gazetteer, lexicon, config, q)
    assert trace.failed_stage == STAGE_TRAVERSAL


def test_all_filtered_is_unprocessed_at_ranking(berlin_kb, gazetteer, lexicon):
    cfg = PipelineConfig(ranker=RankerConfig(tau=0.99))
    trace = answer(berlin_kb, gazetteer, lexicon, cfg, BERLIN_Q)
    assert trace.failed_stage == STAGE_RANKING


def test_partial_answer_when_near_synonym_outranks():
    kb = load_ntriples(
        f"<{RES}Canada> <{DBO}capital> <{RES}Ottawa> .\n"
        f"<{RES}Canada> <{DBO}seatOfGovernment> <{RES}Ottawa> .\n"
        f"<{RES}Canada> <{DBO}seatOfGovernment> <{RES}Gatineau> .\n"
        f'<{DBO}capital> <http://www.w3.org/2000/01/rdf-schema#label> "capital" .\n'
        f'<{DBO}seatOfGovernment> <http://www.w3.org/2000/01/rdf-schema#label> "seat of government" .\n'
        f'<{RES}Ottawa> <http://www.w3.org/2000/01/rdf-schema#label> "Ottawa" .\n'
        f'<{RES}Gatineau> <http://www.w3.org/2000/01/rdf-schema#label> "Gatineau" .'
    )
    gaz = load_gazetteer(f"canada\t{RES}Canada\t0.9\tResource\n")
    lex = load_lexicon("seat\tcapital\t0.6\n")
    q = QuestionInput(
        "q-canada",
        "What is the capital of Canada?",
        "(SBARQ (WHNP (WP What)) (SQ (VBZ is) (NP (NP (DT the) (NN capital)) (PP (IN of) (NP (NNP Canada))))) (. ?))",
        gold=frozenset({RES + "Ottawa", RES + "Gatineau"}),
    )
    trace = answer(kb, gaz, lex, PipelineConfig(), q)
    assert trace.status == STATUS_ANSWERED
    # the exact-label predicate outranks the one carrying the full gold set
    assert trace.answers == frozenset({RES + "Ottawa"})
    assert not trace.answers.issuperset(q.gold)


def test_totality_over_odd_inputs(golden_kb, gazetteer, lexicon, config):
    cases = [
        QuestionInput("a", "Berlin Berlin Berlin", "(NP (NNP Berlin))"),
        QuestionInput("b", "Who is the mayor of Berlin?", "(FRAG (NN nonsense))"),
        QuestionInput("c", "???", "(X (Y ?))"),
    ]
    for q in cases:
        trace = answer(golden_kb, gazetteer, lexicon, config, q)
        assert trace.status in (STATUS_ANSWERED, STATUS_UNPROCESSED)
        assert (trace.status == STATUS_ANSWERED) == bool(trace.paths)
        assert (trace.status == STATUS_ANSWERED) == bool(trace.answers)


def test_trace_total_matches_recomputation(golden_kb, gazetteer, lexicon, config):
    trace = answer(golden_kb, gazetteer, lexicon, config, BERLIN_Q)
    top = trace.paths[0]
    mean = sum(s.score for s in top.steps) / len(top.steps)
    assert top.total == mean + top.type_score


def test_format_trace_mentions_everything(golden_kb, gazetteer, lexicon, config, prefixes):
    trace = answer(golden_kb, gazetteer, lexicon, config, BERLIN_Q)
    text = format_trace(trace, prefixes)
    assert "status: answered" in text
    assert "mention: 'Berlin'" in text
    assert "--[mayor of]--" in text
    assert "res:Klaus_Wowereit" in text
    assert "total=1.7100" in text


def test_format_trace_unprocessed(golden_kb, gazetteer, lexicon, config):
    q = QuestionInput("q-x", "Who is the mayor of Gotham?", BERLIN_Q.tree.replace("Berlin", "Gotham"))
    trace = answer(golden_kb, gazetteer, lexicon, config, q)
    assert "status: unprocessed (entity_linking" in format_trace(trace)


_LABELS = st.sampled_from(
    ["S", "SBARQ", "SQ", "WHNP", "WHADVP", "WP", "WRB", "NP", "NN", "NNS", "NNP",
     "VP", "VB", "VBZ", "VBN", "VBD", "PP", "IN", "DT", "CC", "JJ", "PRP", "."]
)
_GOLDEN = load_dataset(fixture_path("golden.jsonl"))
_LEAF_RE = re.compile(r"\(\S+ ([^()\s]+)\)")
_WORDS = sorted({w for q in _GOLDEN for w in _LEAF_RE.findall(q.tree)})


@st.composite
def _tree_over(draw, words):
    """A random bracketed tree whose leaves are ``words`` in order."""
    if len(words) == 1:
        leaf = f"({draw(_LABELS)} {words[0]})"
        return f"({draw(_LABELS)} {leaf})" if draw(st.booleans()) else leaf
    cuts = sorted(draw(st.sets(st.integers(1, len(words) - 1), min_size=1, max_size=2)))
    parts = [words[a:b] for a, b in zip([0, *cuts], [*cuts, len(words)])]
    return f"({draw(_LABELS)} {' '.join(draw(_tree_over(part)) for part in parts)})"


@st.composite
def _question_inputs(draw):
    """Arbitrary text; a golden input with its tree cut short; a golden
    question's words, possibly with one changed, under its own tree with the
    same change or under a random tree."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return QuestionInput("q-fuzz", draw(st.text(max_size=60)), draw(st.text(max_size=80)))
    base = draw(st.sampled_from(_GOLDEN))
    if kind == 1:
        cut = draw(st.integers(0, len(base.tree)))
        return QuestionInput("q-fuzz", base.question, base.tree[:cut] + draw(st.text(max_size=5)))
    words = _LEAF_RE.findall(base.tree)
    tree = base.tree
    if draw(st.booleans()):
        at = draw(st.integers(0, len(words) - 1))
        old, new = words[at], draw(st.sampled_from(_WORDS))
        words[at] = new
        tree = re.sub(rf" {re.escape(old)}\)", f" {new})", tree, count=1)
    if draw(st.booleans()):
        tree = draw(_tree_over(words))
    return QuestionInput("q-fuzz", " ".join(words), tree)


_STAGES = {STAGE_LINKING, STAGE_STRUCTURE, STAGE_TRAVERSAL, STAGE_RANKING}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_question_inputs())
def test_answer_is_total_and_repeatable(golden_kb, gazetteer, lexicon, q):
    trace = answer(golden_kb, gazetteer, lexicon, PipelineConfig(), q)
    assert isinstance(trace, AnswerTrace)
    if trace.status == STATUS_ANSWERED:
        assert trace.answers and trace.failed_stage is None
    else:
        assert trace.status == STATUS_UNPROCESSED
        assert trace.failed_stage in _STAGES and trace.failure_reason
    again = answer(golden_kb, gazetteer, lexicon, PipelineConfig(), q)
    assert repr(again) == repr(trace)
    assert format_trace(again) == format_trace(trace)
