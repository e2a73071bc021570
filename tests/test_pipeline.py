import pytest

from graphqa.entitylink import load_gazetteer
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
    PipelineConfig,
    QuestionInput,
    answer,
    format_trace,
)
from graphqa.traversal import RankerConfig

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


def test_hop_bound_cap_is_unprocessed(juan_kb, gazetteer, lexicon):
    q = QuestionInput(
        "q-parents",
        "Who are the parents of the wife of Juan Carlos I?",
        "(SBARQ (WHNP (WP Who)) (SQ (VBP are) (NP (NP (DT the) (NNS parents)) (PP (IN of) (NP (NP (DT the) (NN wife)) (PP (IN of) (NP (NNP Juan) (NNP Carlos) (NNP I))))))) (. ?))",
    )
    cfg = PipelineConfig(ranker=RankerConfig(max_k=1))
    trace = answer(juan_kb, gazetteer, lexicon, cfg, q)
    assert trace.status == STATUS_UNPROCESSED
    assert trace.failed_stage == STAGE_STRUCTURE


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
