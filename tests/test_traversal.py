import pytest

from graphqa.entitylink import MentionLink, detect_mentions
from graphqa.focus import Focus, extract_focus
from graphqa.intent import (
    ANSWER_NODE,
    SEED,
    VAR,
    IntentStructure,
    StructEdge,
    StructNode,
    align_to_question,
    extract_structure,
    parse_bracketed,
)
from graphqa.kbstore import DCT_SUBJECT, KnowledgeBase, Literal, Triple, load_ntriples
from graphqa.lexsim import SimilarityLexicon
from graphqa.traversal import (
    NoPathError,
    RankerConfig,
    UnknownSeedError,
    build_subgraph,
    enumerate_and_rank,
    predicate_score,
)

RES = "http://dbpedia.org/resource/"
DBO = "http://dbpedia.org/ontology/"


def understanding(question, tree_text, gazetteer):
    mentions = detect_mentions(question, gazetteer)
    tree = align_to_question(parse_bracketed(tree_text), question)
    structure = extract_structure(tree, mentions)
    focus = extract_focus(question, tree)
    return structure, focus


BERLIN = (
    "Who is the mayor of Berlin?",
    "(SBARQ (WHNP (WP Who)) (SQ (VBZ is) (NP (NP (DT the) (NN mayor)) (PP (IN of) (NP (NNP Berlin))))) (. ?))",
)
MOVIES = (
    "Give me all movies starring Brad Pitt and directed by Guy Ritchie.",
    "(S (VP (VB Give) (NP (PRP me)) (NP (NP (DT all) (NNS movies)) (VP (VP (VBG starring) (NP (NNP Brad) (NNP Pitt))) (CC and) (VP (VBN directed) (PP (IN by) (NP (NNP Guy) (NNP Ritchie))))))) (. .))",
)
PARENTS = (
    "Who are the parents of the wife of Juan Carlos I?",
    "(SBARQ (WHNP (WP Who)) (SQ (VBP are) (NP (NP (DT the) (NNS parents)) (PP (IN of) (NP (NP (DT the) (NN wife)) (PP (IN of) (NP (NNP Juan) (NNP Carlos) (NNP I))))))) (. ?))",
)


def test_subgraph_one_layer(berlin_kb):
    sub = build_subgraph(berlin_kb, [RES + "Berlin"], 1)
    assert sub.layers[RES + "Berlin"] == 0
    assert sub.layers[RES + "Klaus_Wowereit"] == 1
    # Klaus's party is two hops out and must be absent at k=1
    assert RES + "Social_Democratic_Party_of_Germany" not in sub.layers
    assert all(layer <= 1 for layer in sub.layers.values())


def test_subgraph_merges_multiple_seeds(pitt_kb):
    sub = build_subgraph(pitt_kb, [RES + "Brad_Pitt", RES + "Guy_Ritchie"], 1)
    assert sub.layers[RES + "Brad_Pitt"] == 0
    assert sub.layers[RES + "Guy_Ritchie"] == 0
    assert sub.layers[RES + "Snatch_(film)"] == 1


def test_subgraph_layers_are_min_distance(juan_kb):
    sub = build_subgraph(juan_kb, [RES + "Juan_Carlos_I"], 2)
    assert sub.layers[RES + "Queen_Sofia"] == 1
    assert sub.layers[RES + "Paul_of_Greece"] == 2


def test_unknown_seed_raises(berlin_kb):
    with pytest.raises(UnknownSeedError) as err:
        build_subgraph(berlin_kb, [RES + "Nowhere"], 1)
    assert RES + "Nowhere" in str(err.value)


def test_excluded_predicates_leave_seed_alone():
    kb = load_ntriples(f"<{RES}Lonely> <{DCT_SUBJECT}> <{RES}Category:Things> .")
    sub = build_subgraph(kb, [RES + "Lonely"], 1, exclude_predicates=frozenset({DCT_SUBJECT}))
    assert sub.nodes == {RES + "Lonely"}
    assert sub.adjacency[RES + "Lonely"] == ()


def test_category_edges_traversed_by_default(berlin_kb):
    sub = build_subgraph(berlin_kb, [RES + "Berlin"], 1)
    assert RES + "Category:Cities_in_Germany" in sub.layers


def test_literals_are_never_expanded():
    kb = load_ntriples(
        f'<{RES}A> <{DBO}note> "shared" .\n'
        f'<{RES}B> <{DBO}note> "shared" .\n'
        f'<{RES}B> <{DBO}linked> <{RES}C> .'
    )
    sub = build_subgraph(kb, [RES + "A"], 2)
    # the literal joins the subgraph but does not lead on to B or C
    assert Literal("shared") in sub.layers
    assert RES + "B" not in sub.layers


def test_predicate_score_single_label(berlin_kb, lexicon):
    assert predicate_score(berlin_kb, DBO + "leader", "mayor of", lexicon) == pytest.approx(0.71)


def test_predicate_score_identity(golden_kb, lexicon):
    assert predicate_score(golden_kb, DBO + "starring", "starring", lexicon) == 1.0


def test_predicate_score_best_label_wins(lexicon):
    kb = load_ntriples(
        f'<{DBO}director> <http://www.w3.org/2000/01/rdf-schema#label> "director" .\n'
        f'<{DBO}director> <http://www.w3.org/2000/01/rdf-schema#label> "film director" .'
    )
    score = predicate_score(kb, DBO + "director", "directed by", lexicon)
    # labels score 0.8 and mean(0.0, 0.8) = 0.4; the best label wins
    assert score == pytest.approx(0.8)


def test_predicate_score_no_content_words(berlin_kb, lexicon):
    assert predicate_score(berlin_kb, DBO + "leader", "of the", lexicon) == 0.0


def test_predicate_score_extra_phrase_never_hurts(golden_kb, lexicon):
    base = predicate_score(golden_kb, DBO + "creator", "created by", lexicon)
    with_extra = predicate_score(
        golden_kb, DBO + "creator", "created by", lexicon, extra_phrase="television shows"
    )
    assert with_extra >= base


def rank(kb, question, tree, gazetteer, lexicon, cfg=None):
    cfg = cfg or RankerConfig()
    structure, focus = understanding(question, tree, gazetteer)
    sub = build_subgraph(kb, structure.seed_entities(), structure.k, cfg.exclude_predicates)
    return enumerate_and_rank(kb, sub, structure, focus, lexicon, cfg)


def test_berlin_single_edge_ranking(berlin_kb, gazetteer, lexicon):
    paths = rank(berlin_kb, *BERLIN, gazetteer, lexicon)
    assert paths[0].steps[0].predicate == DBO + "leader"
    assert paths[0].answers == frozenset({RES + "Klaus_Wowereit"})
    assert paths[0].total == pytest.approx(1.71)
    assert all(paths[0].total > p.total for p in paths[1:])


def test_triangle_ranking(pitt_kb, gazetteer, lexicon):
    paths = rank(pitt_kb, *MOVIES, gazetteer, lexicon)
    assert paths[0].answers == frozenset({RES + "Snatch_(film)"})
    assert {s.predicate for s in paths[0].steps} == {DBO + "starring", DBO + "director"}
    assert paths[0].type_score > 0
    assert len(paths) == 3


def test_chain_ranking_ignores_direction(juan_kb, gazetteer, lexicon):
    paths = rank(juan_kb, *PARENTS, gazetteer, lexicon)
    top = paths[0]
    assert len(top.answers) == 5
    assert top.var_bindings == ((("?v1"), RES + "Queen_Sofia"),)
    assert {s.predicate for s in top.steps} == {DBO + "parent", DBO + "spouse"}


def test_chain_ranking_respects_direction_when_asked(juan_kb, gazetteer, lexicon):
    cfg = RankerConfig(respect_direction=True)
    paths = rank(juan_kb, *PARENTS, gazetteer, lexicon, cfg)
    assert paths[0].answers == frozenset(
        {RES + "Paul_of_Greece", RES + "Frederica_of_Hanover"}
    )


def test_direction_blind_to_reversed_triples(berlin_kb, gazetteer, lexicon):
    reversed_triples = []
    for t in berlin_kb.triples:
        if t.subject == RES + "Berlin" and t.predicate == DBO + "leader":
            reversed_triples.append(Triple(t.object, t.predicate, t.subject))
        else:
            reversed_triples.append(t)
    flipped = KnowledgeBase(reversed_triples)
    base = rank(berlin_kb, *BERLIN, gazetteer, lexicon)
    mirrored = rank(flipped, *BERLIN, gazetteer, lexicon)
    assert [(p.total, p.answers, tuple(s.predicate for s in p.steps)) for p in base] == [
        (p.total, p.answers, tuple(s.predicate for s in p.steps)) for p in mirrored
    ]


def test_tau_filters_every_step(berlin_kb, gazetteer, lexicon):
    paths = rank(berlin_kb, *BERLIN, gazetteer, lexicon, RankerConfig(tau=0.5))
    assert len(paths) == 1  # the 0.355 competitor is gone
    assert all(step.score >= 0.5 for p in paths for step in p.steps)
    with pytest.raises(NoPathError):
        rank(berlin_kb, *BERLIN, gazetteer, lexicon, RankerConfig(tau=0.72))


def test_tau_monotone(pitt_kb, gazetteer, lexicon):
    previous = None
    for tau in [0.0, 0.2, 0.4, 0.6, 0.8]:
        try:
            paths = rank(pitt_kb, *MOVIES, gazetteer, lexicon, RankerConfig(tau=tau))
        except NoPathError:
            paths = []
        keys = {(tuple(s.predicate for s in p.steps), p.answers) for p in paths}
        if previous is not None:
            assert keys.issubset(previous)
        previous = keys


def test_beam_restricts_candidates(pitt_kb, gazetteer, lexicon):
    wide = rank(pitt_kb, *MOVIES, gazetteer, lexicon, RankerConfig(beam=10))
    narrow = rank(pitt_kb, *MOVIES, gazetteer, lexicon, RankerConfig(beam=1))
    assert len(narrow) <= len(wide)
    assert narrow[0].answers == frozenset({RES + "Snatch_(film)"})


def test_totals_recompute(juan_kb, gazetteer, lexicon):
    paths = rank(juan_kb, *PARENTS, gazetteer, lexicon)
    for p in paths:
        mean = sum(s.score for s in p.steps) / len(p.steps)
        assert p.predicate_mean == pytest.approx(mean)
        assert p.total == pytest.approx(mean + p.type_score)


def test_output_is_deterministic(pitt_kb, gazetteer, lexicon):
    assert rank(pitt_kb, *MOVIES, gazetteer, lexicon) == rank(
        pitt_kb, *MOVIES, gazetteer, lexicon
    )


def test_paths_never_leave_subgraph(juan_kb, gazetteer, lexicon):
    structure, focus = understanding(*PARENTS, gazetteer)
    sub = build_subgraph(juan_kb, structure.seed_entities(), structure.k)
    paths = enumerate_and_rank(juan_kb, sub, structure, focus, lexicon, RankerConfig())
    for p in paths:
        for _name, node in p.var_bindings:
            assert node in sub.nodes
        for a in p.answers:
            assert a in sub.nodes


def test_literal_variable_reads_only_edges_inside_the_ball():
    # B shares A's literal, but literals are never expanded, so B is outside
    # the 2-ball and the chain cannot reach it through the literal.
    kb = load_ntriples(
        f'<{RES}A> <{DBO}code> "X1" .\n'
        f'<{RES}B> <{DBO}code> "X1" .\n'
        f'<{RES}B> <{DBO}name> "bee" .'
    )
    seed, var = StructNode(SEED, RES + "A"), StructNode(VAR, "?v1")
    structure = IntentStructure(
        (ANSWER_NODE, var, seed),
        (StructEdge(ANSWER_NODE, "code", var, (0, 4)), StructEdge(var, "code", seed, (5, 9))),
        {seed.name: MentionLink(10, 11, "A", seed.name, 1.0)},
        2,
    )
    sub = build_subgraph(kb, [seed.name], 2)
    paths = enumerate_and_rank(kb, sub, structure, Focus(), SimilarityLexicon({}), RankerConfig())
    assert [(p.answers, p.var_bindings) for p in paths] == [
        (frozenset({RES + "A"}), (("?v1", Literal("X1")),))
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        RankerConfig(tau=1.5)
    with pytest.raises(ValueError):
        RankerConfig(beam=0)
