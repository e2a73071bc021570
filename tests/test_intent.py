import pytest

from graphqa.entitylink import MentionLink, detect_mentions
from graphqa.intent import (
    ANSWER_NODE,
    MAX_TREE_DEPTH,
    AlignmentError,
    NoStructureError,
    TreeSyntaxError,
    align_to_question,
    extract_structure,
    find_interrogative,
    parse_bracketed,
)

RES = "http://dbpedia.org/resource/"

BERLIN_Q = "Who is the mayor of Berlin?"
BERLIN_TREE = "(SBARQ (WHNP (WP Who)) (SQ (VBZ is) (NP (NP (DT the) (NN mayor)) (PP (IN of) (NP (NNP Berlin))))) (. ?))"
# same question, rooted at SQ with the copula inside a VP
BERLIN_TREE_ALT = "(SQ (WP Who) (VP (VBZ is) (NP (NP (DT the) (NN mayor)) (PP (IN of) (NP (NNP Berlin))))))"

ORANGINA_Q = "Who produces Orangina?"
ORANGINA_TREE = "(SBARQ (WHNP (WP Who)) (SQ (VP (VBZ produces) (NP (NNP Orangina)))) (. ?))"

CLEESE_Q = "Which television shows were created by John Cleese?"
CLEESE_TREE = "(SBARQ (WHNP (WDT Which) (NN television) (NNS shows)) (SQ (VBD were) (VP (VBN created) (PP (IN by) (NP (NNP John) (NNP Cleese))))) (. ?))"

ALBERTA_Q = "When was Alberta admitted as province?"
ALBERTA_TREE = "(SBARQ (WHADVP (WRB When)) (SQ (VBD was) (NP (NNP Alberta)) (VP (VBN admitted) (PP (IN as) (NP (NN province))))) (. ?))"

PARENTS_Q = "Who are the parents of the wife of Juan Carlos I?"
PARENTS_TREE = "(SBARQ (WHNP (WP Who)) (SQ (VBP are) (NP (NP (DT the) (NNS parents)) (PP (IN of) (NP (NP (DT the) (NN wife)) (PP (IN of) (NP (NNP Juan) (NNP Carlos) (NNP I))))))) (. ?))"

PILLARS_Q = "Who wrote the book The Pillars of the Earth?"
PILLARS_TREE = "(SBARQ (WHNP (WP Who)) (SQ (VP (VBD wrote) (NP (NP (DT the) (NN book)) (NP (NP (DT The) (NNP Pillars)) (PP (IN of) (NP (DT the) (NNP Earth))))))) (. ?))"

MOVIES_Q = "Give me all movies starring Brad Pitt and directed by Guy Ritchie."
MOVIES_TREE = "(S (VP (VB Give) (NP (PRP me)) (NP (NP (DT all) (NNS movies)) (VP (VP (VBG starring) (NP (NNP Brad) (NNP Pitt))) (CC and) (VP (VBN directed) (PP (IN by) (NP (NNP Guy) (NNP Ritchie))))))) (. .))"


def understand(question, tree_text, gazetteer):
    mentions = detect_mentions(question, gazetteer)
    tree = align_to_question(parse_bracketed(tree_text), question)
    return extract_structure(tree, mentions)


def edge_triples(structure):
    return [(e.source.name, e.phrase, e.target.name) for e in structure.edges]


def test_parse_smallest_tree():
    tree = parse_bracketed("(NP (NN dog))")
    assert tree.label == "NP"
    leaf = tree.children[0]
    assert leaf.label == "NN" and leaf.token == "dog"
    assert (leaf.start, leaf.end) == (0, 3)


def test_parse_berlin_tree_shape():
    tree = parse_bracketed(BERLIN_TREE_ALT)
    assert tree.label == "SQ"
    assert len(tree.children) == 2
    assert tree.text() == "Who is the mayor of Berlin"


def test_parse_errors():
    with pytest.raises(TreeSyntaxError):
        parse_bracketed("(NP (NN")
    with pytest.raises(TreeSyntaxError):
        parse_bracketed("(NP)")
    with pytest.raises(TreeSyntaxError):
        parse_bracketed("(NP (NN dog)) trailing")
    with pytest.raises(TreeSyntaxError):
        parse_bracketed("(NP dog (NN cat))")
    with pytest.raises(TreeSyntaxError):
        parse_bracketed("(NP (NN dog cat))")


def test_parse_rejects_nesting_beyond_the_cap():
    depth = MAX_TREE_DEPTH + 1
    with pytest.raises(TreeSyntaxError, match="nested deeper"):
        parse_bracketed("(X " * (depth - 1) + "(NN dog)" + ")" * (depth - 1))


def test_align_recovers_question_offsets():
    tree = align_to_question(parse_bracketed(BERLIN_TREE), BERLIN_Q)
    leaves = list(tree.leaves())
    assert BERLIN_Q[leaves[-2].start : leaves[-2].end] == "Berlin"
    assert BERLIN_Q[leaves[-1].start : leaves[-1].end] == "?"


def test_align_rejects_missing_token():
    with pytest.raises(AlignmentError):
        align_to_question(parse_bracketed("(NP (NN dog))"), "no match here")


def test_pattern_bare_verb(gazetteer):
    structure = understand(ORANGINA_Q, ORANGINA_TREE, gazetteer)
    assert edge_triples(structure) == [("?answer", "produces", RES + "Orangina")]
    assert structure.k == 1


def test_pattern_verb_preposition(gazetteer):
    structure = understand(CLEESE_Q, CLEESE_TREE, gazetteer)
    assert edge_triples(structure) == [("?answer", "created by", RES + "John_Cleese")]


def test_pattern_noun_preposition(gazetteer):
    structure = understand(BERLIN_Q, BERLIN_TREE, gazetteer)
    assert edge_triples(structure) == [("?answer", "mayor of", RES + "Berlin")]
    assert structure.k == 1


def test_pattern_noun_preposition_alt_tree(gazetteer):
    structure = understand(BERLIN_Q, BERLIN_TREE_ALT, gazetteer)
    assert edge_triples(structure) == [("?answer", "mayor of", RES + "Berlin")]


def test_pattern_clause_with_trailing_vp(gazetteer):
    structure = understand(ALBERTA_Q, ALBERTA_TREE, gazetteer)
    assert edge_triples(structure) == [("?answer", "admitted as province", RES + "Alberta")]
    assert len(structure.edges) == 1


def test_two_hop_chain(gazetteer):
    structure = understand(PARENTS_Q, PARENTS_TREE, gazetteer)
    assert edge_triples(structure) == [
        ("?answer", "parents of", "?v1"),
        ("?v1", "wife of", RES + "Juan_Carlos_I"),
    ]
    assert structure.k == 2


def test_mention_skip_yields_single_edge(gazetteer):
    structure = understand(PILLARS_Q, PILLARS_TREE, gazetteer)
    assert edge_triples(structure) == [("?answer", "wrote", RES + "The_Pillars_of_the_Earth")]


def test_triangle_structure(gazetteer):
    structure = understand(MOVIES_Q, MOVIES_TREE, gazetteer)
    assert edge_triples(structure) == [
        ("?answer", "starring", RES + "Brad_Pitt"),
        ("?answer", "directed by", RES + "Guy_Ritchie"),
    ]
    assert structure.k == 1


def test_no_pattern_raises(gazetteer):
    mentions = detect_mentions("Berlin?", gazetteer)
    tree = align_to_question(parse_bracketed("(NP (NNP Berlin) (. ?))"), "Berlin?")
    with pytest.raises(NoStructureError):
        extract_structure(tree, mentions)


def test_three_edge_nesting_rejected(gazetteer):
    question = "Who are the parents of the wife of the mayor of Berlin?"
    tree_text = (
        "(SBARQ (WHNP (WP Who)) (SQ (VBP are) (NP (NP (DT the) (NNS parents)) "
        "(PP (IN of) (NP (NP (DT the) (NN wife)) (PP (IN of) (NP (NP (DT the) (NN mayor)) "
        "(PP (IN of) (NP (NNP Berlin))))))))) (. ?))"
    )
    mentions = detect_mentions(question, gazetteer)
    tree = align_to_question(parse_bracketed(tree_text), question)
    with pytest.raises(NoStructureError):
        extract_structure(tree, mentions)


def test_determinism(gazetteer):
    first = understand(MOVIES_Q, MOVIES_TREE, gazetteer)
    second = understand(MOVIES_Q, MOVIES_TREE, gazetteer)
    assert first == second


ALL_CASES = [
    (BERLIN_Q, BERLIN_TREE),
    (ORANGINA_Q, ORANGINA_TREE),
    (CLEESE_Q, CLEESE_TREE),
    (ALBERTA_Q, ALBERTA_TREE),
    (PARENTS_Q, PARENTS_TREE),
    (PILLARS_Q, PILLARS_TREE),
    (MOVIES_Q, MOVIES_TREE),
]


@pytest.mark.parametrize("question,tree_text", ALL_CASES)
def test_structure_invariants(question, tree_text, gazetteer):
    mentions = detect_mentions(question, gazetteer)
    structure = understand(question, tree_text, gazetteer)
    # exactly one answer node, at least one edge, bounded hop count
    assert sum(1 for n in structure.nodes if n.kind == "answer") == 1
    assert ANSWER_NODE in structure.nodes
    assert len(structure.edges) >= 1
    assert structure.k in (1, 2)
    # phrase spans never overlap mention spans
    for edge in structure.edges:
        span = edge.phrase_span
        for m in mentions:
            assert span[1] <= m.start or m.end <= span[0]
        assert not edge.empty_phrase
    # each seed is one node, bound to one mention
    seed_names = [n.name for n in structure.nodes if n.kind == "seed"]
    assert len(seed_names) == len(set(seed_names))
    for name in seed_names:
        assert name in structure.seeds


def test_interrogative_detection():
    leaves = list(parse_bracketed("(S (VB Give) (PRP me) (DT all) (NNS movies))").leaves())
    found = find_interrogative(leaves)
    assert found is not None
    start, end, words = found
    assert words == ("give", "me", "all")
    leaves = list(parse_bracketed("(S (NN rain))").leaves())
    assert find_interrogative(leaves) is None


def test_seed_mentions_recorded(gazetteer):
    structure = understand(MOVIES_Q, MOVIES_TREE, gazetteer)
    assert set(structure.seeds) == {RES + "Brad_Pitt", RES + "Guy_Ritchie"}
    assert structure.seeds[RES + "Brad_Pitt"].surface == "Brad Pitt"


def test_handmade_mentions_accepted():
    # extraction works from explicit mention links as well
    question = "Who produces Orangina?"
    tree = align_to_question(parse_bracketed(ORANGINA_TREE), question)
    mention = MentionLink(13, 21, "Orangina", RES + "Orangina", 0.9)
    structure = extract_structure(tree, [mention])
    assert edge_triples(structure) == [("?answer", "produces", RES + "Orangina")]
