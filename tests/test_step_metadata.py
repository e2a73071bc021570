"""Step metadata that the oracle comparison does not cover.

``tests.oracle.comparable`` keeps predicates, scores, answers and bindings
but drops each step's edge index, phrase and direction label, which are what
``explain`` prints.  This re-derives them from the oracle's own subgraph
over the criterion-5 random stores.
"""

import random

from graphqa.intent import ANSWER
from graphqa.kbstore import Direction
from graphqa.traversal import NoPathError, RankerConfig, build_subgraph, enumerate_and_rank
from tests.oracle import oracle_subgraph
from tests.test_acceptance import COARSE_MAP, _random_case


def _expected_direction(adjacency, anchor, predicate, nodes, respect_direction):
    directions = {
        d
        for pred, other, d in adjacency[anchor]
        if pred == predicate and other in nodes and (d is Direction.OUT or not respect_direction)
    }
    if len(directions) > 1:
        return "both"
    (only,) = directions
    return only.value


def test_step_index_phrase_and_direction_match_the_subgraph():
    rng = random.Random(20250810)
    labels_seen = set()
    steps_checked = 0
    for case in range(100):
        kb, lex, structure, focus, tau, respect = _random_case(rng)
        cfg = RankerConfig(tau=tau, beam=10**9, respect_direction=respect)
        sub = build_subgraph(kb, structure.seed_entities(), structure.k)
        try:
            paths = enumerate_and_rank(kb, sub, structure, focus, lex, cfg, COARSE_MAP)
        except NoPathError:
            continue
        _layers, adjacency = oracle_subgraph(kb, structure.seed_entities(), structure.k)
        for path in paths:
            assert [s.edge_index for s in path.steps] == list(range(len(structure.edges)))
            bindings = dict(path.var_bindings)
            for step, edge in zip(path.steps, structure.edges):
                assert step.phrase == edge.phrase, f"case {case}"
                anchor = bindings.get(edge.target.name, edge.target.name)
                if edge.source.kind == ANSWER:
                    nodes = path.answers
                else:
                    nodes = {bindings[edge.source.name]}
                expected = _expected_direction(adjacency, anchor, step.predicate, nodes, respect)
                assert step.direction == expected, f"case {case}"
                labels_seen.add(step.direction)
                steps_checked += 1
    assert labels_seen == {"out", "in", "both"}  # every label is exercised
    assert steps_checked >= 100
