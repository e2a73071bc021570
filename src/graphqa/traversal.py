"""K-hop subgraph construction and joint candidate-path ranking.

Traversal roots a breadth-first neighborhood at the seed entities (merged
across seeds, literals are leaves), then binds the intent structure's edges
to predicates inside that neighborhood, from the last edge to the first, so
each edge starts at a seed or at an already-bound variable.  Each step keeps
the best `beam` predicates by label-vs-phrase similarity, bindings with any
step below the similarity threshold are dropped, and surviving bindings that
share the same predicates and intermediate nodes are grouped into one
candidate whose answer set is the whole group.  A candidate's total is the
mean of its step scores plus the answer-type score.

Traversal is deliberately blind to edge direction, which reproduces a known
failure mode (a reversed role binds just as well); `respect_direction`
restricts binding to edges leaving the frontier node, which repairs the
canonical two-hop case but is not a general role disambiguator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphQAError
from .focus import Focus, label_score, type_score
from .intent import ANSWER, VAR, IntentStructure
from .kbstore import Direction, KnowledgeBase, Literal, Term, term_text
# unused here; perfbench/tracing.py wraps word_similarity in this module too
from .lexsim import SimilarityLexicon, tokenize, word_similarity  # noqa: F401

DEFAULT_TAU = 0.3
DEFAULT_BEAM = 5


class UnknownSeedError(GraphQAError):
    def __init__(self, iri: str):
        self.iri = iri
        super().__init__(f"seed entity not present in the knowledge base: {iri}")


class NoPathError(GraphQAError):
    """No structure-conforming binding survived filtering."""


@dataclass(frozen=True)
class RankerConfig:
    tau: float = DEFAULT_TAU
    beam: int = DEFAULT_BEAM
    respect_direction: bool = False
    exclude_predicates: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be within [0, 1], got {self.tau}")
        if self.beam < 1:
            raise ValueError(f"beam must be >= 1, got {self.beam}")


@dataclass
class Subgraph:
    """Neighborhood of the seeds: node layers plus restricted adjacency."""

    layers: dict[Term, int]
    adjacency: dict[Term, tuple[tuple[str, Term, Direction], ...]]

    @property
    def nodes(self) -> set[Term]:
        return set(self.layers)


def build_subgraph(
    kb: KnowledgeBase,
    seeds: list[str],
    k: int,
    exclude_predicates: frozenset[str] = frozenset(),
) -> Subgraph:
    """Breadth-first undirected expansion to depth ``k`` from every seed.

    Layers record the minimum distance to the nearest seed; neighborhoods of
    multiple seeds are merged into one subgraph.  Literal nodes are included
    but never expanded.  A seed absent from the store raises UnknownSeedError.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    layers: dict[Term, int] = {}
    for seed in seeds:
        if seed not in kb:
            raise UnknownSeedError(seed)
        layers[seed] = 0
    frontier: list[Term] = list(dict.fromkeys(seeds))
    for depth in range(1, k + 1):
        nxt: list[Term] = []
        for node in frontier:
            if isinstance(node, Literal):
                continue
            for pred, other, _direction in kb.neighbors(node):
                if pred in exclude_predicates:
                    continue
                if other not in layers:
                    layers[other] = depth
                    nxt.append(other)
        frontier = nxt

    adjacency: dict[Term, tuple[tuple[str, Term, Direction], ...]] = {}
    for node in layers:
        edges = tuple(
            (pred, other, direction)
            for pred, other, direction in kb.neighbors(node)
            if other in layers and pred not in exclude_predicates
        )
        adjacency[node] = edges
    return Subgraph(layers, adjacency)


def predicate_score(
    kb: KnowledgeBase,
    predicate: str,
    phrase: str,
    lex: SimilarityLexicon,
    extra_phrase: str | None = None,
) -> float:
    """Label-vs-phrase similarity of one predicate, in [0, 1].

    The phrase words are scored against the predicate's labels by
    ``focus.label_score``.  When an extra phrase is supplied (the focus, for
    the step next to the answer) the better of the two phrase scores wins.
    A phrase with no content words scores 0; ``StructEdge.empty_phrase``
    records that case.
    """
    score = label_score(kb, predicate, tokenize(phrase), lex)
    if extra_phrase:
        score = max(score, label_score(kb, predicate, tokenize(extra_phrase), lex))
    return score


@dataclass(frozen=True)
class PathStep:
    edge_index: int
    phrase: str
    predicate: str
    direction: str  # "out", "in" or "both"
    score: float


@dataclass(frozen=True)
class CandidatePath:
    steps: tuple[PathStep, ...]
    var_bindings: tuple[tuple[str, Term], ...]
    answers: frozenset[Term]
    predicate_mean: float
    type_score: float
    total: float


def _path_sort_key(path: CandidatePath):
    return (
        -path.total,
        tuple(step.predicate for step in path.steps),
        tuple(sorted(term_text(a) for a in path.answers)),
        tuple((name, term_text(node)) for name, node in path.var_bindings),
    )


def _direction_label(directions: set[Direction]) -> str:
    if len(directions) > 1:
        return "both"
    return next(iter(directions)).value


_Targets = dict[Term, set[Direction]]


class _Ranker:
    def __init__(self, kb, sub, structure, f, lex, cfg, coarse_classes=None):
        self.kb = kb
        self.sub = sub
        self.structure = structure
        self.focus = f
        self.lex = lex
        self.cfg = cfg
        self.coarse_classes = coarse_classes
        self.extra = f.phrase or None
        self.memo: dict[tuple[int, Term], list[tuple[str, float, _Targets]]] = {}

    def admissible_edges(self, node: Term) -> list[tuple[str, Term, Direction]]:
        edges = self.sub.adjacency.get(node, ())
        if self.cfg.respect_direction:
            return [e for e in edges if e[2] is Direction.OUT]
        return list(edges)

    def candidates(self, i: int, anchor: Term) -> list[tuple[str, float, _Targets]]:
        """Distinct predicates around ``anchor`` scored against edge ``i``'s
        phrase, beam-limited then threshold-filtered, each with its targets.
        Memoized per (edge, anchor) for the ranking run."""
        key = (i, anchor)
        if key not in self.memo:
            edge = self.structure.edges[i]
            extra = self.extra if edge.source.kind == ANSWER else None
            preds = sorted({pred for pred, _other, _d in self.admissible_edges(anchor)})
            scored = [
                (pred, predicate_score(self.kb, pred, edge.phrase, self.lex, extra))
                for pred in preds
            ]
            scored.sort(key=lambda ps: (-ps[1], ps[0]))
            self.memo[key] = [
                (pred, s, self.targets(anchor, pred))
                for pred, s in scored[: self.cfg.beam]
                if s >= self.cfg.tau
            ]
        return self.memo[key]

    def targets(self, node: Term, predicate: str) -> _Targets:
        out: _Targets = {}
        for pred, other, direction in self.admissible_edges(node):
            if pred == predicate:
                out.setdefault(other, set()).add(direction)
        return out

    def rank(self) -> list[CandidatePath]:
        paths: list[CandidatePath] = []
        self.bind(len(self.structure.edges) - 1, {}, (), paths)
        paths.sort(key=_path_sort_key)
        if not paths:
            raise NoPathError("no candidate path matches the structure")
        return paths

    def bind(self, i: int, env: dict[str, Term], picks: tuple, paths: list) -> None:
        """Bind edges ``i`` down to 0.  Each edge starts from its target, a
        seed or a variable that ``env`` binds already; ``picks`` holds the
        (predicate, score, targets) of edges ``i + 1`` onwards."""
        if i < 0:
            self.emit(env, picks, paths)
            return
        edge = self.structure.edges[i]
        anchor = env[edge.target.name] if edge.target.kind == VAR else edge.target.name
        for pred, score, bound in self.candidates(i, anchor):
            if edge.source.kind == ANSWER:
                self.bind(i - 1, env, ((pred, score, bound),) + picks, paths)
                continue
            for node in sorted(bound, key=term_text):
                pick = (pred, score, {node: bound[node]})
                self.bind(i - 1, {**env, edge.source.name: node}, (pick,) + picks, paths)

    def emit(self, env: dict[str, Term], picks: tuple, paths: list) -> None:
        edges = self.structure.edges
        answers = frozenset.intersection(*(
            frozenset(bound) for edge, (_p, _s, bound) in zip(edges, picks)
            if edge.source.kind == ANSWER
        ))
        if not answers:
            return
        steps = []
        for i, (edge, (pred, score, bound)) in enumerate(zip(edges, picks)):
            # answer steps take the directions to the answers, a variable step to its node
            nodes = answers if edge.source.kind == ANSWER else bound
            directions = set().union(*(bound[n] for n in nodes))
            steps.append(PathStep(i, edge.phrase, pred, _direction_label(directions), score))
        mean = sum(step.score for step in steps) / len(steps)
        ts = type_score(self.kb, answers, self.focus, self.lex, self.coarse_classes)
        paths.append(CandidatePath(tuple(steps), tuple(env.items()), answers, mean, ts, mean + ts))


def enumerate_and_rank(
    kb: KnowledgeBase,
    sub: Subgraph,
    structure: IntentStructure,
    f: Focus,
    lex: SimilarityLexicon,
    cfg: RankerConfig,
    coarse_classes: dict[str, tuple[str, ...]] | None = None,
) -> list[CandidatePath]:
    """Bind the structure's edges inside the subgraph and rank the results.

    Output is sorted by total descending, ties broken by predicate IRIs then
    answer terms, and is therefore byte-stable across runs.  Raises
    NoPathError when nothing survives.
    """
    return _Ranker(kb, sub, structure, f, lex, cfg, coarse_classes).rank()
