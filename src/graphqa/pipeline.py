"""End-to-end orchestration: understand, traverse, rank, answer.

answer() is total: every question comes back either Answered with the top
path's answer set or Unprocessed with the stage that rejected it, so batch
evaluation can bucket failures by stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .entitylink import Gazetteer, MentionLink, detect_mentions
from .focus import Focus, extract_focus
from .intent import (
    AlignmentError,
    IntentStructure,
    NoStructureError,
    TreeSyntaxError,
    align_to_question,
    extract_structure,
    parse_bracketed,
)
from .kbstore import KnowledgeBase, Term, format_term
from .lexsim import SimilarityLexicon
from .traversal import (
    CandidatePath,
    NoPathError,
    RankerConfig,
    UnknownSeedError,
    build_subgraph,
    enumerate_and_rank,
)

STATUS_ANSWERED = "answered"
STATUS_UNPROCESSED = "unprocessed"

STAGE_LINKING = "entity_linking"
STAGE_STRUCTURE = "structure_extraction"
STAGE_TRAVERSAL = "graph_traversal"
STAGE_RANKING = "path_ranking"


@dataclass(frozen=True)
class QuestionInput:
    id: str
    question: str
    tree: str
    gold: frozenset[object] | None = None


@dataclass(frozen=True)
class PipelineConfig:
    link_threshold: float = 0.15
    ranker: RankerConfig = field(default_factory=RankerConfig)
    coarse_classes: dict[str, tuple[str, ...]] | None = None

    def __post_init__(self):
        if not 0.0 <= self.link_threshold <= 1.0:
            raise ValueError(f"link threshold must be within [0, 1], got {self.link_threshold}")


@dataclass
class AnswerTrace:
    question: QuestionInput
    mentions: list[MentionLink] = field(default_factory=list)
    structure: IntentStructure | None = None
    focus: Focus = field(default_factory=Focus)
    paths: list[CandidatePath] = field(default_factory=list)
    answers: frozenset[Term] = frozenset()
    status: str = STATUS_UNPROCESSED
    failed_stage: str | None = None
    failure_reason: str | None = None


def answer(
    kb: KnowledgeBase,
    gaz: Gazetteer,
    lex: SimilarityLexicon,
    cfg: PipelineConfig,
    q: QuestionInput,
) -> AnswerTrace:
    """Answer one question; never raises, failures land in the trace."""
    trace = AnswerTrace(question=q)

    if not q.question.strip():
        trace.failed_stage = STAGE_LINKING
        trace.failure_reason = "empty question"
        return trace

    trace.mentions = detect_mentions(q.question, gaz, cfg.link_threshold)
    if not trace.mentions:
        trace.failed_stage = STAGE_LINKING
        trace.failure_reason = "no mention linked to a resource"
        return trace

    try:
        tree = align_to_question(parse_bracketed(q.tree), q.question)
        trace.structure = extract_structure(tree, trace.mentions)
    except (TreeSyntaxError, AlignmentError, NoStructureError) as exc:
        trace.failed_stage = STAGE_STRUCTURE
        trace.failure_reason = str(exc)
        return trace

    trace.focus = extract_focus(q.question, tree)

    try:
        sub = build_subgraph(
            kb, trace.structure.seed_entities(), trace.structure.k,
            cfg.ranker.exclude_predicates,
        )
    except UnknownSeedError as exc:
        trace.failed_stage = STAGE_TRAVERSAL
        trace.failure_reason = str(exc)
        return trace

    try:
        trace.paths = enumerate_and_rank(
            kb, sub, trace.structure, trace.focus, lex, cfg.ranker, cfg.coarse_classes
        )
    except NoPathError as exc:
        trace.failed_stage = STAGE_RANKING
        trace.failure_reason = str(exc)
        return trace

    trace.answers = trace.paths[0].answers
    trace.status = STATUS_ANSWERED
    return trace


def format_structure(structure: IntentStructure, prefixes=None) -> list[str]:
    lines = []
    for edge in structure.edges:
        src = _node_text(edge.source, prefixes)
        dst = _node_text(edge.target, prefixes)
        lines.append(f"{src} --[{edge.phrase}]-- {dst}")
    lines.append(f"hops: {structure.k}")
    return lines


def _node_text(node, prefixes) -> str:
    if node.kind == "seed":
        return f"seed({format_term(node.name, prefixes)})"
    if node.kind == "answer":
        return "ANSWER"
    return node.name


def format_paths(paths: list[CandidatePath], prefixes=None) -> list[str]:
    lines = []
    for rank, path in enumerate(paths, start=1):
        lines.append(
            f"{rank}. total={path.total:.4f} "
            f"(predicates={path.predicate_mean:.4f} + type={path.type_score:.4f})"
        )
        for step in path.steps:
            lines.append(
                f"   step {step.edge_index + 1}: {format_term(step.predicate, prefixes)} "
                f"[{step.direction}] score={step.score:.4f} phrase={step.phrase!r}"
            )
        for name, node in path.var_bindings:
            lines.append(f"   {name} = {format_term(node, prefixes)}")
        answers = ", ".join(sorted(format_term(a, prefixes) for a in path.answers))
        lines.append(f"   answers: {answers}")
    return lines


def format_trace(trace: AnswerTrace, prefixes=None) -> str:
    """Render one structured text record per question for the explain view."""
    lines = [f"question: {trace.question.question}"]
    if trace.status == STATUS_ANSWERED:
        lines.append("status: answered")
    else:
        lines.append(f"status: unprocessed ({trace.failed_stage}: {trace.failure_reason})")
    for m in trace.mentions:
        lines.append(
            f"mention: {m.surface!r} [{m.start},{m.end}) -> "
            f"{format_term(m.entity, prefixes)} ({m.confidence:.2f})"
        )
    if trace.structure is not None:
        for line in format_structure(trace.structure, prefixes):
            lines.append(f"structure: {line}")
    if trace.focus.coarse_types:
        lines.append(f"focus: coarse={'|'.join(trace.focus.coarse_types)}")
    elif trace.focus.phrase:
        lines.append(f"focus: phrase={trace.focus.phrase!r} headword={trace.focus.headword!r}")
    else:
        lines.append("focus: none")
    if trace.paths:
        lines.append("paths:")
        lines.extend(format_paths(trace.paths, prefixes))
    if trace.answers:
        answers = ", ".join(sorted(format_term(a, prefixes) for a in trace.answers))
        lines.append(f"answers: {answers}")
    return "\n".join(lines)
