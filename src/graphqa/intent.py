"""Topological intent extraction from constituent trees.

A bracketed parse tree plus the linked mentions are reduced to a small graph
of nodes (seed entities, intermediate variables, one answer wildcard) whose
edges carry the relation phrase text.  Four patterns drive the extraction:

    1. VB-or-VP  -> VB + NP      relation is the verb token
    2. VP        -> VB + PP      relation is verb plus preposition
    3. NP        -> NP + PP      relation is the head nouns plus preposition
    4. SQ        -> VB + NP + VP relation is the trailing verb phrase text

Matching is top-down and stops at the outermost match of each region; the
explicit argument constituent resolves to a seed (when covered by or
covering a mention), or to a fresh variable when a nested pattern chains
through it.  Subtrees lying inside a detected mention are never matched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .entitylink import MentionLink
from .errors import GraphQAError
from .lexsim import tokenize


class TreeSyntaxError(GraphQAError):
    """Malformed bracketed tree; carries the character position."""

    def __init__(self, position: int, reason: str):
        self.position = position
        super().__init__(f"tree syntax error at char {position}: {reason}")


class NoStructureError(GraphQAError):
    """No topological pattern matched, the question cannot be processed."""


class AlignmentError(GraphQAError):
    """Tree tokens could not be located inside the question text."""


@dataclass(frozen=True)
class ParseTree:
    """Constituent tree node; leaves carry a token and a character span."""

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None
    start: int = 0
    end: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def leaves(self) -> Iterator["ParseTree"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def text(self) -> str:
        return " ".join(leaf.token for leaf in self.leaves())


# A bracket, a run of other non-space characters, or the end of the text.
_TREE_TOKEN_RE = re.compile(r"[()]|[^()\s]+|\Z")

# Deepest constituent nesting parse_bracketed accepts.  Parser output for a
# question is about ten levels deep; the tree walks here are recursive, so
# a far deeper tree is rejected before it can exhaust the interpreter stack.
MAX_TREE_DEPTH = 200


def parse_bracketed(text: str) -> ParseTree:
    """Parse a Penn-style bracketed tree.

    The text is split into brackets and atoms by one pattern pass, then read
    by recursive descent; an error names the character position of the token
    it stops at.  Leaf spans come from joining the leaf tokens with single
    spaces; align_to_question re-anchors them on the original question.
    """
    offset = 0

    # ``tokens`` is an argument, not a closure variable: the recursive closure
    # is a reference cycle, and it should not keep the scanner alive.
    def read_node(tokens: Iterator[re.Match], depth: int, pos: int) -> ParseTree:
        """The constituent whose '(', at ``pos``, was the last token read."""
        nonlocal offset
        if depth > MAX_TREE_DEPTH:
            raise TreeSyntaxError(pos, f"tree nested deeper than {MAX_TREE_DEPTH} levels")
        m = next(tokens)
        label = m.group()
        if label in ("(", ")", ""):
            raise TreeSyntaxError(m.start(), "expected a label or token")
        children: list[ParseTree] = []
        token: str | None = None
        while True:
            m = next(tokens)
            tok, pos = m.group(), m.start()
            if tok == ")":
                break
            if not tok:
                raise TreeSyntaxError(pos, "unbalanced brackets")
            if token is not None or (children and tok != "("):
                raise TreeSyntaxError(pos, "mixed token and constituent content")
            if tok == "(":
                children.append(read_node(tokens, depth + 1, pos))
            else:
                token = tok
        if token is not None:
            start = offset
            offset += len(token) + 1  # the token and one joining space
            return ParseTree(label, (), token, start, start + len(token))
        if not children:
            raise TreeSyntaxError(pos + 1, f"empty constituent ({label})")  # past its ')'
        return ParseTree(label, tuple(children), None, children[0].start, children[-1].end)

    tokens = _TREE_TOKEN_RE.finditer(text)
    m = next(tokens)
    if m.group() != "(":
        raise TreeSyntaxError(m.start(), "expected '('")
    root = read_node(tokens, 1, m.start())
    m = next(tokens)  # the end of the text never ends a constituent, so it is still to come
    if m.group():
        raise TreeSyntaxError(m.start(), "trailing content after tree")
    return root


def align_to_question(tree: ParseTree, question: str) -> ParseTree:
    """Rebuild the tree with leaf spans anchored in the question string.

    One walk rebuilds the tree and locates each leaf token left to right as
    it reaches it; alphanumeric tokens must match on word boundaries.  Raises
    AlignmentError for the first token that cannot be found.
    """
    cursor = 0

    def rebuild(node: ParseTree) -> ParseTree:
        nonlocal cursor
        if node.is_leaf:
            token = node.token
            if re.fullmatch(r"\w+", token):
                match = re.compile(rf"\b{re.escape(token)}\b").search(question, cursor)
                found = match.start() if match else -1
            else:
                found = question.find(token, cursor)
            if found < 0:
                raise AlignmentError(f"token {token!r} not found in question after offset {cursor}")
            cursor = found + len(token)
            return ParseTree(node.label, (), token, found, cursor)
        kids = tuple(rebuild(c) for c in node.children)
        return ParseTree(node.label, kids, None, kids[0].start, kids[-1].end)

    return rebuild(tree)


ANSWER = "answer"
SEED = "seed"
VAR = "var"

ANSWER_NODE_NAME = "?answer"


@dataclass(frozen=True)
class StructNode:
    kind: str
    name: str


ANSWER_NODE = StructNode(ANSWER, ANSWER_NODE_NAME)


@dataclass(frozen=True)
class StructEdge:
    source: StructNode
    phrase: str
    target: StructNode
    phrase_span: tuple[int, int]
    empty_phrase: bool = False


@dataclass(frozen=True)
class IntentStructure:
    nodes: tuple[StructNode, ...]
    edges: tuple[StructEdge, ...]
    seeds: Mapping[str, MentionLink]  # node name -> mention it came from
    k: int

    def seed_entities(self) -> list[str]:
        ordered: list[str] = []
        for node in self.nodes:
            if node.kind == SEED and node.name not in ordered:
                ordered.append(node.name)
        return ordered


# Interrogative openers, longest first; used both to anchor the focus and to
# keep pattern matching away from prefixes like "Give me all".
INTERROGATIVE_PREFIXES: tuple[tuple[str, ...], ...] = (
    ("give", "me", "all"),
    ("give", "me"),
    ("show", "me", "all"),
    ("show", "me"),
    ("list", "all"),
    ("list",),
    ("how", "many"),
    ("how", "much"),
    ("what",),
    ("which",),
    ("whose",),
    ("whom",),
    ("who",),
    ("where",),
    ("when",),
    ("how",),
)


def find_interrogative(leaves: Sequence[ParseTree]) -> tuple[int, int, tuple[str, ...]] | None:
    """Locate the interrogative opener among the leading leaf tokens.

    Returns (start, end, words) in leaf-span coordinates, or None.
    """
    words = [leaf.token.casefold() for leaf in leaves]
    for prefix in INTERROGATIVE_PREFIXES:
        if tuple(words[: len(prefix)]) == prefix:
            return leaves[0].start, leaves[len(prefix) - 1].end, prefix
    return None


_VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})
_PREP_TAGS = frozenset({"IN", "TO"})
_COPULAS = frozenset({"am", "is", "are", "was", "were", "be", "been", "being", "do", "does", "did"})


def _is_punct(node: ParseTree) -> bool:
    return node.is_leaf and not re.search(r"[A-Za-z0-9]", node.label)


def _content_children(node: ParseTree) -> list[ParseTree]:
    return [c for c in node.children if not _is_punct(c)]


def _split_pp(pp: ParseTree) -> tuple[ParseTree, ParseTree] | None:
    kids = _content_children(pp)
    if len(kids) == 2 and kids[0].label in _PREP_TAGS and kids[0].is_leaf and kids[1].label == "NP":
        return kids[0], kids[1]
    return None


def _noun_leaves(node: ParseTree) -> list[ParseTree]:
    return [leaf for leaf in node.leaves() if leaf.label.startswith("NN")]


@dataclass(frozen=True)
class _Match:
    phrase_leaves: tuple[ParseTree, ...]
    argument: ParseTree


def _match_pattern(node: ParseTree) -> _Match | None:
    if node.is_leaf:
        return None
    kids = _content_children(node)

    # SQ -> VB + NP + VP: the whole verb phrase is the relation text.
    if node.label == "SQ" and len(kids) == 3:
        vb, np, vp = kids
        if vb.is_leaf and vb.label in _VERB_TAGS and np.label == "NP" and vp.label == "VP":
            phrase = tuple(l for l in vp.leaves() if not _is_punct(l))
            if phrase:
                return _Match(phrase, np)

    # VP -> VB + PP: verb plus preposition ("created by").
    if node.label == "VP" and len(kids) == 2:
        vb, pp = kids
        if (
            vb.is_leaf
            and vb.label in _VERB_TAGS
            and vb.token.casefold() not in _COPULAS
            and pp.label == "PP"
        ):
            split = _split_pp(pp)
            if split:
                prep, arg = split
                return _Match((vb, prep), arg)

    # VB-or-VP parent with VB + NP children: bare verb relation ("produces").
    if node.label == "VP" or node.label in _VERB_TAGS:
        if len(kids) == 2:
            vb, np = kids
            if (
                vb.is_leaf
                and vb.label in _VERB_TAGS
                and vb.token.casefold() not in _COPULAS
                and np.label == "NP"
            ):
                return _Match((vb,), np)

    # NP -> NP + PP: head nouns plus preposition ("mayor of").
    if node.label == "NP" and len(kids) == 2:
        left, pp = kids
        if left.label == "NP" and pp.label == "PP":
            split = _split_pp(pp)
            if split:
                prep, arg = split
                nouns = _noun_leaves(left)
                if nouns:
                    return _Match(tuple(nouns) + (prep,), arg)
    return None


def _covers(outer: tuple[int, int], inner: tuple[int, int]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def extract_structure(tree: ParseTree, mentions: Sequence[MentionLink]) -> IntentStructure:
    """Derive the question's intent structure from an aligned parse tree.

    Mention spans must be in the same coordinate system as the tree spans
    (see align_to_question).  Raises NoStructureError when nothing matches
    or when the emitted shape is not a single edge, a two-edge chain or a
    two-edge triangle.
    """
    mention_spans = {(m.start, m.end): m for m in mentions}
    leaves = list(tree.leaves())
    if not leaves:
        raise NoStructureError("empty tree")
    inter = find_interrogative(leaves)
    inter_span = (inter[0], inter[1]) if inter else None

    def inside_mention(span: tuple[int, int]) -> bool:
        return any(_covers(ms, span) for ms in mention_spans)

    def phrase_ok(match: _Match) -> bool:
        span = (match.phrase_leaves[0].start, match.phrase_leaves[-1].end)
        if inter_span and _covers(inter_span, span):
            return False
        return not any(_overlaps((l.start, l.end), ms) for l in match.phrase_leaves for ms in mention_spans)

    def matches_under(node: ParseTree, acc: list[_Match]) -> None:
        if node.is_leaf or inside_mention((node.start, node.end)):
            return
        match = _match_pattern(node)
        if match is not None and phrase_ok(match):
            acc.append(match)
            return
        for child in node.children:
            matches_under(child, acc)

    edges: list[StructEdge] = []
    seeds: dict[str, MentionLink] = {}
    var_count = 0

    def seed_for(mention: MentionLink) -> StructNode:
        seeds.setdefault(mention.entity, mention)
        return StructNode(SEED, mention.entity)

    def resolve(argument: ParseTree) -> StructNode | None:
        nonlocal var_count
        arg_span = (argument.start, argument.end)
        for span, mention in mention_spans.items():
            if _covers(span, arg_span):
                return seed_for(mention)
        inner: list[_Match] = []
        matches_under(argument, inner)
        if inner:
            var_count += 1
            var = StructNode(VAR, f"?v{var_count}")
            for match in inner:
                emit(var, match)
            return var
        contained = [m for m in mentions if _covers(arg_span, (m.start, m.end))]
        if contained:
            # e.g. "the book <title>": the mention is the semantic head.
            return seed_for(max(contained, key=lambda m: m.start))
        return None

    def emit(source: StructNode, match: _Match) -> None:
        target = resolve(match.argument)
        if target is None:
            return
        phrase = " ".join(l.token for l in match.phrase_leaves)
        span = (match.phrase_leaves[0].start, match.phrase_leaves[-1].end)
        edges.append(StructEdge(source, phrase, target, span, empty_phrase=not tokenize(phrase)))

    top: list[_Match] = []
    matches_under(tree, top)
    for match in top:
        emit(ANSWER_NODE, match)

    if not edges:
        raise NoStructureError("no topological pattern matched")

    edges_final = _order_and_validate(edges)
    k = 2 if edges_final[-1].source.kind == VAR else 1  # a chain, else one hop
    nodes: list[StructNode] = [ANSWER_NODE]
    for edge in edges_final:
        for node in (edge.source, edge.target):
            if node not in nodes:
                nodes.append(node)
    return IntentStructure(tuple(nodes), tuple(edges_final), dict(seeds), k)


def _order_and_validate(edges: list[StructEdge]) -> list[StructEdge]:
    if len(edges) > 2:
        raise NoStructureError(f"unsupported structure with {len(edges)} edges")
    if len(edges) == 1:
        edge = edges[0]
        if edge.source != ANSWER_NODE or edge.target.kind != SEED:
            raise NoStructureError("single edge must connect the answer node to a seed")
        return edges
    first, second = edges
    if first.source == ANSWER_NODE and second.source == ANSWER_NODE:
        if first.target.kind == SEED and second.target.kind == SEED:
            return edges  # triangle, document order
        raise NoStructureError("triangle arms must end in seeds")
    # chain: answer -> var -> seed; inner edges were emitted first
    by_source = {e.source.kind: e for e in edges}
    outer = by_source.get(ANSWER)
    inner = by_source.get(VAR)
    if (
        outer is not None
        and inner is not None
        and outer.target.kind == VAR
        and outer.target == inner.source
        and inner.target.kind == SEED
    ):
        return [outer, inner]
    raise NoStructureError("unsupported two-edge structure")

