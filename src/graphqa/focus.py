"""Focus phrase extraction and answer-type compatibility scoring.

The focus is the question phrase that directly describes the answer.  It is
either derived from the interrogative itself (who / where / when map to
coarse types) or taken as the first run of noun-tagged tokens after the
interrogative part, whose last word is the headword used for type scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphQAError
from .intent import ParseTree, find_interrogative
from .kbstore import DATE_CLASS, KnowledgeBase, Term, read_json_object, term_text
from .lexsim import SimilarityLexicon, tokenize, word_similarity

FOAF_PERSON = "http://xmlns.com/foaf/0.1/Person"
DBO_PLACE = "http://dbpedia.org/ontology/Place"
DBO_ORGANISATION = "http://dbpedia.org/ontology/Organisation"

COARSE_PERSON = "Person"
COARSE_ORGANIZATION = "Organization"
COARSE_PLACE = "Place"
COARSE_DATE = "Date"

# "who" keeps both readings; a match on either one counts fully.
WH_COARSE: dict[str, tuple[str, ...]] = {
    "who": (COARSE_PERSON, COARSE_ORGANIZATION),
    "where": (COARSE_PLACE,),
    "when": (COARSE_DATE,),
}

DEFAULT_COARSE_CLASSES: dict[str, tuple[str, ...]] = {
    COARSE_PERSON: (FOAF_PERSON,),
    COARSE_ORGANIZATION: (DBO_ORGANISATION,),
    COARSE_PLACE: (DBO_PLACE,),
    COARSE_DATE: (DATE_CLASS,),
}


@dataclass(frozen=True)
class Focus:
    phrase: str = ""
    headword: str = ""
    coarse_types: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.phrase and not self.coarse_types


def load_coarse_classes(path: str) -> dict[str, tuple[str, ...]]:
    """Read a JSON override of the coarse-type to class-IRI map."""
    data = read_json_object(path, "type map")
    table = dict(DEFAULT_COARSE_CLASSES)
    for coarse, classes in data.items():
        if coarse not in DEFAULT_COARSE_CLASSES:
            raise GraphQAError(f"type map {path}: unknown coarse type {coarse!r}")
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise GraphQAError(f"type map {path}: classes of {coarse!r} must be a list of strings")
        table[coarse] = tuple(classes)
    return table


def extract_focus(question: str, tree: ParseTree) -> Focus:
    """Extract the focus from the question and its parse tree.

    who/where/when map straight to coarse answer types.  Other openers
    ("What", "Which", "Give me all", ...) take the first maximal run of
    NN-tagged leaves after the interrogative part as the focus phrase.
    """
    leaves = [l for l in tree.leaves()]
    inter = find_interrogative(leaves)
    if inter is None:
        return Focus()
    _, inter_end, words = inter
    if len(words) == 1 and words[0] in WH_COARSE:
        return Focus(coarse_types=WH_COARSE[words[0]])
    run: list[str] = []
    for leaf in leaves:
        if leaf.start < inter_end:
            continue
        if leaf.label.startswith("NN"):
            run.append(leaf.token)
        elif run:
            break
    if not run:
        return Focus()
    return Focus(phrase=" ".join(run), headword=run[-1])


def label_score(
    kb: KnowledgeBase, iri: str, words: list[str], lex: SimilarityLexicon
) -> float:
    """Best label of ``iri`` against ``words``, in [0, 1].

    Every word of a label takes its best similarity against ``words``; a
    label scores the mean of its word scores; ``iri`` scores its best label.
    No words score 0.
    """
    if not words:
        return 0.0
    best = 0.0
    for label in kb.labels_of(iri):
        label_words = tokenize(label)
        if not label_words:
            continue
        word_scores = [max(word_similarity(lex, w, tw) for tw in words) for w in label_words]
        best = max(best, sum(word_scores) / len(word_scores))
    return best


def type_score(
    kb: KnowledgeBase,
    answers: set[Term] | frozenset[Term],
    f: Focus,
    lex: SimilarityLexicon,
    coarse_classes: dict[str, tuple[str, ...]] | None = None,
) -> float:
    """Mean answer-type compatibility in [0, 1].

    With a coarse type the per-answer score is binary against the canonical
    classes; otherwise the headword is matched against the labels of each
    answer's declared types by ``label_score``, the scorer predicate ranking
    uses.  An empty focus scores 0.
    """
    if f.is_empty or not answers:
        return 0.0
    table = coarse_classes or DEFAULT_COARSE_CLASSES
    ordered = sorted(answers, key=term_text)
    scores: list[float] = []
    if f.coarse_types:
        wanted: set[str] = set()
        for coarse in f.coarse_types:
            wanted.update(table.get(coarse, ()))
        for answer in ordered:
            scores.append(1.0 if wanted.intersection(kb.types_of(answer)) else 0.0)
    else:
        words = [f.headword]
        for answer in ordered:
            best = 0.0
            for cls in kb.types_of(answer):
                best = max(best, label_score(kb, cls, words, lex))
            scores.append(best)
    return sum(scores) / len(scores)
