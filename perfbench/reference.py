"""Expected answers for generated questions, derived without the program.

This re-derives the paper's ranking rules on the generator's own adjacency:
a direction-blind k-hop neighbourhood, per-step predicate scores from
label-vs-phrase word similarity, a beam then a threshold per step, answer
grouping, the answer-type score, and the ordering with its tie-breaks.  Only
the word-level primitives (``tokenize`` and ``word_similarity`` from
``graphqa.lexsim``) are shared with the program, because both sides must
agree on them by definition.

Defaults match ``graphqa.traversal``: tau 0.3, beam 5, direction ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from graphqa.lexsim import load_lexicon, tokenize, word_similarity

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
DATE = XSD + "date"
INTEGER = XSD + "integer"
DOUBLE = XSD + "double"

TAU = 0.3
BEAM = 5

COARSE = {
    "Person": ("http://xmlns.com/foaf/0.1/Person",),
    "Organization": ("http://dbpedia.org/ontology/Organisation",),
    "Place": ("http://dbpedia.org/ontology/Place",),
    "Date": ("builtin:Date",),
}
_DATE_TYPES = {XSD + n for n in ("date", "dateTime", "time", "gYear", "gYearMonth")}
_NUMBER_TYPES = {XSD + n for n in ("integer", "decimal", "double", "float", "int", "long")}


@dataclass(frozen=True)
class Lit:
    """A literal as the generator writes it."""

    lexical: str
    datatype: str = XSD_STRING
    lang: str = ""


def term_text(term) -> str:
    """N-Triples rendering of an IRI string or any literal-like object.

    Works on the program's literal class too (same three attributes), so
    answers are compared as text, never as the program's objects.
    """
    if isinstance(term, str):
        return f"<{term}>"
    body = '"' + term.lexical.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if term.lang:
        return f"{body}@{term.lang}"
    if term.datatype and term.datatype != XSD_STRING:
        return f"{body}^^<{term.datatype}>"
    return body


def _fallback_label(iri: str) -> str:
    frag = iri
    if "#" in frag:
        frag = frag.rsplit("#", 1)[-1]
    elif "/" in frag:
        frag = frag.rstrip("/").rsplit("/", 1)[-1]
    if ":" in frag:
        frag = frag.rsplit(":", 1)[-1]
    frag = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", (frag or iri).replace("_", " "))
    return re.sub(r"\s+", " ", frag).strip().lower()


class Reference:
    def __init__(self, store, lexicon_text: str):
        self.store = store
        self.lex = load_lexicon(lexicon_text)

    # -- store views ----------------------------------------------------------

    def labels_of(self, x: str) -> list[str]:
        explicit = self.store.labels.get(x)
        return sorted(explicit) if explicit else [_fallback_label(x)]

    def types_of(self, x) -> list[str]:
        if isinstance(x, Lit):
            if x.datatype in _DATE_TYPES:
                return ["builtin:Date"]
            if x.datatype in _NUMBER_TYPES:
                return ["builtin:Number"]
            return ["builtin:String"]
        return sorted(self.store.types.get(x, ()))

    def ball(self, seeds, k: int) -> set:
        layer = set(seeds)
        frontier = list(dict.fromkeys(seeds))
        for _ in range(k):
            nxt = []
            for node in frontier:
                if isinstance(node, Lit):
                    continue
                for _p, other, _d in self.store.adj.get(node, ()):
                    if other not in layer:
                        layer.add(other)
                        nxt.append(other)
            frontier = nxt
        return layer

    # -- scores ---------------------------------------------------------------

    def phrase_score(self, pred: str, phrase: str) -> float:
        phrase_words = tokenize(phrase)
        if not phrase_words:
            return 0.0
        best = 0.0
        for label in self.labels_of(pred):
            label_words = tokenize(label)
            if not label_words:
                continue
            word_scores = [
                max(word_similarity(self.lex, w, tw) for tw in phrase_words) for w in label_words
            ]
            best = max(best, sum(word_scores) / len(word_scores))
        return best

    def pred_score(self, pred: str, phrase: str, extra: str | None) -> float:
        score = self.phrase_score(pred, phrase)
        if extra:
            score = max(score, self.phrase_score(pred, extra))
        return score

    def type_score(self, answers, focus) -> float:
        phrase, headword, coarse = focus
        if (not phrase and not coarse) or not answers:
            return 0.0
        scores = []
        for answer in sorted(answers, key=term_text):
            if coarse:
                wanted = {c for name in coarse for c in COARSE.get(name, ())}
                scores.append(1.0 if wanted.intersection(self.types_of(answer)) else 0.0)
                continue
            best = 0.0
            for cls in self.types_of(answer):
                label_best = 0.0
                for label in self.labels_of(cls):
                    words = tokenize(label)
                    if not words:
                        continue
                    per_word = [word_similarity(self.lex, w, headword) for w in words]
                    label_best = max(label_best, sum(per_word) / len(per_word))
                best = max(best, label_best)
            scores.append(best)
        return sum(scores) / len(scores)

    # -- binding --------------------------------------------------------------

    def edges(self, node, inside: set | None):
        found = self.store.adj.get(node, ())
        if inside is None:
            return found
        return [e for e in found if e[1] in inside]

    def candidates(self, node, phrase, extra, inside=None):
        preds = sorted({p for p, _o, _d in self.edges(node, inside)})
        scored = [(p, self.pred_score(p, phrase, extra)) for p in preds]
        scored.sort(key=lambda ps: (-ps[1], ps[0]))
        return [(p, s) for p, s in scored[:BEAM] if s >= TAU]

    def targets(self, node, pred, inside=None) -> set:
        return {o for p, o, _d in self.edges(node, inside) if p == pred}

    def rank(self, spec) -> list[tuple]:
        focus = spec["focus"]
        extra = focus[0] or None
        kind = spec["kind"]
        paths = []
        if kind == "single":
            seed = spec["seeds"][0]
            for pred, score in self.candidates(seed, spec["phrase"], extra):
                answers = self.targets(seed, pred)
                if answers:
                    ts = self.type_score(answers, focus)
                    paths.append((score + ts, (pred,), answers, ()))
        elif kind == "triangle":
            (seed_a, seed_b), (phrase_a, phrase_b) = spec["seeds"], spec["phrases"]
            cands_b = self.candidates(seed_b, phrase_b, extra)
            for pred_a, score_a in self.candidates(seed_a, phrase_a, extra):
                bound_a = self.targets(seed_a, pred_a)
                for pred_b, score_b in cands_b:
                    common = bound_a & self.targets(seed_b, pred_b)
                    if common:
                        mean = (score_a + score_b) / 2
                        ts = self.type_score(common, focus)
                        paths.append((mean + ts, (pred_a, pred_b), common, ()))
        elif kind == "chain":
            seed = spec["seeds"][0]
            phrase_a, phrase_s = spec["phrases"]
            inside = None  # computed once a literal intermediate needs it
            for pred_s, score_s in self.candidates(seed, phrase_s, None):
                for var in sorted(self.targets(seed, pred_s), key=term_text):
                    # Literals are never expanded, so their edges are cut to
                    # the neighbourhood; every other intermediate sits at
                    # depth 1 and keeps all its edges.
                    restrict = None
                    if isinstance(var, Lit):
                        if inside is None:
                            inside = self.ball([seed], 2)
                        restrict = inside
                    for pred_a, score_a in self.candidates(var, phrase_a, extra, restrict):
                        answers = self.targets(var, pred_a, restrict)
                        if answers:
                            mean = (score_a + score_s) / 2
                            ts = self.type_score(answers, focus)
                            paths.append((mean + ts, (pred_a, pred_s), answers, (("?v1", var),)))
        else:
            raise ValueError(f"unknown question kind {kind!r}")
        paths.sort(
            key=lambda p: (
                -p[0],
                p[1],
                tuple(sorted(term_text(a) for a in p[2])),
                tuple((name, term_text(node)) for name, node in p[3]),
            )
        )
        return paths

    def expected(self, spec) -> tuple[str, str | None, list[str]]:
        """(status, failed stage, sorted answer texts) for one question."""
        if spec["kind"] == "reject":
            return "unprocessed", spec["stage"], []
        paths = self.rank(spec)
        if not paths:
            return "unprocessed", "path_ranking", []
        return "answered", None, sorted(term_text(a) for a in paths[0][2])
