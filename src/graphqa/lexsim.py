"""Word-level semantic similarity backed by a pluggable lexicon file.

The external similarity web service this replaces is not reproducible, so
scores come from three deterministic tiers instead: exact case-folded
equality (1.0), a lexicon of scored word pairs, and a suffix-stripping stem
comparison (fixed 0.8).  Everything else scores 0.0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Mapping, Union

from .kbstore import LineError, collector_paused, load_file, read_rows

STEM_MATCH_SCORE = 0.8

_ARTICLES = {"a", "an", "the"}
_COPULAS = {"am", "is", "are", "was", "were", "be", "been", "being"}
_PREPOSITIONS = {
    "of", "in", "on", "at", "by", "to", "for", "with", "from", "as",
    "into", "onto", "about", "after", "before", "between", "through",
    "during", "over", "under", "off", "up", "down", "near", "within",
}
STOP_WORDS = frozenset(_ARTICLES | _COPULAS | _PREPOSITIONS)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class LexiconError(LineError):
    """Raised for malformed lexicon files (bad columns or out-of-range scores)."""


def tokenize(text: str) -> list[str]:
    """Case-folded alphanumeric tokens with stop words removed, order kept."""
    return [t for t in _TOKEN_RE.findall(text.casefold()) if t not in STOP_WORDS]


def stem(word: str) -> str:
    """Deterministic suffix stripper; coarse on purpose, but stable."""
    w = word.casefold()
    if len(w) > 4 and w.endswith("sses"):
        w = w[:-2]
    elif len(w) > 4 and w.endswith("ies"):
        w = w[:-3] + "i"
    elif len(w) > 3 and w.endswith("s") and not w.endswith("ss"):
        w = w[:-1]
    if len(w) > 4 and w.endswith("ing"):
        w = w[:-3]
    elif len(w) > 4 and w.endswith("ed"):
        w = w[:-2]
    if len(w) > 3 and w.endswith("e"):
        w = w[:-1]
    return w


def _pair_key(w1: str, w2: str) -> tuple[str, str]:
    a, b = sorted((w1.casefold(), w2.casefold()))
    return a, b


@dataclass(frozen=True)
class SimilarityLexicon:
    """Unordered word-pair scores; keys are case-folded and symmetric."""

    pairs: Mapping[tuple[str, str], float]


def word_similarity(lex: SimilarityLexicon, w1: str, w2: str) -> float:
    """Similarity in [0, 1]; symmetric by construction.

    Tier order: identity, lexicon pair, equal stems, then 0.0.
    """
    a = w1.casefold().strip()
    b = w2.casefold().strip()
    if not a or not b:
        raise ValueError("word_similarity requires non-empty words")
    if a == b:
        return 1.0
    hit = lex.pairs.get(_pair_key(a, b))
    if hit is not None:
        return hit
    if stem(a) == stem(b):
        return STEM_MATCH_SCORE
    return 0.0


@collector_paused()
def load_lexicon(source: Union[str, bytes, IO]) -> SimilarityLexicon:
    """Parse a TSV lexicon, ``word1 TAB word2 TAB score``, from text, UTF-8
    bytes or a stream; raises LexiconError on the first bad line.  A
    text-mode stream decodes itself, so pass bytes or a binary stream to get
    the line of a byte that is not UTF-8 rather than a bare UnicodeDecodeError."""
    pairs: dict[tuple[str, str], float] = {}
    for lineno, line, (w1, w2, raw) in read_rows(source, 3, LexiconError):
        if not w1 or not w2:
            raise LexiconError(lineno, line, "empty word")
        try:
            score = float(raw)
        except ValueError as exc:
            raise LexiconError(lineno, line, f"bad score {raw!r}") from exc
        if not 0.0 <= score <= 1.0:
            raise LexiconError(lineno, line, f"score {score} outside [0, 1]")
        pairs[_pair_key(w1, w2)] = score
    return SimilarityLexicon(pairs)


def load_lexicon_file(path: str) -> SimilarityLexicon:
    return load_file(load_lexicon, path)
