"""Mention detection and linking against a file-driven gazetteer.

The gazetteer stands in for an external linking service: each surface form
carries candidate entities with prior confidences.  Detection is greedy
longest-match over non-overlapping token spans, scanned left to right.
Class and category candidates never produce links, and span segmentation is
computed independently of the confidence threshold so that raising the
threshold can only remove links, never add them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import IO, Mapping, Union

from .kbstore import LineError, collector_paused, load_file, read_rows

DEFAULT_LINK_THRESHOLD = 0.15

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


class GazetteerError(LineError):
    """Raised for malformed gazetteer files."""


class EntityKind(str, Enum):
    RESOURCE = "Resource"
    CLASS = "Class"
    CATEGORY = "Category"


@dataclass(frozen=True)
class GazetteerEntry:
    entity: str
    prior: float
    kind: EntityKind


@dataclass(frozen=True)
class Gazetteer:
    """Surface form (normalized) to candidate entries, best prior first."""

    entries: Mapping[str, tuple[GazetteerEntry, ...]]
    max_words: int


@dataclass(frozen=True)
class MentionLink:
    start: int
    end: int
    surface: str
    entity: str
    confidence: float


def normalize_surface(text: str) -> str:
    return " ".join(_WORD_RE.findall(text.casefold()))


@collector_paused()
def load_gazetteer(source: Union[str, bytes, IO]) -> Gazetteer:
    """Parse a TSV gazetteer, ``surface TAB iri TAB prior TAB kind``, from text,
    UTF-8 bytes or a stream; raises GazetteerError on the first bad line.  A
    text-mode stream decodes itself, so pass bytes or a binary stream to get
    the line of a byte that is not UTF-8 rather than a bare UnicodeDecodeError."""
    raw: dict[str, list[GazetteerEntry]] = {}
    for lineno, line, cells in read_rows(source, 4, GazetteerError):
        surface, entity, raw_prior, raw_kind = cells
        key = normalize_surface(surface)
        if not key or not entity:
            raise GazetteerError(lineno, line, "empty surface or entity")
        try:
            prior = float(raw_prior)
        except ValueError as exc:
            raise GazetteerError(lineno, line, f"bad prior {raw_prior!r}") from exc
        if not 0.0 <= prior <= 1.0:
            raise GazetteerError(lineno, line, f"prior {prior} outside [0, 1]")
        try:
            kind = EntityKind(raw_kind)
        except ValueError as exc:
            raise GazetteerError(lineno, line, f"unknown kind {raw_kind!r}") from exc
        raw.setdefault(key, []).append(GazetteerEntry(entity, prior, kind))
    entries = {
        key: tuple(sorted(items, key=lambda e: (-e.prior, e.entity)))
        for key, items in raw.items()
    }
    max_words = max((len(k.split()) for k in entries), default=1)
    return Gazetteer(entries, max_words)


def load_gazetteer_file(path: str) -> Gazetteer:
    return load_file(load_gazetteer, path)


def _best_resource(entries: tuple[GazetteerEntry, ...]) -> GazetteerEntry | None:
    for entry in entries:
        if entry.kind is EntityKind.RESOURCE:
            return entry
    return None


def detect_mentions(
    question: str,
    gaz: Gazetteer,
    threshold: float = DEFAULT_LINK_THRESHOLD,
) -> list[MentionLink]:
    """Link question spans to resources, greedy longest-match, left to right.

    A span is selected whenever some gazetteer surface with at least one
    Resource candidate matches its tokens; the link takes the highest-prior
    Resource.  Links below the threshold are dropped after segmentation, so
    the returned spans shrink monotonically as the threshold rises.
    """
    if not question:
        raise ValueError("question must be non-empty")
    tokens = list(_WORD_RE.finditer(question))
    links: list[MentionLink] = []
    i = 0
    while i < len(tokens):
        matched_words = 0
        best: GazetteerEntry | None = None
        for n in range(min(gaz.max_words, len(tokens) - i), 0, -1):
            key = " ".join(t.group(0).casefold() for t in tokens[i : i + n])
            candidates = gaz.entries.get(key)
            if not candidates:
                continue
            resource = _best_resource(candidates)
            if resource is None:
                continue
            matched_words = n
            best = resource
            break
        if best is None:
            i += 1
            continue
        start = tokens[i].start()
        end = tokens[i + matched_words - 1].end()
        if best.prior >= threshold:
            links.append(MentionLink(start, end, question[start:end], best.entity, best.prior))
        i += matched_words
    return links
