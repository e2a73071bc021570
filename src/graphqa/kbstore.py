"""In-memory RDF triple store: two adjacency indexes and a triple count.

The store is immutable once built: loading streams parsed N-Triples lines
into the constructor, which deduplicates them and freezes the outgoing and
incoming edge indexes.  The outgoing index is the only copy of the triple
set; labels and types are its ``rdfs:label`` and ``rdf:type`` runs.  Every
query method returns a sorted list so that downstream ranking is deterministic.
"""

from __future__ import annotations

import gc
import io
import json
import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from sys import intern
from typing import IO, Callable, Iterable, Iterator, TypeVar, Union

from .errors import GraphQAError

T = TypeVar("T")

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
DCT_SUBJECT = "http://purl.org/dc/terms/subject"

# Pseudo-classes assigned to literal values, so answer typing can treat a
# plain date or number uniformly with resource classes.
DATE_CLASS = "builtin:Date"
NUMBER_CLASS = "builtin:Number"
STRING_CLASS = "builtin:String"

_DATE_DATATYPES = frozenset(
    XSD + name for name in ("date", "dateTime", "time", "gYear", "gYearMonth")
)
_NUMBER_DATATYPES = frozenset(
    XSD + name
    for name in (
        "integer", "decimal", "double", "float", "int", "long", "short",
        "byte", "nonNegativeInteger", "positiveInteger", "negativeInteger",
        "nonPositiveInteger", "unsignedLong", "unsignedInt", "unsignedShort",
        "unsignedByte",
    )
)


class LineError(GraphQAError):
    """Bad input on one line of a text resource: the line number, the raw line,
    the reason and the file's path, which starts the message when given."""

    def __init__(self, lineno: int, text: str, reason: str, path: str | None = None):
        self.lineno = lineno
        self.text = text
        self.reason = reason
        self.path = path
        where = f"{path} line" if path else "line"
        super().__init__(f"{where} {lineno}: {reason}: {text.strip()!r}")


class NTriplesError(LineError):
    """Malformed N-Triples input."""

    def __init__(self, lineno: int, text: str, reason: str = "malformed triple",
                 path: str | None = None):
        super().__init__(lineno, text, reason, path)


@dataclass(frozen=True, order=True, slots=True)
class Literal:
    """An RDF literal value tagged with its datatype (and optional language)."""

    lexical: str
    datatype: str = XSD_STRING
    lang: str = ""


Term = Union[str, Literal]


class Direction(str, Enum):
    OUT = "out"
    IN = "in"


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: Term


# ``\s`` matches exactly the code points for which ``str.isspace`` is true.
_SPACE_RE = re.compile(r"\s")


def is_iri(value: object) -> bool:
    return isinstance(value, str) and bool(value) and _SPACE_RE.search(value) is None


def pseudo_class_of(lit: Literal) -> str:
    if lit.datatype in _DATE_DATATYPES:
        return DATE_CLASS
    if lit.datatype in _NUMBER_DATATYPES:
        return NUMBER_CLASS
    return STRING_CLASS


def _escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_UNESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_UNESCAPE_MAP = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\", "'": "'", "b": "\b", "f": "\f"}


def _unescape_literal(text: str) -> str:
    def repl(match: re.Match) -> str:
        body = match.group(1)
        if body[0] in "uU":
            return chr(int(body[1:], 16))
        if body in _UNESCAPE_MAP:
            return _UNESCAPE_MAP[body]
        return body

    return _UNESCAPE_RE.sub(repl, text)


def term_text(term: Term) -> str:
    """Canonical N-Triples rendering of a term; also the global sort key."""
    if isinstance(term, Literal):
        base = f'"{_escape_literal(term.lexical)}"'
        if term.lang:
            return f"{base}@{term.lang}"
        if term.datatype and term.datatype != XSD_STRING:
            return f"{base}^^<{term.datatype}>"
        return base
    if term.startswith("_:"):
        return term
    return f"<{term}>"


def local_name(iri: str) -> str:
    frag = iri
    if "#" in frag:
        frag = frag.rsplit("#", 1)[-1]
    elif "/" in frag:
        frag = frag.rstrip("/").rsplit("/", 1)[-1]
    if ":" in frag:
        frag = frag.rsplit(":", 1)[-1]
    return frag or iri


def decamelize(name: str) -> str:
    """Turn a local name like ``birthPlace`` into the phrase ``birth place``."""
    text = name.replace("_", " ")
    text = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", text)
    return re.sub(r"\s+", " ", text).strip().lower()


class KnowledgeBase:
    """Immutable triple set held as two adjacency indexes.

    ``out_index`` maps a subject to its ``(predicate, object)`` pairs sorted by
    predicate, then object text, and holds its labels and types; ``in_index``
    maps an object to its sorted ``(predicate, subject)`` pairs, the exact inverse.
    """

    def __init__(self, triples: Iterable[Triple]):
        out: dict[str, set] = {}
        inn: dict[Term, set] = {}
        size = 0
        for t in triples:
            subject, predicate, obj = t.subject, t.predicate, t.object
            if not is_iri(subject):
                raise ValueError(f"invalid subject IRI: {subject!r}")
            if not is_iri(predicate):
                raise ValueError(f"invalid predicate IRI: {predicate!r}")
            if isinstance(obj, str):
                if not is_iri(obj):
                    raise ValueError(f"invalid object IRI: {obj!r}")
                obj = intern(obj)
            subject, predicate = intern(subject), intern(predicate)
            pairs = out.get(subject)
            if pairs is None:
                pairs = out[subject] = set()
            elif (predicate, obj) in pairs:
                continue
            pairs.add((predicate, obj))
            size += 1
            inn.setdefault(obj, set()).add((predicate, subject))

        # Each set is replaced by its sorted list in place, so only one of
        # the two is alive per node.
        for s, pairs in out.items():
            out[s] = sorted(pairs, key=lambda po: (po[0], term_text(po[1])))
        for o, pairs in inn.items():
            inn[o] = sorted(pairs)
        self.out_index = out
        self.in_index = inn
        self._size = size

    @property
    def triples(self) -> frozenset:
        """The deduplicated triple set, rebuilt from ``out_index`` per call."""
        return frozenset(
            Triple(s, p, o) for s, pairs in self.out_index.items() for p, o in pairs
        )

    def __len__(self) -> int:
        return self._size

    def __contains__(self, node: Term) -> bool:
        return node in self.out_index or node in self.in_index

    def neighbors(self, node: Term) -> list[tuple[str, Term, Direction]]:
        """All edges incident to ``node``, outgoing and incoming, sorted.

        Unknown nodes yield an empty list.  Order is (predicate, other,
        direction) so repeated calls are byte-stable.
        """
        found = []
        for pred, other in self.out_index.get(node, []):
            found.append((pred, other, Direction.OUT))
        for pred, other in self.in_index.get(node, []):
            found.append((pred, other, Direction.IN))
        found.sort(key=lambda e: (e[0], term_text(e[1]), e[2].value))
        return found

    def _run(self, x: str, predicate: str) -> list[tuple[str, Term]]:
        """The pairs of ``out_index[x]`` with ``predicate``, bisected by 1-tuple probes, which
        never compare objects; ``predicate + "\\0"`` is the least string above ``predicate``."""
        pairs = self.out_index.get(x, ())
        start = bisect_left(pairs, (predicate,))
        return pairs[start:bisect_left(pairs, (predicate + "\0",), start)]

    def labels_of(self, x: str) -> list[str]:
        """Explicit label literals of ``x``, else one decamelized fallback."""
        labels = {o.lexical for _, o in self._run(x, RDFS_LABEL) if isinstance(o, Literal)}
        return sorted(labels) or [decamelize(local_name(x))]

    def types_of(self, x: Term) -> list[str]:
        """Declared classes of an entity; literals map to a pseudo-class."""
        if isinstance(x, Literal):
            return [pseudo_class_of(x)]
        return sorted(o for _, o in self._run(x, RDF_TYPE) if isinstance(o, str))

    def to_ntriples(self) -> str:
        lines = sorted(
            f"{term_text(s)} {term_text(p)} {term_text(o)} ."
            for s, pairs in self.out_index.items()
            for p, o in pairs
        )
        return "\n".join(lines) + ("\n" if lines else "")


# The bodies of the term regexes: IRI, blank node, quoted lexical form, language tag.
_IRI = r"<([^<>\"{}|^`\\\x00-\x20]*)>"
_BNODE = r"(_:[A-Za-z][A-Za-z0-9_.-]*)"
_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_LANG = r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)"

# One match per line.  Every term is optional and the pattern ends in a
# catch-all, so the first path the engine tries always succeeds: each term
# takes what its own regex would take at that point and is never shortened
# to let a later part match (``_:b.`` keeps its dot, so the line has none).
_LINE_RE = re.compile(
    rf"[ \t]*(?:{_IRI}|{_BNODE})?[ \t]*(?:{_IRI}|{_BNODE})?[ \t]*"
    rf"(?:{_IRI}|{_BNODE}|{_QUOTED}(?:{_LANG}|(\^\^)(?:{_IRI})?)?)?"
    r"[ \t]*(\.)?[ \t]*(?s:(.*))"
)
_PIECE_RE = re.compile(r"[^\n]*\n|[^\n]+")
_LINE_END_RE = re.compile(r"\r\n|\r|\n")


def parse_ntriples_line(line: str, lineno: int) -> Triple | None:
    """Parse one N-Triples line; blank lines and ``#`` comments yield None."""
    (s_iri, s_bnode, p_iri, p_bnode, o_iri, o_bnode,
     lexical, lang, caret, datatype, dot, rest) = _LINE_RE.match(line).groups()
    # A line whose subject matched at all is neither blank nor a comment.
    if s_iri is None and s_bnode is None:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return None
    # ``<>`` matches with an empty IRI, which makes the term missing.
    subject = s_iri or s_bnode
    predicate = p_iri or p_bnode
    if lexical is None:
        obj = o_iri or o_bnode
    else:
        if "\\" in lexical:
            lexical = _unescape_literal(lexical)
        if lang is not None:
            obj = Literal(lexical, XSD_STRING, lang)
        elif caret is None:
            obj = Literal(lexical)
        else:
            obj = Literal(lexical, intern(datatype)) if datatype else None
    if subject is None or predicate is None or obj is None:
        raise NTriplesError(lineno, line)
    if predicate.startswith("_:"):
        raise NTriplesError(lineno, line, "blank node predicate")
    if dot is None:
        raise NTriplesError(lineno, line, "missing terminating '.'")
    rest = rest.strip()
    if rest and not rest.startswith("#"):
        raise NTriplesError(lineno, line, "trailing content after '.'")
    return Triple(subject, predicate, obj)


def _read_lines(source: Union[str, bytes, IO],
                error: type[LineError] = NTriplesError) -> Iterator[str]:
    """The lines of the whole input, each ended by ``\\n``, ``\\r\\n`` or ``\\r``
    only, read one piece per newline; a byte that is not UTF-8 raises ``error``
    on its own line."""
    if isinstance(source, str):
        # Not io.StringIO: it copies the text into 4 bytes per character.
        source = (m.group() for m in _PIECE_RE.finditer(source))
    elif isinstance(source, bytes):
        source = io.BytesIO(source)
    lineno = 0
    for piece in source:
        if isinstance(piece, str):
            lines = _LINE_END_RE.split(piece)
            if not lines[-1]:
                lines.pop()  # the piece ended with a line ending, or was empty
        else:
            lines = piece.splitlines()  # bytes split at the three line endings only
        for line in lines:
            lineno += 1
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(lineno, line.decode("utf-8", "backslashreplace"),
                                f"invalid utf-8 byte {line[exc.start]:#04x}") from exc
            yield line


def read_rows(source: Union[str, bytes, IO], columns: int,
              error: type[LineError]) -> Iterator[tuple[int, str, list[str]]]:
    """Number, raw line and stripped cells of each tab-separated row, skipping
    blank lines and ``#`` comments; a row without ``columns`` cells raises ``error``."""
    for lineno, line in enumerate(_read_lines(source, error), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = stripped.split("\t")
        if len(cells) != columns:
            raise error(lineno, line, f"expected {columns} tab-separated columns")
        yield lineno, line, [c.strip() for c in cells]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector, then restore its state.  Loaders make no
    cycles, so a collection would only traverse what they build."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@collector_paused()
def load_ntriples(source: Union[str, bytes, IO]) -> KnowledgeBase:
    """Build a KnowledgeBase from N-Triples text, bytes or a readable stream.

    Raises NTriplesError (with line number) on the first malformed line,
    invalid IRI or byte that is not UTF-8.  An empty input yields a valid
    empty store.  A text-mode stream decodes itself, so pass bytes or a binary
    stream to get the line of a byte that is not UTF-8 rather than a bare
    UnicodeDecodeError.
    """
    lineno, line = 0, ""

    def parsed() -> Iterator[Triple]:
        nonlocal lineno, line
        for lineno, line in enumerate(_read_lines(source), start=1):
            triple = parse_ntriples_line(line, lineno)
            if triple is not None:
                yield triple

    try:
        return KnowledgeBase(parsed())
    except UnicodeDecodeError:
        raise  # from a text-mode stream, which decodes ahead of ``lineno``
    except ValueError as exc:
        raise NTriplesError(lineno, line, str(exc)) from exc


def load_file(loader: Callable[[IO], T], path: str) -> T:
    """Run ``loader`` on the binary file at ``path``; a line error gains the path."""
    with open(path, "rb") as handle:
        try:
            return loader(handle)
        except LineError as exc:
            raise type(exc)(exc.lineno, exc.text, exc.reason, path) from exc


def load_ntriples_file(path: str) -> KnowledgeBase:
    return load_file(load_ntriples, path)


def read_json_object(path: str, what: str) -> dict:
    """Read a JSON file whose top level is an object; ``what`` names it in errors."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, or a byte that is not UTF-8
            raise GraphQAError(f"{what} {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphQAError(f"{what} {path}: expected a JSON object")
    return data


def load_prefixes(path: str) -> dict[str, str]:
    """Read a display-only prefix map, a JSON object {prefix: namespace}."""
    data = read_json_object(path, "prefix map")
    for prefix, ns in data.items():
        if not isinstance(ns, str):
            raise GraphQAError(f"prefix map {path}: namespace of {prefix!r} must be a string")
    return data


def shorten_iri(iri: str, prefixes: dict[str, str] | None) -> str:
    if prefixes:
        best = None
        for prefix, ns in prefixes.items():
            if iri.startswith(ns) and (best is None or len(ns) > len(prefixes[best])):
                best = prefix
        if best is not None:
            return f"{best}:{iri[len(prefixes[best]):]}"
    return iri


def format_term(term: Term, prefixes: dict[str, str] | None = None) -> str:
    """Human-facing rendering; IRIs are shortened when a prefix map is given."""
    if isinstance(term, Literal):
        return term_text(term)
    return shorten_iri(term, prefixes)
