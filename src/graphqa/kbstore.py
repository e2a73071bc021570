"""In-memory RDF triple store with bidirectional adjacency, labels and types.

The store is immutable once built: loading streams parsed N-Triples lines
into the constructor, which deduplicates them and freezes four indexes
(outgoing edges, incoming edges, labels, entity types).  The outgoing index
is the only copy of the triple set.  Every query method returns a sorted list
so that all downstream candidate ranking stays deterministic.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass
from enum import Enum
from sys import intern
from typing import IO, Iterable, Iterator, Union

from .errors import GraphQAError

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


class NTriplesError(GraphQAError):
    """Malformed N-Triples input; carries the line number and the raw line."""

    def __init__(self, lineno: int, text: str, reason: str = "malformed triple"):
        self.lineno = lineno
        self.text = text
        super().__init__(f"line {lineno}: {reason}: {text.strip()!r}")


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
    """Immutable triple set with forward/backward adjacency and label/type maps.

    ``out_index`` maps a subject to its sorted ``(predicate, object)`` pairs,
    ``in_index`` maps an object to its sorted ``(predicate, subject)`` pairs;
    the two are exact inverses of each other.
    """

    def __init__(self, triples: Iterable[Triple]):
        out: dict[str, set] = {}
        inn: dict[Term, set] = {}
        labels: dict[str, set] = {}
        types: dict[str, set] = {}
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
            if predicate == RDFS_LABEL and isinstance(obj, Literal):
                labels.setdefault(subject, set()).add(obj.lexical)
            if predicate == RDF_TYPE and isinstance(obj, str):
                types.setdefault(subject, set()).add(obj)

        # Each set is replaced by its sorted list in place, so only one of
        # the two is alive per node.
        for s, pairs in out.items():
            out[s] = sorted(pairs, key=lambda po: (po[0], term_text(po[1])))
        for o, pairs in inn.items():
            inn[o] = sorted(pairs)
        self.out_index = out
        self.in_index = inn
        self._size = size
        self._labels = {s: sorted(vals) for s, vals in labels.items()}
        self._types = {s: sorted(vals) for s, vals in types.items()}

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

    def labels_of(self, x: str) -> list[str]:
        """Explicit label literals of ``x``, else one decamelized fallback."""
        explicit = self._labels.get(x)
        if explicit:
            return list(explicit)
        return [decamelize(local_name(x))]

    def types_of(self, x: Term) -> list[str]:
        """Declared classes of an entity; literals map to a pseudo-class."""
        if isinstance(x, Literal):
            return [pseudo_class_of(x)]
        return list(self._types.get(x, []))

    def to_ntriples(self) -> str:
        lines = sorted(
            f"{term_text(s)} {term_text(p)} {term_text(o)} ."
            for s, pairs in self.out_index.items()
            for p, o in pairs
        )
        return "\n".join(lines) + ("\n" if lines else "")


_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:[A-Za-z][A-Za-z0-9_.-]*")
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_LANG_RE = re.compile(r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)")


class _LineScanner:
    def __init__(self, line: str):
        self.line = line
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def take(self, regex: re.Pattern) -> re.Match | None:
        match = regex.match(self.line, self.pos)
        if match:
            self.pos = match.end()
        return match


def _parse_term(scan: _LineScanner, allow_literal: bool) -> Term | None:
    scan.skip_ws()
    m = scan.take(_IRI_RE)
    if m:
        iri = m.group(1)
        return iri if iri else None
    m = scan.take(_BNODE_RE)
    if m:
        return m.group(0)
    if not allow_literal:
        return None
    m = scan.take(_QUOTED_RE)
    if m:
        lexical = _unescape_literal(m.group(1))
        lang_m = scan.take(_LANG_RE)
        if lang_m:
            return Literal(lexical, XSD_STRING, lang_m.group(1))
        if scan.line.startswith("^^", scan.pos):
            scan.pos += 2
            dt = scan.take(_IRI_RE)
            if not dt or not dt.group(1):
                return None
            return Literal(lexical, dt.group(1))
        return Literal(lexical)
    return None


def parse_ntriples_line(line: str, lineno: int) -> Triple | None:
    """Parse one N-Triples line; blank lines and ``#`` comments yield None."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    scan = _LineScanner(line)
    subject = _parse_term(scan, allow_literal=False)
    predicate = _parse_term(scan, allow_literal=False)
    obj = _parse_term(scan, allow_literal=True)
    if subject is None or predicate is None or obj is None:
        raise NTriplesError(lineno, line)
    if isinstance(predicate, str) and predicate.startswith("_:"):
        raise NTriplesError(lineno, line, "blank node predicate")
    scan.skip_ws()
    if not scan.line.startswith(".", scan.pos):
        raise NTriplesError(lineno, line, "missing terminating '.'")
    scan.pos += 1
    scan.skip_ws()
    rest = scan.line[scan.pos:].strip()
    if rest and not rest.startswith("#"):
        raise NTriplesError(lineno, line, "trailing content after '.'")
    return Triple(subject, predicate, obj)


_LINE_END_RE = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _iter_lines(text: str) -> Iterator[str]:
    """The lines of ``str.splitlines()``, one at a time instead of a list."""
    start = 0
    for sep in _LINE_END_RE.finditer(text):
        yield text[start:sep.start()]
        start = sep.end()
    if start < len(text):
        yield text[start:]


def load_ntriples(source: Union[str, bytes, IO]) -> KnowledgeBase:
    """Build a KnowledgeBase from N-Triples text, bytes or a readable stream.

    Raises NTriplesError (with line number) on the first malformed line or
    invalid IRI.  An empty input yields a valid empty store.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lineno, line = 0, ""

    def parsed() -> Iterator[Triple]:
        nonlocal lineno, line
        for lineno, line in enumerate(_iter_lines(data), start=1):
            try:
                triple = parse_ntriples_line(line, lineno)
            except ValueError as exc:
                raise NTriplesError(lineno, line, str(exc)) from exc
            if triple is not None:
                yield triple

    # The build makes no reference cycles and keeps what it indexes, so a
    # cyclic collection during it would traverse the growing indexes and
    # free nothing.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return KnowledgeBase(parsed())
    except ValueError as exc:
        raise NTriplesError(lineno, line, str(exc)) from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def load_ntriples_file(path: str) -> KnowledgeBase:
    with open(path, "rb") as handle:
        return load_ntriples(handle)


def read_json_object(path: str, what: str) -> dict:
    """Read a JSON file whose top level is an object; ``what`` names it in errors."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
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
