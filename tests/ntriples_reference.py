"""Frozen reference for the N-Triples line parser.

A term-by-term scanner: each term is matched with its own regex at a moving
position, literals are always unescaped, and the checks run in a fixed order
(malformed term, blank node predicate, missing '.', trailing content).  The
differential tests compare ``graphqa.kbstore.parse_ntriples_line`` with
``parse_ntriples_line`` here line by line, so any change in what a line
parses to, or in which error it raises, shows up.  Only the result types
(``Literal``, ``Triple``, ``NTriplesError``) are shared with the store.
"""

import re

from graphqa.kbstore import XSD_STRING, Literal, NTriplesError, Triple

_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:[A-Za-z][A-Za-z0-9_.-]*")
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_LANG_RE = re.compile(r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)")

_UNESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_UNESCAPE_MAP = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\", "'": "'", "b": "\b", "f": "\f"}


def _unescape_literal(text):
    def repl(match):
        body = match.group(1)
        if body[0] in "uU":
            return chr(int(body[1:], 16))
        if body in _UNESCAPE_MAP:
            return _UNESCAPE_MAP[body]
        return body

    return _UNESCAPE_RE.sub(repl, text)


class _LineScanner:
    def __init__(self, line):
        self.line = line
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.line) and self.line[self.pos] in " \t":
            self.pos += 1

    def take(self, regex):
        match = regex.match(self.line, self.pos)
        if match:
            self.pos = match.end()
        return match


def _parse_term(scan, allow_literal):
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


def parse_ntriples_line(line, lineno):
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
