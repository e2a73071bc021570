"""Differential tests: the one-pattern line parser against the frozen scanner."""

import glob
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from graphqa.kbstore import NTriplesError, parse_ntriples_line
from tests import ntriples_reference
from tests.conftest import FIXTURES

TERMS = [
    "<http://x/a>", "<http://x/p>", "<>", "<a b>", "<_:x>", "_:b1", "_:b.",
    '"v"', '""', '"say \\"hi\\""', '"\\u0041"', '"\\U0001F600"', '"\\U0011FFFF"', '"\\q"', '"',
    "@en", "@en-GB", "@-", "^^<http://x/dt>", "^^<>", "^^", "#c",
]
SPACES = [" ", "\t", "\u00a0", "\u3000", "  "]
TOKENS = TERMS + SPACES + [".", "#", "\n"]

_space = st.sampled_from(["", *SPACES])
_term = st.sampled_from(TERMS)
_iri = st.sampled_from(["<http://x/a>", "<http://x/p>"])
_triple_like = st.tuples(
    _space, _iri | _term, _space, _iri | _term, _space, _iri | _term,
    st.sampled_from(["", "@en", "@-", "^^<http://x/dt>", "^^<>", "^^"]),
    _space, st.sampled_from(["", "."]), _space, st.sampled_from(["", "#c", ".", "x", " ", "\nx"]),
).map("".join)
_token_soup = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)


def outcome(parse, line):
    try:
        return ("ok", parse(line, 7))
    except NTriplesError as exc:
        return ("NTriplesError", exc.lineno, exc.text, str(exc))
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=1500, derandomize=True)
@given(st.one_of(_triple_like, _token_soup))
def test_parser_matches_reference(line):
    assert outcome(parse_ntriples_line, line) == outcome(ntriples_reference.parse_ntriples_line, line)


def test_parser_matches_reference_on_term_grid():
    leads = ["", " \t", "\u00a0"]
    nodes = ["<http://x/a>", "<>", "<a b>", "<_:x>", "_:b1", "_:b.", '"v"']
    objects = nodes + ['"v"@en', '"v"@-', '"v"^^<http://x/dt>', '"v"^^<>', '"v"^^',
                       '"\\u0041\\"x"', '"\\U0011FFFF"', '"open']
    ends = ["", " .", ".", "\t.\t", " . # c", " . x", " . .", " .\nx", " \u3000."]
    for lead, s, p, o, end in itertools.product(leads, nodes, nodes, objects, ends):
        line = f"{lead}{s} {p} {o}{end}"
        assert outcome(parse_ntriples_line, line) == outcome(ntriples_reference.parse_ntriples_line, line)


def test_parser_matches_reference_on_fixtures():
    paths = sorted(glob.glob(f"{FIXTURES}/*.nt"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle.read().splitlines():
                expected = outcome(ntriples_reference.parse_ntriples_line, line)
                assert expected[0] == "ok" and outcome(parse_ntriples_line, line) == expected

