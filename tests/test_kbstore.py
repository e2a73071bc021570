import gc
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqa.entitylink import GazetteerError, load_gazetteer, load_gazetteer_file
from graphqa.kbstore import (
    DATE_CLASS,
    NUMBER_CLASS,
    STRING_CLASS,
    XSD,
    XSD_STRING,
    Direction,
    KnowledgeBase,
    LineError,
    Literal,
    NTriplesError,
    Triple,
    _read_lines,
    decamelize,
    is_iri,
    load_ntriples,
    load_ntriples_file,
    local_name,
    pseudo_class_of,
    shorten_iri,
    term_text,
)
from graphqa.lexsim import LexiconError, load_lexicon, load_lexicon_file

RES = "http://dbpedia.org/resource/"
DBO = "http://dbpedia.org/ontology/"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
FOAF_PERSON = "http://xmlns.com/foaf/0.1/Person"


def test_single_triple_builds_both_indexes():
    kb = load_ntriples("<http://x/a> <http://x/p> <http://x/b> .")
    assert len(kb) == 1
    assert kb.out_index["http://x/a"] == [("http://x/p", "http://x/b")]
    assert kb.in_index["http://x/b"] == [("http://x/p", "http://x/a")]


def test_berlin_fixture_has_leader_out_edge(berlin_kb):
    edges = berlin_kb.neighbors(RES + "Berlin")
    assert (DBO + "leader", RES + "Klaus_Wowereit", Direction.OUT) in edges


def test_malformed_line_reports_line_number():
    with pytest.raises(NTriplesError) as err:
        load_ntriples("<http://x/a> <http://x/p>")
    assert err.value.lineno == 1
    assert "<http://x/a>" in err.value.text


def test_invalid_iri_reports_its_line():
    bad = "<http://x/a\u00a0b> <http://x/p> <http://x/c> ."
    with pytest.raises(NTriplesError) as err:
        load_ntriples(f"<http://x/a> <http://x/p> <http://x/b> .\n{bad}\n")
    assert err.value.lineno == 2
    assert err.value.text == bad


def test_error_on_missing_dot():
    with pytest.raises(NTriplesError):
        load_ntriples("<http://x/a> <http://x/p> <http://x/b>")


def test_empty_input_is_valid_empty_kb():
    kb = load_ntriples("")
    assert len(kb) == 0
    assert kb.neighbors("http://nowhere") == []


def test_duplicates_are_removed():
    text = "<http://x/a> <http://x/p> <http://x/b> .\n" * 3
    kb = load_ntriples(text)
    assert len(kb) == 1


def test_constructor_counts_duplicates_once():
    triple = Triple("http://x/a", "http://x/p", "http://x/b")
    copy = Triple("http://x/" + "a", "http://x/" + "p", "http://x/" + "b")
    other = Triple("http://x/a", "http://x/p", Literal("b"))
    kb = KnowledgeBase([triple, copy, other, triple])
    assert len(kb) == 2
    assert kb.triples == {triple, other}


def test_byte_stream_input():
    kb = load_ntriples(io.BytesIO(b"<http://x/a> <http://x/p> <http://x/b> ."))
    assert len(kb) == 1


def test_literal_parsing_with_datatype_and_lang():
    kb = load_ntriples(
        f'<http://x/a> <http://x/p> "1989-11-09"^^<{XSD}date> .\n'
        '<http://x/a> <http://x/q> "hallo"@de .\n'
        '<http://x/a> <http://x/r> "say \\"hi\\"" .'
    )
    objects = {t.predicate: t.object for t in kb.triples}
    assert objects["http://x/p"] == Literal("1989-11-09", XSD + "date")
    assert objects["http://x/q"] == Literal("hallo", XSD + "string", "de")
    assert objects["http://x/r"].lexical == 'say "hi"'


def test_neighbors_inverted_edge_only_triple():
    kb = load_ntriples(f"<{RES}Berlin> <{DBO}leader> <{RES}Klaus_Wowereit> .")
    assert kb.neighbors(RES + "Klaus_Wowereit") == [
        (DBO + "leader", RES + "Berlin", Direction.IN)
    ]


def test_neighbors_node_in_both_roles():
    kb = load_ntriples(
        "<http://x/a> <http://x/p> <http://x/b> .\n<http://x/b> <http://x/q> <http://x/c> ."
    )
    directions = {d for _p, _o, d in kb.neighbors("http://x/b")}
    assert directions == {Direction.IN, Direction.OUT}


def test_unknown_node_has_no_neighbors(berlin_kb):
    assert berlin_kb.neighbors(RES + "Nowhere") == []


def test_labels_explicit(berlin_kb):
    assert berlin_kb.labels_of(DBO + "leader") == ["leader"]


def test_labels_fallback_decamelizes_local_name():
    kb = load_ntriples("")
    assert kb.labels_of(DBO + "birthPlace") == ["birth place"]


def test_two_labels_sorted():
    kb = load_ntriples(
        f'<{DBO}x> <{RDFS_LABEL}> "zeta" .\n<{DBO}x> <{RDFS_LABEL}> "alpha" .'
    )
    assert kb.labels_of(DBO + "x") == ["alpha", "zeta"]


def test_types_of_entity(berlin_kb):
    assert berlin_kb.types_of(RES + "Klaus_Wowereit") == [FOAF_PERSON]


def test_types_of_literals_use_pseudo_classes():
    kb = load_ntriples("")
    assert kb.types_of(Literal("1989-11-09", XSD + "date")) == [DATE_CLASS]
    assert kb.types_of(Literal("12", XSD + "integer")) == [NUMBER_CLASS]
    assert kb.types_of(Literal("hello")) == [STRING_CLASS]


def test_types_of_untyped_entity_is_empty(berlin_kb):
    assert berlin_kb.types_of(RES + "Germany") != []
    assert berlin_kb.types_of(DBO + "leader") == []


def test_literal_subject_rejected():
    with pytest.raises(ValueError):
        KnowledgeBase([Triple("has space", "http://x/p", "http://x/b")])


def test_is_iri_rejects_exactly_the_space_characters():
    disagree = [c for c in range(0x110000) if is_iri(f"http://x/{chr(c)}") == chr(c).isspace()]
    assert disagree == []


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_collector_state_alone(enabled):
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        loads = [
            (load_ntriples, "<http://x/a> <http://x/p> <http://x/b> .", NTriplesError,
             ["<http://x/a> <http://x/p>", "<http://x/a\u2003> <http://x/p> <http://x/b> .",
              b"<http://x/a> <http://x/p> \"\xe9\" ."]),
            (load_gazetteer, "Berlin\thttp://x/Berlin\t0.9\tResource", GazetteerError,
             ["Berlin\thttp://x/Berlin", "Berlin\thttp://x/Berlin\t2\tResource",
              b"Caf\xe9\thttp://x/Cafe\t0.9\tResource"]),
            (load_lexicon, "mayor\tleader\t0.7", LexiconError,
             ["mayor\tleader", "a\tb\tx", b"caf\xe9\tbar\t0.5"]),
        ]
        for load, good, error, bads in loads:
            load(good)
            assert gc.isenabled() == enabled
            for bad in bads:
                with pytest.raises(error):
                    load(bad)
                assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


_line_text = st.lists(
    st.sampled_from(["a", "\u00e9", " ", "\r\n", *"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"])
).map("".join)


@settings(max_examples=200, derandomize=True)
@given(_line_text)
def test_lines_split_as_splitlines(text):
    # bytes.splitlines() ends lines at "\n", "\r\n" and "\r" only, the N-Triples rule
    data = text.encode("utf-8")
    expected = [line.decode("utf-8") for line in data.splitlines()]
    for source in (text, data, io.BytesIO(data), io.StringIO(text)):
        assert list(_read_lines(source)) == expected


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\u2028"])
def test_non_utf8_byte_reports_its_line(sep):
    good = '<http://x/a> <http://x/p> "ok" .'
    lines = [good.encode(), good.encode(), '<http://x/a> <http://x/p> "caf\u00e9" .'.encode("latin-1")]
    with pytest.raises(NTriplesError) as err:
        load_ntriples(sep.encode().join(lines) + b"\n")
    bad = '<http://x/a> <http://x/p> "caf\\xe9" .'
    if sep == "\u2028":  # not a line ending, so the three triples share line 1
        assert (err.value.lineno, err.value.text) == (1, sep.join([good, good, bad]))
    else:
        assert (err.value.lineno, err.value.text) == (3, bad)
    assert "utf-8" in str(err.value)


@pytest.mark.parametrize("char", [*"\v\f\x1c\x1d\x1e\x85\u2028\u2029"])
def test_literals_with_other_line_breaks_round_trip(char):
    escaped = load_ntriples(f'<http://a> <http://b> "x\\u{ord(char):04x}y" .\n')
    raw = load_ntriples(f'<http://a> <http://b> "x{char}y" .\n'.encode("utf-8"))
    assert escaped.triples == raw.triples == {Triple("http://a", "http://b", Literal(f"x{char}y"))}
    text = escaped.to_ntriples()
    for source in (text, text.encode("utf-8"), io.StringIO(text)):
        assert load_ntriples(source).triples == escaped.triples


@pytest.mark.parametrize("loader, error, good", [
    (load_ntriples_file, NTriplesError, "<http://x/a> <http://x/p> <http://x/b> ."),
    (load_gazetteer_file, GazetteerError, "Berlin\thttp://x/Berlin\t0.9\tResource"),
    (load_lexicon_file, LexiconError, "mayor\tleader\t0.7"),
])
@pytest.mark.parametrize("bad, reason", [
    (b"caf\xe9", "invalid utf-8 byte 0xe9"),
    (b"x", None),
])
def test_file_loaders_name_the_path_and_line(tmp_path, loader, error, good, bad, reason):
    path = tmp_path / "resource"
    path.write_bytes(b"# comment\n\n" + good.encode() + b"\n" + bad + b"\n")
    with pytest.raises(error) as err:
        loader(str(path))
    assert isinstance(err.value, LineError)
    assert (err.value.path, err.value.lineno, err.value.text) == (
        str(path), 4, bad.decode("utf-8", "backslashreplace"))
    assert str(err.value).startswith(f"{path} line 4: {reason or ''}")


def test_fixture_round_trip(berlin_kb, golden_kb):
    for kb in (berlin_kb, golden_kb):
        again = load_ntriples(kb.to_ntriples())
        assert again.triples == kb.triples


def test_decamelize():
    assert decamelize("birthPlace") == "birth place"
    assert decamelize("leaderTitle") == "leader title"
    assert decamelize("Cities_in_Germany") == "cities in germany"


def test_shorten_iri():
    prefixes = {"res": RES, "dbo": DBO}
    assert shorten_iri(RES + "Berlin", prefixes) == "res:Berlin"
    assert shorten_iri("http://other/x", prefixes) == "http://other/x"


_iris = st.sampled_from([f"http://t/{c}" for c in "abcdefgh"])
_preds = st.sampled_from([f"http://t/p{i}" for i in range(4)])
_literals = st.builds(
    Literal,
    st.sampled_from(['v1', 'v "2"', 'v\\3', 'line\nbreak', 'tab\there']),
    st.sampled_from([XSD + "string", XSD + "date", XSD + "integer"]),
)
_terms = st.one_of(_iris, _literals)
_triples = st.builds(Triple, _iris, _preds, _terms)
_kbs = st.lists(_triples, max_size=30).map(KnowledgeBase)


@settings(max_examples=60, derandomize=True)
@given(_kbs)
def test_round_trip_property(kb):
    assert load_ntriples(kb.to_ntriples()).triples == kb.triples


@settings(max_examples=60, derandomize=True)
@given(_kbs)
def test_index_inversion_property(kb):
    for s, pairs in kb.out_index.items():
        for p, o in pairs:
            assert (p, s) in kb.in_index[o]
    for o, pairs in kb.in_index.items():
        for p, s in pairs:
            assert (p, o) in kb.out_index[s]


@settings(max_examples=60, derandomize=True)
@given(_kbs, _terms)
def test_neighbor_count_matches_degree(kb, node):
    out_deg = sum(1 for t in kb.triples if t.subject == node)
    in_deg = sum(1 for t in kb.triples if t.object == node)
    assert len(kb.neighbors(node)) == out_deg + in_deg


@settings(max_examples=60, derandomize=True)
@given(_kbs, _terms)
def test_neighbors_sorted_deterministically(kb, node):
    edges = kb.neighbors(node)
    keys = [(p, term_text(o), d.value) for p, o, d in edges]
    assert keys == sorted(keys)


def test_literal_has_no_instance_dict():
    assert not hasattr(Literal("1999", XSD + "gYear"), "__dict__")


def test_typed_literals_share_their_datatype():
    kb = load_ntriples(
        f'<http://x/a> <http://x/p> "1"^^<{XSD}integer> .\n'
        f'<http://x/b> <http://x/p> "2"^^<{XSD}integer> .\n'.encode()
    )
    [(_, one)] = kb.out_index["http://x/a"]
    [(_, two)] = kb.out_index["http://x/b"]
    assert one.datatype is two.datatype


@pytest.mark.parametrize("bad_lineno", [5, 2001])
def test_text_stream_raises_its_own_decode_error(bad_lineno):
    # A text-mode stream decodes a block ahead of the line being parsed, so
    # no line number can be given: the decode error itself must come out.
    good = b'<http://x/a> <http://x/p> "ok" .\n'
    bad = '<http://x/a> <http://x/p> "caf\u00e9" .\n'.encode("latin-1")
    data = good * (bad_lineno - 1) + bad + good
    with pytest.raises(UnicodeDecodeError):
        load_ntriples(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_store_holds_only_the_two_adjacency_indexes(berlin_kb):
    assert set(vars(berlin_kb)) == {"out_index", "in_index", "_size"}


RDFS = "http://www.w3.org/2000/01/rdf-schema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_nodes = st.sampled_from(["http://t/a", "http://t/b", "http://t/someThing", "_:n1"])
_classes = st.sampled_from(["http://t/Class", "http://t/Zed", "_:c1"])
# Predicates that sort just before and just after the two runs read.
_near_preds = st.sampled_from([
    RDFS_LABEL, RDF_TYPE, RDFS + "labek", RDFS + "label2", RDF + "typd", RDF + "type2", "http://t/p",
])
_lexicals = st.sampled_from(["Berlin", "berlin", "b\u00e9", 'say "hi"', "two words", ""])
_objects = st.one_of(
    _nodes,
    _classes,
    st.builds(Literal, _lexicals, st.just(XSD_STRING), st.sampled_from(["", "en", "de"])),
    st.builds(Literal, _lexicals, st.sampled_from([XSD + "integer", XSD + "date", "http://t/dt"])),
)
# Always present: several labels on one subject, one lexical form under two
# language tags, a typed literal label, blank-node and literal types, and
# neighbours on both sides of each run.
_base = [
    Triple("http://t/a", RDFS + "labek", Literal("before")),
    Triple("http://t/a", RDFS + "label2", Literal("after")),
    Triple("http://t/a", RDF + "typd", "http://t/Before"),
    Triple("http://t/a", RDF + "type2", "http://t/After"),
    Triple("http://t/a", RDFS_LABEL, Literal("Berlin", XSD_STRING, "en")),
    Triple("http://t/a", RDFS_LABEL, Literal("Berlin", XSD_STRING, "de")),
    Triple("http://t/a", RDFS_LABEL, Literal("alpha")),
    Triple("http://t/a", RDFS_LABEL, Literal("7", XSD + "integer")),
    Triple("http://t/a", RDF_TYPE, "_:c1"),
    Triple("http://t/a", RDF_TYPE, Literal("Class")),
    Triple("http://t/a", RDF_TYPE, "http://t/Class"),
]
_label_kbs = st.lists(st.builds(Triple, _nodes, _near_preds, _objects), max_size=30).map(
    lambda extra: KnowledgeBase(_base + extra))


@settings(max_examples=100, derandomize=True)
@given(_label_kbs)
def test_labels_and_types_match_a_scan_of_the_triples(kb):
    triples = kb.triples
    nodes = {t.subject for t in triples} | {t.predicate for t in triples} | {
        t.object for t in triples} | {"http://t/unknownNode"}
    for x in nodes:
        if isinstance(x, Literal):
            assert kb.types_of(x) == [pseudo_class_of(x)]
            continue
        labels = sorted({t.object.lexical for t in triples if t.subject == x
                         and t.predicate == RDFS_LABEL and isinstance(t.object, Literal)})
        assert kb.labels_of(x) == (labels or [decamelize(local_name(x))])
        assert kb.types_of(x) == sorted(t.object for t in triples if t.subject == x
                                        and t.predicate == RDF_TYPE and isinstance(t.object, str))
