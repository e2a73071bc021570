"""Seeded generator of synthetic graphqa inputs.

Writes, for one workload and one seed, the files the graphqa command line
reads (an N-Triples store, a TSV gazetteer, a TSV lexicon and a JSON-lines
question set) plus ``expected.tsv``, the answer record the benchmark checks
the program against: one line per question with its id, status, failed
stage (``-`` if none) and sorted answer texts, tab-separated.  The expected
answers come from ``reference.py``, a small re-derivation of the ranking
rules that reads the generator's own adjacency and never the program's
store.

The store has a fixed, power-law degree sequence: objects of each relation
take Zipf-shaped edge counts by rank, so the hub degrees (10^3 to 10^4 edges
for the type classes, the top city and the top actor) are the same for
every seed and only the identities, pairings and names change.  That keeps
the cost of a question steady across seeds.

Usage: python3 perfbench/gen.py --workload hub_chain --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference  # noqa: E402  (needs the program's lexsim on sys.path)
from graphqa.lexsim import STOP_WORDS  # noqa: E402
from reference import DATE, DOUBLE, INTEGER, Lit  # noqa: E402

RES = "http://bench.example/r/"
DBO = "http://dbpedia.org/ontology/"
DBP = "http://dbpedia.org/property/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
FOAF_PERSON = "http://xmlns.com/foaf/0.1/Person"

WORKLOADS = ("hub_chain", "tail_mixed", "load_large")
DEFAULT_SEED = 1

# Store sizes: the QA store has about 10^5 triples, load_large three times
# as many.
QA_SCALE = 1.0
LARGE_SCALE = 3.0

HUB_ROLES = 7              # hub_chain seed roles
HUB_RANKS = 3              # seeds per role: the role filled at degree ranks 1-3
HUB_ROUND = HUB_ROLES * HUB_RANKS  # distinct hub_chain questions in one round
HUB_CHAIN_ROUNDS = 4       # each hub_chain seed is asked this many times
TAIL_QUESTIONS = 3200      # tail_mixed pool; seeds never repeat inside it
LARGE_QUESTIONS = 1200     # load_large sanity questions; never repeated
TAIL_MAX_DEGREE = 20
STRATA = 20                # cost strata for triangle seeds
LOG_BINS = 6               # neighbourhood-size bins for single-edge seeds
STRIDE = 7                 # group order: k * STRIDE mod the number of groups

# class key -> (class IRIs, label of the first IRI, base count)
CLASSES = {
    "person": ((FOAF_PERSON,), "person", 8000),
    "film": ((DBO + "Film",), "film", 3400),
    "book": ((DBO + "Book",), "book", 1700),
    "city": ((DBO + "City", DBO + "Place"), "city", 1700),
    "country": ((DBO + "Country", DBO + "Place"), "country", 60),
    "org": ((DBO + "Company", DBO + "Organisation"), "company", 1400),
}
EXTRA_CLASS_LABELS = {
    DBO + "Place": "place",
    DBO + "Organisation": "organisation",
    DBO + "Artist": "artist",
}
ARTIST_SHARE = 0.3  # people also typed dbo:Artist

# predicate IRI, label, subject class, object class, edges per subject
# (a float below 1 is the share of subjects with one edge), Zipf exponent
# over the object ranks (0 = uniform).
RELATIONS = (
    (DBO + "starring", "starring", "film", "person", 3, 1.1),
    (DBO + "director", "director", "film", "person", 1, 0.8),
    (DBO + "producer", "producer", "film", "person", 0.5, 0.8),
    (DBO + "author", "author", "book", "person", 1, 1.0),
    (DBO + "publisher", "publisher", "book", "org", 1, 1.2),
    (DBO + "birthPlace", "birth place", "person", "city", 0.9, 1.2),
    (DBO + "deathPlace", "death place", "person", "city", 0.4, 1.2),
    (DBO + "restingPlace", "resting place", "person", "city", 0.1, 1.0),
    (DBO + "spouse", "spouse", "person", "person", 0.2, 0.0),
    (DBO + "child", "child", "person", "person", 0.25, 0.0),
    (DBO + "employer", "employer", "person", "org", 0.4, 1.1),
    (DBO + "country", "country", "city", "country", 1, 1.0),
    (DBO + "headquarter", "headquarter", "org", "city", 1, 1.2),
    (DBO + "foundedBy", "founder", "org", "person", 1, 0.0),
    (DBO + "leader", "leader", "city", "person", 1, 0.0),
    (DBO + "capital", "capital", "country", "city", 1, 0.0),
)
# Predicates that repeat a label of another predicate: same subject, and the
# same object as the original with probability ``same``.  They tie in
# ranking with the predicate they copy.
SHARED_LABELS = (
    (DBP + "director", DBO + "director", 0.4, 0.6),
    (DBP + "placeOfBirth", DBO + "birthPlace", 0.2, 0.8),
    (DBP + "country", DBO + "country", 0.3, 0.5),
)
# predicate IRI, label, subject class, share of subjects, literal kind
LITERALS = (
    (DBO + "birthDate", "birth date", "person", 0.6, "date"),
    (DBO + "releaseDate", "release date", "film", 0.7, "date"),
    (DBO + "populationTotal", "population", "city", 1.0, "integer"),
    (DBO + "budget", "budget", "film", 0.4, "double"),
    (DBO + "numberOfPages", "number of pages", "book", 0.6, "integer"),
)

# How a question names a predicate: noun words for "the X of S" (S is the
# subject), verb for "Which Ys were V by S" (S is the object).
NOUN_WORDS = {
    DBO + "director": ("director",),
    DBO + "producer": ("producer",),
    DBO + "author": ("author",),
    DBO + "publisher": ("publisher",),
    DBO + "birthPlace": ("birth", "place"),
    DBO + "deathPlace": ("death", "place"),
    DBO + "restingPlace": ("resting", "place"),
    DBO + "spouse": ("wife",),
    DBO + "child": ("child",),
    DBO + "employer": ("employer",),
    DBO + "country": ("country",),
    DBO + "headquarter": ("headquarter",),
    DBO + "foundedBy": ("founder",),
    DBO + "leader": ("mayor",),
    DBO + "capital": ("capital",),
    DBO + "birthDate": ("birth", "date"),
    DBO + "releaseDate": ("release", "date"),
    DBO + "populationTotal": ("population",),
    DBO + "budget": ("budget",),
}
VERBS = {
    DBO + "director": "directed",
    DBO + "producer": "produced",
    DBO + "author": "written",
    DBO + "publisher": "published",
    DBO + "foundedBy": "founded",
}
PLURALS = {"film": "films", "book": "books", "org": "companies"}
# classes whose members are people or organisations: asked with "Who"
WHO_CLASSES = ("person", "org")

SYNONYMS = (
    ("mayor", "leader", 0.71),
    ("wife", "spouse", 0.85),
    ("husband", "spouse", 0.85),
    ("directed", "director", 0.8),
    ("produced", "producer", 0.8),
    ("written", "author", 0.7),
    ("published", "publisher", 0.8),
    ("founded", "founder", 0.85),
    ("movies", "film", 0.9),
    ("town", "city", 0.8),
    ("nation", "country", 0.8),
    ("place", "location", 0.6),
    ("starring", "actor", 0.6),
    ("company", "organisation", 0.7),
    ("date", "time", 0.5),
)
FILLER_PAIRS_PER_ENTITY = 0.25

TEMPLATE_WORDS = (
    "who what which is the of were by give me all and starring directed produced films"
).split()

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _vocabulary() -> set[str]:
    """Every word a generated question or label can contain; names avoid them."""
    words = set(TEMPLATE_WORDS) | set(STOP_WORDS) | set(VERBS.values()) | set(PLURALS.values())
    for a, b, _score in SYNONYMS:
        words.update((a, b))
    for group in NOUN_WORDS.values():
        words.update(group)
    for label in [c[1] for c in CLASSES.values()] + list(EXTRA_CLASS_LABELS.values()):
        words.update(label.split())
    for row in RELATIONS + LITERALS:
        words.update(row[1].split())
    return words


def _name_tokens(rng: random.Random, count: int, banned: set[str]) -> list[str]:
    """``count`` distinct capitalised pseudo-words of two or three syllables."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = sorted(
        {a + b for a in syllables for b in syllables}
        | {a + b + c for a in syllables[:20] for b in syllables for c in syllables[:20]}
    )
    rng.shuffle(words)
    out = [w.capitalize() for w in words if w not in banned]
    if len(out) < count:
        raise ValueError("name vocabulary too small")
    return out[:count]


def _zipf_counts(total: int, n: int, s: float) -> list[int]:
    """Edge counts by object rank summing to ``total``, fixed for a given n."""
    if s == 0.0:
        base = [total // n] * n
        for i in range(total - sum(base)):
            base[i] += 1
        return base
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    norm = total / sum(weights)
    counts = [int(w * norm) for w in weights]
    for i in range(total - sum(counts)):
        counts[i % n] += 1
    return counts


class Store:
    """The generated graph: triples in insertion order plus adjacency."""

    def __init__(self) -> None:
        self.triples: list[tuple] = []
        self.seen: set[tuple] = set()
        self.labels: dict[str, list[str]] = {}
        self.types: dict[str, list[str]] = {}
        self.adj: dict[object, list[tuple]] = {}

    def add(self, s: str, p: str, o) -> None:
        t = (s, p, o)
        if t in self.seen:
            return
        self.seen.add(t)
        self.triples.append(t)
        self.adj.setdefault(s, []).append((p, o, "out"))
        self.adj.setdefault(o, []).append((p, s, "in"))
        if p == RDFS_LABEL and isinstance(o, Lit):
            self.labels.setdefault(s, []).append(o.lexical)
        elif p == RDF_TYPE:
            self.types.setdefault(s, []).append(o)

    def degree(self, node) -> int:
        return len(self.adj.get(node, ()))


def build_store(rng: random.Random, scale: float, banned: set[str]):
    """Return (store, members by class, entity names, unused name tokens)."""
    store = Store()
    counts = {key: max(2, int(base * scale)) for key, (_i, _l, base) in CLASSES.items()}
    n_entities = sum(counts.values())
    tokens = _name_tokens(rng, int((2 * n_entities + 8 * TAIL_QUESTIONS) ** 0.5) + 1, banned)
    pairs = [(a, b) for a in tokens for b in tokens if a != b]
    rng.shuffle(pairs)
    names = {}
    members: dict[str, list[str]] = {}
    idx = 0
    for key in CLASSES:
        iris = []
        for _ in range(counts[key]):
            first, second = pairs[idx]
            idx += 1
            iri = RES + first + "_" + second
            names[iri] = first + " " + second
            iris.append(iri)
        members[key] = iris
    unused_names = [a + " " + b for a, b in pairs[idx : idx + 4 * TAIL_QUESTIONS]]

    for iri in sorted(EXTRA_CLASS_LABELS):
        store.add(iri, RDFS_LABEL, Lit(EXTRA_CLASS_LABELS[iri]))
    for key, (iris, label, _base) in CLASSES.items():
        store.add(iris[0], RDFS_LABEL, Lit(label))
    for pred, label, *_rest in RELATIONS + LITERALS:
        store.add(pred, RDFS_LABEL, Lit(label))
    for pred, original, _share, _same in SHARED_LABELS:
        store.add(pred, RDFS_LABEL, Lit(next(r[1] for r in RELATIONS if r[0] == original)))

    for key, (class_iris, _label, _base) in CLASSES.items():
        for iri in members[key]:
            store.add(iri, RDFS_LABEL, Lit(names[iri]))
            for cls in class_iris:
                store.add(iri, RDF_TYPE, cls)
    artists = members["person"][:]
    rng.shuffle(artists)
    for iri in sorted(artists[: int(len(artists) * ARTIST_SHARE)]):
        store.add(iri, RDF_TYPE, DBO + "Artist")

    relation_edges: dict[str, list[tuple[str, str]]] = {}
    for pred, _label, skey, okey, per_subject, s in RELATIONS:
        subjects = members[skey][:]
        rng.shuffle(subjects)
        if per_subject < 1:
            subjects = subjects[: int(len(subjects) * per_subject)]
            per_subject = 1
        total = len(subjects) * per_subject
        objects = members[okey][:]
        rng.shuffle(objects)  # which member gets which rank
        slots = []
        for obj, c in zip(objects, _zipf_counts(total, len(objects), s)):
            slots.extend([obj] * c)
        rng.shuffle(slots)
        edges = []
        for i, subj in enumerate(sorted(subjects)):
            for obj in slots[i * per_subject : (i + 1) * per_subject]:
                if obj != subj:
                    edges.append((subj, obj))
        for subj, obj in edges:
            store.add(subj, pred, obj)
        relation_edges[pred] = edges
    for pred, original, share, same in SHARED_LABELS:
        okey = next(r[3] for r in RELATIONS if r[0] == original)
        for subj, obj in relation_edges[original]:
            if rng.random() < share:
                other = obj if rng.random() < same else rng.choice(members[okey])
                if other != subj:
                    store.add(subj, pred, other)

    for pred, _label, skey, share, kind in LITERALS:
        for subj in members[skey]:
            if rng.random() >= share:
                continue
            if kind == "date":
                value = Lit(
                    f"{rng.randrange(1850, 2015)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
                    DATE,
                )
            elif kind == "integer":
                value = Lit(str(rng.randrange(80, 5_000_000)), INTEGER)
            else:
                value = Lit(f"{rng.randrange(1, 300)}.{rng.randrange(10)}E6", DOUBLE)
            store.add(subj, pred, value)
    return store, members, names, unused_names


def write_store(store: Store, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for s, p, o in store.triples:
            out.write(f"<{s}> <{p}> {reference.term_text(o)} .\n")


def write_gazetteer(names: dict[str, str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("# surface\tentity IRI\tprior\tkind\n")
        for iri in sorted(names):
            out.write(f"{names[iri].lower()}\t{iri}\t0.9\tResource\n")
        for key, (iris, label, _base) in CLASSES.items():
            out.write(f"{label}\t{iris[0]}\t0.8\tClass\n")


def lexicon_text(rng: random.Random, n_entities: int) -> str:
    lines = ["# word1\tword2\tsimilarity in [0, 1]"]
    for a, b, score in SYNONYMS:
        lines.append(f"{a}\t{b}\t{score}")
    # Filler pairs between words no question or label uses, so the file has
    # the size of a real synonym lexicon without changing any answer.
    for i in range(int(n_entities * FILLER_PAIRS_PER_ENTITY)):
        a = "".join(rng.choice("qxjwy") for _ in range(3)) + str(i)
        b = "".join(rng.choice("qxjwy") for _ in range(4)) + str(i)
        lines.append(f"{a}\t{b}\t{rng.randrange(1, 100) / 100}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Question templates.  Each returns (question text, bracketed tree).


def _nnp(name: str) -> str:
    return "(NP " + " ".join(f"(NNP {w})" for w in name.split()) + ")"


def _nouns(words) -> str:
    return " ".join(f"(NN {w})" for w in words)


def q_single_np(wh: str, words, name: str):
    text = f"{wh} is the {' '.join(words)} of {name}?"
    tree = (
        f"(SBARQ (WHNP (WP {wh})) (SQ (VBZ is) (NP (NP (DT the) {_nouns(words)}) "
        f"(PP (IN of) {_nnp(name)}))) (. ?))"
    )
    return text, tree


def q_single_vp(plural: str, verb: str, name: str):
    text = f"Which {plural} were {verb} by {name}?"
    tree = (
        f"(SBARQ (WHNP (WDT Which) (NNS {plural})) (SQ (VBD were) (VP (VBN {verb}) "
        f"(PP (IN by) {_nnp(name)}))) (. ?))"
    )
    return text, tree


def q_films(name_a: str, name_b: str, name_c: str | None = None):
    """Films starring A and directed by B (and produced by C: three edges)."""
    text = f"Give me all films starring {name_a} and directed by {name_b}"
    vps = f"(VP (VBG starring) {_nnp(name_a)}) (CC and) (VP (VBN directed) (PP (IN by) {_nnp(name_b)}))"
    if name_c is not None:
        text += f" and produced by {name_c}"
        vps += f" (CC and) (VP (VBN produced) (PP (IN by) {_nnp(name_c)}))"
    tree = f"(S (VP (VB Give) (NP (PRP me)) (NP (NP (DT all) (NNS films)) (VP {vps}))) (. .))"
    return text + ".", tree


def q_chain(wh: str, words_a, words_s, name: str):
    text = f"{wh} is the {' '.join(words_a)} of the {' '.join(words_s)} of {name}?"
    tree = (
        f"(SBARQ (WHNP (WP {wh})) (SQ (VBZ is) (NP (NP (DT the) {_nouns(words_a)}) "
        f"(PP (IN of) (NP (NP (DT the) {_nouns(words_s)}) (PP (IN of) {_nnp(name)}))))) (. ?))"
    )
    return text, tree


def q_films_chain(words_a, name: str):
    text = f"Who is the {' '.join(words_a)} of the films starring {name}?"
    tree = (
        f"(SBARQ (WHNP (WP Who)) (SQ (VBZ is) (NP (NP (DT the) {_nouns(words_a)}) "
        f"(PP (IN of) (NP (NP (DT the) (NNS films)) (VP (VBG starring) {_nnp(name)}))))) (. ?))"
    )
    return text, tree


# ---------------------------------------------------------------------------


class QuestionMaker:
    def __init__(self, rng, store, members, names, unused_names):
        self.rng = rng
        self.store = store
        self.members = members
        self.names = names
        self.unused = list(unused_names)
        self.class_of = {iri: key for key, iris in members.items() for iri in iris}
        self.used: set[str] = set()
        self.questions: list[dict] = []
        self.specs: list[dict] = []

    def add(self, text_tree, spec: dict) -> None:
        text, tree = text_tree
        qid = f"q{len(self.questions):05d}"
        self.questions.append({"id": qid, "question": text, "tree": tree})
        self.specs.append(spec)

    def out_edges(self, node, preds) -> list[tuple[str, object]]:
        return sorted(
            ((p, o) for p, o, d in self.store.adj.get(node, ()) if d == "out" and p in preds),
            key=lambda po: (po[0], reference.term_text(po[1])),
        )

    def in_edges(self, node, preds) -> list[tuple[str, str]]:
        return sorted((p, o) for p, o, d in self.store.adj.get(node, ()) if d == "in" and p in preds)

    def wh_for(self, pred: str) -> str:
        okey = next((r[3] for r in RELATIONS if r[0] == pred), None)
        return "Who" if okey in WHO_CLASSES else "What"

    # -- single edge ---------------------------------------------------------

    def single(self, seed: str) -> bool:
        """A one-edge question about ``seed``; False if it has no usable edge."""
        rng = self.rng
        outs = self.out_edges(seed, NOUN_WORDS)
        ins = self.in_edges(seed, VERBS)
        if ins and (not outs or rng.random() < 0.3):
            pred, subj = rng.choice(ins)
            plural = PLURALS[self.class_of[subj]]
            self.add(q_single_vp(plural, VERBS[pred], self.names[seed]),
                     {"kind": "single", "seeds": [seed], "phrase": f"{VERBS[pred]} by",
                      "focus": (plural, plural, ())})
            return True
        if not outs:
            return False
        pred, _obj = rng.choice(outs)
        words = NOUN_WORDS[pred]
        wh = self.wh_for(pred)
        focus = ("", "", ("Person", "Organization")) if wh == "Who" else (
            " ".join(words), words[-1], ())
        self.add(q_single_np(wh, words, self.names[seed]),
                 {"kind": "single", "seeds": [seed], "phrase": " ".join(words) + " of",
                  "focus": focus})
        return True

    # -- triangle ------------------------------------------------------------

    def film_seeds(self, film: str) -> tuple[str, str] | None:
        """A low-degree, unused actor and director of a film."""
        def ok(x):
            return x not in self.used and self.store.degree(x) <= TAIL_MAX_DEGREE

        actors = [o for _p, o in self.out_edges(film, (DBO + "starring",)) if ok(o)]
        directors = [o for _p, o in self.out_edges(film, (DBO + "director",))
                     if ok(o) and o not in actors]
        if not actors or not directors:
            return None
        return actors[0], directors[0]

    def film_triangle(self, film: str) -> bool:
        """Films starring A and directed by B."""
        seeds = self.film_seeds(film)
        if seeds is None:
            return False
        a, d = seeds
        self.used.update(seeds)
        self.add(q_films(self.names[a], self.names[d]),
                 {"kind": "triangle", "seeds": [a, d], "phrases": ["starring", "directed by"],
                  "focus": ("films", "films", ())})
        return True

    def three_edges(self, people: list[str]) -> None:
        """Films starring A, directed by B and produced by C: three edges,
        which structure extraction rejects before any traversal."""
        self.used.update(people)
        self.add(q_films(*(self.names[x] for x in people)),
                 {"kind": "reject", "stage": "structure_extraction"})

    # -- chain ---------------------------------------------------------------

    def chain_hop(self, seed: str, pred_s: str) -> list[str] | None:
        """The further noun-word predicates of the first node reached from
        ``seed`` via ``pred_s``; None if that node has none."""
        hops = [o for p, o in self.out_edges(seed, (pred_s,)) if isinstance(o, str)]
        if not hops:
            return None
        nexts = [p for p, o in self.out_edges(hops[0], NOUN_WORDS) if p != pred_s]
        return nexts or None

    def chain(self, seed: str, pred_s: str) -> bool:
        """seed --pred_s--> var --pred_a--> answer, asked from the seed."""
        rng = self.rng
        nexts = self.chain_hop(seed, pred_s)
        if nexts is None:
            return False
        pred_a = rng.choice(sorted(set(nexts)))
        wh = self.wh_for(pred_a)
        words_a, words_s = NOUN_WORDS[pred_a], NOUN_WORDS[pred_s]
        focus = ("", "", ("Person", "Organization")) if wh == "Who" else (
            " ".join(words_a), words_a[-1], ())
        self.add(q_chain(wh, words_a, words_s, self.names[seed]),
                 {"kind": "chain", "seeds": [seed], "phrases": [" ".join(words_a) + " of",
                                                                " ".join(words_s) + " of"],
                  "focus": focus})
        return True

    def chain_films(self, actor: str) -> None:
        """"Who is the director of the films starring A?": every film of the
        actor is an intermediate node, so ranking fans out."""
        self.add(q_films_chain(NOUN_WORDS[DBO + "director"], self.names[actor]),
                 {"kind": "chain", "seeds": [actor], "phrases": ["director of", "starring"],
                  "focus": ("", "", ("Person", "Organization"))})

    def unlinkable(self) -> None:
        name = self.unused.pop()
        pred = self.rng.choice(sorted(NOUN_WORDS))
        self.add(q_single_np(self.wh_for(pred), NOUN_WORDS[pred], name),
                 {"kind": "reject", "stage": "entity_linking"})


def hub_chain_plan(maker: QuestionMaker) -> list[tuple[str, str | None]]:
    """The HUB_ROUND (seed, first predicate or None for the fan-out) pairs.

    The seed roles are fixed by degree rank, so every seed gets the same
    mix: the top cities, countries and companies (hubs themselves), and a
    person born in a top city, a film by a top director and a person
    employed by a top employer (each next to a hub); and the top actors,
    asked for the directors of their films, which fans out over every film.
    Each role is filled at the first HUB_RANKS degree ranks, so the costs
    form a spread of values rather than seven steps, and a percentile does
    not sit on the gap between two roles.
    """
    store, members = maker.store, maker.members

    def top(key, rank, pred=None, usable=None):
        """The member at ``rank`` by degree (in ``pred`` edges if given),
        counting only the ``usable`` ones."""
        def deg(x):
            if pred is None:
                return store.degree(x)
            return sum(1 for p, _o, d in store.adj.get(x, ()) if p == pred and d == "in")
        ranked = sorted(members[key], key=lambda x: (deg(x), x), reverse=True)
        return next(itertools.islice(filter(usable, ranked), rank, None))

    def chain_subjects(obj, pred):
        """Subjects of ``pred`` edges into ``obj`` that a chain via ``pred``
        can start from."""
        subjects = sorted(s for p, s, d in store.adj[obj] if p == pred and d == "in")
        return [s for s in subjects if maker.chain_hop(s, pred)]

    def next_to(key, rank, pred):
        """A chain seed one ``pred`` edge from the ``rank``-th ``key`` hub."""
        hub = top(key, rank, pred, lambda x: chain_subjects(x, pred))
        return chain_subjects(hub, pred)[0], pred

    plan = []
    for rank in range(HUB_RANKS):
        plan += [
            (top("city", rank, usable=lambda x: maker.chain_hop(x, DBO + "leader")),
             DBO + "leader"),
            next_to("city", rank, DBO + "birthPlace"),
            (top("country", rank, usable=lambda x: maker.chain_hop(x, DBO + "capital")),
             DBO + "capital"),
            next_to("person", rank, DBO + "director"),
            (top("org", rank, usable=lambda x: maker.chain_hop(x, DBO + "headquarter")),
             DBO + "headquarter"),
            (top("person", rank, DBO + "starring"), None),
            next_to("org", rank, DBO + "employer"),
        ]
    return plan


def hub_chain_questions(maker: QuestionMaker) -> None:
    """Two-hop chains, HUB_CHAIN_ROUNDS rounds over the seeds in order."""
    plan = hub_chain_plan(maker)
    if len(set(plan)) != HUB_ROUND:
        raise ValueError("hub_chain plan does not have HUB_ROUND distinct seeds")
    for _round in range(HUB_CHAIN_ROUNDS):
        for seed, pred_s in plan:
            if pred_s is None:
                maker.chain_films(seed)
            elif not maker.chain(seed, pred_s):
                raise ValueError(f"no chain from {seed} via {pred_s}")


def _strata(items, cost, rng) -> list[list]:
    """Split ``items`` into STRATA equal groups by ascending ``cost``."""
    ordered = sorted(items, key=lambda x: (cost(x), x))
    n = len(ordered)
    groups = [ordered[n * b // STRATA : n * (b + 1) // STRATA] for b in range(STRATA)]
    for group in groups:
        rng.shuffle(group)
    return groups


def _log_bins(items, cost, rng) -> list[list]:
    """Split ``items`` into LOG_BINS groups of equal width in log(cost),
    between the 2nd and the 98th percentile of cost; the ends join the
    outer groups."""
    costs = sorted(cost(x) for x in items)
    lo = math.log(costs[len(costs) // 50])
    hi = math.log(costs[-1 - len(costs) // 50])
    groups: list[list] = [[] for _ in range(LOG_BINS)]
    for x in sorted(items):
        b = int((math.log(cost(x)) - lo) / (hi - lo) * LOG_BINS)
        groups[min(LOG_BINS - 1, max(0, b))].append(x)
    for group in groups:
        rng.shuffle(group)
    return groups


def _draw(groups: list[list], k: int, accept) -> None:
    """Use the next item of group ``k * STRIDE mod len(groups)`` that
    ``accept``s, moving on to the following groups if that one runs out."""
    first = (k * STRIDE) % len(groups)
    for step in range(len(groups)):
        group = groups[(first + step) % len(groups)]
        while group:
            if accept(group.pop()):
                return
    raise ValueError("no candidate left")


def tail_questions(maker: QuestionMaker, count: int, mixed: bool) -> None:
    """Questions from distinct low-degree seeds.

    With ``mixed`` the pool repeats a fixed 16-question pattern: nine single
    edges, three triangles and four rejected questions (two unlinkable
    mentions, two three-edge structures).  Without it, single edges only.

    Seeds are drawn by neighbourhood size (the summed degree of the seed's
    neighbours, which is what a one-hop question reads), cycling through
    all groups, so any prefix of the list has the same cost mix for every
    seed, which keeps percentiles steady.  Single-edge seeds come from every
    class, evenly from LOG_BINS bins of equal width in log(size): their
    costs then spread evenly over a wide range (about six-fold), so the
    median and the 90th percentile do not sit on a gap between two classes,
    and a host that runs some questions slower than others moves a
    percentile about as much as it moves the mean.  Triangle seeds are drawn
    from STRATA equal-count strata of their summed size.
    """
    store, members, rng = maker.store, maker.members, maker.rng

    def ball(x) -> int:
        return sum(store.degree(o) for _p, o, _d in store.adj[x])

    pool = [x for key in ("person", "film", "book", "city", "org") for x in members[key]
            if store.degree(x) <= TAIL_MAX_DEGREE]
    singles = _log_bins(pool, ball, rng)
    people = [x for x in members["person"] if store.degree(x) <= TAIL_MAX_DEGREE]
    film_cost = {}
    for film in members["film"]:
        seeds = maker.film_seeds(film)
        if seeds is not None:
            film_cost[film] = sum(ball(x) for x in seeds)
    films = _strata(sorted(film_cost), film_cost.__getitem__, rng)

    def single(seed) -> bool:
        if seed in maker.used or not maker.single(seed):
            return False
        maker.used.add(seed)
        return True

    people = people[:]
    rng.shuffle(people)

    pattern = ("s", "s", "t", "s", "u", "s", "s", "t", "3", "s", "s", "u", "s", "t", "3", "s")
    if not mixed:
        pattern = ("s",)
    drawn = {"s": 0, "t": 0}
    while len(maker.questions) < count:
        kind = pattern[len(maker.questions) % len(pattern)]
        if kind == "u":
            maker.unlinkable()
        elif kind == "s":
            _draw(singles, drawn["s"], single)
            drawn["s"] += 1
        elif kind == "t":
            _draw(films, drawn["t"], maker.film_triangle)
            drawn["t"] += 1
        else:
            three = []
            while len(three) < 3:
                person = people.pop()
                if person not in maker.used:
                    three.append(person)
            maker.three_edges(three)


def generate(workload: str, seed: int, out_dir: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # One stream per workload, so the workloads do not share inputs.
    rng = random.Random(f"{workload}:{seed}")
    scale = LARGE_SCALE if workload == "load_large" else QA_SCALE
    store, members, names, unused = build_store(rng, scale, _vocabulary())
    maker = QuestionMaker(rng, store, members, names, unused)
    if workload == "hub_chain":
        hub_chain_questions(maker)
    elif workload == "tail_mixed":
        tail_questions(maker, TAIL_QUESTIONS, mixed=True)
    else:
        tail_questions(maker, LARGE_QUESTIONS, mixed=False)

    lex_text = lexicon_text(rng, len(names))
    os.makedirs(out_dir, exist_ok=True)
    write_store(store, os.path.join(out_dir, "store.nt"))
    write_gazetteer(names, os.path.join(out_dir, "gazetteer.tsv"))
    with open(os.path.join(out_dir, "lexicon.tsv"), "w", encoding="utf-8", newline="\n") as out:
        out.write(lex_text)
    with open(os.path.join(out_dir, "questions.jsonl"), "w", encoding="utf-8", newline="\n") as out:
        for q in maker.questions:
            out.write(json.dumps(q, sort_keys=True) + "\n")

    ref = reference.Reference(store, lex_text)
    with open(os.path.join(out_dir, "expected.tsv"), "w", encoding="utf-8", newline="\n") as out:
        for q, spec in zip(maker.questions, maker.specs):
            status, stage, answers = ref.expected(spec)
            out.write("\t".join([q["id"], status, stage or "-", *answers]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
