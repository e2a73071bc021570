"""Spans and counters around graphqa's layer calls, installed from outside.

``install`` replaces each layer's public functions with timing wrappers
where the calling module looks them up, and restores them on exit.
``pipeline`` imports its stages with ``from ... import``, so those wrappers
go into ``graphqa.pipeline``'s namespace, not the defining module's; the
ranker's calls to ``type_score`` and ``predicate_score`` are looked up in
``graphqa.traversal``.  The store's query methods are wrapped on the one
store instance being measured.

A span records (name, start, end, parent, question id).  The hot leaf calls
(``tokenize``, ``word_similarity``, ``labels_of``, ``types_of``,
``predicate_score``) are only counted, and ``neighbors`` is counted and
timed without a span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import graphqa.focus as focus_mod
import graphqa.intent as intent_mod
import graphqa.kbstore as kbstore_mod
import graphqa.pipeline as pipeline_mod
import graphqa.traversal as traversal_mod
from graphqa.errors import GraphQAError

# wrapped name in graphqa.pipeline -> span name
PIPELINE_SPANS = {
    "detect_mentions": "entitylink.detect",
    "parse_bracketed": "intent.parse",
    "align_to_question": "intent.align",
    "extract_structure": "intent.extract",
    "extract_focus": "focus.extract",
    "build_subgraph": "traversal.subgraph",
    "enumerate_and_rank": "traversal.rank",
}
ROOT = "pipeline.answer"
TYPE_SCORE = "focus.type_score"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, qid]
        self.stack: list[int] = []
        self.qid: str | None = None
        self.per_question: dict[str, dict] = {}
        self.asked: dict[str, int] = {}

    # -- recording ------------------------------------------------------------

    def stats(self) -> dict:
        """Counters of the current question (or of the set-up phase)."""
        return self.per_question.setdefault(self.qid or "", {"pred_keys": set()})

    def bump(self, key: str, amount: float = 1) -> None:
        st = self.stats()
        st[key] = st.get(key, 0) + amount

    def run_span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = [name, perf_counter(), 0.0, parent, self.qid]
        self.spans.append(record)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            record[2] = perf_counter()

    def spanned(self, name: str, fn, on_result=None, on_error=None):
        def wrapper(*args, **kwargs):
            try:
                result = self.run_span(name, fn, *args, **kwargs)
            except GraphQAError:
                if on_error is not None:
                    on_error()
                raise
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.bump(key)
            return fn(*args, **kwargs)

        return wrapper

    def answer(self, qid: str, fn, *args):
        """Run one ``answer()`` call as the root span of a question.

        Spans and counters are keyed ``qid#n`` for the n-th traced answer of
        ``qid``, since a closed loop may ask a question more than once.
        """
        self.asked[qid] = self.asked.get(qid, 0) + 1
        self.qid = f"{qid}#{self.asked[qid]}"
        try:
            trace = self.run_span(ROOT, fn, *args)
            self._bound_nodes(trace)
            return trace
        finally:
            self.qid = None

    def _bound_nodes(self, trace) -> None:
        """Seeds plus distinct nodes bound in the returned paths."""
        if trace.structure is None or not trace.paths:
            return
        nodes = set(trace.structure.seed_entities())
        for path in trace.paths:
            nodes.update(path.answers)
            nodes.update(node for _name, node in path.var_bindings)
        self.bump("bound_nodes", len(nodes))

    # -- analysis ---------------------------------------------------------------

    def _self_time(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _n, start, end, _p, _q in self.spans]
        for i, (_n, _s, _e, parent, _q) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= _duration(self.spans[i])
        return own

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per question key, span name -> summed self time in seconds."""
        out: dict[str, dict[str, float]] = {}
        for (name, _s, _e, _p, qid), own in zip(self.spans, self._self_time()):
            if qid is not None:
                per = out.setdefault(qid, {})
                per[name] = per.get(name, 0.0) + own
        return out

    def root_durations(self) -> dict[str, float]:
        return {qid: end - start for name, start, end, parent, qid in self.spans
                if name == ROOT and parent < 0}

    def setup_durations(self, name: str) -> list[float]:
        """Inclusive durations of the set-up spans called ``name``."""
        return [_duration(span) for span in self.spans if span[0] == name and span[4] is None]

    def setup_self(self, name: str) -> list[float]:
        """Self times of the set-up spans called ``name``."""
        return [own for span, own in zip(self.spans, self._self_time())
                if span[0] == name and span[4] is None]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, qid in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "question": qid}) + "\n")


class GcMeter:
    """A ``gc.callbacks`` entry summing collector pauses and full collections."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.full = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.pause_s += perf_counter() - self._start
            self.full += info["generation"] == 2


@contextmanager
def install(tracer: Tracer, kb=None):
    """Wrap the layer boundaries for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def linked(result, _args):
        tracer.bump("mentions_linked", len(result))

    def rejected():
        tracer.bump("intent_rejected")

    def subgraph(result, _args):
        tracer.bump("subgraph_nodes", len(result.nodes))
        tracer.bump("subgraph_edges", sum(len(e) for e in result.adjacency.values()))

    def ranked(result, _args):
        tracer.bump("paths", len(result))

    def typed(_result, args):
        tracer.bump("type_score_calls")
        tracer.bump("answers_typed", len(args[1]))

    on_result = {
        "detect_mentions": linked,
        "build_subgraph": subgraph,
        "enumerate_and_rank": ranked,
    }
    intent_calls = ("parse_bracketed", "align_to_question", "extract_structure")
    for attr, span_name in PIPELINE_SPANS.items():
        original = getattr(pipeline_mod, attr)
        patch(pipeline_mod, attr, tracer.spanned(
            span_name, original, on_result.get(attr),
            rejected if attr in intent_calls else None))

    patch(traversal_mod, "type_score",
          tracer.spanned(TYPE_SCORE, traversal_mod.type_score, typed))

    predicate_score = traversal_mod.predicate_score

    def scored(kb_, predicate, phrase, lex, extra_phrase=None):
        st = tracer.stats()
        st["predicate_score_calls"] = st.get("predicate_score_calls", 0) + 1
        st["pred_keys"].add((predicate, phrase, extra_phrase))
        return predicate_score(kb_, predicate, phrase, lex, extra_phrase)

    patch(traversal_mod, "predicate_score", scored)
    for module in (traversal_mod, focus_mod):
        patch(module, "word_similarity",
              tracer.counted("word_similarity_calls", module.word_similarity))
    for module in (traversal_mod, focus_mod, intent_mod):
        patch(module, "tokenize", tracer.counted("tokenize_calls", module.tokenize))

    if kb is not None:
        neighbors = kb.neighbors

        def timed_neighbors(node):
            t0 = perf_counter()
            result = neighbors(node)
            st = tracer.stats()
            st["neighbors_s"] = st.get("neighbors_s", 0.0) + perf_counter() - t0
            st["neighbors_calls"] = st.get("neighbors_calls", 0) + 1
            st["edges_listed"] = st.get("edges_listed", 0) + len(result)
            return result

        patch(kb, "neighbors", timed_neighbors)
        patch(kb, "labels_of", tracer.counted("labels_of_calls", kb.labels_of))
        patch(kb, "types_of", tracer.counted("types_of_calls", kb.types_of))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


@contextmanager
def install_load(tracer: Tracer):
    """Split store loading into parsing and index building.

    ``load_ntriples`` looks ``KnowledgeBase`` up in ``graphqa.kbstore``, so a
    span there times the index build; the rest of the load span is parsing.
    """
    original = kbstore_mod.KnowledgeBase
    kbstore_mod.KnowledgeBase = tracer.spanned("kbstore.build", original)
    try:
        yield tracer
    finally:
        kbstore_mod.KnowledgeBase = original


_MISSING = object()


def _duration(span) -> float:
    """Inclusive duration of a recorded span."""
    return span[2] - span[1]
