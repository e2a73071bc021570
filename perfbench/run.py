"""graphqa benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload hub_chain --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed (in a child process, so the
generator's memory is not counted), checks the golden fixtures, loads the
generated files as the command line would, then measures.

* ``hub_chain`` loads the store ``SETUP_REPEATS`` times and then answers
  questions in a closed loop for ``--seconds``.
* ``tail_mixed`` loads the store ``SETUP_REPEATS`` times and after each load
  answers questions for an equal share of ``--seconds``.
* ``load_large`` loads a three-times-larger store ``LARGE_LOADS`` times and
  after each load answers its single-edge sanity questions for an equal
  share of half of ``--seconds``.

Every answer is compared with the generated expected record (and, for the
default seed, with the committed record in ``perfbench/expected/``).  With
``--trace 1`` a third of the time runs untraced, then the same questions are
answered traced, which gives the per-layer metrics, and once more with the
garbage collector on.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every answer and the golden check are correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
EXPECTED_DIR = os.path.join(HERE, "expected")

WORKLOADS = ("hub_chain", "tail_mixed", "load_large")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
LARGE_LOADS = 2
WARMUP_S = 0.5
GOLDEN = {"total": 5, "right": 4, "partial": 1, "avg_f1": 0.9143}
GEN_TIMEOUT_S = 300


def _require_program():
    """Import graphqa from this checkout's ``src``, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "graphqa", "__init__.py")):
        sys.stderr.write(f"perfbench: no graphqa sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def rss_bytes() -> int:
    """Current resident set size; falls back to the peak where unavailable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return peak_rss_bytes()


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python task: tells host speed drift apart
    from a change in the program when runs are compared."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        sorted(str(i * 7919 % 100003) for i in range(100_000))
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def generate(workload: str, seed: int) -> str:
    """Write the workload's inputs for ``seed``, replacing the last run's."""
    out = os.path.join(WORK, workload)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", out],
        check=True, timeout=GEN_TIMEOUT_S,
    )
    return out


def golden_check() -> bool:
    from graphqa import (PipelineConfig, load_dataset, load_gazetteer_file,
                         load_lexicon_file, load_ntriples_file, run_dataset)

    fx = os.path.join(ROOT, "fixtures")
    report = run_dataset(
        load_ntriples_file(os.path.join(fx, "golden.nt")),
        load_gazetteer_file(os.path.join(fx, "gazetteer.tsv")),
        load_lexicon_file(os.path.join(fx, "lexicon.tsv")),
        PipelineConfig(),
        load_dataset(os.path.join(fx, "golden.jsonl")),
    )
    got = {"total": report.total, "right": report.right, "partial": report.partial,
           "avg_f1": round(report.avg_f1, 4)}
    if got != GOLDEN:
        print(f"golden check FAILED: {got} != {GOLDEN}")
        return False
    print(f"golden check ok: {got}")
    return True


def load_expected(data_dir: str, workload: str, seed: int) -> tuple[dict, bool]:
    """Expected records by question id, and whether they match the committed
    record (always true for seeds without one)."""
    with open(os.path.join(data_dir, "expected.tsv"), encoding="utf-8") as handle:
        text = handle.read()
    ok = True
    committed = os.path.join(EXPECTED_DIR, f"{workload}-seed{seed}.tsv")
    if os.path.isfile(committed):
        with open(committed, encoding="utf-8") as handle:
            ok = handle.read() == text
        if not ok:
            print(f"generated expected answers differ from {os.path.relpath(committed, ROOT)}")
    records = {}
    for line in text.splitlines():
        qid, status, stage, *answers = line.split("\t")
        records[qid] = {"status": status, "stage": None if stage == "-" else stage,
                        "answers": answers}
    return records, ok


class Loader:
    """Loads the three input files, timing each; keeps the last set."""

    def __init__(self, data_dir: str):
        self.paths = [os.path.join(data_dir, n) for n in ("store.nt", "gazetteer.tsv", "lexicon.tsv")]
        self.times: list[float] = []
        self.bytes_per_triple: float | None = None
        self.loaded = None

    def load(self, tracer=None):
        from graphqa import load_gazetteer_file, load_lexicon_file, load_ntriples_file

        self.loaded = None
        gc.collect()
        measure_rss = self.bytes_per_triple is None
        before = rss_bytes() if measure_rss else 0
        t0 = perf_counter()
        if tracer is None:
            kb = load_ntriples_file(self.paths[0])
            after_kb = rss_bytes() if measure_rss else 0
            gaz = load_gazetteer_file(self.paths[1])
            lex = load_lexicon_file(self.paths[2])
        else:
            import tracing

            with tracing.install_load(tracer):
                kb = tracer.run_span("kbstore.load", load_ntriples_file, self.paths[0])
            after_kb = rss_bytes() if measure_rss else 0
            gaz = tracer.run_span("entitylink.gazetteer_load", load_gazetteer_file, self.paths[1])
            lex = tracer.run_span("lexsim.lexicon_load", load_lexicon_file, self.paths[2])
        self.times.append(perf_counter() - t0)
        if measure_rss:
            self.bytes_per_triple = (after_kb - before) / max(1, len(kb))
        self.loaded = (kb, gaz, lex)


def check_answer(trace, expected: dict) -> bool:
    from reference import term_text

    got = {
        "status": trace.status,
        "stage": trace.failed_stage,
        "answers": sorted(term_text(a) for a in trace.answers),
    }
    return all(got[k] == expected[k] for k in got)


class Loop:
    """Closed loop over a question list, one client, checking each answer."""

    def __init__(self, expected):
        from graphqa import PipelineConfig

        self.kb = self.gaz = self.lex = None
        self.cfg = PipelineConfig()
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def use(self, loaded) -> None:
        """Answer from ``loaded`` (store, gazetteer, lexicon) from now on."""
        self.kb, self.gaz, self.lex = loaded

    def run(self, questions, seconds: float | None, tracer=None, limit: int | None = None,
            rounds: int = 1, gc_meter=None):
        """Answer questions until ``seconds`` pass or ``limit`` questions are
        done; returns per-question latencies and wall time.

        Time-bounded runs stop only at a multiple of ``rounds`` questions, so
        each hub_chain seed is asked equally often.

        The cyclic garbage collector is off inside the loop, as ``timeit``
        does: with the store in memory, a full collection costs 150-250 ms
        and lands on whichever question happens to cross its threshold, so
        it would measure the history of earlier questions, not this one.
        Store loading keeps the collector on; its collections depend only on
        the input and are part of the load cost.  With ``gc_meter`` the
        collector stays on and the meter records its pauses instead."""
        from graphqa import pipeline

        gc.collect()
        if gc_meter is None:
            gc.disable()
        else:
            gc.callbacks.append(gc_meter)
        try:
            return self._run(pipeline, questions, seconds, tracer, limit, rounds)
        finally:
            gc.enable()
            if gc_meter is not None:
                gc.callbacks.remove(gc_meter)

    def _run(self, pipeline, questions, seconds, tracer, limit, rounds):
        latencies: list[float] = []
        start = perf_counter()
        deadline = None if seconds is None else start + seconds
        i = 0
        while True:
            q = questions[i % len(questions)]
            args = (self.kb, self.gaz, self.lex, self.cfg, q)
            t0 = perf_counter()
            try:
                if tracer is None:
                    trace = pipeline.answer(*args)
                else:
                    trace = tracer.answer(q.id, pipeline.answer, *args)
                error = None
            except Exception as exc:  # answer() must be total; count it
                trace, error = None, f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            latencies.append(t1 - t0)
            self.attempted += 1
            if error is None and not check_answer(trace, self.expected[q.id]):
                error = f"got {trace.status}/{trace.failed_stage}/{len(trace.answers)} answers"
            if error is not None:
                self.failed += 1
                self.mismatches.append(f"{q.id}: {error}")
            i += 1
            if limit is not None and i >= limit:
                break
            if deadline is not None and t1 >= deadline and i % rounds == 0:
                break
        return latencies, perf_counter() - start


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_metrics(latencies: list[float], wall: float) -> dict:
    return {
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "qps": (len(latencies) / wall, "1/s"),
    }


def layer_metrics(tracer, untraced: list[float], traced: list[float]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced phase, and the self-time check."""
    selfs = tracer.self_times()
    roots = tracer.root_durations()
    ok = True
    for qid, root in roots.items():
        total = sum(selfs[qid].values())
        if abs(total - root) > 1e-9 + 1e-9 * root:
            print(f"self-time check FAILED for {qid}: {total} != {root}")
            ok = False
    n = max(1, len(roots))

    def mean_self(*names):
        return sum(selfs[q].get(nm, 0.0) for q in roots for nm in names) / n

    def mean_count(key):
        return sum(tracer.per_question.get(q, {}).get(key, 0) for q in roots) / n

    nodes = sum(tracer.per_question.get(q, {}).get("subgraph_nodes", 0) for q in roots)
    bound = sum(tracer.per_question.get(q, {}).get("bound_nodes", 0) for q in roots)
    unique = sum(len(tracer.per_question.get(q, {}).get("pred_keys", ())) for q in roots) / n
    common = len(traced)
    overhead = (statistics.median(traced) - statistics.median(untraced[:common])) * 1e3
    m = {
        "trace.questions": (len(roots), "count"),
        "trace.overhead_ms": (overhead, "ms"),
        "pipeline.answer_s": (sum(roots.values()) / n, "s/question"),
        "pipeline.self_s": (mean_self("pipeline.answer"), "s/question"),
        "entitylink.detect_s": (mean_self("entitylink.detect"), "s/question"),
        "entitylink.mentions_linked": (mean_count("mentions_linked"), "links/question"),
        "intent.parse_s": (mean_self("intent.parse"), "s/question"),
        "intent.align_s": (mean_self("intent.align"), "s/question"),
        "intent.extract_s": (mean_self("intent.extract"), "s/question"),
        "intent.rejected": (mean_count("intent_rejected"), "share"),
        "focus.extract_s": (mean_self("focus.extract"), "s/question"),
        "focus.type_score_s": (mean_self("focus.type_score"), "s/question"),
        "focus.type_score_calls": (mean_count("type_score_calls"), "calls/question"),
        "focus.answers_typed": (mean_count("answers_typed"), "answers/question"),
        "traversal.subgraph_s": (mean_self("traversal.subgraph"), "s/question"),
        "traversal.subgraph_nodes": (mean_count("subgraph_nodes"), "nodes/question"),
        "traversal.subgraph_edges": (mean_count("subgraph_edges"), "edges/question"),
        "traversal.bound_node_ratio": (bound / nodes if nodes else 0.0, "ratio"),
        "traversal.rank_s": (mean_self("traversal.rank"), "s/question"),
        "traversal.predicate_score_calls": (mean_count("predicate_score_calls"), "calls/question"),
        "traversal.predicate_score_unique": (unique, "calls/question"),
        "traversal.paths": (mean_count("paths"), "paths/question"),
        "kbstore.neighbors_calls": (mean_count("neighbors_calls"), "calls/question"),
        "kbstore.neighbors_s": (mean_count("neighbors_s"), "s/question"),
        "kbstore.edges_listed": (mean_count("edges_listed"), "edges/question"),
        "kbstore.labels_of_calls": (mean_count("labels_of_calls"), "calls/question"),
        "kbstore.types_of_calls": (mean_count("types_of_calls"), "calls/question"),
        "lexsim.word_similarity_calls": (mean_count("word_similarity_calls"), "calls/question"),
        "lexsim.tokenize_calls": (mean_count("tokenize_calls"), "calls/question"),
    }
    return m, ok


def setup_layer_metrics(tracer) -> dict:
    return {
        "kbstore.parse_s": (statistics.median(tracer.setup_self("kbstore.load")), "s"),
        "kbstore.build_s": (statistics.median(tracer.setup_durations("kbstore.build")), "s"),
        "entitylink.gazetteer_load_s": (
            statistics.median(tracer.setup_durations("entitylink.gazetteer_load")), "s"),
        "lexsim.lexicon_load_s": (
            statistics.median(tracer.setup_durations("lexsim.lexicon_load")), "s"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from graphqa import load_dataset

    import tracing
    from gen import HUB_ROUND

    data_dir = generate(workload, seed)
    correct = golden_check()
    expected, record_ok = load_expected(data_dir, workload, seed)
    correct = correct and record_ok
    questions = load_dataset(os.path.join(data_dir, "questions.jsonl"))
    loader = Loader(data_dir)
    tracer = tracing.Tracer() if trace else None
    gc.collect()

    # hub_chain loads SETUP_REPEATS times, then answers for --seconds: its
    # seeds repeat on purpose, so one store serves every round.  The other
    # two answer after each load, for an equal share of their question time,
    # so that their questions sample the host over the whole run rather
    # than one stretch of it; they go on through the question list, so no
    # seed is asked twice.  A traced run spends a third of each block
    # untraced, then repeats the same questions traced (on the last store)
    # and once more with the collector on.
    if workload == "hub_chain":
        blocks, loads, ask_for = 1, SETUP_REPEATS, seconds
    elif workload == "tail_mixed":
        blocks, loads, ask_for = SETUP_REPEATS, 1, seconds / SETUP_REPEATS
    else:
        blocks, loads, ask_for = LARGE_LOADS, 1, seconds / 2 / LARGE_LOADS
    loop = Loop(expected)
    remaining = questions
    latencies: list[float] = []
    timed = questions if workload == "hub_chain" else []  # hub_chain cycles its list
    wall = 0.0
    for _ in range(blocks):
        loop.use((None, None, None))  # one store in memory at a time
        for _ in range(loads):
            loader.load(tracer)
        loop.use(loader.loaded)
        # Warm up for WARMUP_S, untimed but checked, so that first-use
        # costs after a load are not timed.
        warm, _ = loop.run(remaining, WARMUP_S)
        if workload != "hub_chain":
            remaining = remaining[len(warm):]
        lat, block_wall = loop.run(
            remaining,
            ask_for / 3 if trace else ask_for,
            rounds=HUB_ROUND if workload == "hub_chain" else 1,
            limit=None if workload == "hub_chain" else len(remaining),
        )
        latencies += lat
        wall += block_wall
        if workload != "hub_chain":
            timed += remaining[:len(lat)]
            remaining = remaining[len(lat):]
    if trace:
        with tracing.install(tracer, loader.loaded[0]):
            traced_lat, _ = loop.run(timed, None, tracer, limit=len(latencies))
        meter = tracing.GcMeter()
        loop.run(timed, None, limit=len(latencies), gc_meter=meter)

    metrics = {
        "setup_s": (statistics.median(loader.times), "s"),
        **latency_metrics(latencies, wall),
        "peak_rss_mb": (peak_rss_bytes() / 2**20, "MB"),
        "kb_bytes_per_triple": (loader.bytes_per_triple, "B"),
        "error_rate": (loop.failed / loop.attempted, "share"),
    }
    for line in loop.mismatches[:20]:
        print("mismatch", line)
    correct = correct and loop.failed == 0
    if trace:
        layer, self_ok = layer_metrics(tracer, latencies, traced_lat)
        correct = correct and self_ok
        metrics.update(layer)
        metrics.update(setup_layer_metrics(tracer))
        metrics["gc.pause_s"] = (meter.pause_s / len(latencies), "s/question")
        metrics["gc.full_collections"] = (meter.full / len(latencies), "calls/question")
        tracer.write(os.path.join(WORK, f"spans-{workload}.jsonl"))
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "questions_timed": len(latencies),
        "loads": len(loader.times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphqa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()

    probe_before = host_probe_ms()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}: {result['questions_timed']} questions "
          f"measured, {result['loads']} store loads")
    print(f"  host probe {probe_before:.1f} ms before, {host_probe_ms():.1f} ms after "
          "(fixed pure-Python task, not a metric)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {unit}")
    wanted = _metric_names("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k][0], "unit": result["metrics"][k][1]}
                    for k in wanted},
    }))
    return 0 if result["correct"] else 1


def _metric_names(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)[kind]]


if __name__ == "__main__":
    sys.exit(main())
