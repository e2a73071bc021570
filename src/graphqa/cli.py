"""Command-line interface: ask single questions, run batch evaluation.

Exit codes: 0 for answered or unprocessed questions; 1 for usage errors,
an out-of-range flag value included, reported before any file is read;
2 for a file that is missing or malformed, or a dataset with no questions.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import evalkit, pipeline
from .entitylink import DEFAULT_LINK_THRESHOLD, load_gazetteer_file
from .errors import GraphQAError
from .focus import load_coarse_classes
from .kbstore import format_term, load_ntriples_file, load_prefixes
from .lexsim import load_lexicon_file
from .traversal import DEFAULT_BEAM, DEFAULT_TAU, RankerConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_resources(p):
        p.add_argument("--kb", required=True, help="N-Triples knowledge base file")
        p.add_argument("--gazetteer", required=True, help="TSV gazetteer: surface, iri, prior, kind")
        p.add_argument("--lexicon", required=True, help="TSV similarity lexicon: word1, word2, score")
        p.add_argument("--prefixes", help="JSON prefix map, display only")
        p.add_argument("--types-config", help="JSON coarse-type to class-IRI map override")
        p.add_argument("--link-threshold", type=float, default=DEFAULT_LINK_THRESHOLD,
                       help="minimum mention confidence (default: %(default)s)")
        p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                       help="minimum per-step predicate similarity (default: %(default)s)")
        p.add_argument("--beam", type=int, default=DEFAULT_BEAM,
                       help="candidate predicates kept per step (default: %(default)s)")
        p.add_argument("--respect-direction", action="store_true",
                       help="bind only edges leaving the frontier node (default: off)")
        p.add_argument("--exclude-predicate", action="append", default=[],
                       metavar="IRI", help="drop this predicate from traversal (repeatable)")

    ask = sub.add_parser("ask", help="answer one question (or read question/tree pairs from stdin)")
    add_resources(ask)
    ask.add_argument("question", nargs="?", help="question text")
    ask.add_argument("tree", nargs="?", help="bracketed constituent tree")
    ask.add_argument("--explain", action="store_true", help="print the full trace")
    ask.add_argument("-v", "--verbose", action="count", default=0,
                     help="-v shows the ranked path table, -vv the full trace")

    explain = sub.add_parser("explain", help="like ask, but always prints the full trace")
    add_resources(explain)
    explain.add_argument("question", nargs="?")
    explain.add_argument("tree", nargs="?")

    ev = sub.add_parser("eval", help="run a gold dataset and print the score table")
    add_resources(ev)
    ev.add_argument("--dataset", required=True, help="JSON-lines dataset with gold answers")
    return parser


def _config(args) -> pipeline.PipelineConfig:
    ranker = RankerConfig(
        tau=args.tau,
        beam=args.beam,
        respect_direction=args.respect_direction,
        exclude_predicates=frozenset(args.exclude_predicate),
    )
    return pipeline.PipelineConfig(link_threshold=args.link_threshold, ranker=ranker)


def _load_resources(args, cfg):
    kb = load_ntriples_file(args.kb)
    gaz = load_gazetteer_file(args.gazetteer)
    lex = load_lexicon_file(args.lexicon)
    prefixes = load_prefixes(args.prefixes) if args.prefixes else None
    if args.types_config:
        cfg = replace(cfg, coarse_classes=load_coarse_classes(args.types_config))
    return kb, gaz, lex, cfg, prefixes


def _answer_one(kb, gaz, lex, cfg, prefixes, question, tree, verbosity, out):
    q = pipeline.QuestionInput(id="cli", question=question, tree=tree)
    trace = pipeline.answer(kb, gaz, lex, cfg, q)
    if verbosity >= 2:
        print(pipeline.format_trace(trace, prefixes), file=out)
        return
    if trace.status != pipeline.STATUS_ANSWERED:
        print(f"unprocessed: {trace.failed_stage} ({trace.failure_reason})", file=out)
        return
    answers = ", ".join(sorted(format_term(a, prefixes) for a in trace.answers))
    print(f"answers: {answers}", file=out)
    if verbosity >= 1:
        for line in pipeline.format_paths(trace.paths, prefixes):
            print(line, file=out)


def _iter_stdin_pairs(stream):
    pending = None
    for raw in stream:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if pending is None:
            pending = line
        else:
            yield pending, line
            pending = None
    if pending is not None:
        raise GraphQAError("stdin ended with a question missing its tree line")


def _cmd_ask(args, cfg, verbosity) -> int:
    kb, gaz, lex, cfg, prefixes = _load_resources(args, cfg)
    if args.question is not None and args.tree is not None:
        _answer_one(kb, gaz, lex, cfg, prefixes, args.question, args.tree, verbosity, sys.stdout)
        return EXIT_OK
    for question, tree in _iter_stdin_pairs(sys.stdin):
        print(f"question: {question}")
        _answer_one(kb, gaz, lex, cfg, prefixes, question, tree, verbosity, sys.stdout)
    return EXIT_OK


def _cmd_eval(args, cfg) -> int:
    kb, gaz, lex, cfg, prefixes = _load_resources(args, cfg)
    questions = evalkit.load_dataset(args.dataset)
    if not questions:
        raise GraphQAError(f"no questions in dataset {args.dataset}")
    print(evalkit.format_report(evalkit.run_dataset(kb, gaz, lex, cfg, questions)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("ask", "explain") and (args.question is None) != (args.tree is None):
        print("graphqa: error: ask needs both a question and a tree, or neither for stdin mode",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _config(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if args.command == "eval":
            return _cmd_eval(args, cfg)
        verbosity = 2 if args.command == "explain" else max(args.verbose, 2 if args.explain else 0)
        return _cmd_ask(args, cfg, verbosity)
    except (GraphQAError, OSError) as exc:
        print(f"graphqa: error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
