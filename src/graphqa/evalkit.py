"""Per-question precision/recall/F1 scoring and macro-averaged reports.

Every question scores its own precision, recall and F1; the report averages
those values over all questions, counting unprocessed ones as zero.  Answer
comparison normalizes datatypes first: dates to ISO form, numbers
numerically, strings by case-sensitive trim.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from typing import Iterable, Sequence, Union

from .entitylink import Gazetteer
from .errors import GraphQAError
from .kbstore import DATE_CLASS, KnowledgeBase, Literal, Term, pseudo_class_of
from .lexsim import SimilarityLexicon
from .pipeline import (
    STATUS_ANSWERED,
    AnswerTrace,
    PipelineConfig,
    QuestionInput,
    answer,
)

VERDICT_RIGHT = "right"
VERDICT_PARTIAL = "partial"
VERDICT_WRONG = "wrong"
VERDICT_UNPROCESSED = "unprocessed"


class DatasetError(GraphQAError):
    """Malformed dataset file or missing gold answers."""


@dataclass(frozen=True)
class QuestionScore:
    id: str
    precision: float
    recall: float
    f1: float
    verdict: str
    failed_stage: str | None = None


@dataclass(frozen=True)
class EvalReport:
    per_question: tuple[QuestionScore, ...]
    total: int
    processed: int
    right: int
    partial: int
    avg_precision: float
    avg_recall: float
    avg_f1: float
    processed_avg_precision: float
    processed_avg_recall: float
    processed_avg_f1: float

    def projected(self, total_questions: int) -> tuple[float, float, float]:
        """Averages re-based to a larger question set, extra ones scored 0."""
        if total_questions < self.total:
            raise ValueError("projection target smaller than the scored set")
        ratio = self.total / total_questions
        return (self.avg_precision * ratio, self.avg_recall * ratio, self.avg_f1 * ratio)


_DATE_RE = re.compile(r"^(\d{4}-\d{2}-\d{2})")


def normalize_answer(value: Union[Term, str]) -> tuple[str, object]:
    """Reduce an answer (term or raw gold string) to a comparable key.  Only
    date-typed literals and gold strings are read as dates; NaN text stays a
    string, because a NaN number equals nothing, not even itself."""
    if isinstance(value, Literal):
        text = value.lexical.strip()
        date = _DATE_RE.match(text) if pseudo_class_of(value) == DATE_CLASS else None
    else:
        text = str(value).strip()
        if "://" in text or text.startswith("_:"):
            return ("iri", text)
        date = _DATE_RE.match(text)
    if date:
        return ("date", date.group(1))
    try:
        number = Decimal(text)
    except InvalidOperation:
        return ("str", text)
    return ("str", text) if number.is_nan() else ("num", number)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def score_question(gold: Iterable, predicted: Iterable, qid: str = "") -> QuestionScore:
    """Score one question.  Empty predictions count as unprocessed (0/0/0)."""
    gold_keys = {normalize_answer(g) for g in gold}
    if not gold_keys:
        raise DatasetError(f"question {qid or '<unknown>'}: empty gold answer set")
    pred_keys = {normalize_answer(p) for p in predicted}
    if not pred_keys:
        return QuestionScore(qid, 0.0, 0.0, 0.0, VERDICT_UNPROCESSED)
    overlap = len(gold_keys & pred_keys)
    precision = overlap / len(pred_keys)
    recall = overlap / len(gold_keys)
    f1 = _f1(precision, recall)
    if precision == 1.0 and recall == 1.0:
        verdict = VERDICT_RIGHT
    elif f1 > 0.0:
        verdict = VERDICT_PARTIAL
    else:
        verdict = VERDICT_WRONG
    return QuestionScore(qid, precision, recall, f1, verdict)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def build_report(scores: Sequence[QuestionScore], processed: int) -> EvalReport:
    answered = [s for s in scores if s.verdict != VERDICT_UNPROCESSED]
    return EvalReport(
        per_question=tuple(scores),
        total=len(scores),
        processed=processed,
        right=sum(1 for s in scores if s.verdict == VERDICT_RIGHT),
        partial=sum(1 for s in scores if s.verdict == VERDICT_PARTIAL),
        avg_precision=_mean([s.precision for s in scores]),
        avg_recall=_mean([s.recall for s in scores]),
        avg_f1=_mean([s.f1 for s in scores]),
        processed_avg_precision=_mean([s.precision for s in answered]),
        processed_avg_recall=_mean([s.recall for s in answered]),
        processed_avg_f1=_mean([s.f1 for s in answered]),
    )


def run_dataset(
    kb: KnowledgeBase,
    gaz: Gazetteer,
    lex: SimilarityLexicon,
    cfg: PipelineConfig,
    questions: Sequence[QuestionInput],
) -> EvalReport:
    """Answer and score every question; macro averages include zeros."""
    scores: list[QuestionScore] = []
    processed = 0
    for q in questions:
        if not q.gold:
            raise DatasetError(f"question {q.id}: gold answers are required for evaluation")
        trace: AnswerTrace = answer(kb, gaz, lex, cfg, q)
        if trace.status == STATUS_ANSWERED:
            processed += 1
        score = score_question(q.gold, trace.answers, q.id)
        if trace.failed_stage is not None:
            score = replace(score, failed_stage=trace.failed_stage)
        scores.append(score)
    return build_report(scores, processed)


def load_dataset(path: str) -> list[QuestionInput]:
    """Read a JSON-lines dataset: {id, question, tree, gold} per line."""
    questions: list[QuestionInput] = []
    # Binary mode: records end at "\n" only, so a raw U+2028 or U+0085 inside
    # a JSON string stays in its record.
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetError(
                    f"{path} line {lineno}: invalid utf-8 byte {raw[exc.start]:#04x}") from exc
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path} line {lineno}: invalid JSON: {exc}") from exc
            try:
                qid = str(record["id"])
                question = str(record["question"])
                tree = str(record["tree"])
            except (KeyError, TypeError) as exc:
                raise DatasetError(f"{path} line {lineno}: missing field {exc}") from exc
            if not question or not tree:
                raise DatasetError(f"{path} line {lineno}: empty question or tree")
            gold = record.get("gold")
            # exact types: a JSON true or false loads as bool, a subclass of int
            if gold is not None and (not isinstance(gold, list)
                                     or any(type(g) not in (str, int, float) for g in gold)):
                raise DatasetError(
                    f"{path} line {lineno}: gold must be a list of strings or numbers")
            gold_set = frozenset(str(g) for g in gold) if gold else None
            questions.append(QuestionInput(qid, question, tree, gold_set))
    return questions


def format_report(report: EvalReport) -> str:
    """Fixed-order text table; one row per question plus summary lines."""
    lines = ["id\tverdict\tstage\tprecision\trecall\tf1"]
    for s in report.per_question:
        lines.append(
            f"{s.id}\t{s.verdict}\t{s.failed_stage or '-'}"
            f"\t{s.precision:.12f}\t{s.recall:.12f}\t{s.f1:.12f}"
        )
    lines.append("")
    header = f"{'Total':>6} {'Processed':>10} {'Right':>6} {'Partial':>8} " \
             f"{'Avg.Recall':>11} {'Avg.Precision':>14} {'Avg.F-1':>8}"
    row = f"{report.total:>6} {report.processed:>10} {report.right:>6} {report.partial:>8} " \
          f"{report.avg_recall:>11.4f} {report.avg_precision:>14.4f} {report.avg_f1:>8.4f}"
    lines.append(header)
    lines.append(row)
    lines.append(
        "processed-only averages: "
        f"recall={report.processed_avg_recall:.4f} "
        f"precision={report.processed_avg_precision:.4f} "
        f"f1={report.processed_avg_f1:.4f}"
    )
    return "\n".join(lines)
