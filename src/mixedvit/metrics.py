"""Evaluation and statistics: stratified k-fold CV, confusion/accuracy,
ROC/AUC by the trapezoid rule, mean±std reporting, pooled t-test and
one-way ANOVA, with p-values from scipy's regularized incomplete beta.
Every mean and sum of squares comes from ``_mean_ss``, which gives equal
values their value as mean and 0.0 as sum; the t-test is two-group ANOVA.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betainc

from .data import (
    AD,
    CN,
    InstanceRecord,
    PlanError,
    SubjectRecord,
    cdr_to_label,
    holdout_split,
    split_subjects,
)
from .model import ModelConfig
from .train import FitPlan, Prediction, TrainConfig, fit, model_crops


class DegenerateVarianceError(ValueError):
    """Zero variance with unequal means: the test statistic is undefined."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class RocPoint:
    fpr: float
    tpr: float
    threshold: float


@dataclass
class FoldReport:
    fold_index: int
    accuracy: float
    auc: float
    confusion: ConfusionMatrix
    roc: list
    predictions: list


# ---------------------------------------------------------------------------
# folds


def stratified_kfold(subject_ids: Sequence[str], labels: dict, k: int,
                     rng: np.random.Generator) -> list:
    """k folds of subject ids, class-balanced within one subject per fold."""
    if k < 2:
        raise PlanError(f"k={k} is degenerate; need k >= 2")
    by_class: dict[int, list[str]] = {}
    for sid in sorted(subject_ids):
        by_class.setdefault(labels[sid], []).append(sid)
    for label, group in sorted(by_class.items()):
        if len(group) < k:
            raise PlanError(
                f"class {label} has {len(group)} subjects, fewer than k={k}")
    folds: list[list[str]] = [[] for _ in range(k)]
    cursor = 0
    for label in sorted(by_class):
        group = by_class[label]
        order = rng.permutation(len(group))
        for i in order:
            folds[cursor % k].append(group[int(i)])
            cursor += 1
    return folds


# ---------------------------------------------------------------------------
# classification metrics


def confusion(predictions: Sequence[Prediction]) -> ConfusionMatrix:
    """Counts with AD as the positive class; what is not a true positive,
    false positive or true negative counts as a false negative."""
    if not predictions:
        raise ValueError("no predictions to score")
    predicted = np.array([p.predicted for p in predictions])
    label = np.array([p.label for p in predictions])
    tp = int(((predicted == AD) & (label == AD)).sum())
    fp = int(((predicted == AD) & (label == CN)).sum())
    tn = int(((predicted == CN) & (label == CN)).sum())
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn,
                           fn=len(predictions) - tp - fp - tn)


def accuracy(cm: ConfusionMatrix) -> float:
    return (cm.tp + cm.tn) / cm.total


def roc_points(scores: Sequence[float], labels: Sequence[int]) -> list:
    """Threshold sweep over distinct scores, descending, with sentinels.

    Each point counts the samples scoring at or above its threshold, read
    from cumulative sums at the last of the tied scores; its threshold is
    the first of them in stable order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == AD).sum())
    n_neg = int((labels == CN).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    positive = labels[order] == AD
    new = ranked[1:] != ranked[:-1]
    last = np.append(new, True)
    tpr = np.cumsum(positive)[last] / n_pos
    fpr = np.cumsum(~positive)[last] / n_neg
    thresholds = ranked[np.insert(new, 0, True)]
    return [RocPoint(0.0, 0.0, math.inf)] + [
        RocPoint(f, t, thr) for f, t, thr in
        zip(fpr.tolist(), tpr.tolist(), thresholds.tolist())]


def auc_trapezoid(points: Sequence[RocPoint]) -> float:
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        total += (b.fpr - a.fpr) * (a.tpr + b.tpr) / 2.0
    return total


def mean_std(values: Sequence[float]):
    """Mean and sample (n-1) standard deviation; equal values give std 0."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("mean_std of an empty sequence")
    mean, ss = _mean_ss(values)
    return float(mean), math.sqrt(ss / max(values.size - 1, 1))


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.2f} ± {std:.2f}"


# ---------------------------------------------------------------------------
# hypothesis tests


def _mean_ss(values: np.ndarray):
    """The mean and the sum of squared deviations from it: exactly
    (value, 0.0) when all values are equal, whose float mean can miss the
    value by an ulp and so give them a spread."""
    if values.min() == values.max():
        return values[0], 0.0
    mean = values.mean()
    return mean, float(((values - mean) ** 2).sum())


def one_way_anova(groups: Sequence[Sequence[float]]):
    """One-way fixed-effects ANOVA; p from the F distribution. F = 0, p = 1
    when the within-group variance is zero and the means equal;
    ``DegenerateVarianceError`` when it is zero and they differ."""
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least 2 groups")
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if any(g.size < 2 for g in arrays):
        raise ValueError("each group needs at least 2 values")
    stats = [_mean_ss(g) for g in arrays]
    grand, _ = _mean_ss(np.concatenate(arrays))
    ss_between = sum(g.size * (m - grand) ** 2
                     for g, (m, _) in zip(arrays, stats))
    ss_within = sum(ss for _, ss in stats)
    df_between, df_within = len(arrays) - 1, sum(g.size - 1 for g in arrays)
    if ss_within == 0.0:
        if ss_between == 0.0:
            return 0.0, df_between, df_within, 1.0
        raise DegenerateVarianceError(
            "zero within-group variance with unequal means")
    f = (ss_between / df_between) / (ss_within / df_within)
    p = betainc(df_within / 2.0, df_between / 2.0,
                df_within / (df_within + df_between * f))
    return float(f), df_between, df_within, float(p)


def t_test(a: Sequence[float], b: Sequence[float]):
    """Pooled-variance two-sample Student t, two-sided: ``one_way_anova``'s
    df, p and zero-variance rules for [a, b], t = sign(mean_a - mean_b) *
    sqrt(F)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    f, _, df, p = one_way_anova([a, b])
    sign = np.sign(_mean_ss(a)[0] - _mean_ss(b)[0])
    return float(sign) * math.sqrt(f), df, p


# ---------------------------------------------------------------------------
# cross-validation driver


# Share of each fold's training subjects carved out for checkpoint selection.
VAL_FRACTION = 0.2


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def evaluate_fold(predictions: Sequence[Prediction],
                  fold_index: int) -> FoldReport:
    cm = confusion(predictions)
    scores = [p.p_ad for p in predictions]
    labels = [p.label for p in predictions]
    roc = roc_points(scores, labels)
    return FoldReport(fold_index=fold_index, accuracy=accuracy(cm),
                      auc=auc_trapezoid(roc), confusion=cm, roc=roc,
                      predictions=list(predictions))


def cv_prepare(records: Sequence[SubjectRecord],
               instances: Sequence[InstanceRecord], rois: Sequence[str],
               model_cfg: ModelConfig, train_cfg: TrainConfig, k: int = 7,
               seed: int = 0, holdout_test: bool = True, jobs: int = 1):
    """``cv_run`` up to its first training step; returns the function that
    trains the folds and returns what ``cv_run`` returns."""
    if holdout_test:
        tr, va, _te = holdout_split(records, seed)
        pool = tr + va
    else:
        pool = list(records)
    by_id = {r.subject_id: r for r in pool}
    labels = {r.subject_id: cdr_to_label(r.cdr) for r in pool}
    folds = stratified_kfold(list(by_id), labels, k,
                             np.random.default_rng([seed, 23]))
    plans = []
    for fold_index, held in enumerate(folds):
        held_ids = set(held)
        inner_train, inner_val, _ = split_subjects(
            [r for r in pool if r.subject_id not in held_ids],
            (1.0 - VAL_FRACTION, VAL_FRACTION, 0.0),
            np.random.default_rng([seed, 47, fold_index]))
        plans.append(FitPlan(inner_train, inner_val,
                             [by_id[sid] for sid in held],
                             f"held-out fold {fold_index}"))
    crops = model_crops(model_cfg.image_dims, pool, instances, rois)

    def run_fold(fold_index: int) -> FoldReport:
        fold_cfg = dataclasses.replace(
            train_cfg, seed=_derive_seed(seed, 31, fold_index))
        _params, _history, preds = fit(model_cfg, fold_cfg, plans[fold_index],
                                       crops)
        return evaluate_fold(preds, fold_index)

    def run_folds():
        # One job runs on the calling thread: a worker thread allocates from
        # a malloc arena of its own, which raised cv_coarse's peak RSS by 6%.
        # The executor starts no thread until its map is called.
        with ThreadPoolExecutor(max_workers=jobs) as pool_exec:
            run = pool_exec.map if jobs > 1 else map
            reports = list(run(run_fold, range(k)))
        return reports, summarize(reports)
    return run_folds


def cv_run(records: Sequence[SubjectRecord],
           instances: Sequence[InstanceRecord], rois: Sequence[str],
           model_cfg: ModelConfig, train_cfg: TrainConfig, k: int = 7,
           seed: int = 0, holdout_test: bool = True, jobs: int = 1):
    """k-fold CV over the pooled train and validation subjects of
    ``holdout_split``, whose test subjects stay out (all subjects without
    ``holdout_test``). Each fold trains on the other k-1 folds, with an
    inner ``VAL_FRACTION`` carve for checkpoint selection, and is scored on
    the held-out fold. Every fold is planned, and the pool's crops built
    (``model_crops``), before any fold trains: ``PlanError`` for a split or
    fold set it cannot plan. The crops are held for the whole run, 1/k more
    than a fold's, and shared by the folds, which train on ``jobs`` threads,
    each from its own seed, so the numbers do not depend on ``jobs``.
    Returns the fold reports, in fold order, and a mean±std summary.
    """
    return cv_prepare(records, instances, rois, model_cfg, train_cfg, k,
                      seed, holdout_test, jobs)()


def summarize(reports: Sequence[FoldReport]) -> dict:
    acc_mean, acc_std = mean_std([r.accuracy for r in reports])
    auc_mean, auc_std = mean_std([r.auc for r in reports])
    return {"accuracy_mean": acc_mean, "accuracy_std": acc_std,
            "auc_mean": auc_mean, "auc_std": auc_std}


def summary_line(summary: dict) -> str:
    """Accuracy rendered on the 0-100 scale, AUC on its native scale."""
    acc = format_mean_std(summary["accuracy_mean"] * 100.0,
                          summary["accuracy_std"] * 100.0)
    auc = format_mean_std(summary["auc_mean"], summary["auc_std"])
    return f"accuracy {acc} | auc {auc}"


def metrics_payload(reports: Sequence[FoldReport]) -> dict:
    """The layout of ``metrics.json``; ``load_fold_accuracies`` reads it."""
    return {
        "folds": [{
            "fold": r.fold_index,
            "accuracy": r.accuracy,
            "auc": r.auc,
            "confusion": dataclasses.asdict(r.confusion),
        } for r in reports],
        "summary": summarize(reports),
    }


def load_fold_accuracies(path) -> list:
    """The fold accuracies of a ``metrics_payload`` JSON file, as
    ``compare`` tests them. ``ValueError`` for a file that does not hold
    that layout, for fewer than 2 folds, and for an accuracy that is not a
    finite number in [0, 1] (JSON's true and false are not numbers)."""
    with open(path, encoding="utf-8") as fh:
        try:  # a ValueError here is bad JSON or bad UTF-8
            accs = [f["accuracy"] for f in json.load(fh)["folds"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"not a metrics JSON: {exc}") from exc
    if len(accs) < 2:
        raise ValueError(f"{len(accs)} folds; need at least 2")
    for i, acc in enumerate(accs):
        if type(acc) not in (int, float) or not 0.0 <= acc <= 1.0:
            raise ValueError(f"fold {i}: accuracy {acc!r} is not a finite "
                             f"number in [0, 1]")
    return accs

