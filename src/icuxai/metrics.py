"""Binary classification metrics.

Both curve metrics use deterministic tie handling so results are exactly
reproducible and exactly checkable against brute-force oracles:

* ``auc_roc`` is the normalized Mann–Whitney U statistic computed from
  tie-averaged ranks; tied positive/negative pairs count half.
* ``auc_pr`` is average precision, the step-wise sum
  ``sum_k (R_k - R_{k-1}) * P_k`` taken over distinct score thresholds
  in descending order (records sharing a score enter the curve
  together, which is what makes the all-tied case equal the
  prevalence). Sorting is stable: score descending, original index
  ascending.
"""

from __future__ import annotations

import math

import numpy as np


def _validated(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ValueError(f"labels {labels.shape} and scores {scores.shape} must be "
                         "equal-length vectors")
    if labels.size == 0:
        raise ValueError("metrics need at least one record")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return labels.astype(np.int64), scores


def auc_roc(labels, scores) -> float:
    """Area under the ROC curve; ties get half credit.

    Equals the probability that a uniformly drawn positive outranks a
    uniformly drawn negative (ties counting 1/2), via tie-averaged ranks.
    """
    labels, scores = _validated(labels, scores)
    n_pos = int(np.sum(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_roc needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(labels.size, dtype=np.float64)
    i = 0
    while i < labels.size:
        j = i
        while j < labels.size and scores[order[j]] == scores[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0  # average of ranks i+1 .. j
        i = j
    u = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_pr(labels, scores) -> float:
    """Average precision over descending score thresholds."""
    labels, scores = _validated(labels, scores)
    n = labels.size
    n_pos = int(np.sum(labels))
    if n_pos == 0:
        raise ValueError("auc_pr needs at least one positive record")
    order = np.lexsort((np.arange(n), -scores))  # score desc, index asc
    s = scores[order]
    y = labels[order]
    terms = []
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp += int(np.sum(y[i:j]))
        fp += (j - i) - int(np.sum(y[i:j]))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        terms.append((recall - prev_recall) * precision)
        prev_recall = recall
        i = j
    return math.fsum(terms)
