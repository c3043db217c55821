"""Metric tests against brute-force oracles.

The oracles below are deliberately naive: O(n^2) pair counting for the
ROC area and an explicit recount-per-threshold sweep for average
precision. Both the implementations and the oracles do their arithmetic
on dyadic rationals (counts, halves) and share the per-term formulas,
so equality is asserted EXACTLY — any drift in tie handling or
summation order is a hard failure, not a tolerance miss.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icuxai.metrics import auc_pr, auc_roc


def oracle_auc_roc(labels, scores):
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_auc_pr(labels, scores):
    n_pos = sum(labels)
    terms = []
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for y, s in zip(labels, scores) if s >= t and y == 1)
        fp = sum(1 for y, s in zip(labels, scores) if s >= t and y == 0)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        terms.append((recall - prev_recall) * precision)
        prev_recall = recall
    return math.fsum(terms)


# --- pinned examples -----------------------------------------------------------

def test_roc_perfect_ranking():
    assert auc_roc([1, 0, 0], [0.9, 0.8, 0.1]) == 1.0


def test_roc_full_tie_is_half():
    assert auc_roc([1, 0], [0.5, 0.5]) == 0.5


def test_roc_three_of_four_concordant():
    assert auc_roc([1, 0, 1, 0], [0.8, 0.7, 0.6, 0.5]) == 0.75


def test_pr_single_positive_ranked_first():
    assert auc_pr([1, 0], [0.9, 0.1]) == 1.0


def test_pr_single_positive_ranked_second():
    assert auc_pr([0, 1], [0.9, 0.1]) == 0.5


def test_pr_all_tied_scores_equal_prevalence():
    labels = [1, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert auc_pr(labels, [0.42] * 10) == 0.3


def test_pr_is_one_for_perfect_separation():
    labels = np.array([1, 1, 0, 0, 0])
    scores = np.array([0.9, 0.8, 0.3, 0.2, 0.1])
    assert auc_pr(labels, scores) == 1.0


# --- exact agreement with the oracles ---------------------------------------------

def random_case(rng, tie_heavy):
    n = int(rng.integers(2, 201))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]  # force both classes
    if tie_heavy:
        scores = rng.integers(0, 6, size=n) / 5.0
    else:
        scores = rng.normal(size=n)
    return labels, scores


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_roc_matches_pair_counting_oracle_exactly(tie_heavy):
    rng = np.random.default_rng(42 + tie_heavy)
    for _ in range(30):
        labels, scores = random_case(rng, tie_heavy)
        assert auc_roc(labels, scores) == oracle_auc_roc(labels.tolist(), scores.tolist())


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_pr_matches_threshold_sweep_oracle_exactly(tie_heavy):
    rng = np.random.default_rng(99 + tie_heavy)
    for _ in range(30):
        labels, scores = random_case(rng, tie_heavy)
        assert auc_pr(labels, scores) == oracle_auc_pr(labels.tolist(), scores.tolist())


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-20, 20)),
                min_size=2, max_size=60))
@settings(max_examples=120, deadline=None)
def test_both_metrics_match_oracles_property(pairs):
    labels = [y for y, _ in pairs]
    scores = [s / 4.0 for _, s in pairs]
    if 0 < sum(labels) < len(labels):
        assert auc_roc(labels, scores) == oracle_auc_roc(labels, scores)
    if sum(labels) > 0:
        assert auc_pr(labels, scores) == oracle_auc_pr(labels, scores)


# --- structural properties --------------------------------------------------------

def test_roc_invariant_under_strictly_monotone_transforms():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    scores = rng.normal(size=50)
    base = auc_roc(labels, scores)
    assert auc_roc(labels, 3.0 * scores + 7.0) == base
    assert auc_roc(labels, np.tanh(scores)) == base


def test_roc_label_flip_complements():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, size=40)
    labels[0], labels[1] = 0, 1
    scores = rng.integers(0, 4, size=40) / 3.0  # include ties
    assert auc_roc(1 - labels, scores) == 1.0 - auc_roc(labels, scores)


# --- error handling -----------------------------------------------------------------

def test_single_class_roc_is_an_error():
    with pytest.raises(ValueError, match="both classes"):
        auc_roc([1, 1], [0.2, 0.3])


def test_zero_positive_pr_is_an_error():
    with pytest.raises(ValueError, match="positive"):
        auc_pr([0, 0], [0.2, 0.3])


def test_input_validation():
    with pytest.raises(ValueError, match="equal-length"):
        auc_roc([1, 0], [0.1])
    with pytest.raises(ValueError, match="finite"):
        auc_roc([1, 0], [np.nan, 0.1])
    with pytest.raises(ValueError, match="0 or 1"):
        auc_roc([1, 2], [0.1, 0.2])
    with pytest.raises(ValueError, match="at least one"):
        auc_roc([], [])
