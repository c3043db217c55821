"""Removal ranking and AU-of-AUC curves."""

import math

import numpy as np
import pytest

from icuxai.attribution import EXPLAINER_KINDS, AttributionReport, make_explainer
from icuxai.metrics import auc_roc
from icuxai.model import ModelConfig, TriModalNet
from icuxai.perturbation import (
    PerturbationCurve,
    area_under,
    compare_explainers,
    default_fractions,
    perturbation_curve,
    plot_table,
    rank_features,
    _rank_units,
)
from icuxai.records import CLS_ID, PAD_ID, MultimodalDataset
from icuxai.training import TrainConfig, train_model

TINY = dict(width=8, heads=2, ffn_width=16, dropout=0.0,
            event_blocks=1, note_blocks=1, vitals_blocks=1,
            event_hours=4, event_dim=5, note_len=6, vocab_size=20,
            vitals_steps=6, vitals_channels=3, fusion_hidden=8)


def planted_dataset(n=60, seed=0, planted=3.0):
    rng = np.random.default_rng(seed)
    labels = np.array([1, 0] * (n // 2), dtype=np.int64)
    events = rng.normal(size=(n, 4, 5)) * 0.3
    events[labels == 1, :, 2] += planted
    notes = np.full((n, 6), PAD_ID, dtype=np.int64)
    notes[:, 0] = CLS_ID
    notes[:, 1:4] = rng.integers(3, 20, size=(n, 3))
    vitals = rng.normal(size=(n, 6, 3)) * 0.3
    return MultimodalDataset(events=events, events_mask=np.ones_like(events),
                             notes=notes, vitals=vitals, labels=labels,
                             ids=[f"r{i}" for i in range(n)])


def tiny_report(events, note_ids, notes_attr, vitals):
    return AttributionReport(
        record_id="r", explainer="random", target_class=1, target_value=0.0,
        events=np.asarray(events, dtype=float),
        notes=np.asarray(notes_attr, dtype=float),
        vitals=np.asarray(vitals, dtype=float),
        note_ids=np.asarray(note_ids, dtype=np.int64))


@pytest.fixture(scope="module")
def trained():
    """A tiny model fitted to linearly separable planted data, plus the
    held-out slice used for curve scoring."""
    ds = planted_dataset(n=60, seed=3)
    model = TriModalNet(ModelConfig(**TINY, seed=0))
    config = TrainConfig(batch_size=60, learning_rate=0.01, epochs=120,
                         upsample=False, dropout=0.0, seed=0)
    train_model(model, ds, config)
    test = planted_dataset(n=30, seed=9)
    probs = model.predict_proba(test.events, test.notes, test.vitals)
    assert auc_roc(test.labels, probs[:, 1]) > 0.9, "fixture model failed to train"
    return model, test


# --- ranking -------------------------------------------------------------------------

def test_rank_features_orders_by_absolute_value():
    # events attributions [0.5, -0.1, 0.3] must rank as [1, 2, 0]
    rep = tiny_report([[0.5, -0.1, 0.3]], [CLS_ID], [0.0], [[9.9]])
    assert rank_features(rep) == [
        ("events", 1), ("events", 2), ("events", 0), ("vitals", 0)]
    assert rank_features(rep, order="descending") == [
        ("vitals", 0), ("events", 0), ("events", 2), ("events", 1)]


def test_rank_features_tie_break_is_modality_then_index():
    rep = tiny_report(np.ones((1, 2)), [CLS_ID, 5, 6], [1.0, 1.0, 1.0],
                      np.ones((1, 2)))
    assert rank_features(rep) == [
        ("events", 0), ("events", 1), ("notes", 1), ("notes", 2),
        ("vitals", 0), ("vitals", 1)]


def test_rank_features_skips_cls_and_pad():
    rep = tiny_report(np.zeros((1, 1)), [CLS_ID, 7, PAD_ID, PAD_ID],
                      [5.0, 0.1, 0.0, 0.0], np.zeros((1, 1)))
    units = rank_features(rep)
    assert ("notes", 0) not in units
    assert ("notes", 2) not in units and ("notes", 3) not in units
    assert ("notes", 1) in units
    with pytest.raises(ValueError):
        rank_features(rep, order="sideways")


def _rank_by_sort(report, order="ascending"):
    """The unit list as one Python sort, the reference for the array ranking."""
    units = []
    for idx, value in enumerate(report.events.ravel()):
        units.append((abs(value), 0, "events", idx))
    for idx, tid in enumerate(report.note_ids):
        if tid not in (PAD_ID, CLS_ID):
            units.append((abs(report.notes[idx]), 1, "notes", idx))
    for idx, value in enumerate(report.vitals.ravel()):
        units.append((abs(value), 2, "vitals", idx))
    units.sort(key=lambda u: (-u[0] if order == "descending" else u[0], u[1], u[3]))
    return [(modality, idx) for _, _, modality, idx in units]


def tied_report(seed, words):
    """Attributions on a coarse grid of both signs, so |a| ties within and
    across modalities; ``words`` real tokens follow [CLS], then [PAD]."""
    rng = np.random.default_rng(seed)
    ids = np.full(7, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    ids[1:1 + words] = rng.integers(3, 20, size=words)

    def grid(*shape):
        return rng.integers(-3, 4, size=shape) * 0.5

    return tiny_report(grid(3, 4), ids, grid(7), grid(5, 2))


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("words", [0, 1, 3, 6])
def test_array_ranking_equals_the_sorted_unit_list(order, words):
    for seed in range(5):
        rep = tied_report(seed, words)
        assert rank_features(rep, order) == _rank_by_sort(rep, order)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_cohort_ranking_ranks_each_report_alone(order):
    reports = [tied_report(seed, words) for seed, words in enumerate((0, 2, 6, 4))]
    columns, count = _rank_units(reports, order)
    for i, rep in enumerate(reports):
        alone, n = _rank_units([rep], order)
        assert count[i] == n[0] == len(_rank_by_sort(rep))
        assert columns[i].tolist() == alone[0].tolist()


# --- area --------------------------------------------------------------------------

def test_area_under_constant_curve():
    f = default_fractions()
    assert area_under(f, np.full(10, 0.8)) == pytest.approx(0.8, rel=1e-12)


def test_area_under_linear_decline():
    f = default_fractions()
    values = 0.9 - (0.4 / 0.9) * f  # 0.9 at f=0 down to 0.5 at f=0.9
    assert area_under(f, values) == pytest.approx(0.7, rel=1e-12)


def test_area_under_validates():
    with pytest.raises(ValueError):
        area_under([0.0], [1.0])
    with pytest.raises(ValueError):
        area_under([0.0, 0.5], [1.0])


# --- curves ------------------------------------------------------------------------

def test_curve_fraction_zero_equals_baseline(trained):
    model, test = trained
    curve = perturbation_curve(model, test, "random", fractions=[0.0, 0.3])
    probs = model.predict_proba(test.events, test.notes, test.vitals)
    assert curve.auc_roc[0] == auc_roc(test.labels, probs[:, 1])


def test_curve_is_deterministic(trained):
    model, test = trained
    a = perturbation_curve(model, test, "random", seed=5)
    b = perturbation_curve(model, test, "random", seed=5)
    c = perturbation_curve(model, test, "random", seed=6)
    assert a.auc_roc.tolist() == b.auc_roc.tolist()
    assert a.au == b.au
    assert a.auc_roc.tolist() != c.auc_roc.tolist()


def test_removing_important_features_first_hurts_more(trained):
    model, test = trained
    keep_best = perturbation_curve(model, test, "lrptrans", order="ascending")
    kill_best = perturbation_curve(model, test, "lrptrans", order="descending")
    assert kill_best.au <= keep_best.au


def test_curve_shapes_and_au_range(trained):
    model, test = trained
    curve = perturbation_curve(model, test, "attention-last")
    assert curve.fractions.shape == (10,) and curve.auc_roc.shape == (10,)
    assert 0.0 <= curve.au <= 1.0
    assert curve.explainer == "attention-last"


def test_curve_rejects_single_class_set(trained):
    model, test = trained
    only_pos = test.subset(np.flatnonzero(test.labels == 1))
    with pytest.raises(ValueError):
        perturbation_curve(model, only_pos, "random", fractions=[0.0, 0.5])


def test_compare_explainers_covers_all_kinds(trained):
    model, test = trained
    small = test.subset(np.arange(12))
    curves = compare_explainers(model, small, fractions=[0.0, 0.4, 0.8], steps=3)
    assert [c.explainer for c in curves] == list(EXPLAINER_KINDS)
    assert len(curves) == 6

    table = plot_table(curves)
    lines = table.strip().split("\n")
    assert lines[0].split() == ["fraction"] + list(EXPLAINER_KINDS)
    assert len(lines) == 4


def _curve_one_record_at_a_time(model, dataset, kind, order, steps):
    """AUC-ROC per removal fraction, each record explained alone and each
    fraction rescored by its own predict call, unit by unit."""
    explainer = make_explainer(kind, model, steps=steps)
    rankings = [_rank_by_sort(explainer.explain(dataset.record(i)), order)
                for i in range(len(dataset))]
    aucs = []
    for f in default_fractions():
        events = dataset.events.copy()
        notes = dataset.notes.copy()
        vitals = dataset.vitals.copy()
        for i, ranking in enumerate(rankings):
            take = int(math.floor(float(f) * len(ranking)))
            for modality, idx in ranking[:take]:
                if modality == "events":
                    events[i].reshape(-1)[idx] = 0.0
                elif modality == "notes":
                    notes[i, idx] = PAD_ID
                else:
                    vitals[i].reshape(-1)[idx] = 0.0
        probs = model.predict_proba(events, notes, vitals)
        aucs.append(auc_roc(dataset.labels, probs[:, 1]))
    return aucs


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("kind", EXPLAINER_KINDS)
def test_curve_matches_explaining_one_record_at_a_time(trained, kind, order):
    model, test = trained
    curve = perturbation_curve(model, test, kind, order=order, steps=3)
    assert curve.auc_roc.tolist() == _curve_one_record_at_a_time(
        model, test, kind, order, steps=3)


def test_plot_table_rejects_mismatched_grids():
    a = PerturbationCurve("random", [0.0, 0.5], [0.8, 0.7], 0.75)
    b = PerturbationCurve("lrptrans", [0.0, 0.4], [0.8, 0.7], 0.75)
    with pytest.raises(ValueError):
        plot_table([a, b])
    with pytest.raises(ValueError):
        plot_table([])


def test_curve_validation():
    with pytest.raises(ValueError):
        PerturbationCurve("random", [0.5, 0.0], [0.8, 0.7], 0.75)
    with pytest.raises(ValueError):
        PerturbationCurve("random", [0.0, 0.5], [0.8, 1.7], 0.75)
    with pytest.raises(ValueError):
        PerturbationCurve("random", [0.0, 0.5], [0.8, 0.7], 0.75, order="up")


def test_floor_rule_counts():
    # floor(f * n) with the decile grid: spot values used by the curves
    assert int(math.floor(0.3 * 10)) == 3
    assert int(math.floor(float(default_fractions()[7]) * 10)) == 7
    assert int(math.floor(0.9 * 7)) == 6
