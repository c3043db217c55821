"""Faithfulness evaluation by sequential feature removal.

An explainer is faithful to the extent that the features it calls
unimportant really are: removing them in ascending order of absolute
attribution should leave the model's discrimination intact for as long
as possible.  The curve of test AUC-ROC against the removed fraction,
summarized by its normalized area (AU), is the comparison score -- a
better explainer keeps the curve high, so a higher AU is better.

Removal baselines are the least-informative in-distribution values: a
zero cell for events and vitals (the mean, since inputs are z-scored)
and the [PAD] token for notes.  [PAD] and [CLS] positions are never
removal candidates -- one is already absent and the other anchors the
pooled readout -- so a record's removable-unit count is its real content
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attribution import EXPLAINER_KINDS, AttributionReport, make_explainer
from .metrics import auc_roc
from .records import (CLS_ID, MODALITIES, PAD_ID, EventSequence,
                      MultimodalDataset, MultimodalRecord, NoteTokens, VitalSigns)

__all__ = [
    "PerturbationCurve",
    "area_under",
    "compare_explainers",
    "default_fractions",
    "perturb",
    "perturbation_curve",
    "plot_table",
    "rank_features",
]

_ORDERS = ("ascending", "descending")
_MODALITY_RANK = {m: i for i, m in enumerate(MODALITIES)}


def default_fractions() -> np.ndarray:
    """The removal grid 0.0, 0.1, ..., 0.9."""
    return np.arange(10) * 0.1


@dataclass
class PerturbationCurve:
    explainer: str
    fractions: np.ndarray
    auc_roc: np.ndarray
    au: float
    seed: int = 0
    order: str = "ascending"

    def __post_init__(self):
        self.fractions = np.asarray(self.fractions, dtype=np.float64)
        self.auc_roc = np.asarray(self.auc_roc, dtype=np.float64)
        if self.fractions.shape != self.auc_roc.shape or self.fractions.ndim != 1:
            raise ValueError("fractions and auc_roc must be matching 1-D arrays")
        if np.any(np.diff(self.fractions) <= 0):
            raise ValueError("fractions must be strictly increasing")
        if np.any((self.auc_roc < 0) | (self.auc_roc > 1)) or not 0 <= self.au <= 1:
            raise ValueError("AUC values and AU must lie in [0, 1]")
        if self.order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}")


# --- ranking and removal -------------------------------------------------------------

def rank_features(report: AttributionReport,
                  order: str = "ascending") -> list[tuple[str, int]]:
    """Removal units sorted by |attribution|, least important first.

    A unit is one (hour, feature) events cell, one real note token, or
    one (timestep, channel) vitals cell, addressed by its flat index.
    Ties break on (modality, index) so the ranking is deterministic.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    units = []
    for idx, value in enumerate(report.events.ravel()):
        units.append((abs(value), _MODALITY_RANK["events"], "events", idx))
    for idx, tid in enumerate(report.note_ids):
        if tid not in (PAD_ID, CLS_ID):
            units.append((abs(report.notes[idx]), _MODALITY_RANK["notes"], "notes", idx))
    for idx, value in enumerate(report.vitals.ravel()):
        units.append((abs(value), _MODALITY_RANK["vitals"], "vitals", idx))
    units.sort(key=lambda u: (-u[0] if order == "descending" else u[0], u[1], u[3]))
    return [(modality, idx) for _, _, modality, idx in units]


def perturb(record: MultimodalRecord,
            removed: list[tuple[str, int]]) -> MultimodalRecord:
    """A copy of the record with the given units replaced by baselines."""
    events = record.events.values.copy()
    notes = record.notes.ids.copy()
    vitals = record.vitals.values.copy()
    flat = {"events": events.reshape(-1), "vitals": vitals.reshape(-1)}
    for modality, idx in removed:
        if modality == "notes":
            if not 0 <= idx < notes.shape[0]:
                raise IndexError(f"note position {idx} out of range")
            notes[idx] = PAD_ID
        elif modality in flat:
            arr = flat[modality]
            if not 0 <= idx < arr.shape[0]:
                raise IndexError(f"{modality} cell {idx} out of range")
            arr[idx] = 0.0
        else:
            raise ValueError(f"unknown modality {modality!r}")
    return MultimodalRecord(
        record_id=record.record_id,
        label=record.label,
        events=EventSequence(events, record.events.mask.copy()),
        notes=NoteTokens(notes),
        vitals=VitalSigns(vitals),
    )


# --- curves --------------------------------------------------------------------------

def area_under(fractions, values) -> float:
    """Trapezoidal area normalized by the grid span."""
    fractions = np.asarray(fractions, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if fractions.shape != values.shape or fractions.size < 2:
        raise ValueError("need matching grids of at least two points")
    span = fractions[-1] - fractions[0]
    return float(np.trapezoid(values, fractions) / span)


def perturbation_curve(model, dataset: MultimodalDataset, kind: str, *,
                       target_class: int = 1, fractions=None, seed: int = 0,
                       order: str = "ascending", steps: int = 20,
                       eps: float = 1e-6) -> PerturbationCurve:
    """Remove each record's least-relevant units and rescore the test set.

    Attributions are computed once per record on the unperturbed input;
    at fraction f the lowest floor(f * n) of a record's n units are
    replaced by baselines before the whole set is scored again.
    """
    fractions = default_fractions() if fractions is None else np.asarray(fractions)
    explainer = make_explainer(kind, model, seed=seed, steps=steps, eps=eps)
    n = len(dataset)
    rankings = []
    for i in range(n):
        report = explainer.explain(dataset.record(i), target_class)
        rankings.append(rank_features(report, order))

    aucs = []
    for f in fractions:
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
    return PerturbationCurve(
        explainer=kind,
        fractions=fractions,
        auc_roc=np.array(aucs),
        au=area_under(fractions, aucs),
        seed=seed,
        order=order,
    )


def compare_explainers(model, dataset: MultimodalDataset, *,
                       kinds=EXPLAINER_KINDS, target_class: int = 1,
                       fractions=None, seed: int = 0, order: str = "ascending",
                       steps: int = 20, eps: float = 1e-6,
                       log_fn=None) -> list[PerturbationCurve]:
    """One perturbation curve per explainer, same grid and seed throughout."""
    curves = []
    for kind in kinds:
        curve = perturbation_curve(
            model, dataset, kind, target_class=target_class,
            fractions=fractions, seed=seed, order=order, steps=steps, eps=eps)
        if log_fn is not None:
            log_fn({"event": "perturbation-curve", "explainer": kind,
                    "au": curve.au})
        curves.append(curve)
    return curves


# --- output formats ------------------------------------------------------------------

def plot_table(curves: list[PerturbationCurve]) -> str:
    """Whitespace-separated table (fraction column, one column per explainer),
    digestible by gnuplot or a spreadsheet."""
    if not curves:
        raise ValueError("no curves to tabulate")
    grid = curves[0].fractions
    for curve in curves[1:]:
        if not np.array_equal(curve.fractions, grid):
            raise ValueError("curves were computed on different fraction grids")
    lines = ["fraction " + " ".join(c.explainer for c in curves)]
    for j, f in enumerate(grid):
        lines.append(" ".join([f"{f:.3f}"] + [f"{c.auc_roc[j]:.6f}" for c in curves]))
    return "\n".join(lines) + "\n"
