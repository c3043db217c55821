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

from dataclasses import dataclass

import numpy as np

from .attribution import EXPLAINER_KINDS, AttributionReport, make_explainer
from .metrics import auc_roc
from .records import CLS_ID, MODALITIES, PAD_ID, MultimodalDataset

__all__ = [
    "PerturbationCurve",
    "area_under",
    "compare_explainers",
    "default_fractions",
    "perturbation_curve",
    "plot_table",
    "rank_features",
]

_ORDERS = ("ascending", "descending")


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
#
# A record's units sit in one flat row: its events cells, then its note
# positions, then its vitals cells, each in flat index order, so a unit's
# column encodes (modality rank, index). [CLS] and [PAD] positions hold
# columns but are not units.

def _rank_units(reports, order: str) -> tuple[np.ndarray, np.ndarray]:
    """Each report's unit columns in removal order, and its unit count.

    ``np.lexsort`` over (is structure, |attribution|, modality rank,
    index) puts the real units first, least important first (most
    important first for ``descending``), ties by modality then index;
    the first ``count`` columns of a row are exactly its units. Returns
    the (records, columns) order and the (records,) counts.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    first = reports[0]
    sizes = (first.events.size, first.notes.size, first.vitals.size)
    value = np.stack([np.concatenate([r.events.ravel(), r.notes, r.vitals.ravel()])
                      for r in reports])
    score = -np.abs(value) if order == "descending" else np.abs(value)
    structure = np.zeros(value.shape, dtype=bool)
    structure[:, sizes[0]:sizes[0] + sizes[1]] = np.stack(
        [np.isin(r.note_ids, (PAD_ID, CLS_ID)) for r in reports])
    modality = np.repeat(np.arange(len(sizes)), sizes)
    index = np.concatenate([np.arange(n) for n in sizes])
    keys = np.broadcast_arrays(index, modality, score, structure)
    return np.lexsort(keys, axis=-1), np.sum(~structure, axis=-1)


def rank_features(report: AttributionReport,
                  order: str = "ascending") -> list[tuple[str, int]]:
    """Removal units sorted by |attribution|, least important first.

    A unit is one (hour, feature) events cell, one real note token, or
    one (timestep, channel) vitals cell, addressed by its flat index.
    Ties break on (modality, index) so the ranking is deterministic.
    """
    columns, count = _rank_units([report], order)
    columns = columns[0, :count[0]]
    starts = np.cumsum([0, report.events.size, report.notes.size])
    m = np.searchsorted(starts, columns, side="right") - 1
    return [(MODALITIES[k], i) for k, i in zip(m.tolist(), (columns - starts[m]).tolist())]


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
                       order: str = "ascending", steps: int = 20) -> PerturbationCurve:
    """Remove each record's least-relevant units and rescore the test set.

    Attributions are computed once per record on the unperturbed input,
    the whole cohort in batched passes; at fraction f the lowest
    floor(f * n) of a record's n units are replaced by baselines. The
    copies for every fraction are scored in one ``predict_proba`` call.
    """
    fractions = default_fractions() if fractions is None else np.asarray(fractions)
    explainer = make_explainer(kind, model, seed=seed, steps=steps)
    reports = explainer.explain_cohort(
        [dataset.record(i) for i in range(len(dataset))], target_class)
    columns, count = _rank_units(reports, order)
    # a unit's removal rank; structure columns rank at or after ``count``
    rank = np.empty_like(columns)
    np.put_along_axis(rank, columns, np.arange(columns.shape[1]), axis=-1)
    take = np.floor(fractions.astype(np.float64)[:, None] * count).astype(np.int64)
    removed = rank < take[:, :, None]          # (fractions, records, columns)

    n_events = dataset.events[0].size
    n_notes = dataset.notes.shape[1]
    copies = len(fractions)
    events = np.repeat(dataset.events[None], copies, axis=0)
    notes = np.repeat(dataset.notes[None], copies, axis=0)
    vitals = np.repeat(dataset.vitals[None], copies, axis=0)
    events.reshape(removed.shape[:2] + (-1,))[removed[..., :n_events]] = 0.0
    notes[removed[..., n_events:n_events + n_notes]] = PAD_ID
    vitals.reshape(removed.shape[:2] + (-1,))[removed[..., n_events + n_notes:]] = 0.0
    flat = [a.reshape((-1,) + a.shape[2:]) for a in (events, notes, vitals)]
    probs = model.predict_proba(*flat)[:, 1].reshape(copies, len(dataset))
    aucs = [auc_roc(dataset.labels, p) for p in probs]
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
                       steps: int = 20, log_fn=None) -> list[PerturbationCurve]:
    """One perturbation curve per explainer, same grid and seed throughout."""
    curves = []
    for kind in kinds:
        curve = perturbation_curve(
            model, dataset, kind, target_class=target_class,
            fractions=fractions, seed=seed, order=order, steps=steps)
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
