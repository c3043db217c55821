"""Model-ready record and dataset containers.

A record bundles three time-aligned views of one intensive-care stay:

* an hourly event grid (clinical observations on a fixed hour x feature
  lattice, missingness encoded as extra mask columns),
* a note token sequence (ids into a fixed vocabulary, [CLS] first,
  right-padded),
* a dense vital-sign grid (timestep x channel).

Datasets store the stacked batch arrays directly; per-record dataclass
views are materialized on demand. All validation lives here so the
model, explainers and CLI can assume well-formed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import SchemaError

#: reserved note-token ids
PAD_ID = 0
CLS_ID = 1
UNK_ID = 2

MODALITIES = ("events", "notes", "vitals")


def check_events(values, dim: int | None = None) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 3:
        raise SchemaError(f"event grid must be (records, hours, features), got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise SchemaError("event grid needs at least one hour")
    if dim is not None and arr.shape[2] != dim:
        raise SchemaError(
            f"event feature dimension {arr.shape[2]} does not match the "
            f"events.in_proj input width {dim}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError("event grid contains NaN or Inf")
    return arr


def check_notes(ids, vocab_size: int | None = None) -> np.ndarray:
    arr = np.ascontiguousarray(ids)
    if not np.issubdtype(arr.dtype, np.integer):
        raise SchemaError(f"note token ids must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    if arr.ndim != 2:
        raise SchemaError(f"note tokens must be (records, positions), got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise SchemaError("note sequences need at least the [CLS] position")
    if np.any(arr < 0):
        raise SchemaError("note token ids must be non-negative")
    if vocab_size is not None and arr.size and int(arr.max()) >= vocab_size:
        raise SchemaError(
            f"unknown token id {int(arr.max())} for vocabulary of size {vocab_size}")
    if np.any(arr[:, 0] != CLS_ID):
        raise SchemaError(f"every note sequence must start with the [CLS] id {CLS_ID}")
    return arr


def check_vitals(values, channels: int | None = None) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 3:
        raise SchemaError(f"vitals grid must be (records, timesteps, channels), got shape {arr.shape}")
    if arr.shape[1] < 1:
        raise SchemaError("vitals grid needs at least one timestep")
    if channels is not None and arr.shape[2] != channels:
        raise SchemaError(
            f"vitals channel count {arr.shape[2]} does not match the "
            f"vitals.in_proj input width {channels}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError("vitals grid contains NaN or Inf")
    return arr


def check_labels(labels) -> np.ndarray:
    arr = np.ascontiguousarray(labels)
    if arr.ndim != 1:
        raise SchemaError(f"labels must be one-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise SchemaError(f"labels must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise SchemaError("labels must be 0 (survived) or 1 (died)")
    return arr


@dataclass
class EventSequence:
    """Hourly event grid for one stay: values plus an observed-cell mask
    (mask 0 means the cell was imputed, not measured)."""

    values: np.ndarray  # (hours, features)
    mask: np.ndarray    # (hours, features), {0, 1}

    def __post_init__(self):
        self.values = check_events(self.values[None])[0]
        mask = np.ascontiguousarray(self.mask, dtype=np.float64)
        if mask.shape != self.values.shape:
            raise SchemaError(f"event mask shape {mask.shape} does not match values "
                              f"{self.values.shape}")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise SchemaError("event mask entries must be 0 or 1")
        self.mask = mask


@dataclass
class NoteTokens:
    """Token-id view of one note: [CLS] first, [PAD]-padded on the right."""

    ids: np.ndarray  # (positions,) int64

    def __post_init__(self):
        self.ids = check_notes(np.asarray(self.ids)[None])[0]


@dataclass
class VitalSigns:
    values: np.ndarray  # (timesteps, channels)

    def __post_init__(self):
        self.values = check_vitals(self.values[None])[0]


@dataclass
class MultimodalRecord:
    record_id: str
    label: int
    events: EventSequence
    notes: NoteTokens
    vitals: VitalSigns

    def __post_init__(self):
        if self.label not in (0, 1):
            raise SchemaError(f"label must be 0 or 1, got {self.label!r}")


class MultimodalDataset:
    """A batch of multimodal records with shared grid shapes.

    ``meta`` is free-form JSON-serializable metadata carried through
    save/load untouched; by convention it holds the vocabulary, event
    feature names and vitals channel names.
    """

    def __init__(self, events, events_mask, notes, vitals, labels, ids,
                 meta: dict | None = None):
        self.events = check_events(events)
        self.notes = check_notes(notes)
        self.vitals = check_vitals(vitals)
        self.labels = check_labels(labels)
        mask = np.ascontiguousarray(events_mask, dtype=np.float64)
        if mask.shape != self.events.shape:
            raise SchemaError(f"event mask shape {mask.shape} does not match events "
                              f"{self.events.shape}")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise SchemaError("event mask entries must be 0 or 1")
        self.events_mask = mask
        self.ids = [str(i) for i in ids]
        lengths = {len(self.events), len(self.notes), len(self.vitals),
                   len(self.labels), len(self.ids)}
        if len(lengths) != 1:
            raise SchemaError(f"modality record counts disagree: {sorted(lengths)}")
        if len(set(self.ids)) != len(self.ids):
            raise SchemaError("record ids must be unique")
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.labels)

    def record(self, i: int) -> MultimodalRecord:
        return MultimodalRecord(
            record_id=self.ids[i],
            label=int(self.labels[i]),
            events=EventSequence(self.events[i], self.events_mask[i]),
            notes=NoteTokens(self.notes[i]),
            vitals=VitalSigns(self.vitals[i]),
        )

    def subset(self, indices) -> "MultimodalDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return MultimodalDataset(
            events=self.events[idx],
            events_mask=self.events_mask[idx],
            notes=self.notes[idx],
            vitals=self.vitals[idx],
            labels=self.labels[idx],
            ids=[self.ids[i] for i in idx],
            meta=self.meta,
        )

    def save(self, path) -> None:
        arrays = {
            "events": self.events,
            "events_mask": self.events_mask,
            "notes": self.notes,
            "vitals": self.vitals,
            "labels": self.labels,
        }
        fileio.save_container(path, arrays, meta={
            "kind": "dataset", "ids": self.ids, "extra": self.meta})

    @classmethod
    def load(cls, path) -> "MultimodalDataset":
        arrays, meta = fileio.load_container(path)
        if meta.get("kind") != "dataset":
            raise SchemaError(f"{path}: container holds {meta.get('kind')!r}, not a dataset")
        missing = {"events", "events_mask", "notes", "vitals", "labels"} - set(arrays)
        if missing:
            raise SchemaError(f"{path}: dataset is missing arrays {sorted(missing)}")
        return cls(
            events=arrays["events"],
            events_mask=arrays["events_mask"],
            notes=arrays["notes"],
            vitals=arrays["vitals"],
            labels=arrays["labels"],
            ids=meta.get("ids", []),
            meta=meta.get("extra", {}),
        )
