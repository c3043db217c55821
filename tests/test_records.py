"""Dataset container and validation tests."""

import numpy as np
import pytest

from icuxai.errors import SchemaError
from icuxai.records import (
    CLS_ID,
    PAD_ID,
    EventSequence,
    MultimodalDataset,
    MultimodalRecord,
    NoteTokens,
    VitalSigns,
    check_events,
    check_labels,
    check_notes,
)


def make_dataset(n=6, hours=4, dim=5, note_len=8, steps=6, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    notes = np.full((n, note_len), PAD_ID, dtype=np.int64)
    notes[:, 0] = CLS_ID
    notes[:, 1:4] = rng.integers(3, 20, size=(n, 3))
    return MultimodalDataset(
        events=rng.normal(size=(n, hours, dim)),
        events_mask=rng.integers(0, 2, size=(n, hours, dim)).astype(float),
        notes=notes,
        vitals=rng.normal(size=(n, steps, channels)),
        labels=(rng.random(n) < 0.5).astype(np.int64),
        ids=[f"stay{i:03d}" for i in range(n)],
        meta={"vocab": ["[PAD]", "[CLS]", "[UNK]"]},
    )


def test_dataset_basic_accessors():
    ds = make_dataset()
    assert len(ds) == 6
    rec = ds.record(2)
    assert rec.record_id == "stay002"
    assert rec.label in (0, 1)
    np.testing.assert_array_equal(rec.events.values, ds.events[2])
    np.testing.assert_array_equal(rec.notes.ids, ds.notes[2])


def test_subset_selects_rows_and_ids():
    ds = make_dataset()
    sub = ds.subset([4, 1])
    assert sub.ids == ["stay004", "stay001"]
    np.testing.assert_array_equal(sub.events, ds.events[[4, 1]])
    np.testing.assert_array_equal(sub.labels, ds.labels[[4, 1]])
    assert len(sub) == 2


def test_save_load_round_trip(tmp_path):
    ds = make_dataset()
    path = tmp_path / "data.bin"
    ds.save(path)
    back = MultimodalDataset.load(path)
    np.testing.assert_array_equal(back.events, ds.events)
    np.testing.assert_array_equal(back.events_mask, ds.events_mask)
    np.testing.assert_array_equal(back.notes, ds.notes)
    np.testing.assert_array_equal(back.vitals, ds.vitals)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.ids == ds.ids
    assert back.meta == ds.meta


def test_loading_a_non_dataset_container_fails(tmp_path):
    from icuxai import fileio
    path = tmp_path / "other.bin"
    fileio.save_container(path, {"x": np.zeros(2)}, {"kind": "something-else"})
    with pytest.raises(SchemaError, match="not a dataset"):
        MultimodalDataset.load(path)


# --- validation --------------------------------------------------------------

def test_notes_must_start_with_cls():
    ds_kwargs = dict(
        events=np.zeros((1, 2, 3)), events_mask=np.ones((1, 2, 3)),
        vitals=np.zeros((1, 2, 2)), labels=np.array([0]), ids=["a"])
    bad = np.full((1, 4), PAD_ID, dtype=np.int64)  # no CLS
    with pytest.raises(SchemaError, match=r"\[CLS\]"):
        MultimodalDataset(notes=bad, **ds_kwargs)


def test_unknown_token_id_is_rejected():
    ids = np.array([[CLS_ID, 7]])
    with pytest.raises(SchemaError, match="unknown token id 7"):
        check_notes(ids, vocab_size=5)
    check_notes(ids, vocab_size=8)  # in range: fine


def test_negative_token_id_is_rejected():
    with pytest.raises(SchemaError, match="non-negative"):
        check_notes(np.array([[CLS_ID, -1]]))


def test_float_token_ids_are_rejected():
    with pytest.raises(SchemaError, match="integers"):
        check_notes(np.array([[1.0, 2.0]]))


def test_event_grid_must_be_finite():
    arr = np.zeros((1, 2, 3))
    arr[0, 1, 1] = np.nan
    with pytest.raises(SchemaError, match="NaN"):
        check_events(arr)


def test_event_dim_mismatch_names_the_projection():
    with pytest.raises(SchemaError, match="events.in_proj"):
        check_events(np.zeros((1, 24, 75)), dim=76)


def test_zero_hours_is_rejected():
    with pytest.raises(SchemaError, match="at least one hour"):
        check_events(np.zeros((1, 0, 3)))


def test_labels_must_be_binary_integers():
    with pytest.raises(SchemaError, match="0.*or 1"):
        check_labels(np.array([0, 2]))
    with pytest.raises(SchemaError, match="integers"):
        check_labels(np.array([0.5]))


def test_mask_must_be_binary():
    with pytest.raises(SchemaError, match="0 or 1"):
        make_mask_dataset(mask_value=0.5)


def make_mask_dataset(mask_value):
    notes = np.full((1, 4), PAD_ID, dtype=np.int64)
    notes[:, 0] = CLS_ID
    return MultimodalDataset(
        events=np.zeros((1, 2, 3)), events_mask=np.full((1, 2, 3), mask_value),
        notes=notes, vitals=np.zeros((1, 2, 2)),
        labels=np.array([0]), ids=["a"])


def test_mismatched_record_counts_are_rejected():
    ds = make_dataset(n=4)
    with pytest.raises(SchemaError, match="record counts disagree"):
        MultimodalDataset(events=ds.events[:3], events_mask=ds.events_mask[:3],
                          notes=ds.notes, vitals=ds.vitals,
                          labels=ds.labels, ids=ds.ids)


def test_duplicate_ids_are_rejected():
    ds = make_dataset(n=2)
    with pytest.raises(SchemaError, match="unique"):
        MultimodalDataset(events=ds.events, events_mask=ds.events_mask,
                          notes=ds.notes, vitals=ds.vitals,
                          labels=ds.labels, ids=["same", "same"])


def test_record_dataclasses_validate_on_construction():
    with pytest.raises(SchemaError):
        EventSequence(np.zeros((2, 3)), np.full((2, 3), 2.0))  # non-binary mask
    with pytest.raises(SchemaError):
        NoteTokens(np.array([PAD_ID, PAD_ID]))  # missing [CLS]
    with pytest.raises(SchemaError):
        VitalSigns(np.full((2, 2), np.inf))
    with pytest.raises(SchemaError):
        MultimodalRecord("r", 3, EventSequence(np.zeros((1, 1)), np.ones((1, 1))),
                         NoteTokens(np.array([CLS_ID])), VitalSigns(np.zeros((1, 1))))
