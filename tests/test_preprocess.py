"""Preprocessing: grids, tokenization, binning, matching, assembly."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from icuxai.errors import (NotFittedError, ParseError, RecordRejectedError,
                           SchemaError)
from icuxai.preprocess import (DEFAULT_STOPLIST, CategoricalFeature, EventLayout,
                               EventPreprocessor, NormalValueTable,
                               NotePreprocessor, VitalsPreprocessor,
                               build_dataset, impute_series, match_modalities,
                               read_events_csv, read_labels_csv,
                               read_notes_jsonl, read_vitals_csv, split_stays)
from icuxai.records import CLS_ID, PAD_ID, UNK_ID

TABLE = NormalValueTable.load()

# training rows that give glucose mean 110, std 10 (cells 100 and 120)
GLUCOSE_TRAIN = [[(0.5, "glucose", "100"), (1.5, "glucose", "120")]]


def fitted_events():
    return EventPreprocessor(TABLE).fit(GLUCOSE_TRAIN)


# --- layout and table ---------------------------------------------------------


def test_default_layout_is_the_canonical_76_wide_grid():
    layout = EventLayout(TABLE)
    assert layout.width == 76
    assert len(TABLE.feature_names) == 17
    assert len(TABLE.continuous) == 12
    sizes = [len(f.categories) for f in TABLE.categorical.values()]
    assert sorted(sizes) == [2, 8, 12, 12, 13]
    assert layout.column_names[layout.value_column("glucose")] == "glucose"
    assert layout.column_names[layout.mask_column("glucose")] == "glucose observed"
    lo, hi = layout.block("gcs total")
    assert hi - lo == 13
    assert layout.column_names[lo] == "gcs total=3"
    assert len(TABLE.channel_names) == 21


def test_table_validates_categories():
    with pytest.raises(ParseError, match="not one of its categories"):
        CategoricalFeature("c", "missing", ("a", "b"))
    with pytest.raises(ParseError, match="duplicate categories"):
        CategoricalFeature("c", "a", ("a", "a"))
    with pytest.raises(ParseError, match="no vitals channels"):
        NormalValueTable({"x": 1.0}, {}, {})


def test_table_round_trips_through_dict(tmp_path):
    path = tmp_path / "normals.json"
    path.write_text(json.dumps(TABLE.to_dict()))
    again = NormalValueTable.load(path)
    assert again.feature_names == TABLE.feature_names
    assert again.vitals == TABLE.vitals


# --- events: the documented resampling rules ------------------------------------


def test_golden_events_latest_value_wins_within_the_hour():
    pre = fitted_events()
    seq = pre.transform([(3.2, "glucose", "100"), (3.7, "glucose", "120")])
    col = pre.layout.value_column("glucose")
    # hour 3 keeps the 3.7h observation: z = (120 - 110) / 10
    assert seq.values[3, col] == pytest.approx(1.0)
    assert seq.mask[3, col] == 1.0


def test_golden_events_forward_fill_marks_imputed_hours():
    pre = fitted_events()
    seq = pre.transform([(4.5, "glucose", "98")])
    col = pre.layout.value_column("glucose")
    assert seq.values[4, col] == pytest.approx(-1.2)   # (98-110)/10
    assert seq.values[5, col] == seq.values[4, col]
    assert seq.mask[4, col] == 1.0
    assert seq.mask[5, col] == 0.0


def test_golden_events_normal_value_before_first_observation():
    pre = fitted_events()
    seq = pre.transform([(4.5, "glucose", "98")])
    col = pre.layout.value_column("glucose")
    # hours 0-3 predate any observation: normal 128 -> (128-110)/10
    assert np.allclose(seq.values[:4, col], 1.8)
    assert np.all(seq.mask[:4, col] == 0.0)


def test_events_mask_feature_columns_mirror_the_observed_grid():
    pre = fitted_events()
    seq = pre.transform([(3.2, "glucose", "100")])
    mask_col = pre.layout.mask_column("glucose")
    assert seq.values[3, mask_col] == 1.0
    assert seq.values[2, mask_col] == 0.0
    assert np.array_equal(seq.values[:, mask_col], seq.mask[:, mask_col])


def test_events_same_timestamp_keeps_the_later_row():
    pre = fitted_events()
    seq = pre.transform([(3.0, "glucose", "100"), (3.0, "glucose", "120")])
    assert seq.values[3, pre.layout.value_column("glucose")] == pytest.approx(1.0)


def test_events_window_filter_drops_out_of_range_rows():
    pre = fitted_events()
    seq = pre.transform([(-0.1, "glucose", "50"), (24.0, "glucose", "70")])
    col = pre.layout.value_column("glucose")
    assert np.all(seq.mask[:, col] == 0.0)
    assert np.allclose(seq.values[:, col], 1.8)   # all normal-imputed


def test_events_categorical_one_hot_and_normal_default():
    pre = fitted_events()
    seq = pre.transform([(1.5, "gcs eye opening", "2 to pain")])
    lo, _ = pre.layout.block("gcs eye opening")
    normal_idx = TABLE.categorical["gcs eye opening"].index("4 spontaneously")
    assert seq.values[0, lo + normal_idx] == 1.0        # pre-observation default
    assert seq.values[1, lo + 2] == 1.0                 # observed category
    assert seq.values[23, lo + 2] == 1.0                # forward-filled
    assert seq.values[1, lo + normal_idx] == 0.0
    block = seq.values[:, lo:lo + 8]
    assert np.all(block.sum(axis=1) == 1.0)             # exactly one-hot per hour


def test_events_parse_errors():
    pre = fitted_events()
    with pytest.raises(ParseError, match="unknown event feature"):
        pre.transform([(1.0, "serum rhubarb", "3")])
    with pytest.raises(ParseError, match="not a number"):
        pre.transform([(1.0, "glucose", "high")])
    with pytest.raises(ParseError, match="category"):
        pre.transform([(1.0, "gcs total", "16")])
    with pytest.raises(ParseError, match="not a number"):
        pre.transform([("soon", "glucose", "90")])
    with pytest.raises(NotFittedError):
        EventPreprocessor(TABLE).transform([(1.0, "glucose", "90")])


def test_events_zero_variance_feature_normalizes_to_zero():
    pre = EventPreprocessor(TABLE).fit([[(0.5, "ph", "7.4"), (1.5, "ph", "7.4")]])
    seq = pre.transform([(0.1, "ph", "7.4")])
    assert np.all(seq.values[:, pre.layout.value_column("ph")] == 0.0)


def test_events_unseen_feature_stats_center_on_the_normal_value():
    pre = fitted_events()   # heart rate never observed during fit
    assert pre.stats_["heart rate"] == (TABLE.continuous["heart rate"], 0.0)
    seq = pre.transform([(0.2, "heart rate", "86")])
    assert np.all(seq.values[:, pre.layout.value_column("heart rate")] == 0.0)


def test_events_transform_is_deterministic():
    pre = fitted_events()
    rows = [(3.2, "glucose", "100"), (5.0, "ph", "7.3")]
    a, b = pre.transform(rows), pre.transform(rows)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.mask, b.mask)


# --- imputation helper -----------------------------------------------------------


def test_impute_series_fills_leading_and_interior_gaps():
    out = impute_series(np.array([0.0, 5.0, 0.0, 7.0, 0.0]),
                        np.array([0, 1, 0, 1, 0]), normal=2.0)
    assert out.tolist() == [2.0, 5.0, 5.0, 7.0, 7.0]


def impute_by_loop(values, observed, normal):
    """Reference forward fill, one position at a time."""
    out = np.array(values, dtype=np.float64)
    last = float(normal)
    for i in range(out.shape[0]):
        if observed[i]:
            last = out[i]
        else:
            out[i] = last
    return out


@given(st.lists(st.tuples(st.floats(width=64), st.sampled_from([0, 1, 0.0, 1.0, True,
                                                                False, 0.5]))),
       st.floats(allow_nan=False))
def test_impute_series_equals_the_loop_bit_for_bit(cells, normal):
    values = np.array([v for v, _ in cells], dtype=np.float64)
    observed = np.array([o for _, o in cells])
    out = impute_series(values, observed, normal)
    assert out.dtype == np.float64
    assert out.tobytes() == impute_by_loop(values, observed, normal).tobytes()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40), st.data())
def test_impute_series_is_idempotent_and_preserves_observations(values, data):
    observed = np.array(data.draw(st.lists(st.booleans(),
                                           min_size=len(values),
                                           max_size=len(values))))
    values = np.array(values)
    filled = impute_series(values, observed, normal=1.5)
    assert np.array_equal(filled[observed], values[observed])
    assert np.array_equal(impute_series(filled, observed, 1.5), filled)
    assert np.all(np.isfinite(filled))


# --- notes -----------------------------------------------------------------------


def make_notes(n_words_a=300, n_words_b=300):
    text_a = " ".join(f"alpha{i}" for i in range(n_words_a))
    text_b = " ".join(f"beta{i}" for i in range(n_words_b))
    return [
        {"stay_id": "s", "time": 2.0, "text": text_b, "category": "Nursing"},
        {"stay_id": "s", "time": 1.0, "text": text_a, "category": "Nursing"},
    ]


def test_golden_notes_keep_the_last_512_of_600_words():
    pre = NotePreprocessor()
    notes = make_notes()
    words = pre.collect_words(notes)
    assert len(words) == 512
    # chronological concatenation is alpha then beta; the first 88 alphas fall off
    assert words[0] == "alpha88"
    assert words[-1] == "beta299"
    pre.fit([notes, notes])
    tokens = pre.transform(notes)
    assert tokens.ids.shape == (513,)
    assert tokens.ids[0] == CLS_ID
    assert not np.any(tokens.ids == PAD_ID)


def test_golden_notes_remove_outcome_words():
    pre = NotePreprocessor()
    words = pre.clean_words("Patient may be dying; family aware of death risk. "
                            "DNR order discussed.")
    assert "dying" not in words and "death" not in words
    assert "dnr" in words    # care-planning terms are kept
    for word in DEFAULT_STOPLIST:
        assert word not in pre.clean_words(f"note mentions {word} twice {word}")


def test_notes_strip_deid_placeholders_and_special_characters():
    pre = NotePreprocessor()
    words = pre.clean_words("Seen by [**First Name (STitle) 123**] at 3pm!! "
                            "BP 120/80 -- stable.")
    assert words == ["seen", "by", "at", "3pm", "bp", "120", "80", "stable"]


def test_notes_error_tagged_and_out_of_window_notes_are_dropped():
    pre = NotePreprocessor()
    notes = [
        {"stay_id": "s", "time": 1.0, "text": "keep one", "iserror": None},
        {"stay_id": "s", "time": 2.0, "text": "haste makes waste", "iserror": 1},
        {"stay_id": "s", "time": 30.0, "text": "too late"},
    ]
    assert pre.collect_words(notes) == ["keep", "one"]


def test_notes_vocabulary_needs_min_count_and_maps_rest_to_unk():
    pre = NotePreprocessor(max_words=8, min_count=2)
    pre.fit([[(1.0, "fever fever chills")], [(1.0, "fever sweats")]])
    assert "fever" in pre.vocab_
    assert "chills" not in pre.vocab_ and "sweats" not in pre.vocab_
    ids = pre.transform([(1.0, "fever chills")]).ids
    assert ids[1] == pre.vocab_["fever"]
    assert ids[2] == UNK_ID
    assert np.all(ids[3:] == PAD_ID)


def test_notes_vocabulary_order_is_frequency_then_alphabetical():
    pre = NotePreprocessor(min_count=1)
    pre.fit([[(1.0, "bb aa bb cc")]])
    assert pre.vocab_["bb"] == 3          # most frequent first, after reserved ids
    assert pre.vocab_["aa"] == 4
    assert pre.vocab_["cc"] == 5


def test_notes_empty_stay_warns_and_emits_cls_only():
    pre = NotePreprocessor(max_words=8)
    pre.fit([[(1.0, "some words here some words")]])
    with pytest.warns(UserWarning, match="no usable note text"):
        tokens = pre.transform([], stay="s77")
    assert tokens.ids[0] == CLS_ID
    assert np.all(tokens.ids[1:] == PAD_ID)


def test_notes_require_fit_and_valid_rows():
    pre = NotePreprocessor()
    with pytest.raises(NotFittedError):
        pre.transform([(1.0, "hello")])
    with pytest.raises(ParseError, match="not a number"):
        pre.collect_words([{"stay_id": "s", "time": "noonish", "text": "hi"}])


# --- vitals ----------------------------------------------------------------------


def full_coverage_rows(channels=None, steps=480, value=1.0):
    channels = TABLE.channel_names if channels is None else channels
    step_hours = 24.0 / steps
    rows = []
    for name in channels:
        rows += [(name, (b + 0.5) * step_hours, value) for b in range(steps)]
    return rows


def test_golden_vitals_one_hertz_channel_fills_all_480_bins():
    pre = VitalsPreprocessor(TABLE)
    rows = [("heart rate", s / 3600.0, s / 3600.0) for s in range(86400)]
    values, observed = pre._binned(rows)
    col = TABLE.channel_names.index("heart rate")
    assert observed[:, col].sum() == 480.0
    assert pre.missing_fractions(rows)["heart rate"] == 0.0
    # each bin keeps its last (latest) observation: second 180b + 179
    expected = (np.arange(480) * 180 + 179) / 3600.0
    assert np.allclose(values[:, col], expected)


def test_golden_vitals_channel_over_half_missing_rejects_the_stay():
    pre = VitalsPreprocessor(TABLE)
    pre.fit([full_coverage_rows()])
    rows = [r for r in full_coverage_rows() if r[0] != "cvp"]
    # cvp present in only 192 of 480 bins -> 60% missing
    rows += [("cvp", (b + 0.5) * 0.05, 8.0) for b in range(192)]
    assert pre.missing_fractions(rows)["cvp"] == pytest.approx(0.6)
    with pytest.raises(RecordRejectedError, match="'cvp' is 60% missing"):
        pre.transform(rows, stay="s3")


def test_vitals_exactly_half_missing_is_still_accepted():
    pre = VitalsPreprocessor(TABLE, steps=4)
    pre.fit([full_coverage_rows(steps=4)])
    rows = [r for r in full_coverage_rows(steps=4) if r[0] != "cvp"]
    rows += [("cvp", 1.0, 8.0), ("cvp", 13.0, 9.0)]   # 2 of 4 bins
    grid = pre.transform(rows)
    assert grid.values.shape == (4, 21)


def test_golden_vitals_constant_channel_normalizes_to_zero():
    pre = VitalsPreprocessor(TABLE, steps=8)
    pre.fit([full_coverage_rows(steps=8, value=5.5)])
    grid = pre.transform(full_coverage_rows(steps=8, value=5.5))
    assert np.all(grid.values == 0.0)


def varied_fit(pre, steps):
    # two training stays at different levels so every channel gets std 1
    pre.fit([full_coverage_rows(steps=steps, value=1.0),
             full_coverage_rows(steps=steps, value=3.0)])
    assert pre.stats_["pulse"] == (2.0, 1.0)
    return pre


def test_vitals_bin_keeps_last_observation_and_imputes_forward():
    pre = varied_fit(VitalsPreprocessor(TABLE, steps=4), steps=4)
    rows = [r for r in full_coverage_rows(steps=4) if r[0] != "pulse"]
    rows += [("pulse", 0.2, 60.0), ("pulse", 5.9, 70.0), ("pulse", 6.2, 75.0)]
    values, observed = pre._binned(rows)
    col = TABLE.channel_names.index("pulse")
    assert values[0, col] == 70.0          # 5.9h beats 0.2h inside the 6h bin
    assert values[1, col] == 75.0
    assert observed[:, col].tolist() == [1.0, 1.0, 0.0, 0.0]
    grid = pre.transform(rows)
    assert grid.values[2, col] == pytest.approx(75.0 - 2.0)   # (v - mean) / std
    assert grid.values[3, col] == grid.values[2, col]


def test_vitals_leading_gap_takes_the_normal_value():
    pre = varied_fit(VitalsPreprocessor(TABLE, steps=4), steps=4)
    rows = [r for r in full_coverage_rows(steps=4) if r[0] != "pulse"]
    rows += [("pulse", 13.0, 70.0), ("pulse", 19.0, 72.0)]
    grid = pre.transform(rows)
    col = TABLE.channel_names.index("pulse")
    assert grid.values[0, col] == pytest.approx(TABLE.vitals["pulse"] - 2.0)


def test_vitals_parse_errors_are_distinct_from_rejection():
    pre = VitalsPreprocessor(TABLE)
    with pytest.raises(ParseError, match="unknown vitals channel"):
        pre.missing_fractions([("telepathy", 1.0, 3.0)])
    with pytest.raises(ParseError, match="not a number"):
        pre.missing_fractions([("cvp", 1.0, "eight")])
    assert not issubclass(RecordRejectedError, ParseError)
    with pytest.raises(NotFittedError):
        pre.transform(full_coverage_rows())


def binned_by_row(pre, rows):
    """Reference binning, one row at a time: an in-window row takes its
    bin when its time is at least that of the bin's row so far."""
    values = np.zeros((pre.steps, len(pre.channels)))
    when = np.full_like(values, -np.inf)
    observed = np.zeros_like(values)
    index = {name: i for i, name in enumerate(pre.channels)}
    per_hour = pre.steps / pre.hours
    for channel, t_raw, value in rows:
        c = index[str(channel).strip().lower()]
        t = float(t_raw)
        if not 0.0 <= t < pre.hours:
            continue
        b = min(int(t * per_hour), pre.steps - 1)
        if t >= when[b, c]:
            when[b, c], values[b, c], observed[b, c] = t, float(value), 1.0
    return values, observed


# 9 bins over 7 hours: bin edges are inexact, and the largest time below
# 7 lands on 9.0 before the clamp into the last bin
EDGE_STEPS, EDGE_HOURS = 9, 7
BELOW_HOURS = float(np.nextafter(EDGE_HOURS, 0.0))
EDGE_TIMES = ([k * EDGE_HOURS / EDGE_STEPS for k in range(EDGE_STEPS + 1)]
              + [float(EDGE_HOURS), BELOW_HOURS, 0.0, -0.0, -1e-300, -0.5, 8.0])


def spelled(draw, x):
    return draw(st.sampled_from([x, repr(x), f" {x!r} "]))


@st.composite
def vitals_rows(draw):
    name = draw(st.sampled_from(["pulse", "cvp", "spo2", "heart rate"]))
    name = draw(st.sampled_from([name, name.upper(), name.title(), f"  {name}\t"]))
    t = draw(st.sampled_from(EDGE_TIMES) | st.floats(-1.0, 8.0))
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    return (name, spelled(draw, t), spelled(draw, value))


def test_edge_geometry_reaches_the_last_bin_clamp():
    assert int(BELOW_HOURS * (EDGE_STEPS / EDGE_HOURS)) == EDGE_STEPS


@given(st.lists(vitals_rows(), max_size=40), st.booleans(), st.randoms())
def test_binned_equals_the_row_loop_bit_for_bit(rows, as_generator, rng):
    rows += [rows[i] for i in rng.sample(range(len(rows)), len(rows) // 3)]
    rng.shuffle(rows)       # repeated rows give exact timestamp ties
    pre = VitalsPreprocessor(TABLE, steps=EDGE_STEPS, hours=EDGE_HOURS)
    values, observed = pre._binned(iter(rows) if as_generator else rows)
    want_values, want_observed = binned_by_row(pre, rows)
    assert values.dtype == observed.dtype == np.float64
    assert values.tobytes() == want_values.tobytes()
    assert observed.tobytes() == want_observed.tobytes()
    # well-formed rows never take the row-by-row error path
    index = {name: i for i, name in enumerate(pre.channels)}
    assert pre._columns(rows, index) is not None


def test_binned_tie_goes_to_the_later_row_and_empty_input_is_all_missing():
    pre = VitalsPreprocessor(TABLE, steps=4)
    col = TABLE.channel_names.index("cvp")
    values, observed = pre._binned([("cvp", "1.0", "8"), ("CVP ", 1.0, 9.0),
                                    ("cvp", 0.5, "7")])
    assert values[0, col] == 9.0 and observed[:, col].tolist() == [1, 0, 0, 0]
    for empty in ([], iter(())):
        values, observed = pre._binned(empty)
        assert values.shape == observed.shape == (4, 21)
        assert not values.any() and not observed.any()


@pytest.mark.parametrize("rows, message", [
    ([("cvp", 1.0)], r"vitals row \('cvp', 1.0\) is not \(channel, time, value\)"),
    ([None], r"vitals row None is not \(channel, time, value\)"),
    ([("cvp", 1.0, 8.0, "mmHg")], r"vitals row .* is not \(channel, time, value\)"),
    ([(" TelePathy ", 1.0, 3.0)], r"unknown vitals channel 'telepathy'"),
    ([("cvp", "soon", 8.0)], r"vitals time 'soon' is not a number"),
    ([("cvp", None, 8.0)], r"vitals time None is not a number"),
    ([("cvp", "inf", 8.0)], r"vitals time 'inf' is not finite"),
    ([("cvp", float("nan"), 8.0)], r"vitals time nan is not finite"),
    ([("cvp", 1.0, "eight")], r"cvp value 'eight' is not a number"),
    ([("Cvp", 1.0, "nan")], r"cvp value 'nan' is not finite"),
    ([("cvp", 1.0, "")], r"cvp value '' is not a number"),
])
def test_binned_parse_error_messages(rows, message):
    pre = VitalsPreprocessor(TABLE)
    with pytest.raises(ParseError, match=f"^{message}$"):
        pre._binned([("pulse", 0.5, 70.0)] + rows)


def test_binned_first_malformed_row_in_file_order_raises():
    pre = VitalsPreprocessor(TABLE)
    bad_value, bad_channel = ("cvp", 1.0, "x"), ("telepathy", 2.0, 3.0)
    with pytest.raises(ParseError, match="cvp value 'x'"):
        pre._binned([bad_value, bad_channel])
    with pytest.raises(ParseError, match="unknown vitals channel"):
        pre._binned([bad_channel, bad_value])


def test_binned_bad_in_window_value_raises_wherever_the_row_falls():
    pre = VitalsPreprocessor(TABLE)
    winner, loser = ("cvp", 1.01, "8"), ("cvp", 1.0, "eight")   # both in bin 20
    for rows in ([winner, loser], [loser, winner]):
        with pytest.raises(ParseError, match="cvp value 'eight' is not a number"):
            pre._binned(rows)
    # outside the window the value is never read
    values, observed = pre._binned([winner, ("cvp", 24.0, "eight"),
                                    ("cvp", -1.0, "nan")])
    assert observed.sum() == 1.0


# --- matching ---------------------------------------------------------------------


def test_match_modalities_inner_join():
    logged = []
    matched = match_modalities({"1": [], "2": []}, {"2": [], "3": []}, {"2": []},
                               log_fn=logged.append)
    assert matched == ["2"]
    dropped = {(e["modality"], tuple(e["stays"])) for e in logged}
    assert ("events", ("1",)) in dropped and ("notes", ("3",)) in dropped


def test_match_modalities_empty_intersection_warns():
    with pytest.warns(UserWarning, match="empty"):
        assert match_modalities({"1": []}, {"2": []}, {"3": []}) == []


def test_match_modalities_duplicate_stay_in_pair_list():
    with pytest.raises(SchemaError, match="duplicate stay id"):
        match_modalities([("1", []), ("1", [])], {"1": []}, {"1": []})


# --- split -----------------------------------------------------------------------


def test_split_stays_partitions_and_is_seeded():
    ids = [f"s{i}" for i in range(25)]
    split = split_stays(ids, seed=3)
    parts = [split["train"], split["val"], split["test"]]
    assert sorted(sum(parts, [])) == sorted(ids)
    assert len(split["train"]) == 16 and len(split["val"]) == 4
    assert split == split_stays(ids, seed=3)
    assert split != split_stays(ids, seed=4)
    with pytest.raises(ValueError, match="summing to 1"):
        split_stays(ids, fractions=(0.5, 0.2, 0.2))


# --- file readers ------------------------------------------------------------------


def test_readers_validate_headers_and_values(tmp_path):
    events = tmp_path / "e.csv"
    events.write_text("stay_id,time,feature\n1,0.5,glucose\n")
    with pytest.raises(ParseError, match="missing columns"):
        read_events_csv(events)
    with pytest.raises(ParseError, match="does not exist"):
        read_vitals_csv(tmp_path / "nope.csv")
    notes = tmp_path / "n.jsonl"
    notes.write_text('{"stay_id": "1", "time": 1.0}\n')
    with pytest.raises(ParseError, match="needs stay_id, time and text"):
        read_notes_jsonl(notes)
    notes.write_text("not json\n")
    with pytest.raises(ParseError, match="line 1"):
        read_notes_jsonl(notes)
    labels = tmp_path / "l.csv"
    labels.write_text("stay_id,label\n1,2\n")
    with pytest.raises(ParseError, match="must be 0 or 1"):
        read_labels_csv(labels)
    labels.write_text("stay_id,label\n1,0\n1,1\n")
    with pytest.raises(ParseError, match="duplicate label"):
        read_labels_csv(labels)


def test_readers_group_rows_by_stay(tmp_path):
    events = tmp_path / "e.csv"
    events.write_text("stay_id,time,feature,value\n"
                      "a,0.5,glucose,100\na,1.5,ph,7.3\nb,2.0,glucose,90\n")
    grouped = read_events_csv(events)
    assert set(grouped) == {"a", "b"}
    assert grouped["a"] == [("0.5", "glucose", "100"), ("1.5", "ph", "7.3")]


def test_csv_readers_pick_columns_by_header_name(tmp_path):
    vitals = tmp_path / "v.csv"
    vitals.write_text("value,unit,time,channel,stay_id\n"
                      "8,mmHg,0.5,cvp,a\n\n70,bpm,1.0,pulse,a,extra\n")
    assert read_vitals_csv(vitals) == {"a": [("cvp", "0.5", "8"),
                                             ("pulse", "1.0", "70")]}


@pytest.mark.parametrize("reader, what, text, line", [
    (read_events_csv, "events",
     "stay_id,time,feature,value\na,0.5,glucose,100\na,1.5,ph\n", 3),
    (read_vitals_csv, "vitals",
     "stay_id,channel,time,value\na,cvp,0.5,8\n\na,cvp,1.0\n", 4),
    (read_labels_csv, "labels", "stay_id,label\na,0\nb\n", 3),
])
def test_csv_readers_reject_a_short_row_by_file_and_line(tmp_path, reader, what,
                                                          text, line):
    path = tmp_path / f"{what}.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=rf"^{what} file {re.escape(str(path))} "
                                         rf"line {line}: \d fields where the header "
                                         rf"has \d$"):
        reader(path)


# --- end-to-end assembly ------------------------------------------------------------


def write_corpus(tmp_path, n=6, steps=20):
    """Small but complete corpus: n healthy stays plus one stay with an
    under-covered vitals channel, one without a label, one unmatched."""
    stays = [f"s{i}" for i in range(n)]
    events_lines = ["stay_id,time,feature,value"]
    notes_lines = []
    vitals_lines = ["stay_id,channel,time,value"]
    labels_lines = ["stay_id,label"]
    for i, stay in enumerate(stays + ["reject", "nolabel"]):
        for h in (0.5, 6.2, 18.9):
            events_lines.append(f"{stay},{h},glucose,{90 + 10 * i}")
            events_lines.append(f"{stay},{h},heart rate,{70 + i}")
        events_lines.append(f"{stay},1.1,gcs total,15")
        notes_lines.append(json.dumps(
            {"stay_id": stay, "time": 1.0,
             "text": f"routine check stay number {i} stable overnight"}))
        notes_lines.append(json.dumps(
            {"stay_id": stay, "time": 20.0,
             "text": "family meeting held regarding dying patient"}))
        bins = 4 if stay == "reject" else 16   # of 20 -> 80% vs 20% missing
        for name in TABLE.channel_names:
            for b in range(bins):
                t = (b + 0.5) * (24.0 / steps)
                vitals_lines.append(f"{stay},{name},{t},{50 + b + i}")
    for i, stay in enumerate(stays + ["reject"]):
        labels_lines.append(f"{stay},{i % 2}")
    events_lines.append("ghost,0.5,glucose,100")   # unmatched stay
    (tmp_path / "events.csv").write_text("\n".join(events_lines) + "\n")
    (tmp_path / "notes.jsonl").write_text("\n".join(notes_lines) + "\n")
    (tmp_path / "vitals.csv").write_text("\n".join(vitals_lines) + "\n")
    (tmp_path / "labels.csv").write_text("\n".join(labels_lines) + "\n")
    return stays


def build(tmp_path, **kw):
    return build_dataset(tmp_path / "events.csv", tmp_path / "notes.jsonl",
                         tmp_path / "vitals.csv", tmp_path / "labels.csv",
                         steps=20, max_words=16, min_count=1, **kw)


def test_build_dataset_assembles_matched_screened_labeled_stays(tmp_path):
    stays = write_corpus(tmp_path)
    with pytest.warns(UserWarning, match="no label"):
        ds = build(tmp_path)
    assert ds.ids == sorted(stays)                 # reject + nolabel dropped
    assert ds.events.shape == (6, 24, 76)
    assert ds.notes.shape == (6, 17)
    assert ds.vitals.shape == (6, 20, 21)
    assert ds.meta["rejected"] == ["reject"]
    assert set(ds.meta["split"]) == {"train", "val", "test"}
    split_union = sorted(sum(ds.meta["split"].values(), []))
    assert split_union == ds.ids
    assert "dying" not in ds.meta["vocab"]
    assert "stable" in ds.meta["vocab"]
    assert ds.meta["event_names"][:2] == ["diastolic blood pressure",
                                          "fraction inspired oxygen"]


def test_build_dataset_statistics_come_from_the_training_split_only(tmp_path):
    write_corpus(tmp_path)
    with pytest.warns(UserWarning):
        ds = build(tmp_path)
    train_ids = ds.meta["split"]["train"]
    event_rows = read_events_csv(tmp_path / "events.csv")
    recomputed = EventPreprocessor(TABLE).fit(
        event_rows[s] for s in train_ids).stats_
    stored = ds.meta["stats"]["events"]
    for name, (mean, std) in recomputed.items():
        assert stored[name]["mean"] == mean
        assert stored[name]["std"] == std
    vit_rows = read_vitals_csv(tmp_path / "vitals.csv")
    revitals = VitalsPreprocessor(TABLE, steps=20).fit(
        vit_rows[s] for s in train_ids).stats_
    assert ds.meta["stats"]["vitals"]["cvp"]["mean"] == revitals["cvp"][0]


def test_build_dataset_is_byte_reproducible(tmp_path):
    write_corpus(tmp_path)
    with pytest.warns(UserWarning):
        a = build(tmp_path)
    with pytest.warns(UserWarning):
        b = build(tmp_path)
    pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_build_dataset_split_changes_with_seed(tmp_path):
    write_corpus(tmp_path, n=10)
    with pytest.warns(UserWarning):
        a = build(tmp_path, seed=0)
    with pytest.warns(UserWarning):
        b = build(tmp_path, seed=1)
    assert a.meta["split"] != b.meta["split"]
    assert a.ids == b.ids                          # membership is split-free


def test_build_dataset_logs_stage_timings_and_rows_read(tmp_path):
    write_corpus(tmp_path)
    logged = []
    with pytest.warns(UserWarning):
        logged_ds = build(tmp_path, log_fn=logged.append)
    with pytest.warns(UserWarning):
        quiet_ds = build(tmp_path)
    timing = logged[-1]
    assert [e["event"] for e in logged].count("preprocess-timing") == 1
    stages = ("read_s", "match_s", "screen_s", "fit_s", "transform_s")
    assert set(timing) == {"event", "rows", *stages}
    assert all(timing[s] >= 0.0 for s in stages)

    def lines(name):
        return len((tmp_path / name).read_text().splitlines())
    assert timing["rows"] == {"events": lines("events.csv") - 1,
                              "notes": lines("notes.jsonl"),
                              "vitals": lines("vitals.csv") - 1,
                              "labels": lines("labels.csv") - 1}
    pa, pb = tmp_path / "logged.npz", tmp_path / "quiet.npz"
    logged_ds.save(pa)
    quiet_ds.save(pb)
    assert pa.read_bytes() == pb.read_bytes()
