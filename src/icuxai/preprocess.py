"""Raw clinical exports -> model-ready grids.

Three independent streams feed one multimodal record per ICU stay:

* hourly event grid   -- charted observations resampled to one value per
  hour (latest wins inside the hour), forward-filled across gaps, default
  "normal" values before the first observation, categorical features
  one-hot encoded, continuous features z-normalized with training-split
  statistics, plus one observed-flag column per feature;
* note token sequence -- de-identification placeholders stripped,
  lowercased, tokenized on letters/digits, outcome-revealing words
  removed, all notes concatenated in chart order and cut to the last
  ``max_words`` words walking backward from the end of the window,
  ``[CLS]`` prepended;
* vital-sign grid     -- monitor channels binned to three-minute steps
  (last observation per bin), channels missing more than half their bins
  reject the whole stay, remaining gaps imputed like events, z-normalized.

Statistics (means, stds, the note vocabulary) are fit on training stays
only and reused everywhere else, so evaluation splits never leak into
normalization. The expected file schemas are small and explicit: events
``stay_id,time,feature,value`` CSV, notes ``{stay_id, time, text,
category, iserror}`` JSON lines, vitals ``stay_id,channel,time,value``
CSV, labels ``stay_id,label`` CSV, with ``time`` in fractional hours
since ICU admission.
"""

from __future__ import annotations

import csv
import json
import re
import time
import warnings
import zlib
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import NotFittedError, ParseError, RecordRejectedError, SchemaError
from .records import (CLS_ID, PAD_ID, UNK_ID, EventSequence, MultimodalDataset,
                      NoteTokens, VitalSigns)

#: observation window and grid resolutions
WINDOW_HOURS = 24
VITALS_STEPS = 480          # one bin per 3 minutes over 24 hours
NOTE_WORDS = 512

#: ``[** ... **]`` de-identification placeholders
_DEID = re.compile(r"\[\*\*.*?\*\*\]")
_WORD = re.compile(r"[a-z0-9]+")

#: words that give away the prediction target; removed before tokenization.
#: care-planning terms ("dnr", "comfort") are deliberately kept — they are
#: legitimate clinical signal, not outcome labels.
DEFAULT_STOPLIST = (
    "die", "died", "dies", "dying", "death", "deaths",
    "expire", "expired", "expires", "expiring",
    "deceased", "mortality", "fatal", "fatality",
    "autopsy", "morgue", "postmortem",
)


def _to_float(value, what: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{what} {value!r} is not a number") from None
    if not np.isfinite(out):
        raise ParseError(f"{what} {value!r} is not finite")
    return out


def impute_series(values: np.ndarray, observed: np.ndarray, normal: float) -> np.ndarray:
    """Forward-fill a 1-D series along its observed mask.

    Unobserved leading positions take ``normal``; every other gap takes the
    most recent observed value. Re-running on the returned series with the
    same mask reproduces it exactly (imputation is idempotent).
    """
    values = np.asarray(values, dtype=np.float64)
    observed = np.asarray(observed)
    if values.shape != observed.shape or values.ndim != 1:
        raise SchemaError("impute_series wants matching 1-D value/mask arrays")
    latest = np.where(observed.astype(bool), np.arange(values.shape[0]), -1)
    np.maximum.accumulate(latest, out=latest)
    return np.where(latest >= 0, values[latest], float(normal))


# --- normal-value configuration --------------------------------------------------


@dataclass(frozen=True)
class CategoricalFeature:
    name: str
    normal: str
    categories: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.categories)) != len(self.categories):
            raise ParseError(f"{self.name}: duplicate categories")
        if self.normal not in self.categories:
            raise ParseError(f"{self.name}: normal value {self.normal!r} is not "
                             f"one of its categories")

    def index(self, value: str) -> int:
        try:
            return self.categories.index(value)
        except ValueError:
            raise ParseError(f"value {value!r} is not a recognized "
                             f"{self.name!r} category") from None


class NormalValueTable:
    """Default ("normal") values plus category lists for every event feature
    and vitals channel.

    Shipped as an editable JSON file next to the package; ``load()`` without
    a path reads those defaults. The file's key order fixes the feature and
    channel order of the grids.
    """

    def __init__(self, continuous: dict[str, float],
                 categorical: dict[str, CategoricalFeature],
                 vitals: dict[str, float]):
        if not continuous and not categorical:
            raise ParseError("normal-value table defines no event features")
        if not vitals:
            raise ParseError("normal-value table defines no vitals channels")
        self.continuous = {k: float(v) for k, v in continuous.items()}
        self.categorical = dict(categorical)
        self.vitals = {k: float(v) for k, v in vitals.items()}

    @classmethod
    def load(cls, path=None) -> "NormalValueTable":
        if path is None:
            text = resources.files("icuxai").joinpath("normal_values.json").read_text()
        else:
            text = Path(path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"normal-value table is not valid JSON: {e}") from None
        try:
            continuous = raw["events"]["continuous"]
            categorical = {
                name: CategoricalFeature(name, spec["normal"],
                                         tuple(spec["categories"]))
                for name, spec in raw["events"]["categorical"].items()
            }
            vitals = raw["vitals"]
        except (KeyError, TypeError) as e:
            raise ParseError(f"normal-value table is missing section {e}") from None
        return cls(continuous, categorical, vitals)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self.continuous) + tuple(self.categorical)

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self.vitals)

    def to_dict(self) -> dict:
        return {
            "events": {
                "continuous": dict(self.continuous),
                "categorical": {
                    name: {"normal": f.normal, "categories": list(f.categories)}
                    for name, f in self.categorical.items()
                },
            },
            "vitals": dict(self.vitals),
        }


class EventLayout:
    """Column layout of the hourly grid.

    Columns run continuous features first, then one one-hot block per
    categorical feature, then one observed-flag column per feature; the
    shipped 17-feature table (12 continuous + category sizes 2/8/12/13/12)
    yields the canonical 76-wide grid.
    """

    def __init__(self, table: NormalValueTable):
        self.table = table
        names = []
        feature_of = []           # feature index owning each column
        self._value_col: dict[str, int] = {}
        self._block: dict[str, tuple[int, int]] = {}
        order = table.feature_names
        for name in table.continuous:
            self._value_col[name] = len(names)
            feature_of.append(order.index(name))
            names.append(name)
        for name, feat in table.categorical.items():
            lo = len(names)
            for cat in feat.categories:
                feature_of.append(order.index(name))
                names.append(f"{name}={cat}")
            self._block[name] = (lo, len(names))
        self._mask_col = {}
        for i, name in enumerate(order):
            self._mask_col[name] = len(names)
            feature_of.append(i)
            names.append(f"{name} observed")
        self.column_names = tuple(names)
        self.column_feature = np.array(feature_of)

    @property
    def width(self) -> int:
        return len(self.column_names)

    def value_column(self, feature: str) -> int:
        return self._value_col[feature]

    def block(self, feature: str) -> tuple[int, int]:
        return self._block[feature]

    def mask_column(self, feature: str) -> int:
        return self._mask_col[feature]


# --- events ---------------------------------------------------------------------


class EventPreprocessor:
    """Builds the hourly event grid for one stay.

    ``fit`` learns per-feature means and standard deviations from the
    observed (non-imputed) hourly cells of the training stays; ``transform``
    then resamples, imputes, encodes and normalizes a stay's rows.
    """

    def __init__(self, table: NormalValueTable | None = None,
                 hours: int = WINDOW_HOURS):
        if hours < 1:
            raise ValueError("hours must be positive")
        self.table = table if table is not None else NormalValueTable.load()
        self.layout = EventLayout(self.table)
        self.hours = hours
        self.stats_: dict[str, tuple[float, float]] | None = None

    def _parsed(self, rows):
        """Validate and window-filter raw rows into (time, feature, value)."""
        for row in rows:
            try:
                t_raw, feature, value = row
            except (TypeError, ValueError):
                raise ParseError(f"event row {row!r} is not (time, feature, value)") \
                    from None
            t = _to_float(t_raw, "event time")
            if not 0.0 <= t < self.hours:
                continue
            feature = str(feature).strip().lower()
            if feature in self.table.continuous:
                yield t, feature, _to_float(value, f"{feature} value")
            elif feature in self.table.categorical:
                yield t, feature, self.table.categorical[feature].index(
                    str(value).strip().lower())
            else:
                raise ParseError(f"unknown event feature {feature!r}")

    def _hourly(self, rows) -> dict[tuple[int, str], tuple[float, float]]:
        """Latest observation per (hour, feature); later timestamps win,
        file order breaks exact-timestamp ties."""
        latest: dict[tuple[int, str], tuple[float, float]] = {}
        for t, feature, value in self._parsed(rows):
            key = (int(t), feature)
            if key not in latest or t >= latest[key][0]:
                latest[key] = (t, value)
        return latest

    def fit(self, stays) -> "EventPreprocessor":
        observed: dict[str, list[float]] = {n: [] for n in self.table.continuous}
        for rows in stays:
            for (_, feature), (_, value) in self._hourly(rows).items():
                if feature in observed:
                    observed[feature].append(value)
        stats = {}
        for name, values in observed.items():
            if values:
                arr = np.asarray(values)
                stats[name] = (float(arr.mean()), float(arr.std()))
            else:
                # never observed in training: center on the normal value so
                # imputed cells land at zero
                stats[name] = (self.table.continuous[name], 0.0)
        self.stats_ = stats
        return self

    def _require_fit(self):
        if self.stats_ is None:
            raise NotFittedError("EventPreprocessor.fit must run before transform")

    def transform(self, rows) -> EventSequence:
        self._require_fit()
        latest = self._hourly(rows)
        table, layout = self.table, self.layout
        order = table.feature_names
        observed = np.zeros((self.hours, len(order)))
        grid = np.zeros((self.hours, layout.width))
        last: dict[str, float | int | None] = {n: None for n in order}
        for h in range(self.hours):
            for fi, name in enumerate(order):
                if (h, name) in latest:
                    last[name] = latest[(h, name)][1]
                    observed[h, fi] = 1.0
                if name in table.continuous:
                    value = last[name] if last[name] is not None \
                        else table.continuous[name]
                    mean, std = self.stats_[name]
                    grid[h, layout.value_column(name)] = \
                        (value - mean) / std if std > 0.0 else 0.0
                else:
                    feat = table.categorical[name]
                    idx = last[name] if last[name] is not None \
                        else feat.index(feat.normal)
                    lo, _ = layout.block(name)
                    grid[h, lo + int(idx)] = 1.0
                grid[h, layout.mask_column(name)] = observed[h, fi]
        return EventSequence(grid, observed[:, layout.column_feature])


# --- notes ----------------------------------------------------------------------


class NotePreprocessor:
    """Cleans, tokenizes and truncates a stay's notes against a vocabulary
    fitted on training stays (words appearing fewer than ``min_count`` times
    map to ``[UNK]``)."""

    def __init__(self, max_words: int = NOTE_WORDS,
                 stoplist=DEFAULT_STOPLIST, min_count: int = 2,
                 hours: int = WINDOW_HOURS):
        if max_words < 1:
            raise ValueError("max_words must be positive")
        if min_count < 1:
            raise ValueError("min_count must be positive")
        self.max_words = max_words
        self.stoplist = frozenset(w.lower() for w in stoplist)
        self.min_count = min_count
        self.hours = hours
        self.vocab_: dict[str, int] | None = None

    @property
    def sequence_length(self) -> int:
        """Token positions per record: [CLS] plus up to max_words words."""
        return 1 + self.max_words

    def clean_words(self, text: str) -> list[str]:
        text = _DEID.sub(" ", str(text))
        return [w for w in _WORD.findall(text.lower()) if w not in self.stoplist]

    def _note_fields(self, note):
        if isinstance(note, dict):
            return note.get("time"), note.get("text", ""), note.get("iserror")
        try:
            t, text = note[0], note[1]
        except (TypeError, IndexError):
            raise ParseError(f"note {note!r} has no (time, text)") from None
        iserror = note[3] if len(note) > 3 else None
        return t, text, iserror

    def collect_words(self, notes) -> list[str]:
        """Concatenate a stay's usable notes chronologically and keep the
        last ``max_words`` cleaned words."""
        usable = []
        for i, note in enumerate(notes):
            t_raw, text, iserror = self._note_fields(note)
            if iserror in (1, "1", True):
                continue
            t = _to_float(t_raw, "note time")
            if not 0.0 <= t < self.hours:
                continue
            usable.append((t, i, text))
        usable.sort(key=lambda item: (item[0], item[1]))
        words: list[str] = []
        for _, _, text in usable:
            words.extend(self.clean_words(text))
        return words[-self.max_words:]

    def fit(self, stays) -> "NotePreprocessor":
        counts: Counter[str] = Counter()
        for notes in stays:
            counts.update(self.collect_words(notes))
        vocab = {"[PAD]": PAD_ID, "[CLS]": CLS_ID, "[UNK]": UNK_ID}
        kept = sorted((w for w, c in counts.items() if c >= self.min_count),
                      key=lambda w: (-counts[w], w))
        for word in kept:
            vocab[word] = len(vocab)
        self.vocab_ = vocab
        return self

    def transform(self, notes, stay: str | None = None) -> NoteTokens:
        if self.vocab_ is None:
            raise NotFittedError("NotePreprocessor.fit must run before transform")
        words = self.collect_words(notes)
        if not words:
            warnings.warn(f"stay {stay or '?'}: no usable note text in the "
                          f"window; emitting a [CLS]-only sequence")
        ids = np.full(self.sequence_length, PAD_ID, dtype=np.int64)
        ids[0] = CLS_ID
        for i, word in enumerate(words, start=1):
            ids[i] = self.vocab_.get(word, UNK_ID)
        return NoteTokens(ids)


# --- vitals ---------------------------------------------------------------------


class VitalsPreprocessor:
    """Bins monitor channels to a fixed-step grid (last observation per bin),
    rejects stays with any channel more than half missing, imputes the rest
    like events, and z-normalizes with training statistics."""

    def __init__(self, table: NormalValueTable | None = None,
                 steps: int = VITALS_STEPS, hours: int = WINDOW_HOURS,
                 max_missing: float = 0.5):
        if steps < 1:
            raise ValueError("steps must be positive")
        if not 0.0 <= max_missing < 1.0:
            raise ValueError("max_missing must lie in [0, 1)")
        self.table = table if table is not None else NormalValueTable.load()
        self.channels = self.table.channel_names
        self.steps = steps
        self.hours = hours
        self.max_missing = max_missing
        self.stats_: dict[str, tuple[float, float]] | None = None

    def _binned(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(steps, channels) grid of last-in-bin values plus observed mask.

        A bin keeps the in-window row with the largest time; on an exact
        tie the later row wins. Every row must name a known channel and a
        finite time, and every in-window row a finite value, wherever it
        falls in the file.
        """
        width = len(self.channels)
        values = np.zeros((self.steps, width))
        observed = np.zeros((self.steps, width))
        per_hour = self.steps / self.hours
        rows = list(rows)
        index = {name: i for i, name in enumerate(self.channels)}
        columns = self._columns(rows, index)
        if columns is None:
            columns = self._columns_by_row(rows, index)
        code, t, value = columns
        bins = np.minimum((t * per_hour).astype(np.intp), self.steps - 1)
        cell = bins * width + code
        order = np.lexsort((t, cell))   # stable: on a tie the later row sorts last
        cell = cell[order]
        last = np.ones(cell.shape, dtype=bool)
        last[:-1] = cell[1:] != cell[:-1]
        values.reshape(-1)[cell[last]] = value[order[last]]
        observed.reshape(-1)[cell[last]] = 1.0
        return values, observed

    def _columns(self, rows: list, index: dict):
        """Channel index, time and value arrays of the in-window rows,
        parsed a column at a time; None if any row is malformed."""
        try:
            if not set(map(len, rows)) <= {3}:
                return None
            names, times, raw = list(zip(*rows)) or ((), (), ())
            codes = {}
            for name in dict.fromkeys(names):
                channel = index.get(str(name).strip().lower())
                if channel is None:
                    return None
                codes[name] = channel
            t = np.array(times, dtype=np.float64)
            if t.shape != (len(rows),) or not np.isfinite(t).all():
                return None
            code = np.fromiter(map(codes.__getitem__, names), np.intp, len(rows))
            inside = (t >= 0.0) & (t < self.hours)
            if not inside.all():
                t, code = t[inside], code[inside]
                raw = list(compress(raw, inside.tolist()))
            value = np.array(raw, dtype=np.float64)
            if value.shape != t.shape or not np.isfinite(value).all():
                return None
        except (TypeError, ValueError, OverflowError):
            return None
        return code, t, value

    def _columns_by_row(self, rows: list, index: dict):
        """``_columns`` one row at a time, so the first malformed row in
        file order raises its own ``ParseError``."""
        kept = []
        for row in rows:
            try:
                channel, t_raw, value = row
            except (TypeError, ValueError):
                raise ParseError(f"vitals row {row!r} is not "
                                 f"(channel, time, value)") from None
            channel = str(channel).strip().lower()
            if channel not in index:
                raise ParseError(f"unknown vitals channel {channel!r}")
            t = _to_float(t_raw, "vitals time")
            if 0.0 <= t < self.hours:
                kept.append((index[channel], t, _to_float(value, f"{channel} value")))
        code, t, value = list(zip(*kept)) or ((), (), ())
        return (np.array(code, dtype=np.intp), np.array(t, dtype=np.float64),
                np.array(value, dtype=np.float64))

    def missing_fractions(self, rows) -> dict[str, float]:
        """Per-channel share of empty bins before imputation."""
        _, observed = self._binned(rows)
        share = 1.0 - observed.mean(axis=0)
        return {name: float(share[i]) for i, name in enumerate(self.channels)}

    def fit(self, stays) -> "VitalsPreprocessor":
        collected: dict[str, list[np.ndarray]] = {n: [] for n in self.channels}
        for rows in stays:
            values, observed = self._binned(rows)
            for i, name in enumerate(self.channels):
                picked = values[observed[:, i] == 1.0, i]
                if picked.size:
                    collected[name].append(picked)
        stats = {}
        for name, chunks in collected.items():
            if chunks:
                arr = np.concatenate(chunks)
                stats[name] = (float(arr.mean()), float(arr.std()))
            else:
                stats[name] = (self.table.vitals[name], 0.0)
        self.stats_ = stats
        return self

    def transform(self, rows, stay: str | None = None) -> VitalSigns:
        if self.stats_ is None:
            raise NotFittedError("VitalsPreprocessor.fit must run before transform")
        values, observed = self._binned(rows)
        grid = np.zeros_like(values)
        for i, name in enumerate(self.channels):
            missing = 1.0 - observed[:, i].mean()
            if missing > self.max_missing:
                raise RecordRejectedError(
                    f"stay {stay or '?'}: channel {name!r} is "
                    f"{missing:.0%} missing (limit {self.max_missing:.0%})")
            filled = impute_series(values[:, i], observed[:, i],
                                   self.table.vitals[name])
            mean, std = self.stats_[name]
            grid[:, i] = (filled - mean) / std if std > 0.0 else 0.0
        return VitalSigns(grid)


# --- file readers -----------------------------------------------------------------


def _open_rows(path, what: str, columns: tuple[str, ...]):
    """Yield each row's ``columns`` as a tuple of strings, in that order.

    Columns are found by header name; blank lines are skipped, and a row
    with fewer fields than the header raises ``ParseError``.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{what} file {path} does not exist")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        position = {name: i for i, name in enumerate(header)}
        missing = set(columns) - set(position)
        if missing:
            raise ParseError(f"{what} file {path} is missing columns "
                             f"{sorted(missing)}")
        pick = itemgetter(*(position[name] for name in columns))
        width = len(header)
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                raise ParseError(f"{what} file {path} line {reader.line_num}: "
                                 f"{len(row)} fields where the header has {width}")
            yield pick(row)


def read_events_csv(path) -> dict[str, list[tuple[str, str, str]]]:
    """Group an events export by stay id, preserving file order."""
    stays: dict[str, list] = {}
    for stay, t, feature, value in _open_rows(
            path, "events", ("stay_id", "time", "feature", "value")):
        stays.setdefault(stay, []).append((t, feature, value))
    return stays


def read_vitals_csv(path) -> dict[str, list[tuple[str, str, str]]]:
    stays: dict[str, list] = {}
    for stay, channel, t, value in _open_rows(
            path, "vitals", ("stay_id", "channel", "time", "value")):
        stays.setdefault(stay, []).append((channel, t, value))
    return stays


def read_notes_jsonl(path) -> dict[str, list[dict]]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"notes file {path} does not exist")
    stays: dict[str, list] = {}
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                note = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"notes file {path} line {lineno}: {e}") from None
            if not isinstance(note, dict) or "stay_id" not in note \
                    or "time" not in note or "text" not in note:
                raise ParseError(f"notes file {path} line {lineno}: every note "
                                 f"needs stay_id, time and text")
            stays.setdefault(str(note["stay_id"]), []).append(note)
    return stays


def read_labels_csv(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    for stay, label in _open_rows(path, "labels", ("stay_id", "label")):
        if stay in labels:
            raise ParseError(f"duplicate label for stay {stay!r}")
        if label not in ("0", "1"):
            raise ParseError(f"label for stay {stay!r} must be 0 or 1, "
                             f"got {label!r}")
        labels[stay] = int(label)
    return labels


# --- matching and assembly ---------------------------------------------------------


def _as_mapping(name: str, keyed) -> dict:
    if isinstance(keyed, dict):
        return keyed
    out = {}
    for stay, value in keyed:
        if stay in out:
            raise SchemaError(f"duplicate stay id {stay!r} in {name}")
        out[stay] = value
    return out


def match_modalities(events, notes, vitals, log_fn=None) -> list[str]:
    """Inner-join stay ids across the three per-stay collections.

    Returns the sorted matched ids; unmatched ids are reported through
    ``log_fn`` (and an empty intersection additionally warns).
    """
    groups = {
        "events": _as_mapping("events", events),
        "notes": _as_mapping("notes", notes),
        "vitals": _as_mapping("vitals", vitals),
    }
    matched = set.intersection(*(set(g) for g in groups.values()))
    if log_fn is not None:
        for name, group in groups.items():
            dropped = sorted(set(group) - matched)
            if dropped:
                log_fn({"event": "unmatched-stays", "modality": name,
                        "count": len(dropped), "stays": dropped})
    if not matched:
        warnings.warn("no stay id appears in all three modalities; "
                      "the matched dataset is empty")
    return sorted(matched)


@dataclass
class Pipeline:
    """The three fitted preprocessors plus the table they share."""

    table: NormalValueTable
    events: EventPreprocessor
    notes: NotePreprocessor
    vitals: VitalsPreprocessor

    @classmethod
    def fit(cls, event_rows: dict, note_rows: dict, vitals_rows: dict,
            train_ids, *, table: NormalValueTable | None = None,
            max_words: int = NOTE_WORDS, min_count: int = 2,
            stoplist=DEFAULT_STOPLIST, hours: int = WINDOW_HOURS,
            steps: int = VITALS_STEPS) -> "Pipeline":
        table = table if table is not None else NormalValueTable.load()
        train_ids = list(train_ids)
        events = EventPreprocessor(table, hours=hours)
        events.fit(event_rows[s] for s in train_ids)
        notes = NotePreprocessor(max_words=max_words, min_count=min_count,
                                 stoplist=stoplist, hours=hours)
        notes.fit(note_rows[s] for s in train_ids)
        vitals = VitalsPreprocessor(table, steps=steps, hours=hours)
        vitals.fit(vitals_rows[s] for s in train_ids)
        return cls(table, events, notes, vitals)

    def stats_meta(self) -> dict:
        return {
            "events": {name: {"mean": m, "std": s}
                       for name, (m, s) in self.events.stats_.items()},
            "vitals": {name: {"mean": m, "std": s}
                       for name, (m, s) in self.vitals.stats_.items()},
        }


def split_stays(ids, fractions=(0.64, 0.16, 0.20), seed: int = 0) -> dict[str, list[str]]:
    """Deterministic stay-level train/val/test assignment.

    Fractions follow the 80/20 outer split with a fifth of the training
    side held out for validation; they must sum to 1.
    """
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9 \
            or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three non-negative shares summing to 1")
    ids = sorted(ids)
    rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), zlib.crc32(b"stay-split"))))
    order = rng.permutation(len(ids))
    n_train = int(len(ids) * fractions[0])
    n_val = int(len(ids) * fractions[1])
    shuffled = [ids[i] for i in order]
    return {
        "train": sorted(shuffled[:n_train]),
        "val": sorted(shuffled[n_train:n_train + n_val]),
        "test": sorted(shuffled[n_train + n_val:]),
    }


def build_dataset(events_path, notes_path, vitals_path, labels_path, *,
                  table: NormalValueTable | None = None, seed: int = 0,
                  fractions=(0.64, 0.16, 0.20), max_words: int = NOTE_WORDS,
                  min_count: int = 2, stoplist=DEFAULT_STOPLIST,
                  hours: int = WINDOW_HOURS, steps: int = VITALS_STEPS,
                  log_fn=None) -> MultimodalDataset:
    """Read the four export files and assemble one model-ready dataset.

    Stays are matched across modalities, screened for vitals coverage,
    split deterministically, and normalized with statistics fit on the
    training stays only. The returned dataset's ``meta`` carries the
    split, the fitted statistics, the vocabulary and the rejected ids.
    With ``log_fn``, a closing ``preprocess-timing`` event gives each
    stage's seconds and the rows read from each file.
    """
    table = table if table is not None else NormalValueTable.load()
    stamps = [time.perf_counter()]    # one more after each stage
    event_rows = read_events_csv(events_path)
    note_rows = read_notes_jsonl(notes_path)
    vitals_rows = read_vitals_csv(vitals_path)
    labels = read_labels_csv(labels_path)
    stamps.append(time.perf_counter())

    matched = match_modalities(event_rows, note_rows, vitals_rows, log_fn=log_fn)

    unlabeled = [s for s in matched if s not in labels]
    if unlabeled:
        warnings.warn(f"{len(unlabeled)} matched stays have no label and "
                      f"were dropped")
        if log_fn is not None:
            log_fn({"event": "unlabeled-stays", "count": len(unlabeled),
                    "stays": unlabeled})
        matched = [s for s in matched if s in labels]
    stamps.append(time.perf_counter())

    screen = VitalsPreprocessor(table, steps=steps, hours=hours)
    rejected = []
    kept = []
    for stay in matched:
        worst = max(screen.missing_fractions(vitals_rows[stay]).values(),
                    default=1.0)
        if worst > screen.max_missing:
            rejected.append(stay)
        else:
            kept.append(stay)
    if rejected and log_fn is not None:
        log_fn({"event": "rejected-stays", "count": len(rejected),
                "stays": rejected})
    stamps.append(time.perf_counter())

    split = split_stays(kept, fractions=fractions, seed=seed)
    pipeline = Pipeline.fit(event_rows, note_rows, vitals_rows, split["train"],
                            table=table, max_words=max_words,
                            min_count=min_count, stoplist=stoplist,
                            hours=hours, steps=steps)
    stamps.append(time.perf_counter())

    events, masks, notes, vitals, ys = [], [], [], [], []
    for stay in kept:
        seq = pipeline.events.transform(event_rows[stay])
        events.append(seq.values)
        masks.append(seq.mask)
        notes.append(pipeline.notes.transform(note_rows[stay], stay=stay).ids)
        vitals.append(pipeline.vitals.transform(vitals_rows[stay], stay=stay).values)
        ys.append(labels[stay])
    stamps.append(time.perf_counter())
    if log_fn is not None:
        stages = ("read_s", "match_s", "screen_s", "fit_s", "transform_s")
        log_fn({"event": "preprocess-timing",
                **{stage: b - a for stage, a, b in zip(stages, stamps, stamps[1:])},
                "rows": {"events": sum(map(len, event_rows.values())),
                         "notes": sum(map(len, note_rows.values())),
                         "vitals": sum(map(len, vitals_rows.values())),
                         "labels": len(labels)}})

    meta = {
        "kind": "preprocessed",
        "seed": int(seed),
        "hours": hours,
        "steps": steps,
        "split": split,
        "rejected": rejected,
        "stats": pipeline.stats_meta(),
        "vocab": pipeline.notes.vocab_,
        "event_names": list(pipeline.events.layout.column_names),
        "channel_names": list(pipeline.vitals.channels),
        "normal_values": table.to_dict(),
        "stoplist": list(stoplist),
    }
    return MultimodalDataset(
        events=np.stack(events) if events else
        np.zeros((0, hours, pipeline.events.layout.width)),
        events_mask=np.stack(masks) if masks else
        np.zeros((0, hours, pipeline.events.layout.width)),
        notes=np.stack(notes) if notes else
        np.zeros((0, 1 + max_words), dtype=np.int64),
        vitals=np.stack(vitals) if vitals else
        np.zeros((0, steps, len(pipeline.vitals.channels))),
        labels=np.asarray(ys, dtype=np.int64),
        ids=list(kept),
        meta=meta,
    )
