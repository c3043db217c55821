"""Seeded raw clinical exports for the paper-scale preprocessing stage.

``write_raw_exports`` writes the four files ``icuxai.preprocess.build_dataset``
reads -- events CSV, notes JSONL, vitals CSV, labels CSV -- for a cohort
of synthetic stays whose layout is planted so that every branch of the
pipeline runs and its effect is known in advance:

* ``n_rejected`` stays have one vitals channel observed in only 30 % of
  its bins, so exactly those stays fail the 50 %-missing screen; every
  other stay observes each channel in at least 60 % of its bins;
* events, notes and vitals all carry rows outside the 24-hour window;
* some notes are flagged ``iserror``; their text uses a marker word that
  appears nowhere else, as does the text of out-of-window notes;
* note text holds ``[** ... **]`` de-identification placeholders (whose
  inner words appear nowhere else) and outcome words from the stoplist;
* every stay's in-window text exceeds ``NOTE_WORDS`` words, so the
  truncation to the last 512 words always applies;
* one stay has events only, one has notes only (both unmatched), and one
  matched stay has no label.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from icuxai.preprocess import (DEFAULT_STOPLIST, NOTE_WORDS, VITALS_STEPS,
                               WINDOW_HOURS, NormalValueTable)

#: words that only ever occur where the pipeline must drop them
ERROR_MARKER = "erratumword"
LATE_MARKER = "latenoteword"
PLACEHOLDER_WORDS = ("known", "lastname", "hospital", "ward")

FILES = {"events": "events.csv", "notes": "notes.jsonl",
         "vitals": "vitals.csv", "labels": "labels.csv"}


@dataclass
class RawExports:
    """Where the files are and what the pipeline must make of them."""

    paths: dict[str, Path]
    kept: list[str]                 # stays that must survive, sorted
    rejected: list[str]             # stays the vitals screen must drop, sorted
    unmatched: list[str]            # stays missing a modality
    unlabeled: list[str]            # matched stays without a label


def _stay_ids(n: int, prefix: str) -> list[str]:
    return [f"{prefix}{i:05d}" for i in range(n)]


def _word_pool(rng: np.random.Generator, size: int) -> list[str]:
    """Background vocabulary: lowercase pseudo-words plus a few numbers."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = set()
    while len(words) < size:
        n = int(rng.integers(3, 9))
        words.add("".join(rng.choice(letters, size=n)))
    pool = sorted(words - {ERROR_MARKER, LATE_MARKER, *PLACEHOLDER_WORDS,
                           *DEFAULT_STOPLIST})
    return pool + [str(v) for v in range(10, 40)]


def _event_rows(rng, table: NormalValueTable, stay: str, lines) -> None:
    for name, normal in table.continuous.items():
        k = int(rng.integers(6, 20))
        times = np.sort(rng.uniform(0.0, WINDOW_HOURS, size=k))
        values = normal * (1.0 + 0.1 * rng.standard_normal(k))
        for t, v in zip(times, values):
            lines.append(f"{stay},{t:.4f},{name},{v:.4f}\n")
    for name, feature in table.categorical.items():
        k = int(rng.integers(3, 10))
        times = np.sort(rng.uniform(0.0, WINDOW_HOURS, size=k))
        cats = rng.integers(0, len(feature.categories), size=k)
        for t, c in zip(times, cats):
            lines.append(f"{stay},{t:.4f},{name},{feature.categories[c]}\n")
    # outside the observation window: must be ignored
    for t in (WINDOW_HOURS + 1.5, -2.0):
        lines.append(f"{stay},{t:.4f},heart rate,250.0\n")


def _vitals_rows(rng, table: NormalValueTable, stay: str, reject: bool,
                 lines) -> None:
    channels = table.channel_names
    per_bin = WINDOW_HOURS / VITALS_STEPS
    sparse = int(rng.integers(len(channels))) if reject else -1
    for ci, name in enumerate(channels):
        share = 0.3 if ci == sparse else float(rng.uniform(0.6, 1.0))
        k = int(round(share * VITALS_STEPS))
        bins = np.sort(rng.choice(VITALS_STEPS, size=k, replace=False))
        times = (bins + rng.uniform(0.05, 0.95, size=k)) * per_bin
        normal = table.vitals[name]
        values = normal + (0.05 * abs(normal) + 1.0) * rng.standard_normal(k)
        for t, v in zip(times, values):
            lines.append(f"{stay},{name},{t:.5f},{v:.3f}\n")
    lines.append(f"{stay},{channels[0]},{WINDOW_HOURS + 0.25:.5f},999.0\n")


def _note_text(rng, pool: list[str], n_words: int) -> str:
    words = [pool[i] for i in rng.integers(0, len(pool), size=n_words)]
    # sprinkle placeholders and outcome words among the background words
    for _ in range(3):
        at = int(rng.integers(0, len(words)))
        words.insert(at, "[** " + " ".join(rng.choice(PLACEHOLDER_WORDS, size=2))
                     + f" {int(rng.integers(100, 999))} **]")
    for _ in range(2):
        at = int(rng.integers(0, len(words)))
        words.insert(at, str(rng.choice(DEFAULT_STOPLIST)).upper())
    return " ".join(words)


def _note_rows(rng, pool, stay: str, lines) -> None:
    k = int(rng.integers(3, 6))
    times = np.sort(rng.uniform(0.0, WINDOW_HOURS, size=k))
    per_note = NOTE_WORDS // k + 60   # in-window text always exceeds 512 words
    for t in times:
        lines.append(json.dumps({
            "stay_id": stay, "time": round(float(t), 4), "category": "nursing",
            "text": _note_text(rng, pool, per_note)}) + "\n")
    lines.append(json.dumps({
        "stay_id": stay, "time": round(float(times[0]), 4), "category": "nursing",
        "iserror": 1, "text": f"{ERROR_MARKER} " * 20}) + "\n")
    lines.append(json.dumps({
        "stay_id": stay, "time": WINDOW_HOURS + 3.0, "category": "discharge",
        "text": f"{LATE_MARKER} " * 20}) + "\n")


def write_raw_exports(out_dir, seed: int, n_kept: int, n_rejected: int,
                      positive_rate: float = 0.3) -> RawExports:
    """Write one seeded cohort of raw exports into ``out_dir``."""
    if n_kept < 5:
        raise ValueError("need at least 5 kept stays so every split is non-empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5EED)))
    table = NormalValueTable.load()
    pool = _word_pool(rng, 400)

    stays = _stay_ids(n_kept + n_rejected, "stay")
    order = rng.permutation(len(stays))
    rejected = sorted(stays[i] for i in order[:n_rejected])
    kept = sorted(set(stays) - set(rejected))
    events_only, notes_only, unlabeled = "orphan-events", "orphan-notes", "nolabel"

    # labels: both classes among the kept stays, whatever the seed
    labels = {s: int(rng.random() < positive_rate) for s in stays}
    labels[kept[0]], labels[kept[1]] = 0, 1
    labels[events_only] = labels[notes_only] = 0

    text = {name: [] for name in FILES}
    text["events"].append("stay_id,time,feature,value\n")
    text["vitals"].append("stay_id,channel,time,value\n")
    text["labels"].append("stay_id,label\n")
    for stay in stays + [unlabeled]:
        _event_rows(rng, table, stay, text["events"])
        _note_rows(rng, pool, stay, text["notes"])
        _vitals_rows(rng, table, stay, stay in rejected, text["vitals"])
    _event_rows(rng, table, events_only, text["events"])
    _note_rows(rng, pool, notes_only, text["notes"])
    for stay in stays + [events_only, notes_only]:
        text["labels"].append(f"{stay},{labels[stay]}\n")

    paths = {}
    for name, filename in FILES.items():
        paths[name] = out / filename
        paths[name].write_text("".join(text[name]))
    return RawExports(paths=paths, kept=kept, rejected=rejected,
                      unmatched=sorted([events_only, notes_only]),
                      unlabeled=[unlabeled])
