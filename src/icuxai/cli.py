"""The ``icuxai`` command line: generate/preprocess -> train -> eval ->
explain -> perturb -> report.

Every subcommand but ``report`` writes into a run directory: its
artifacts, an appended ``log.jsonl`` of structured events, and a
``manifest.json`` entry per subcommand (resolved ``options``, ``inputs`` as
given on the command line, ``seed`` and package ``version``) sufficient to
re-execute the run. Artifacts and the manifest are written atomically.
Every ``log.jsonl`` line is a JSON object with an ``event`` key:

* ``start``: ``command``, ``options``, ``inputs``;
* progress events: ``epoch`` (train; ``epoch``, ``loss``, ``lr``,
  ``val_auc``, the epoch's ``wall_s``, ``records_per_s`` over the
  optimizer steps, and the largest and mean pre-clip gradient norm over
  the steps as ``grad_norm_max`` and ``grad_norm_mean``), ``metrics`` (eval), ``explained`` (explain; ``explainer``,
  ``records``, ``ms_per_record``, and the median and largest
  ``|conservation residual|`` over the cohort as ``residual_median`` and
  ``residual_max_abs``), ``perturbation-curve`` (perturb),
  ``unmatched-stays``, ``unlabeled-stays``, ``rejected-stays`` and
  ``preprocess-timing`` (preprocess; seconds per stage and rows read per
  file);
* ``done``: ``command``, ``elapsed_s`` and the subcommand's counts;
* ``error``: ``command``, ``exit``, ``message``, in place of ``done``.

Options resolve flag > INI config section > built-in default, where the INI
section is named after the subcommand::

    [train]
    epochs = 40
    learning_rate = 0.003

Exit codes: 0 success, 1 usage error (bad flags, bad option values),
2 data error (missing or malformed inputs, rejected records, a checkpoint
``explain`` or ``perturb`` cannot explain), 3 numerical
error (a NaN or Inf in the forward pass or in an attribution gradient).
An error exit also appends an ``error`` event to ``log.jsonl`` when the
run directory already exists.

Randomness policy: one ``--seed`` per invocation; components derive
their own streams from it by hashing a fixed label, so e.g. the train
split cannot shift when a model hyperparameter changes.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
import time
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .attribution import (CSV_HEADER, EXPLAINER_KINDS,
                          aggregate_feature_attributions, make_explainer)
from .autodiff import NonFiniteError
from .errors import DataError, ParseError
from .fileio import atomic_open
from .metrics import auc_pr, auc_roc
from .model import TriModalNet, load_checkpoint, model_config_for, save_checkpoint
from .perturbation import compare_explainers, plot_table
from .preprocess import NormalValueTable, build_dataset
from .records import MODALITIES, MultimodalDataset
from .synthetic import SyntheticSpec, generate_synthetic, ground_truth_json
from .training import TrainConfig, train_model


class UsageError(ValueError):
    """Bad flag or option value; maps to exit code 1."""


def derive_seed(master: int, label: str) -> int:
    """Deterministic per-component substream of the run seed."""
    ss = np.random.SeedSequence((int(master), zlib.crc32(label.encode("utf-8"))))
    return int(ss.generate_state(1, np.uint32)[0])


# --- run-directory plumbing -----------------------------------------------------


def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON-serializable")


def _logger(out: Path):
    path = out / "log.jsonl"

    def log(event: dict) -> None:
        with path.open("a") as handle:
            handle.write(json.dumps(event, sort_keys=True,
                                    default=_json_safe) + "\n")
    return log


def _manifest(out: Path, command: str, options: dict, inputs: dict) -> None:
    path = out / "manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    manifest[command] = {"options": options, "inputs": inputs,
                         "seed": int(options["seed"]), "version": __version__}
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True,
                                 default=_json_safe) + "\n")


def _write_text(path, text: str) -> None:
    with atomic_open(path) as handle:
        handle.write(text)


def _write_csv(path, header, rows) -> None:
    """Floats are written as ``repr(float(v))``, which reads back exactly."""
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def _default_inside(path, filename: str) -> Path:
    """Accept a run directory in place of the file it contains."""
    path = Path(path)
    return path / filename if path.is_dir() else path


def _load_dataset(path) -> MultimodalDataset:
    path = _default_inside(path, "data.npz")
    try:
        return MultimodalDataset.load(path)
    except FileNotFoundError:
        raise DataError(f"dataset file {path} does not exist") from None
    except (OSError, ValueError, KeyError) as e:
        raise DataError(f"cannot read dataset {path}: {e}") from None


def _load_model(path):
    path = _default_inside(path, "model.npz")
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        raise DataError(f"checkpoint {path} does not exist") from None


# --- option resolution -------------------------------------------------------------


def _cast_option(raw: str, cast, name: str):
    if cast is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"option {name!r} wants a boolean, got {raw!r}")
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(f"option {name!r} wants {cast.__name__}, "
                         f"got {raw!r}") from None


def resolve_options(args, spec: dict[str, tuple]) -> dict:
    """Merge flags, the INI section for this subcommand, and defaults."""
    section: dict[str, str] = {}
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        path = Path(args.config)
        if not path.exists():
            raise DataError(f"config file {path} does not exist")
        try:
            parser.read_string(path.read_text())
        except configparser.Error as e:
            raise DataError(f"config file {path} is not valid INI: {e}") from None
        if parser.has_section(args.command):
            section = dict(parser[args.command])
        unknown = set(section) - set(spec)
        if unknown:
            raise UsageError(f"config section [{args.command}] has unknown "
                             f"options: {sorted(unknown)}")
    resolved = {}
    for name, (cast, default) in spec.items():
        flag = getattr(args, name.replace("-", "_"), None)
        if flag is not None:
            resolved[name] = flag
        elif name in section:
            resolved[name] = _cast_option(section[name], cast, name)
        else:
            resolved[name] = default
    return resolved


def _parse_active(raw: str) -> tuple[str, ...]:
    active = tuple(part.strip() for part in raw.split(",") if part.strip())
    bad = set(active) - set(MODALITIES)
    if bad or not active:
        raise UsageError(f"--active wants a non-empty subset of "
                         f"{','.join(MODALITIES)}, got {raw!r}")
    return active


def _parse_kinds(raw: str) -> tuple[str, ...]:
    if raw.strip() == "all":
        return EXPLAINER_KINDS
    kinds = tuple(part.strip() for part in raw.split(",") if part.strip())
    bad = set(kinds) - set(EXPLAINER_KINDS)
    if bad or not kinds:
        raise UsageError(f"unknown explainer kinds {sorted(bad)}; choose from "
                         f"{', '.join(EXPLAINER_KINDS)} or 'all'")
    return kinds


# --- split handling -----------------------------------------------------------------


def _index_of(ds: MultimodalDataset) -> dict[str, int]:
    return {rid: i for i, rid in enumerate(ds.ids)}


def _ids_to_idx(ds, ids, what: str) -> np.ndarray:
    index = _index_of(ds)
    missing = [rid for rid in ids if rid not in index]
    if missing:
        raise DataError(f"{what} references {len(missing)} record ids absent "
                        f"from the dataset (first: {missing[0]!r})")
    return np.array([index[rid] for rid in ids], dtype=np.int64)


def _split_ids(ds: MultimodalDataset, seed: int, val_frac: float,
               test_frac: float) -> dict[str, list[str]]:
    """Use the dataset's stored stay-level split when present, otherwise
    draw a deterministic one from the run seed."""
    stored = ds.meta.get("split")
    if stored:
        return {part: list(stored[part]) for part in ("train", "val", "test")}
    if not 0.0 <= val_frac < 1.0 or not 0.0 <= test_frac < 1.0 \
            or val_frac + test_frac >= 1.0:
        raise UsageError("--val-frac and --test-frac must be non-negative "
                         "and leave room for training data")
    rng = np.random.default_rng(derive_seed(seed, "split"))
    order = rng.permutation(len(ds))
    n_test = int(len(ds) * test_frac)
    n_val = int(len(ds) * val_frac)
    test = order[:n_test]
    val = order[n_test:n_test + n_val]
    train = order[n_test + n_val:]
    return {"train": sorted(ds.ids[i] for i in train),
            "val": sorted(ds.ids[i] for i in val),
            "test": sorted(ds.ids[i] for i in test)}


# --- subcommands --------------------------------------------------------------------


SYNTH_OPTIONS = {
    "records": (int, 2000),
    "positive-rate": (float, 0.10),
    "noise-rate": (float, 0.05),
    "complementary": (bool, False),
    "hours": (int, 24),
    "event-dim": (int, 20),
    "note-len": (int, 48),
    "vocab-size": (int, 120),
    "vitals-steps": (int, 64),
    "vitals-channels": (int, 8),
    "event-feature": (int, 2),
    "event-threshold": (float, 2.5),
    "token-id": (int, 7),
    "vitals-channel": (int, 3),
    "vitals-amplitude": (float, 4.0),
    "seed": (int, 0),
}


def cmd_synth(args, opts, out, log):
    spec = SyntheticSpec(
        n_records=opts["records"], positive_rate=opts["positive-rate"],
        noise_rate=opts["noise-rate"], complementary=opts["complementary"],
        hours=opts["hours"], event_dim=opts["event-dim"],
        note_len=opts["note-len"], vocab_size=opts["vocab-size"],
        vitals_steps=opts["vitals-steps"],
        vitals_channels=opts["vitals-channels"],
        event_feature=opts["event-feature"],
        event_threshold=opts["event-threshold"], token_id=opts["token-id"],
        vitals_channel=opts["vitals-channel"],
        vitals_amplitude=opts["vitals-amplitude"])
    ds, truth = generate_synthetic(spec, seed=opts["seed"])
    ds.save(out / "data.npz")
    _write_text(out / "ground_truth.json", ground_truth_json(truth))
    positives = int(ds.labels.sum())
    return ({"records": len(ds), "positives": positives},
            f"wrote {out / 'data.npz'} ({len(ds)} records, "
            f"{positives} positive) and ground_truth.json")


PREPROCESS_OPTIONS = {
    "max-words": (int, 512),
    "min-count": (int, 2),
    "steps": (int, 480),
    "hours": (int, 24),
    "train-frac": (float, 0.64),
    "val-frac": (float, 0.16),
    "seed": (int, 0),
}


def cmd_preprocess(args, opts, out, log):
    table = NormalValueTable.load(args.normal_values) \
        if args.normal_values else None
    test_frac = 1.0 - opts["train-frac"] - opts["val-frac"]
    if test_frac <= 0:
        raise UsageError("--train-frac and --val-frac leave no test data")
    ds = build_dataset(
        args.events, args.notes, args.vitals, args.labels, table=table,
        seed=opts["seed"],
        fractions=(opts["train-frac"], opts["val-frac"], test_frac),
        max_words=opts["max-words"], min_count=opts["min-count"],
        hours=opts["hours"], steps=opts["steps"], log_fn=log)
    ds.save(out / "data.npz")
    rejected = len(ds.meta.get("rejected", []))
    return ({"records": len(ds), "rejected": rejected,
             "vocab": len(ds.meta.get("vocab", {})), "events": str(args.events)},
            f"wrote {out / 'data.npz'} ({len(ds)} records, {rejected} rejected)")


TRAIN_OPTIONS = {
    "width": (int, 64),
    "heads": (int, 4),
    "ffn-width": (int, 128),
    "dropout": (float, 0.1),
    "blocks": (int, 2),
    "fusion-hidden": (int, 64),
    "bias-free": (bool, False),
    "epochs": (int, 30),
    "batch-size": (int, 64),
    "learning-rate": (float, 1e-3),
    "class-weight": (float, 1.0),
    "upsample": (bool, True),
    "patience": (int, 10),
    "clip-norm": (float, 1.0),
    "active": (str, "events,notes,vitals"),
    "val-frac": (float, 0.16),
    "test-frac": (float, 0.20),
    "seed": (int, 0),
}


def cmd_train(args, opts, out, log):
    ds = _load_dataset(args.data)
    active = _parse_active(opts["active"])
    seed = opts["seed"]
    split = _split_ids(ds, seed, opts["val-frac"], opts["test-frac"])
    train_idx = _ids_to_idx(ds, split["train"], "train split")
    val_idx = _ids_to_idx(ds, split["val"], "val split")
    if train_idx.size < 2 or len(np.unique(ds.labels[train_idx])) < 2:
        raise DataError("training split needs records from both classes")
    if val_idx.size == 0 or len(np.unique(ds.labels[val_idx])) < 2:
        print("warning: validation split lacks both classes; training "
              "without early stopping", file=sys.stderr)
        val_idx = None

    config = model_config_for(
        ds, width=opts["width"], heads=opts["heads"], ffn_width=opts["ffn-width"],
        dropout=opts["dropout"], event_blocks=opts["blocks"],
        note_blocks=opts["blocks"], vitals_blocks=opts["blocks"],
        fusion_hidden=opts["fusion-hidden"], bias_free=opts["bias-free"],
        seed=derive_seed(seed, "model"))
    train_config = TrainConfig(
        batch_size=opts["batch-size"], learning_rate=opts["learning-rate"],
        dropout=opts["dropout"], class_weight=opts["class-weight"],
        epochs=opts["epochs"], seed=derive_seed(seed, "train"),
        upsample=opts["upsample"], patience=opts["patience"],
        clip_norm=opts["clip-norm"])

    model = TriModalNet(config)
    result = train_model(model, ds, train_config, train_idx=train_idx,
                         val_idx=val_idx, active=active, log_fn=log)
    vocab = ds.meta.get("vocab")
    vocab_list = None
    if vocab:
        vocab_list = [w for w, _ in sorted(vocab.items(), key=lambda kv: kv[1])]
    save_checkpoint(model, out / "model.npz", vocab=vocab_list,
                    preprocess=ds.meta.get("stats"),
                    extra={"split": split, "active": list(active),
                           "seed": seed, "best_epoch": result.best_epoch})
    _write_csv(out / "history.csv", ("epoch", "loss", "lr", "val_auc"),
               [(h["epoch"], h["loss"], h["lr"], h.get("val_auc", ""))
                for h in result.history])
    return ({"records": len(ds),
             "split_sizes": {k: len(v) for k, v in split.items()},
             "epochs": len(result.history), "best_epoch": result.best_epoch,
             "best_val_auc": result.best_val_auc,
             "stopped_early": result.stopped_early},
            f"wrote {out / 'model.npz'} "
            f"(best epoch {result.best_epoch}, "
            f"val AUC {result.best_val_auc if result.best_val_auc is not None else 'n/a'})")


EVAL_OPTIONS = {
    "split": (str, "test"),
    "seed": (int, 0),
}


def _trained_active(meta) -> tuple[str, ...]:
    """The modalities a checkpoint's model was trained on."""
    return tuple(meta.get("extra", {}).get("active", MODALITIES))


def cmd_eval(args, opts, out, log):
    model, meta = _load_model(args.checkpoint)
    ds = _load_dataset(args.data)
    wanted = opts["split"]
    if wanted not in ("train", "val", "test", "all"):
        raise UsageError(f"--split must be train, val, test or all, "
                         f"got {wanted!r}")
    active = _trained_active(meta)
    stored = meta.get("extra", {}).get("split")
    if wanted == "all":
        parts = [("all", np.arange(len(ds)))]
    else:
        if not stored:
            raise DataError("checkpoint stores no train/val/test split; "
                            "evaluate with --split all")
        parts = [(wanted, _ids_to_idx(ds, stored[wanted], f"{wanted} split"))]
    rows = []
    for name, idx in parts:
        if idx.size == 0:
            raise DataError(f"split {name!r} holds no records")
        sub = ds.subset(idx)
        probs = model.predict_proba(sub.events, sub.notes, sub.vitals,
                                    active=active)[:, 1]
        rows.append((name, int(idx.size), int(sub.labels.sum()),
                     auc_roc(sub.labels, probs), auc_pr(sub.labels, probs)))
        log({"event": "metrics", "split": name, "n": int(idx.size),
             "auc_roc": rows[-1][3], "auc_pr": rows[-1][4]})
    _write_csv(out / "metrics.csv",
               ("split", "n", "positives", "auc_roc", "auc_pr"), rows)
    return {}, "\n".join(f"{name}: n={n} positives={pos} auc_roc={roc:.4f} "
                         f"auc_pr={pr:.4f}" for name, n, pos, roc, pr in rows)


EXPLAIN_OPTIONS = {
    "kinds": (str, "lrptrans"),
    "records": (int, 20),
    "target-class": (int, 1),
    "steps": (int, 20),
    "min-token-count": (int, 1),
    "seed": (int, 0),
}


def _picked_records(ds, meta, args, budget: int) -> list[int]:
    if budget < 1:
        raise UsageError(f"--records must be at least 1, got {budget}")
    if args.ids:
        ids = [part.strip() for part in args.ids.split(",") if part.strip()]
        return list(_ids_to_idx(ds, ids, "--ids"))
    stored = meta.get("extra", {}).get("split")
    if stored:
        idx = _ids_to_idx(ds, stored["test"], "test split")
    else:
        idx = np.arange(len(ds))
    return list(idx[:budget])


def _require_every_modality(meta, command: str) -> None:
    """The explainers and the deletion curves' rescoring run every
    encoder, so a model trained on fewer modalities would be explained
    on inputs it never saw: refuse it."""
    active = _trained_active(meta)
    if set(active) != set(MODALITIES):
        raise DataError(f"{command} needs a model trained on all of "
                        f"{', '.join(MODALITIES)}; this checkpoint was trained "
                        f"on {', '.join(active)} only")


def cmd_explain(args, opts, out, log):
    model, meta = _load_model(args.checkpoint)
    _require_every_modality(meta, "explain")
    ds = _load_dataset(args.data)
    kinds = _parse_kinds(opts["kinds"])
    picked = _picked_records(ds, meta, args, opts["records"])
    if not picked:
        raise DataError("no records selected to explain")
    names = ds.meta.get("event_names")
    channels = ds.meta.get("channel_names")
    vocab = ds.meta.get("vocab")
    for kind in kinds:
        explainer = make_explainer(
            kind, model, seed=derive_seed(opts["seed"], f"explain-{kind}"),
            steps=opts["steps"])
        started = time.perf_counter()
        reports = explainer.explain_cohort([ds.record(i) for i in picked],
                                           opts["target-class"])
        ms_per_record = (time.perf_counter() - started) * 1e3 / len(reports)
        rows = []
        for report in reports:
            rows.extend((report.record_id,) + row for row in report.csv_rows())
        _write_csv(out / f"attributions_{kind}.csv",
                   ("record_id",) + CSV_HEADER, rows)
        ranking = aggregate_feature_attributions(
            reports, event_names=names, channel_names=channels, vocab=vocab,
            min_token_count=opts["min-token-count"])
        _write_text(out / f"aggregate_{kind}.json",
                    json.dumps(ranking, indent=2, sort_keys=True) + "\n")
        residuals = np.abs([r.conservation_residual for r in reports])
        log({"event": "explained", "explainer": kind, "records": len(reports),
             "ms_per_record": ms_per_record,
             "residual_median": float(np.median(residuals)),
             "residual_max_abs": float(residuals.max())})
    return ({"records": len(picked)},
            f"wrote attributions_*.csv and aggregate_*.json for "
            f"{', '.join(kinds)} ({len(picked)} records)")


PERTURB_OPTIONS = {
    "explainers": (str, "all"),
    "records": (int, 50),
    "order": (str, "ascending"),
    "steps": (int, 20),
    "seed": (int, 0),
}


def cmd_perturb(args, opts, out, log):
    model, meta = _load_model(args.checkpoint)
    _require_every_modality(meta, "perturb")
    ds = _load_dataset(args.data)
    kinds = _parse_kinds(opts["explainers"])
    if opts["order"] not in ("ascending", "descending"):
        raise UsageError(f"--order must be ascending or descending, "
                         f"got {opts['order']!r}")
    picked = _picked_records(ds, meta, args, opts["records"])
    subset = ds.subset(np.array(picked, dtype=np.int64))
    if len(set(subset.labels.tolist())) < 2:
        raise DataError("perturbation needs both classes among the selected "
                        "records; widen --records or pass --ids")
    curves = compare_explainers(
        model, subset, kinds=kinds, seed=derive_seed(opts["seed"], "perturb"),
        order=opts["order"], steps=opts["steps"], log_fn=log)
    _write_csv(out / "curves.csv", ("explainer", "fraction", "auc_roc"),
               [(c.explainer, f, a) for c in curves
                for f, a in zip(c.fractions, c.auc_roc)])
    _write_csv(out / "au_summary.csv", ("explainer", "au"),
               [(c.explainer, c.au) for c in curves])
    _write_text(out / "curves.txt", plot_table(curves) + "\n")
    return ({"records": len(subset)},
            "\n".join(f"{c.explainer}: AU {c.au:.4f}" for c in curves))


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DataError(f"report needs {path}, which does not exist; "
                        f"run `icuxai {producer}` into this directory first")
    return path


def _read_csv(path: Path, columns: tuple[str, ...]) -> list[dict]:
    try:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ParseError(f"{path}: the header lacks column(s) {missing}")
            return list(reader)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"{path}: not a readable CSV: {e}") from None


def _read_json_object(path: Path) -> dict:
    try:
        value = json.loads(path.read_text())
    except ValueError as e:
        raise ParseError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(value, dict):
        raise ParseError(f"{path}: holds a JSON {type(value).__name__}, not an object")
    return value


def _number(raw, path: Path) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: {raw!r} is not a number") from None


def _md_table(header, rows) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return lines


def _fmt(raw: str, digits: int = 4) -> str:
    try:
        return f"{float(raw):.{digits}f}"
    except (TypeError, ValueError):
        return str(raw)


def cmd_report(args) -> str:
    if args.top_k < 0 or args.heat_records < 0:
        raise UsageError("--top-k and --heat-records must not be negative")
    run = Path(args.run)
    if not run.is_dir():
        raise DataError(f"run directory {run} does not exist")
    metrics = _read_csv(_require(run / "metrics.csv", "eval"),
                        ("split", "n", "positives", "auc_roc", "auc_pr"))
    summary_path = _require(run / "au_summary.csv", "perturb")
    summary = _read_csv(summary_path, ("explainer", "au"))
    curves_path = _require(run / "curves.txt", "perturb")
    try:
        curves = curves_path.read_text()
    except UnicodeDecodeError as e:
        raise ParseError(f"{curves_path}: not UTF-8 text: {e}") from None
    aggregates = sorted(run.glob("aggregate_*.json"))
    if not aggregates:
        raise DataError(f"report needs {run / 'aggregate_<kind>.json'}, which "
                        f"does not exist; run `icuxai explain` into this "
                        f"directory first")

    lines = ["# Run report", ""]
    manifest_path = run / "manifest.json"
    if manifest_path.exists():
        manifest = _read_json_object(manifest_path)
        try:
            rows = [(cmd, entry.get("seed"), entry.get("version"))
                    for cmd, entry in sorted(manifest.items())]
        except AttributeError:
            raise ParseError(f"{manifest_path}: each command's entry must be "
                             f"an object") from None
        lines += ["## Provenance", ""]
        lines += _md_table(("command", "seed", "version"), rows)
        lines.append("")

    lines += ["## Classification metrics", ""]
    lines += _md_table(("split", "n", "positives", "AUC-ROC", "AUC-PR"),
                       [(r["split"], r["n"], r["positives"],
                         _fmt(r["auc_roc"]), _fmt(r["auc_pr"]))
                        for r in metrics])
    lines.append("")

    lines += ["## Perturbation faithfulness", "",
              "Area under the deletion curve (AUC-ROC vs fraction of "
              "least-relevant features removed); higher is better.", ""]
    ranked = sorted(summary, key=lambda r: -_number(r["au"], summary_path))
    lines += _md_table(("explainer", "AU"),
                       [(r["explainer"], _fmt(r["au"])) for r in ranked])
    lines += ["", "```", curves.strip("\n"), "```", ""]

    top_k = args.top_k
    for path in aggregates:
        kind = path.stem.removeprefix("aggregate_")
        ranking = _read_json_object(path)
        lines += [f"## Feature ranking ({kind})", ""]
        for modality in MODALITIES:
            try:
                rows = [(n, float(v), c) for n, v, c in ranking.get(modality, [])]
            except (TypeError, ValueError):
                raise ParseError(f"{path}: {modality} rows must be [feature, mean "
                                 f"attribution, records]") from None
            if not rows:
                continue
            positive = [r for r in rows if r[1] > 0][:top_k]
            lines += [f"### {modality}: top {len(positive)} positive", ""]
            lines += _md_table(("feature", "mean attribution", "records"),
                               [(n, _fmt(v), c) for n, v, c in positive])
            negative = [r for r in reversed(rows) if r[1] < 0][:top_k]
            if negative:
                lines += ["", f"### {modality}: top {len(negative)} negative", ""]
                lines += _md_table(("feature", "mean attribution", "records"),
                                   [(n, _fmt(v), c) for n, v, c in negative])
            lines.append("")

    heat_source = run / "attributions_lrptrans.csv"
    if not heat_source.exists():
        candidates = sorted(run.glob("attributions_*.csv"))
        heat_source = candidates[0] if candidates else None
    if heat_source is not None:
        rows = _read_csv(heat_source, ("record_id",) + CSV_HEADER)
        kind = heat_source.stem.removeprefix("attributions_")
        by_record: dict[str, list[dict]] = {}
        for row in rows:
            by_record.setdefault(row["record_id"], []).append(row)
        lines += [f"## Per-record attribution detail ({kind})", ""]
        for rid in list(by_record)[:args.heat_records]:
            lines += [f"### record {rid}", ""]
            cells = sorted(by_record[rid],
                           key=lambda r: -abs(_number(r["attribution"], heat_source)))
            lines += _md_table(
                ("modality", "feature", "time", "attribution"),
                [(r["modality"], r["feature_id"], r["time_index"],
                  _fmt(r["attribution"], 6)) for r in cells[:top_k]])
            lines.append("")

    out = Path(args.out) if args.out else run / "report.md"
    _write_text(out, "\n".join(lines).rstrip() + "\n")
    return f"wrote {out}"


# --- parser --------------------------------------------------------------------------


def _add_option_flags(parser, spec: dict[str, tuple]) -> None:
    for name, (cast, default) in spec.items():
        flag = f"--{name}"
        if cast is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction,
                                default=None,
                                help=f"(default {default})")
        else:
            parser.add_argument(flag, type=cast, default=None,
                                metavar=cast.__name__.upper(),
                                help=f"(default {default})")


# The command-line arguments that are not resolved options: paths, record
# ids and report settings. Each subcommand picks its own from this table.
ARGUMENTS = {
    "events": (("--events",), {"required": True, "help": "events CSV"}),
    "notes": (("--notes",), {"required": True, "help": "notes JSONL"}),
    "vitals": (("--vitals",), {"required": True, "help": "vitals CSV"}),
    "labels": (("--labels",), {"required": True, "help": "labels CSV"}),
    "checkpoint": (("--checkpoint", "--model"),
                   {"dest": "checkpoint", "required": True,
                    "help": "model.npz or its run directory"}),
    "data": (("--data",), {"required": True,
                           "help": "dataset .npz or its run directory"}),
    "out": (("--out",), {"required": True, "help": "run directory"}),
    "ids": (("--ids",), {"help": "comma-separated record ids (default: "
                                 "first --records of the test split)"}),
    "normal-values": (("--normal-values",),
                      {"help": "override the packaged normal-value table "
                               "(JSON)"}),
    "config": (("--config",), {"help": "INI file whose section named after "
                                       "the subcommand sets options"}),
    "run": (("--run",), {"required": True, "help": "directory holding eval/"
                                                   "explain/perturb outputs"}),
    "report-out": (("--out",), {"help": "report path (default RUN/report.md)"}),
    "top-k": (("--top-k",), {"type": int, "default": 10}),
    "heat-records": (("--heat-records",), {"type": int, "default": 3}),
}


def _dest(name: str) -> str:
    flags, kwargs = ARGUMENTS[name]
    return kwargs.get("dest", flags[0].lstrip("-").replace("-", "_"))


class Command(NamedTuple):
    """A run-directory subcommand's ``handler(args, opts, out, log)``
    returns its ``done`` event fields and its stdout text; ``report``
    (``options`` None) takes ``args`` alone and returns its stdout text."""
    handler: Callable
    help: str
    options: dict | None
    arguments: tuple[str, ...]


COMMANDS = {
    "synth": Command(cmd_synth, "generate a synthetic cohort with planted "
                                "signals", SYNTH_OPTIONS, ("out", "config")),
    "preprocess": Command(cmd_preprocess, "build a dataset from raw CSV/JSONL "
                                          "exports", PREPROCESS_OPTIONS,
                          ("events", "notes", "vitals", "labels", "out",
                           "normal-values", "config")),
    "train": Command(cmd_train, "train the tri-modal classifier",
                     TRAIN_OPTIONS, ("data", "out", "config")),
    "eval": Command(cmd_eval, "compute AUC-ROC / AUC-PR for a checkpoint",
                    EVAL_OPTIONS, ("checkpoint", "data", "out", "config")),
    "explain": Command(cmd_explain, "attribute predictions to inputs",
                       EXPLAIN_OPTIONS,
                       ("checkpoint", "data", "out", "ids", "config")),
    "perturb": Command(cmd_perturb, "deletion-curve faithfulness comparison "
                                    "of explainers", PERTURB_OPTIONS,
                       ("checkpoint", "data", "out", "ids", "config")),
    "report": Command(cmd_report, "render a markdown summary of a run "
                                  "directory", None,
                      ("run", "report-out", "top-k", "heat-records")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icuxai",
        description="Tri-modal mortality modeling with conservation-aware "
                    "attributions: generate or preprocess data, train, "
                    "evaluate, explain, perturb, report.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for arg in command.arguments:
            flags, kwargs = ARGUMENTS[arg]
            cmd.add_argument(*flags, **kwargs)
        if command.options is not None:
            _add_option_flags(cmd, command.options)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    command = COMMANDS[args.command]
    log = None if command.options is None else _logger(Path(args.out))
    try:
        if log is None:
            print(command.handler(args))
            return 0
        opts = resolve_options(args, command.options)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs = {arg: getattr(args, _dest(arg)) for arg in command.arguments}
        log({"event": "start", "command": args.command, "options": opts,
             "inputs": inputs})
        started = time.perf_counter()
        fields, text = command.handler(args, opts, out, log)
        _manifest(out, args.command, opts, inputs)
        log({"event": "done", "command": args.command,
             "elapsed_s": time.perf_counter() - started, **fields})
        print(text)
        return 0
    except (DataError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as e:
        code, prefix, error = 2, "error", e
    except (UsageError, ValueError) as e:
        code, prefix, error = 1, "usage error", e
    except NonFiniteError as e:
        code, prefix, error = 3, "numerical error", e
    print(f"{prefix}: {error}", file=sys.stderr)
    # An error before the run directory exists makes none just to log in.
    if log is not None and Path(args.out).is_dir():
        log({"event": "error", "command": args.command, "exit": code,
             "message": str(error)})
    return code


def entry() -> None:
    sys.exit(run())
