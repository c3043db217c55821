"""End-to-end checks of the ``icuxai`` command line.

Everything goes through ``cli.run(argv)`` so exit codes and artifacts are
observable without subprocesses; one smoke test runs the ``icuxai`` console
script declared in ``pyproject.toml`` as a real subprocess, or the installed
one when it is on ``PATH``.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from icuxai.cli import _write_csv, build_parser, derive_seed, run
from icuxai.perturbation import area_under

from test_preprocess import write_corpus


SYNTH_ARGS = ["--records", "120", "--hours", "6", "--event-dim", "5",
              "--note-len", "10", "--vocab-size", "24", "--vitals-steps", "8",
              "--vitals-channels", "3", "--vitals-channel", "1",
              "--positive-rate", "0.3", "--seed", "3"]

TRAIN_ARGS = ["--width", "8", "--heads", "2", "--ffn-width", "16",
              "--blocks", "1", "--fusion-hidden", "8", "--epochs", "8",
              "--batch-size", "16", "--learning-rate", "3e-3",
              "--dropout", "0.0", "--seed", "3"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One run directory carried through synth -> train -> downstream."""
    out = tmp_path_factory.mktemp("clirun")
    assert run(["synth", "--out", str(out)] + SYNTH_ARGS) == 0
    assert run(["train", "--data", str(out / "data.npz"), "--out", str(out)]
               + TRAIN_ARGS) == 0
    return out


def test_synth_writes_dataset_ground_truth_manifest_and_log(workdir):
    assert (workdir / "data.npz").exists()
    truth = json.loads((workdir / "ground_truth.json").read_text())
    assert truth["planted"]
    assert {"record_id", "modality", "index"} <= set(truth["planted"][0])
    manifest = json.loads((workdir / "manifest.json").read_text())
    assert manifest["synth"]["options"]["records"] == 120
    assert manifest["synth"]["seed"] == 3
    events = [json.loads(line)
              for line in (workdir / "log.jsonl").read_text().splitlines()]
    assert {"start", "done"} <= {e.get("event") for e in events}


def test_train_writes_checkpoint_history_and_split(workdir):
    from icuxai.model import load_checkpoint
    model, meta = load_checkpoint(workdir / "model.npz")
    extra = meta["extra"]
    split = extra["split"]
    assert set(split) == {"train", "val", "test"}
    sizes = {k: len(v) for k, v in split.items()}
    assert sizes["test"] == 24 and sizes["val"] == 19  # 20% / 16% of 120
    assert sum(sizes.values()) == 120
    assert extra["active"] == ["events", "notes", "vitals"]
    with (workdir / "history.csv").open(newline="") as fh:
        history = list(csv.DictReader(fh))
    assert history and set(history[0]) == {"epoch", "loss", "lr", "val_auc"}
    manifest = json.loads((workdir / "manifest.json").read_text())
    assert set(manifest) >= {"synth", "train"}  # entries merge, not replace


def test_eval_writes_metrics_for_stored_split(workdir):
    assert run(["eval", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "data.npz"),
                "--out", str(workdir)]) == 0
    with (workdir / "metrics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["split"] for r in rows] == ["test"]
    assert rows[0]["n"] == "24"
    assert 0.0 <= float(rows[0]["auc_roc"]) <= 1.0
    assert 0.0 <= float(rows[0]["auc_pr"]) <= 1.0


def test_eval_reruns_are_byte_identical(workdir, tmp_path):
    args = ["eval", "--checkpoint", str(workdir / "model.npz"),
            "--data", str(workdir / "data.npz")]
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(args + ["--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "metrics.csv").read_bytes())
                       .hexdigest())
    assert digests[0] == digests[1]


def test_explain_emits_csv_and_aggregate(workdir):
    assert run(["explain", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "data.npz"), "--out", str(workdir),
                "--kinds", "lrptrans,random", "--records", "4"]) == 0
    for kind in ("lrptrans", "random"):
        with (workdir / f"attributions_{kind}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"record_id", "modality", "feature_id",
                                "time_index", "attribution"}
        assert len({r["record_id"] for r in rows}) == 4
        ranking = json.loads((workdir / f"aggregate_{kind}.json").read_text())
        assert set(ranking) == {"events", "notes", "vitals"}
        values = [v for _, v, _ in ranking["events"]]
        assert values == sorted(values, reverse=True)


def test_explain_honors_explicit_ids(workdir, tmp_path):
    from icuxai.records import MultimodalDataset
    ds = MultimodalDataset.load(workdir / "data.npz")
    picked = [ds.ids[0], ds.ids[5]]
    assert run(["explain", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "data.npz"), "--out", str(tmp_path),
                "--kinds", "random", "--ids", ",".join(picked)]) == 0
    with (tmp_path / "attributions_random.csv").open(newline="") as fh:
        seen = {r["record_id"] for r in csv.DictReader(fh)}
    assert seen == set(picked)


def test_explained_event_reports_time_and_residuals(workdir, tmp_path):
    from icuxai.attribution import make_explainer
    from icuxai.model import load_checkpoint
    from icuxai.records import MultimodalDataset
    ds = MultimodalDataset.load(workdir / "data.npz")
    model, _ = load_checkpoint(workdir / "model.npz")
    assert run(["explain", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "data.npz"), "--out", str(tmp_path),
                "--kinds", "lrptrans", "--ids", ",".join(ds.ids[:3])]) == 0
    events = [json.loads(line)
              for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    (explained,) = [e for e in events if e["event"] == "explained"]
    explainer = make_explainer("lrptrans", model)
    residuals = np.abs([explainer.explain(ds.record(i)).conservation_residual
                        for i in range(3)])
    assert explained["records"] == 3 and explained["ms_per_record"] > 0
    assert explained["residual_median"] == pytest.approx(np.median(residuals),
                                                         rel=1e-9, abs=1e-12)
    assert explained["residual_max_abs"] == pytest.approx(residuals.max(),
                                                          rel=1e-9, abs=1e-12)


def test_perturb_emits_curves_and_summary(workdir):
    assert run(["perturb", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "data.npz"), "--out", str(workdir),
                "--explainers", "lrptrans,random", "--records", "24",
                "--steps", "4"]) == 0
    with (workdir / "curves.csv").open(newline="") as fh:
        curves = list(csv.DictReader(fh))
    assert len(curves) == 2 * 10  # two explainers on the default grid
    with (workdir / "au_summary.csv").open(newline="") as fh:
        summary = {r["explainer"]: float(r["au"])
                   for r in csv.DictReader(fh)}
    assert list(summary) == ["lrptrans", "random"]
    assert all(0.0 <= v <= 1.0 for v in summary.values())
    for kind, au in summary.items():  # both files read back exactly
        rows = [r for r in curves if r["explainer"] == kind]
        assert au == area_under([float(r["fraction"]) for r in rows],
                                [float(r["auc_roc"]) for r in rows])
    table = (workdir / "curves.txt").read_text().splitlines()
    assert table[0].split() == ["fraction", "lrptrans", "random"]


def test_report_renders_every_section(workdir):
    assert run(["report", "--run", str(workdir)]) == 0
    text = (workdir / "report.md").read_text()
    for heading in ("# Run report", "## Provenance", "## Classification "
                    "metrics", "## Perturbation faithfulness",
                    "## Feature ranking (lrptrans)",
                    "## Per-record attribution detail (lrptrans)"):
        assert heading in text
    assert "| test | 24 |" in text


def test_report_renders_the_perturbation_plot_table(workdir, tmp_path):
    out = tmp_path / "report.md"
    assert run(["report", "--run", str(workdir), "--out", str(out)]) == 0
    table = (workdir / "curves.txt").read_text().strip("\n")
    assert f"```\n{table}\n```" in out.read_text()


def test_report_refuses_incomplete_run_directory(tmp_path):
    assert run(["report", "--run", str(tmp_path / "ghost")]) == 2
    assert run(["report", "--run", str(tmp_path)]) == 2  # no metrics.csv yet


def _minimal_run(directory):
    """A run directory holding what ``report`` reads, written by hand."""
    directory.mkdir()
    (directory / "metrics.csv").write_text(
        "split,n,positives,auc_roc,auc_pr\ntest,4,2,0.75,0.8\n")
    (directory / "au_summary.csv").write_text("explainer,au\nrandom,0.6\n")
    (directory / "curves.txt").write_text("fraction random\n0.0 0.75\n")
    (directory / "aggregate_random.json").write_text(
        json.dumps({"events": [["event_0", 0.5, 4]], "notes": [], "vitals": []}))
    (directory / "manifest.json").write_text(json.dumps({"eval": {"seed": 1}}))
    return directory


@pytest.mark.parametrize("name,content,message", [
    ("metrics.csv", "split,count\ntest,4\n", "lacks column"),
    ("aggregate_random.json", "[1, 2]", "JSON list, not an object"),
    ("aggregate_random.json", "{not json", "not valid JSON"),
    ("au_summary.csv", "explainer,au\nrandom,high\n", "'high' is not a number"),
    ("aggregate_random.json", '{"events": [["event_0", "big", 4]]}', "rows must be"),
    ("manifest.json", '{"eval": [1]}', "must be an object"),
    ("attributions_random.csv", "record_id,modality\nr,events\n", "lacks column"),
    ("au_summary.csv", b"explainer,au\n\xff\xfe,0.6\n", "not a readable CSV"),
    ("curves.txt", b"fraction random\n\xff\xfe\n", "not UTF-8 text"),
    ("metrics.csv", "split,n,positives,auc_roc,auc_pr\n" + "x" * 200_000 + ",4\n",
     "field larger than field limit"),
], ids=["metrics-header", "aggregate-list", "invalid-json", "non-numeric-au",
        "non-numeric-ranking", "manifest-entry", "attributions-header", "not-utf8",
        "curves-not-utf8", "oversized-field"])
def test_report_on_a_malformed_run_file_exits_2(tmp_path, capsys, name, content,
                                                message):
    directory = _minimal_run(tmp_path / "run")
    assert run(["report", "--run", str(directory)]) == 0
    capsys.readouterr()
    path = directory / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert run(["report", "--run", str(directory), "--out",
                str(tmp_path / "r.md")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "r.md").exists()


def test_train_rejects_a_negative_clip_norm(workdir, tmp_path, capsys):
    assert run(["train", "--data", str(workdir / "data.npz"), "--out",
                str(tmp_path), "--clip-norm", "-1"] + TRAIN_ARGS) == 1
    assert capsys.readouterr().err.startswith("usage error: clip_norm must be "
                                              "non-negative")


def test_usage_errors_exit_1(workdir, tmp_path, capsys):
    checkpoint = str(workdir / "model.npz")
    data = str(workdir / "data.npz")
    out = str(tmp_path)
    assert run(["synth", "--out", out, "--records", "0"]) == 1
    assert run(["explain", "--checkpoint", checkpoint, "--data", data,
                "--out", out, "--kinds", "saliency"]) == 1
    assert run(["eval", "--checkpoint", checkpoint, "--data", data,
                "--out", out, "--split", "holdout"]) == 1
    assert run(["perturb", "--checkpoint", checkpoint, "--data", data,
                "--out", out, "--order", "sideways"]) == 1
    assert run(["train", "--data", data, "--out", out,
                "--active", "sounds"]) == 1
    assert run(["synth", "--out", out, "--no-such-flag"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["explain", "--records", "-3"], ["explain", "--records", "0"],
    ["perturb", "--records", "-3"], ["report", "--top-k", "-1"],
    ["report", "--heat-records", "-1"]], ids=" ".join)
def test_negative_record_budgets_exit_1(workdir, tmp_path, argv, capsys):
    if argv[0] == "report":
        argv = argv + ["--run", str(workdir), "--out", str(tmp_path / "r.md")]
    else:
        argv = argv + ["--checkpoint", str(workdir), "--data", str(workdir),
                       "--out", str(tmp_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert [p.name for p in tmp_path.iterdir()] == \
        ([] if argv[0] == "report" else ["log.jsonl"])


def test_data_errors_exit_2(workdir, tmp_path):
    assert run(["train", "--data", str(tmp_path / "none.npz"),
                "--out", str(tmp_path)]) == 2
    assert run(["eval", "--checkpoint", str(tmp_path / "none.npz"),
                "--data", str(workdir / "data.npz"),
                "--out", str(tmp_path)]) == 2
    assert run(["explain", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "data.npz"), "--out", str(tmp_path),
                "--ids", "no-such-record"]) == 2
    events = [json.loads(line)
              for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [(e["command"], e["exit"]) for e in events if e["event"] == "error"] \
        == [("train", 2), ("eval", 2), ("explain", 2)]


@pytest.fixture(scope="module")
def events_only(workdir, tmp_path_factory):
    """A checkpoint trained with ``--active events``."""
    out = tmp_path_factory.mktemp("events-only")
    argv = list(TRAIN_ARGS)
    argv[argv.index("--epochs") + 1] = "1"
    assert run(["train", "--data", str(workdir / "data.npz"), "--out", str(out),
                "--active", "events"] + argv) == 0
    return out / "model.npz"


@pytest.mark.parametrize("command", ["explain", "perturb"])
def test_explain_and_perturb_refuse_a_model_trained_on_fewer_modalities(
        command, events_only, workdir, tmp_path, capsys):
    capsys.readouterr()
    assert run([command, "--checkpoint", str(events_only), "--data",
                str(workdir / "data.npz"), "--out", str(tmp_path)]) == 2
    message = (f"{command} needs a model trained on all of events, notes, "
               "vitals; this checkpoint was trained on events only")
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


@pytest.mark.parametrize("header", [b"[]", b"7", b'{"version": 1, "arrays": 5}'])
def test_malformed_dataset_header_exits_2(workdir, tmp_path, capsys, header):
    import struct

    from icuxai.fileio import MAGIC

    bad = tmp_path / "data.npz"
    bad.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    assert run(["eval", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed header" in err


def test_preprocess_logs_the_unlabeled_stay(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_corpus(raw, n=10, steps=20)
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="no label"):
        assert run(["preprocess", "--events", str(raw / "events.csv"),
                    "--notes", str(raw / "notes.jsonl"),
                    "--vitals", str(raw / "vitals.csv"),
                    "--labels", str(raw / "labels.csv"), "--out", str(out),
                    "--steps", "20", "--min-count", "1",
                    "--max-words", "16"]) == 0
    events = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    unlabeled = [e for e in events if e["event"] == "unlabeled-stays"]
    assert unlabeled == [{"event": "unlabeled-stays", "count": 1,
                          "stays": ["nolabel"]}]


def test_numerical_errors_exit_3(workdir, tmp_path, monkeypatch, capsys):
    from icuxai import autodiff

    real_backward = autodiff.backward

    def backward_with_inf_probe_grad(output, seed=None, wrt=None):
        wrt = list(wrt)
        real_backward(output, seed, wrt)
        output.tape.grads[wrt[0].node_id] = np.full_like(wrt[0].data, np.inf)

    monkeypatch.setattr(autodiff, "backward", backward_with_inf_probe_grad)
    assert run(["explain", "--checkpoint", str(workdir / "model.npz"),
                "--data", str(workdir / "data.npz"), "--out", str(tmp_path),
                "--kinds", "lrptrans", "--records", "2"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "numerical error: non-finite gradient at the events input"]


def test_non_finite_training_gradient_exits_3(workdir, tmp_path, monkeypatch, capsys):
    from icuxai import autodiff

    real_backward = autodiff.backward

    def backward_with_inf_param_grad(output, seed=None, wrt=None):
        wrt = list(wrt)
        real_backward(output, seed, wrt)
        output.tape.grads[wrt[0].node_id] = np.full_like(wrt[0].data, np.inf)

    monkeypatch.setattr(autodiff, "backward", backward_with_inf_param_grad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be one more stderr line
        assert run(["train", "--data", str(workdir / "data.npz"), "--out", str(tmp_path)]
                   + TRAIN_ARGS) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "numerical error: epoch 0: non-finite gradient for parameter 'events.in_proj.w'"]
    last = json.loads((tmp_path / "log.jsonl").read_text().splitlines()[-1])
    assert last == {"event": "error", "command": "train", "exit": 3,
                    "message": "epoch 0: non-finite gradient for parameter "
                               "'events.in_proj.w'"}


def _run_directory_argv(command, workdir, tmp_path):
    """Argument lists for the six run-directory subcommands."""
    model = ["--checkpoint", str(workdir / "model.npz"),
             "--data", str(workdir / "data.npz")]
    if command == "preprocess":
        raw = tmp_path / "raw"
        raw.mkdir()
        write_corpus(raw, n=10, steps=20)
        return [
            "preprocess", "--events", str(raw / "events.csv"),
            "--notes", str(raw / "notes.jsonl"),
            "--vitals", str(raw / "vitals.csv"),
            "--labels", str(raw / "labels.csv"),
            "--steps", "20", "--min-count", "1", "--max-words", "16"]
    return {
        "synth": ["synth"] + SYNTH_ARGS,
        "train": ["train", "--data", str(workdir / "data.npz")] + TRAIN_ARGS
                 + ["--epochs", "1"],
        "eval": ["eval"] + model,
        "explain": ["explain"] + model + ["--kinds", "random", "--ids",
                                          "syn-00001,syn-00002"],
        "perturb": ["perturb"] + model + ["--explainers", "random",
                                          "--records", "24", "--steps", "2"],
    }[command]


@pytest.mark.parametrize("command", ["synth", "preprocess", "train", "eval",
                                     "explain", "perturb"])
def test_every_run_directory_subcommand_logs_start_done_and_manifest(
        command, workdir, tmp_path):
    out = tmp_path / "run"
    argv = _run_directory_argv(command, workdir, tmp_path) + ["--out", str(out)]
    assert run(argv) == 0
    events = [json.loads(line)
              for line in (out / "log.jsonl").read_text().splitlines()]
    assert all("event" in e for e in events)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "start" and kinds[-1] == "done"
    assert kinds.count("start") == kinds.count("done") == 1
    start, done = events[0], events[-1]
    assert start["command"] == done["command"] == command
    assert done["elapsed_s"] >= 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == [command]
    entry = manifest[command]
    assert set(entry) == {"options", "inputs", "seed", "version"}
    assert entry["options"] == start["options"]
    assert entry["inputs"] == start["inputs"]
    assert entry["seed"] == entry["options"]["seed"]
    assert entry["inputs"]["out"] == str(out)
    given = {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
             if argv[i][2:] in entry["inputs"]}
    assert {k: v for k, v in entry["inputs"].items() if v is not None} == given


def test_train_logs_one_epoch_event_per_history_row(workdir):
    events = [json.loads(line)
              for line in (workdir / "log.jsonl").read_text().splitlines()]
    epochs = [e for e in events if e["event"] == "epoch"]
    with (workdir / "history.csv").open(newline="") as fh:
        history = list(csv.DictReader(fh))
    assert [e["epoch"] for e in epochs] == [int(h["epoch"]) for h in history]
    done = next(e for e in events
                if e["event"] == "done" and e["command"] == "train")
    assert done["records"] == 120
    assert done["split_sizes"] == {"train": 77, "val": 19, "test": 24}


def test_train_epoch_events_carry_wall_time_throughput_and_grad_norms(workdir):
    events = [json.loads(line)
              for line in (workdir / "log.jsonl").read_text().splitlines()]
    epochs = [e for e in events if e["event"] == "epoch"]
    assert epochs
    for e in epochs:
        assert set(e) == {"event", "epoch", "loss", "lr", "val_auc", "wall_s",
                          "records_per_s", "grad_norm_max", "grad_norm_mean"}
        assert e["wall_s"] > 0.0 and e["records_per_s"] > 0.0
        assert e["grad_norm_max"] >= e["grad_norm_mean"] > 0.0


@pytest.mark.parametrize("modality,synth_flag,value,message", [
    ("events", "--hours", "7", "events grid has 7 hours, the model expects 6"),
    ("notes", "--note-len", "12", "note length 12 exceeds the position table (10)"),
    ("vitals", "--vitals-steps", "9",
     "vitals grid has 9 timesteps, the model expects 8"),
])
def test_eval_and_explain_reject_a_dataset_off_the_model_geometry(
        modality, synth_flag, value, message, workdir, tmp_path, capsys):
    argv = list(SYNTH_ARGS)
    argv[argv.index(synth_flag) + 1] = value
    other = tmp_path / "other"
    assert run(["synth", "--out", str(other)] + argv) == 0
    model = ["--checkpoint", str(workdir / "model.npz"),
             "--data", str(other / "data.npz")]
    for command, extra in (("eval", ["--split", "all"]),
                           ("explain", ["--kinds", "lrptrans", "--ids", "syn-00001"])):
        out = tmp_path / command
        capsys.readouterr()
        assert run([command] + model + extra + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        last = json.loads((out / "log.jsonl").read_text().splitlines()[-1])
        assert last == {"event": "error", "command": command, "exit": 2,
                        "message": message}


def test_csv_floats_read_back_exactly(tmp_path):
    values = [np.float64(1) / 3, 0.1 + 0.2, np.float32(0.1), 2.0 ** -60]
    _write_csv(tmp_path / "x.csv", ("name", "value", "n"),
               [(f"v{i}", v, i) for i, v in enumerate(values)])
    with (tmp_path / "x.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["value"]) for r in rows] == [float(v) for v in values]
    assert [r["value"] for r in rows] == [repr(float(v)) for v in values]
    assert [r["n"] for r in rows] == ["0", "1", "2", "3"]


def test_help_and_version_exit_0(capsys):
    assert run(["--help"]) == 0
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "synth" in out and "report" in out


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synth]\nrecords = 60\npositive-rate = 0.4\n"
                   "hours = 6\nevent-dim = 5\nnote-len = 10\n"
                   "vocab-size = 24\nvitals-steps = 8\n"
                   "vitals-channels = 3\nvitals-channel = 1\n")
    out = tmp_path / "run"
    assert run(["synth", "--out", str(out), "--config", str(cfg),
                "--records", "40"]) == 0
    options = json.loads((out / "manifest.json").read_text())["synth"]["options"]
    assert options["records"] == 40          # flag beats config
    assert options["positive-rate"] == 0.4   # config beats default
    assert options["noise-rate"] == 0.05     # default where neither given


def test_config_file_rejects_unknown_and_bad_values(tmp_path):
    out = str(tmp_path / "run")
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[synth]\nrekords = 50\n")
    assert run(["synth", "--out", out, "--config", str(bad_key)]) == 1

    bad_value = tmp_path / "bad_value.ini"
    bad_value.write_text("[synth]\nrecords = fifty\n")
    assert run(["synth", "--out", out, "--config", str(bad_value)]) == 1

    assert run(["synth", "--out", out,
                "--config", str(tmp_path / "ghost.ini")]) == 2
    assert not (tmp_path / "run").exists()  # no directory made just to log in


def test_derive_seed_is_stable_and_label_separated():
    assert derive_seed(7, "split") == derive_seed(7, "split")
    assert derive_seed(7, "split") != derive_seed(7, "train")
    assert derive_seed(7, "split") != derive_seed(8, "split")


def test_preprocess_to_train_round_trip(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_corpus(raw, n=10, steps=20)
    out = tmp_path / "run"
    assert run(["preprocess", "--events", str(raw / "events.csv"),
                "--notes", str(raw / "notes.jsonl"),
                "--vitals", str(raw / "vitals.csv"),
                "--labels", str(raw / "labels.csv"), "--out", str(out),
                "--steps", "20", "--min-count", "1",
                "--max-words", "16"]) == 0
    from icuxai.records import MultimodalDataset
    ds = MultimodalDataset.load(out / "data.npz")
    assert ds.meta["rejected"] == ["reject"]
    assert set(ds.meta["split"]) == {"train", "val", "test"}
    # the stored split travels into training; tiny vals may be single-class,
    # which must degrade to a warning, not an error
    assert run(["train", "--data", str(out / "data.npz"), "--out", str(out),
                "--width", "8", "--heads", "2", "--ffn-width", "16",
                "--blocks", "1", "--fusion-hidden", "8", "--epochs", "2",
                "--batch-size", "4", "--dropout", "0.0"]) == 0
    from icuxai.model import load_checkpoint
    _, meta = load_checkpoint(out / "model.npz")
    assert meta["extra"]["split"] == ds.meta["split"]
    assert meta["vocab"] is not None and meta["vocab"][0] == "[PAD]"


def test_parser_lists_all_seven_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0]))]
    commands = set(actions[0].choices)
    assert commands == {"synth", "preprocess", "train", "eval", "explain",
                        "perturb", "report"}


REPO_ROOT = Path(__file__).resolve().parents[1]


def write_console_script(directory, name):
    """Write the launcher an installer makes for ``[project.scripts]`` entry
    ``name`` into ``directory``."""
    tomllib = pytest.importorskip("tomllib")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = spec.split(":")
    launcher = directory / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.argv[0] = {name!r}\n"
        f"    sys.exit({attr}())\n")
    launcher.chmod(0o755)


def test_console_script_is_installed(tmp_path, monkeypatch):
    # The declared launcher goes at the end of PATH, so an installed
    # ``icuxai`` still wins wherever there is one.
    write_console_script(tmp_path, "icuxai")
    monkeypatch.setenv("PATH", os.pathsep.join(
        filter(None, [os.environ.get("PATH"), str(tmp_path)])))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(["icuxai", "--version"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "icuxai" in proc.stdout
