"""The three benchmark workloads: set-up, timed rounds and checks.

Every workload is a closed loop: one process issues one call at a time.
A run sets up several times (the median is ``setup_s``) and repeats a
*round* -- a fixed list of timed stages on the same inputs -- until the
time budget is spent; see :func:`execute`. Each round starts from a
freshly initialized model, so every round does identical work and must
produce byte-identical outputs. Correctness checks run after the timed
region.

All package calls go through module attributes (``training.train_model``,
``preprocess.build_dataset``, ...) so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from icuxai import (attribution, model, perturbation, preprocess, synthetic,
                    training)
from icuxai.blocks import Context
from icuxai.autodiff import Tape
from icuxai.records import MODALITIES

import rawgen
import tracing

#: the acceptance suite's desk-scale cohort geometry
BENCH_SPEC = synthetic.SyntheticSpec(
    n_records=2000, positive_rate=0.10, noise_rate=0.05, hours=12, event_dim=10,
    note_len=24, vocab_size=60, vitals_steps=24, vitals_channels=6)

#: (name, unit) of the end-to-end metrics every workload reports
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("train_records_per_s", "1/s"),
    ("predict_records_per_s", "1/s"),
    ("explain_lrptrans_ms", "ms"),
    ("explain_ig_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: figures printed where a workload exercises them; not bounded
EXTRA = (
    ("preprocess_stays_per_s", "1/s"),
    ("faithfulness_sweep_s", "s"),
    ("explain_lrptrans_ms_p90", "ms"),
    ("explain_ig_ms_p90", "ms"),
    ("explain_lrp_epsilon_ms", "ms"),
    ("explain_rollout_ms", "ms"),
    ("explain_attention_last_ms", "ms"),
    ("explain_random_ms", "ms"),
)

IG_STEPS = 20
TOLERANCE = 1e-9   # conservation / completeness, relative to max(1, |logit|)


class Run:
    """Samples, operation counts and check verdicts of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(float(value))

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` as one counted operation; returns (result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    def check(self, name: str, fn) -> None:
        """Run one correctness check; a raise counts as a failure."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as e:  # a check that raises is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1


def digest(outputs: dict[str, np.ndarray]) -> str:
    """SHA-256 over names, dtypes, shapes and bytes of ``outputs``."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        arr = np.ascontiguousarray(outputs[name])
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _params(net) -> dict[str, np.ndarray]:
    return {f"param:{k}": v for k, v in net.params.items()}


def _split(n: int, seed: int, n_test: int, n_val: int):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 99)))
    order = rng.permutation(n)
    return order[:n_test], order[n_test:n_test + n_val], order[n_test + n_val:]


def _pool_size(labels: np.ndarray) -> int:
    """Records per epoch after ``upsample_positives``."""
    pos = int(np.sum(labels == 1))
    neg = labels.size - pos
    return labels.size + (neg - pos if pos < neg else 0)


def _desk_config(seed: int, bias_free: bool = False) -> model.ModelConfig:
    s = BENCH_SPEC
    return model.ModelConfig(
        width=16, heads=2, ffn_width=32, dropout=0.1, event_blocks=1,
        note_blocks=1, vitals_blocks=1, event_hours=s.hours, event_dim=s.event_dim,
        note_len=s.note_len, vocab_size=s.vocab_size, vitals_steps=s.vitals_steps,
        vitals_channels=s.vitals_channels, fusion_hidden=16, bias_free=bias_free,
        seed=seed)


def _paper_config(ds, seed: int, bias_free: bool = False) -> model.ModelConfig:
    """``ModelConfig`` defaults, sized to the preprocessed dataset."""
    return model.ModelConfig(
        event_hours=ds.events.shape[1], event_dim=ds.events.shape[2],
        note_len=ds.notes.shape[1], vocab_size=len(ds.meta["vocab"]),
        vitals_steps=ds.vitals.shape[1], vitals_channels=ds.vitals.shape[2],
        bias_free=bias_free, seed=seed)


def _explain(run: Run, net, ds, counts: dict[str, int], records, seed: int,
             outputs: dict) -> None:
    """Explain records one at a time, as ``icuxai explain`` does.

    Records are the outer loop and kinds the inner one, so every kind's
    samples spread over the whole round rather than one stretch of it.
    """
    explainers = {kind: attribution.make_explainer(kind, net, seed=seed,
                                                   steps=IG_STEPS)
                  for kind in counts}
    for j, i in enumerate(records[:max(counts.values())]):
        rec = ds.record(int(i))
        for kind, n in counts.items():
            if j >= n:
                continue
            report, dt = run.timed(explainers[kind].explain, rec)
            run.add(f"explain_{tracing.KINDS[kind][0]}_ms", dt * 1e3)
            for m in MODALITIES:
                outputs[f"{kind}:{i}:{m}"] = getattr(report, m)


# --- checks shared by the workloads --------------------------------------------------

def check_predict(net, ds, idx, batch_a: int, batch_b: int):
    a = net.predict_proba(ds.events[idx], ds.notes[idx], ds.vitals[idx],
                          batch_size=batch_a)
    b = net.predict_proba(ds.events[idx], ds.notes[idx], ds.vitals[idx],
                          batch_size=batch_b)
    row_err = float(np.max(np.abs(a.sum(axis=1) - 1.0)))
    batch_err = float(np.max(np.abs(a - b)))
    return (row_err <= 1e-12 and batch_err <= 1e-12,
            f"rows sum to 1 within {row_err:.1e}; batch {batch_a} vs "
            f"{batch_b} differ by {batch_err:.1e}")


def _logit_at_zero(net, rec) -> float:
    ctx = Context(tape=Tape(), params=net.params, input_scale=0.0)
    logits = net.forward(ctx, rec.events.values[None], rec.notes.ids[None],
                         rec.vitals.values[None])
    return float(logits.data[0, 1])


def check_conservation(free_net, ds, idx):
    """lrptrans closes and IG is complete on an intercept-free model."""
    worst_res = worst_ig = 0.0
    for i in idx:
        rec = ds.record(int(i))
        rep = attribution.explain("lrptrans", free_net, rec)
        worst_res = max(worst_res, abs(rep.conservation_residual)
                        / max(1.0, abs(rep.target_value)))
        ig = attribution.explain("integrated-gradients", free_net, rec,
                                 steps=IG_STEPS)
        gap = ig.target_value - _logit_at_zero(free_net, rec) - ig.total
        worst_ig = max(worst_ig, abs(gap) / max(1.0, abs(ig.target_value)))
    return (worst_res <= TOLERANCE and worst_ig <= TOLERANCE,
            f"lrptrans residual {worst_res:.1e}, IG completeness {worst_ig:.1e} "
            f"over {len(idx)} records")


def check_random_repeats(net, ds, i: int):
    rec = ds.record(int(i))
    a = attribution.explain("random", net, rec, seed=3)
    b = attribution.explain("random", net, rec, seed=3)
    same = all(np.array_equal(getattr(a, m), getattr(b, m)) for m in MODALITIES)
    return same, "two calls give identical arrays" if same else "arrays differ"


def check_finite(outputs: dict[str, np.ndarray]):
    bad = [k for k, v in outputs.items() if not np.all(np.isfinite(v))]
    return not bad, f"{len(outputs)} arrays finite" if not bad else f"non-finite: {bad[:3]}"


def check_split(n: int, parts) -> tuple[bool, str]:
    sets = [set(np.asarray(p).tolist()) for p in parts]
    disjoint = all(not (a & b) for j, a in enumerate(sets) for b in sets[j + 1:])
    covered = set().union(*sets) == set(range(n))
    return disjoint and covered, f"{[len(s) for s in sets]} disjoint and covering {n}"


def check_desk_dataset(run: Run, state, n: int) -> None:
    ds, s = state["ds"], BENCH_SPEC
    run.check("dataset shapes", lambda: (
        ds.events.shape == (n, s.hours, s.event_dim)
        and ds.notes.shape == (n, s.note_len)
        and ds.vitals.shape == (n, s.vitals_steps, s.vitals_channels),
        f"events {ds.events.shape}, notes {ds.notes.shape}, vitals {ds.vitals.shape}"))


def check_same(name: str, digests: list[str]):
    same = len(set(digests)) == 1
    return same, f"{len(digests)} {name} byte-identical" if same \
        else f"{len(set(digests))} distinct {name} out of {len(digests)}"


# --- workloads -----------------------------------------------------------------------

@dataclass
class DeskTrain:
    """Desk geometry: train a fixed number of epochs, predict the cohort,
    explain a few held-out records."""

    seed: int
    epochs: int = 2
    n_records: int = BENCH_SPEC.n_records
    n_test: int = 400
    n_val: int = 320
    explain: dict = field(default_factory=lambda: {
        "lrptrans": 6, "integrated-gradients": 2})

    def setup(self, run: Run):
        spec = replace(BENCH_SPEC, n_records=self.n_records)
        ds, _ = synthetic.generate_synthetic(spec, seed=self.seed)
        test, val, train = _split(len(ds), self.seed, self.n_test, self.n_val)
        return {"ds": ds, "test": test, "val": val, "train": train}

    def setup_outputs(self, state) -> dict:
        ds = state["ds"]
        return {"events": ds.events, "notes": ds.notes, "vitals": ds.vitals,
                "labels": ds.labels, "train": state["train"]}

    def round(self, state, run: Run) -> dict:
        ds, train = state["ds"], state["train"]
        net = model.TriModalNet(_desk_config(self.seed))
        config = training.TrainConfig(
            epochs=self.epochs, batch_size=64, learning_rate=3e-3, dropout=0.1,
            patience=self.epochs, seed=self.seed)   # patience = epochs: no early stop
        _, dt = run.timed(training.train_model, net, ds, config, train_idx=train,
                          val_idx=state["val"])
        run.add("train_records_per_s",
                self.epochs * _pool_size(ds.labels[train]) / dt)
        probs, dt = run.timed(net.predict_proba, ds.events, ds.notes, ds.vitals)
        run.add("predict_records_per_s", len(ds) / dt)
        outputs = {"probs": probs, **_params(net)}
        _explain(run, net, ds, self.explain, state["test"], self.seed, outputs)
        state["net"] = net
        return outputs

    def checks(self, state, run: Run, outputs: dict) -> None:
        ds, net = state["ds"], state["net"]
        check_desk_dataset(run, state, self.n_records)
        run.check("predict batch-invariant", lambda: check_predict(
            net, ds, np.arange(300), 256, 37))
        free = model.TriModalNet(_desk_config(self.seed + 1, bias_free=True))
        run.check("bias-free conservation", lambda: check_conservation(
            free, ds, state["test"][:4]))
        run.check("random repeats", lambda: check_random_repeats(
            net, ds, state["test"][0]))
        run.check("attributions finite", lambda: check_finite(outputs))


@dataclass
class DeskExplain:
    """Desk geometry: a briefly trained model, every explainer one record
    at a time, then the six-explainer deletion sweep."""

    seed: int
    setup_epochs: int = 1
    n_records: int = BENCH_SPEC.n_records
    n_test: int = 400
    n_val: int = 320
    explain: dict = field(default_factory=lambda: {
        "lrptrans": 12, "integrated-gradients": 4, "lrp-epsilon": 12,
        "attention-rollout": 12, "attention-last": 12, "random": 12})
    sweep_pos: int = 5
    sweep_neg: int = 10

    def setup(self, run: Run):
        spec = replace(BENCH_SPEC, n_records=self.n_records)
        ds, _ = synthetic.generate_synthetic(spec, seed=self.seed)
        test, val, train = _split(len(ds), self.seed, self.n_test, self.n_val)
        net = model.TriModalNet(_desk_config(self.seed))
        config = training.TrainConfig(epochs=self.setup_epochs, batch_size=64,
                                      learning_rate=3e-3, dropout=0.1,
                                      seed=self.seed)
        _, dt = run.timed(training.train_model, net, ds, config, train_idx=train)
        run.add("train_records_per_s",
                self.setup_epochs * _pool_size(ds.labels[train]) / dt)
        labels = ds.labels[test]
        sweep = np.sort(np.concatenate([test[labels == 1][:self.sweep_pos],
                                        test[labels == 0][:self.sweep_neg]]))
        return {"ds": ds, "test": test, "val": val, "train": train, "net": net,
                "sweep": sweep}

    def setup_outputs(self, state) -> dict:
        ds = state["ds"]
        return {"events": ds.events, "notes": ds.notes, "vitals": ds.vitals,
                "labels": ds.labels, **_params(state["net"])}

    def round(self, state, run: Run) -> dict:
        ds, net, test = state["ds"], state["net"], state["test"]
        probs, dt = run.timed(net.predict_proba, ds.events[test], ds.notes[test],
                              ds.vitals[test])
        run.add("predict_records_per_s", len(test) / dt)
        outputs = {"probs": probs}
        _explain(run, net, ds, self.explain, test, self.seed, outputs)
        curves, dt = run.timed(perturbation.compare_explainers, net,
                               ds.subset(state["sweep"]), seed=self.seed)
        run.add("faithfulness_sweep_s", dt)
        for c in curves:
            outputs[f"curve:{c.explainer}"] = np.append(c.auc_roc, c.au)
        state["curves"] = curves
        return outputs

    def checks(self, state, run: Run, outputs: dict) -> None:
        ds, net = state["ds"], state["net"]
        check_desk_dataset(run, state, self.n_records)
        run.check("predict batch-invariant", lambda: check_predict(
            net, ds, state["test"][:300], 256, 37))
        free = model.TriModalNet(_desk_config(self.seed + 1, bias_free=True))
        run.check("bias-free conservation", lambda: check_conservation(
            free, ds, state["test"][:4]))
        run.check("random repeats", lambda: check_random_repeats(
            net, ds, state["test"][0]))
        run.check("attributions finite", lambda: check_finite(outputs))

        def aus():
            curves = state["curves"]
            ok = len(curves) == len(attribution.EXPLAINER_KINDS) and all(
                np.isfinite(c.au) and 0.0 <= c.au <= 1.0
                and np.all(np.isfinite(c.auc_roc)) for c in curves)
            return ok, "AUs " + ", ".join(f"{c.explainer} {c.au:.3f}" for c in curves)

        run.check("curve AUs in [0, 1]", aus)


@dataclass
class PaperPipeline:
    """Paper geometry: preprocess raw exports, a few train steps, predict,
    and lrptrans / IG on a few records."""

    seed: int
    workdir: Path
    n_kept: int = 12
    n_rejected: int = 2
    train_steps: int = 2
    train_batch: int = 2
    n_predict: int = 4
    predict_batch: int = 4
    explain: dict = field(default_factory=lambda: {
        "lrptrans": 1, "integrated-gradients": 1})

    def setup(self, run: Run):
        raw = rawgen.write_raw_exports(self.workdir / "raw", self.seed,
                                       self.n_kept, self.n_rejected)
        return {"raw": raw}

    def setup_outputs(self, state) -> dict:
        return {name: np.frombuffer(path.read_bytes(), dtype=np.uint8)
                for name, path in state["raw"].paths.items()}

    def _build(self, state):
        p = state["raw"].paths
        with warnings.catch_warnings():
            # the planted unlabeled stay is reported by a warning
            warnings.simplefilter("ignore")
            return preprocess.build_dataset(p["events"], p["notes"], p["vitals"],
                                            p["labels"], seed=self.seed)

    def round(self, state, run: Run) -> dict:
        raw = state["raw"]
        ds, dt = run.timed(self._build, state)
        run.add("preprocess_stays_per_s", (len(raw.kept) + len(raw.rejected)) / dt)
        index = {sid: i for i, sid in enumerate(ds.ids)}
        train = np.array([index[s] for s in ds.meta["split"]["train"]])
        test = np.array([index[s] for s in ds.meta["split"]["test"]])

        net = model.TriModalNet(_paper_config(ds, self.seed))
        n_train = self.train_steps * self.train_batch
        config = training.TrainConfig(epochs=1, batch_size=self.train_batch,
                                      upsample=False, seed=self.seed)
        _, dt = run.timed(training.train_model, net, ds, config,
                          train_idx=train[:n_train])
        run.add("train_records_per_s", n_train / dt)
        k = self.n_predict
        probs, dt = run.timed(net.predict_proba, ds.events[:k], ds.notes[:k],
                              ds.vitals[:k], batch_size=self.predict_batch)
        run.add("predict_records_per_s", k / dt)
        outputs = {"probs": probs, "events": ds.events, "notes": ds.notes,
                   "vitals": ds.vitals, **_params(net)}
        _explain(run, net, ds, self.explain, test, self.seed, outputs)
        state.update(ds=ds, net=net, train=train, test=test)
        return outputs

    def checks(self, state, run: Run, outputs: dict) -> None:
        ds, net, raw = state["ds"], state["net"], state["raw"]
        n = len(raw.kept)
        run.check("dataset shapes", lambda: (
            ds.events.shape == (n, preprocess.WINDOW_HOURS, 76)
            and ds.notes.shape == (n, 1 + preprocess.NOTE_WORDS)
            and ds.vitals.shape == (n, preprocess.VITALS_STEPS, 21),
            f"events {ds.events.shape}, notes {ds.notes.shape}, vitals {ds.vitals.shape}"))
        run.check("rejected stays", lambda: (
            ds.meta["rejected"] == raw.rejected and ds.ids == raw.kept,
            f"{len(ds.meta['rejected'])} rejected (planted {len(raw.rejected)}), "
            f"{len(ds.ids)} kept (planted {n})"))
        split = ds.meta["split"]
        index = {sid: i for i, sid in enumerate(ds.ids)}
        run.check("split disjoint", lambda: check_split(
            n, [[index[s] for s in split[part]] for part in ("train", "val", "test")]))
        run.check("predict batch-invariant", lambda: check_predict(
            net, ds, np.arange(3), 3, 1))
        free = model.TriModalNet(_paper_config(ds, self.seed + 1, bias_free=True))
        run.check("bias-free conservation", lambda: check_conservation(
            free, ds, state["test"][:1]))
        run.check("random repeats", lambda: check_random_repeats(
            net, ds, state["test"][0]))
        run.check("attributions finite", lambda: check_finite(outputs))


WORKLOADS = {"desk-train": DeskTrain, "desk-explain": DeskExplain,
             "paper-pipeline": PaperPipeline}

SETUP_REPEATS = 5


def make(name: str, seed: int, workdir: Path, **sizes):
    cls = WORKLOADS[name]
    if cls is PaperPipeline:
        return cls(seed=seed, workdir=workdir, **sizes)
    return cls(seed=seed, **sizes)


def median(values) -> float:
    return float(statistics.median(values))


def execute(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            **sizes) -> dict:
    """One benchmark run; returns metrics, counts, checks and the digests.

    The time budget is cut into ``SETUP_REPEATS`` equal segments. Each
    segment sets up once (timed) and then runs rounds until the segment
    ends, so set-up samples and round samples both spread over the run.
    Before the first timed round, one round runs untimed as warm-up. A
    traced run follows each untimed round with the same round traced.
    """
    run = Run()
    wl = make(name, seed, workdir, **sizes)
    setup_times, setup_digests = [], []
    plain_times, traced_times, digests, tracers = [], [], [], []
    traced_digests = []
    outputs, state = {}, None
    started = time.perf_counter()
    for segment in range(SETUP_REPEATS):
        state, dt = run.timed(wl.setup, run)
        setup_times.append(dt)
        setup_digests.append(digest(wl.setup_outputs(state)))
        if segment == 0:
            if trace:
                setup_tracer = tracing.Tracer()
                with tracing.installed(setup_tracer):
                    traced_state = wl.setup(Run())
                run.check("trace-neutral setup", lambda: check_same(
                    "setups (untraced, traced)",
                    [setup_digests[0], digest(wl.setup_outputs(traced_state))]))
                del traced_state
            wl.round(state, Run())   # warm-up
            started = time.perf_counter()
        deadline = started + seconds * (segment + 1) / SETUP_REPEATS
        while True:
            t0 = time.perf_counter()
            outputs = wl.round(state, run)
            plain_times.append(time.perf_counter() - t0)
            digests.append(digest(outputs))
            if trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    t0 = time.perf_counter()
                    traced = wl.round(state, Run())
                    traced_times.append(time.perf_counter() - t0)
                tracers.append(tracer)
                traced_digests.append(digest(traced))
                run.check(f"trace-neutral round {len(tracers)}", lambda: check_same(
                    "rounds (untraced, traced)", [digests[-1], traced_digests[-1]]))
            per_round = median(plain_times) + (median(traced_times) if trace else 0.0)
            if time.perf_counter() + per_round > deadline:
                break
    measured = time.perf_counter() - started

    run.check("setups byte-identical", lambda: check_same("setups", setup_digests))
    run.check("rounds byte-identical", lambda: check_same("rounds", digests))
    wl.checks(state, run, outputs)

    metrics = {}
    if trace:
        per_round = [tracing.layer_metrics(t) for t in tracers]
        layer = {k: median([m[k] for m in per_round]) for k in per_round[0]}
        layer["synthetic.generate_s"] = tracing.layer_metrics(setup_tracer)[
            "synthetic.generate_s"]
        overhead = median(traced_times) - median(plain_times)
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_pct"] = 100.0 * overhead / median(plain_times)
        for metric, unit, _ in tracing.PER_LAYER:
            metrics[metric] = (layer[metric], unit, len(tracers))
    else:
        samples = dict(run.samples)
        samples["setup_s"] = setup_times
        samples["round_s"] = plain_times
        for metric, unit in END_TO_END + EXTRA:
            values = samples.get(metric)
            if metric.endswith("_p90"):
                values = samples.get(metric[:-4])
                if values and len(values) >= 100:
                    metrics[metric] = (float(np.percentile(values, 90)), unit,
                                       len(values))
            elif metric == "peak_rss_mb":
                metrics[metric] = (peak_rss_mb(), unit, 1)
            elif values:
                metrics[metric] = (median(values), unit, len(values))
    return {"metrics": metrics, "attempted": run.attempted, "failed": run.failed,
            "checks": run.checks, "rounds": len(plain_times), "measured_s": measured,
            "digest": digests[0],
            "traced_digest": traced_digests[0] if trace else None,
            "tracers": tracers}
