"""Release gates.

Every property in this file must hold before a build ships. Each test
prints a single ``gate NN <name>: PASS/FAIL (<figures>)`` verdict line,
so ``pytest tests/test_acceptance.py -s -q`` reads as the full gate
report. The heavier gates (trained-model properties) share module-scoped
fixtures; the whole file is one short run on a laptop CPU.

The gates, in order:

 1. analytic gradients match central differences, primitives and full model
 2. attribution conservation: exact on intercept-free models, improved on default
 3. attention score parameters receive exactly zero gradient in attribution mode
 4. ranking metrics match brute-force pairwise/threshold oracles exactly
 5. the tri-modal classifier learns a planted synthetic cohort quickly
 6. tri-modal beats bi-modal beats single-modal under complementary planting
 7. deletion faithfulness: our attributions rank above random (and hold vs IG)
 8. cohort aggregation recovers the planted token and event feature
 9. path attributions are complete against the zero baseline
10. seeded pipelines are byte-reproducible; checkpoints round-trip bit-exact
11. the documented preprocessing examples hold as golden behavior
"""

import math
import time

import numpy as np
import pytest

from icuxai import autodiff as ad
from icuxai.attribution import (aggregate_feature_attributions, gi_attribute,
                                integrated_gradients)
from icuxai.autodiff import Tape, grad_check
from icuxai.blocks import Context
from icuxai.cli import run
from icuxai.metrics import auc_pr, auc_roc
from icuxai.model import (ModelConfig, TriModalNet, load_checkpoint,
                          save_checkpoint)
from icuxai.perturbation import compare_explainers
from icuxai.preprocess import (EventPreprocessor, NormalValueTable,
                               NotePreprocessor, VitalsPreprocessor)
from icuxai.errors import RecordRejectedError
from icuxai.records import MODALITIES
from icuxai.synthetic import SyntheticSpec, generate_synthetic
from icuxai.training import TrainConfig, train_model

TABLE = NormalValueTable.load()


def _gate(number: int, name: str, ok: bool, detail: str) -> None:
    """One verdict line per gate; the assertion message repeats it."""
    line = f"gate {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(f"\n{line}", flush=True)
    assert ok, line


def _split(n: int, seed: int, n_test: int, n_val: int):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 99)))
    order = rng.permutation(n)
    return order[:n_test], order[n_test:n_test + n_val], order[n_test + n_val:]


def _test_auc(model, ds, test_idx, active=MODALITIES) -> float:
    probs = model.predict_proba(ds.events[test_idx], ds.notes[test_idx],
                                ds.vitals[test_idx], active=active)
    return auc_roc(ds.labels[test_idx], probs[:, 1])


# --- shared trained fixtures ----------------------------------------------------------

BENCH_SPEC = SyntheticSpec(n_records=2000, positive_rate=0.10, noise_rate=0.05,
                           hours=12, event_dim=10, note_len=24, vocab_size=60,
                           vitals_steps=24, vitals_channels=6)

SMALL_SPEC = SyntheticSpec(n_records=400, positive_rate=0.25, noise_rate=0.0,
                           hours=8, event_dim=8, note_len=16, vocab_size=40,
                           vitals_steps=12, vitals_channels=4)


def _bench_model_config(spec: SyntheticSpec, blocks: int = 1,
                        bias_free: bool = False, seed: int = 0) -> ModelConfig:
    return ModelConfig(width=16, heads=2, ffn_width=32, dropout=0.1,
                       event_blocks=blocks, note_blocks=blocks,
                       vitals_blocks=blocks, event_hours=spec.hours,
                       event_dim=spec.event_dim, note_len=spec.note_len,
                       vocab_size=spec.vocab_size, vitals_steps=spec.vitals_steps,
                       vitals_channels=spec.vitals_channels, fusion_hidden=16,
                       bias_free=bias_free, seed=seed)


@pytest.fixture(scope="module")
def bench():
    """Five seeded cohorts with one trained tri-modal model each."""
    entries = []
    for seed in range(5):
        t0 = time.time()
        ds, truth = generate_synthetic(BENCH_SPEC, seed=seed)
        test_idx, val_idx, train_idx = _split(len(ds), seed, 400, 320)
        model = TriModalNet(_bench_model_config(BENCH_SPEC))
        config = TrainConfig(epochs=20, batch_size=64, learning_rate=3e-3,
                             dropout=0.1, patience=6, seed=0)
        train_model(model, ds, config, train_idx=train_idx, val_idx=val_idx)
        entries.append({
            "seed": seed, "ds": ds, "truth": truth, "model": model,
            "test_idx": test_idx, "epochs": config.epochs,
            "auc": _test_auc(model, ds, test_idx),
            "seconds": time.time() - t0,
        })
    return entries


@pytest.fixture(scope="module")
def small_trained():
    """A 400-record cohort with an intercept-free and a default model."""
    ds, _ = generate_synthetic(SMALL_SPEC, seed=11)
    test_idx, val_idx, train_idx = _split(len(ds), 11, 80, 64)
    models = {}
    for bias_free in (True, False):
        model = TriModalNet(_bench_model_config(SMALL_SPEC, blocks=2,
                                                bias_free=bias_free, seed=4))
        config = TrainConfig(epochs=4, batch_size=32, learning_rate=3e-3,
                             dropout=0.1, patience=4, seed=0)
        train_model(model, ds, config, train_idx=train_idx, val_idx=val_idx)
        models[bias_free] = model
    return ds, models[True], models[False]


# --- gate 1: gradient correctness ------------------------------------------------------

def _primitive_cases():
    """(kind, shape, builder) with builder mapping a leaf to a scalar."""
    rngw = np.random.default_rng(7)
    w = rngw.normal(size=(4, 3))
    idx = np.array([[0, 2], [1, 1]])
    keep = np.array([[True, False, True, True], [True, True, False, True],
                     [False, True, True, True]])
    pad = np.where([[True, True, False], [True, False, False]], 0.0, -1e9)[:, None, None, :]

    def red(y):
        return ad.sum_over_axis(ad.mul(y, y))

    def plus_one(x, shape):
        return ad.add(ad.mul(x, x), x.tape.leaf(np.ones(shape)))

    return [
        ("add", (3, 4), lambda x: red(ad.add(x, ad.scale(x, 0.5)))),
        ("sub", (3, 4), lambda x: red(ad.sub(ad.scale(x, 2.0), x))),
        ("mul", (3, 4), lambda x: red(ad.mul(x, ad.add(x, x)))),
        ("div", (3, 4), lambda x: red(ad.div(x, plus_one(x, (3, 4))))),
        ("matmul", (2, 4), lambda x: red(ad.matmul(x, x.tape.leaf(w)))),
        ("transpose", (2, 3), lambda x: red(ad.transpose(x, (1, 0)))),
        ("reshape", (2, 6), lambda x: red(ad.reshape(x, (3, 4)))),
        ("concat", (2, 3), lambda x: red(ad.concat([x, ad.scale(x, -1.0)], axis=1))),
        ("slice", (4, 5), lambda x: red(ad.slice_(x, (slice(1, 3),
                                                      slice(None, None, 2))))),
        ("sum-over-axis", (3, 4), lambda x: ad.sum_over_axis(ad.mul(x, x))),
        ("mean-over-axis", (3, 4), lambda x: red(ad.mean_over_axis(x, axis=1))),
        ("max-over-axis", (3, 4), lambda x: red(ad.max_over_axis(x, axis=0))),
        ("exp", (3, 3), lambda x: red(ad.exp(x))),
        ("log", (3, 3), lambda x: red(ad.log(plus_one(x, (3, 3))))),
        ("sqrt", (3, 3), lambda x: red(ad.sqrt(plus_one(x, (3, 3))))),
        ("relu", (3, 4), lambda x: red(ad.relu(x))),
        ("softmax-over-axis", (3, 4), lambda x: red(ad.softmax_over_axis(x, axis=-1))),
        # both operands carry the leaf, so both halves of each rule are checked
        ("attention-map", (2, 2, 3, 4), lambda x: red(ad.attention_map(
            x, ad.scale(x, 0.5), factor=0.7, mask=pad))),
        ("dropout-matmul", (3, 4), lambda x: red(ad.dropout_matmul(
            x, ad.transpose(x, (1, 0)), keep, 1.0 / 0.75))),
        ("scale", (3, 4), lambda x: red(ad.scale(x, -2.5))),
        ("broadcast", (1, 4), lambda x: red(ad.broadcast_to(x, (3, 4)))),
        ("gather-rows", (4, 3), lambda x: red(ad.gather_rows(x, idx))),
    ]


def _model_logit(model, events, notes, vitals) -> float:
    ctx = Context(tape=Tape(), params=model.params)
    return float(model.forward(ctx, events, notes, vitals).data[0, 1])


def test_gate_01_autodiff_gradients():
    t0 = time.time()
    cases = _primitive_cases()
    # every differentiable primitive kind must be exercised; detach is
    # checked by its defining property below (central differences see
    # through a detach, the tape must not)
    covered = {kind for kind, _, _ in cases} | {"detach"}
    assert covered == set(ad.PRIMITIVE_KINDS)
    worst = 0.0
    for kind, shape, builder in cases:
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(10):
            point = rng.uniform(0.3, 1.4, size=shape) \
                * rng.choice([-1.0, 1.0], size=shape)
            worst = max(worst, grad_check(builder, point, step=1e-5))

    t = Tape()
    x = t.leaf([1.5, -2.0])
    y = ad.sum_over_axis(ad.mul(x, ad.detach(ad.mul(x, x))))
    ad.backward(y)
    np.testing.assert_array_equal(y.data, np.sum(np.array([1.5, -2.0]) ** 3))
    np.testing.assert_array_equal(x.grad, np.array([1.5, -2.0]) ** 2)

    # a full two-block tri-modal network, checked at 20 random input cells
    spec = SyntheticSpec(n_records=4, positive_rate=0.5, noise_rate=0.0,
                         hours=6, event_dim=5, note_len=8, vocab_size=16,
                         vitals_steps=8, vitals_channels=3, vitals_channel=1)
    ds, _ = generate_synthetic(spec, seed=1)
    model = TriModalNet(_bench_model_config(spec, blocks=2, seed=3))
    events = ds.events[:1].copy()
    notes = ds.notes[:1]
    vitals = ds.vitals[:1].copy()
    ctx = Context(tape=Tape(), params=model.params)
    logits = model.forward(ctx, events, notes, vitals)
    ad.backward(ad.slice_(logits, (0, 1)))
    g_events = ctx.probes["events"].grad[0]
    g_vitals = ctx.probes["vitals"].grad[0]
    rng = np.random.default_rng(17)
    h = 1e-4
    model_worst = 0.0
    for _ in range(20):
        if rng.random() < 0.5:
            r, c = rng.integers(events.shape[1]), rng.integers(events.shape[2])
            grid, analytic = events, g_events[r, c]
        else:
            r, c = rng.integers(vitals.shape[1]), rng.integers(vitals.shape[2])
            grid, analytic = vitals, g_vitals[r, c]
        kept = grid[0, r, c]
        grid[0, r, c] = kept + h
        hi = _model_logit(model, events, notes, vitals)
        grid[0, r, c] = kept - h
        lo = _model_logit(model, events, notes, vitals)
        grid[0, r, c] = kept
        numeric = (hi - lo) / (2 * h)
        model_worst = max(model_worst, abs(analytic - numeric)
                          / (abs(analytic) + abs(numeric) + 1e-12))
    seconds = time.time() - t0
    ok = worst < 1e-4 and model_worst < 1e-4 and seconds < 60
    _gate(1, "autodiff-gradients", ok,
          f"primitive max rel err {worst:.2e}, model max rel err "
          f"{model_worst:.2e}, {seconds:.1f}s")


# --- gate 2: conservation ---------------------------------------------------------------

def test_gate_02_attribution_conservation(small_trained):
    ds, free_model, default_model = small_trained
    picks = np.random.default_rng(5).choice(len(ds), 100, replace=False)
    worst = 0.0
    for i in picks:
        rep = gi_attribute(free_model, ds.record(int(i)))
        worst = max(worst, abs(rep.conservation_residual) / abs(rep.target_value))
    res_attr, res_std = [], []
    for i in picks:
        rec = ds.record(int(i))
        res_attr.append(abs(gi_attribute(default_model, rec).conservation_residual))
        res_std.append(abs(gi_attribute(default_model, rec,
                                        mode="standard").conservation_residual))
    med_attr, med_std = float(np.median(res_attr)), float(np.median(res_std))
    ok = worst < 1e-6 and med_attr <= med_std
    _gate(2, "attribution-conservation", ok,
          f"intercept-free worst rel residual {worst:.2e}; default-model "
          f"median |residual| {med_attr:.3f} vs plain-gradient {med_std:.3f}")


# --- gate 3: detached attention parameters ----------------------------------------------

def test_gate_03_attention_scores_are_constants(small_trained):
    ds, _, model = small_trained
    rec = ds.record(0)
    arrays = (rec.events.values[None], rec.notes.ids[None],
              rec.vitals.values[None])
    score_params = [n for n in model.params.names()
                    if n.endswith((".q.w", ".k.w", ".q.b", ".k.b"))]
    assert score_params, "model exposes no attention score parameters"

    ctx = Context(tape=Tape(), params=model.params, mode="attribution")
    logits = model.forward(ctx, *arrays)
    ad.backward(ad.slice_(logits, (0, 1)))
    grads = ctx.param_grads()
    zero = all(name not in grads or not np.any(grads[name])
               for name in score_params)

    std = Context(tape=Tape(), params=model.params, mode="standard")
    std_logits = model.forward(std, *arrays)
    ad.backward(ad.slice_(std_logits, (0, 1)))
    std_grads = std.param_grads()
    alive = any(np.any(std_grads.get(name, np.zeros(1))) for name in score_params)

    identical = logits.data.tobytes() == std_logits.data.tobytes()
    ok = zero and alive and identical
    _gate(3, "detached-attention-gradients", ok,
          f"{len(score_params)} score parameters zero-gradient: {zero}; "
          f"standard mode nonzero: {alive}; forward bit-identical: {identical}")


# --- gate 4: metric oracles -------------------------------------------------------------

def _oracle_auc_roc(labels, scores) -> float:
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    total = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return total / (pos.size * neg.size)


def _oracle_auc_pr(labels, scores) -> float:
    n_pos = int((labels == 1).sum())
    terms = []
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        kept = scores >= t
        tp = int((labels[kept] == 1).sum())
        fp = int((labels[kept] == 0).sum())
        recall = tp / n_pos
        terms.append((recall - prev_recall) * (tp / (tp + fp)))
        prev_recall = recall
    return math.fsum(terms)


def test_gate_04_metric_oracles():
    rng = np.random.default_rng(2024)
    checked = 0
    for i in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if i % 2:
            scores = rng.integers(0, 5, size=n) / 4.0  # heavy ties
        else:
            scores = rng.normal(size=n)
        assert auc_roc(labels, scores) == _oracle_auc_roc(labels, scores)
        assert auc_pr(labels, scores) == _oracle_auc_pr(labels, scores)
        checked += 1
    _gate(4, "metric-oracles", checked == 1000,
          f"{checked}/1000 instances match the pairwise oracle bit-for-bit")


# --- gate 5: learnability ---------------------------------------------------------------

def test_gate_05_synthetic_learnability(bench):
    entry = bench[0]
    ok = entry["auc"] >= 0.90 and entry["epochs"] <= 50 and entry["seconds"] < 600
    _gate(5, "synthetic-learnability", ok,
          f"test AUC-ROC {entry['auc']:.4f} after {entry['epochs']} epochs "
          f"in {entry['seconds']:.0f}s on {len(entry['ds'])} records")


# --- gate 6: modality ablation ordering ------------------------------------------------

SINGLES = (("events",), ("notes",), ("vitals",))
PAIRS = (("events", "notes"), ("events", "vitals"), ("notes", "vitals"))


def test_gate_06_modality_ablation_ordering():
    spec = SyntheticSpec(n_records=1500, positive_rate=0.10, noise_rate=0.05,
                         complementary=True, hours=12, event_dim=10,
                         note_len=24, vocab_size=60, vitals_steps=24,
                         vitals_channels=6)
    sets = SINGLES + PAIRS + (MODALITIES,)
    aucs = {active: [] for active in sets}
    for seed in range(5):
        ds, _ = generate_synthetic(spec, seed=seed)
        test_idx, val_idx, train_idx = _split(len(ds), seed, 300, 240)
        for active in sets:
            model = TriModalNet(_bench_model_config(spec))
            config = TrainConfig(epochs=15, batch_size=64, learning_rate=3e-3,
                                 dropout=0.1, patience=5, seed=0)
            train_model(model, ds, config, train_idx=train_idx,
                        val_idx=val_idx, active=active)
            aucs[active].append(_test_auc(model, ds, test_idx, active=active))
    mean = {active: float(np.mean(v)) for active, v in aucs.items()}
    tri = mean[MODALITIES]
    best_single = max(mean[s] for s in SINGLES)
    tri_beats_pairs = all(tri >= mean[p] for p in PAIRS)
    pairs_beat_parts = all(mean[p] >= mean[(m,)]
                           for p in PAIRS for m in p)
    ok = tri_beats_pairs and pairs_beat_parts and tri >= best_single + 0.01
    parts = ", ".join(f"{''.join(m[0] for m in a)} {mean[a]:.3f}" for a in sets)
    _gate(6, "modality-ablation-ordering", ok, f"mean AUC over 5 seeds: {parts}")


# --- gates 7 and 8: faithfulness and planted-feature recovery ---------------------------

DELETION_FRACTIONS = np.round(np.arange(0.0, 0.96, 0.05), 2)


def test_gate_07_deletion_faithfulness(bench):
    t0 = time.time()
    aus: dict[str, list[float]] = {}
    for entry in bench:
        cohort = entry["ds"].subset(entry["test_idx"][:100])
        for curve in compare_explainers(entry["model"], cohort, seed=0,
                                        fractions=DELETION_FRACTIONS):
            aus.setdefault(curve.explainer, []).append(curve.au)
    seconds = time.time() - t0
    mean = {kind: float(np.mean(v)) for kind, v in aus.items()}
    ours, ig, rnd = mean["lrptrans"], mean["integrated-gradients"], mean["random"]
    ok = ours >= ig - 0.005 and ours >= rnd + 0.02 \
        and len(aus) == 6 and seconds < 900
    _gate(7, "deletion-faithfulness", ok,
          f"mean AU over 5 seeds: lrptrans {ours:.4f}, ig {ig:.4f}, "
          f"random {rnd:.4f}; 6-explainer sweep {seconds:.0f}s")


def test_gate_08_planted_feature_recovery(bench):
    hits = 0
    details = []
    for entry in bench:
        ds, truth = entry["ds"], entry["truth"]
        positives = [int(i) for i in entry["test_idx"] if ds.labels[i] == 1]
        reports = [gi_attribute(entry["model"], ds.record(i)) for i in positives]
        agg = aggregate_feature_attributions(
            reports, event_names=ds.meta["event_names"],
            channel_names=ds.meta["channel_names"], vocab=ds.meta["vocab"],
            min_token_count=1)
        top_tokens = [name for name, value, _ in agg["notes"] if value > 0][:10]
        top_events = [name for name, _, _ in agg["events"]][:5]
        token_hit = truth["signals"]["notes"]["word"] in top_tokens
        event_hit = truth["signals"]["events"]["name"] in top_events
        hits += token_hit and event_hit
        details.append(f"s{entry['seed']}:{'+' if token_hit and event_hit else '-'}")
    ok = hits >= 4
    _gate(8, "planted-feature-recovery", ok,
          f"planted token in top-10 and event in top-5 for {hits}/5 seeds "
          f"[{' '.join(details)}]")


# --- gate 9: path-attribution completeness ----------------------------------------------

def _logit_at_zero(model, record) -> float:
    ctx = Context(tape=Tape(), params=model.params, input_scale=0.0)
    logits = model.forward(ctx, record.events.values[None],
                           record.notes.ids[None], record.vitals.values[None])
    return float(logits.data[0, 1])


def test_gate_09_path_attribution_completeness(small_trained):
    ds, trained_free, _ = small_trained
    fresh_free = TriModalNet(_bench_model_config(SMALL_SPEC, blocks=2,
                                                 bias_free=True, seed=29))
    worst = 0.0
    picks = np.random.default_rng(6).choice(len(ds), 40, replace=False)
    for model, indices in ((trained_free, picks), (fresh_free, picks[:12])):
        for i in indices:
            rec = ds.record(int(i))
            rep = integrated_gradients(model, rec, steps=20)
            baseline = _logit_at_zero(model, rec)
            rel = abs(rep.target_value - baseline - rep.total) \
                / max(abs(rep.target_value), 1e-12)
            worst = max(worst, rel)
    ok = worst < 1e-3
    _gate(9, "path-attribution-completeness", ok,
          f"worst rel completeness error {worst:.2e} over 52 records at 20 steps")


# --- gate 10: reproducibility -----------------------------------------------------------

def test_gate_10_seeded_reproducibility(tmp_path):
    synth = ["--records", "120", "--hours", "6", "--event-dim", "5",
             "--note-len", "10", "--vocab-size", "24", "--vitals-steps", "8",
             "--vitals-channels", "3", "--vitals-channel", "1",
             "--positive-rate", "0.3", "--seed", "3"]
    train = ["--width", "8", "--heads", "2", "--ffn-width", "16",
             "--blocks", "1", "--fusion-hidden", "8", "--epochs", "6",
             "--batch-size", "16", "--learning-rate", "3e-3",
             "--dropout", "0.0", "--seed", "3"]
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run(["synth", "--out", str(out)] + synth) == 0
        assert run(["train", "--data", str(out / "data.npz"),
                    "--out", str(out)] + train) == 0
        assert run(["eval", "--checkpoint", str(out / "model.npz"),
                    "--data", str(out / "data.npz"), "--out", str(out)]) == 0
        outs.append(out)
    metrics_equal = (outs[0] / "metrics.csv").read_bytes() \
        == (outs[1] / "metrics.csv").read_bytes()
    checkpoints_equal = (outs[0] / "model.npz").read_bytes() \
        == (outs[1] / "model.npz").read_bytes()

    model, meta = load_checkpoint(outs[0] / "model.npz")
    save_checkpoint(model, tmp_path / "roundtrip.npz", vocab=meta.get("vocab"),
                    preprocess=meta.get("preprocess"), extra=meta.get("extra"))
    again, _ = load_checkpoint(tmp_path / "roundtrip.npz")
    bit_exact = all(model.params[n].tobytes() == again.params[n].tobytes()
                    for n in model.params.names())
    ok = metrics_equal and bit_exact
    _gate(10, "seeded-reproducibility", ok,
          f"metrics byte-identical: {metrics_equal}; checkpoint round-trip "
          f"bit-exact: {bit_exact}; checkpoint files identical: {checkpoints_equal}")


# --- gate 11: documented preprocessing examples -----------------------------------------

def test_gate_11_preprocessing_contract_examples():
    checks = {}

    # events: the fitted stats below give glucose mean 110, std 10
    events = EventPreprocessor(TABLE).fit(
        [[(0.5, "glucose", "100"), (1.5, "glucose", "120")]])
    col = events.layout.value_column("glucose")
    seq = events.transform([(3.2, "glucose", "100"), (3.7, "glucose", "120")])
    checks["within-hour latest wins"] = (
        seq.values[3, col] == pytest.approx((120 - 110) / 10)
        and seq.mask[3, col] == 1.0)
    seq = events.transform([(4.5, "glucose", "98")])
    checks["forward fill marks imputed"] = (
        seq.values[5, col] == seq.values[4, col]
        and seq.mask[4, col] == 1.0 and seq.mask[5, col] == 0.0)
    normal_z = (TABLE.continuous["glucose"] - 110) / 10
    checks["normal value before first"] = (
        np.allclose(seq.values[:4, col], normal_z)
        and np.all(seq.mask[:4, col] == 0.0))

    notes = NotePreprocessor()
    stay = [{"stay_id": "s", "time": 0.5,
             "text": " ".join(f"alpha{i}" for i in range(300))},
            {"stay_id": "s", "time": 1.0,
             "text": " ".join(f"beta{i}" for i in range(300))}]
    words = notes.collect_words(stay)
    checks["last 512 of 600 words"] = (
        len(words) == 512 and words[0] == "alpha88" and words[-1] == "beta299")
    cleaned = notes.clean_words("Patient may be dying; family aware of death risk.")
    checks["outcome words removed"] = (
        "dying" not in cleaned and "death" not in cleaned and "family" in cleaned)

    vitals = VitalsPreprocessor(TABLE)
    one_hertz = [("heart rate", s / 3600.0, s / 3600.0) for s in range(86400)]
    values, observed = vitals._binned(one_hertz)
    hr = TABLE.channel_names.index("heart rate")
    checks["1 Hz fills 480 bins"] = (
        observed[:, hr].sum() == 480.0
        and vitals.missing_fractions(one_hertz)["heart rate"] == 0.0)
    coverage = [(name, (b + 0.5) * 0.05, 1.0)
                for name in TABLE.channel_names for b in range(480)]
    sparse = VitalsPreprocessor(TABLE)
    sparse.fit([coverage])
    rows = [r for r in coverage if r[0] != "cvp"]
    rows += [("cvp", (b + 0.5) * 0.05, 8.0) for b in range(192)]  # 60% missing
    try:
        sparse.transform(rows, stay="s")
        checks["over-half-missing rejects"] = False
    except RecordRejectedError:
        checks["over-half-missing rejects"] = True

    failed = [name for name, passed in checks.items() if not passed]
    _gate(11, "preprocessing-contract", not failed,
          f"{len(checks) - len(failed)}/{len(checks)} documented examples hold"
          + (f"; failed: {failed}" if failed else ""))
