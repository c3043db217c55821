"""Training-engine tests: loss, optimizer, schedule, the training loop."""

import math
import weakref

import numpy as np
import pytest

from icuxai import autodiff as ad
from icuxai import training as training_module
from icuxai.attribution import integrated_gradients
from icuxai.autodiff import NonFiniteError, Tape
from icuxai.model import ModelConfig, TriModalNet
from icuxai.records import CLS_ID, PAD_ID, MultimodalDataset
from icuxai.training import (
    Adam,
    TrainConfig,
    clip_global_norm,
    cross_entropy,
    lr_schedule,
    train_model,
    upsample_positives,
    weighted_ce_from_logits,
)


# --- loss -----------------------------------------------------------------------

def test_cross_entropy_pinned_values():
    assert cross_entropy(1, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert cross_entropy(1, 0.5, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert cross_entropy(1, 0.5, 2.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert cross_entropy(0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)


def test_cross_entropy_clamps_instead_of_diverging():
    worst = -math.log(1e-12)
    assert cross_entropy(1, 0.0) == pytest.approx(worst, rel=1e-9)
    # the y=0 branch evaluates log(1 - p) after clamping p to 1 - 1e-12;
    # the subtraction cancels catastrophically, so only ~1e-4 relative
    # accuracy of the clamp floor is guaranteed — finiteness is the contract
    assert cross_entropy(0, 1.0) == pytest.approx(worst, rel=1e-3)


def test_tape_loss_agrees_with_scalar_cross_entropy():
    rng = np.random.default_rng(0)
    logits_arr = rng.normal(size=(8, 2)) * 2.0
    labels = rng.integers(0, 2, size=8)
    w = 2.5
    tape = Tape()
    loss = weighted_ce_from_logits(tape.leaf(logits_arr), labels, w)
    e = np.exp(logits_arr - logits_arr.max(axis=1, keepdims=True))
    p1 = (e / e.sum(axis=1, keepdims=True))[:, 1]
    want = np.mean([cross_entropy(int(y), p, w) for y, p in zip(labels, p1)])
    assert float(loss.data) == pytest.approx(want, rel=1e-9)


def test_tape_loss_is_finite_at_extreme_logits():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    tape = Tape()
    loss = weighted_ce_from_logits(tape.leaf(logits), np.array([0, 1]))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
    ad.backward(loss)  # gradients must exist and be finite
    assert np.all(np.isfinite(tape.grads[0]))


def test_tape_loss_gradient_matches_central_differences():
    labels = np.array([1, 0, 1])

    def f(x):
        return weighted_ce_from_logits(x, labels, 1.7)

    point = np.random.default_rng(1).normal(size=(3, 2))
    assert ad.grad_check(f, point, step=1e-5) < 1e-7


# --- optimizer -------------------------------------------------------------------

def make_store(values):
    from icuxai.blocks import ParamStore
    store = ParamStore()
    for k, v in values.items():
        store.add(k, v)
    return store


def test_adam_first_step_is_signed_learning_rate():
    store = make_store({"w": np.array([2.0, -3.0])})
    g = np.array([0.1, -0.2])
    Adam().step(store, {"w": g}, lr=0.01)
    # first bias-corrected step is lr * g / (|g| + eps) = lr * sign(g) up to eps
    np.testing.assert_allclose(store["w"], [2.0 - 0.01, -3.0 + 0.01], rtol=1e-6)


def test_adam_zero_gradient_means_zero_update():
    store = make_store({"w": np.array([1.0, 2.0])})
    Adam().step(store, {"w": np.zeros(2)}, lr=0.5)
    np.testing.assert_array_equal(store["w"], [1.0, 2.0])


def test_adam_skips_parameters_without_gradients():
    store = make_store({"w": np.array([1.0]), "frozen": np.array([5.0])})
    Adam().step(store, {"w": np.array([1.0])}, lr=0.1)
    assert store["frozen"][0] == 5.0
    assert store["w"][0] != 1.0


def test_adam_rejects_non_finite_gradients():
    store = make_store({"w": np.array([1.0])})
    with pytest.raises(NonFiniteError, match="non-finite gradient for parameter 'w'"):
        Adam().step(store, {"w": np.array([np.inf])}, lr=0.1)


def test_adam_failed_step_changes_nothing():
    store = make_store({"a": np.array([1.0]), "b": np.array([2.0])})
    opt = Adam()
    opt.step(store, {"a": np.array([0.3]), "b": np.array([-0.2])}, lr=0.1)
    snapshot = [{k: d[k].copy() for k in ("a", "b")} for d in (store, opt.m, opt.v)]
    with pytest.raises(NonFiniteError, match="parameter 'b'"):
        opt.step(store, {"a": np.array([0.5]), "b": np.array([np.inf])}, lr=0.1)
    assert opt.t == 1
    for was, now in zip(snapshot, (store, opt.m, opt.v)):
        for k in ("a", "b"):
            np.testing.assert_array_equal(now[k], was[k])


def test_adam_trajectories_are_deterministic():
    runs = []
    for _ in range(2):
        store = make_store({"w": np.array([0.3, -0.7])})
        opt = Adam()
        rng = np.random.default_rng(7)
        for _ in range(5):
            opt.step(store, {"w": rng.normal(size=2)}, lr=0.05)
        runs.append(store["w"].copy())
    np.testing.assert_array_equal(runs[0], runs[1])


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == 5.0
    np.testing.assert_allclose(clipped["a"], [0.6])
    np.testing.assert_allclose(clipped["b"], [0.8])
    small = {"a": np.array([0.3])}
    same, norm2 = clip_global_norm(small, 1.0)
    assert norm2 == pytest.approx(0.3)
    np.testing.assert_array_equal(same["a"], [0.3])


def test_lr_schedule_decays_every_ten_epochs():
    assert lr_schedule(1e-3, 0) == 1e-3
    assert lr_schedule(1e-3, 9) == 1e-3
    assert lr_schedule(1e-3, 10) == pytest.approx(0.98e-3)
    assert lr_schedule(1e-3, 25) == pytest.approx(0.9604e-3)
    with pytest.raises(ValueError):
        lr_schedule(1e-3, -1)


# --- rebalancing ---------------------------------------------------------------------

def test_upsample_reaches_class_parity():
    labels = np.array([1] * 364 + [0] * 3183)
    idx = upsample_positives(labels, np.random.default_rng(0))
    assert idx.size == 2 * 3183
    assert int(np.sum(labels[idx] == 1)) == 3183
    assert int(np.sum(labels[idx] == 0)) == 3183
    assert set(idx) == set(range(labels.size))  # every original survives


def test_upsample_balanced_input_is_unchanged_as_multiset():
    labels = np.array([1, 0, 1, 0])
    idx = upsample_positives(labels, np.random.default_rng(0))
    assert sorted(idx.tolist()) == [0, 1, 2, 3]


def test_upsample_is_seed_deterministic():
    labels = np.array([1, 0, 0, 0, 1, 0])
    a = upsample_positives(labels, np.random.default_rng(5))
    b = upsample_positives(labels, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_upsample_without_positives_is_an_error():
    with pytest.raises(ValueError, match="no positive"):
        upsample_positives(np.zeros(4, dtype=int), np.random.default_rng(0))


# --- end-to-end training -----------------------------------------------------------------

TINY = dict(width=8, heads=2, ffn_width=16, dropout=0.0,
            event_blocks=1, note_blocks=1, vitals_blocks=1,
            event_hours=4, event_dim=5, note_len=6, vocab_size=20,
            vitals_steps=6, vitals_channels=3, fusion_hidden=8)


def separable_dataset(n=50, seed=0, planted=3.0):
    """Half positive, half negative; positives carry an obvious bump in
    events feature 2 so a tiny model can overfit quickly."""
    rng = np.random.default_rng(seed)
    labels = np.array([1, 0] * (n // 2), dtype=np.int64)
    events = rng.normal(size=(n, 4, 5)) * 0.3
    events[labels == 1, :, 2] += planted
    notes = np.full((n, 6), PAD_ID, dtype=np.int64)
    notes[:, 0] = CLS_ID
    notes[:, 1:3] = rng.integers(3, 20, size=(n, 2))
    vitals = rng.normal(size=(n, 6, 3)) * 0.3
    return MultimodalDataset(events=events, events_mask=np.ones_like(events),
                             notes=notes, vitals=vitals, labels=labels,
                             ids=[f"r{i}" for i in range(n)])


def test_training_loss_drops_ninety_percent_on_separable_data():
    ds = separable_dataset()
    model = TriModalNet(ModelConfig(**TINY, seed=0))
    config = TrainConfig(batch_size=50, learning_rate=0.01, epochs=200,
                         upsample=False, dropout=0.0, seed=0)
    result = train_model(model, ds, config)
    first, last = result.history[0]["loss"], result.history[-1]["loss"]
    assert len(result.history) == 200
    assert last <= 0.1 * first, f"loss only went {first:.4f} -> {last:.4f}"


@pytest.mark.parametrize("logged", [False, True])
def test_empty_training_index_is_an_error_before_the_first_epoch(logged):
    events = []
    model = TriModalNet(ModelConfig(**TINY))
    config = TrainConfig(epochs=2, upsample=False)
    with pytest.raises(ValueError, match="at least one training record"):
        train_model(model, separable_dataset(n=10), config, train_idx=[],
                    log_fn=events.append if logged else None)
    assert events == []


def test_early_stopping_restores_the_best_weights():
    ds = separable_dataset(n=40, seed=1)
    model = TriModalNet(ModelConfig(**TINY, seed=1))
    # learning rate so small that validation AUC cannot improve after
    # the first epoch: patience must trigger and training must stop early
    config = TrainConfig(batch_size=40, learning_rate=1e-12, epochs=80,
                         upsample=False, patience=2, seed=0)
    fit_idx = np.arange(0, 30)
    val_idx = np.arange(30, 40)
    result = train_model(model, ds, config, fit_idx, val_idx)
    assert result.stopped_early
    assert len(result.history) < 80
    assert result.best_val_auc is not None
    from icuxai.metrics import auc_roc
    probs = model.predict_proba(ds.events[val_idx], ds.notes[val_idx],
                                ds.vitals[val_idx])
    assert auc_roc(ds.labels[val_idx], probs[:, 1]) == pytest.approx(
        result.best_val_auc, abs=1e-12)


def test_training_only_touches_active_modalities():
    ds = separable_dataset(n=20, seed=2)
    model = TriModalNet(ModelConfig(**TINY, seed=2))
    before = model.params.snapshot()
    config = TrainConfig(batch_size=10, learning_rate=0.01, epochs=2,
                         upsample=False, seed=0)
    train_model(model, ds, config, active=("events",))
    changed = {n for n in model.params.names()
               if not np.array_equal(model.params[n], before[n])}
    assert any(n.startswith("events.") for n in changed)
    assert not any(n.startswith(("notes.", "vitals.")) for n in changed)


def test_training_is_seed_deterministic():
    outs = []
    for _ in range(2):
        ds = separable_dataset(n=20, seed=3)
        model = TriModalNet(ModelConfig(**TINY, seed=3))
        config = TrainConfig(batch_size=8, learning_rate=0.01, epochs=3,
                             dropout=0.2, seed=11)
        train_model(model, ds, config)
        outs.append(model.predict_proba(ds.events, ds.notes, ds.vitals))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError, match="class_weight"):
        TrainConfig(class_weight=0.0)


def test_clip_norm_must_be_non_negative_and_zero_turns_clipping_off():
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="clip_norm must be non-negative"):
            TrainConfig(clip_norm=bad)
    assert TrainConfig(clip_norm=0.0).clip_norm == 0.0
    grads = {"w": np.array([3.0, 4.0])}
    kept, norm = clip_global_norm(grads, 0.0)
    assert norm == 5.0 and kept["w"].tolist() == [3.0, 4.0]


# --- tape lifetime and per-epoch figures ----------------------------------------------

def _watch_recording_tapes(monkeypatch, others: int = 0) -> list:
    """Wrap ``TriModalNet.forward``: when a forward on a recording tape
    starts, before it records its first node, at most ``others`` earlier
    forwards' recording tapes may still be alive (the passes running
    beside it on other threads). Returns the weak references."""
    seen = []
    real_forward = TriModalNet.forward

    def forward(self, ctx, *args, **kwargs):
        if ctx.tape.record:
            alive = sum(ref() is not None for ref in seen)
            assert alive <= others, f"{alive} earlier recording tape(s) still alive"
            seen.append(weakref.ref(ctx.tape))
        return real_forward(self, ctx, *args, **kwargs)

    monkeypatch.setattr(TriModalNet, "forward", forward)
    return seen


def test_each_training_step_frees_its_tape_before_the_next_forward(monkeypatch):
    seen = _watch_recording_tapes(monkeypatch)
    ds = separable_dataset(n=20, seed=6)
    model = TriModalNet(ModelConfig(**dict(TINY, dropout=0.2), seed=6))
    config = TrainConfig(batch_size=4, learning_rate=0.01, epochs=2,
                         upsample=False, seed=0)
    train_model(model, ds, config, np.arange(14), np.arange(14, 20))
    assert len(seen) == 2 * 4  # ceil(14 / 4) steps per epoch


def _ig_pass_tapes(monkeypatch, pin_threads, cpus: int, budget_rows: int) -> list:
    """The recording tapes integrated gradients makes for two records at
    7 steps, on at most ``cpus`` threads, with a byte budget of
    ``budget_rows`` replay rows; each pass must free its tape before its
    thread's next pass records."""
    ds = separable_dataset(n=4, seed=7)
    model = TriModalNet(ModelConfig(**TINY, seed=7))
    rec = ds.record(0)
    fixed, per_row = model.pass_bytes("replay", rec.events.values[None],
                                      rec.notes.ids[None], rec.vitals.values[None])
    monkeypatch.setattr("icuxai.model.PASS_BYTES", fixed + budget_rows * per_row)
    pin_threads(cpus)
    seen = _watch_recording_tapes(monkeypatch, others=cpus - 1)
    integrated_gradients(model, [ds.record(0), ds.record(1)], steps=7)
    return seen


def test_each_ig_pass_frees_its_tape_before_the_next_forward(monkeypatch, pin_threads):
    seen = _ig_pass_tapes(monkeypatch, pin_threads, cpus=1, budget_rows=3)
    assert len(seen) == 2 * 3  # per record, alphas in passes of 3, 3 and 1


def test_ig_passes_on_two_threads_hold_at_most_two_tapes(monkeypatch, pin_threads):
    # two passes in flight split a budget of 6 rows: passes of 3, 3 and 1
    seen = _ig_pass_tapes(monkeypatch, pin_threads, cpus=2, budget_rows=6)
    assert len(seen) == 2 * 3


def test_epoch_event_reports_wall_time_throughput_and_pre_clip_grad_norms(monkeypatch):
    norms = []
    real_clip = training_module.clip_global_norm

    def recording_clip(grads, max_norm):
        out = real_clip(grads, max_norm)
        norms.append(out[1])
        return out

    monkeypatch.setattr(training_module, "clip_global_norm", recording_clip)
    ds = separable_dataset(n=20, seed=5)
    model = TriModalNet(ModelConfig(**TINY, seed=5))
    config = TrainConfig(batch_size=8, learning_rate=0.01, epochs=2,
                         upsample=False, clip_norm=1e-3, seed=0)
    events = []
    result = train_model(model, ds, config, np.arange(14), np.arange(14, 20),
                         log_fn=events.append)
    assert len(norms) == 2 * 2 and len(events) == len(result.history) == 2
    for event, entry, step_norms in zip(events, result.history,
                                        (norms[:2], norms[2:])):
        # the history entry is unchanged; the event adds the new figures
        assert set(entry) == {"epoch", "loss", "lr", "val_auc"}
        assert event == {"event": "epoch", **entry, "wall_s": event["wall_s"],
                         "records_per_s": event["records_per_s"],
                         "grad_norm_max": max(step_norms),
                         "grad_norm_mean": math.fsum(step_norms) / 2}
        assert event["grad_norm_max"] > config.clip_norm  # taken before clipping
        assert event["wall_s"] > 0.0
        assert event["records_per_s"] >= 14 / event["wall_s"]

