"""Attribution methods: additive decompositions, baselines, aggregation.

The decisive checks are hand-computed oracles: gradient x input on a
linear map, the epsilon rule worked out on paper for a two-layer net,
midpoint-rule completeness on a quadratic, and exactness properties
(pad positions, structurally dead features) that must hold to the bit.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from icuxai import attribution
from icuxai import autodiff as ad
from icuxai.autodiff import NonFiniteError, Tape
from icuxai.attribution import (
    CSV_HEADER,
    EXPLAINER_KINDS,
    AttributionReport,
    Explainer,
    aggregate_feature_attributions,
    attention_last,
    attention_rollout,
    conservation_residual,
    epsilon_lrp,
    explain,
    gi_attribute,
    integrated_gradients,
    make_explainer,
    midpoint_alphas,
    random_attribution,
    relevance_propagate,
    rollout_matrix,
)
from icuxai.blocks import Context, FrozenState
from icuxai.model import ModelConfig, TriModalNet
from icuxai.records import CLS_ID, PAD_ID, EventSequence, MultimodalRecord, NoteTokens, VitalSigns

SMALL = {
    "width": 8, "heads": 2, "ffn_width": 16, "dropout": 0.1,
    "event_blocks": 1, "note_blocks": 1, "vitals_blocks": 1,
    "event_hours": 4, "event_dim": 5, "note_len": 8, "vocab_size": 20,
    "vitals_steps": 6, "vitals_channels": 3, "fusion_hidden": 8, "seed": 1,
}


def small_model(bias_free=False, seed=1):
    cfg = dict(SMALL, bias_free=bias_free, seed=seed)
    return TriModalNet(ModelConfig.from_dict(cfg))


def make_record(seed=0, rid=None, n_words=4):
    rng = np.random.default_rng(seed)
    events = rng.normal(size=(4, 5))
    ids = np.full(8, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    ids[1:1 + n_words] = rng.integers(3, 20, size=n_words)
    vitals = rng.normal(size=(6, 3))
    return MultimodalRecord(
        record_id=rid or f"rec-{seed}",
        label=int(rng.integers(0, 2)),
        events=EventSequence(events, np.ones_like(events)),
        notes=NoteTokens(ids),
        vitals=VitalSigns(vitals),
    )


@pytest.fixture(scope="module")
def model():
    return small_model()


@pytest.fixture(scope="module")
def free_model():
    return small_model(bias_free=True, seed=2)


# --- gradient x input ----------------------------------------------------------------

def test_gradient_input_on_linear_map_by_hand():
    # y = w . x with w=[2,-1], x=[1,4]: attribution x*grad = [2,-4], summing to y
    tape = Tape()
    x = tape.leaf([1.0, 4.0])
    w = tape.leaf([2.0, -1.0])
    y = ad.sum_over_axis(ad.mul(x, w))
    ad.backward(y)
    r = x.data * x.grad
    assert r.tolist() == [2.0, -4.0]
    assert float(np.sum(r)) == float(y.data) == -2.0


def test_gi_report_shape_and_target(model):
    rec = make_record(3)
    rep = gi_attribute(model, rec, target_class=1)
    assert rep.events.shape == (4, 5)
    assert rep.notes.shape == (8,)
    assert rep.vitals.shape == (6, 3)
    assert rep.explainer == "lrptrans"
    assert rep.target_kind == "logit"
    # attribution mode does not change forward values, so the explained
    # logit equals the plain prediction
    ctx = Context(tape=Tape(), params=model.params)
    logits = model.forward(ctx, rec.events.values[None], rec.notes.ids[None],
                           rec.vitals.values[None])
    assert rep.target_value == float(logits.data[0, 1])


def test_gi_modality_sums_are_element_sums(model):
    rep = gi_attribute(model, make_record(4))
    sums = rep.modality_sums()
    assert sums["events"] == float(np.sum(rep.events))
    assert sums["notes"] == float(np.sum(rep.notes))
    assert sums["vitals"] == float(np.sum(rep.vitals))
    assert conservation_residual(rep) == rep.target_value - rep.total


def test_gi_rejects_bad_inputs(model):
    rec = make_record(5)
    with pytest.raises(ValueError):
        gi_attribute(model, rec, target_class=2)
    with pytest.raises(ValueError):
        gi_attribute(model, rec, mode="fancy")


def test_bias_free_gi_attributions_sum_to_logit(free_model):
    for seed in range(5):
        rep = gi_attribute(free_model, make_record(seed), target_class=seed % 2)
        tol = 1e-6 * max(1.0, abs(rep.target_value))
        assert abs(rep.conservation_residual) < tol


def test_token_attribution_is_embedding_row_sum(model):
    rec = make_record(6)
    ctx = Context(tape=Tape(), params=model.params, mode="attribution")
    logits = model.forward(ctx, rec.events.values[None], rec.notes.ids[None],
                           rec.vitals.values[None])
    ad.backward(ad.slice_(logits, (0, 1)))
    probe = ctx.probes["notes"]
    expected = (probe.data * probe.grad)[0].sum(axis=-1)
    rep = gi_attribute(model, rec)
    assert rep.notes.tolist() == expected.tolist()


def test_zero_events_and_vitals_get_zero_attribution(model):
    rec = make_record(7)
    rec = MultimodalRecord(
        record_id=rec.record_id, label=rec.label,
        events=EventSequence(np.zeros((4, 5)), np.ones((4, 5))),
        notes=rec.notes,
        vitals=VitalSigns(np.zeros((6, 3))))
    rep = gi_attribute(model, rec)
    assert np.all(rep.events == 0.0)
    assert np.all(rep.vitals == 0.0)


def test_pad_positions_get_exactly_zero_attribution(model):
    rec = make_record(8, n_words=3)  # positions 4..7 are [PAD]
    pads = rec.notes.ids == PAD_ID
    assert pads.sum() == 4
    for rep in (gi_attribute(model, rec),
                gi_attribute(model, rec, mode="standard"),
                integrated_gradients(model, rec, steps=3),
                epsilon_lrp(model, rec)):
        assert np.all(rep.notes[pads] == 0.0), rep.explainer


def test_gi_is_deterministic(model):
    a = gi_attribute(model, make_record(9))
    b = gi_attribute(model, make_record(9))
    assert a.events.tolist() == b.events.tolist()
    assert a.notes.tolist() == b.notes.tolist()
    assert a.vitals.tolist() == b.vitals.tolist()


def test_scaling_output_layer_scales_attributions(model):
    rec = make_record(10)
    base = gi_attribute(model, rec)
    snap = model.params.snapshot()
    try:
        model.params["fusion.out.w"] = model.params["fusion.out.w"] * 3.0
        scaled = gi_attribute(model, rec)
    finally:
        model.params.restore(snap)
    np.testing.assert_allclose(scaled.events, 3.0 * base.events, rtol=1e-12)
    np.testing.assert_allclose(scaled.vitals, 3.0 * base.vitals, rtol=1e-12)
    order = np.argsort(-np.abs(base.events), axis=None, kind="stable")
    order_scaled = np.argsort(-np.abs(scaled.events), axis=None, kind="stable")
    assert order.tolist() == order_scaled.tolist()


def test_structurally_dead_feature_gets_exactly_zero(model):
    rec = make_record(11)
    snap = model.params.snapshot()
    try:
        w = model.params["events.in_proj.w"].copy()
        w[2, :] = 0.0  # the encoder can no longer see event feature 2
        model.params["events.in_proj.w"] = w
        for rep in (gi_attribute(model, rec),
                    integrated_gradients(model, rec, steps=4),
                    epsilon_lrp(model, rec)):
            assert np.all(rep.events[:, 2] == 0.0), rep.explainer
    finally:
        model.params.restore(snap)


def test_attribution_mode_residual_beats_standard_gradient():
    # on the default (biased) configuration the intercepts start at zero,
    # so the deterministic-mixing decomposition is near-exact, while the
    # plain gradient still carries softmax and variance curvature
    model = small_model(seed=5)
    res_attr, res_std = [], []
    for seed in range(40):
        rec = make_record(seed + 100)
        res_attr.append(abs(gi_attribute(model, rec).conservation_residual))
        res_std.append(abs(gi_attribute(model, rec, mode="standard").conservation_residual))
    assert np.median(res_attr) <= np.median(res_std)
    assert np.median(res_std) > 1e-6  # the comparison is not vacuous


# --- integrated gradients ------------------------------------------------------------

def test_midpoint_alphas_values_and_mean():
    np.testing.assert_allclose(midpoint_alphas(3), [1 / 6, 0.5, 5 / 6], rtol=0, atol=0)
    for steps in range(1, 9):
        a = midpoint_alphas(steps)
        assert a.shape == (steps,)
        assert np.all((a > 0) & (a < 1))
        assert math.fsum(a) / steps == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        midpoint_alphas(0)


@pytest.mark.parametrize("steps", [2.7, 2.0, True, "3", 0, -1])
def test_ig_refuses_a_step_count_that_is_not_an_integer_of_at_least_one(model, steps):
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        midpoint_alphas(steps)
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        explain("integrated-gradients", model, make_record(3), steps=steps)


def test_ig_takes_a_numpy_integer_step_count(model):
    rec = make_record(3)
    np.testing.assert_array_equal(midpoint_alphas(np.int64(3)), midpoint_alphas(3))
    a = explain("integrated-gradients", model, rec, steps=np.int64(3))
    b = explain("integrated-gradients", model, rec, steps=3)
    np.testing.assert_array_equal(a.vitals, b.vitals)


def test_midpoint_rule_is_complete_on_quadratic():
    # f(x) = x^2 at x=3: gradients 2*alpha*x average to x, so the
    # attribution x * mean(grad) recovers f exactly with any step count
    x0 = 3.0
    for steps in (1, 3, 5):
        grads = []
        for alpha in midpoint_alphas(steps):
            tape = Tape()
            x = tape.leaf([x0 * alpha])
            y = ad.sum_over_axis(ad.mul(x, x))
            ad.backward(y)
            grads.append(x.grad[0])
        r = x0 * (math.fsum(grads) / steps)
        assert r == pytest.approx(9.0, rel=1e-12)


def test_path_integral_equals_gradient_input_on_linear_map():
    w = np.array([2.0, -1.0, 0.5])
    x0 = np.array([1.0, 4.0, -2.0])
    for steps in (1, 4, 20):
        acc = np.zeros(3)
        for alpha in midpoint_alphas(steps):
            tape = Tape()
            x = tape.leaf(x0 * alpha)
            y = ad.sum_over_axis(ad.mul(x, tape.leaf(w)))
            ad.backward(y)
            acc += x.grad
        np.testing.assert_allclose(x0 * acc / steps, w * x0, rtol=1e-12)


def test_ig_single_step_is_midpoint_gradient(model):
    rec = make_record(12)
    rep = integrated_gradients(model, rec, steps=1)
    frozen = FrozenState()
    base = Context(tape=Tape(), params=model.params, mode="attribution",
                   frozen=frozen)
    model.forward(base, rec.events.values[None], rec.notes.ids[None],
                  rec.vitals.values[None])
    ctx = Context(tape=Tape(), params=model.params, mode="attribution",
                  frozen=frozen.replay(), input_scale=0.5)
    logits = model.forward(ctx, rec.events.values[None], rec.notes.ids[None],
                           rec.vitals.values[None])
    ad.backward(ad.slice_(logits, (0, 1)))
    want_events = base.probes["events"].data[0] * ctx.probes["events"].grad[0]
    np.testing.assert_allclose(rep.events, want_events, rtol=1e-12)


def test_ig_report_is_finite_and_deterministic(model):
    rec = make_record(13)
    a = integrated_gradients(model, rec, steps=5)
    b = integrated_gradients(model, rec, steps=5)
    assert a.events.tolist() == b.events.tolist()
    assert np.all(np.isfinite(a.notes))
    with pytest.raises(ValueError):
        integrated_gradients(model, rec, steps=0)


def _ig_one_alpha_per_tape(model, rec, steps, target_class=1):
    """Reference IG: the endpoint pass, then one batch-1 replay per alpha."""
    arrays = (rec.events.values[None], rec.notes.ids[None], rec.vitals.values[None])
    frozen = FrozenState()
    end = Context(tape=Tape(), params=model.params, mode="attribution",
                  frozen=frozen)
    model.forward(end, *arrays)
    acc = {}
    for alpha in midpoint_alphas(steps):
        ctx = Context(tape=Tape(), params=model.params, mode="attribution",
                      frozen=frozen.replay(), input_scale=float(alpha))
        logits = model.forward(ctx, *arrays)
        ad.backward(ad.slice_(logits, (0, target_class)))
        for m in ("events", "notes", "vitals"):
            g = ctx.probes[m].grad
            acc[m] = acc[m] + g if m in acc else g
    r = {m: end.probes[m].data[0] * (acc[m][0] / steps) for m in acc}
    return r["events"], r["notes"].sum(axis=-1), r["vitals"]


def _assert_close_relative(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


@pytest.mark.parametrize("bias_free", [False, True])
def test_batched_ig_matches_one_alpha_per_tape(model, free_model, bias_free):
    net = free_model if bias_free else model
    for seed in (21, 22):
        rec = make_record(seed)
        rep = integrated_gradients(net, rec, steps=20)
        for got, want in zip((rep.events, rep.notes, rep.vitals),
                             _ig_one_alpha_per_tape(net, rec, 20)):
            _assert_close_relative(got, want)


def _budget_for_rows(monkeypatch, net, kind, rows):
    """Shrink the pass byte budget until a ``kind`` pass of SMALL records
    takes ``rows`` rows."""
    from icuxai import model as model_module

    rec = make_record(0)
    fixed, per_row = net.pass_bytes(kind, rec.events.values[None],
                                    rec.notes.ids[None], rec.vitals.values[None])
    monkeypatch.setattr(model_module, "PASS_BYTES", fixed + rows * per_row)


def _ig_rows_per_forward(model, monkeypatch, rec, steps):
    """IG's report and the rows of every forward it ran (endpoint first)."""
    rows_per_pass = []
    real_forward = model.forward

    def counting_forward(ctx, events, *rest, **kw):
        rows_per_pass.append(np.asarray(events).shape[0])
        return real_forward(ctx, events, *rest, **kw)

    monkeypatch.setattr(model, "forward", counting_forward)
    rep = integrated_gradients(model, rec, steps=steps)
    monkeypatch.undo()
    return rep, rows_per_pass


def test_batched_ig_uneven_chunks_match_one_alpha_per_tape(model, monkeypatch,
                                                           pin_threads):
    rec = make_record(23)
    pin_threads(1)
    _budget_for_rows(monkeypatch, model, "replay", 3)
    rep, rows_per_pass = _ig_rows_per_forward(model, monkeypatch, rec, 7)
    assert rows_per_pass == [1, 3, 3, 1]  # endpoint, then alphas in chunks of 3
    for got, want in zip((rep.events, rep.notes, rep.vitals),
                         _ig_one_alpha_per_tape(model, rec, 7)):
        _assert_close_relative(got, want)


def test_batched_ig_uneven_chunks_on_two_threads_match_one_alpha_per_tape(
        model, monkeypatch, pin_threads):
    rec = make_record(23)
    pin_threads(2)
    _budget_for_rows(monkeypatch, model, "replay", 6)  # two passes of 3 in flight
    rep, rows_per_pass = _ig_rows_per_forward(model, monkeypatch, rec, 7)
    assert rows_per_pass[0] == 1 and sorted(rows_per_pass[1:]) == [1, 3, 3]
    for got, want in zip((rep.events, rep.notes, rep.vitals),
                         _ig_one_alpha_per_tape(model, rec, 7)):
        _assert_close_relative(got, want)


@pytest.mark.parametrize("rows", [1, 3])
def test_ig_on_two_threads_gives_the_bits_of_one_thread_at_equal_rows(
        model, monkeypatch, rows, pin_threads):
    rec = make_record(24)
    reports = []
    for cpus in (1, 2):
        pin_threads(cpus)
        _budget_for_rows(monkeypatch, model, "replay", cpus * rows)
        reports.append(integrated_gradients(model, rec, steps=20))
    one, two = reports
    for a, b in ((one.events, two.events), (one.notes, two.notes),
                 (one.vitals, two.vitals)):
        np.testing.assert_array_equal(a, b)


def test_one_row_ig_passes_equal_one_alpha_per_tape_bit_for_bit(model, monkeypatch,
                                                                pin_threads):
    rec = make_record(25)
    # more threads than this host has cores, switching often: a replay
    # cursor shared between passes would hand a pass another's maps
    pin_threads(4)
    _budget_for_rows(monkeypatch, model, "replay", 4)  # four passes of one row
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rep = integrated_gradients(model, rec, steps=20)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip((rep.events, rep.notes, rep.vitals),
                         _ig_one_alpha_per_tape(model, rec, 20)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("fail_at", [None, 4, 5], ids=["none", "caller", "worker"])
def test_ig_worker_threads_are_joined_and_pass_errors_surface(model, monkeypatch, fail_at,
                                                             pin_threads):
    rec = make_record(26)
    pin_threads(2)
    _budget_for_rows(monkeypatch, model, "replay", 2)  # 20 one-row passes
    real_pass = attribution._ig_pass
    threads = {}
    error = NonFiniteError("non-finite gradient at the notes input")

    def ig_pass(model, frozen, arrays, alphas, target_class):
        i = int(np.flatnonzero(midpoint_alphas(20) == alphas[0])[0])
        threads[i] = threading.current_thread()
        if i == fail_at:
            raise error
        return real_pass(model, frozen, arrays, alphas, target_class)

    monkeypatch.setattr(attribution, "_ig_pass", ig_pass)
    before = threading.active_count()
    if fail_at is not None:
        with pytest.raises(NonFiniteError) as caught:
            integrated_gradients(model, rec, steps=20)
        assert caught.value is error
    else:
        integrated_gradients(model, rec, steps=20)
    assert threading.active_count() == before
    # the calling thread runs the even passes, one pool thread the odd ones
    caller = threading.current_thread()
    assert {threads[i] is caller for i in threads} == {True, False}
    assert all((threads[i] is caller) == (i % 2 == 0) for i in threads)


@pytest.mark.parametrize("cpus,budget_rows,in_flight", [
    (4, 3, 3),  # four CPUs, three rows fit: three one-row passes at once
    (2, 1, 1),  # two CPUs, one row fits: one pass at a time
])
def test_ig_runs_no_more_rows_at_once_than_fit_the_budget(
        model, monkeypatch, cpus, budget_rows, in_flight, pin_threads):
    rec = make_record(27)
    pin_threads(cpus)
    _budget_for_rows(monkeypatch, model, "replay", budget_rows)
    real_pass = attribution._ig_pass
    lock = threading.Lock()
    rows = {"now": 0, "most": 0}

    def ig_pass(model, frozen, arrays, alphas, target_class):
        with lock:
            rows["now"] += alphas.size
            rows["most"] = max(rows["most"], rows["now"])
        time.sleep(0.01)  # keep the pass in flight while others start
        try:
            return real_pass(model, frozen, arrays, alphas, target_class)
        finally:
            with lock:
                rows["now"] -= alphas.size

    monkeypatch.setattr(attribution, "_ig_pass", ig_pass)
    integrated_gradients(model, rec, steps=20)
    assert rows["most"] == in_flight <= budget_rows


def test_kernels_on_integrated_gradients_runners_start_no_thread(
        model, monkeypatch, pin_threads):
    # IG with W = 2 runs its passes on the calling thread and one pool
    # thread; a map-sized kernel called on either of them stays there
    rec = make_record(28)
    pin_threads(2)
    _budget_for_rows(monkeypatch, model, "replay", 2)  # one-row passes, two at once
    q = np.random.default_rng(28).normal(size=(2, 2, 512, 8))  # an 8.4 MB map
    runs, seen = [], []
    real_in_order, real_pass = ad._in_order, attribution._ig_pass

    def in_order(fn, items, workers):
        runs.append(workers)
        return real_in_order(fn, items, workers)

    def ig_pass(*args):
        t = Tape(record=False)
        ad.attention_map(t.leaf(q), t.leaf(q))
        seen.append((threading.current_thread(), ad._threads(), threading.active_count()))
        return real_pass(*args)

    monkeypatch.setattr(ad, "_in_order", in_order)
    monkeypatch.setattr(attribution, "_ig_pass", ig_pass)
    before = threading.active_count()
    integrated_gradients(model, rec, steps=6)
    assert runs == [2]  # IG's own runner, and no kernel's
    assert len({thread for thread, _, _ in seen}) == 2
    assert all(w == 1 and threads <= before + 1 for _, w, threads in seen)
    # off the runners the same kernel splits
    t = Tape(record=False)
    ad.attention_map(t.leaf(q), t.leaf(q))
    assert runs == [2, 2]


@pytest.mark.parametrize("blas_threads,expected", [(1, 3), (2, 1), (None, 1)])
def test_ig_threads_only_when_blas_runs_one_thread(monkeypatch, blas_threads, expected):
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(ad, "_openblas_num_threads",
                        lambda: None if blas_threads is None else (lambda: blas_threads))
    assert ad._cpu_threads() == expected


@pytest.mark.parametrize("cpu_max,expected", [
    ("max 100000\n", 4), ("250000 100000\n", 2), ("50000 100000\n", 1), (None, 4)])
def test_usable_cpus_follow_the_affinity_mask_and_a_cgroup_quota(
        monkeypatch, tmp_path, cpu_max, expected):
    real_open = open
    quota = tmp_path / "cpu.max"
    if cpu_max is not None:
        quota.write_text(cpu_max)

    def fake_open(path, *args, **kwargs):
        if path == "/sys/fs/cgroup/cpu.max":
            path = quota  # missing when cpu_max is None: no cgroup v2 quota
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(ad, "open", fake_open, raising=False)
    assert ad._usable_cpus() == expected


# --- attention readouts --------------------------------------------------------------

def test_attention_last_matches_captured_map(model):
    rec = make_record(14)
    ctx = Context(tape=Tape(), params=model.params, capture={})
    logits = model.forward(ctx, rec.events.values[None], rec.notes.ids[None],
                           rec.vitals.values[None])
    rep = attention_last(model, rec)
    for modality, arr in (("events", rep.events), ("vitals", rep.vitals)):
        row = ctx.capture[modality][-1][0].mean(axis=0)[0]
        for d in range(arr.shape[1]):
            assert arr[:, d].tolist() == row.tolist()
    notes_row = ctx.capture["notes"][-1][0].mean(axis=0)[0]
    assert rep.notes.tolist() == notes_row.tolist()
    assert rep.target_value == float(logits.data[0, 1])


@pytest.mark.parametrize("explainer", [attention_last, attention_rollout,
                                       random_attribution])
def test_attention_and_random_reports_equal_ones_from_a_recording_forward(
        model, explainer, monkeypatch):
    from icuxai import attribution

    rec = make_record(15)
    seen = []
    monkeypatch.setattr(attribution, "Tape",
                        lambda record=True: seen.append(record) or Tape(record))
    built = explainer(model, rec)
    assert seen == [False]
    monkeypatch.setattr(attribution, "Tape", lambda record=True: Tape())
    recorded = explainer(model, rec)
    assert built.target_value == recorded.target_value
    for name in ("events", "notes", "vitals", "note_ids"):
        assert np.array_equal(getattr(built, name), getattr(recorded, name)), name


def test_rollout_with_identity_maps_is_identity():
    eye = np.broadcast_to(np.eye(5), (2, 5, 5)).copy()  # 2 heads
    out = rollout_matrix([eye, eye])
    np.testing.assert_allclose(out, np.eye(5), atol=0)


def test_rollout_rows_stay_stochastic():
    rng = np.random.default_rng(0)
    maps = []
    for _ in range(3):
        a = rng.random((4, 6, 6))
        maps.append(a / a.sum(axis=-1, keepdims=True))
    out = rollout_matrix(maps)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(6), rtol=1e-12)
    with pytest.raises(ValueError):
        rollout_matrix([])


def test_attention_rollout_report_matches_manual(model):
    rec = make_record(15)
    ctx = Context(tape=Tape(), params=model.params, capture={})
    model.forward(ctx, rec.events.values[None], rec.notes.ids[None],
                  rec.vitals.values[None])
    manual = rollout_matrix([p[0] for p in ctx.capture["notes"]])[0]
    rep = attention_rollout(model, rec)
    assert rep.notes.tolist() == manual.tolist()


# --- random control ------------------------------------------------------------------

def test_random_attribution_depends_only_on_seed_and_id(model):
    a = random_attribution(model, make_record(16, rid="stay-1"))
    b = random_attribution(model, make_record(16, rid="stay-1"))
    c = random_attribution(model, make_record(16, rid="stay-2"))
    d = random_attribution(model, make_record(16, rid="stay-1"), seed=7)
    assert a.events.tolist() == b.events.tolist()
    assert a.events.tolist() != c.events.tolist()
    assert a.events.tolist() != d.events.tolist()
    with pytest.raises(ValueError):
        random_attribution(model, make_record(16), seed=-1)


# --- epsilon-LRP ---------------------------------------------------------------------

def test_epsilon_rule_two_layer_network_by_hand():
    # y = relu(x @ W) @ u with x=[2,-1]; epsilon-rule shares worked out
    # on paper for eps=1e-6 (stabilizer added to each layer output)
    eps = 1e-6
    x0 = np.array([[2.0, -1.0]])
    w0 = np.array([[3.0, 1.0], [-2.0, 4.0]])
    u0 = np.array([[1.0], [1.0]])
    tape = Tape()
    x = tape.leaf(x0)
    h = ad.relu(ad.matmul(x, tape.leaf(w0)))
    y = ad.matmul(h, tape.leaf(u0))
    rel = relevance_propagate(ad.slice_(y, (0, 0)), {"x": x}, eps=eps)["x"]

    # by hand: z1 = [8, -2], h = [8, 0], y = 8
    s_out = 8.0 / (8.0 + eps)              # relevance share per unit of y
    r_h = np.array([8.0 * s_out, 0.0])     # relu layer keeps it
    s1 = np.array([r_h[0] / (8.0 + eps), 0.0 / (-2.0 - eps)])
    want = x0[0] * (s1 @ w0.T)
    np.testing.assert_allclose(rel[0], want, rtol=1e-12)
    # conservation up to the stabilizer leak
    assert float(rel.sum()) == pytest.approx(8.0, rel=1e-5)


@pytest.mark.parametrize("graph, message", [
    (lambda x: ad.sum_over_axis(ad.exp(x)), "exp"),
    (lambda x: ad.sum_over_axis(ad.mul(x, x)), "product"),
    (lambda x: ad.sum_over_axis(ad.div(x.tape.leaf([3.0, 4.0]), x)),
     "divisor"),
], ids=["exp", "product", "divisor"])
def test_epsilon_lrp_rejects_unsupported(graph, message):
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ValueError, match=message):
        relevance_propagate(graph(x), {"x": x})


def test_relevance_propagate_rejects_read_at_on_another_tape():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    y = ad.sum_over_axis(ad.mul(x, tape.leaf([3.0, 4.0])))
    other = Tape().leaf([5.0, 6.0])
    with pytest.raises(ad.TapeError):
        relevance_propagate(y, {"x": other})


def _layer_norm_graph(explicit):
    """An attribution-mode LayerNorm over ``x @ w`` with affine terms and a
    relu read-out; for ``explicit`` every broadcast operand (the mean, the
    detached denominator, gain and shift) goes through ``broadcast_to``."""
    rng = np.random.default_rng(9)
    tape = Tape()
    x = tape.leaf(rng.normal(size=(2, 3, 4)))
    h = ad.matmul(x, tape.leaf(rng.normal(size=(4, 6))))
    widen = (lambda t: ad.broadcast_to(t, h.shape)) if explicit else (lambda t: t)
    mu = ad.mean_over_axis(h, axis=-1, keepdims=True)
    centered = ad.sub(h, widen(mu))
    var = ad.mean_over_axis(ad.mul(centered, centered), axis=-1, keepdims=True)
    denom = ad.detach(ad.sqrt(ad.add(var, 1e-5)))
    out = ad.div(centered, widen(denom))
    out = ad.add(ad.mul(out, widen(tape.leaf(rng.uniform(0.5, 1.5, size=6)))),
                 widen(tape.leaf(rng.normal(size=6))))
    return tape, x, ad.sum_over_axis(ad.relu(out))


def test_relevance_through_broadcast_operands_matches_explicit_broadcast():
    # x - mu puts the (2, 3, 1) mean on the relevance path as a broadcast
    # operand; summing its share back in the sweep must give the same bits
    # as a recorded broadcast node
    tape, x, y = _layer_norm_graph(explicit=False)
    tape_e, x_e, y_e = _layer_norm_graph(explicit=True)
    assert "broadcast" not in {node.kind for node in tape.nodes}
    assert np.array_equal(y.data, y_e.data)
    rel = relevance_propagate(y, {"x": x}, eps=1e-6)["x"]
    assert np.array_equal(rel, relevance_propagate(y_e, {"x": x_e}, eps=1e-6)["x"])
    assert np.any(rel != 0.0)


def test_relevance_propagate_leaves_gradients_untouched():
    tape = Tape()
    x = tape.leaf([1.0, 2.0])
    y = ad.sum_over_axis(ad.mul(x, tape.leaf([3.0, 4.0])))
    rel = relevance_propagate(y, {"x": x}, eps=1e-12)["x"]
    np.testing.assert_allclose(rel, [3.0, 8.0], rtol=1e-12)
    assert all(g is None for g in tape.grads)


@pytest.mark.parametrize("bias_free", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_epsilon_lrp_tends_to_gradient_input(model, free_model, bias_free, seed):
    # Ancona et al. 2018: as eps -> 0 the epsilon rule moves relevance
    # exactly as the gradient does, so it reproduces gradient x input.
    # The gap is linear in eps, about eps / |z| for the smallest
    # stabilized |z| on the path; these records keep it under 6e-8.
    net = free_model if bias_free else model
    rec = make_record(seed)
    lrp = epsilon_lrp(net, rec, target_class=seed % 2, eps=1e-12)
    gi = gi_attribute(net, rec, target_class=seed % 2)
    scale = max(float(np.max(np.abs(a))) for a in (gi.events, gi.notes, gi.vitals))
    for got, want in ((lrp.events, gi.events), (lrp.notes, gi.notes),
                      (lrp.vitals, gi.vitals)):
        assert float(np.max(np.abs(got - want))) <= 1e-7 * scale


def test_epsilon_lrp_near_conservation_on_bias_free_model(free_model):
    rep = epsilon_lrp(free_model, make_record(17))
    tol = 5e-3 * max(1.0, abs(rep.target_value))
    assert abs(rep.conservation_residual) < tol


def test_epsilon_lrp_model_report_is_deterministic(model):
    a = epsilon_lrp(model, make_record(18))
    b = epsilon_lrp(model, make_record(18))
    assert a.events.tolist() == b.events.tolist()
    assert a.notes.tolist() == b.notes.tolist()
    with pytest.raises(ValueError):
        epsilon_lrp(model, make_record(18), eps=0.0)


# --- the uniform front end -----------------------------------------------------------

def test_all_kinds_produce_same_shaped_reports(model):
    rec = make_record(19)
    shapes = set()
    for kind in EXPLAINER_KINDS:
        rep = make_explainer(kind, model, steps=3).explain(rec)
        assert rep.explainer == kind
        shapes.add((rep.events.shape, rep.notes.shape, rep.vitals.shape))
        assert np.all(np.isfinite(rep.events))
    assert shapes == {((4, 5), (8,), (6, 3))}


def test_explain_dispatcher_matches_direct_call(model):
    rec = make_record(20)
    via_dispatch = explain("lrptrans", model, rec, target_class=0)
    direct = gi_attribute(model, rec, target_class=0)
    assert via_dispatch.events.tolist() == direct.events.tolist()
    with pytest.raises(ValueError, match="unknown explainer"):
        explain("shap", model, rec)


@pytest.mark.parametrize("kind, name, options, args, kwargs", [
    ("random", "random_attribution", {"seed": 4}, (4,), {}),
    ("attention-last", "attention_last", {}, (), {}),
    ("attention-rollout", "attention_rollout", {}, (), {}),
    ("integrated-gradients", "integrated_gradients", {"steps": 3}, (3,), {}),
    ("lrp-epsilon", "epsilon_lrp", {}, (), {}),
    ("lrptrans", "gi_attribute", {}, (), {"mode": "attribution"}),
])
def test_explainer_looks_its_function_up_when_called(monkeypatch, kind, name,
                                                     options, args, kwargs):
    """A wrapper installed on the module after import sees every call."""
    calls = []
    monkeypatch.setattr(attribution, name,
                        lambda *a, **k: calls.append((a, k)) or "report")
    assert Explainer(kind, "model", **options).explain("record", 0) == "report"
    assert calls == [(("model", "record", 0, *args), kwargs)]


def test_explainer_kinds_keep_their_order():
    assert EXPLAINER_KINDS == ("random", "attention-last", "attention-rollout",
                               "integrated-gradients", "lrp-epsilon", "lrptrans")


# --- cohorts -------------------------------------------------------------------------

DESK = {"width": 16, "heads": 2, "ffn_width": 32, "dropout": 0.1,
        "event_blocks": 1, "note_blocks": 1, "vitals_blocks": 1,
        "event_hours": 12, "event_dim": 10, "note_len": 24, "vocab_size": 60,
        "vitals_steps": 24, "vitals_channels": 6, "fusion_hidden": 16}


@pytest.fixture(scope="module")
def desk_cohort():
    from icuxai.synthetic import SyntheticSpec, generate_synthetic
    spec = SyntheticSpec(n_records=9, positive_rate=0.3, hours=12, event_dim=10,
                         note_len=24, vocab_size=60, vitals_steps=24,
                         vitals_channels=6)
    ds, _ = generate_synthetic(spec, seed=4)
    return [ds.record(i) for i in range(len(ds))]


def _assert_reports_match(cohort, singles, tol=1e-12):
    assert [r.record_id for r in cohort] == [r.record_id for r in singles]
    for got, want in zip(cohort, singles):
        assert (got.explainer, got.target_class) == (want.explainer, want.target_class)
        assert abs(got.target_value - want.target_value) <= tol
        assert got.note_ids.tolist() == want.note_ids.tolist()
        scale = max(float(np.max(np.abs(np.concatenate(
            [want.events.ravel(), want.notes, want.vitals.ravel()])))), 1e-300)
        for m in ("events", "notes", "vitals"):
            assert float(np.max(np.abs(getattr(got, m) - getattr(want, m)))) \
                <= tol * scale


@pytest.mark.parametrize("bias_free", [False, True])
@pytest.mark.parametrize("kind", EXPLAINER_KINDS)
def test_cohort_reports_match_per_record_reports(desk_cohort, kind, bias_free):
    net = TriModalNet(ModelConfig(**DESK, bias_free=bias_free, seed=5))
    explainer = make_explainer(kind, net, seed=3, steps=4)
    for target_class in (0, 1):
        singles = [explainer.explain(rec, target_class) for rec in desk_cohort]
        cohort = explainer.explain_cohort(desk_cohort, target_class)
        _assert_reports_match(cohort, singles)


def test_a_bare_record_and_a_cohort_of_one_give_the_same_bits(model):
    rec = make_record(24)
    for kind in EXPLAINER_KINDS:
        explainer = make_explainer(kind, model, steps=3)
        (one,) = explainer.explain_cohort([rec])
        bare = explainer.explain(rec)
        assert one.target_value == bare.target_value
        for m in ("events", "notes", "vitals"):
            assert np.array_equal(getattr(one, m), getattr(bare, m))


def test_empty_cohort_is_rejected(model):
    with pytest.raises(ValueError, match="no records"):
        make_explainer("lrptrans", model).explain_cohort([])


def test_shuffled_cohort_keeps_each_random_control(model):
    records = [make_record(30 + i, rid=f"stay-{i}") for i in range(6)]
    explainer = make_explainer("random", model, seed=9)
    by_id = {r.record_id: r for r in explainer.explain_cohort(records)}
    order = np.random.default_rng(0).permutation(len(records))
    shuffled = explainer.explain_cohort([records[i] for i in order])
    assert [r.record_id for r in shuffled] == [records[i].record_id for i in order]
    for rep in shuffled:
        for m in ("events", "notes", "vitals"):
            assert np.array_equal(getattr(rep, m), getattr(by_id[rep.record_id], m))


def _rows_per_pass(monkeypatch, net):
    rows = []
    real_forward = net.forward

    def counting_forward(ctx, events, *rest, **kw):
        rows.append(np.asarray(events).shape[0])
        return real_forward(ctx, events, *rest, **kw)

    monkeypatch.setattr(net, "forward", counting_forward)
    return rows


@pytest.mark.parametrize("kind", ["lrptrans", "lrp-epsilon"])
def test_cohort_over_the_pass_caps_runs_as_several_recording_passes(model,
                                                                    monkeypatch, kind):
    records = [make_record(40 + i) for i in range(7)]
    explainer = make_explainer(kind, model)
    singles = [explainer.explain(rec) for rec in records]
    _budget_for_rows(monkeypatch, model, "recording", 3)
    rows = _rows_per_pass(monkeypatch, model)
    cohort = explainer.explain_cohort(records)
    monkeypatch.undo()
    assert rows == [3, 3, 1]
    _assert_reports_match(cohort, singles)


@pytest.mark.parametrize("kind", ["random", "attention-last", "attention-rollout"])
def test_cohort_over_the_byte_cap_runs_as_several_inference_passes(model, monkeypatch,
                                                                   kind):
    from icuxai import model as model_module

    records = [make_record(50 + i) for i in range(5)]
    explainer = make_explainer(kind, model)
    singles = [explainer.explain(rec) for rec in records]
    # one float64 (heads, L, L) map a row: the longest sequence's, or every
    # encoder block's when the pass captures them
    squares = [SMALL[k] ** 2 for k in ("event_hours", "note_len", "vitals_steps")]
    row_bytes = SMALL["heads"] * 8 * (max(squares) if kind == "random" else sum(squares))
    monkeypatch.setattr(model_module, "PASS_BYTES", 2 * row_bytes)
    rows = _rows_per_pass(monkeypatch, model)
    cohort = explainer.explain_cohort(records)
    monkeypatch.undo()
    assert rows == [2, 2, 1]
    _assert_reports_match(cohort, singles)


# --- report rows ---------------------------------------------------------------------

def test_report_csv_rows_cover_every_element(model):
    rep = gi_attribute(model, make_record(22))
    rows = rep.csv_rows()
    assert len(rows) == 4 * 5 + 8 + 6 * 3
    assert len(CSV_HEADER) == len(rows[0]) == 4
    assert rows[0] == ("events", 0, 0, float(rep.events[0, 0]))
    note_rows = [r for r in rows if r[0] == "notes"]
    assert note_rows[0][1] == CLS_ID and note_rows[0][2] == 0


def test_report_validates_shapes():
    with pytest.raises(ValueError):
        AttributionReport("r", "random", 1, 0.0, np.zeros((2, 2)),
                          np.zeros(3), np.zeros((2, 2)), np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        AttributionReport("r", "random", 3, 0.0, np.zeros((2, 2)),
                          np.zeros(3), np.zeros((2, 2)), np.zeros(3, dtype=np.int64))


# --- aggregation ---------------------------------------------------------------------

def test_aggregate_single_report_reproduces_it(model):
    rep = gi_attribute(model, make_record(23))
    table = aggregate_feature_attributions([rep], min_token_count=1)
    by_name = dict((name, mean) for name, mean, _ in table["events"])
    for d in range(5):
        assert by_name[f"event_{d}"] == pytest.approx(float(rep.events[:, d].sum()))
    means = [mean for _, mean, _ in table["events"]]
    assert means == sorted(means, reverse=True)
    # [CLS] and [PAD] never appear in the token table
    names = {name for name, _, _ in table["notes"]}
    assert f"token_{PAD_ID}" not in names and f"token_{CLS_ID}" not in names


def test_aggregate_min_token_count_filters(model):
    ids_a = np.array([CLS_ID, 5, 6, PAD_ID], dtype=np.int64)
    ids_b = np.array([CLS_ID, 5, PAD_ID, PAD_ID], dtype=np.int64)
    reps = []
    for rid, ids in (("a", ids_a), ("b", ids_b)):
        reps.append(AttributionReport(
            record_id=rid, explainer="random", target_class=1, target_value=0.0,
            events=np.zeros((2, 2)), notes=np.arange(4, dtype=float),
            vitals=np.zeros((2, 2)), note_ids=ids))
    table = aggregate_feature_attributions(reps, min_token_count=2,
                                           vocab={"fever": 5, "stable": 6})
    names = [name for name, _, _ in table["notes"]]
    assert names == ["fever"]          # token 6 appears once and is dropped
    _, mean, count = table["notes"][0]
    assert count == 2 and mean == pytest.approx(1.0)  # positions 1 and 1


def test_aggregate_rejects_empty_cohort():
    with pytest.raises(ValueError):
        aggregate_feature_attributions([])
