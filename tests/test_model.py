"""Tri-modal model tests: shapes, invariances, ablation, persistence.

The pinned "fixture vectors" (zero events, zero vitals, [CLS]-only note,
default config, seed 0) are regression anchors: they were computed once
from a fresh implementation and guard against silent drift in
initialization order or encoder wiring.
"""

import numpy as np
import pytest

from icuxai import autodiff as ad
from icuxai import fileio
from icuxai.autodiff import Tape
from icuxai.blocks import Context, FrozenState
from icuxai.errors import CheckpointError, SchemaError
from icuxai.model import (
    ModelConfig,
    TriModalNet,
    load_checkpoint,
    model_config_for,
    save_checkpoint,
    softmax_probabilities,
)
from icuxai.records import CLS_ID, PAD_ID, MultimodalDataset

SMALL = dict(width=8, heads=2, ffn_width=16, dropout=0.0,
             event_blocks=1, note_blocks=1, vitals_blocks=1,
             event_hours=4, event_dim=5, note_len=8, vocab_size=20,
             vitals_steps=6, vitals_channels=3, fusion_hidden=8, seed=1)


@pytest.fixture(scope="module")
def small_model():
    return TriModalNet(ModelConfig(**SMALL))


def small_batch(n=3, seed=0):
    rng = np.random.default_rng(seed)
    events = rng.normal(size=(n, 4, 5))
    notes = np.full((n, 8), PAD_ID, dtype=np.int64)
    notes[:, 0] = CLS_ID
    notes[:, 1:4] = rng.integers(3, 20, size=(n, 3))
    vitals = rng.normal(size=(n, 6, 3))
    return events, notes, vitals


def encode(model, modality, x):
    """One record's representation vector from one modality's encoder."""
    ctx = Context(tape=Tape(record=False), params=model.params)
    return getattr(model, f"_{modality}_rep")(ctx, np.asarray(x)[None]).data[0]


# --- shapes and basic contracts ----------------------------------------------

def test_forward_logit_shape_and_probability_sum(small_model):
    events, notes, vitals = small_batch()
    probs = small_model.predict_proba(events, notes, vitals)
    assert probs.shape == (3, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_encoders_return_width_vectors(small_model):
    events, notes, vitals = small_batch(1)
    assert encode(small_model, "events", events[0]).shape == (8,)
    assert encode(small_model, "notes", notes[0]).shape == (8,)
    assert encode(small_model, "vitals", vitals[0]).shape == (8,)


def test_events_encoder_accepts_any_positive_hour_count(small_model):
    for hours in (1, 2, 4):
        vec = encode(small_model, "events", np.zeros((hours, 5)))
        assert vec.shape == (8,)


def test_zero_length_sequences_are_rejected(small_model):
    with pytest.raises(SchemaError, match="hour"):
        encode(small_model, "events", np.zeros((0, 5)))
    with pytest.raises(SchemaError, match="timestep"):
        encode(small_model, "vitals", np.zeros((0, 3)))


def test_unknown_token_id_is_rejected(small_model):
    ids = np.array([CLS_ID, 19, 20], dtype=np.int64)  # vocab_size = 20
    with pytest.raises(SchemaError, match="unknown token id"):
        encode(small_model, "notes", ids)


@pytest.mark.parametrize("modality,axis_name", [("events", "hours"),
                                                 ("vitals", "timesteps")])
def test_forward_rejects_a_grid_length_off_the_config(small_model, modality, axis_name):
    events, notes, vitals = small_batch()
    grids = {"events": events, "vitals": vitals}
    expected = grids[modality].shape[1]
    grids[modality] = np.concatenate([grids[modality]] * 2, axis=1)
    ctx = Context(tape=Tape(record=False), params=small_model.params)
    with pytest.raises(SchemaError, match=f"{modality} grid has {2 * expected} "
                                          f"{axis_name}, the model expects {expected}"):
        small_model.forward(ctx, grids["events"], notes, grids["vitals"])
    # an inactive modality is not encoded, so its length is not checked
    active = tuple(m for m in ("events", "notes", "vitals") if m != modality)
    small_model.forward(ctx, grids["events"], notes, grids["vitals"], active=active)


def test_note_longer_than_position_table_is_rejected(small_model):
    ids = np.full(9, PAD_ID, dtype=np.int64)  # note_len = 8
    ids[0] = CLS_ID
    with pytest.raises(SchemaError, match="position table"):
        encode(small_model, "notes", ids)


# --- invariances ---------------------------------------------------------------

def test_appending_pads_never_changes_the_note_encoding(small_model):
    ids = np.array([CLS_ID, 5, 9], dtype=np.int64)
    padded = np.concatenate([ids, np.full(5, PAD_ID, dtype=np.int64)])
    np.testing.assert_array_equal(encode(small_model, "notes", ids),
                                  encode(small_model, "notes", padded))


def test_cls_only_note_encodes_to_a_valid_vector(small_model):
    vec = encode(small_model, "notes", np.array([CLS_ID], dtype=np.int64))
    assert vec.shape == (8,) and np.all(np.isfinite(vec))


def test_swapping_two_distinct_hours_changes_the_event_encoding(small_model):
    events = np.zeros((4, 5))
    events[1, 2] = 3.0  # distinct content in hours 1 and 3
    swapped = events.copy()
    swapped[[1, 3]] = swapped[[3, 1]]
    a = encode(small_model, "events", events)
    b = encode(small_model, "events", swapped)
    assert not np.allclose(a, b)


def test_perturbing_one_vitals_cell_changes_the_encoding(small_model):
    vitals = np.random.default_rng(5).normal(size=(6, 3))
    poked = vitals.copy()
    poked[2, 1] *= 2.0
    assert not np.allclose(encode(small_model, "vitals", vitals),
                           encode(small_model, "vitals", poked))


def test_modes_agree_on_every_record(small_model):
    events, notes, vitals = small_batch(4, seed=7)
    outs = {}
    for mode in ("standard", "attribution"):
        ctx = Context(tape=Tape(), params=small_model.params, mode=mode)
        outs[mode] = small_model.forward(ctx, events, notes, vitals).data
    np.testing.assert_array_equal(outs["standard"], outs["attribution"])


def test_same_config_and_seed_reproduce_the_same_model(small_model):
    twin = TriModalNet(ModelConfig(**SMALL))
    events, notes, vitals = small_batch()
    np.testing.assert_array_equal(small_model.predict_proba(events, notes, vitals),
                                  twin.predict_proba(events, notes, vitals))


def test_predict_proba_is_independent_of_batch_size(small_model):
    # not bit-equal: BLAS picks different kernels for different shapes
    events, notes, vitals = small_batch(7, seed=9)
    np.testing.assert_allclose(
        small_model.predict_proba(events, notes, vitals, batch_size=2),
        small_model.predict_proba(events, notes, vitals, batch_size=256),
        rtol=1e-12)


def test_predict_proba_of_zero_rows_is_an_empty_two_column_array(small_model):
    events, notes, vitals = small_batch(3)
    probs = small_model.predict_proba(events[:0], notes[:0], vitals[:0])
    assert probs.shape == (0, 2) and probs.dtype == np.float64


def _recorded_probabilities(model, events, notes, vitals, active):
    tape = Tape()
    logits = model.forward(Context(tape=tape, params=model.params),
                           events, notes, vitals, active)
    assert len(tape) > 0
    return softmax_probabilities(logits.data)


@pytest.mark.parametrize("bias_free", [False, True])
@pytest.mark.parametrize("active", [("events", "notes", "vitals"), ("notes", "vitals")])
def test_predict_proba_equals_a_recording_forward_bitwise(bias_free, active):
    model = TriModalNet(ModelConfig(**dict(SMALL, bias_free=bias_free)))
    events, notes, vitals = small_batch(5, seed=4)
    assert np.array_equal(
        model.predict_proba(events, notes, vitals, active=active),
        _recorded_probabilities(model, events, notes, vitals, active))


def test_predict_proba_cuts_batches_to_the_attention_byte_budget(small_model, monkeypatch):
    from icuxai import model as model_module

    events, notes, vitals = small_batch(7, seed=9)
    whole = small_model.predict_proba(events, notes, vitals)
    # L = 8 (the notes), 2 heads: the live map takes 2 * 8 * 8 * 8 bytes a row
    row_bytes = 2 * 8 * 8 * 8
    monkeypatch.setattr(model_module, "PASS_BYTES", 3 * row_bytes + 1)
    rows = []
    real_forward = TriModalNet.forward

    def counting_forward(self, ctx, ev, *args, **kwargs):
        rows.append(len(ev))
        return real_forward(self, ctx, ev, *args, **kwargs)

    monkeypatch.setattr(TriModalNet, "forward", counting_forward)
    cut = small_model.predict_proba(events, notes, vitals)
    assert rows == [3, 3, 1]
    np.testing.assert_allclose(cut, whole, rtol=1e-12, atol=1e-12)
    rows.clear()
    small_model.predict_proba(events, notes, vitals, batch_size=2)  # an upper bound
    assert rows == [2, 2, 2, 1]
    rows.clear()
    monkeypatch.setattr(model_module, "PASS_BYTES", 1)
    small_model.predict_proba(events, notes, vitals)  # never below one row
    assert rows == [1] * 7


@pytest.mark.parametrize("batch_size", [0, -5])
def test_predict_proba_rejects_a_batch_size_below_one(small_model, batch_size):
    with pytest.raises(ValueError, match="batch_size must be positive"):
        small_model.predict_proba(*small_batch(2), batch_size=batch_size)


# --- the pass byte budget ------------------------------------------------------------

DESK = dict(width=16, heads=2, ffn_width=32, event_blocks=1, note_blocks=1,
            vitals_blocks=1, event_hours=12, event_dim=10, note_len=24, vocab_size=60,
            vitals_steps=24, vitals_channels=6, fusion_hidden=16)
MID = dict(width=32, heads=4, ffn_width=64, event_blocks=2, note_blocks=2,
           vitals_blocks=2, event_hours=24, event_dim=20, note_len=96, vocab_size=60,
           vitals_steps=120, vitals_channels=8, fusion_hidden=16)


def held_bytes(*tapes):
    """Bytes of memory the tapes' values and node contexts keep alive, each
    byte counted once however many views or tapes reach it."""
    arrays = []
    for tape in tapes:
        arrays += tape.values
        for node in tape.nodes:
            arrays += [v for v in node.ctx.values() if isinstance(v, np.ndarray)]
    spans = sorted(np.lib.array_utils.byte_bounds(a) for a in arrays if a.size)
    total, end = 0, 0
    for lo, hi in spans:
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def geometry_batch(config, n, seed=0):
    rng = np.random.default_rng(seed)
    notes = rng.integers(3, config.vocab_size, size=(n, config.note_len))
    notes[:, 0] = CLS_ID
    return (rng.normal(size=(n, config.event_hours, config.event_dim)), notes,
            rng.normal(size=(n, config.vitals_steps, config.vitals_channels)))


def run_pass(model, kind, n, in_flight=1):
    """The tapes of ``in_flight`` attribution-mode passes of ``n`` rows
    each: recording forwards, or integrated-gradients replays of one
    record's frozen maps, each on its own replay cursor."""
    if kind == "recording":
        ctx = Context(tape=Tape(), params=model.params, mode="attribution")
        model.forward(ctx, *geometry_batch(model.config, n))
        return [ctx.tape]
    record = geometry_batch(model.config, 1)
    frozen = FrozenState()
    model.forward(Context(tape=Tape(record=False), params=model.params,
                          mode="attribution", frozen=frozen), *record)
    tapes = []
    for _ in range(in_flight):
        ctx = Context(tape=Tape(), params=model.params, mode="attribution",
                      frozen=frozen.replay(), input_scale=(np.arange(n) + 0.5) / n)
        model.forward(ctx, *(np.repeat(a, n, axis=0) for a in record))
        tapes.append(ctx.tape)
    return tapes


@pytest.mark.parametrize("bias_free", [False, True])
@pytest.mark.parametrize("geometry", [DESK, MID], ids=["desk", "mid"])
@pytest.mark.parametrize("kind", ["recording", "replay"])
def test_pass_bytes_match_what_the_tape_holds(geometry, kind, bias_free):
    model = TriModalNet(ModelConfig(**geometry, bias_free=bias_free))
    one, two = (held_bytes(*run_pass(model, kind, n)) for n in (1, 2))
    fixed, per_row = model.pass_bytes(kind, *geometry_batch(model.config, 1))
    assert abs(per_row - (two - one)) <= 0.15 * (two - one)
    assert abs(fixed - (2 * one - two)) <= 0.15 * (2 * one - two)


def test_pass_bytes_of_inference_and_capture_count_the_live_maps():
    model = TriModalNet(ModelConfig(**MID))
    arrays = geometry_batch(model.config, 1)
    squares = (24 ** 2, 96 ** 2, 120 ** 2)
    assert model.pass_bytes("inference", *arrays) == (0, 8 * 4 * max(squares))
    assert model.pass_bytes("capture", *arrays) == (0, 8 * 4 * 2 * sum(squares))
    with pytest.raises(ValueError, match="unknown pass kind"):
        model.pass_bytes("training", *arrays)


@pytest.mark.parametrize("kind", ["recording", "replay"])
def test_a_pass_at_pass_rows_holds_at_most_the_budget(monkeypatch, kind):
    from icuxai import model as model_module

    model = TriModalNet(ModelConfig(**DESK))
    arrays = geometry_batch(model.config, 1)
    fixed, per_row = model.pass_bytes(kind, *arrays)
    for budget in (fixed + 2 * per_row, fixed + 3 * per_row + per_row // 2,
                   fixed + 5 * per_row - 1):
        monkeypatch.setattr(model_module, "PASS_BYTES", budget)
        rows = model.pass_rows(kind, *arrays)
        assert rows > 1
        assert held_bytes(*run_pass(model, kind, rows)) <= budget
        assert held_bytes(*run_pass(model, kind, rows + 1)) > budget
        if kind == "replay":
            # two replays in flight share the parameters, the frozen maps
            # and the positional tables, and split the rows between them
            rows = model.pass_rows(kind, *arrays, in_flight=2)
            assert held_bytes(*run_pass(model, kind, rows, in_flight=2)) <= budget
            assert held_bytes(*run_pass(model, kind, rows + 1, in_flight=2)) > budget


# --- fusion and ablation ---------------------------------------------------------

def test_equal_logits_give_even_probabilities():
    model = TriModalNet(ModelConfig(**SMALL))
    model.params["fusion.out.w"] = np.zeros((8, 2))
    model.params["fusion.out.b"] = np.array([3.0, 3.0])
    ctx = Context(tape=Tape(record=False), params=model.params)
    logits = model.forward(ctx, *small_batch(1)).data
    np.testing.assert_allclose(softmax_probabilities(logits), [[0.5, 0.5]],
                               atol=1e-15)


def test_zeroing_two_modalities_changes_the_prediction(small_model):
    events, notes, vitals = small_batch(1)
    full = small_model.predict_proba(events, notes, vitals)[0]
    ablated = small_model.predict_proba(events, notes, vitals,
                                        active=("events",))[0]
    assert full[1] != pytest.approx(ablated[1], abs=1e-12)
    assert abs(sum(ablated) - 1.0) < 1e-9


def test_forward_with_inactive_modalities_matches_zeroed_reps(small_model):
    events, notes, vitals = small_batch(2)
    ctx = Context(tape=Tape(), params=small_model.params)
    only_events = small_model.forward(ctx, events, notes, vitals,
                                      active=("events",)).data
    ctx = Context(tape=Tape(record=False), params=small_model.params)
    fused = ad.concat([small_model._events_rep(ctx, events),
                       ctx.tape.leaf(np.zeros((2, 16)))], axis=-1)
    hidden = ad.relu(small_model.fusion_hidden.forward(ctx, fused))
    by_hand = small_model.fusion_out.forward(ctx, hidden).data
    np.testing.assert_allclose(only_events, by_hand, atol=1e-12)


def test_forward_rejects_bad_modality_selections(small_model):
    events, notes, vitals = small_batch(1)
    ctx = Context(tape=Tape(), params=small_model.params)
    with pytest.raises(ValueError, match="unknown modality"):
        small_model.forward(ctx, events, notes, vitals, active=("labs",))
    with pytest.raises(ValueError, match="at least one"):
        small_model.forward(ctx, events, notes, vitals, active=())


def test_mismatched_batch_sizes_are_rejected(small_model):
    events, notes, vitals = small_batch(3)
    ctx = Context(tape=Tape(), params=small_model.params)
    with pytest.raises(ValueError, match="batch sizes"):
        small_model.forward(ctx, events[:2], notes, vitals)


def test_softmax_probabilities_handles_extreme_logits():
    probs = softmax_probabilities(np.array([[1000.0, -1000.0]]))
    np.testing.assert_allclose(probs, [[1.0, 0.0]], atol=1e-300)


# --- bias-free configuration ------------------------------------------------------

def test_bias_free_model_has_no_intercept_parameters():
    model = TriModalNet(ModelConfig(**{**SMALL, "bias_free": True}))
    names = model.params.names()
    assert not any(n.endswith((".b", ".gain", ".shift")) for n in names)
    assert "notes.pos" not in names


def test_bias_free_attributions_sum_to_the_logit():
    """In the bias-free configuration the attribution-mode network is
    positively homogeneous, so gradient-times-input over all three
    modality inputs reproduces the class-1 logit exactly."""
    model = TriModalNet(ModelConfig(**{**SMALL, "bias_free": True}))
    events, notes, vitals = small_batch(1, seed=11)
    ctx = Context(tape=Tape(), params=model.params, mode="attribution")
    logits = model.forward(ctx, events, notes, vitals)
    target = ad.slice_(logits, (0, 1))
    ad.backward(target)
    total = sum(float(np.sum(ctx.probes[m].data * ctx.probes[m].grad))
                for m in ("events", "notes", "vitals"))
    want = float(target.data)
    assert total == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))


# --- persistence -------------------------------------------------------------------

def checkpoint_round_trip(tmp_path, model, **kwargs):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, **kwargs)
    return path


def test_checkpoint_round_trip_is_bit_exact(tmp_path, small_model):
    events, notes, vitals = small_batch()
    before = small_model.predict_proba(events, notes, vitals)
    path = checkpoint_round_trip(tmp_path, small_model,
                                 vocab=["[PAD]", "[CLS]", "[UNK]", "fever"],
                                 preprocess={"means": [0.0]},
                                 extra={"note": "fixture"})
    loaded, meta = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.predict_proba(events, notes, vitals), before)
    assert meta["vocab"][3] == "fever"
    assert meta["preprocess"] == {"means": [0.0]}
    assert meta["extra"] == {"note": "fixture"}
    assert loaded.config == small_model.config


def test_corrupted_checkpoint_is_rejected(tmp_path, small_model):
    path = checkpoint_round_trip(tmp_path, small_model)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_truncated_checkpoint_is_rejected(tmp_path, small_model):
    path = checkpoint_round_trip(tmp_path, small_model)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_is_rejected(tmp_path, small_model):
    path = checkpoint_round_trip(tmp_path, small_model)
    arrays, meta = fileio.load_container(path)
    meta["checkpoint_version"] = 999
    fileio.save_container(path, arrays, meta)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_loading_a_dataset_as_checkpoint_is_rejected(tmp_path):
    path = tmp_path / "x.bin"
    fileio.save_container(path, {"a": np.zeros(2)}, {"kind": "dataset"})
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)


def test_misshapen_tensor_is_rejected_by_name(tmp_path, small_model):
    path = checkpoint_round_trip(tmp_path, small_model)
    arrays, meta = fileio.load_container(path)
    arrays["events.in_proj.w"] = arrays["events.in_proj.w"][:-1]
    fileio.save_container(path, arrays, meta)
    with pytest.raises(CheckpointError, match="events.in_proj.w"):
        load_checkpoint(path)


def test_missing_tensor_is_rejected(tmp_path, small_model):
    path = checkpoint_round_trip(tmp_path, small_model)
    arrays, meta = fileio.load_container(path)
    del arrays["fusion.out.b"]
    fileio.save_container(path, arrays, meta)
    with pytest.raises(CheckpointError, match="fusion.out.b"):
        load_checkpoint(path)


def test_invalid_stored_config_is_rejected(tmp_path, small_model):
    path = checkpoint_round_trip(tmp_path, small_model)
    arrays, meta = fileio.load_container(path)
    meta["config"]["mystery_knob"] = 3
    fileio.save_container(path, arrays, meta)
    with pytest.raises(CheckpointError, match="config"):
        load_checkpoint(path)


def test_feature_dimension_mismatch_names_the_tensor(small_model):
    """A D=5 model fed D=4 data must fail loudly, pointing at the input
    projection whose width disagrees."""
    events, notes, vitals = small_batch()
    with pytest.raises(SchemaError, match="events.in_proj"):
        small_model.predict_proba(events[:, :, :4], notes, vitals)


# --- config validation ---------------------------------------------------------------

def test_model_config_validation():
    with pytest.raises(ValueError, match="vocab_size"):
        ModelConfig(**{**SMALL, "vocab_size": 2})
    with pytest.raises(ValueError, match="positive"):
        ModelConfig(**{**SMALL, "event_blocks": 0})
    with pytest.raises(ValueError, match="divide"):
        ModelConfig(**{**SMALL, "heads": 3})
    with pytest.raises(ValueError, match="unknown model config"):
        ModelConfig.from_dict({**SMALL, "not_a_field": 1})



@pytest.mark.parametrize("vocab, want", [
    ({"[PAD]": 0, "[CLS]": 1, "[UNK]": 2, "fever": 3, "stable": 4}, 5),
    (None, 8),           # no vocabulary: one past the largest token id
    ({}, 8),
])
def test_model_config_for_takes_geometry_from_the_dataset(vocab, want):
    events, notes, vitals = small_batch(n=2)
    notes[:, 1:4] = [[3, 7, 5], [4, 3, 6]]
    ds = MultimodalDataset(events, np.ones_like(events), notes, vitals, [0, 1],
                           ["a", "b"], meta={"vocab": vocab})
    cfg = model_config_for(ds, width=8, heads=2, seed=4)
    assert (cfg.event_hours, cfg.event_dim, cfg.note_len) == (4, 5, 8)
    assert (cfg.vitals_steps, cfg.vitals_channels) == (6, 3)
    assert (cfg.vocab_size, cfg.width, cfg.heads, cfg.seed) == (want, 8, 2, 4)
    # only the three reserved ids in use still gives a valid vocabulary
    ds.notes[:] = np.minimum(ds.notes, CLS_ID)
    assert model_config_for(ds).vocab_size == (want if vocab else 3)


# --- pinned regression fixtures ---------------------------------------------------

def test_default_model_fixture_vectors_are_stable():
    """Zero/degenerate inputs through the default configuration (seed 0)
    must keep producing the same vectors run over run."""
    model = TriModalNet(ModelConfig(seed=0))

    ev = encode(model, "events", np.zeros((24, 76)))
    np.testing.assert_allclose(
        ev[:4], [-2.1511461, 0.93131004, -0.26707014, -0.23742264], atol=1e-6)
    assert float(np.linalg.norm(ev)) == pytest.approx(7.999970538778847, abs=1e-9)

    vi = encode(model, "vitals", np.zeros((480, 21)))
    np.testing.assert_allclose(
        vi[:4], [-2.29905618, 0.59539735, 0.23547217, 0.03670115], atol=1e-6)
    assert float(np.linalg.norm(vi)) == pytest.approx(7.999977591044746, abs=1e-9)

    ids = np.full(16, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    no = encode(model, "notes", ids)
    np.testing.assert_allclose(
        no[:4], [-0.56157283, -0.38002821, -1.10497882, 0.23473314], atol=1e-6)
