"""Tests for the transformer building blocks.

The load-bearing properties here:

* standard and attribution modes produce bit-identical forward values;
* attribution mode sends exactly zero gradient into the query/key
  projections and the layer-norm variance path;
* the frozen record/replay mechanism makes attribution-mode gradients
  checkable against central differences;
* a bias-free block is positively homogeneous in attribution mode, so
  gradient-times-input sums exactly to the output (per-layer
  conservation);
* padded positions receive exactly zero attention weight, so valid
  positions are bit-for-bit invariant to pad content.
"""

import threading

import numpy as np
import pytest

from icuxai import autodiff as ad
from icuxai.autodiff import Tape
from icuxai.blocks import (
    BlockConfig,
    Context,
    FrozenState,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    ParamStore,
    TransformerBlock,
    additive_attention_mask,
    pool_first,
    sinusoidal_positions,
    xavier_uniform,
)


def make_block(bias=True, affine=True, dropout=0.0, width=8, heads=2,
               ffn_width=16, seed=0):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    cfg = BlockConfig(width=width, heads=heads, ffn_width=ffn_width, dropout=dropout)
    block = TransformerBlock(store, "blk", rng, cfg, bias=bias, affine=affine)
    return store, block


# --- ParamStore ----------------------------------------------------------

def test_param_store_round_trip():
    store = ParamStore()
    store.add("a", np.arange(6.0).reshape(2, 3))
    assert store["a"].shape == (2, 3)
    assert store.names() == ["a"]
    assert sum(a.size for _, a in store.items()) == 6


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("a", np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("a", np.zeros(2))


def test_param_store_setitem_requires_existing_name():
    store = ParamStore()
    with pytest.raises(KeyError):
        store["missing"] = np.zeros(2)


def test_param_store_snapshot_restore():
    store = ParamStore()
    store.add("w", np.ones(3))
    snap = store.snapshot()
    store["w"] = np.full(3, 9.0)
    store.restore(snap)
    np.testing.assert_array_equal(store["w"], np.ones(3))
    # snapshot must be a copy, not a view
    snap["w"][0] = -1.0
    assert store["w"][0] == 1.0


# --- positional code ------------------------------------------------------

def test_sinusoidal_position_zero_is_alternating_zero_one():
    pos = sinusoidal_positions(3, 4)
    np.testing.assert_array_equal(pos[0], [0.0, 1.0, 0.0, 1.0])


def test_sinusoidal_positions_match_direct_formula():
    pos = sinusoidal_positions(10, 6)
    # entry (pos=7, pair i=2): sin/cos of 7 / 10000**(4/6)
    angle = 7.0 / 10000.0 ** (4.0 / 6.0)
    assert pos[7, 4] == pytest.approx(np.sin(angle), abs=1e-15)
    assert pos[7, 5] == pytest.approx(np.cos(angle), abs=1e-15)
    assert np.all(np.abs(pos) <= 1.0)


def test_sinusoidal_positions_require_even_width():
    with pytest.raises(ValueError, match="even"):
        sinusoidal_positions(4, 5)


# --- config validation ----------------------------------------------------

def test_block_config_validation():
    BlockConfig(width=8, heads=2, ffn_width=16)  # fine
    with pytest.raises(ValueError, match="divide"):
        BlockConfig(width=8, heads=3, ffn_width=16)
    with pytest.raises(ValueError, match="even"):
        BlockConfig(width=7, heads=7, ffn_width=16)
    with pytest.raises(ValueError, match="dropout"):
        BlockConfig(width=8, heads=2, ffn_width=16, dropout=1.0)
    with pytest.raises(ValueError, match="ffn_width"):
        BlockConfig(width=8, heads=2, ffn_width=0)


def test_context_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        Context(tape=Tape(), params=ParamStore(), mode="training")


def test_context_param_leaf_is_cached():
    store = ParamStore()
    store.add("w", np.ones(2))
    ctx = Context(tape=Tape(), params=store)
    assert ctx.param("w") is ctx.param("w")


# --- Linear ---------------------------------------------------------------

def test_linear_matches_numpy_affine():
    store = ParamStore()
    rng = np.random.default_rng(1)
    lin = Linear(store, "l", rng, 4, 3)
    store["l.b"] = rng.normal(size=3)
    x = rng.normal(size=(5, 4))
    ctx = Context(tape=Tape(), params=store)
    out = lin.forward(ctx, ctx.tape.leaf(x))
    np.testing.assert_allclose(out.data, x @ store["l.w"] + store["l.b"], rtol=1e-15)


def test_linear_without_bias_has_no_bias_parameter():
    store = ParamStore()
    lin = Linear(store, "l", np.random.default_rng(0), 4, 3, bias=False)
    assert lin.b is None
    assert store.names() == ["l.w"]


def test_xavier_uniform_bounds():
    w = xavier_uniform(np.random.default_rng(0), 50, 30)
    limit = np.sqrt(6.0 / 80.0)
    assert np.all(np.abs(w) <= limit)
    assert w.shape == (50, 30)


# --- LayerNorm ------------------------------------------------------------

def test_layer_norm_standardizes_last_axis():
    store = ParamStore()
    ln = LayerNorm(store, "ln", 6)
    x = np.random.default_rng(2).normal(size=(3, 4, 6)) * 5.0 + 2.0
    ctx = Context(tape=Tape(), params=store)
    out = ln.forward(ctx, ctx.tape.leaf(x)).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_modes_agree_on_forward_values():
    store = ParamStore()
    ln = LayerNorm(store, "ln", 6)
    x = np.random.default_rng(3).normal(size=(2, 5, 6))
    outs = {}
    for mode in ("standard", "attribution"):
        ctx = Context(tape=Tape(), params=store, mode=mode)
        outs[mode] = ln.forward(ctx, ctx.tape.leaf(x)).data
    np.testing.assert_array_equal(outs["standard"], outs["attribution"])


def test_layer_norm_attribution_jacobian_is_centering_only():
    """With the denominator frozen, d out[0]/dx for x=[1,3] is
    [0.5, -0.5] / sqrt(1 + eps): the centering matrix row rescaled."""
    store = ParamStore()
    ln = LayerNorm(store, "ln", 2, affine=False)
    tape = Tape()
    ctx = Context(tape=tape, params=store, mode="attribution")
    x = tape.leaf(np.array([[1.0, 3.0]]))
    out = ln.forward(ctx, x)
    ad.backward(out, seed=np.array([[1.0, 0.0]]))
    expected = np.array([[0.5, -0.5]]) / np.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-14)


def test_layer_norm_standard_gradient_includes_variance_path():
    store = ParamStore()
    ln = LayerNorm(store, "ln", 2, affine=False)
    grads = {}
    for mode in ("standard", "attribution"):
        tape = Tape()
        ctx = Context(tape=tape, params=store, mode=mode)
        x = tape.leaf(np.array([[1.0, 3.0]]))
        out = ln.forward(ctx, x)
        ad.backward(out, seed=np.array([[1.0, 0.0]]))
        grads[mode] = x.grad
    assert not np.allclose(grads["standard"], grads["attribution"])


# --- attention -------------------------------------------------------------

def attention_forward(mode, mask_valid=None, capture=None, frozen=None, seed=4):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    mha = MultiHeadAttention(store, "attn", rng, width=8, heads=2)
    x = rng.normal(size=(2, 5, 8))
    tape = Tape()
    ctx = Context(tape=tape, params=store, mode=mode, capture=capture, frozen=frozen)
    mask = None
    if mask_valid is not None:
        mask = additive_attention_mask(mask_valid)
    out = mha.forward(ctx, ctx.tape.leaf(x), mask, encoder="events")
    return ctx, out


def test_attention_rows_sum_to_one():
    capture = {}
    attention_forward("standard", capture=capture)
    (p,) = capture["events"]
    assert p.shape == (2, 2, 5, 5)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_masked_positions_get_exactly_zero_weight():
    valid = np.ones((2, 5), dtype=bool)
    valid[:, 3:] = False
    capture = {}
    attention_forward("standard", mask_valid=valid, capture=capture)
    (p,) = capture["events"]
    assert np.all(p[:, :, :, 3:] == 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_attribution_blocks_query_key_gradients():
    ctx, out = attention_forward("attribution")
    ad.backward(out.sum())
    assert ctx._leaves["attn.q.w"].grad is None
    assert ctx._leaves["attn.k.w"].grad is None
    # the value path stays live
    assert np.any(ctx._leaves["attn.v.w"].grad != 0.0)
    assert np.any(ctx._leaves["attn.out.w"].grad != 0.0)


def test_standard_mode_trains_query_and_key():
    ctx, out = attention_forward("standard")
    ad.backward(out.sum())
    grads = ctx.param_grads()
    assert np.any(grads["attn.q.w"] != 0.0)
    assert np.any(grads["attn.k.w"] != 0.0)


def test_attention_modes_agree_on_forward_values():
    _, out_std = attention_forward("standard")
    _, out_attr = attention_forward("attribution")
    np.testing.assert_array_equal(out_std.data, out_attr.data)


# --- transformer block ------------------------------------------------------

def test_block_modes_agree_on_forward_values():
    store, block = make_block()
    x = np.random.default_rng(5).normal(size=(2, 4, 8))
    outs = {}
    for mode in ("standard", "attribution"):
        ctx = Context(tape=Tape(), params=store, mode=mode)
        outs[mode] = block.forward(ctx, ctx.tape.leaf(x)).data
    np.testing.assert_array_equal(outs["standard"], outs["attribution"])


def test_block_standard_gradients_match_central_differences():
    store, block = make_block(width=6, heads=2, ffn_width=8)
    rng = np.random.default_rng(6)
    r = rng.normal(size=(1, 3, 6))
    x0 = rng.normal(size=(1, 3, 6))

    def f(x):
        ctx = Context(tape=x.tape, params=store, mode="standard")
        y = block.forward(ctx, x)
        return ad.mul(y, x.tape.leaf(r)).sum()

    assert ad.grad_check(f, x0, step=1e-5) < 1e-6


def test_block_attribution_gradients_match_frozen_replay_differences():
    """Attribution-mode gradients are the exact gradients of the
    locally-linear surrogate obtained by freezing attention maps and
    norm denominators; verify them by finite differences on a replay."""
    store, block = make_block(width=6, heads=2, ffn_width=8, seed=7)
    rng = np.random.default_rng(8)
    r = rng.normal(size=(1, 3, 6))
    x0 = rng.normal(size=(1, 3, 6))

    frozen = FrozenState()
    tape = Tape()
    ctx = Context(tape=tape, params=store, mode="attribution", frozen=frozen)
    x = tape.leaf(x0)
    y = block.forward(ctx, x)
    ad.backward(ad.mul(y, tape.leaf(r)).sum())
    recorded_grad = x.grad.copy()

    def f(xt):
        rctx = Context(tape=xt.tape, params=store, mode="attribution",
                       frozen=frozen.replay())
        out = block.forward(rctx, xt)
        return ad.mul(out, xt.tape.leaf(r)).sum()

    assert ad.grad_check(f, x0, step=1e-5) < 1e-6

    # replay at the base point reproduces both the value and the gradient
    tape2 = Tape()
    ctx2 = Context(tape=tape2, params=store, mode="attribution",
                   frozen=frozen.replay())
    x2 = tape2.leaf(x0)
    y2 = block.forward(ctx2, x2)
    np.testing.assert_array_equal(y2.data, y.data)
    ad.backward(ad.mul(y2, tape2.leaf(r)).sum())
    np.testing.assert_allclose(x2.grad, recorded_grad, rtol=1e-12)


def test_bias_free_block_conserves_gradient_times_input():
    """Without biases, affine norms or intercepts, the attribution-mode
    surrogate is positively homogeneous, so sum(x * d(r.y)/dx) == r.y."""
    store, block = make_block(bias=False, affine=False, width=8, heads=2,
                              ffn_width=16, seed=9)
    rng = np.random.default_rng(10)
    for trial in range(5):
        x0 = rng.normal(size=(1, 4, 8))
        r = rng.normal(size=(1, 4, 8))
        tape = Tape()
        ctx = Context(tape=tape, params=store, mode="attribution")
        x = tape.leaf(x0)
        y = block.forward(ctx, x)
        target = ad.mul(y, tape.leaf(r)).sum()
        ad.backward(target)
        conserved = float(np.sum(x0 * x.grad))
        assert conserved == pytest.approx(float(target.data), abs=1e-8)


def test_block_with_biases_breaks_conservation():
    store, block = make_block(bias=True, affine=True, seed=11)
    rng = np.random.default_rng(12)
    for name in store.names():  # fresh biases are zero, which is still homogeneous
        if name.endswith((".b", ".shift")):
            store[name] = rng.normal(size=store[name].shape)
    x0 = rng.normal(size=(1, 4, 8))
    r = rng.normal(size=(1, 4, 8))
    tape = Tape()
    ctx = Context(tape=tape, params=store, mode="attribution")
    x = tape.leaf(x0)
    y = block.forward(ctx, x)
    target = ad.mul(y, tape.leaf(r)).sum()
    ad.backward(target)
    assert float(np.sum(x0 * x.grad)) != pytest.approx(float(target.data), abs=1e-8)


def test_valid_positions_ignore_pad_content_bitwise():
    store, block = make_block(seed=13)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 5, 8))
    valid = np.array([[True, True, True, False, False]])

    def run(inp):
        tape = Tape()
        ctx = Context(tape=tape, params=store)
        mask = additive_attention_mask(valid)
        return block.forward(ctx, tape.leaf(inp), mask).data

    base = run(x)
    poked = x.copy()
    poked[0, 3:] = rng.normal(size=(2, 8)) * 50.0
    out = run(poked)
    assert np.array_equal(base[0, :3], out[0, :3])


def test_pool_first_selects_row_zero():
    tape = Tape()
    x = tape.leaf(np.arange(24.0).reshape(2, 3, 4))
    out = pool_first(x)
    np.testing.assert_array_equal(out.data, x.data[:, 0])


# --- dropout ----------------------------------------------------------------

def test_dropout_active_only_in_standard_mode_with_rng():
    store, block = make_block(dropout=0.5, seed=15)
    x = np.random.default_rng(16).normal(size=(1, 4, 8))

    def run(mode, rng_seed):
        ctx = Context(tape=Tape(), params=store, mode=mode,
                      rng=None if rng_seed is None else np.random.default_rng(rng_seed))
        return block.forward(ctx, ctx.tape.leaf(x)).data

    clean = run("standard", None)
    dropped = run("standard", 0)
    assert not np.array_equal(clean, dropped)
    # same seed, same masks
    np.testing.assert_array_equal(dropped, run("standard", 0))
    # attribution mode ignores the rng entirely
    np.testing.assert_array_equal(clean, run("attribution", 0))


class _RecordingRng:
    """A generator that notes the thread and shape of every draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, shape):
        self.draws.append((threading.current_thread(), shape))
        return self.rng.random(shape)


@pytest.mark.parametrize("batch,heads,length", [(1, 4, 513), (3, 2, 420)])
def test_split_attention_draws_its_dropout_mask_whole_on_the_calling_thread(
        batch, heads, length, pin_threads, monkeypatch):
    # maps above the split size, cut by heads: the keep mask is still one
    # draw of the map's shape, on the calling thread, so the stream and
    # every bit are those of one thread
    rate = 0.2
    store = ParamStore()
    mha = MultiHeadAttention(store, "attn", np.random.default_rng(5), width=4 * heads,
                             heads=heads)
    x = np.random.default_rng(6).normal(size=(batch, length, 4 * heads))
    valid = np.arange(length) < length - 50 * np.arange(batch)[:, None]
    keeps = []
    real = ad.dropout_matmul

    def dropout_matmul(x, w, keep, factor):
        keeps.append(keep)
        return real(x, w, keep, factor)

    monkeypatch.setattr(ad, "dropout_matmul", dropout_matmul)
    runs = {}
    for threads in (1, 2):
        pin_threads(threads)
        rng = _RecordingRng(7)
        ctx = Context(tape=Tape(), params=store, rng=rng)
        leaf = ctx.tape.leaf(x)
        out = mha.forward(ctx, leaf, additive_attention_mask(valid), dropout=rate)
        ad.backward(ad.sum_over_axis(ad.mul(out, out)))
        shape = (batch, heads, length, length)
        assert rng.draws == [(threading.current_thread(), shape)]
        whole = np.random.default_rng(7).random(shape) < 1.0 - rate
        assert np.array_equal(keeps.pop(), whole)
        runs[threads] = [out.data, leaf.grad] + [g for _, g in sorted(
            ctx.param_grads().items())]
    for a, b in zip(runs[1], runs[2]):
        assert a.strides == b.strides and a.tobytes() == b.tobytes()


def test_frozen_state_cursor_round_trip():
    frozen = FrozenState()
    frozen.add("ln", np.array([1.0]))
    frozen.add("ln", np.array([2.0]))
    first, second = frozen.replay(), frozen.replay()
    assert frozen.recording and not first.recording
    assert first.take("ln")[0] == 1.0
    assert first.take("ln")[0] == 2.0
    assert second.take("ln")[0] == 1.0  # each cursor walks the arrays on its own


def test_probe_applies_input_scale():
    store = ParamStore()
    tape = Tape()
    ctx = Context(tape=tape, params=store, input_scale=0.25)
    x = tape.leaf(np.array([4.0, 8.0]))
    probed = ctx.probe("events", x)
    np.testing.assert_array_equal(probed.data, [1.0, 2.0])
    assert ctx.probes["events"] is probed


def test_probe_per_row_input_scale_matches_float_scale_per_row():
    store = ParamStore()
    x0 = np.random.default_rng(9).normal(size=(3, 4, 5))
    factors = np.array([0.025, 0.5, 0.975])
    tape = Tape()
    ctx = Context(tape=tape, params=store, input_scale=factors)
    probed = ctx.probe("vitals", tape.leaf(x0))
    assert ctx.probes["vitals"] is probed
    for i, factor in enumerate(factors):
        one = Tape()
        alone = Context(tape=one, params=store, input_scale=float(factor))
        np.testing.assert_array_equal(probed.data[i],
                                      alone.probe("vitals", one.leaf(x0[i:i + 1])).data[0])
    with pytest.raises(ValueError):
        Context(tape=tape, params=store, input_scale=factors[:2]).probe(
            "vitals", tape.leaf(x0))


def test_additive_mask_shape_and_values():
    valid = np.array([[True, False], [False, True]])
    mask = additive_attention_mask(valid)
    assert mask.shape == (2, 1, 1, 2)
    assert mask[0, 0, 0, 0] == 0.0
    assert mask[0, 0, 0, 1] == -1e9
