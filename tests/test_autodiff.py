"""Tape, primitives, backward, and the finite-difference oracle."""

import threading
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from icuxai import autodiff as ad
from icuxai.autodiff import (
    NonFiniteError,
    Tape,
    TapeError,
    backward,
    grad_check,
)

RNG = np.random.default_rng(20240811)


def _leaf(arr, tape=None):
    tape = tape or Tape()
    return tape.leaf(np.asarray(arr, dtype=np.float64))


# --- heap padding and arenas ----------------------------------------------

def test_heap_top_pad_is_set_unless_the_environment_sets_it(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.delenv("MALLOC_TOP_PAD_", raising=False)
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)
    ad._pad_heap_top_in_one_arena()
    assert calls == [(-2, ad.HEAP_TOP_PAD), (-8, 1)]  # M_TOP_PAD, M_ARENA_MAX
    calls.clear()
    monkeypatch.setenv("MALLOC_TOP_PAD_", "0")
    ad._pad_heap_top_in_one_arena()
    assert calls == [(-8, 1)]
    calls.clear()
    monkeypatch.delenv("MALLOC_TOP_PAD_")
    monkeypatch.setenv("MALLOC_ARENA_MAX", "4")
    ad._pad_heap_top_in_one_arena()
    assert calls == [(-2, ad.HEAP_TOP_PAD)]
    monkeypatch.delenv("MALLOC_ARENA_MAX")
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: object())  # no mallopt
    ad._pad_heap_top_in_one_arena()


# --- forward values -------------------------------------------------------

def test_primitive_registry_is_complete():
    expected = {
        "add", "sub", "mul", "div", "matmul", "transpose", "reshape",
        "concat", "slice", "sum-over-axis", "mean-over-axis", "max-over-axis",
        "exp", "log", "sqrt", "relu", "softmax-over-axis", "attention-map",
        "dropout-matmul", "scale", "broadcast", "gather-rows", "detach",
    }
    assert set(ad.PRIMITIVE_KINDS) == expected


def test_basic_arithmetic_values():
    t = Tape()
    a = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = t.leaf([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ad.add(a, b).data, [[6, 8], [10, 12]])
    assert np.array_equal(ad.sub(a, b).data, [[-4, -4], [-4, -4]])
    assert np.array_equal(ad.mul(a, b).data, [[5, 12], [21, 32]])
    assert np.array_equal(ad.matmul(a, b).data, [[19, 22], [43, 50]])


def test_softmax_of_equal_logits_is_uniform():
    t = Tape()
    x = t.leaf([0.0, 0.0])
    p = ad.softmax_over_axis(x, axis=-1)
    assert np.array_equal(p.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one_even_for_extreme_logits():
    t = Tape()
    x = t.leaf(RNG.uniform(-1e3, 1e3, size=(16, 9)))
    p = ad.softmax_over_axis(x, axis=-1)
    assert np.all(np.abs(p.data.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(p.data >= 0.0)


def test_scaled_masked_softmax_is_one_node_matching_the_chain_bitwise():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(2, 3, 5, 5)) * 4.0
    mask = np.where(rng.random((2, 1, 1, 5)) < 0.3, -1e9, 0.0)
    weights = rng.normal(size=scores.shape)
    factor = 1.0 / np.sqrt(8.0)

    def run(fused):
        t = Tape()
        x = t.leaf(scores)
        if fused:
            p = ad.softmax_over_axis(x, axis=-1, factor=factor, mask=mask)
        else:
            p = ad.softmax_over_axis(
                ad.add(ad.scale(x, factor), t.leaf(mask)), axis=-1)
        backward(ad.sum_over_axis(ad.mul(p, t.leaf(weights))))
        return t, x, p

    t, x, p = run(fused=True)
    _, xc, pc = run(fused=False)
    assert [node.kind for node in t.nodes[:2]] == ["leaf", "softmax-over-axis"]
    assert np.array_equal(p.data, pc.data)
    assert np.array_equal(x.grad, xc.grad)


def _bytes(arr):
    return None if arr is None else (arr.shape, arr.tobytes())


def _split_heads(t, batch, length, heads):
    t = ad.reshape(t, (batch, length, heads, t.shape[-1] // heads))
    return ad.transpose(t, (0, 2, 1, 3))


@pytest.mark.parametrize("wrt", [None, "qk", "q", "k"])
def test_attention_map_matches_matmul_transpose_softmax_bitwise(wrt):
    # the unfused reference: scores = q @ transpose(k), then the one-node
    # scaled masked softmax; q and k are head views of projections, as in
    # attention, at batch 3 and 2 heads
    rng = np.random.default_rng(21)
    batch, length, heads, width = 3, 5, 2, 8
    xq = rng.normal(size=(batch, length, width)) * 2.0
    xk = rng.normal(size=(batch, length, width)) * 2.0
    mask = np.where(rng.random((batch, 1, 1, length)) < 0.3, -1e9, 0.0)
    weights = rng.normal(size=(batch, heads, length, length))
    factor = 1.0 / np.sqrt(width // heads)

    def run(fused):
        t = Tape()
        lq, lk = t.leaf(xq), t.leaf(xk)
        q = _split_heads(lq, batch, length, heads)
        k = _split_heads(lk, batch, length, heads)
        if fused:
            p = ad.attention_map(q, k, factor=factor, mask=mask)
        else:
            p = ad.softmax_over_axis(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                                     axis=-1, factor=factor, mask=mask)
        leaves = {"q": [lq], "k": [lk], "qk": [lq, lk], None: None}[wrt]
        backward(ad.sum_over_axis(ad.mul(p, t.leaf(weights))), wrt=leaves)
        return t, p, lq, lk

    t, p, lq, lk = run(fused=True)
    _, pc, lqc, lkc = run(fused=False)
    assert p.shape == (batch, heads, length, length)
    assert [n.kind for n in t.nodes].count("attention-map") == 1
    assert "matmul" not in {n.kind for n in t.nodes}
    assert _bytes(p.data) == _bytes(pc.data)
    assert _bytes(lq.grad) == _bytes(lqc.grad)
    assert _bytes(lk.grad) == _bytes(lkc.grad)
    if wrt in ("q", "k"):
        other = lk if wrt == "q" else lq
        assert other.grad is None


@pytest.mark.parametrize("geometry", ["attention", "ffn"])
@pytest.mark.parametrize("wrt", [None, "xw", "x", "w"])
def test_dropout_matmul_matches_mask_leaf_mul_matmul_bitwise(geometry, wrt):
    # the unfused reference: a float64 mask leaf keep / (1 - rate), a mul,
    # then the matmul; signed zeros must match too, so bytes are compared
    rng = np.random.default_rng(22)
    if geometry == "attention":   # p (batch, heads, L, L) @ v (batch, heads, L, hw)
        x0, w0 = rng.normal(size=(3, 2, 5, 5)), rng.normal(size=(3, 2, 5, 4))
    else:                         # relu(h) (batch, L, ffn) @ w (ffn, width)
        x0, w0 = rng.normal(size=(3, 5, 6)), rng.normal(size=(6, 4))
    rate = 0.3
    keep = rng.random(x0.shape) < 1.0 - rate
    weights = rng.normal(size=(x0 @ w0).shape)

    def run(fused):
        t = Tape()
        x, w = t.leaf(x0), t.leaf(w0)
        if fused:
            y = ad.dropout_matmul(x, w, keep, 1.0 / (1.0 - rate))
        else:
            mask = keep.astype(np.float64) / (1.0 - rate)
            y = ad.matmul(ad.mul(x, t.leaf(mask)), w)
        leaves = {"x": [x], "w": [w], "xw": [x, w], None: None}[wrt]
        backward(ad.sum_over_axis(ad.mul(y, t.leaf(weights))), wrt=leaves)
        return t, y, x, w

    t, y, x, w = run(fused=True)
    _, yc, xc, wc = run(fused=False)
    assert [n.kind for n in t.nodes[:3]] == ["leaf", "leaf", "dropout-matmul"]
    assert _bytes(y.data) == _bytes(yc.data)
    assert _bytes(x.grad) == _bytes(xc.grad)
    assert _bytes(w.grad) == _bytes(wc.grad)
    if wrt in ("xw", "x", None):
        assert not np.any(x.grad[~keep])
        assert np.signbit(x.grad[~keep]).any()  # dropped units carry signed zeros
    if wrt in ("x", "w"):
        assert (w if wrt == "x" else x).grad is None


def test_dropout_matmul_rejects_a_float_or_misshapen_keep_mask():
    t = Tape()
    x, w = t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2)))
    with pytest.raises(ValueError, match="boolean"):
        ad.dropout_matmul(x, w, np.ones((2, 3)), 2.0)
    with pytest.raises(ValueError, match="boolean"):
        ad.dropout_matmul(x, w, np.ones((1, 3), dtype=bool), 2.0)
    with pytest.raises(NonFiniteError):
        ad.dropout_matmul(x, w, np.ones((2, 3), dtype=bool), np.inf)


def test_attention_map_keeps_the_matmul_scale_and_mask_finite_checks():
    t = Tape()
    q = t.leaf([[1e200, 1.0]])
    k = t.leaf([[1e200, 1.0]])
    with pytest.raises(NonFiniteError, match="matmul"):
        ad.attention_map(q, k)
    big = t.leaf([[1e308, 0.0]])
    one = t.leaf([[1.0, 0.0]])
    with pytest.raises(NonFiniteError, match="scale"), np.errstate(over="ignore"):
        ad.attention_map(big, one, factor=10.0)
    with pytest.raises(NonFiniteError, match="add"):
        ad.attention_map(big, one, mask=np.array([1e308]))
    with pytest.raises(ValueError, match="widths differ"):
        ad.attention_map(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 4))))


def test_epsilon_lrp_has_no_rule_for_the_fused_attention_and_dropout_nodes():
    from icuxai.attribution import relevance_propagate

    rng = np.random.default_rng(23)
    t = Tape()
    x = t.leaf(rng.normal(size=(2, 3, 4)))
    p = ad.attention_map(x, x, factor=0.5)
    with pytest.raises(ValueError, match="no rule for primitive 'attention-map'"):
        relevance_propagate(ad.sum_over_axis(p), {"x": x})
    t = Tape()
    x = t.leaf(rng.normal(size=(2, 3, 4)))
    y = ad.dropout_matmul(x, t.leaf(rng.normal(size=(4, 2))),
                          rng.random((2, 3, 4)) < 0.5, 2.0)
    with pytest.raises(ValueError, match="no rule for primitive 'dropout-matmul'"):
        relevance_propagate(ad.sum_over_axis(y), {"x": x})


def test_scaled_masked_softmax_keeps_the_scale_and_mask_finite_checks():
    t = Tape()
    x = t.leaf([[1e308, 1.0]])
    with pytest.raises(NonFiniteError, match="scale"), np.errstate(over="ignore"):
        ad.softmax_over_axis(x, factor=10.0)
    with pytest.raises(NonFiniteError, match="add"):
        ad.softmax_over_axis(x, mask=np.array([1e308, 0.0]))
    with pytest.raises(NonFiniteError):
        ad.softmax_over_axis(x, factor=np.inf)


def test_detach_is_bitwise_identity_in_forward():
    t = Tape()
    x = t.leaf(RNG.normal(size=(5, 3)))
    d = ad.detach(x)
    assert np.array_equal(d.data, x.data)


def test_detach_blocks_gradient():
    # y = sum(detach(x) * x): only the undetached factor contributes
    t = Tape()
    x = t.leaf([3.0])
    y = ad.sum_over_axis(ad.mul(ad.detach(x), x))
    backward(y)
    assert np.array_equal(x.grad, [3.0])


def test_gradient_through_detach_path_is_exactly_zero():
    t = Tape()
    x = t.leaf(RNG.normal(size=(4,)))
    d = ad.detach(ad.exp(x))
    z = t.leaf(RNG.normal(size=(4,)))
    y = ad.sum_over_axis(ad.mul(d, z))
    backward(y)
    assert x.grad is None  # nothing ever flowed into the detached branch
    assert z.grad is not None


# --- error conditions ------------------------------------------------------

def test_division_by_zero_is_a_hard_error():
    t = Tape()
    a = t.leaf([1.0])
    b = t.leaf([0.0])
    with pytest.raises(NonFiniteError):
        ad.div(a, b)


def test_log_of_nonpositive_is_a_hard_error():
    t = Tape()
    with pytest.raises(NonFiniteError):
        ad.log(t.leaf([0.0]))
    with pytest.raises(NonFiniteError):
        ad.log(t.leaf([-1.0]))


def test_exp_overflow_is_a_hard_error():
    t = Tape()
    with pytest.raises(NonFiniteError):
        ad.exp(t.leaf([1000.0]))


def test_leaf_rejects_non_finite_input():
    with pytest.raises(NonFiniteError):
        Tape().leaf([np.nan])


def test_slice_out_of_range_raises():
    t = Tape()
    x = t.leaf(np.zeros((3, 4)))
    with pytest.raises(IndexError):
        ad.slice_(x, (5, slice(None)))
    with pytest.raises(IndexError):
        ad.slice_(x, (slice(None), slice(0, 9)))


def test_concat_shape_mismatch_raises():
    t = Tape()
    a = t.leaf(np.zeros((2, 3)))
    b = t.leaf(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        ad.concat([a, b], axis=0)


def test_reshape_size_mismatch_raises():
    t = Tape()
    with pytest.raises(ValueError):
        ad.reshape(t.leaf(np.zeros((2, 3))), (4, 2))


def test_gather_rows_index_out_of_range_raises():
    t = Tape()
    table = t.leaf(np.zeros((5, 2)))
    with pytest.raises(IndexError):
        ad.gather_rows(table, np.array([0, 5]))


def test_matmul_inner_dim_mismatch_raises():
    t = Tape()
    with pytest.raises(ValueError):
        ad.matmul(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((4, 2))))


def test_cross_tape_operands_raise():
    a = Tape().leaf([1.0])
    b = Tape().leaf([2.0])
    with pytest.raises(TapeError):
        ad.add(a, b)


# --- backward bookkeeping ---------------------------------------------------

def test_backward_twice_without_reset_raises():
    t = Tape()
    x = t.leaf([2.0])
    y = ad.sum_over_axis(ad.mul(x, x))
    backward(y)
    with pytest.raises(TapeError):
        backward(y)


def test_reset_grads_allows_second_backward_with_identical_result():
    t = Tape()
    x = t.leaf(RNG.normal(size=(3,)))
    y = ad.sum_over_axis(ad.exp(x))
    backward(y)
    first = x.grad.copy()
    t.reset_grads()
    backward(y)
    assert np.array_equal(first, x.grad)


def test_backward_on_non_scalar_requires_seed():
    t = Tape()
    x = t.leaf(RNG.normal(size=(3,)))
    y = ad.exp(x)
    with pytest.raises(TapeError):
        backward(y)
    t.reset_grads()
    backward(y, seed=np.ones(3))
    assert np.allclose(x.grad, np.exp(x.data))


def test_backward_is_deterministic():
    def run():
        t = Tape()
        x = t.leaf(np.linspace(-1, 1, 12).reshape(3, 4))
        w = t.leaf(np.linspace(0.5, 1.0, 8).reshape(4, 2))
        h = ad.softmax_over_axis(ad.matmul(x, w), axis=-1)
        y = ad.sum_over_axis(ad.mul(h, h))
        backward(y)
        return x.grad.copy()

    assert np.array_equal(run(), run())


def test_tape_is_append_only_topological():
    t = Tape()
    a = t.leaf([1.0])
    b = ad.exp(a)
    c = ad.add(a, b)
    assert a.node_id < b.node_id < c.node_id
    for nid, node in enumerate(t.nodes):
        assert all(pid < nid for pid in node.inputs)


# --- map-sized kernels on threads --------------------------------------------
#
# Geometries above the split size: a map of 2 * 4 MiB or more splits over
# two threads. Each run compares W = 2 with W = 1 and with the unfused
# chain of the serial primitives, for values and for strides.

SPLIT_GEOMETRIES = {
    "batch-split": (2, 2, 512),   # (batch, heads, L): cut along the batch
    "head-split": (1, 4, 513),    # one record: cut along the heads
    "uneven-batch": (3, 2, 420),  # 3 records, 2 heads: the heads divide evenly
}


@pytest.fixture
def spy_runs(monkeypatch):
    """The ``workers`` of every ``_in_order`` call, in call order."""
    runs = []
    real = ad._in_order

    def in_order(fn, items, workers):
        runs.append(workers)
        return real(fn, items, workers)

    monkeypatch.setattr(ad, "_in_order", in_order)
    return runs


def _attention_step(batch, heads, length, fused, hw=8, rate=0.25):
    """One attention forward and full backward, as ``MultiHeadAttention``
    records it: biased q, k, v projections cut into strided head views, a
    padding mask, the map, its dropout and the product with v."""
    rng = np.random.default_rng(batch * 1000 + length)
    width = heads * hw
    xs = [rng.normal(size=(batch, length, width)) for _ in range(3)]
    bs = [rng.normal(size=width) for _ in range(3)]
    valid = np.arange(length) < length - 37 * np.arange(1, batch + 1)[:, None]
    mask = np.where(valid, 0.0, -1e9)[:, None, None, :]
    keep = rng.random((batch, heads, length, length)) < 1.0 - rate
    weights = rng.normal(size=(batch, heads, length, hw))
    t = Tape()
    leaves = [t.leaf(x) for x in xs]
    biases = [t.leaf(b) for b in bs]
    q, k, v = (_split_heads(ad.add(x, b), batch, length, heads)
               for x, b in zip(leaves, biases))
    factor = 1.0 / np.sqrt(hw)
    if fused:
        p = ad.attention_map(q, k, factor=factor, mask=mask)
        mixed = ad.dropout_matmul(p, v, keep, 1.0 / (1.0 - rate))
    else:
        p = ad.softmax_over_axis(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                                 axis=-1, factor=factor, mask=mask)
        drop = t.leaf(keep.astype(np.float64) / (1.0 - rate))
        mixed = ad.matmul(ad.mul(p, drop), v)
    backward(ad.sum_over_axis(ad.mul(mixed, t.leaf(weights))))
    named = {"p": p.data, "mixed": mixed.data, "q.grad": q.grad, "k.grad": k.grad,
             "v.grad": v.grad}
    for name, leaf in zip("qkv", leaves):
        named[f"x{name}.grad"] = leaf.grad
    for name, leaf in zip("qkv", biases):
        named[f"b{name}.grad"] = leaf.grad
    return named


def _assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for name in want:
        a, b = got[name], want[name]
        assert (a.shape, a.strides) == (b.shape, b.strides), name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("geometry", list(SPLIT_GEOMETRIES))
def test_split_kernels_give_the_serial_bits_and_layouts(geometry, pin_threads,
                                                        spy_runs):
    batch, heads, length = SPLIT_GEOMETRIES[geometry]
    assert batch * heads * length * length * 8 >= 2 * ad._SPLIT_BYTES
    pin_threads(1)
    serial = _attention_step(batch, heads, length, fused=True)
    unfused = _attention_step(batch, heads, length, fused=False)
    assert spy_runs == []
    pin_threads(2)
    split = _attention_step(batch, heads, length, fused=True)
    # the map, the dropout product and both of their VJPs each ran on two
    # threads
    assert spy_runs == [2] * 4
    _assert_same_arrays(split, serial)
    _assert_same_arrays(split, unfused)
    # the k-gradient is the transposed view of a contiguous (hw, L) product
    assert not split["k.grad"].flags.c_contiguous


def test_maps_below_the_split_size_stay_on_the_calling_thread(pin_threads, spy_runs):
    pin_threads(8)
    # 4 MiB is the least a piece takes: a map under 8 MiB does not split
    batch, heads, length = 1, 4, 480  # 7.4 MB
    _attention_step(batch, heads, length, fused=True)
    assert spy_runs == []
    # at 8 threads an 8.4 MB map still splits in two 4.2 MB pieces
    _attention_step(1, 4, 513, fused=True)
    assert spy_runs == [2] * 4


def test_a_split_map_raises_the_kind_the_serial_map_fails_first(pin_threads):
    # record 0 (the calling thread's piece) overflows at the padding mask,
    # record 1 (the pool thread's piece) already at the product; the whole
    # map fails its product check first
    length, hw = 512, 8
    q = np.zeros((2, 2, length, hw))
    k = np.zeros((2, 2, length, hw))
    q[0, :, :, 0] = k[0, :, :, 0] = 1e154
    q[1, :, :, 0] = k[1, :, :, 0] = 1e200
    mask = np.zeros((2, 1, 1, length))
    mask[0] = 1.7e308
    kinds = {}
    before = threading.active_count()
    for threads in (1, 2):
        pin_threads(threads)
        t = Tape()
        with pytest.raises(NonFiniteError) as caught:
            ad.attention_map(t.leaf(q), t.leaf(k), mask=mask)
        kinds[threads] = caught.value.kind
        assert "'matmul'" in str(caught.value)
        assert threading.active_count() == before
    assert kinds == {1: "matmul", 2: "matmul"}
    # with record 1 finite, both read the mask's check
    q[1], k[1] = 0.0, 0.0
    for threads in (1, 2):
        pin_threads(threads)
        t = Tape()
        with pytest.raises(NonFiniteError, match="'add'"):
            ad.attention_map(t.leaf(q), t.leaf(k), mask=mask)


@pytest.mark.parametrize("kernel", ["forward", "vjp"])
def test_an_error_on_the_pool_thread_surfaces_unchanged_and_the_pool_is_joined(
        kernel, pin_threads, monkeypatch):
    pin_threads(2)
    rng = np.random.default_rng(31)
    x0 = rng.normal(size=(2, 2, 512, 512))
    w0 = rng.normal(size=(2, 2, 512, 8))
    keep = rng.random(x0.shape) < 0.8
    error = NonFiniteError("planted")
    real_dropped = ad._dropped
    caller = threading.current_thread()

    def dropped(x, keep, factor):
        if threading.current_thread() is not caller:
            raise error
        return real_dropped(x, keep, factor)

    t = Tape()
    x, w = t.leaf(x0), t.leaf(w0)
    if kernel == "vjp":
        y = ad.dropout_matmul(x, w, keep, 1.25)
    monkeypatch.setattr(ad, "_dropped", dropped)
    before = threading.active_count()
    with pytest.raises(NonFiniteError) as caught:
        if kernel == "forward":
            ad.dropout_matmul(x, w, keep, 1.25)
        else:
            backward(ad.sum_over_axis(y))
    assert caught.value is error
    assert threading.active_count() == before


# --- pruned backward (wrt) ---------------------------------------------------

def _small_graph():
    """x feeds the output through a matmul, a detached softmax and a
    division; w, the mask and everything computed from them alone do not
    lie on a path from x."""
    t = Tape()
    x = t.leaf(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
    w = t.leaf(np.linspace(0.5, 1.5, 8).reshape(4, 2))
    mask = t.leaf(np.array([[0.0, -3.0]]))
    scores = ad.add(ad.matmul(x, w), mask)
    p = ad.detach(ad.softmax_over_axis(scores, axis=-1))
    denom = ad.sqrt(ad.add(ad.mul(w, w), 1.0))
    h = ad.div(ad.matmul(x, denom), ad.add(ad.exp(w).sum(), 1.0))
    y = ad.sum_over_axis(ad.mul(ad.relu(ad.mul(h, p)), h))
    return t, x, w, y


def test_backward_wrt_grads_match_full_backward_bitwise():
    t, x, w, y = _small_graph()
    backward(y)
    full = [None if g is None else g.copy() for g in t.grads]
    t.reset_grads()
    backward(y, wrt=[x])
    assert np.array_equal(x.grad, full[x.node_id])
    t.reset_grads()
    backward(y, wrt=[x, w])
    assert np.array_equal(x.grad, full[x.node_id])
    assert np.array_equal(w.grad, full[w.node_id])


def test_backward_wrt_leaves_off_path_nodes_without_grad():
    t, x, w, y = _small_graph()
    backward(y, wrt=[x])
    on_path = {x.node_id}
    for nid, node in enumerate(t.nodes):
        if node.kind != "detach" and any(pid in on_path for pid in node.inputs):
            on_path.add(nid)
    assert w.grad is None
    assert [nid for nid, g in enumerate(t.grads)
            if g is not None and nid not in on_path] == []
    detached = [nid for nid, node in enumerate(t.nodes) if node.kind == "detach"]
    assert detached and all(t.grads[nid] is None for nid in detached)


def test_backward_wrt_frees_every_expanded_buffer_but_the_wrt_tensors():
    t, x, w, y = _small_graph()
    backward(y)
    full = list(t.grads)
    inner = y.node_id - 1  # the product under the final sum: a non-leaf wrt tensor
    # a full backward keeps the buffers of the nodes it expanded
    assert full[y.node_id] is not None and full[inner] is not None
    for wrt in ([x], [x, w], [x, ad.Tensor(t, inner, t.values[inner])]):
        t.reset_grads()
        backward(y, wrt=wrt)
        kept = {v.node_id for v in wrt}
        for nid, g in enumerate(t.grads):
            if nid in kept:
                assert np.array_equal(g, full[nid])
            elif t.nodes[nid].kind != "leaf":
                assert g is None, (nid, t.nodes[nid].kind)


def test_backward_wrt_rejects_tensor_from_another_tape():
    _, _, _, y = _small_graph()
    other = Tape().leaf([1.0])
    with pytest.raises(TapeError):
        backward(y, wrt=[other])


def test_backward_wrt_does_not_expand_a_root_with_no_input_on_the_path(monkeypatch):
    # an embedding lookup probed as a wrt tensor: its table is off the
    # path, so the scatter into a table-sized gradient never runs
    t = Tape()
    table = t.leaf(np.arange(12.0).reshape(6, 2))
    emb = ad.gather_rows(table, np.array([[1, 4, 4]]))
    y = ad.sum_over_axis(ad.mul(emb, emb))
    calls = []
    real = ad._VJPS["gather-rows"]
    monkeypatch.setitem(ad._VJPS, "gather-rows",
                        lambda *a: calls.append(a[1]) or real(*a))
    backward(y, wrt=[emb])
    assert calls == []
    assert np.array_equal(emb.grad, 2.0 * emb.data)
    assert table.grad is None
    t.reset_grads()
    backward(y)
    assert calls == [emb.node_id]


def _desk_net_and_batch():
    from icuxai.model import ModelConfig, TriModalNet
    from icuxai.records import CLS_ID, PAD_ID

    net = TriModalNet(ModelConfig(
        width=16, heads=2, ffn_width=32, dropout=0.1, event_blocks=1,
        note_blocks=1, vitals_blocks=1, event_hours=12, event_dim=10,
        note_len=24, vocab_size=60, vitals_steps=24, vitals_channels=6,
        fusion_hidden=16, seed=3))
    rng = np.random.default_rng(5)
    events = rng.normal(size=(4, 12, 10))
    notes = np.full((4, 24), PAD_ID, dtype=np.int64)
    notes[:, 0] = CLS_ID
    notes[:, 1:15] = rng.integers(3, 60, size=(4, 14))
    vitals = rng.normal(size=(4, 24, 6))
    return net, events, notes, vitals


def test_backward_wrt_params_matches_full_backward_on_model_loss():
    from icuxai.blocks import Context
    from icuxai.training import weighted_ce_from_logits

    net, events, notes, vitals = _desk_net_and_batch()
    labels = np.array([0, 1, 0, 1])

    def loss_on_tape(wrt_params):
        ctx = Context(tape=Tape(), params=net.params,
                      rng=np.random.default_rng(11))  # same dropout masks
        logits = net.forward(ctx, events, notes, vitals)
        loss = weighted_ce_from_logits(logits, labels, 1.5)
        backward(loss, wrt=ctx.param_leaves() if wrt_params else None)
        return ctx

    full = loss_on_tape(False)
    pruned = loss_on_tape(True)
    assert sorted(pruned.param_grads()) == sorted(full.param_grads()) \
        == sorted(net.params.names())
    for name, g in full.param_grads().items():
        assert np.array_equal(pruned.param_grads()[name], g), name
    # the data leaves, masks and positional tables get no gradient
    named = {t.node_id for t in pruned.param_leaves()}
    for nid, node in enumerate(pruned.tape.nodes):
        if node.kind == "leaf" and nid not in named:
            assert pruned.tape.grads[nid] is None


def test_model_forward_holds_one_map_per_attention_and_no_mask_leaf():
    # q @ k^T, scale, padding mask and softmax are one attention-map node,
    # and each dropout is a boolean mask inside the next product: of the
    # attention-sized values only the map p stays on the tape, with or
    # without dropout, and every leaf is a parameter, a data grid, a
    # positional table or a LayerNorm epsilon
    from icuxai.blocks import Context

    net, events, notes, vitals = _desk_net_and_batch()
    heads = net.config.heads
    for rng in (None, np.random.default_rng(11)):
        ctx = Context(tape=Tape(), params=net.params, rng=rng)
        net.forward(ctx, events, notes, vitals)
        tape = ctx.tape
        for length in (12, 24):  # events have L = 12; notes and vitals share L = 24
            kinds = [node.kind for node, v in zip(tape.nodes, tape.values)
                     if v.shape == (4, heads, length, length)]
            attentions = 1 if length == 12 else 2
            assert kinds == ["attention-map"] * attentions
        params = {t.node_id for t in ctx.param_leaves()}
        other_leaves = [tape.values[nid].shape for nid, node in enumerate(tape.nodes)
                        if node.kind == "leaf" and nid not in params]
        # two LayerNorms per block, three blocks
        assert sorted(other_leaves) == sorted(
            [events.shape, vitals.shape, (12, 16), (24, 16)] + [(1,)] * 6)
        fused = [node for node in tape.nodes if node.kind == "dropout-matmul"]
        # one in each block's attention and one in its FFN
        assert len(fused) == (0 if rng is None else 6)
        assert all(node.ctx["keep"].dtype == np.bool_ for node in fused)
        assert not {node.kind for node in tape.nodes} & {"broadcast",
                                                         "softmax-over-axis"}


# --- non-recording tapes ----------------------------------------------------

def test_non_recording_tape_keeps_no_node_through_a_model_forward():
    from icuxai.blocks import Context

    net, events, notes, vitals = _desk_net_and_batch()
    for mode in ("standard", "attribution"):
        tape = Tape(record=False)
        logits = net.forward(Context(tape=tape, params=net.params, mode=mode),
                             events, notes, vitals)
        assert logits.shape == (4, 2)
        assert len(tape) == 0 and tape.values == [] and tape.grads == []


def test_non_recording_tape_refuses_backward_relevance_and_grad():
    from icuxai.attribution import relevance_propagate

    tape = Tape(record=False)
    x = tape.leaf(np.array([1.0, 2.0]))
    y = ad.sum_over_axis(ad.mul(x, x))
    assert float(y.data) == 5.0
    with pytest.raises(TapeError, match="recording tape"):
        backward(y)
    with pytest.raises(TapeError, match="recording tape"):
        backward(y, wrt=[x])
    with pytest.raises(TapeError, match="recording tape"):
        relevance_propagate(y, {"x": x})
    with pytest.raises(TapeError, match="recording tape"):
        _ = x.grad


def test_non_recording_tape_keeps_the_finite_checks():
    tape = Tape(record=False)
    with pytest.raises(NonFiniteError):
        tape.leaf(np.array([1.0, np.inf]))
    x = tape.leaf(np.array([0.0, 1.0]))
    with pytest.raises(NonFiniteError):
        ad.div(tape.leaf(np.ones(2)), x)
    with pytest.raises(NonFiniteError):
        ad.exp(ad.scale(tape.leaf(np.array([800.0])), 1.0))
    with pytest.raises(NonFiniteError):
        ad.softmax_over_axis(x, factor=np.inf)


# --- gradient correctness versus central differences ------------------------

def _fd_scalar_cases():
    """(name, builder) pairs; builder maps a leaf Tensor to a scalar Tensor."""
    rngw = np.random.default_rng(7)
    w_small = rngw.normal(size=(4, 3))
    idx = np.array([[0, 2], [1, 1]])
    keep = np.array([[True, False, True, True], [True, True, False, True],
                     [False, True, True, True]])

    def red(y):
        return ad.sum_over_axis(ad.mul(y, y)) if y.data.size > 1 or y.data.ndim \
            else y

    return [
        ("add", (3, 4), lambda x: red(ad.add(x, ad.scale(x, 0.5)))),
        ("sub", (3, 4), lambda x: red(ad.sub(ad.scale(x, 2.0), x))),
        ("mul", (3, 4), lambda x: red(ad.mul(x, ad.add(x, x)))),
        ("div", (3, 4), lambda x: red(ad.div(x, ad.add(ad.mul(x, x), x.tape.leaf(np.full((3, 4), 2.0)))))),
        ("matmul", (2, 4), lambda x: red(ad.matmul(x, x.tape.leaf(w_small)))),
        ("transpose", (2, 3), lambda x: red(ad.transpose(x, (1, 0)))),
        ("reshape", (2, 6), lambda x: red(ad.reshape(x, (3, 4)))),
        ("concat", (2, 3), lambda x: red(ad.concat([x, ad.scale(x, -1.0)], axis=1))),
        ("slice", (4, 5), lambda x: red(ad.slice_(x, (slice(1, 3), slice(None, None, 2))))),
        ("sum-over-axis", (3, 4), lambda x: ad.sum_over_axis(ad.mul(x, x))),
        ("mean-over-axis", (3, 4), lambda x: red(ad.mean_over_axis(x, axis=1))),
        ("max-over-axis", (3, 4), lambda x: red(ad.max_over_axis(x, axis=0))),
        ("exp", (3, 3), lambda x: red(ad.exp(x))),
        ("log", (3, 3), lambda x: red(ad.log(ad.add(ad.mul(x, x), x.tape.leaf(np.ones((3, 3))))))),
        ("sqrt", (3, 3), lambda x: red(ad.sqrt(ad.add(ad.mul(x, x), x.tape.leaf(np.ones((3, 3))))))),
        ("relu", (3, 4), lambda x: red(ad.relu(x))),
        ("softmax-over-axis", (3, 4), lambda x: red(ad.softmax_over_axis(x, axis=-1))),
        ("softmax-over-axis-scaled-masked", (3, 4), lambda x: red(ad.softmax_over_axis(
            x, axis=-1, factor=0.7, mask=np.array([0.0, -2.0, 0.0, -1e9])))),
        ("attention-map", (2, 2, 3, 4), lambda x: red(ad.attention_map(
            x, ad.scale(x, 0.5), factor=0.7,
            mask=np.array([[0.0, 0.0, -1e9], [0.0, -1e9, -1e9]])[:, None, None, :]))),
        ("dropout-matmul", (3, 4), lambda x: red(ad.dropout_matmul(
            x, ad.transpose(x, (1, 0)), keep, 1.0 / 0.75))),
        ("scale", (3, 4), lambda x: red(ad.scale(x, -2.5))),
        ("broadcast", (1, 4), lambda x: red(ad.broadcast_to(x, (3, 4)))),
        ("gather-rows", (4, 3), lambda x: red(ad.gather_rows(x, idx))),
    ]


def _top_two_gap(point, axis):
    top = np.sort(point, axis=axis)
    return np.min(np.take(top, -1, axis=axis) - np.take(top, -2, axis=axis))


@pytest.mark.parametrize("name,shape,builder", _fd_scalar_cases(),
                         ids=[c[0] for c in _fd_scalar_cases()])
def test_every_primitive_matches_central_differences(name, shape, builder):
    # a stable per-case seed: str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(100):
        # keep coordinates away from zero so the relative-error metric is
        # well conditioned (and away from relu's kink)
        while True:
            point = rng.uniform(0.3, 1.4, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            # a near-tie would let the 1e-5 step flip max's argmax
            if name != "max-over-axis" or _top_two_gap(point, axis=0) >= 1e-3:
                break
        worst = max(worst, grad_check(builder, point, step=1e-5))
    assert worst < 1e-4, f"{name}: max rel error {worst}"


def test_max_splits_the_gradient_evenly_across_ties():
    t = Tape()
    x = t.leaf([[1.0, 3.0], [1.0, 0.0], [0.5, 3.0]])
    backward(ad.sum_over_axis(ad.max_over_axis(x, axis=0)))
    assert np.array_equal(x.grad, [[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])


def test_grad_check_quadratic_example():
    err = grad_check(lambda x: ad.sum_over_axis(ad.mul(x, x)),
                     np.array([3.0]), step=1e-4)
    assert err < 1e-6


def test_grad_check_linear_is_near_exact():
    w = np.array([2.0, -1.0, 0.5])
    err = grad_check(
        lambda x: ad.sum_over_axis(ad.mul(x, x.tape.leaf(w))),
        np.array([1.0, 2.0, 3.0]), step=1e-4)
    assert err < 1e-9


def test_grad_check_rejects_bad_step():
    f = lambda x: ad.sum_over_axis(x)
    with pytest.raises(ValueError):
        grad_check(f, np.array([1.0]), step=1e-7)
    with pytest.raises(ValueError):
        grad_check(f, np.array([1.0]), step=1e-2)


def test_grad_check_requires_scalar_function():
    with pytest.raises(ValueError):
        grad_check(lambda x: ad.exp(x), np.array([1.0, 2.0]))


def test_multi_use_of_same_node_accumulates():
    t = Tape()
    x = t.leaf([2.0])
    y = ad.sum_over_axis(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
    backward(y)
    assert np.allclose(x.grad, [5.0])


def test_broadcast_gradient_reduces_to_source_shape():
    t = Tape()
    bias = t.leaf(np.array([1.0, 2.0, 3.0]))
    big = t.leaf(RNG.normal(size=(4, 3)))
    y = ad.sum_over_axis(ad.add(big, bias))
    backward(y)
    assert bias.grad.shape == (3,)
    assert np.array_equal(bias.grad, [4.0, 4.0, 4.0])


_BINARY_OPS = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "div": ad.div}


def _binary_graph(op, shape_a, shape_b, explicit):
    """y = sum(w * op(a, b)^2) with ``a``/``b`` broadcast natively or, for
    ``explicit``, through recorded ``broadcast_to`` nodes."""
    rng = np.random.default_rng(17)
    t = Tape()
    a = t.leaf(rng.uniform(0.5, 2.0, size=shape_a))
    b = t.leaf(rng.uniform(0.5, 2.0, size=shape_b))
    out_shape = np.broadcast_shapes(shape_a, shape_b)
    if explicit:
        a_op = a if a.shape == out_shape else ad.broadcast_to(a, out_shape)
        b_op = b if b.shape == out_shape else ad.broadcast_to(b, out_shape)
    else:
        a_op, b_op = a, b
    z = _BINARY_OPS[op](a_op, b_op)
    w = t.leaf(rng.normal(size=out_shape))
    y = ad.sum_over_axis(ad.mul(ad.mul(z, z), w))
    return t, a, b, z, y


@pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((3, 4), (3, 1)),
                                    ((3, 1), (1, 4)), ((1, 4), (2, 3, 4)),
                                    ((2, 3, 4), ())],
                         ids=["row", "column", "outer", "rank", "scalar"])
@pytest.mark.parametrize("op", sorted(_BINARY_OPS))
def test_broadcasting_binary_op_matches_explicit_broadcast_bitwise(op, shapes):
    t, a, b, z, y = _binary_graph(op, *shapes, explicit=False)
    te, ae, be, ze, ye = _binary_graph(op, *shapes, explicit=True)
    assert "broadcast" not in {node.kind for node in t.nodes}
    assert "broadcast" in {node.kind for node in te.nodes}
    assert np.array_equal(z.data, ze.data)
    backward(y)
    backward(ye)
    for native, explicit in ((a, ae), (b, be)):
        assert native.grad.shape == native.shape
        assert np.array_equal(native.grad, explicit.grad)
    for leaf, explicit in ((a, ae), (b, be)):
        t.reset_grads()
        te.reset_grads()
        backward(y, wrt=[leaf])
        backward(ye, wrt=[explicit])
        assert np.array_equal(leaf.grad, explicit.grad)


def test_operator_sugar_matches_functions():
    t = Tape()
    x = t.leaf([[1.0, -2.0]])
    y = (-x * 2.0 + 1.0) / 2.0
    assert np.allclose(y.data, [[-0.5, 2.5]])
    z = x @ t.leaf(np.array([[1.0], [1.0]]))
    assert np.allclose(z.data, [[-1.0]])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_mul_grad_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols)) + 0.1
    err = grad_check(lambda x: ad.sum_over_axis(ad.mul(x, x)), a, step=1e-5)
    assert err < 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_softmax_grad_property(width, seed):
    rng = np.random.default_rng(seed)
    point = rng.normal(size=(2, width)) * 2.0
    weights = rng.uniform(0.5, 2.0, size=(2, width))  # fixed across evaluations
    err = grad_check(
        lambda x: ad.sum_over_axis(ad.mul(ad.softmax_over_axis(x, -1),
                                          x.tape.leaf(weights))),
        point, step=1e-5)
    assert err < 1e-4
