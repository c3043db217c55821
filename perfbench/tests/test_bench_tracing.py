"""Span bookkeeping: self times, parents, request ids, patch hygiene."""

import numpy as np

import tracing
from icuxai import autodiff, blocks, perturbation, training


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    tr = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tr.begin("root")
    a = tr.begin("a")
    c = tr.begin("c")
    tr.end(c)
    tr.end(a)
    b = tr.begin("b")
    tr.end(b)
    tr.end(root)
    names, dur, own, parents = tr.arrays()
    assert list(names) == ["root", "a", "c", "b"]
    assert list(parents) == [-1, 0, 1, 0]
    np.testing.assert_allclose(dur, [10, 3, 1, 4])
    np.testing.assert_allclose(own, [3, 2, 1, 4])
    # self times tile the root interval exactly
    assert own.sum() == dur[0]


def test_request_ids_new_restores_and_step_persists():
    tr = tracing.Tracer()
    outer = tr.begin("train")
    s1 = tr.begin("forward", "step")
    tr.end(s1)
    loss = tr.begin("loss")          # same step as the forward before it
    tr.end(loss)
    p = tr.begin("predict", "new")
    inner = tr.begin("forward")
    tr.end(inner)
    tr.end(p)
    after = tr.begin("adam")         # back to the step's id
    tr.end(after)
    s2 = tr.begin("forward", "step")
    tr.end(s2)
    tr.end(outer)
    assert tr.requests == [0, 1, 1, 2, 2, 1, 3]


def test_installed_patches_callers_and_restores_originals():
    originals = (autodiff.matmul, training.auc_roc, perturbation.auc_roc,
                 blocks.TransformerBlock.forward, autodiff.Tape.leaf)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        assert autodiff.matmul is not originals[0]
        assert perturbation.auc_roc is not originals[2]
        tape = autodiff.Tape()
        x = tape.leaf(np.ones((2, 2)))
        autodiff.matmul(x, x)
    assert (autodiff.matmul, training.auc_roc, perturbation.auc_roc,
            blocks.TransformerBlock.forward, autodiff.Tape.leaf) == originals
    assert tr.names == ["autodiff.leaf", "autodiff.fwd.matmul"]
    assert tr.counters["autodiff.nodes"] == 2


def test_block_parts_split_the_block_span():
    tr = tracing.Tracer(clock=FakeClock(0, 1, 4, 5, 6, 7, 8, 10))
    blk = tr.begin("blocks.notes.block")
    attn = tr.begin("blocks.notes.attn")
    tr.end(attn)
    ln = tr.begin("blocks.layernorm")
    tr.end(ln)
    ffn = tr.begin("blocks.linear")
    tr.end(ffn)
    tr.end(blk)
    m = tracing.layer_metrics(tr)
    assert m["blocks.notes.attn_fwd_s"] == 3
    assert m["blocks.notes.ln_fwd_s"] == 1
    assert m["blocks.notes.ffn_fwd_s"] == 1
    assert m["blocks.notes.block_self_s"] == 10 - 5
    assert m["blocks.events.attn_fwd_s"] == 0


def test_layer_metrics_cover_every_declared_name():
    m = tracing.layer_metrics(tracing.Tracer())
    declared = {name for name, _, _ in tracing.PER_LAYER}
    assert declared - {"trace.overhead_s", "trace.overhead_pct"} == set(m)
