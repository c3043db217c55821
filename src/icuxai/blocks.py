"""Transformer building blocks on the autodiff tape.

Every block can run in one of two modes that share the same weights and
produce bit-identical forward values:

* ``standard`` — the ordinary network; gradients flow everywhere.
* ``attribution`` — two (and only two) stop-gradients are inserted:
  the post-softmax attention map is detached, and the layer-norm
  denominator ``sqrt(eps + var)`` is detached. Between those frozen
  mixing weights the network is locally linear, which is what makes
  gradient-times-input attributions (approximately) conservative.

Blocks use post-norm wiring: layer norm is applied after each
sub-layer's skip connection, as in the original encoder stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

MODES = ("standard", "attribution")

#: additive attention-mask value for invalid key positions. Large enough
#: that exp(mask - max) underflows to exactly 0.0 in float64, so padded
#: positions receive literally zero attention weight.
MASK_VALUE = -1e9


class ParamStore:
    """Ordered name -> float64 ndarray registry for trainable weights."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> str:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._arrays[name] = np.ascontiguousarray(value, dtype=np.float64)
        return name

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._arrays:
            raise KeyError(name)
        self._arrays[name] = np.ascontiguousarray(value, dtype=np.float64)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._arrays.items()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        for k, v in state.items():
            self._arrays[k] = v.copy()


class FrozenState:
    """Captured attention maps and layer-norm denominators.

    Recording a forward pass in attribution mode stores the detached
    quantities in encounter order; replaying re-injects them as
    constants. The replayed function is exactly the locally-linear map
    whose gradients attribution mode computes, which lets us verify
    those gradients against finite differences.

    :meth:`replay` hands each replayed pass its own cursor over the
    stored arrays, so passes on several threads can replay one record.
    """

    def __init__(self):
        self.recording = True
        self._stores: dict[str, list[np.ndarray]] = {"attn": [], "ln": []}
        self._cursors: dict[str, int] = {"attn": 0, "ln": 0}

    def add(self, kind: str, value: np.ndarray) -> None:
        self._stores[kind].append(value)

    def take(self, kind: str) -> np.ndarray:
        i = self._cursors[kind]
        self._cursors[kind] = i + 1
        return self._stores[kind][i]

    def replay(self) -> "FrozenState":
        """A fresh replay cursor over the same stored arrays."""
        cursor = FrozenState()
        cursor.recording = False
        cursor._stores = self._stores
        return cursor


@dataclass
class Context:
    """Per-forward-pass state: the tape, mode, and optional extras."""

    tape: Tape
    params: ParamStore
    mode: str = "standard"
    rng: np.random.Generator | None = None  # dropout source; None disables dropout
    capture: dict[str, list[np.ndarray]] | None = None  # encoder -> attention maps
    frozen: FrozenState | None = None
    #: scales the modality inputs (integrated gradients): a float scales
    #: the whole batch, a 1-D array of one factor per batch row scales
    #: each row by its own factor
    input_scale: float | np.ndarray | None = None
    probes: dict[str, Tensor] = field(default_factory=dict)
    _leaves: dict[str, Tensor] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def attribution(self) -> bool:
        return self.mode == "attribution"

    def param(self, name: str) -> Tensor:
        """Wrap a stored parameter as a tape leaf (once per tape)."""
        t = self._leaves.get(name)
        if t is None:
            t = self.tape.leaf(self.params[name])
            self._leaves[name] = t
        return t

    def param_leaves(self) -> list[Tensor]:
        """The tape leaves of every parameter touched by this pass."""
        return list(self._leaves.values())

    def param_grads(self) -> dict[str, np.ndarray]:
        """Gradients of every parameter touched by this pass (after backward)."""
        out = {}
        for name, tensor in self._leaves.items():
            if tensor.grad is not None:
                out[name] = tensor.grad
        return out

    def probe(self, name: str, t: Tensor) -> Tensor:
        """Mark a modality input point, applying the input scale if set.

        A per-row scale gives row ``i`` the same values that the float
        ``input_scale[i]`` gives that row alone.
        """
        if self.input_scale is not None:
            factor = np.asarray(self.input_scale, dtype=np.float64)
            if factor.ndim and factor.shape != t.data.shape[:1]:
                raise ValueError(f"input_scale of shape {factor.shape} does not give "
                                 f"one factor per row of {t.data.shape}")
            rows = np.broadcast_to(factor, t.data.shape[:1])
            rows = rows.reshape(rows.shape + (1,) * (t.ndim - 1))
            t = ad.mul(t, self.tape.leaf(rows))
        self.probes[name] = t
        return t


def xavier_uniform(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


@lru_cache(maxsize=16)
def sinusoidal_positions(length: int, width: int) -> np.ndarray:
    """Fixed positional code: (pos, 2i) -> sin, (pos, 2i+1) -> cos of
    pos / 10000^(2i/width). Requires an even width.

    The table is built once per shape and returned read-only, so passes
    running at once share one copy, as they share the parameters."""
    if width % 2 != 0:
        raise ValueError(f"positional width must be even, got {width}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(width // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / width)
    out = np.empty((length, width), dtype=np.float64)
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    out.flags.writeable = False
    return out


def pool_first(x: Tensor) -> Tensor:
    """Select the first sequence position (the [CLS]/summary row)."""
    return ad.slice_(x, (slice(None), 0))


def _dropout(ctx: Context, shape: tuple[int, ...], rate: float) -> np.ndarray | None:
    """Keep mask of inverted dropout: a boolean array of ``shape``, True
    where a unit is kept, drawn as ``rng.random(shape) < 1 - rate``. None
    when dropout is off: a zero rate, no rng, or attribution mode."""
    if rate <= 0.0 or ctx.rng is None or ctx.attribution:
        return None
    return ctx.rng.random(shape) < 1.0 - rate


def _dropout_matmul(ctx: Context, x: Tensor, w: Tensor, rate: float) -> Tensor:
    """``dropout(x) @ w``, with the dropout folded into the product as
    one ``dropout-matmul`` node; a plain ``matmul`` when dropout is off."""
    keep = _dropout(ctx, x.data.shape, rate)
    if keep is None:
        return ad.matmul(x, w)
    return ad.dropout_matmul(x, w, keep, 1.0 / (1.0 - rate))


@dataclass
class BlockConfig:
    """Structural configuration of one transformer block."""

    width: int
    heads: int
    ffn_width: int
    dropout: float = 0.0

    def __post_init__(self):
        if self.width % 2 != 0:
            raise ValueError("width must be even (sinusoidal positions interleave)")
        if self.width % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide width ({self.width})")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.ffn_width < 1:
            raise ValueError("ffn_width must be positive")


class Linear:
    """Affine map ``x @ W (+ b)`` with parameters held in a ParamStore."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator,
                 n_in: int, n_out: int, bias: bool = True):
        self.w = store.add(f"{prefix}.w", xavier_uniform(rng, n_in, n_out))
        self.b = store.add(f"{prefix}.b", np.zeros(n_out)) if bias else None
        self.n_in = n_in
        self.n_out = n_out

    def forward(self, ctx: Context, x: Tensor, dropout: float = 0.0) -> Tensor:
        """``dropout(x) @ W (+ b)``; ``dropout`` is the rate applied to
        ``x`` (active only in standard mode with an rng attached)."""
        out = _dropout_matmul(ctx, x, ctx.param(self.w), dropout)
        if self.b is not None:
            out = ad.add(out, ctx.param(self.b))
        return out


class LayerNorm:
    """Layer normalization over the last axis.

    In attribution mode the denominator sqrt(eps + var) is detached, so
    the layer acts as mean-centering followed by a fixed per-position
    rescale; the mean path keeps its (linear) gradient.
    """

    def __init__(self, store: ParamStore, prefix: str, width: int,
                 affine: bool = True, eps: float = 1e-5):
        self.affine = affine
        self.eps = float(eps)
        if affine:
            self.gain = store.add(f"{prefix}.gain", np.ones(width))
            self.shift = store.add(f"{prefix}.shift", np.zeros(width))

    def forward(self, ctx: Context, x: Tensor) -> Tensor:
        mu = ad.mean_over_axis(x, axis=-1, keepdims=True)
        centered = ad.sub(x, mu)
        replaying = (ctx.attribution and ctx.frozen is not None
                     and not ctx.frozen.recording)
        if replaying:
            denom = ctx.tape.leaf(ctx.frozen.take("ln"))
        else:
            var = ad.mean_over_axis(ad.mul(centered, centered), axis=-1, keepdims=True)
            denom = ad.sqrt(var + self.eps)
            if ctx.attribution:
                denom = ad.detach(denom)
                if ctx.frozen is not None:
                    ctx.frozen.add("ln", denom.data)
        out = ad.div(centered, denom)
        if self.affine:
            out = ad.add(ad.mul(out, ctx.param(self.gain)), ctx.param(self.shift))
        return out


class MultiHeadAttention:
    """Scaled dot-product self-attention with per-head projections.

    The ``q @ k^T`` product, the scaling, the additive padding mask and
    the softmax are one ``attention-map`` node, and the dropout of the map
    is folded into the ``p @ v`` product (a ``dropout-matmul`` node that
    keeps a boolean mask), so a recording tape holds one
    (batch, heads, L, L) value per attention: the map ``p``. The mask is a
    constant and gets no gradient. In attribution mode ``p`` is detached,
    so the value path stays differentiable while the query/key path
    receives exactly zero gradient.
    """

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator,
                 width: int, heads: int, bias: bool = True):
        self.width = width
        self.heads = heads
        self.head_width = width // heads
        self.wq = Linear(store, f"{prefix}.q", rng, width, width, bias)
        self.wk = Linear(store, f"{prefix}.k", rng, width, width, bias)
        self.wv = Linear(store, f"{prefix}.v", rng, width, width, bias)
        self.wo = Linear(store, f"{prefix}.out", rng, width, width, bias)

    def _split_heads(self, t: Tensor, batch: int, length: int) -> Tensor:
        t = ad.reshape(t, (batch, length, self.heads, self.head_width))
        return ad.transpose(t, (0, 2, 1, 3))

    def forward(self, ctx: Context, x: Tensor, attn_mask: np.ndarray | None = None,
                encoder: str = "", dropout: float = 0.0) -> Tensor:
        batch, length, width = x.data.shape
        if width != self.width:
            raise ValueError(f"attention width mismatch: {width} != {self.width}")
        v = self._split_heads(self.wv.forward(ctx, x), batch, length)

        replaying = (ctx.attribution and ctx.frozen is not None
                     and not ctx.frozen.recording)
        if replaying:
            p = ctx.tape.leaf(ctx.frozen.take("attn"))
        else:
            q = self._split_heads(self.wq.forward(ctx, x), batch, length)
            k = self._split_heads(self.wk.forward(ctx, x), batch, length)
            p = ad.attention_map(q, k, factor=1.0 / np.sqrt(self.head_width),
                                 mask=attn_mask)
            if ctx.capture is not None:
                ctx.capture.setdefault(encoder, []).append(p.data)
            if ctx.attribution:
                p = ad.detach(p)
                if ctx.frozen is not None:
                    ctx.frozen.add("attn", p.data)
        mixed = _dropout_matmul(ctx, p, v, dropout)  # (batch, heads, length, head_width)
        mixed = ad.transpose(mixed, (0, 2, 1, 3))
        mixed = ad.reshape(mixed, (batch, length, self.width))
        return self.wo.forward(ctx, mixed)


class TransformerBlock:
    """Post-norm encoder block: LN(x + MHA(x)) then LN(a + FFN(a))."""

    def __init__(self, store: ParamStore, prefix: str, rng: np.random.Generator,
                 cfg: BlockConfig, bias: bool = True, affine: bool = True):
        self.cfg = cfg
        self.attn = MultiHeadAttention(store, f"{prefix}.attn", rng,
                                       cfg.width, cfg.heads, bias)
        self.ln1 = LayerNorm(store, f"{prefix}.ln1", cfg.width, affine)
        self.ln2 = LayerNorm(store, f"{prefix}.ln2", cfg.width, affine)
        self.ffn1 = Linear(store, f"{prefix}.ffn1", rng, cfg.width, cfg.ffn_width, bias)
        self.ffn2 = Linear(store, f"{prefix}.ffn2", rng, cfg.ffn_width, cfg.width, bias)

    def forward(self, ctx: Context, x: Tensor, attn_mask: np.ndarray | None = None,
                encoder: str = "") -> Tensor:
        attended = self.attn.forward(ctx, x, attn_mask, encoder, self.cfg.dropout)
        a = self.ln1.forward(ctx, ad.add(x, attended))
        f = ad.relu(self.ffn1.forward(ctx, a))
        f = self.ffn2.forward(ctx, f, dropout=self.cfg.dropout)
        return self.ln2.forward(ctx, ad.add(a, f))


def additive_attention_mask(valid: np.ndarray) -> np.ndarray:
    """Turn a boolean (batch, length) validity mask into an additive
    (batch, 1, 1, length) array of 0 / MASK_VALUE. It is a constant of
    the attention-map node, not a tape value."""
    return np.where(valid, 0.0, MASK_VALUE)[:, None, None, :]
