"""Tri-modal mortality classifier: three encoders, late fusion.

Each modality gets its own transformer encoder stack:

* events — linear projection of the hourly grid into the model width,
  plus sinusoidal positions, then blocks; the representation is the
  first timestep after encoding;
* notes — trainable token embedding plus a learned position table,
  pad positions masked out of attention, pooled at [CLS];
* vitals — linear channel projection plus sinusoidal positions, pooled
  at the first timestep.

The three H-vectors are concatenated and passed through one
relu-hidden feed-forward layer to two class logits.

With ``bias_free=True`` every additive intercept is removed: linear
biases, layer-norm affine parameters, and the positional terms (a
position table is an intercept too — it shifts the output
independently of the input). In that configuration the attribution-mode
network is positively homogeneous, so gradient-times-input attributions
sum exactly to the logit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import fileio
from .autodiff import Tape, Tensor
from .blocks import (
    BlockConfig,
    Context,
    Linear,
    ParamStore,
    TransformerBlock,
    additive_attention_mask,
    pool_first,
    sinusoidal_positions,
)
from .errors import CheckpointError, SchemaError
from .records import (
    MODALITIES,
    PAD_ID,
    check_events,
    check_notes,
    check_vitals,
)

CHECKPOINT_VERSION = 1

#: bytes one forward pass may hold: every pass, inference or explaining,
#: takes as many rows as fit (see :meth:`TriModalNet.pass_rows`)
PASS_BYTES = 128 << 20


@dataclass
class ModelConfig:
    """Structural hyperparameters of the tri-modal network."""

    width: int = 64
    heads: int = 4
    ffn_width: int = 128
    dropout: float = 0.1
    event_blocks: int = 2
    note_blocks: int = 2
    vitals_blocks: int = 2
    event_hours: int = 24
    event_dim: int = 76
    note_len: int = 512
    vocab_size: int = 120
    vitals_steps: int = 480
    vitals_channels: int = 21
    fusion_hidden: int = 64
    bias_free: bool = False
    seed: int = 0

    def __post_init__(self):
        BlockConfig(self.width, self.heads, self.ffn_width, self.dropout)
        for name in ("event_blocks", "note_blocks", "vitals_blocks", "event_hours",
                     "event_dim", "note_len", "vitals_steps", "vitals_channels",
                     "fusion_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vocab_size < 3:
            raise ValueError("vocab_size must cover the reserved [PAD]/[CLS]/[UNK] ids")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown model config fields: {sorted(unknown)}")
        return cls(**d)

    def block_config(self) -> BlockConfig:
        return BlockConfig(self.width, self.heads, self.ffn_width, self.dropout)


def model_config_for(dataset, **structural) -> ModelConfig:
    """The config whose input geometry fits ``dataset``.

    Hours, feature width, note length, vitals grid and vocabulary size
    come from the dataset; ``structural`` gives every other field (width,
    heads, block counts, seed, ...). The vocabulary size is the
    dataset's vocabulary, or one past its largest token id when it
    carries none, and never less than the three reserved ids.
    """
    vocab = dataset.meta.get("vocab")
    return ModelConfig(
        event_hours=dataset.events.shape[1], event_dim=dataset.events.shape[2],
        note_len=dataset.notes.shape[1],
        vocab_size=max(len(vocab) if vocab else int(dataset.notes.max()) + 1, 3),
        vitals_steps=dataset.vitals.shape[1],
        vitals_channels=dataset.vitals.shape[2], **structural)


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for plain numpy logits."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


class TriModalNet:
    """The full classifier. Weights live in ``self.params`` keyed by
    dotted names (``events.in_proj.w``, ``notes.embed``, ...)."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        bias = not config.bias_free
        affine = not config.bias_free
        blk = config.block_config()
        store = self.params

        self.events_proj = Linear(store, "events.in_proj", rng,
                                  config.event_dim, config.width, bias)
        self.events_blocks = [
            TransformerBlock(store, f"events.block{i}", rng, blk, bias, affine)
            for i in range(config.event_blocks)]

        store.add("notes.embed",
                  rng.normal(0.0, 0.02, size=(config.vocab_size, config.width)))
        if not config.bias_free:
            store.add("notes.pos",
                      rng.normal(0.0, 0.02, size=(config.note_len, config.width)))
        self.notes_blocks = [
            TransformerBlock(store, f"notes.block{i}", rng, blk, bias, affine)
            for i in range(config.note_blocks)]

        self.vitals_proj = Linear(store, "vitals.in_proj", rng,
                                  config.vitals_channels, config.width, bias)
        self.vitals_blocks = [
            TransformerBlock(store, f"vitals.block{i}", rng, blk, bias, affine)
            for i in range(config.vitals_blocks)]

        self.fusion_hidden = Linear(store, "fusion.hidden", rng,
                                    3 * config.width, config.fusion_hidden, bias)
        self.fusion_out = Linear(store, "fusion.out", rng,
                                 config.fusion_hidden, 2, bias)

    # --- encoders ---------------------------------------------------------

    def _events_rep(self, ctx: Context, arr: np.ndarray) -> Tensor:
        arr = check_events(arr, self.config.event_dim)
        x = ctx.probe("events", ctx.tape.leaf(arr))
        h = self.events_proj.forward(ctx, x)
        if not self.config.bias_free:
            pos = sinusoidal_positions(arr.shape[1], self.config.width)
            h = ad.add(h, ctx.tape.leaf(pos))
        for block in self.events_blocks:
            h = block.forward(ctx, h, None, encoder="events")
        return pool_first(h)

    def _notes_rep(self, ctx: Context, ids: np.ndarray) -> Tensor:
        ids = check_notes(ids, self.config.vocab_size)
        length = ids.shape[1]
        if length > self.config.note_len:
            raise SchemaError(f"note length {length} exceeds the position table "
                              f"({self.config.note_len})")
        emb = ad.gather_rows(ctx.param("notes.embed"), ids)
        if not self.config.bias_free:
            pos = ad.slice_(ctx.param("notes.pos"), (slice(0, length),))
            emb = ad.add(emb, pos)
        emb = ctx.probe("notes", emb)
        mask = additive_attention_mask(ids != PAD_ID)
        h = emb
        for block in self.notes_blocks:
            h = block.forward(ctx, h, mask, encoder="notes")
        return pool_first(h)

    def _vitals_rep(self, ctx: Context, arr: np.ndarray) -> Tensor:
        arr = check_vitals(arr, self.config.vitals_channels)
        x = ctx.probe("vitals", ctx.tape.leaf(arr))
        h = self.vitals_proj.forward(ctx, x)
        if not self.config.bias_free:
            pos = sinusoidal_positions(arr.shape[1], self.config.width)
            h = ad.add(h, ctx.tape.leaf(pos))
        for block in self.vitals_blocks:
            h = block.forward(ctx, h, None, encoder="vitals")
        return pool_first(h)

    # --- full forward -------------------------------------------------------

    def forward(self, ctx: Context, events, notes, vitals,
                active: tuple[str, ...] = MODALITIES) -> Tensor:
        """Class logits (batch, 2). ``active`` selects which encoders run;
        the representations of inactive modalities are zeroed (the
        single-modality ablation used by the evaluation harness).

        An active modality's input must fit the config, else
        :class:`~icuxai.errors.SchemaError`: ``event_hours`` hours of
        ``event_dim`` features, ``vitals_steps`` steps of
        ``vitals_channels`` channels, and notes of at most ``note_len``
        token ids below ``vocab_size`` (shorter notes are allowed). The
        encoders on their own take any number of hours or steps."""
        for m in active:
            if m not in MODALITIES:
                raise ValueError(f"unknown modality {m!r}")
        if not active:
            raise ValueError("at least one modality must be active")
        batch = {np.asarray(events).shape[0], np.asarray(notes).shape[0],
                 np.asarray(vitals).shape[0]}
        if len(batch) != 1:
            raise ValueError(f"modality batch sizes disagree: {sorted(batch)}")
        (n,) = batch
        for name, arr, axis_name, expected in (
                ("events", events, "hours", self.config.event_hours),
                ("vitals", vitals, "timesteps", self.config.vitals_steps)):
            shape = np.shape(arr)
            if name in active and len(shape) == 3 and shape[1] != expected:
                raise SchemaError(f"{name} grid has {shape[1]} {axis_name}, the "
                                  f"model expects {expected}")
        zeros = None
        reps = []
        for name, encode, arr in (("events", self._events_rep, events),
                                  ("notes", self._notes_rep, notes),
                                  ("vitals", self._vitals_rep, vitals)):
            if name in active:
                reps.append(encode(ctx, arr))
            else:
                if zeros is None:
                    zeros = ctx.tape.leaf(np.zeros((n, self.config.width)))
                reps.append(zeros)
        fused = ad.concat(reps, axis=-1)
        hidden = ad.relu(self.fusion_hidden.forward(ctx, fused))
        return self.fusion_out.forward(ctx, hidden)

    def pass_bytes(self, kind: str, events, notes, vitals) -> tuple[int, int]:
        """``(fixed, per_row)``: the bytes a forward pass of ``kind`` over
        these inputs holds once, and per row. An ``inference`` pass holds
        the largest block's (heads, L, L) attention map; a ``capture`` pass
        every block's map; a ``recording`` tape every map and activation,
        and once the parameter leaves and positional tables; an integrated
        gradients ``replay`` tape the activations, and once those leaves
        and tables and the batch-1 frozen maps and LayerNorm denominators."""
        c = self.config
        lengths = (events.shape[1], notes.shape[1], vitals.shape[1])
        blocks = (c.event_blocks, c.note_blocks, c.vitals_blocks)
        maps = sum(n * c.heads * L * L for n, L in zip(blocks, lengths))
        if kind in ("inference", "capture"):
            return 0, 8 * (maps if kind == "capture" else c.heads * max(lengths) ** 2)
        if kind not in ("recording", "replay"):
            raise ValueError(f"unknown pass kind {kind!r}")
        bias, replay = int(not c.bias_free), int(kind == "replay")
        lin = 1 + bias  # a Linear's product and its bias add
        # a block position: Linears q, k (not replayed), v, out, ffn1 and
        # ffn2; mixed values, merged heads, two residuals and ffn1's relu;
        # per LayerNorm ``ln`` centred, squared (not replayed), scaled,
        # gained and shifted arrays and four (one replayed) (L, 1) statistics
        ln = 3 + 2 * bias - replay
        block = (c.width * ((5 - 2 * replay) * lin + 4 + 2 * ln)
                 + c.ffn_width * (lin + 1) + 8 - 6 * replay)
        # a row's inputs: events and vitals leaves (and scaled copies), each
        # position projected and shifted; embedded notes, int64 ids and
        # positional add (and scaled copy); its input scale; the fusion head
        grid = (lin + bias) * c.width
        inputs = (lengths[0] * ((1 + replay) * c.event_dim + grid)
                  + lengths[1] * (1 + (1 + bias + replay) * c.width)
                  + lengths[2] * ((1 + replay) * c.vitals_channels + grid)
                  + replay + 3 * c.width + (lin + 1) * c.fusion_hidden + 2 * lin)
        per_row = inputs + sum(n * L * block for n, L in zip(blocks, lengths))
        fixed = (sum(p.size for _, p in self.params.items())
                 + bias * c.width * (lengths[0] + lengths[2]))
        if replay:  # frozen maps and denominators in, q and k weights out
            fixed += maps + sum(n * (2 * L - 2 * (c.width + bias) * c.width)
                                for n, L in zip(blocks, lengths))
        else:  # every map, and each LayerNorm's eps leaf
            per_row += maps
            fixed += 2 * sum(blocks)
        return 8 * fixed, 8 * per_row

    def pass_rows(self, kind: str, *arrays, in_flight: int = 1) -> int:
        """Rows of ``arrays`` a pass of ``kind`` takes: at least one, else
        as many as :meth:`pass_bytes` fits into ``PASS_BYTES``. With
        ``in_flight`` passes alive at once, they split the budget's rows
        and hold ``fixed`` once, since they share those arrays. They stay
        within the budget together only while ``in_flight`` is at most
        the rows one pass takes alone; beyond that each still gets one."""
        fixed, per_row = self.pass_bytes(kind, *arrays)
        return max(1, (PASS_BYTES - fixed) // (in_flight * per_row))

    def predict_proba(self, events, notes, vitals, batch_size: int = 256,
                      active: tuple[str, ...] = MODALITIES) -> np.ndarray:
        """Class probabilities (n, 2), computed in inference batches; an
        empty (0, 2) array for zero rows.

        Each batch runs on a non-recording tape, so a forward holds only
        the values still in use. ``batch_size`` (positive) is an upper
        bound: a batch takes at most :meth:`pass_rows` rows. BLAS may
        round the last ulps differently at another batch size, so a cut
        batch is not bit-equal to an uncut one.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        arrays = tuple(np.asarray(a) for a in (events, notes, vitals))
        events, notes, vitals = arrays
        n = events.shape[0]
        batch_size = min(batch_size, self.pass_rows("inference", *arrays))
        out = []
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            ctx = Context(tape=Tape(record=False), params=self.params)
            logits = self.forward(ctx, events[start:stop], notes[start:stop],
                                  vitals[start:stop], active)
            out.append(softmax_probabilities(logits.data))
        return np.concatenate(out, axis=0) if out else np.empty((0, 2))


# --- persistence -------------------------------------------------------------

def save_checkpoint(model: TriModalNet, path, vocab: list[str] | None = None,
                    preprocess: dict | None = None, extra: dict | None = None) -> None:
    """Write the model (and optional vocabulary / preprocessing statistics)
    to a single checksummed container file."""
    meta = {
        "kind": "checkpoint",
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "vocab": vocab,
        "preprocess": preprocess,
        "extra": extra or {},
    }
    fileio.save_container(path, dict(model.params.items()), meta)


def load_checkpoint(path) -> tuple[TriModalNet, dict]:
    """Rebuild a model from a checkpoint. Returns ``(model, meta)``.

    Any structural problem — bad magic, truncation, checksum or version
    mismatch, missing/misshapen tensors — raises :class:`CheckpointError`.
    """
    try:
        arrays, meta = fileio.load_container(path)
    except Exception as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    if meta.get("kind") != "checkpoint":
        raise CheckpointError(f"{path}: container holds {meta.get('kind')!r}, "
                              "not a checkpoint")
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: checkpoint version "
                              f"{meta.get('checkpoint_version')!r} is not supported "
                              f"(expected {CHECKPOINT_VERSION})")
    try:
        config = ModelConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: invalid model config: {e}") from e
    model = TriModalNet(config)
    expected = set(model.params.names())
    stored = set(arrays)
    if expected != stored:
        missing, surplus = sorted(expected - stored), sorted(stored - expected)
        raise CheckpointError(f"{path}: tensor names disagree with the config "
                              f"(missing {missing}, unexpected {surplus})")
    for name in model.params.names():
        if arrays[name].shape != model.params[name].shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                f"config expects {model.params[name].shape}")
        model.params[name] = arrays[name]
    return model, meta
