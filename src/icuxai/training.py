"""Training: loss, optimizer, schedule and rebalancing.

The loss is weighted cross-entropy. For training it is computed on the
tape from logits through a log-softmax composition (never materializing
probabilities, so extreme logits stay finite); :func:`cross_entropy` is
the scalar probability-space form used for reporting and testing.

Positives are up-sampled to class parity on the training split only;
validation and test sets are never resampled. Early stopping watches
validation AUC-ROC with a fixed patience and restores the best weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tape, Tensor
from .blocks import Context, ParamStore
from .metrics import auc_roc
from .records import MODALITIES, MultimodalDataset


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    dropout: float = 0.1    # not read by train_model; ModelConfig.dropout is the model's
    class_weight: float = 1.0
    epochs: int = 30
    seed: int = 0
    upsample: bool = True
    patience: int = 10      # early-stopping patience, epochs without val improvement
    clip_norm: float = 1.0  # global gradient-norm ceiling; 0 turns clipping off

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.class_weight <= 0:
            raise ValueError("class_weight must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if not self.clip_norm >= 0.0:
            raise ValueError("clip_norm must be non-negative (0 turns clipping off)")


# --- loss ----------------------------------------------------------------------

def cross_entropy(y: int, y_hat: float, class_weight: float = 1.0) -> float:
    """Weighted cross-entropy of one probability-space prediction.

    ``y_hat`` is the predicted death probability, clamped to
    [1e-12, 1 - 1e-12] before the logs.
    """
    p = min(max(float(y_hat), 1e-12), 1.0 - 1e-12)
    return -(class_weight * y * math.log(p) + (1 - y) * math.log(1.0 - p))


def weighted_ce_from_logits(logits: Tensor, labels: np.ndarray,
                            class_weight: float = 1.0) -> Tensor:
    """Mean weighted cross-entropy on the tape, from (batch, 2) logits."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    m = ad.max_over_axis(logits, axis=-1, keepdims=True)
    lse = ad.add(ad.log(ad.sum_over_axis(ad.exp(ad.sub(logits, m)),
                                         axis=-1, keepdims=True)), m)
    logp = ad.sub(logits, lse)
    weights = np.where(labels == 1, class_weight, 1.0)
    picker = np.eye(2)[labels] * weights[:, None]
    picked = ad.sum_over_axis(ad.mul(logp, logits.tape.leaf(picker)))
    return ad.scale(picked, -1.0 / n)


# --- optimizer -------------------------------------------------------------------

class Adam:
    """Bias-corrected Adam. Parameters absent from a step's gradient dict
    are left untouched (ablated encoders receive no updates). A NaN or Inf
    gradient raises :class:`NonFiniteError` naming the parameter, before
    any parameter, moment or the step count changes."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: ParamStore, grads: dict[str, np.ndarray], lr: float) -> None:
        names = sorted(grads)
        for name in names:
            if not np.isfinite(grads[name]).all():
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name in names:
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            params[name] = params[name] - lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def clip_global_norm(grads: dict[str, np.ndarray],
                     max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients down so their joint L2 norm is at most max_norm.

    A non-finite norm leaves the gradients as they are, so the optimizer
    can name the parameter whose gradient is not finite."""
    total = math.sqrt(math.fsum(float(np.sum(g * g)) for g in grads.values()))
    if math.isfinite(total) and total > max_norm > 0.0:
        factor = max_norm / total
        grads = {k: g * factor for k, g in grads.items()}
    return grads, total


def lr_schedule(lr0: float, epoch: int) -> float:
    """Step decay: multiply by 0.98 every 10 epochs."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return lr0 * 0.98 ** (epoch // 10)


# --- rebalancing ---------------------------------------------------------

def upsample_positives(labels, rng: np.random.Generator) -> np.ndarray:
    """Index array over ``labels`` with positives re-sampled (with
    replacement) to match the negative count, then shuffled."""
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if pos.size == 0:
        raise ValueError("cannot upsample: no positive records in the training split")
    idx = np.arange(labels.size)
    if pos.size < neg.size:
        extra = rng.choice(pos, size=neg.size - pos.size, replace=True)
        idx = np.concatenate([idx, extra])
    rng.shuffle(idx)
    return idx


# --- the training loop -----------------------------------------------------------------

@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float | None = None
    stopped_early: bool = False


def _train_step(model, dataset: MultimodalDataset, batch: np.ndarray, config: TrainConfig,
                optimizer: Adam, rng: np.random.Generator, lr: float, epoch: int,
                active: tuple[str, ...]) -> tuple[float, float]:
    """One optimizer step on the records ``batch``: forward, backward,
    clip and update. Returns the batch loss and the global gradient norm
    before clipping. The step's tape lives only inside this call, so it
    is freed before the next step's forward records its first node."""
    ctx = Context(tape=Tape(), params=model.params, rng=rng)
    logits = model.forward(ctx, dataset.events[batch], dataset.notes[batch],
                           dataset.vitals[batch], active)
    loss = weighted_ce_from_logits(logits, dataset.labels[batch], config.class_weight)
    ad.backward(loss, wrt=ctx.param_leaves())
    grads, norm = clip_global_norm(ctx.param_grads(), config.clip_norm)
    try:
        optimizer.step(model.params, grads, lr)
    except NonFiniteError as e:
        raise NonFiniteError(f"epoch {epoch}: {e}") from e
    return float(loss.data), norm


def train_model(model, dataset: MultimodalDataset, config: TrainConfig,
                train_idx=None, val_idx=None,
                active: tuple[str, ...] = MODALITIES,
                log_fn=None) -> TrainResult:
    """Optimize ``model`` in place on the given training indices, which
    must name at least one record (``ValueError`` otherwise).

    When ``val_idx`` is provided, validation AUC-ROC drives early
    stopping (patience from the config) and the best-epoch weights are
    restored before returning.

    ``log_fn`` receives one ``epoch`` event per epoch: the history entry
    (``epoch``, ``loss``, ``lr`` and ``val_auc`` with a validation split)
    plus ``wall_s`` (the epoch's wall time, validation included),
    ``records_per_s`` (records trained per second of the optimizer steps)
    and the largest and mean global gradient norm before clipping over
    the epoch's steps (``grad_norm_max``, ``grad_norm_mean``).
    """
    labels = dataset.labels
    train_idx = np.arange(len(dataset)) if train_idx is None \
        else np.asarray(train_idx, dtype=np.int64)
    if train_idx.size == 0:
        raise ValueError("train_model needs at least one training record")
    val_idx = None if val_idx is None else np.asarray(val_idx, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    if config.upsample:
        pool = train_idx[upsample_positives(labels[train_idx], rng)]
    else:
        pool = train_idx.copy()

    optimizer = Adam()
    result = TrainResult()
    best_auc = -np.inf
    best_state = None
    bad_epochs = 0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        lr = lr_schedule(config.learning_rate, epoch)
        order = rng.permutation(pool.size)
        losses, norms = [], []
        for start in range(0, pool.size, config.batch_size):
            batch = pool[order[start:start + config.batch_size]]
            loss, norm = _train_step(model, dataset, batch, config, optimizer, rng,
                                     lr, epoch, active)
            losses.append(loss)
            norms.append(norm)
        step_s = time.perf_counter() - started
        entry = {"epoch": epoch, "loss": float(np.mean(losses)), "lr": lr}
        if val_idx is not None and val_idx.size:
            probs = model.predict_proba(dataset.events[val_idx], dataset.notes[val_idx],
                                        dataset.vitals[val_idx], active=active)
            val_auc = auc_roc(labels[val_idx], probs[:, 1])
            entry["val_auc"] = val_auc
            if val_auc > best_auc:
                best_auc = val_auc
                best_state = model.params.snapshot()
                result.best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
        result.history.append(entry)
        if log_fn is not None:
            log_fn({"event": "epoch", **entry,
                    "wall_s": time.perf_counter() - started,
                    "records_per_s": pool.size / step_s,
                    "grad_norm_max": max(norms),
                    "grad_norm_mean": math.fsum(norms) / len(norms)})
        if val_idx is not None and bad_epochs >= config.patience:
            result.stopped_early = True
            break
    if best_state is not None:
        model.params.restore(best_state)
        result.best_val_auc = float(best_auc)
    return result
