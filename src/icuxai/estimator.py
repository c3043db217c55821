"""Estimator-style facade over the tri-modal classifier.

``MortalityEstimator`` bundles model construction, training, prediction,
explanation and persistence behind the familiar fit/predict protocol:
constructor arguments are inert hyperparameters, ``fit`` derives the input
geometry from the dataset and trains, and ``get_params``/``set_params``
make instances clone-and-configure friendly for sweeps. Nothing here
imports scikit-learn; the protocol is just followed.
"""

from __future__ import annotations

import inspect

import numpy as np

from .attribution import AttributionReport, Explainer
from .errors import NotFittedError
from .metrics import auc_roc
from .model import TriModalNet, load_checkpoint, model_config_for, save_checkpoint
from .records import MODALITIES, MultimodalDataset, MultimodalRecord
from .training import TrainConfig, TrainResult, train_model


def check_is_fitted(estimator, attribute: str = "model_") -> None:
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} must be fitted before this call")


def _as_dataset(X) -> MultimodalDataset:
    if not isinstance(X, MultimodalDataset):
        raise TypeError(f"expected a MultimodalDataset, got {type(X).__name__}")
    return X


class MortalityEstimator:
    """Train-and-predict wrapper around the tri-modal network.

    All constructor arguments are stored verbatim; validation happens in
    ``fit`` where the dataset's shapes pin down the remaining geometry
    (hours, feature width, note length, vocabulary size, vitals grid).
    """

    def __init__(self, *, width: int = 64, heads: int = 4, ffn_width: int = 128,
                 dropout: float = 0.1, event_blocks: int = 2,
                 note_blocks: int = 2, vitals_blocks: int = 2,
                 fusion_hidden: int = 64, bias_free: bool = False,
                 epochs: int = 30, batch_size: int = 64,
                 learning_rate: float = 1e-3, class_weight: float = 1.0,
                 upsample: bool = True, patience: int = 10,
                 clip_norm: float = 1.0, active: tuple[str, ...] = MODALITIES,
                 seed: int = 0):
        self.width = width
        self.heads = heads
        self.ffn_width = ffn_width
        self.dropout = dropout
        self.event_blocks = event_blocks
        self.note_blocks = note_blocks
        self.vitals_blocks = vitals_blocks
        self.fusion_hidden = fusion_hidden
        self.bias_free = bias_free
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.class_weight = class_weight
        self.upsample = upsample
        self.patience = patience
        self.clip_norm = clip_norm
        self.active = tuple(active)
        self.seed = seed
        self.model_: TriModalNet | None = None
        self.result_: TrainResult | None = None

    # --- estimator protocol ---------------------------------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "MortalityEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for "
                                 f"{type(self).__name__}; valid parameters "
                                 f"are {sorted(valid)}")
            setattr(self, name, value)
        return self

    # --- fitting ----------------------------------------------------------------

    def _train_config(self) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size, learning_rate=self.learning_rate,
            dropout=self.dropout, class_weight=self.class_weight,
            epochs=self.epochs, seed=self.seed, upsample=self.upsample,
            patience=self.patience, clip_norm=self.clip_norm)

    def fit(self, X, y=None, *, train_idx=None, val_idx=None,
            log_fn=None) -> "MortalityEstimator":
        """Train on a dataset (labels ride inside it; ``y`` must be None)."""
        dataset = _as_dataset(X)
        if y is not None:
            raise ValueError("labels are part of the dataset; pass y=None")
        if len(dataset) < 2 or len(np.unique(dataset.labels)) < 2:
            raise ValueError("fitting needs records from both classes")
        self.model_ = TriModalNet(model_config_for(
            dataset, width=self.width, heads=self.heads, ffn_width=self.ffn_width,
            dropout=self.dropout, event_blocks=self.event_blocks,
            note_blocks=self.note_blocks, vitals_blocks=self.vitals_blocks,
            fusion_hidden=self.fusion_hidden, bias_free=self.bias_free,
            seed=self.seed))
        self.result_ = train_model(self.model_, dataset, self._train_config(),
                                   train_idx=train_idx, val_idx=val_idx,
                                   active=self.active, log_fn=log_fn)
        return self

    # --- inference ---------------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self)
        ds = _as_dataset(X)
        return self.model_.predict_proba(ds.events, ds.notes, ds.vitals,
                                         active=self.active)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)

    def score(self, X, y=None) -> float:
        """AUC-ROC of the positive-class probability on the dataset."""
        ds = _as_dataset(X)
        if y is None:
            y = ds.labels
        return auc_roc(y, self.predict_proba(ds)[:, 1])

    def explain(self, record: MultimodalRecord, kind: str = "lrptrans",
                target_class: int = 1, **options) -> AttributionReport:
        check_is_fitted(self)
        return Explainer(kind, self.model_, **options).explain(record,
                                                               target_class)

    # --- persistence ---------------------------------------------------------------

    def save(self, path) -> None:
        check_is_fitted(self)
        save_checkpoint(self.model_, path,
                        extra={"estimator_params":
                               {k: list(v) if isinstance(v, tuple) else v
                                for k, v in self.get_params().items()}})

    @classmethod
    def load(cls, path) -> "MortalityEstimator":
        model, meta = load_checkpoint(path)
        params = meta.get("extra", {}).get("estimator_params", {})
        if "active" in params:
            params["active"] = tuple(params["active"])
        est = cls()
        est.set_params(**params)
        est.model_ = model
        return est
