"""Tri-modal ICU mortality transformer with conservation-aware attributions.

The package splits into a small stack of layers:

* :mod:`icuxai.autodiff`     reverse-mode tape with an attribution mode
* :mod:`icuxai.blocks`       attention / feed-forward / layer-norm blocks
* :mod:`icuxai.model`        the three encoders plus late-fusion classifier
* :mod:`icuxai.training`     loss, Adam, schedules, the training loop
* :mod:`icuxai.metrics`      AUC-ROC / AUC-PR with exact tie handling
* :mod:`icuxai.attribution`  six explainers behind one interface
* :mod:`icuxai.perturbation` deletion-curve faithfulness evaluation
* :mod:`icuxai.preprocess`   raw CSV/JSONL exports -> model-ready grids
* :mod:`icuxai.synthetic`    cohorts with planted, recoverable signals
* :mod:`icuxai.cli`          the ``icuxai`` command-line pipeline
"""

__version__ = "0.1.0"

from .attribution import (AttributionReport, EXPLAINER_KINDS, Explainer,
                          aggregate_feature_attributions, epsilon_lrp, explain,
                          gi_attribute, integrated_gradients, make_explainer)
from .errors import (CheckpointError, DataError, NotFittedError, ParseError,
                     RecordRejectedError, SchemaError)
from .metrics import auc_pr, auc_roc
from .model import (ModelConfig, TriModalNet, load_checkpoint, model_config_for,
                    save_checkpoint)
from .perturbation import (PerturbationCurve, area_under, compare_explainers,
                           default_fractions, perturbation_curve)
from .preprocess import (EventPreprocessor, NormalValueTable, NotePreprocessor,
                         Pipeline, VitalsPreprocessor, build_dataset,
                         match_modalities)
from .records import (CLS_ID, MODALITIES, PAD_ID, UNK_ID, EventSequence,
                      MultimodalDataset, MultimodalRecord, NoteTokens,
                      VitalSigns)
from .synthetic import SyntheticSpec, generate_synthetic, ground_truth_json
from .training import TrainConfig, TrainResult, train_model

__all__ = [
    "AttributionReport", "EXPLAINER_KINDS", "Explainer",
    "aggregate_feature_attributions", "epsilon_lrp", "explain", "gi_attribute",
    "integrated_gradients", "make_explainer",
    "CheckpointError", "DataError", "NotFittedError", "ParseError",
    "RecordRejectedError", "SchemaError",
    "auc_pr", "auc_roc",
    "ModelConfig", "TriModalNet", "load_checkpoint", "model_config_for",
    "save_checkpoint",
    "PerturbationCurve", "area_under", "compare_explainers",
    "default_fractions", "perturbation_curve",
    "EventPreprocessor", "NormalValueTable", "NotePreprocessor", "Pipeline",
    "VitalsPreprocessor", "build_dataset", "match_modalities",
    "CLS_ID", "MODALITIES", "PAD_ID", "UNK_ID", "EventSequence",
    "MultimodalDataset", "MultimodalRecord", "NoteTokens", "VitalSigns",
    "SyntheticSpec", "generate_synthetic", "ground_truth_json",
    "TrainConfig", "TrainResult", "train_model",
    "__version__",
]
