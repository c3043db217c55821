"""Span tracing around the public callables of the icuxai layers.

Nothing in the package is edited: :func:`installed` patches wrappers in
where each caller looks a name up (``icuxai.autodiff.matmul`` for the
blocks, ``icuxai.perturbation.auc_roc`` for the deletion curves, the
``forward`` methods on the block classes, ...) and restores the
originals on exit. Each wrapper records one span -- name, start, end,
parent span and request id -- into a :class:`Tracer`, which keeps
everything in memory until :func:`write_spans` writes them out.

A request is one unit of user-visible work: one train step (a model
forward issued by ``train_model`` plus the loss, backward, clip and Adam
calls after it), one explained record, one predict call, or one
preprocessed stay.

:func:`layer_metrics` turns the spans into the per-layer figures listed
in :data:`PER_LAYER`. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import time
from collections import Counter

import numpy as np

ENCODERS = ("events", "notes", "vitals")
#: explainer kind -> (metric stem, the attribution function behind it)
KINDS = {"lrptrans": ("lrptrans", "gi_attribute"),
         "integrated-gradients": ("ig", "integrated_gradients"),
         "lrp-epsilon": ("lrp_epsilon", "epsilon_lrp"),
         "attention-rollout": ("rollout", "attention_rollout"),
         "attention-last": ("attention_last", "attention_last"),
         "random": ("random", "random_attribution")}
STEMS = tuple(stem for stem, _ in KINDS.values())
#: primitive kind -> the autodiff forwards that record it
FWD_BUCKETS = {
    "matmul": ("matmul",),
    "softmax": ("softmax_over_axis",),
    "broadcast": ("broadcast_to",),
    "gather": ("gather_rows",),
    "elementwise": ("add", "sub", "mul", "div", "exp", "log", "sqrt", "relu",
                    "scale"),
    "other": ("transpose", "reshape", "concat", "slice_", "sum_over_axis",
              "mean_over_axis", "max_over_axis", "detach"),
}

#: (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER = (
    [("synthetic.generate_s", "s", "lower")]
    + [(f"preprocess.{n}", u, "lower") for n, u in (
        ("read_s", "s"), ("rows_read", "count"), ("match_s", "s"),
        ("screen_s", "s"), ("fit_s", "s"), ("events_transform_s", "s"),
        ("notes_transform_s", "s"), ("vitals_transform_s", "s"),
        ("stays_rejected", "count"))]
    + [("autodiff.backward_s", "s", "lower"), ("autodiff.nodes", "count", "lower"),
       ("autodiff.broadcast_nodes", "count", "lower"),
       ("autodiff.leaf_s", "s", "lower")]
    + [(f"autodiff.fwd.{b}_s", "s", "lower") for b in FWD_BUCKETS]
    + [("autodiff.tape_value_mb", "MB", "lower"), ("autodiff.grad_mb", "MB", "lower")]
    + [(f"blocks.{e}.{p}", "s", "lower") for e in ENCODERS
       for p in ("attn_fwd_s", "ln_fwd_s", "ffn_fwd_s", "block_self_s")]
    + [("model.forward_s", "s", "lower"), ("model.forward_calls", "count", "lower")]
    + [(f"training.{n}", "s", "lower") for n in
       ("loss_s", "clip_s", "adam_s", "val_predict_s")]
    + [("training.steps", "count", "lower")]
    + [("metrics.auc_s", "s", "lower"), ("metrics.auc_calls", "count", "lower")]
    + [(f"attribution.{k}.{p}", "s", "lower") for k in STEMS
       for p in ("fwd_s", "bwd_s")]
    + [("attribution.ig.passes_per_record", "count", "lower"),
       ("attribution.lrp_epsilon.walk_s", "s", "lower")]
    + [("perturbation.rank_s", "s", "lower"),
       ("perturbation.units_ranked", "count", "lower"),
       ("perturbation.rescore_s", "s", "lower"),
       ("perturbation.mask_s", "s", "lower")]
    + [("trace.overhead_s", "s", "lower"), ("trace.overhead_pct", "%", "lower")]
)


class Tracer:
    """In-memory span store.

    Spans are appended when they begin, so a parent always has a smaller
    index than its children and one pass in index order sees ancestors
    first.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counters: Counter[str] = Counter()
        self.peaks: dict[str, float] = {}
        self._open: list[int] = []
        self._request = 0
        self._issued = 0

    @property
    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._open[-1] if self._open else -1

    def begin(self, name: str, request: str | None = None) -> tuple[int, int]:
        """Open a span. ``request="new"`` issues a request id that ends with
        the span; ``"step"`` issues one that later sibling spans inherit."""
        saved = self._request
        if request is not None:
            self._issued += 1
            self._request = self._issued
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.current)
        self.requests.append(self._request)
        self.ends.append(float("nan"))
        self._open.append(i)
        self.starts.append(self.clock())
        return i, (saved if request == "new" else self._request)

    def end(self, token: tuple[int, int]) -> None:
        t = self.clock()
        i, restore = token
        self.ends[i] = t
        self._open.pop()
        self._request = restore

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    def arrays(self):
        """(names, durations, self times, parents) as numpy arrays."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        has = parents >= 0
        child = np.bincount(parents[has], weights=dur[has], minlength=len(dur))
        return np.asarray(self.names, dtype=object), dur, dur - child, parents


def write_spans(path, tracers) -> None:
    """Spans of several tracers as one gzip CSV; ``parent`` and ``span``
    index within the tracer named by ``tracer``."""
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("tracer", "span", "name", "start", "end", "parent", "request"))
        for k, t in enumerate(tracers):
            for i, row in enumerate(zip(t.names, t.starts, t.ends, t.parents,
                                        t.requests)):
                out.writerow((k, i) + row)


# --- wrappers ------------------------------------------------------------------------

def _wrap(tracer: Tracer, fn, name, request=None, after=None):
    """Wrap ``fn``; ``name`` and ``request`` may be callables of
    (tracer, args, kwargs); ``after(tracer, args, kwargs, result)`` runs
    once the call returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(tracer, args, kwargs) if callable(name) else name
        req = request(tracer, args, kwargs) if callable(request) else request
        token = tracer.begin(label, req)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(token)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return wrapper


def _buffer_mb(arrays) -> float:
    """Megabytes of distinct memory behind ``arrays`` (views count once)."""
    seen = {}
    for arr in arrays:
        if arr is None:
            continue
        base = arr
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen[id(base)] = base.nbytes
    return sum(seen.values()) / 2**20


def _parent_name(tracer: Tracer) -> str:
    i = tracer.current
    return tracer.names[i] if i >= 0 else ""


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced callable."""
    from icuxai import (attribution, autodiff, blocks, metrics, model,
                        perturbation, preprocess, records, synthetic, training)

    out = []

    def fn(owner, attr, name, request=None, after=None):
        original = getattr(owner, attr)
        out.append((owner, attr, _wrap(tracer, original, name, request, after)))

    # autodiff: primitives are looked up on the module by blocks, model,
    # training, attribution and by autodiff itself; each call records one node
    def count_node(t, a, k, r):
        t.count("autodiff.nodes")

    for bucket, attrs in FWD_BUCKETS.items():
        for attr in attrs:
            fn(autodiff, attr, f"autodiff.fwd.{bucket}", after=count_node)

    def after_backward(t, a, k, r):
        tape = a[0].tape
        t.peak("autodiff.tape_value_mb", _buffer_mb(tape.values))
        t.peak("autodiff.grad_mb", _buffer_mb(tape.grads))

    fn(autodiff.Tape, "leaf", "autodiff.leaf", after=count_node)
    fn(autodiff, "backward", "autodiff.backward", after=after_backward)

    # blocks: the encoder name travels as an argument to the block and
    # attention forwards; layer norm and linear maps inherit it from the
    # enclosing span
    def encoder(a, k) -> str:
        return k.get("encoder", a[4] if len(a) > 4 else "")

    fn(blocks.TransformerBlock, "forward",
       lambda t, a, k: f"blocks.{encoder(a, k)}.block")
    fn(blocks.MultiHeadAttention, "forward",
       lambda t, a, k: f"blocks.{encoder(a, k)}.attn")
    fn(blocks.LayerNorm, "forward", "blocks.layernorm")
    fn(blocks.Linear, "forward", "blocks.linear")

    def forward_request(t, a, k):
        return "step" if _parent_name(t) == "training.train_model" else None

    def after_forward(t, a, k, r):
        t.count("model.forward_calls")
        t.peak("autodiff.tape_value_mb", _buffer_mb(a[1].tape.values))

    fn(model.TriModalNet, "forward", "model.forward", forward_request, after_forward)
    fn(model.TriModalNet, "predict_proba", "model.predict_proba", "new")

    fn(training, "train_model", "training.train_model")
    fn(training, "weighted_ce_from_logits", "training.loss")
    fn(training, "clip_global_norm", "training.clip")
    fn(training.Adam, "step", "training.adam",
       after=lambda t, a, k, r: t.count("training.steps"))

    # metrics: auc_roc is imported by name into training and perturbation
    for owner in (metrics, training, perturbation):
        fn(owner, "auc_roc", "metrics.auc",
           after=lambda t, a, k, r: t.count("metrics.auc_calls"))

    # attribution: Explainer.explain dispatches through module globals
    for short, attr in KINDS.values():
        fn(attribution, attr, f"attribution.{short}", "new")
    fn(attribution, "relevance_propagate", "attribution.lrp_epsilon.walk")

    fn(perturbation, "perturbation_curve", "perturbation.curve")
    fn(perturbation, "rank_features", "perturbation.rank",
       after=lambda t, a, k, r: t.count("perturbation.units_ranked", len(r)))
    fn(perturbation, "area_under", "perturbation.area_under")
    fn(records.MultimodalDataset, "record", "records.record")

    def after_read(t, a, k, r):   # stay -> rows, or stay -> label
        t.count("preprocess.rows_read",
                sum(len(v) if isinstance(v, list) else 1 for v in r.values()))

    for attr in ("read_events_csv", "read_notes_jsonl", "read_vitals_csv",
                 "read_labels_csv"):
        fn(preprocess, attr, "preprocess.read", after=after_read)
    fn(preprocess, "match_modalities", "preprocess.match")
    fn(preprocess.VitalsPreprocessor, "missing_fractions", "preprocess.screen")
    fit = preprocess.Pipeline.__dict__["fit"].__func__
    out.append((preprocess.Pipeline, "fit",
                classmethod(_wrap(tracer, fit, "preprocess.fit"))))

    def stay_request(t, a, k):
        return "step" if _parent_name(t) == "preprocess.build_dataset" else None

    fn(preprocess.EventPreprocessor, "transform", "preprocess.events_transform",
       stay_request)
    fn(preprocess.NotePreprocessor, "transform", "preprocess.notes_transform")
    fn(preprocess.VitalsPreprocessor, "transform", "preprocess.vitals_transform")
    fn(preprocess, "build_dataset", "preprocess.build_dataset",
       after=lambda t, a, k, r: t.count("preprocess.stays_rejected",
                                        len(r.meta["rejected"])))

    fn(synthetic, "generate_synthetic", "synthetic.generate")
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every wrapper in for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer figures ----------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span recorded so far."""
    names, dur, self_t, parents = tracer.arrays()
    n = len(names)
    total: Counter[str] = Counter()
    own: Counter[str] = Counter()
    for name, d, s in zip(names, dur, self_t):
        total[name] += d
        own[name] += s

    m: dict[str, float] = {}
    m["synthetic.generate_s"] = total["synthetic.generate"]
    m["preprocess.read_s"] = total["preprocess.read"]
    m["preprocess.rows_read"] = tracer.counters["preprocess.rows_read"]
    for short in ("match", "screen", "fit", "events_transform",
                  "notes_transform", "vitals_transform"):
        m[f"preprocess.{short}_s"] = total[f"preprocess.{short}"]
    m["preprocess.stays_rejected"] = tracer.counters["preprocess.stays_rejected"]

    m["autodiff.backward_s"] = total["autodiff.backward"]
    m["autodiff.nodes"] = tracer.counters["autodiff.nodes"]
    m["autodiff.broadcast_nodes"] = int(np.sum(names == "autodiff.fwd.broadcast"))
    m["autodiff.leaf_s"] = own["autodiff.leaf"]
    for bucket in FWD_BUCKETS:
        m[f"autodiff.fwd.{bucket}_s"] = own[f"autodiff.fwd.{bucket}"]
    m["autodiff.tape_value_mb"] = tracer.peaks.get("autodiff.tape_value_mb", 0.0)
    m["autodiff.grad_mb"] = tracer.peaks.get("autodiff.grad_mb", 0.0)

    # blocks: attention, layer norm and the two FFN linear maps are
    # inclusive times of the block's direct children; the block's own
    # share (residual adds, relu, dropout) is what is left
    parts = {e: Counter() for e in ENCODERS}
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        pname = names[p]
        if not (pname.startswith("blocks.") and pname.endswith(".block")):
            continue
        enc = pname.split(".")[1]
        if enc not in parts:
            continue
        part = {"blocks.layernorm": "ln", "blocks.linear": "ffn"}.get(names[i])
        if part is None and names[i] == f"blocks.{enc}.attn":
            part = "attn"
        if part is not None:
            parts[enc][part] += dur[i]
    for enc in ENCODERS:
        block = total[f"blocks.{enc}.block"]
        m[f"blocks.{enc}.attn_fwd_s"] = parts[enc]["attn"]
        m[f"blocks.{enc}.ln_fwd_s"] = parts[enc]["ln"]
        m[f"blocks.{enc}.ffn_fwd_s"] = parts[enc]["ffn"]
        m[f"blocks.{enc}.block_self_s"] = block - sum(parts[enc].values())

    m["model.forward_s"] = total["model.forward"]
    m["model.forward_calls"] = tracer.counters["model.forward_calls"]

    m["training.loss_s"] = total["training.loss"]
    m["training.clip_s"] = total["training.clip"]
    m["training.adam_s"] = total["training.adam"]
    m["training.steps"] = tracer.counters["training.steps"]
    m["metrics.auc_s"] = total["metrics.auc"]
    m["metrics.auc_calls"] = tracer.counters["metrics.auc_calls"]

    # attribution and validation figures need the nearest enclosing
    # explainer / training / curve span of each span
    kind_of = np.full(n, "", dtype=object)
    scope = np.full(n, "", dtype=object)
    kind_names = {f"attribution.{k}" for k in STEMS}
    scopes = {"training.train_model", "perturbation.curve"}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            kind_of[i] = names[p] if names[p] in kind_names else kind_of[p]
            scope[i] = names[p] if names[p] in scopes else scope[p]
    forward = names == "model.forward"
    backward = names == "autodiff.backward"
    for short in STEMS:
        under = kind_of == f"attribution.{short}"
        m[f"attribution.{short}.fwd_s"] = float(dur[forward & under].sum())
        m[f"attribution.{short}.bwd_s"] = float(dur[backward & under].sum())
    ig_calls = int(np.sum(names == "attribution.ig"))
    ig_passes = int(np.sum(forward & (kind_of == "attribution.ig")))
    m["attribution.ig.passes_per_record"] = ig_passes / ig_calls if ig_calls else 0.0
    m["attribution.lrp_epsilon.walk_s"] = total["attribution.lrp_epsilon.walk"]

    predict = names == "model.predict_proba"
    m["training.val_predict_s"] = float(
        dur[predict & (parents >= 0) & (scope == "training.train_model")].sum())
    m["perturbation.rank_s"] = total["perturbation.rank"]
    m["perturbation.units_ranked"] = tracer.counters["perturbation.units_ranked"]
    m["perturbation.rescore_s"] = float(
        dur[predict & (scope == "perturbation.curve")].sum())
    m["perturbation.mask_s"] = own["perturbation.curve"]
    return {k: float(v) for k, v in m.items()}
