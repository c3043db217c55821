"""Feature attribution for the tri-modal classifier.

The native method here is gradient x input evaluated in the model's
attribution mode, where attention probabilities and the LayerNorm
denominator are held fixed.  Under that convention the network applied
to one record is a linear map with no intercept (in the bias-free
configuration), so the element attributions of all three modalities sum
to the explained logit -- each input cell receives an additive share of
the score.  Five reference explainers ship alongside it for comparison:
seeded random scores, the last encoder block's attention row, attention
rollout, integrated gradients, and an epsilon-rule relevance propagation
that runs the autodiff reverse sweep with its own rules.

Attributions always target a pre-softmax class logit.  The softmax has
neither local linearity nor a zero intercept, so an exact decomposition
of a probability is not possible; the logit is, and the report records
the residual so the quality of the decomposition is visible.

Shapes follow the record: events (hours, features), notes one value per
token position (the sum of gradient x input over the token's embedding
vector), vitals (timesteps, channels).  All six explainers emit the same
report layout for a given record, so downstream ranking and perturbation
code does not care which method produced a report.

Every explainer takes one record, giving one report, or a cohort (a
sequence of records), giving one report per record.  A cohort runs as
a few batched passes instead of one pass per record.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tape, Tensor
from .blocks import MODES, Context, FrozenState
from .records import CLS_ID, MODALITIES, PAD_ID, MultimodalRecord

__all__ = [
    "EXPLAINER_KINDS",
    "AttributionReport",
    "Explainer",
    "aggregate_feature_attributions",
    "attention_last",
    "attention_rollout",
    "conservation_residual",
    "epsilon_lrp",
    "explain",
    "gi_attribute",
    "integrated_gradients",
    "make_explainer",
    "midpoint_alphas",
    "random_attribution",
    "relevance_propagate",
    "rollout_matrix",
]

# --- the report ----------------------------------------------------------------------

@dataclass
class AttributionReport:
    """Per-element attributions for one record and one target logit.

    ``notes`` holds one value per token position; ``note_ids`` carries the
    token ids so aggregation and perturbation can tell words from [CLS]
    and [PAD] without going back to the dataset.
    """

    record_id: str
    explainer: str
    target_class: int
    target_value: float
    events: np.ndarray     # (hours, features)
    notes: np.ndarray      # (positions,)
    vitals: np.ndarray     # (timesteps, channels)
    note_ids: np.ndarray   # (positions,) int64
    target_kind: str = "logit"

    def __post_init__(self):
        self.events = np.ascontiguousarray(self.events, dtype=np.float64)
        self.notes = np.ascontiguousarray(self.notes, dtype=np.float64)
        self.vitals = np.ascontiguousarray(self.vitals, dtype=np.float64)
        self.note_ids = np.ascontiguousarray(self.note_ids, dtype=np.int64)
        if self.events.ndim != 2 or self.vitals.ndim != 2 or self.notes.ndim != 1:
            raise ValueError("attribution arrays have the wrong rank")
        if self.note_ids.shape != self.notes.shape:
            raise ValueError("note_ids and notes lengths disagree")
        if self.target_class not in (0, 1):
            raise ValueError(f"target_class must be 0 or 1, got {self.target_class}")
        for name in ("events", "notes", "vitals"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite attributions for {name}")

    def modality_sums(self) -> dict[str, float]:
        """Total attribution per modality (exactly the element sums)."""
        return {
            "events": float(np.sum(self.events)),
            "notes": float(np.sum(self.notes)),
            "vitals": float(np.sum(self.vitals)),
        }

    @property
    def total(self) -> float:
        return float(sum(self.modality_sums().values()))

    @property
    def conservation_residual(self) -> float:
        """Target value minus the grand total of element attributions."""
        return self.target_value - self.total

    def csv_rows(self) -> list[tuple[str, int, int, float]]:
        """Flat (modality, feature_id, time_index, attribution) rows.

        The feature id of a note row is the vocabulary id of the token at
        that position; events and vitals use the column index.
        """
        rows = []
        hours, feats = self.events.shape
        for h in range(hours):
            for d in range(feats):
                rows.append(("events", d, h, float(self.events[h, d])))
        for t in range(self.notes.shape[0]):
            rows.append(("notes", int(self.note_ids[t]), t, float(self.notes[t])))
        steps, chans = self.vitals.shape
        for m in range(steps):
            for n in range(chans):
                rows.append(("vitals", n, m, float(self.vitals[m, n])))
        return rows


CSV_HEADER = ("modality", "feature_id", "time_index", "attribution")


def conservation_residual(report: AttributionReport) -> float:
    """Target value minus the sum of all element attributions."""
    return report.conservation_residual


# --- shared plumbing -----------------------------------------------------------------
#
# Every explainer takes one record or a cohort (a sequence of records).
# Records never interact in the network, so a cohort runs as stacked
# rows of a few batched passes, and one bare record is the cohort of one:
# there is a single code path, and a record explained alone gets the
# same bits whichever way it was asked for. In a larger batch BLAS may
# round the gradients' last ulps differently.

def _cohort(records) -> tuple[list[MultimodalRecord], bool]:
    """The records as a list, and whether one bare record was given."""
    if isinstance(records, MultimodalRecord):
        return [records], True
    records = list(records)
    if not records:
        raise ValueError("no records to explain")
    return records, False


def _stacked(records: list[MultimodalRecord]):
    return (np.array([r.events.values for r in records]),
            np.array([r.notes.ids for r in records]),
            np.array([r.vitals.values for r in records]))


def _check_target_class(target_class) -> int:
    target_class = int(target_class)
    if target_class not in (0, 1):
        raise ValueError(f"target_class must be 0 or 1, got {target_class}")
    return target_class


def _probe_grad(ctx: Context, name: str) -> np.ndarray:
    probe = ctx.probes[name]
    g = probe.grad
    if g is None:
        g = np.zeros_like(probe.data)
    if not np.isfinite(g).all():
        raise NonFiniteError(f"non-finite gradient at the {name} input")
    return g


def _build_report(record, explainer, target_class, target_value,
                  r_events, r_notes, r_vitals) -> AttributionReport:
    return AttributionReport(
        record_id=record.record_id,
        explainer=explainer,
        target_class=target_class,
        target_value=float(target_value),
        events=r_events,
        notes=r_notes,
        vitals=r_vitals,
        note_ids=record.notes.ids.copy(),
    )


def _explain(model, records, name: str, target_class: int, kind, attribute):
    """One report per record, ``attribute`` run on stacked rows.

    ``model.pass_rows(kind, ...)`` caps the records per pass (one when
    ``kind`` is None), and ``attribute(chunk, events, notes, vitals)``
    gives, per record of the chunk, its target logit and its events,
    notes and vitals attributions. Returns a report for a bare record,
    else a list.
    """
    records, single = _cohort(records)
    arrays = _stacked(records)
    step = model.pass_rows(kind, *arrays) if kind else 1
    reports = []
    for start in range(0, len(records), step):
        chunk = records[start:start + step]
        results = attribute(chunk, *(a[start:start + step] for a in arrays))
        reports.extend(_build_report(rec, name, target_class, *result)
                       for rec, result in zip(chunk, results))
    return reports[0] if single else reports


# --- gradient x input ----------------------------------------------------------------

def gi_attribute(model, records, target_class: int = 1, mode: str = "attribution"):
    """Gradient x input at the three modality inputs.

    In attribution mode (the default) attention probabilities and the
    LayerNorm denominator are constants of the differentiation, which is
    what makes the decomposition additive; ``mode="standard"`` gives the
    plain gradient of the unmodified network for comparison.

    A cohort runs as recording passes of as many records as fit the
    byte budget, each one tape and one backward seeded with ones over the
    target column: row ``i``'s input gradient is its own logit's.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    target_class = _check_target_class(target_class)

    def attribute(chunk, *arrays):
        ctx = Context(tape=Tape(), params=model.params, mode=mode)
        target = ad.slice_(model.forward(ctx, *arrays), (slice(None), target_class))
        ad.backward(target, seed=np.ones(len(chunk)), wrt=ctx.probes.values())
        r = {m: ctx.probes[m].data * _probe_grad(ctx, m) for m in MODALITIES}
        return list(zip(target.data, r["events"], r["notes"].sum(axis=-1), r["vitals"]))

    name = "lrptrans" if mode == "attribution" else "gradient-input"
    return _explain(model, records, name, target_class, "recording", attribute)


# --- integrated gradients ------------------------------------------------------------

def midpoint_alphas(steps: int) -> np.ndarray:
    """Midpoint-rule interpolation factors (s - 0.5) / steps for s = 1..steps.

    Their mean is exactly one half for every step count, which is what
    makes the Riemann sum complete (sum of attributions equal to the
    output change) on functions with constant curvature. A step count
    that is not an integer of at least one raises ``ValueError``.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    steps = int(steps)
    return (np.arange(1, steps + 1) - 0.5) / steps


def _ig_pass(model, frozen: FrozenState, arrays, alphas: np.ndarray,
             target_class: int) -> dict[str, np.ndarray]:
    """Input gradients of one replayed pass: the record repeated once per
    alpha, row ``i`` probed at ``alphas[i]``. The pass's tape lives only
    inside this call, so it is freed before the next pass records."""
    ctx = Context(tape=Tape(), params=model.params, mode="attribution",
                  frozen=frozen.replay(), input_scale=alphas)
    out = model.forward(ctx, *(np.repeat(a, alphas.size, axis=0) for a in arrays))
    ad.backward(ad.slice_(out, (slice(None), target_class)),
                seed=np.ones(alphas.size), wrt=ctx.probes.values())
    return {m: _probe_grad(ctx, m) for m in MODALITIES}


def integrated_gradients(model, records, target_class: int = 1, steps: int = 20):
    """Path-integrated gradients from an all-zero baseline.

    The note baseline is the zero *embedding*, reached by scaling the
    embedded tokens rather than swapping token ids, so the same scalar
    path parameter drives all three modalities.

    The path is taken through the function the network computes *at the
    explained input*: the endpoint pass records the attention maps and
    normalizer denominators, and every interior pass replays them as
    constants. Scaling the raw inputs instead would make the path
    degenerate -- the normalizers rescale each layer back, so the whole
    output change collapses into an arbitrarily thin slice near zero
    where no quadrature can see it. On the replayed map the integral is
    well posed, and on intercept-free models it is exact at any step
    count because the pre-activation signs cannot change along a ray
    through the origin.

    The interior points are stacked along the batch axis: one replayed
    pass takes the record repeated once per alpha, each row probed at
    its own input scale, and the frozen batch-1 maps broadcast over the
    rows. Records do not interact in the network, so row ``i`` gets the
    gradient a pass at ``alpha_i`` alone would get, up to the last ulps
    BLAS rounds differently at another row count.

    The passes run on ``W`` threads, the calling thread and ``W - 1``
    pool threads, one tape and one replay cursor per pass. ``W`` is the
    smallest of the threads BLAS leaves free (``autodiff._threads``: the
    CPUs this process may use when BLAS runs one thread, else one), the
    rows that fit the full byte budget and the passes the grid needs at
    that budget; so a grid that fits one pass, or a multi-threaded BLAS,
    runs on the calling thread alone. A map-sized kernel called on one
    of the ``W`` threads does not split again. The ``W`` passes in flight share one budget
    (``in_flight`` of :meth:`~icuxai.model.TriModalNet.pass_rows` for a
    ``replay`` pass):
    the parameters, positional tables, frozen maps and LayerNorm
    denominators they all read are counted once, and each pass takes
    its share of the rows. The per-row gradients are summed in alpha
    order once every pass has returned, so the thread schedule changes
    no bit, and the pool is joined before the call returns. A cohort
    runs one record at a time, since the alpha grid already fills the
    passes.
    """
    target_class = _check_target_class(target_class)
    alphas = midpoint_alphas(steps)

    def attribute(chunk, *arrays):
        # endpoint pass: records the frozen constants, the explained value,
        # and the input tensors the gradients get multiplied with; no
        # backward runs on it, so its tape keeps nothing
        frozen = FrozenState()
        end = Context(tape=Tape(record=False), params=model.params,
                      mode="attribution", frozen=frozen)
        logits = model.forward(end, *arrays)
        rows = model.pass_rows("replay", *arrays)
        passes = -(-alphas.size // rows)
        # no more passes in flight than rows fit the budget, so each of
        # them still gets at least one row of its share
        workers = 1 if passes == 1 else min(ad._threads(), rows, passes)
        if workers > 1:
            rows = model.pass_rows("replay", *arrays, in_flight=workers)
        grads = ad._in_order(
            lambda a: _ig_pass(model, frozen, arrays, a, target_class),
            [alphas[i:i + rows] for i in range(0, alphas.size, rows)], workers)
        acc: dict[str, np.ndarray] = {}
        for pass_grads in grads:
            for m in MODALITIES:
                for g in pass_grads[m]:
                    acc[m] = acc[m] + g if m in acc else g
        r = {m: end.probes[m].data[0] * (acc[m] / steps) for m in MODALITIES}
        return [(logits.data[0, target_class], r["events"], r["notes"].sum(axis=-1),
                 r["vitals"])]

    return _explain(model, records, "integrated-gradients", target_class, None,
                    attribute)


# --- attention readouts --------------------------------------------------------------

def _readout(model, records, name: str, target_class: int, read, capture=False):
    """Reports read off non-recording passes. ``read(record, maps)`` gives
    the record's three attribution arrays; with ``capture`` set, ``maps``
    holds its (heads, L, L) attention map per encoder block, keyed by
    modality, and each pass takes as many records as those maps fit."""

    def attribute(chunk, *arrays):
        ctx = Context(tape=Tape(record=False), params=model.params,
                      capture={} if capture else None)
        logits = model.forward(ctx, *arrays).data
        results = []
        for i, rec in enumerate(chunk):
            maps = {m: [p[i] for p in ctx.capture[m]] for m in MODALITIES} \
                if capture else None
            results.append((logits[i, target_class], *read(rec, maps)))
        return results

    return _explain(model, records, name, target_class,
                    "capture" if capture else "inference", attribute)


def _per_position(row: np.ndarray, shape) -> np.ndarray:
    """A per-position weight broadcast across a grid's feature columns."""
    return np.broadcast_to(row[:, None], shape).copy()


def attention_last(model, records, target_class: int = 1):
    """Head-averaged attention of the final block, read at the pooled row.

    Every position gets the weight the pooled (first) position paid to
    it; for events and vitals that weight is broadcast across the feature
    columns so the report shape matches the gradient methods.
    """
    target_class = _check_target_class(target_class)

    def read(rec, maps):
        rows = {m: maps[m][-1][:, 0].mean(axis=0) for m in MODALITIES}
        return (_per_position(rows["events"], rec.events.values.shape), rows["notes"],
                _per_position(rows["vitals"], rec.vitals.values.shape))

    return _readout(model, records, "attention-last", target_class, read, capture=True)


def rollout_matrix(maps: list[np.ndarray]) -> np.ndarray:
    """Compose per-block attention into one position-mixing matrix.

    Each block's head-averaged map is mixed half-and-half with the
    identity (the skip connection), row-normalized, and multiplied onto
    the running product; row i of the result says how much each input
    position feeds position i after the whole stack.
    """
    if not maps:
        raise ValueError("rollout needs at least one attention map")
    width = maps[0].shape[-1]
    out = np.eye(width)
    for block_map in maps:
        a = np.asarray(block_map, dtype=np.float64)
        if a.ndim == 3:  # (heads, L, L)
            a = a.mean(axis=0)
        a = 0.5 * (a + np.eye(width))
        a = a / a.sum(axis=-1, keepdims=True)
        out = a @ out
    return out


def attention_rollout(model, records, target_class: int = 1):
    target_class = _check_target_class(target_class)

    def read(rec, maps):
        rows = {m: rollout_matrix(maps[m])[0].copy() for m in MODALITIES}
        return (_per_position(rows["events"], rec.events.values.shape), rows["notes"],
                _per_position(rows["vitals"], rec.vitals.values.shape))

    return _readout(model, records, "attention-rollout", target_class, read,
                    capture=True)


# --- random control ------------------------------------------------------------------

def random_attribution(model, records, target_class: int = 1, seed: int = 0):
    """Uniform random scores, seeded from the record id.

    The per-record stream depends only on (seed, record id), so a rerun
    of a study reproduces the same control ranking for every record no
    matter how the cohort was batched or ordered.
    """
    target_class = _check_target_class(target_class)
    if seed < 0:
        raise ValueError("seed must be non-negative")

    def read(rec, maps):
        rng = np.random.default_rng(np.random.SeedSequence(
            (int(seed), zlib.crc32(rec.record_id.encode("utf-8")))))
        return (rng.random(rec.events.values.shape), rng.random(rec.notes.ids.shape),
                rng.random(rec.vitals.values.shape))

    return _readout(model, records, "random", target_class, read)


# --- epsilon-rule relevance propagation ----------------------------------------------
#
# Relevance runs down an attribution-mode tape in the reverse sweep of
# ``autodiff.backward``, with the VJP table as its rule table.  With the
# attention maps and LayerNorm denominators detached, every operation left
# is (piecewise) linear in the relevance-carrying operands.  Structural
# kinds and relu move relevance as they move gradients (Ancona et al. 2018)
# and keep their VJPs; add, sub, matmul, sum and mean apply their VJP to
# r / stabilized(z) and weight each share by its input's value; a fixed
# factor in mul, div or scale passes the whole share to the carrying
# operand.  Relevance flows only along paths from the ``read_at`` tensors;
# shares that fall elsewhere (biases, positional tables, other data
# leaves) are absorbed, as usual for the epsilon rule.

#: kinds whose VJP is already their relevance rule
_GRADIENT_RULE_KINDS = ("transpose", "reshape", "concat", "slice", "broadcast",
                        "relu", "gather-rows")
_Z_RULE_KINDS = ("add", "sub", "matmul", "sum-over-axis", "mean-over-axis")


def _stabilized(z: np.ndarray, eps: float) -> np.ndarray:
    return z + np.where(z >= 0.0, eps, -eps)


def _z_rule(vjp, eps: float):
    def rule(tape, nid, node, r, live):
        s = r / _stabilized(tape.values[nid], eps)
        return [(pid, tape.values[pid] * c)
                for pid, c in vjp(tape, nid, node, s, live) if live[pid]]
    return rule


def _pass_through(tape, nid, node, r, live):
    """mul, div, scale: a fixed factor is a mixing weight; the whole share
    passes to the one relevance-carrying operand."""
    if node.kind == "div" and live[node.inputs[1]]:
        raise ValueError("epsilon-LRP has no rule for a relevance-carrying divisor")
    carriers = [pid for pid in node.inputs if live[pid]]
    if len(carriers) > 1:
        raise ValueError("epsilon-LRP has no rule for a product of two "
                         "relevance-carrying operands")
    return [(carriers[0], r)]


def _no_rule(tape, nid, node, r, live):
    raise ValueError(f"epsilon-LRP has no rule for primitive {node.kind!r}")


def _lrp_rules(eps: float) -> dict:
    rules = {kind: vjp if kind in _GRADIENT_RULE_KINDS else _no_rule
             for kind, vjp in ad._VJPS.items()}
    rules.update((kind, _z_rule(ad._VJPS[kind], eps)) for kind in _Z_RULE_KINDS)
    rules.update(dict.fromkeys(("mul", "div", "scale"), _pass_through))
    return rules


def relevance_propagate(target: Tensor, read_at: dict[str, Tensor],
                        eps: float = 1e-6) -> dict[str, np.ndarray]:
    """Run epsilon-rule relevance from ``target`` back down its tape.

    ``read_at`` names the tensors whose accumulated relevance is wanted
    (normally the three modality probes); they must live on the
    target's tape, else :class:`~icuxai.autodiff.TapeError`.  The seed
    relevance is the target's own value.  Relevance flows only along
    paths from the ``read_at`` tensors to the target; the shares of
    everything else are absorbed.  The tape's gradient buffers are left
    untouched.
    """
    tape = target.tape
    tape._require_record("relevance propagation")
    live = ad._path_mask(target, read_at.values())
    rel: list[np.ndarray | None] = [None] * len(tape)
    ad._sweep(target, np.array(target.data, dtype=np.float64), live,
              _lrp_rules(eps), rel, keep={t.node_id for t in read_at.values()})
    return {name: np.zeros_like(t.data) if rel[t.node_id] is None else rel[t.node_id]
            for name, t in read_at.items()}


def epsilon_lrp(model, records, target_class: int = 1, eps: float = 1e-6):
    """Epsilon-rule relevance propagation over the recorded forward tape.

    Attention maps and LayerNorm denominators act as fixed mixing
    weights (the attribution-mode forward already pins them); linear and
    relu operations redistribute by the epsilon rule with the given
    stabilizer. A cohort runs as recording passes of as many records as
    fit the byte budget, each one sweep seeded with its rows' target
    logits.
    """
    target_class = _check_target_class(target_class)
    if eps <= 0:
        raise ValueError("eps must be positive")

    def attribute(chunk, *arrays):
        ctx = Context(tape=Tape(), params=model.params, mode="attribution")
        target = ad.slice_(model.forward(ctx, *arrays), (slice(None), target_class))
        rel = relevance_propagate(target, dict(ctx.probes), eps=eps)
        return list(zip(target.data, rel["events"], rel["notes"].sum(axis=-1),
                        rel["vitals"]))

    return _explain(model, records, "lrp-epsilon", target_class, "recording",
                    attribute)


# --- uniform front end ---------------------------------------------------------------

#: explainer kind -> call on (explainer, record or cohort, target class).
#: Each entry looks its function up as a module global when called, so a
#: wrapper installed on the module (a profiler, a test double) sees every
#: call.
_EXPLAINERS = {
    "random": lambda ex, rec, tc: random_attribution(ex.model, rec, tc, ex.seed),
    "attention-last": lambda ex, rec, tc: attention_last(ex.model, rec, tc),
    "attention-rollout": lambda ex, rec, tc: attention_rollout(ex.model, rec, tc),
    "integrated-gradients":
        lambda ex, rec, tc: integrated_gradients(ex.model, rec, tc, ex.steps),
    "lrp-epsilon": lambda ex, rec, tc: epsilon_lrp(ex.model, rec, tc),
    "lrptrans":
        lambda ex, rec, tc: gi_attribute(ex.model, rec, tc, mode="attribution"),
}

EXPLAINER_KINDS = tuple(_EXPLAINERS)


class Explainer:
    """One attribution method bound to a model, with fixed options."""

    def __init__(self, kind: str, model, *, seed: int = 0, steps: int = 20):
        if kind not in EXPLAINER_KINDS:
            raise ValueError(
                f"unknown explainer kind {kind!r}; expected one of {EXPLAINER_KINDS}")
        self.kind = kind
        self.model = model
        self.seed = int(seed)
        self.steps = steps

    def explain(self, record: MultimodalRecord,
                target_class: int = 1) -> AttributionReport:
        return _EXPLAINERS[self.kind](self, record, target_class)

    def explain_cohort(self, records,
                       target_class: int = 1) -> list[AttributionReport]:
        """One report per record, in order, from batched passes."""
        return _EXPLAINERS[self.kind](self, list(records), target_class)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Explainer(kind={self.kind!r})"


def make_explainer(kind: str, model, **options) -> Explainer:
    return Explainer(kind, model, **options)


def explain(kind: str, model, record: MultimodalRecord, target_class: int = 1,
            **options) -> AttributionReport:
    """Dispatch one record through the named explainer."""
    return make_explainer(kind, model, **options).explain(record, target_class)


# --- cohort aggregation --------------------------------------------------------------

def aggregate_feature_attributions(reports, *, event_names=None, channel_names=None,
                                   vocab=None, min_token_count: int = 100) -> dict:
    """Mean attribution per named feature over a cohort of reports.

    Event features and vitals channels are summed over time within each
    record, then averaged across the cohort.  Note tokens are averaged
    per vocabulary type over every occurrence in the cohort, keeping
    only types seen at least ``min_token_count`` times; [PAD] and [CLS]
    positions never count (they are structure, not content).  Each
    modality's table is sorted by mean attribution, descending.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("cannot aggregate an empty cohort")
    n_events = np.zeros(reports[0].events.shape[1])
    n_vitals = np.zeros(reports[0].vitals.shape[1])
    token_total: dict[int, float] = {}
    token_count: dict[int, int] = {}
    for rep in reports:
        if rep.events.shape[1] != n_events.shape[0] or \
                rep.vitals.shape[1] != n_vitals.shape[0]:
            raise ValueError("reports in a cohort must share feature dimensions")
        n_events += rep.events.sum(axis=0)
        n_vitals += rep.vitals.sum(axis=0)
        for tid, value in zip(rep.note_ids, rep.notes):
            tid = int(tid)
            if tid in (PAD_ID, CLS_ID):
                continue
            token_total[tid] = token_total.get(tid, 0.0) + float(value)
            token_count[tid] = token_count.get(tid, 0) + 1

    k = len(reports)
    id_to_word = {}
    if vocab:
        id_to_word = {int(i): w for w, i in vocab.items()}

    def event_name(d):
        return event_names[d] if event_names else f"event_{d}"

    def channel_name(n):
        return channel_names[n] if channel_names else f"channel_{n}"

    events_table = sorted(
        ((event_name(d), float(n_events[d] / k), k) for d in range(n_events.shape[0])),
        key=lambda row: -row[1])
    vitals_table = sorted(
        ((channel_name(n), float(n_vitals[n] / k), k) for n in range(n_vitals.shape[0])),
        key=lambda row: -row[1])
    notes_table = sorted(
        ((id_to_word.get(tid, f"token_{tid}"), token_total[tid] / token_count[tid],
          token_count[tid])
         for tid in token_total if token_count[tid] >= min_token_count),
        key=lambda row: -row[1])
    return {"events": events_table, "notes": notes_table, "vitals": vitals_table}
