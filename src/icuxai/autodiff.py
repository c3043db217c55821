"""Reverse-mode automatic differentiation on an explicit tape.

All values are dense, row-major ``float64`` numpy arrays. A :class:`Tape`
records every primitive application as an append-only node list, so node
order is already a topological order and the backward sweep is a single
reverse pass over the list. Each node stores its primitive kind, the ids
of its inputs, and whatever forward context its vector-Jacobian product
needs; the forward value of every node is kept on the tape so later
passes (gradients, relevance propagation) can revisit it. A tape built
with ``record=False`` keeps nothing, for forwards no backward follows.

``detach`` inserts a stop-gradient marker: identity in the forward pass,
zero gradient to its parent. This is the single mechanism used to freeze
attention maps and normalization denominators during attribution.

Any NaN or Inf produced by a primitive forward raises
:class:`NonFiniteError` immediately instead of propagating silently —
division by zero, log of a non-positive value and overflowing exp are
all hard errors.

Tapes are single-writer: record from one thread only. Once the forward
pass is done, concurrent reads of values and gradients are safe.
Integrated gradients runs several passes at once on a thread pool, but
each pass still records on its own tape, from one thread; the passes
share only arrays they read.

The map-sized kernels (``attention_map``, ``dropout_matmul`` and their
VJPs) split their arithmetic over ``W`` threads when a map is large: the
calling thread and ``W - 1`` pool threads each take a piece of the
leading (batch, head) axes and write their slice of one preallocated
output, and the pool is joined before the kernel returns. Every row is
computed as on one thread, so the bits do not change, and the tape is
still recorded by the calling thread alone. ``W`` is one under a
multi-threaded BLAS, for maps below ``W`` times :data:`_SPLIT_BYTES`,
and on a runner of an enclosing :func:`_in_order` such as an integrated
gradients pass; see :func:`_threads`.

Training steps and explainer passes each free their whole tape before
the next one records, so on glibc the importing process keeps
``HEAP_TOP_PAD`` bytes of free heap instead of handing it back to the
system at once, and allocates from one arena on every thread; see
:func:`_pad_heap_top_in_one_arena`.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

#: free heap that glibc keeps at the top of the heap when it trims
HEAP_TOP_PAD = 64 << 20


def _pad_heap_top_in_one_arena() -> None:
    """Set glibc's ``M_TOP_PAD`` to ``HEAP_TOP_PAD`` and ``M_ARENA_MAX``
    to one, each unless its environment variable (``MALLOC_TOP_PAD_``,
    ``MALLOC_ARENA_MAX``) already sets it. A no-op where ``mallopt`` is
    missing (not glibc).

    When a pass frees its tape, the freed block sits at the top of the
    heap, and glibc returns it to the system once it exceeds its trim
    threshold; the next pass then takes a page fault on every page of
    its own tape. At desk geometry that was about 75 000 minor faults
    per training epoch, a sixth of the epoch's time. The pad keeps up to
    ``HEAP_TOP_PAD`` of that block for reuse; it is filled only by
    memory a pass has already used, so the peak is unchanged.

    Setting ``M_TOP_PAD``, by this call or by ``MALLOC_TOP_PAD_``, also
    turns off glibc's dynamic mmap threshold and pins it at 128 KiB. So
    every block above 128 KiB, such as a 16 MB attention map at paper
    geometry, is a fresh mmap faulted in page by page and unmapped on
    free. A loop that allocates and frees one numpy array took about 257
    minor faults per allocation at 1 MiB and 520 at 16 MiB with the pad,
    and none once warmed up without it.

    glibc gives each new thread an arena of its own, and those arenas
    cannot reuse the padded heap of the main one. Integrated gradients'
    worker threads raised paper-geometry peak RSS from 274 to 383 MB
    that way; with one arena the threads allocate from the padded heap
    and the peak stays near 275 MB.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for env, param, value in (("MALLOC_TOP_PAD_", -2, HEAP_TOP_PAD),  # M_TOP_PAD
                              ("MALLOC_ARENA_MAX", -8, 1)):           # M_ARENA_MAX
        if env not in os.environ:
            mallopt(param, value)


_pad_heap_top_in_one_arena()

__all__ = [
    "NonFiniteError",
    "TapeError",
    "Node",
    "Tape",
    "Tensor",
    "PRIMITIVE_KINDS",
    "backward",
    "grad_check",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "slice_",
    "sum_over_axis",
    "mean_over_axis",
    "max_over_axis",
    "exp",
    "log",
    "sqrt",
    "relu",
    "softmax_over_axis",
    "attention_map",
    "dropout_matmul",
    "scale",
    "broadcast_to",
    "gather_rows",
    "detach",
]


class NonFiniteError(FloatingPointError):
    """A primitive produced NaN or Inf in its forward output. ``kind``
    names the primitive whose finite check failed, when one did."""

    def __init__(self, message: str = "", kind: str | None = None):
        super().__init__(message)
        self.kind = kind


class TapeError(RuntimeError):
    """Misuse of a tape (backward twice, cross-tape operands, bad seed)."""


class Node:
    """One recorded primitive application."""

    __slots__ = ("kind", "inputs", "ctx")

    def __init__(self, kind: str, inputs: tuple[int, ...], ctx: dict):
        self.kind = kind
        self.inputs = inputs
        self.ctx = ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.kind!r}, inputs={self.inputs})"


class Tensor:
    """Handle to one node's value on a tape."""

    __slots__ = ("tape", "node_id", "data")

    def __init__(self, tape: "Tape", node_id: int, data: np.ndarray):
        self.tape = tape
        self.node_id = node_id
        self.data = data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def grad(self) -> np.ndarray | None:
        """Gradient accumulated for this node by the last backward pass."""
        self.tape._require_record("a gradient")
        return self.tape.grads[self.node_id]

    # --- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(self.tape, other), self)

    def __mul__(self, other):
        if _is_number(other):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_number(other):
            return scale(self, 1.0 / float(other))
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(self.tape, other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes=None) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return sum_over_axis(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return mean_over_axis(self, axis, keepdims)

    def max(self, axis=None, keepdims=False) -> "Tensor":
        return max_over_axis(self, axis, keepdims)

    def detach(self) -> "Tensor":
        return detach(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, node={self.node_id})"


class Tape:
    """Append-only record of primitive applications.

    ``nodes[i]`` describes how ``values[i]`` was computed; ``grads[i]`` is
    the gradient buffer filled by :func:`backward`. Node ids are assigned
    in creation order, so every node's inputs have smaller ids and the
    list is its own topological order.

    ``Tape(record=False)`` is for forwards that no backward follows
    (inference, attention readouts). Every primitive computes its value
    and runs its finite checks exactly as on a recording tape, so the
    values are bit-identical, but nothing is kept: ``len(tape)`` stays 0
    and an intermediate value is freed as soon as no caller holds it.
    :func:`backward`, relevance propagation and :attr:`Tensor.grad` on
    such a tape raise :class:`TapeError`.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []
        self.values: list[np.ndarray] = []
        self.grads: list[np.ndarray | None] = []
        self._backward_done = False
        if not record:
            self._record = self._discard

    def __len__(self) -> int:
        return len(self.nodes)

    def _record(self, kind: str, inputs: tuple[int, ...], ctx: dict,
                value: np.ndarray) -> Tensor:
        self.nodes.append(Node(kind, inputs, ctx))
        self.values.append(value)
        self.grads.append(None)
        return Tensor(self, len(self.nodes) - 1, value)

    def _discard(self, kind: str, inputs: tuple[int, ...], ctx: dict,
                 value: np.ndarray) -> Tensor:
        """``_record`` of a non-recording tape: the value, and no node."""
        return Tensor(self, -1, value)

    def _require_record(self, what: str) -> None:
        if not self.record:
            raise TapeError(f"{what} needs a recording tape; this one has record=False")

    def leaf(self, value) -> Tensor:
        """Register an input value (data, constant or parameter) as a leaf.

        Leaves carry no role flag: gradients and relevance follow the path
        from the tensors a pass is asked about.
        """
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("leaf value contains NaN or Inf")
        return self._record("leaf", (), {}, arr)

    def reset_grads(self) -> None:
        """Clear all gradient buffers so backward may run again."""
        self.grads = [None] * len(self.nodes)
        self._backward_done = False


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _coerce(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise TapeError("operands live on different tapes")
        return x
    return tape.leaf(np.asarray(x, dtype=np.float64))


def _tape_of(*xs) -> Tape:
    for x in xs:
        if isinstance(x, Tensor):
            return x.tape
    raise TapeError("at least one operand must be a Tensor")


def _check_finite(kind: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"primitive {kind!r} produced a non-finite value", kind)
    return arr


# --- threads ------------------------------------------------------------
#
# One rule sets how many threads a call may run its arithmetic on, and one
# runner runs the work: integrated gradients' replay passes and the pieces
# of a map-sized kernel both go through ``_in_order``. A runner never
# starts threads of its own, so a process runs at most ``_cpu_threads()``
# threads of arithmetic.

#: bytes of a map each thread takes at least, so a map splits over ``W``
#: threads only from ``W`` times this size. numpy asks for huge pages from
#: 4 MiB, and a smaller piece's temporaries fault in page by page.
_SPLIT_BYTES = 4 << 20


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, capped by a
    cgroup v2 CPU quota when one is set."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota, period = fh.read().split()
        if quota != "max":
            cpus = min(cpus, max(1, int(quota) // int(period)))
    except (OSError, ValueError):
        pass
    return cpus


@lru_cache(maxsize=1)
def _openblas_num_threads():
    """The loaded OpenBLAS's thread-count getter, or None when no OpenBLAS
    that can be asked is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = (), ctypes.c_int
                return fn
    return None


def _cpu_threads() -> int:
    """Threads a process may run its arithmetic on: the usable CPUs when
    BLAS runs each product on one thread, else one, since a multi-threaded
    BLAS already spreads every product over them (a BLAS whose thread
    count cannot be read counts as multi-threaded)."""
    get = _openblas_num_threads()
    return _usable_cpus() if get is not None and get() == 1 else 1


_runner = threading.local()


def _threads() -> int:
    """Threads one call may use: :func:`_cpu_threads`, or one on a runner
    of an enclosing :func:`_in_order`, whose threads already fill them."""
    return 1 if getattr(_runner, "busy", False) else _cpu_threads()


def _in_order(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]``, on the calling thread and ``workers - 1``
    pool threads: runner ``k`` takes every ``workers``-th item from item
    ``k``, and the calling thread is runner 0, so it works instead of
    waiting. While a runner works, :func:`_threads` reads one on it. The
    pool is joined before this returns, also when ``fn`` raises; the
    exception propagates unchanged, the calling thread's first."""
    if workers == 1:
        return [fn(x) for x in items]
    out = [None] * len(items)

    def run(k):
        busy = getattr(_runner, "busy", False)
        _runner.busy = True
        try:
            out[k::workers] = [fn(x) for x in items[k::workers]]
        finally:
            _runner.busy = busy

    pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="icuxai")
    try:
        others = [pool.submit(run, k) for k in range(1, workers)]
        run(0)
        for f in others:
            f.result()
    finally:
        pool.shutdown()
    return out


def _split(fn, lead: tuple[int, ...], nbytes: int) -> list:
    """``fn(key)`` for each piece of a map of ``nbytes`` bytes, run by
    :func:`_in_order`. A key indexes the map's leading axes ``lead``: one
    of them is cut into ``W`` nearly equal slices, the first whose length
    ``W`` divides, else the first at least ``W`` long. ``W`` is
    :func:`_threads`, but at most ``nbytes // _SPLIT_BYTES``; at one, or
    with no axis to cut, ``fn(...)`` runs once on the calling thread."""
    workers = nbytes // _SPLIT_BYTES
    if workers > 1:
        workers = min(workers, _threads())
    fits = [i for i, n in enumerate(lead) if n >= workers] if workers > 1 else []
    if not fits:
        return [fn(...)]
    axis = next((i for i in fits if lead[i] % workers == 0), fits[0])
    bounds = [lead[axis] * i // workers for i in range(workers + 1)]
    keys = [(slice(None),) * axis + (slice(a, b),) + (slice(None),) * (len(lead) - axis - 1)
            for a, b in zip(bounds, bounds[1:])]
    return _in_order(fn, keys, workers)


def _split_lead(lead: tuple[int, ...], full: np.ndarray, other: np.ndarray) -> tuple:
    """``lead`` when a kernel may split it: ``full`` has those leading
    axes and ``other`` has them too or none, so every piece's rows and
    products are the serial ones. Else ``()``, which never splits."""
    if full.shape[:-2] == lead and other.shape[:-2] in (lead, ()):
        return lead
    return ()


def _part(arr, key):
    """``arr``'s share of piece ``key`` of the leading axes: an axis of
    length one broadcasts and is taken whole, and so is an array with no
    leading axes (``arr``'s last two axes are a map's or a product's)."""
    if arr is None or key is Ellipsis:
        return arr
    lead = max(arr.ndim - 2, 0)
    key = key[len(key) - lead:] if lead else ()
    return arr[tuple(slice(None) if n == 1 else s for n, s in zip(arr.shape, key))]


def _binary(kind: str, a, b, op: Callable) -> Tensor:
    """Elementwise op with numpy broadcasting; no broadcast copy is recorded.
    The reverse sweep sums each operand's gradient back to its shape."""
    tape = _tape_of(a, b)
    a = _coerce(tape, a)
    b = _coerce(tape, b)
    with np.errstate(all="ignore"):
        value = op(a.data, b.data)
    _check_finite(kind, value)
    return tape._record(kind, (a.node_id, b.node_id), {}, value)


# --- primitive forwards -------------------------------------------------

def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply)


def div(a, b) -> Tensor:
    """Elementwise division. Division by zero is a hard error."""
    return _binary("div", a, b, np.divide)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes must broadcast."""
    tape = _tape_of(a, b)
    a = _coerce(tape, a)
    b = _coerce(tape, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions do not agree: {a.data.shape} @ {b.data.shape}")
    with np.errstate(all="ignore"):
        value = a.data @ b.data
    _check_finite("matmul", value)
    return tape._record("matmul", (a.node_id, b.node_id), {}, value)


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is not None:
        axes = tuple(int(ax) for ax in axes)
        if sorted(axes) != list(range(x.ndim)):
            raise ValueError(f"axes {axes} is not a permutation for ndim {x.ndim}")
    value = np.transpose(x.data, axes)
    return x.tape._record("transpose", (x.node_id,), {"axes": axes}, value)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in (shape if isinstance(shape, Iterable) else (shape,)))
    try:
        value = np.reshape(x.data, shape)
    except ValueError as e:
        raise ValueError(f"cannot reshape {x.data.shape} to {shape}") from e
    return x.tape._record("reshape", (x.node_id,), {"shape": x.data.shape}, value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat needs at least one input")
    tape = _tape_of(*tensors)
    tensors = [_coerce(tape, t) for t in tensors]
    ndim = tensors[0].ndim
    axis = axis % ndim
    for t in tensors[1:]:
        if t.ndim != ndim:
            raise ValueError("concat inputs must have the same rank")
        for ax in range(ndim):
            if ax != axis and t.data.shape[ax] != tensors[0].data.shape[ax]:
                raise ValueError(
                    f"concat shapes differ off-axis: {t.data.shape} vs {tensors[0].data.shape}")
    value = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = tuple(t.data.shape[axis] for t in tensors)
    return tape._record("concat", tuple(t.node_id for t in tensors),
                        {"axis": axis, "sizes": sizes}, value)


def _validate_key(key, shape) -> tuple:
    if not isinstance(key, tuple):
        key = (key,)
    if len(key) > len(shape):
        raise IndexError(f"too many indices for shape {shape}")
    for item, dim in zip(key, shape):
        if isinstance(item, (int, np.integer)):
            if not -dim <= item < dim:
                raise IndexError(f"index {item} out of range for axis of size {dim}")
        elif isinstance(item, slice):
            for bound in (item.start, item.stop):
                if bound is not None and not -dim <= bound <= dim:
                    raise IndexError(f"slice bound {bound} out of range for axis of size {dim}")
            if item.step is not None and item.step <= 0:
                raise IndexError("slice step must be positive")
        else:
            raise TypeError(f"unsupported index {item!r} (ints and slices only)")
    return key


def slice_(x: Tensor, key) -> Tensor:
    """Basic slicing with strict bounds checking (no silent clipping)."""
    key = _validate_key(key, x.data.shape)
    value = np.asarray(x.data[key])
    return x.tape._record("slice", (x.node_id,), {"key": key, "shape": x.data.shape}, value)


def _reduction(kind: str, x: Tensor, axis, keepdims: bool, op: Callable) -> Tensor:
    value = np.asarray(op(x.data, axis=axis, keepdims=keepdims))
    _check_finite(kind, value)
    ctx = {"axis": axis, "keepdims": keepdims, "shape": x.data.shape}
    return x.tape._record(kind, (x.node_id,), ctx, value)


def sum_over_axis(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduction("sum-over-axis", x, axis, keepdims, np.sum)


def mean_over_axis(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduction("mean-over-axis", x, axis, keepdims, np.mean)


def max_over_axis(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduction("max-over-axis", x, axis, keepdims, np.max)


def _unary(kind: str, x: Tensor, op: Callable) -> Tensor:
    with np.errstate(all="ignore"):
        value = op(x.data)
    _check_finite(kind, value)
    return x.tape._record(kind, (x.node_id,), {}, value)


def exp(x: Tensor) -> Tensor:
    return _unary("exp", x, np.exp)


def log(x: Tensor) -> Tensor:
    """Natural log. Non-positive inputs raise NonFiniteError."""
    return _unary("log", x, np.log)


def sqrt(x: Tensor) -> Tensor:
    return _unary("sqrt", x, np.sqrt)


def relu(x: Tensor) -> Tensor:
    value = np.maximum(x.data, 0.0)
    return x.tape._record("relu", (x.node_id,), {}, value)


def _finite_factor(factor) -> float:
    factor = float(factor)
    if not np.isfinite(factor):
        raise NonFiniteError("scale factor must be finite")
    return factor


def _softmax_in_place(z: np.ndarray, axis: int, factor: float, mask) -> np.ndarray:
    """``softmax(z * factor + mask)`` over ``axis``, computed in ``z``'s own
    buffer with the finite checks of recording ``scale``, ``add`` and a
    plain softmax in turn. Max subtraction happens internally."""
    z *= factor
    _check_finite("scale", z)
    if mask is not None:
        with np.errstate(all="ignore"):
            z += mask
        _check_finite("add", z)
    z -= np.max(z, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.sum(z, axis=axis, keepdims=True)
    _check_finite("softmax-over-axis", z)
    return z


def softmax_over_axis(x: Tensor, axis: int = -1, factor: float = 1.0,
                      mask=None) -> Tensor:
    """Numerically stable ``softmax(x * factor + mask)`` as one node.

    ``mask`` is an optional additive constant array (attention padding)
    that broadcasts to ``x``'s shape; it receives no gradient. The value
    is bit-identical to recording ``scale``, ``add`` and a plain softmax
    in turn, with the same finite checks, but the intermediate arrays are
    computed in one buffer and only the probabilities stay on the tape.
    """
    factor = _finite_factor(factor)
    z = _softmax_in_place(np.array(x.data, dtype=np.float64), axis, factor, mask)
    return x.tape._record("softmax-over-axis", (x.node_id,),
                          {"axis": axis, "factor": factor}, z)


def attention_map(q, k, factor: float = 1.0, mask=None) -> Tensor:
    """Attention probabilities ``softmax(q @ k^T * factor + mask)`` over
    the last axis, as one node.

    ``k^T`` swaps ``k``'s last two axes; leading axes broadcast as in
    :func:`matmul`. The value is bit-identical to recording
    ``matmul(q, transpose(k))`` and then :func:`softmax_over_axis` with
    the same ``factor`` and ``mask``, with the same finite checks, but the
    scores never reach the tape: the softmax runs in the product's buffer
    and the tape keeps only the map. The backward rebuilds nothing; it
    needs the map and the two inputs.
    """
    tape = _tape_of(q, k)
    q = _coerce(tape, q)
    k = _coerce(tape, k)
    if q.ndim < 2 or k.ndim < 2:
        raise ValueError("attention-map operands must have at least 2 dimensions")
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ValueError(
            f"attention-map query and key widths differ: {q.data.shape} vs {k.data.shape}")
    factor = _finite_factor(factor)
    mask = None if mask is None else np.asarray(mask)
    vq, kt = q.data, np.swapaxes(k.data, -1, -2)
    lead = np.broadcast_shapes(vq.shape[:-2], kt.shape[:-2])
    z = np.empty(lead + (vq.shape[-2], kt.shape[-1]))

    def piece(key):
        # a piece's first failed check, so the caller can raise the kind
        # the whole map fails first
        zk = z[key]
        try:
            with np.errstate(all="ignore"):
                np.matmul(_part(vq, key), _part(kt, key), out=zk)
            _check_finite("matmul", zk)
            _softmax_in_place(zk, -1, factor, _part(mask, key))
        except NonFiniteError as err:
            return err
        return None

    failed = [err for err in _split(piece, _split_lead(lead, vq, kt), z.nbytes)
              if err is not None]
    if failed:
        raise min(failed, key=lambda err: _MAP_CHECKS.index(err.kind))
    return tape._record("attention-map", (q.node_id, k.node_id), {"factor": factor}, z)


#: the finite checks of an attention map, in the order they run
_MAP_CHECKS = ("matmul", "scale", "add", "softmax-over-axis")


def dropout_matmul(x, w, keep: np.ndarray, factor: float) -> Tensor:
    """Inverted dropout of ``x`` folded into the product that consumes it:
    ``((x * keep) * factor) @ w`` as one node.

    ``keep`` is a boolean array of ``x``'s shape (True where a unit is
    kept) and ``factor`` the ``1 / (1 - rate)`` rescale; both are
    constants of the node. Multiplying by ``True`` is exact and the
    rescale rounds once, so the value is bit-identical to recording a
    float mask leaf holding ``keep / (1 - rate)``, a ``mul`` and a
    ``matmul``. Only the product stays on the tape, with ``keep`` in the
    node's context at one byte per element; the backward rebuilds the
    dropped ``x`` when ``w`` needs a gradient.
    """
    tape = _tape_of(x, w)
    x = _coerce(tape, x)
    w = _coerce(tape, w)
    keep = np.asarray(keep)
    if keep.dtype != np.bool_ or keep.shape != x.data.shape:
        raise ValueError(f"dropout keep mask must be a boolean array of shape "
                         f"{x.data.shape}, got {keep.dtype} {keep.shape}")
    if x.ndim < 2 or w.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if x.data.shape[-1] != w.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions do not agree: {x.data.shape} @ {w.data.shape}")
    factor = _finite_factor(factor)
    vx, vw = x.data, w.data
    lead = np.broadcast_shapes(vx.shape[:-2], vw.shape[:-2])
    value = np.empty(lead + (vx.shape[-2], vw.shape[-1]))

    def piece(key):
        out = value[key]
        with np.errstate(all="ignore"):
            np.matmul(_dropped(_part(vx, key), _part(keep, key), factor), _part(vw, key),
                      out=out)
        _check_finite("matmul", out)

    _split(piece, _split_lead(lead, vx, vw), vx.nbytes)
    return tape._record("dropout-matmul", (x.node_id, w.node_id),
                        {"keep": keep, "factor": factor}, value)


def _dropped(x: np.ndarray, keep: np.ndarray, factor: float) -> np.ndarray:
    """``(x * keep) * factor``: the same bits as ``x`` times the float mask
    ``keep / (1 - rate)``, signed zeros included."""
    out = x * keep
    out *= factor
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    factor = _finite_factor(factor)
    value = x.data * factor
    _check_finite("scale", value)
    return x.tape._record("scale", (x.node_id,), {"factor": factor}, value)


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    value = np.ascontiguousarray(np.broadcast_to(x.data, shape))
    return x.tape._record("broadcast", (x.node_id,), {"shape": x.data.shape}, value)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup ``table[indices]`` along axis 0 (embedding lookup)."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("gather-rows indices must be integers")
    n = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather-rows index out of range for table of {n} rows")
    value = table.data[idx]
    return table.tape._record("gather-rows", (table.node_id,),
                              {"indices": idx.copy(), "rows": n}, value)


def detach(x: Tensor) -> Tensor:
    """Stop-gradient marker: forward identity, zero upstream gradient."""
    return x.tape._record("detach", (x.node_id,), {}, x.data)


# --- backward -----------------------------------------------------------

def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _expand_reduced(g: np.ndarray, node: Node) -> np.ndarray:
    """Re-insert reduced axes so `g` broadcasts against the reduction input."""
    axis = node.ctx["axis"]
    if axis is not None and not node.ctx["keepdims"]:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, node.ctx["shape"])


def _vjp_add(tape, nid, node, g, live):
    return ((node.inputs[0], g), (node.inputs[1], g))


def _vjp_sub(tape, nid, node, g, live):
    return ((node.inputs[0], g), (node.inputs[1], -g))


def _on_path(live, nid: int) -> bool:
    return live is None or live[nid]


def _vjp_mul(tape, nid, node, g, live):
    a, b = node.inputs
    out = []
    if _on_path(live, a):
        out.append((a, g * tape.values[b]))
    if _on_path(live, b):
        out.append((b, g * tape.values[a]))
    return out


def _vjp_div(tape, nid, node, g, live):
    a, b = node.inputs
    vb = tape.values[b]
    ga = g / vb
    out = [(a, ga)] if _on_path(live, a) else []
    if _on_path(live, b):
        out.append((b, -ga * tape.values[a] / vb))
    return out


def _vjp_matmul(tape, nid, node, g, live):
    a, b = node.inputs
    va, vb = tape.values[a], tape.values[b]
    out = []
    if _on_path(live, a):
        out.append((a, _reduce_to(g @ np.swapaxes(vb, -1, -2), va.shape)))
    if _on_path(live, b):
        out.append((b, _reduce_to(np.swapaxes(va, -1, -2) @ g, vb.shape)))
    return out


def _vjp_transpose(tape, nid, node, g, live):
    axes = node.ctx["axes"]
    return ((node.inputs[0], np.transpose(g, None if axes is None else np.argsort(axes))),)


def _vjp_reshape(tape, nid, node, g, live):
    return ((node.inputs[0], np.reshape(g, node.ctx["shape"])),)


def _vjp_concat(tape, nid, node, g, live):
    axis, sizes = node.ctx["axis"], node.ctx["sizes"]
    out, offset = [], 0
    key = [slice(None)] * g.ndim
    for pid, size in zip(node.inputs, sizes):
        key[axis] = slice(offset, offset + size)
        out.append((pid, g[tuple(key)]))
        offset += size
    return out


def _vjp_slice(tape, nid, node, g, live):
    full = np.zeros(node.ctx["shape"], dtype=np.float64)
    full[node.ctx["key"]] = g
    return ((node.inputs[0], full),)


def _vjp_sum(tape, nid, node, g, live):
    return ((node.inputs[0], np.ascontiguousarray(_expand_reduced(g, node))),)


def _vjp_mean(tape, nid, node, g, live):
    count = tape.values[node.inputs[0]].size // max(tape.values[nid].size, 1)
    return ((node.inputs[0], _expand_reduced(g, node) / count),)


def _vjp_max(tape, nid, node, g, live):
    x = tape.values[node.inputs[0]]
    axis = node.ctx["axis"]
    vmax = np.max(x, axis=axis, keepdims=True)
    mask = (x == vmax).astype(np.float64)
    mask /= np.sum(mask, axis=axis, keepdims=True)  # split gradient across ties
    return ((node.inputs[0], _expand_reduced(g, node) * mask),)


def _vjp_exp(tape, nid, node, g, live):
    return ((node.inputs[0], g * tape.values[nid]),)


def _vjp_log(tape, nid, node, g, live):
    return ((node.inputs[0], g / tape.values[node.inputs[0]]),)


def _vjp_sqrt(tape, nid, node, g, live):
    return ((node.inputs[0], g / (2.0 * tape.values[nid])),)


def _vjp_relu(tape, nid, node, g, live):
    x = tape.values[node.inputs[0]]
    return ((node.inputs[0], g * (x > 0.0)),)


def _vjp_softmax(tape, nid, node, g, live):
    p = tape.values[nid]
    axis, factor = node.ctx["axis"], node.ctx["factor"]
    inner = np.sum(g * p, axis=axis, keepdims=True)
    out = p * (g - inner)
    out *= factor
    return ((node.inputs[0], out),)


def _vjp_attention_map(tape, nid, node, g, live):
    # the softmax rule gives the scores' gradient gs, built in one buffer;
    # the matmul and transpose rules then run on the views the unfused
    # nodes would hold. g is never written: _vjp_add hands one array to
    # both of its operands
    qid, kid = node.inputs
    p, factor = tape.values[nid], node.ctx["factor"]
    vq, kt = tape.values[qid], np.swapaxes(tape.values[kid], -1, -2)
    lead = p.shape[:-2]
    gq = np.empty(lead + vq.shape[-2:]) if _on_path(live, qid) else None
    gkt = np.empty(lead + kt.shape[-2:]) if _on_path(live, kid) else None

    def piece(key):
        gk, pk = _part(g, key), p[key]
        gs = np.multiply(gk, pk)
        inner = np.sum(gs, axis=-1, keepdims=True)
        np.subtract(gk, inner, out=gs)
        gs *= pk
        gs *= factor
        if gq is not None:
            np.matmul(gs, np.swapaxes(_part(kt, key), -1, -2), out=gq[key])
        if gkt is not None:
            np.matmul(np.swapaxes(_part(vq, key), -1, -2), gs, out=gkt[key])

    _split(piece, _split_lead(lead, vq, kt), p.nbytes)
    out = []
    if gq is not None:
        out.append((qid, _reduce_to(gq, vq.shape)))
    if gkt is not None:
        out.append((kid, np.swapaxes(_reduce_to(gkt, kt.shape), -1, -2)))
    return out


def _vjp_dropout_matmul(tape, nid, node, g, live):
    a, b = node.inputs
    keep, factor = node.ctx["keep"], node.ctx["factor"]
    va, vb = tape.values[a], tape.values[b]
    lead = g.shape[:-2]
    # x's gradient is the product itself when x has all its leading axes;
    # the product is then this node's own, and the dropout applies in place
    whole = va.shape[:-2] == lead
    ga = np.empty(lead + va.shape[-2:]) if _on_path(live, a) else None
    gb = np.empty(lead + vb.shape[-2:]) if _on_path(live, b) else None

    def piece(key):
        gk, kk = _part(g, key), _part(keep, key)
        if ga is not None:
            gak = ga[key]
            np.matmul(gk, np.swapaxes(_part(vb, key), -1, -2), out=gak)
            if whole:
                gak *= kk
                gak *= factor
        if gb is not None:
            dropped = _dropped(_part(va, key), kk, factor)
            np.matmul(np.swapaxes(dropped, -1, -2), gk, out=gb[key])

    _split(piece, _split_lead(lead, va, vb), va.nbytes)
    out = []
    if ga is not None:
        out.append((a, ga if whole else _dropped(_reduce_to(ga, va.shape), keep, factor)))
    if gb is not None:
        out.append((b, _reduce_to(gb, vb.shape)))
    return out


def _vjp_scale(tape, nid, node, g, live):
    return ((node.inputs[0], g * node.ctx["factor"]),)


def _vjp_broadcast(tape, nid, node, g, live):
    return ((node.inputs[0], _reduce_to(g, node.ctx["shape"])),)


def _vjp_gather(tape, nid, node, g, live):
    table_shape = tape.values[node.inputs[0]].shape
    out = np.zeros(table_shape, dtype=np.float64)
    np.add.at(out, node.ctx["indices"], g)
    return ((node.inputs[0], out),)

_VJPS: dict[str, Callable] = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "matmul": _vjp_matmul,
    "transpose": _vjp_transpose,
    "reshape": _vjp_reshape,
    "concat": _vjp_concat,
    "slice": _vjp_slice,
    "sum-over-axis": _vjp_sum,
    "mean-over-axis": _vjp_mean,
    "max-over-axis": _vjp_max,
    "exp": _vjp_exp,
    "log": _vjp_log,
    "sqrt": _vjp_sqrt,
    "relu": _vjp_relu,
    "softmax-over-axis": _vjp_softmax,
    "attention-map": _vjp_attention_map,
    "dropout-matmul": _vjp_dropout_matmul,
    "scale": _vjp_scale,
    "broadcast": _vjp_broadcast,
    "gather-rows": _vjp_gather,
}

PRIMITIVE_KINDS = (*_VJPS, "detach")


def _path_mask(output: Tensor, wrt) -> list[bool]:
    """Mark every node on a path from a ``wrt`` tensor up to ``output``.

    One forward sweep over the node list: a node is on a path when one
    of its inputs is. A ``detach`` node never is, since no gradient
    crosses it. Nodes after ``output`` are not marked.
    """
    tape = output.tape
    live = [False] * (output.node_id + 1)
    first = output.node_id + 1
    for t in wrt:
        if not isinstance(t, Tensor) or t.tape is not tape:
            raise TapeError("every wrt tensor must live on the output's tape")
        if t.node_id <= output.node_id:
            live[t.node_id] = True
            first = min(first, t.node_id)
    nodes = tape.nodes
    for nid in range(first + 1, output.node_id + 1):
        node = nodes[nid]
        if live[nid] or node.kind == "detach":
            continue
        for pid in node.inputs:
            if live[pid]:
                live[nid] = True
                break
    return live


def backward(output: Tensor, seed=None, wrt=None) -> None:
    """Accumulate gradients of ``output`` into the nodes' buffers.

    ``output`` must be a scalar unless an explicit ``seed`` array of the
    output's shape is given. Calling backward twice on the same tape
    without :meth:`Tape.reset_grads` is an error.

    Without ``wrt`` every node that ``output`` depends on receives its
    gradient, and every buffer is kept. With ``wrt`` (an iterable of
    tensors on the same tape) only nodes on a path from some ``wrt``
    tensor to ``output`` are expanded, and ``matmul``, ``mul`` and ``div``
    skip the operand gradients off that path; every other node keeps
    ``grad is None``. Every contribution to an on-path node comes from an
    on-path node, so the gradients at the ``wrt`` tensors are
    bit-identical to those of a full backward. A pruned backward also
    frees each expanded node's buffer once it has propagated, so after it
    only the ``wrt`` tensors and leaves hold gradients (``output`` holds
    none unless it is a ``wrt`` tensor or was never expanded).
    """
    tape = output.tape
    tape._require_record("backward")
    if tape._backward_done:
        raise TapeError("backward already ran on this tape; call reset_grads() first")
    if seed is None:
        if output.data.size != 1:
            raise TapeError("backward on a non-scalar output requires an explicit seed")
        seed_arr = np.ones_like(output.data)
    else:
        seed_arr = np.ascontiguousarray(seed, dtype=np.float64)
        if seed_arr.shape != output.data.shape:
            raise TapeError(
                f"seed shape {seed_arr.shape} does not match output {output.data.shape}")
    if wrt is None:
        live, keep = None, ()
    else:
        wrt = list(wrt)
        live = _path_mask(output, wrt)
        keep = {t.node_id for t in wrt}
    _sweep(output, seed_arr, live, _VJPS, tape.grads, keep)
    tape._backward_done = True


def _sweep(output: Tensor, seed: np.ndarray, live: list[bool] | None,
           rules: dict[str, Callable], bufs: list, keep=()) -> None:
    """The one reverse pass: seed ``output``, then apply the VJP-shaped
    ``rules[kind]`` down the tape (kinds without a rule stop the flow),
    accumulating into ``bufs``. A contribution to a broadcast operand is
    summed back to the operand's shape first. A node none of whose inputs
    is on the ``live`` path is not expanded; off-path contributions are
    dropped. With a ``live`` path, an expanded node's buffer is freed once
    it has propagated unless its id is in ``keep``.
    """
    tape = output.tape
    bufs[output.node_id] = seed
    nodes = tape.nodes
    values = tape.values
    for nid in range(output.node_id, -1, -1):
        g = bufs[nid]
        if g is None:
            continue
        node = nodes[nid]
        rule = rules.get(node.kind)
        if rule is None:
            continue
        if live is not None:
            for pid in node.inputs:
                if live[pid]:
                    break
            else:
                continue
        for pid, contrib in rule(tape, nid, node, g, live):
            if live is not None and not live[pid]:
                continue
            shape = values[pid].shape
            if contrib.shape != shape:
                contrib = _reduce_to(contrib, shape)
            if bufs[pid] is None:
                bufs[pid] = contrib
            else:
                bufs[pid] = bufs[pid] + contrib
        if live is not None and nid not in keep:
            bufs[nid] = None


def grad_check(f: Callable[[Tensor], Tensor], point, step: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` must map one Tensor to a scalar Tensor recorded on the same
    tape. Returns the maximum over coordinates of
    ``|analytic - numeric| / (|analytic| + |numeric| + 1e-12)``.
    """
    if not 1e-6 <= step <= 1e-3:
        raise ValueError(f"step {step} outside the supported range [1e-6, 1e-3]")
    x0 = np.ascontiguousarray(point.data if isinstance(point, Tensor) else point,
                              dtype=np.float64)
    tape = Tape()
    x = tape.leaf(x0)
    y = f(x)
    if y.data.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    backward(y)
    analytic = x.grad
    if analytic is None:
        analytic = np.zeros_like(x0)

    def _eval(arr: np.ndarray) -> float:
        t = Tape(record=False)
        return float(f(t.leaf(arr)).data)

    numeric = np.empty_like(x0)
    for idx in np.ndindex(x0.shape):
        hi = x0.copy()
        hi[idx] += step
        lo = x0.copy()
        lo[idx] -= step
        numeric[idx] = (_eval(hi) - _eval(lo)) / (2.0 * step)
    err = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(np.max(err)) if err.size else 0.0
