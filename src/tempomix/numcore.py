"""Dense float64 matrix numerics with a reverse-mode tape.

Every quantity is a 2-D float64 array wrapped in a :class:`Value`. Operations
on tracked Values append a backward step to their :class:`Tape`; replaying the
tape in reverse accumulates gradients into every leaf. Values are immutable
after creation and safe to share across threads; a Tape is single-owner and
must not be shared.

A primitive op gives only its adjoints: for each operand, in order, the
function that maps the output's gradient to that operand's share.
``_record`` turns them into the op's one backward step, recorded only if
some operand wants a gradient. The block op in ``mixers`` records its own.

The tape also keeps a running scalar-operation tally (``Tape.flops``) so that
work can be compared across algorithms in a machine-independent way.
"""

from __future__ import annotations

import ctypes
import functools
import os
import reprlib
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "ShapeError",
    "ContractError",
    "ConfigError",
    "NonFiniteError",
    "OracleError",
    "Int64",
    "json_typed",
    "from_json",
    "Tape",
    "Value",
    "accumulate_grad",
    "matmul",
    "add",
    "concat_cols",
    "concat_rows",
    "gather_rows",
    "mean_rows_blocks",
    "relu",
    "mean_rows",
    "sigmoid",
    "bce_with_logits",
    "backward",
    "grad_check",
    "GradCheckReport",
    "AdamState",
    "adam_state",
    "adam_step",
    "LN_EPS",
]

LN_EPS = 1e-12  # stabilizer inside the layer-norm square root

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# tape flops per element, shared by the ops and by fused ops built on the
# same private forward/backward helpers
_FLOPS_PER_ELEMENT = {"layer_norm": 8, "gelu": 6, "relu": 1}


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """An operation was called outside its contract."""


class ConfigError(ValueError):
    """Component configuration is inconsistent with the data it was given."""


class NonFiniteError(FloatingPointError):
    """A computed quantity holds NaN or infinity where finite values are required."""


class OracleError(RuntimeError):
    """A verification oracle cannot be trusted (e.g. non-deterministic f)."""


# The annotation of a config field that numpy holds as an int64: a count, a
# size or an offset. A plain ``int`` field (a seed, an epoch count) stays a
# Python int and takes any integer.
Int64 = int

# the JSON types that fit a field of each annotation, and the item types of a
# list that fits a tuple (spans, shapes) or a list (tensor data)
_JSON_TYPES = {"int": int, "Int64": int, "float": (int, float), "str": str, "bool": bool,
               "dict": dict, "tuple": list, "list": list}
_JSON_ITEMS = {"tuple": (int,), "list": (int, float)}
# the largest integer that fits a field, or the items of a list, of each
# annotation, and the machine type that holds it
_INT_LIMITS = {"Int64": (2**63 - 1, "an int64"), "tuple": (2**63 - 1, "an int64"),
               "float": (sys.float_info.max, "a float64"),
               "list": (sys.float_info.max, "a float64")}


def json_typed(where: str, value, annotation: str):
    """``value`` if its JSON type fits a field annotated ``annotation``, else a
    ``ConfigError`` naming ``where``: only true or false is a bool, an integer
    is also a float, and an integer that an int64 (or a float) field cannot
    hold is too large for it."""
    if (not isinstance(value, _JSON_TYPES[annotation])
            or isinstance(value, bool) != (annotation == "bool")
            or annotation in _JSON_ITEMS
            and not all(type(x) in _JSON_ITEMS[annotation] for x in value)):
        raise ConfigError(f"{where}: expected {annotation}, got {reprlib.repr(value)}")
    limit, kind = _INT_LIMITS.get(annotation, (None, None))
    items = value if annotation in _JSON_ITEMS else (value,)
    if limit is not None and any(type(x) is int and abs(x) > limit for x in items):
        raise ConfigError(f"{where}: {reprlib.repr(value)} is too large for {kind}")
    return value


def from_json(cls, doc, where: str):
    """``cls(**doc)`` for a config dataclass ``cls`` and a JSON object ``doc``;
    a key that names none of its fields, or a value that does not fit its
    field, is a ``ConfigError`` that names ``where`` and the key."""
    fields = cls.__dataclass_fields__
    for key, value in json_typed(where, doc, "dict").items():
        if key not in fields:
            raise ConfigError(f"unknown {where} key {key!r}")
        json_typed(f"{where} {key!r}", value, fields[key].type)
    return cls(**doc)


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class Tape:
    """Ordered record of one forward pass.

    ``leaf`` registers a parameter whose gradient is wanted; ``constant``
    wraps data that never needs a gradient. Backward steps run in exact
    reverse order of the forward pass. A tape is single-use: :func:`backward`
    drops each step once it has run, which frees the pass's activations
    layer by layer.
    """

    __slots__ = ("_steps", "leaves", "flops")

    def __init__(self):
        self._steps: list[Callable[[], None]] | None = []
        self.leaves: list[Value] = []
        self.flops: int = 0

    def leaf(self, data) -> "Value":
        v = Value(_check_finite(_as_matrix(data)), self, want_grad=True)
        self.leaves.append(v)
        return v

    def constant(self, data) -> "Value":
        return Value(_check_finite(_as_matrix(data)), self, want_grad=False)

    def record(self, step: Callable[[], None]) -> None:
        """Append a backward step. Used by modules defining fused ops."""
        if self._steps is None:
            raise ContractError("tape already replayed by backward; a Tape is single-use")
        self._steps.append(step)


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ContractError("matrix entries must be finite")
    return arr


class Value:
    """A rows x cols float64 matrix, optionally tracked on a tape."""

    __slots__ = ("data", "grad", "tape", "want_grad")

    def __init__(self, data: np.ndarray, tape: Tape, want_grad: bool):
        self.data = data
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.want_grad = want_grad

    def __repr__(self):
        return f"Value(shape={self.data.shape}, want_grad={self.want_grad})"


def accumulate_grad(v: Value, g: np.ndarray) -> None:
    """Add ``g`` into ``v``'s gradient slot (no-op for constants)."""
    if v.want_grad:
        v.grad = g if v.grad is None else v.grad + g


def _same_tape(*vals: Value) -> Tape:
    t = vals[0].tape
    for v in vals[1:]:
        if v.tape is not t:
            raise ContractError("operands belong to different tapes")
    return t


# ---------------------------------------------------------------------------
# Forward primitives
# ---------------------------------------------------------------------------


def _record(tape: Tape, data: np.ndarray,
            adjoints: Sequence[tuple[Value, Callable[[np.ndarray], np.ndarray]]]) -> Value:
    """An op's output ``data`` as a Value on ``tape``. ``adjoints`` pairs each
    operand, in operand order, with the function that maps the output's
    gradient to that operand's share. One backward step, recorded only if
    some operand wants a gradient, adds the shares in that order."""
    out = Value(data, tape, any([v.want_grad for v, _ in adjoints]))
    if out.want_grad:
        def back():
            g = out.grad
            if g is not None:
                for v, share in adjoints:
                    if v.want_grad:
                        accumulate_grad(v, share(g))
        tape.record(back)
    return out


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def matmul(a: Value, b: Value) -> Value:
    t = _same_tape(a, b)
    (m, k), (k2, n) = a.data.shape, b.data.shape
    if k != k2:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.data.shape} and {b.data.shape}")
    t.flops += 2 * m * k * n
    return _record(t, a.data @ b.data,
                   ((a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)))


def add(a: Value, b: Value) -> Value:
    """Elementwise sum. ``b`` may also be a broadcastable 1 x n row or m x 1 column."""
    t = _same_tape(a, b)
    (m, n), (mb, nb) = a.data.shape, b.data.shape
    row_bcast = (mb, nb) == (1, n) and m != 1
    col_bcast = (mb, nb) == (m, 1) and n != 1
    if (mb, nb) != (m, n) and not row_bcast and not col_bcast:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} are not compatible")
    t.flops += m * n
    axis = 0 if row_bcast else 1 if col_bcast else None
    b_share = _identity if axis is None else lambda g: g.sum(axis=axis, keepdims=True)
    return _record(t, a.data + b.data, ((a, _identity), (b, b_share)))


def concat_cols(a: Value, b: Value) -> Value:
    t = _same_tape(a, b)
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols: row counts differ for shapes {a.data.shape} and {b.data.shape}")
    na = a.data.shape[1]
    return _record(t, np.hstack([a.data, b.data]),
                   ((a, lambda g: g[:, :na]), (b, lambda g: g[:, na:])))


def concat_rows(vals: Sequence[Value]) -> Value:
    """Stack matrices with equal column counts on top of each other."""
    if not vals:
        raise ContractError("concat_rows: need at least one operand")
    t = _same_tape(*vals)
    ncols = vals[0].data.shape[1]
    adjoints, lo = [], 0
    for v in vals:
        if v.data.shape[1] != ncols:
            raise ShapeError(
                f"concat_rows: column counts differ for shapes {vals[0].data.shape} and {v.data.shape}")
        hi = lo + v.data.shape[0]
        adjoints.append((v, lambda g, lo=lo, hi=hi: g[lo:hi]))
        lo = hi
    return _record(t, np.vstack([v.data for v in vals]), adjoints)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, xn=None, inv_std=None):
    """Row-normalized ``x`` times gain plus bias; also returns the normalized
    rows and each row's 1/std, which the backward reuses, written into ``xn``
    and ``inv_std`` (each a new array if None). The row mean and the
    population variance are numpy's ``mean`` and ``var`` bit for bit: a row
    sum over d, then the variance from the centred rows."""
    d = x.shape[1]
    mu = np.add.reduce(x, axis=1, keepdims=True)
    mu /= d
    xn = np.subtract(x, mu, out=xn)
    var = np.add.reduce(xn * xn, axis=1, keepdims=True)
    var /= d
    var += LN_EPS
    inv_std = np.divide(1.0, np.sqrt(var, out=var), out=inv_std)
    xn *= inv_std
    return _layer_norm_affine(xn, gain, bias), xn, inv_std


def _layer_norm_affine(xn: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The LayerNorm's output from its normalized rows, ``xn * gain + bias``:
    :func:`_layer_norm`'s last two ops, which a backward reruns to rebuild
    the output bit for bit instead of keeping it."""
    z = xn * gain
    z += bias
    return z


def _layer_norm_back_rows(g: np.ndarray, gain: np.ndarray, xn: np.ndarray,
                          inv_std: np.ndarray, out=None) -> np.ndarray:
    """The input gradient of :func:`_layer_norm`, row by row."""
    gx = g * gain
    return np.multiply(inv_std, gx - gx.mean(axis=1, keepdims=True)
                       - xn * (gx * xn).mean(axis=1, keepdims=True), out=out)


def _activate(pre: np.ndarray, gelu: bool, gates=None, out=None):
    """(act, gate): the activation of ``pre`` into ``out`` and, for the exact
    GELU x * Phi(x), its gate Phi(x) via erf into ``gates`` (each a new array
    if None; ``out`` may be ``pre``); the gate is None for ReLU.

    erf runs on |x / sqrt(2)| and the sign is put back after. scipy's erf
    (cephes) opens with ``if (x < 0) return -erf(-x)``; about half of GELU's
    inputs are negative, in no order, so the CPU mispredicts that branch
    often, and on |x| the call takes about half the time. The same branch
    is why the bits hold: for negative x the signed call returns -erf(-x),
    which ``copysign`` rebuilds exactly, -0.0 included, so the gate is the
    signed call's double for every x but NaN (whose sign may differ)."""
    if gelu:
        gates = np.multiply(pre, _INV_SQRT2, out=gates)
        np.abs(gates, out=gates)
        erf(gates, out=gates)
        np.copysign(gates, pre, out=gates)
        gates += 1.0
        gates *= 0.5
    else:
        gates = None
    return _activation(pre, gates, out), gates


def _activation(pre: np.ndarray, gates, out=None) -> np.ndarray:
    """The activation from ``pre`` and its GELU gates, ``pre * gates``, or
    ``max(pre, 0)`` for ReLU (``gates`` None), into ``out`` (a new array if
    None): :func:`_activate`'s last op, which a backward reruns to rebuild
    the activation bit for bit instead of keeping it."""
    if gates is None:
        return np.maximum(pre, 0.0, out=out)
    return np.multiply(pre, gates, out=out)


def _activation_grad(pre: np.ndarray, gates, ghid) -> np.ndarray:
    """The pre-activation gradient of :func:`_activate`, written over the GELU
    gates ((Phi(x) + x phi(x)) * g) or over ``pre`` for ReLU. ``ghid(scratch)``
    returns the output gradient g, computed into ``scratch``: for GELU the
    slope's array, free once added to the gates; for ReLU None."""
    if gates is None:
        return np.multiply(ghid(None), pre > 0.0, out=pre)
    t = np.multiply(pre, -0.5)
    t *= pre
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= pre
    gates += t
    gates *= ghid(t)
    return gates


# Row passes: per-row work split into chunks of rows (_row_bounds) that the
# calling thread and one persistent worker take in turn, then whole sums as
# tasks. numpy and scipy release the GIL inside large array operations, so the
# two threads run on two cores. Row functions and tasks write shared results
# only into arrays their caller allocated, and call no public op: a Tape is
# single-owner.
_ROW_CHUNK = 512
_row_worker: ThreadPoolExecutor | None = None  # None: every pass runs inline


def _blas_to_one_thread() -> bool:
    """Hold numpy's bundled OpenBLAS to one thread, so that its spinning
    threads leave the second core to the row worker; False if not found.

    The whole GEMMs then take OpenBLAS's single-thread path, which blocks the
    sum over K differently from its threaded one for some K, not only large
    ones: a weight gradient ``A.T @ B`` over K = 400, 490-508, 513 or 600 rows
    can differ in the last bits from a run with several BLAS threads, while
    K = 128-384, 512 or 1024 agree. It equals a run with
    OPENBLAS_NUM_THREADS=1.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
        return True
    return False


def _start_row_worker() -> None:
    """Start the row worker, once per process, where it has a core of its own:
    at least two cores and numpy's bundled OpenBLAS held to one thread.
    Elsewhere the passes run inline and BLAS keeps its thread count.

    ``cli.main`` calls this before any work, so a command's GEMMs run with
    one BLAS thread count throughout, whatever the sizes of its passes.
    """
    global _row_worker
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if _row_worker is None and cores >= 2 and _blas_to_one_thread():
        _row_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tempomix-rows")


def _drain(items) -> None:
    for run in items:
        run()


def _row_bounds(m: int, most: int, block: int = 1) -> list[tuple[int, int]]:
    """Bounds of ceil(m / cap) near-equal chunks of whole ``block``-row
    blocks (``block`` divides ``m``), ``cap = max(most, _ROW_CHUNK // 2)``, so
    each has fewer than ``cap + block`` rows; fewer chunks, down to one, where
    one would have fewer than ceil(cap / 2) rows. The one rule for every split
    of rows into chunks. The floor is for bits: split by output rows, a GEMM
    gives each row the bits of the whole product at the sizes measured, but a
    one-row product (gemv) sums in another order, and OpenBLAS 0.3.31 sums
    ``(M, 16) @ (16, 4)`` in another order from M of about 16,000."""
    cap = max(most, _ROW_CHUNK // 2)
    least = -(-cap // 2)
    blocks = m // block
    k = max(1, min(-(-m // cap), blocks // -(-least // block)))
    return [(i * blocks // k * block, (i + 1) * blocks // k * block) for i in range(k)]


def _row_passes(m: int, fn: Callable[[int, int], None] | None = None, block: int = 1,
                tasks: Sequence[Callable[[], None]] = ()) -> None:
    """Run ``fn(lo, hi)`` over row ranges that cover ``range(m)`` once, each
    bound a multiple of ``block`` (which must divide ``m``), then each of
    ``tasks`` once: zero-argument callables, each a whole sum into an output
    its caller allocated (``fn`` None: tasks only). With the worker, the
    ranges are the chunks of ``_row_bounds(m, _ROW_CHUNK, block)``, and the
    two threads take chunks and tasks from one iterator; an exception in
    either re-raises here. Without it, ``fn(0, m)`` and the tasks run inline,
    in order. A second caller's items queue behind the first's."""
    worker = _row_worker
    bounds = ([] if fn is None else [(0, m)] if worker is None
              else _row_bounds(m, _ROW_CHUNK, block))
    items = [functools.partial(fn, lo, hi) for lo, hi in bounds] + list(tasks)
    if len(items) < 2 or worker is None:
        _drain(items)
        return
    items = iter(items)
    done = worker.submit(_drain, items)
    try:
        _drain(items)
    finally:
        for _ in items:  # after an error here, leave the worker nothing to start
            pass
        err = done.exception()
    if err is not None:
        raise err


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=lambda: globals().update(_row_worker=None))


def relu(a: Value) -> Value:
    t = a.tape
    x = a.data
    t.flops += _FLOPS_PER_ELEMENT["relu"] * x.size
    return _record(t, np.maximum(x, 0.0), ((a, lambda g: g * (x > 0.0)),))


def mean_rows(a: Value) -> Value:
    """Average the rows: an m x n input yields a 1 x n row vector."""
    t = a.tape
    m = a.data.shape[0]
    t.flops += a.data.size
    return _record(t, a.data.mean(axis=0, keepdims=True),
                   ((a, lambda g: np.broadcast_to(g / m, a.data.shape).copy()),))


def gather_rows(a: Value, indices) -> Value:
    """Select rows by index (with repetition); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ContractError("gather_rows: index out of range")
    t = a.tape
    rows, cols = a.data.shape
    t.flops += idx.size * cols

    def scatter(g):
        # one bincount over (row, column) cells sums each cell's rows in
        # index order, as np.add.at would, several times faster
        cells = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
        return np.bincount(cells, weights=g.reshape(-1),
                           minlength=rows * cols).reshape(rows, cols)
    return _record(t, a.data[idx], ((a, scatter),))


def mean_rows_blocks(a: Value, block_len: int, pad_lens) -> Value:
    """Per-block mean of an (R*block_len) x n matrix, skipping each block's
    first ``pad_lens[r]`` padding rows."""
    pads = np.asarray(pad_lens, dtype=np.int64)
    rows, cols = a.data.shape
    r = len(pads)
    if rows != r * block_len:
        raise ShapeError(f"mean_rows_blocks: {rows} rows do not form {r} blocks of {block_len}")
    if np.any(pads < 0) or np.any(pads >= block_len):
        raise ContractError("mean_rows_blocks: pad lengths must lie in [0, block_len)")
    t = a.tape
    h3 = a.data.reshape(r, block_len, cols)
    mask = (np.arange(block_len)[None, :] >= pads[:, None]).astype(np.float64)
    counts = (block_len - pads).astype(np.float64)[:, None]
    out_data = (h3 * mask[:, :, None]).sum(axis=1) / counts
    t.flops += 2 * rows * cols
    return _record(t, out_data, (
        (a, lambda g: (mask[:, :, None] * (g / counts)[:, None, :]).reshape(rows, cols)),))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Value) -> Value:
    t = a.tape
    s = _stable_sigmoid(a.data)
    t.flops += 4 * a.data.size
    return _record(t, s, ((a, lambda g: g * s * (1.0 - s)),))


def bce_with_logits(logits: Value, labels) -> Value:
    """Summed binary cross-entropy of an m x 1 logit column against 0/1 labels.

    Each term is softplus(-z) for a positive and softplus(z) for a negative,
    computed with ``np.logaddexp`` so no probability is formed or clamped; the
    gradient ``sigmoid(z) - y`` never saturates to zero on a wrong prediction.
    """
    t = logits.tape
    z = logits.data
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    if z.shape[1] != 1 or y.shape != z.shape:
        raise ShapeError(f"bce_with_logits: need an m x 1 logit column and m labels, "
                         f"got shapes {z.shape} and {np.shape(labels)}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("bce_with_logits: labels must be 0 or 1")
    t.flops += 4 * z.size
    return _record(t, np.array([[np.logaddexp(0.0, (1.0 - 2.0 * y) * z).sum()]]),
                   ((logits, lambda g: g[0, 0] * (_stable_sigmoid(z) - y)),))


# ---------------------------------------------------------------------------
# Reverse pass and gradient verification
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Value) -> list[np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every leaf on the tape.

    Returns gradients in leaf-registration order; a leaf the loss never
    touched gets an exact zero gradient. ``loss`` must be a 1x1 Value. Each
    step is dropped once it has run, so the arrays a layer kept for its
    backward are freed before the layer below allocates its temporaries; a
    second call on the same tape raises :class:`ContractError`.
    """
    if loss.tape is not tape:
        raise ContractError("loss does not belong to this tape")
    if loss.data.shape != (1, 1):
        raise ContractError(f"loss must be a 1x1 scalar, got shape {loss.data.shape}")
    if tape._steps is None:
        raise ContractError("tape already replayed by backward; a Tape is single-use")
    # each step holds its output Value, which points back at the tape;
    # detaching the steps breaks that cycle, so the activations are freed by
    # reference counting instead of waiting for the cycle collector
    steps, tape._steps = tape._steps, None
    loss.grad = np.ones((1, 1))
    while steps:  # popped, so a step's arrays are freed before the next step runs
        steps.pop()()
    grads = []
    for leaf in tape.leaves:
        if leaf.grad is None:
            leaf.grad = np.zeros_like(leaf.data)
        grads.append(leaf.grad)
    return grads


@dataclass
class GradCheckReport:
    """Per-entry comparison of reverse-mode against central differences."""

    rel_errors: dict[str, np.ndarray]
    max_rel_error: float
    tol: float
    passed: bool


def _eval_scalar(f, params: Mapping[str, np.ndarray]) -> float:
    tape = Tape()
    bound = {k: tape.constant(v) for k, v in params.items()}
    out = f(bound)
    if out.data.shape != (1, 1):
        raise ContractError("grad_check: f must return a 1x1 scalar Value")
    return float(out.data[0, 0])


def grad_check(f, params: Mapping[str, np.ndarray], h: float = 1e-5,
               tol: float = 1e-4, rel_floor: float = 1e-6) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` with central finite differences.

    ``f`` maps a dict of bound Values (sharing one tape) to a scalar Value and
    must be deterministic; it is evaluated twice at the base point and an
    :class:`OracleError` is raised if the results differ. Relative error per
    entry uses ``|ad - fd| / max(|ad|, |fd|, rel_floor)``.
    """
    if h <= 0:
        raise ContractError("grad_check: h must be positive")
    base = _eval_scalar(f, params)
    if _eval_scalar(f, params) != base:
        raise OracleError("grad_check: f is not deterministic, finite-difference oracle is invalid")

    tape = Tape()
    bound = {k: tape.leaf(v) for k, v in params.items()}
    out = f(bound)
    backward(tape, out)
    analytic = {k: bound[k].grad for k in params}

    rel_errors = {}
    max_rel = 0.0
    for name, p in params.items():
        errs = np.zeros_like(np.asarray(p, dtype=np.float64))
        work = {k: (np.array(v, dtype=np.float64, copy=True) if k == name else v)
                for k, v in params.items()}
        flat = work[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _eval_scalar(f, work)
            flat[i] = orig - h
            down = _eval_scalar(f, work)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            ad = analytic[name].reshape(-1)[i]
            denom = max(abs(ad), abs(fd), rel_floor)
            errs.reshape(-1)[i] = abs(ad - fd) / denom
        rel_errors[name] = errs
        if errs.size:
            max_rel = max(max_rel, float(errs.max()))
    return GradCheckReport(rel_errors=rel_errors, max_rel_error=max_rel,
                           tol=tol, passed=max_rel <= tol)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Optimizer accumulators; ``step`` increments by exactly 1 per update."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_state(params: Mapping[str, np.ndarray], lr: float = 1e-4) -> AdamState:
    state = AdamState(lr=lr)
    for k, p in params.items():
        state.m[k] = np.zeros_like(p)
        state.v[k] = np.zeros_like(p)
    return state


def adam_step(state: AdamState, params: Mapping[str, np.ndarray],
              grads: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns fresh parameter arrays."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    new_params = {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: gradient shape {g.shape} does not match parameter shape {p.shape}")
        state.m[k] = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        state.v[k] = state.beta2 * state.v[k] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[k] / c1
        v_hat = state.v[k] / c2
        new_params[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params
