"""Dense float64 matrix numerics with a reverse-mode tape.

Every quantity is a 2-D float64 array wrapped in a :class:`Value`. Operations
on tracked Values append a backward step to their :class:`Tape`; replaying the
tape in reverse accumulates gradients into every leaf. Values are immutable
after creation and safe to share across threads; a Tape is single-owner and
must not be shared.

The tape also keeps a running scalar-operation tally (``Tape.flops``) so that
work can be compared across algorithms in a machine-independent way.
"""

from __future__ import annotations

import ctypes
import os
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
    "Tape",
    "Value",
    "accumulate_grad",
    "matmul",
    "add",
    "scale",
    "concat_cols",
    "concat_rows",
    "gather_rows",
    "mean_rows_blocks",
    "blocks_to_cols",
    "cols_to_blocks",
    "transpose",
    "softmax_rows",
    "layer_norm_rows",
    "gelu",
    "relu",
    "mean_rows",
    "sum_all",
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
    drops its steps after replaying them, which frees the pass's activations
    as soon as the caller lets go of the loss.
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

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

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


def _out(tape: Tape, data: np.ndarray, want_grad: bool) -> Value:
    return Value(data, tape, want_grad)


# ---------------------------------------------------------------------------
# Forward primitives
# ---------------------------------------------------------------------------


def matmul(a: Value, b: Value) -> Value:
    t = _same_tape(a, b)
    (m, k), (k2, n) = a.data.shape, b.data.shape
    if k != k2:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.data.shape} and {b.data.shape}")
    t.flops += 2 * m * k * n
    out = _out(t, a.data @ b.data, a.want_grad or b.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            if a.want_grad:
                accumulate_grad(a, g @ b.data.T)
            if b.want_grad:
                accumulate_grad(b, a.data.T @ g)
        t.record(back)
    return out


def add(a: Value, b: Value) -> Value:
    """Elementwise sum. ``b`` may also be a broadcastable 1 x n row or m x 1 column."""
    t = _same_tape(a, b)
    (m, n), (mb, nb) = a.data.shape, b.data.shape
    row_bcast = (mb, nb) == (1, n) and m != 1
    col_bcast = (mb, nb) == (m, 1) and n != 1
    if (mb, nb) != (m, n) and not row_bcast and not col_bcast:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} are not compatible")
    t.flops += m * n
    out = _out(t, a.data + b.data, a.want_grad or b.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            if a.want_grad:
                accumulate_grad(a, g)
            if b.want_grad:
                if row_bcast:
                    accumulate_grad(b, g.sum(axis=0, keepdims=True))
                elif col_bcast:
                    accumulate_grad(b, g.sum(axis=1, keepdims=True))
                else:
                    accumulate_grad(b, g)
        t.record(back)
    return out


def scale(a: Value, c: float) -> Value:
    t = a.tape
    c = float(c)
    t.flops += a.data.size
    out = _out(t, a.data * c, a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                accumulate_grad(a, out.grad * c)
        t.record(back)
    return out


def concat_cols(a: Value, b: Value) -> Value:
    t = _same_tape(a, b)
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols: row counts differ for shapes {a.data.shape} and {b.data.shape}")
    na = a.data.shape[1]
    out = _out(t, np.hstack([a.data, b.data]), a.want_grad or b.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            if a.want_grad:
                accumulate_grad(a, g[:, :na])
            if b.want_grad:
                accumulate_grad(b, g[:, na:])
        t.record(back)
    return out


def concat_rows(vals: Sequence[Value]) -> Value:
    """Stack matrices with equal column counts on top of each other."""
    if not vals:
        raise ContractError("concat_rows: need at least one operand")
    t = _same_tape(*vals)
    ncols = vals[0].data.shape[1]
    for v in vals[1:]:
        if v.data.shape[1] != ncols:
            raise ShapeError(
                f"concat_rows: column counts differ for shapes {vals[0].data.shape} and {v.data.shape}")
    out = _out(t, np.vstack([v.data for v in vals]), any(v.want_grad for v in vals))
    if out.want_grad:
        row_counts = [v.data.shape[0] for v in vals]
        def back():
            g = out.grad
            if g is None:
                return
            lo = 0
            for v, r in zip(vals, row_counts):
                if v.want_grad:
                    accumulate_grad(v, g[lo:lo + r])
                lo += r
        t.record(back)
    return out


def transpose(a: Value) -> Value:
    t = a.tape
    out = _out(t, a.data.T.copy(), a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                accumulate_grad(a, out.grad.T)
        t.record(back)
    return out


def softmax_rows(a: Value) -> Value:
    t = a.tape
    x = a.data
    e = np.exp(x - x.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    t.flops += 5 * x.size
    out = _out(t, s, a.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            accumulate_grad(a, s * (g - (g * s).sum(axis=1, keepdims=True)))
        t.record(back)
    return out


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Row-normalized ``x`` times gain plus bias; also returns the normalized
    rows and each row's 1/std, which the backward reuses."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xn = x - mu
    xn *= inv_std
    z = xn * gain
    z += bias
    return z, xn, inv_std


def _layer_norm_back_rows(g: np.ndarray, gain: np.ndarray, xn: np.ndarray,
                          inv_std: np.ndarray) -> np.ndarray:
    """The input gradient of :func:`_layer_norm`, row by row."""
    gx = g * gain
    return inv_std * (gx - gx.mean(axis=1, keepdims=True)
                      - xn * (gx * xn).mean(axis=1, keepdims=True))


def _layer_norm_back(g: np.ndarray, a: Value | None, gain: Value, bias: Value,
                     xn: np.ndarray, inv_std: np.ndarray) -> None:
    """Accumulate the gradients of :func:`_layer_norm` given its output gradient;
    with ``a`` None only gain's and bias's, whose sums over rows run whole."""
    if gain.want_grad:
        accumulate_grad(gain, (g * xn).sum(axis=0, keepdims=True))
    if bias.want_grad:
        accumulate_grad(bias, g.sum(axis=0, keepdims=True))
    if a is not None and a.want_grad:
        accumulate_grad(a, _layer_norm_back_rows(g, gain.data, xn, inv_std))


def layer_norm_rows(a: Value, gain: Value, bias: Value) -> Value:
    """Per-row normalization with population variance, then affine gain/bias."""
    t = _same_tape(a, gain, bias)
    m, n = a.data.shape
    if gain.data.shape != (1, n) or bias.data.shape != (1, n):
        raise ShapeError(
            f"layer_norm_rows: gain/bias must be 1x{n}, got {gain.data.shape} and {bias.data.shape}")
    z, xn, inv_std = _layer_norm(a.data, gain.data, bias.data)
    t.flops += _FLOPS_PER_ELEMENT["layer_norm"] * z.size
    out = _out(t, z, a.want_grad or gain.want_grad or bias.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                _layer_norm_back(out.grad, a, gain, bias, xn, inv_std)
        t.record(back)
    return out


def _gelu_cdf(x: np.ndarray, out=None) -> np.ndarray:
    """The exact GELU gate: the standard normal CDF of ``x``, via erf."""
    cdf = np.multiply(x, _INV_SQRT2, out=out)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_grad(g: np.ndarray, x: np.ndarray, cdf: np.ndarray, out=None) -> np.ndarray:
    """``g`` times GELU'(x), given the forward's ``cdf``; ``out`` may be any
    scratch array of x's shape other than ``g``, ``x`` and ``cdf``."""
    d = np.multiply(x, -0.5, out=out)
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT_2PI
    d *= x
    d += cdf
    d *= g
    return d


def _relu(x: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _relu_grad(g: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """``g`` times ReLU'(x); ``out`` may be ``g`` itself."""
    return np.multiply(g, x > 0.0, out=out)


# Row passes: per-row work split into chunks of rows that the calling thread
# and one persistent worker take in turn. numpy and scipy release the GIL
# inside large array operations, so the two threads run on two cores. A
# chunk's rows are bit-identical to the whole pass, since a GEMM that is
# split only by output rows keeps each row's sum over K; chunks never fall
# below _ROW_CHUNK / 2 rows, well above the few-row shapes (one row: gemv)
# that OpenBLAS sums in another order. Row functions write shared results
# only into arrays their caller allocated, and call no public op: a Tape is
# single-owner.
_ROW_CHUNK = 512
_row_worker: ThreadPoolExecutor | None = None  # None: every pass runs inline


def _blas_to_one_thread() -> bool:
    """Hold numpy's bundled OpenBLAS to one thread, so that its spinning
    threads leave the second core to the row worker; False if not found.

    The whole GEMMs then take OpenBLAS's single-thread path, which blocks the
    sum over K differently from its threaded one for some K above 512:
    a weight gradient over that many rows can differ in the last bits from a
    run with several BLAS threads, and equals one with OPENBLAS_NUM_THREADS=1.
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


def _drain(fn: Callable[[int, int], None], chunks) -> None:
    for lo, hi in chunks:
        fn(lo, hi)


def _row_passes(m: int, fn: Callable[[int, int], None]) -> None:
    """Run ``fn(lo, hi)`` over row ranges that cover ``range(m)`` exactly once,
    each bound a multiple of ``fn.block`` if ``fn`` has that attribute (which
    must divide ``m``; one row otherwise): ceil(m / _ROW_CHUNK) chunks of
    near-equal numbers of blocks that the caller and the row worker take from
    one list iterator, fewer where a chunk would fall below _ROW_CHUNK / 2
    rows, or one call ``fn(0, m)`` for at most one chunk or without a worker.
    A second caller's chunks queue behind the first's on the worker while it
    drains them itself."""
    block = getattr(fn, "block", 1)
    blocks = m // block
    k = min(-(-m // _ROW_CHUNK), blocks // -(-(_ROW_CHUNK // 2) // block))
    worker = _row_worker
    if k < 2 or worker is None:
        fn(0, m)
        return
    chunks = iter([(i * blocks // k * block, (i + 1) * blocks // k * block)
                   for i in range(k)])
    done = worker.submit(_drain, fn, chunks)
    try:
        _drain(fn, chunks)
    finally:
        for _ in chunks:  # after an error here, leave the worker nothing to start
            pass
        err = done.exception()
    if err is not None:
        raise err


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=lambda: globals().update(_row_worker=None))


def gelu(a: Value) -> Value:
    """Exact GELU, x * Phi(x)."""
    t = a.tape
    x = a.data
    cdf = _gelu_cdf(x)
    t.flops += _FLOPS_PER_ELEMENT["gelu"] * x.size
    out = _out(t, x * cdf, a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                accumulate_grad(a, _gelu_grad(out.grad, x, cdf))
        t.record(back)
    return out


def relu(a: Value) -> Value:
    t = a.tape
    x = a.data
    t.flops += _FLOPS_PER_ELEMENT["relu"] * x.size
    out = _out(t, _relu(x), a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                accumulate_grad(a, _relu_grad(out.grad, x))
        t.record(back)
    return out


def mean_rows(a: Value) -> Value:
    """Average the rows: an m x n input yields a 1 x n row vector."""
    t = a.tape
    m = a.data.shape[0]
    t.flops += a.data.size
    out = _out(t, a.data.mean(axis=0, keepdims=True), a.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            accumulate_grad(a, np.broadcast_to(g / m, a.data.shape).copy())
        t.record(back)
    return out


def sum_all(a: Value) -> Value:
    t = a.tape
    t.flops += a.data.size
    out = _out(t, np.array([[a.data.sum()]]), a.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            accumulate_grad(a, np.full(a.data.shape, g[0, 0]))
        t.record(back)
    return out


def gather_rows(a: Value, indices) -> Value:
    """Select rows by index (with repetition); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ContractError("gather_rows: index out of range")
    t = a.tape
    t.flops += idx.size * a.data.shape[1]
    out = _out(t, a.data[idx], a.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            # one bincount over (row, column) cells sums each cell's rows in
            # index order, as np.add.at would, several times faster
            rows, cols = a.data.shape
            cells = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
            accumulate_grad(a, np.bincount(cells, weights=g.reshape(-1),
                                           minlength=rows * cols).reshape(rows, cols))
        t.record(back)
    return out


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
    out = _out(t, out_data, a.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            da = (mask[:, :, None] * (g / counts)[:, None, :]).reshape(rows, cols)
            accumulate_grad(a, da)
        t.record(back)
    return out


def _blocks_to_cols(x: np.ndarray, block_len: int) -> np.ndarray:
    rows, cols = x.shape
    r = rows // block_len
    return x.reshape(r, block_len, cols).transpose(1, 0, 2).reshape(block_len, r * cols)


def _cols_to_blocks(x: np.ndarray, width: int) -> np.ndarray:
    n, cols = x.shape
    r = cols // width
    return x.reshape(n, r, width).transpose(1, 0, 2).reshape(r * n, width)


def blocks_to_cols(a: Value, block_len: int) -> Value:
    """Regroup R stacked blocks of ``block_len`` rows side by side:
    (R*block_len) x d becomes block_len x (R*d), block r in columns r*d..r*d+d-1."""
    rows, cols = a.data.shape
    if block_len < 1 or rows % block_len:
        raise ShapeError(f"blocks_to_cols: {rows} rows do not form blocks of {block_len}")
    return _regroup(a, _blocks_to_cols(a.data, block_len), lambda g: _cols_to_blocks(g, cols))


def cols_to_blocks(a: Value, width: int) -> Value:
    """Inverse of :func:`blocks_to_cols`: n x (R*width) becomes (R*n) x width."""
    n, cols = a.data.shape
    if width < 1 or cols % width:
        raise ShapeError(f"cols_to_blocks: {cols} columns do not form blocks of {width}")
    return _regroup(a, _cols_to_blocks(a.data, width), lambda g: _blocks_to_cols(g, n))


def _regroup(a: Value, data: np.ndarray, undo: Callable[[np.ndarray], np.ndarray]) -> Value:
    """A pure re-layout of ``a``; the backward applies the inverse layout."""
    out = _out(a.tape, data, a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                accumulate_grad(a, undo(out.grad))
        a.tape.record(back)
    return out


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
    out = _out(t, s, a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                accumulate_grad(a, out.grad * s * (1.0 - s))
        t.record(back)
    return out


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
    out = _out(t, np.array([[np.logaddexp(0.0, (1.0 - 2.0 * y) * z).sum()]]),
               logits.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is not None:
                accumulate_grad(logits, g[0, 0] * (_stable_sigmoid(z) - y))
        t.record(back)
    return out


# ---------------------------------------------------------------------------
# Reverse pass and gradient verification
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Value) -> list[np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every leaf on the tape.

    Returns gradients in leaf-registration order; a leaf the loss never
    touched gets an exact zero gradient. ``loss`` must be a 1x1 Value. The
    tape's steps are dropped afterwards, so a second call on the same tape
    raises :class:`ContractError`.
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
    for step in reversed(steps):
        step()
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


def adam_state(params: Mapping[str, np.ndarray], lr: float = 1e-4,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
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
