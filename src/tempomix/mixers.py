"""Token mixers over a neighbor-token matrix.

Four interchangeable mixers (adaptive, pooling, token-axis MLP, single-head
attention), the hierarchical offset schedule that widens the lookback window
with depth, and the per-token channel mixer. All layer functions are pure:
they read bound parameter Values and return a new Value.

Every mixer runs through one dispatch, :func:`token_mix`, and every layer
is one :func:`token_block` (residual around the token mixer, then the
channel mixer). Training and scoring run them on a padded batch: R sequences
of n rows stacked into one (R*n) x d matrix, each left-padded. The reference
path ``model.node_repr`` runs them on one sequence, and ``tempomix bench``
times :func:`token_mix`, so it measures the kernels that training runs.
The adaptive mixer and attention have batched kernels
(:func:`adaptive_mix_batched`, :func:`attention_mix_batched`; their
single-sequence calls are :func:`adaptive_mix` and :func:`attention_mix`);
pooling is the adaptive kernel with flat order weights, and :func:`mlp_mix`
runs on the blocks side by side (``numcore.blocks_to_cols``).

The adaptive mixer, attention and the channel mixer are fused
differentiable operations: their backward passes are derived analytically
and registered on the tape. The adaptive mixer keeps per-layer work at
O(N * K * d) instead of materializing N x N mixing matrices. With the
channel mixer on, an adaptive or pooling layer's whole block (mix, residual,
channel mixer) is one tape op whose row work runs in chunks of whole blocks
on two threads; it shares its kernel bodies with :func:`adaptive_mix_batched`
and :func:`channel_mix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import numcore as nc
from .numcore import ConfigError, ContractError, ShapeError, Value

__all__ = [
    "OffsetSchedule",
    "AdaptiveLayer",
    "PoolingLayer",
    "MlpLayer",
    "AttentionLayer",
    "ChannelParams",
    "adaptive_mix",
    "adaptive_mix_batched",
    "mlp_mix",
    "attention_mix",
    "attention_mix_batched",
    "channel_mix",
    "token_mix",
    "token_block",
]


class OffsetSchedule:
    """Per-layer backward offsets derived from spans s1 < s2 < ... < sL.

    Layer 1 aggregates the contiguous window {0, ..., s1-1}; layer l >= 2
    aggregates the gapped interval [s_{l-1}, s_l]. Stacking layers therefore
    reaches back (s1 - 1) + s2 + ... + sL positions.
    """

    def __init__(self, spans: Sequence[int]):
        spans = [int(s) for s in spans]
        if not spans or spans[0] < 1 or any(b <= a for a, b in zip(spans, spans[1:])):
            raise ConfigError(f"spans must be strictly increasing positive integers, got {spans}")
        self.spans = spans

    @property
    def num_layers(self) -> int:
        return len(self.spans)

    def offsets(self, layer: int) -> np.ndarray:
        if not 1 <= layer <= self.num_layers:
            raise IndexError(f"layer {layer} outside 1..{self.num_layers}")
        if layer == 1:
            return np.arange(self.spans[0])
        return np.arange(self.spans[layer - 2], self.spans[layer - 1] + 1)

    def kernel_size(self, layer: int) -> int:
        return len(self.offsets(layer))

    def max_lookback(self) -> int:
        return (self.spans[0] - 1) + sum(self.spans[1:])


@dataclass
class AdaptiveLayer:
    """One adaptive-mixer layer: offsets plus its bound parameters.

    ``fusion`` is the coefficient blending order weights against recency
    weights; a plain float pins it (ablations), a 1x1 Value learns it.
    """

    offsets: np.ndarray
    order_logits: Value
    fusion: Union[Value, float]


@dataclass
class PoolingLayer:
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ContractError(f"pooling window must be >= 1, got {self.window}")


@dataclass
class MlpLayer:
    w1: Value
    b1: Value
    w2: Value
    b2: Value


@dataclass
class AttentionLayer:
    wq: Value
    wk: Value
    wv: Value
    wo: Value


@dataclass
class ChannelParams:
    ln_gain: Value
    ln_bias: Value
    w1: Value
    b1: Value
    w2: Value
    b2: Value


def _sum_offsets(e: np.ndarray) -> np.ndarray:
    """Sum over the leading axis in the order numpy's pairwise summation adds
    a contiguous last axis (one sum for under 8 terms, 8 running sums from 8
    on, halves from 128 on), so a leading offset axis gives the bits of a
    trailing one."""
    k = len(e)
    if k < 8:
        return e.sum(axis=0)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _sum_offsets(e[:half]) + _sum_offsets(e[half:])
    r = e[:8].copy()
    for i in range(8, k - k % 8, 8):
        r += e[i:i + 8]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(k - k % 8, k):
        s += e[i]
    return s


def _masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the leading (offset) axis treating -inf entries as absent;
    positions with no finite entry come out all zero."""
    m = scores.max(axis=0)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(scores - m)
    s = _sum_offsets(e)
    return e / np.where(s > 0.0, s, 1.0)


@dataclass
class _Mixing:
    """One adaptive layer call's mixing weights, computed whole, offsets
    leading: ``alpha``, ``order_w`` and ``theta`` are (k, R, n), ``covered``
    (R, n) marks the rows with at least one valid offset."""

    offsets: np.ndarray
    alpha: np.ndarray
    order_w: np.ndarray
    theta: np.ndarray
    covered: np.ndarray
    fuse: float
    order_logits: Value
    fusion: Union[Value, float]
    flops: int

    @property
    def need_order(self) -> bool:
        return self.order_logits.want_grad and self.fuse != 0.0

    @property
    def need_fuse(self) -> bool:
        return isinstance(self.fusion, Value) and self.fusion.want_grad

    def learns(self, tokens: Value) -> bool:
        """Whether the mix of ``tokens`` wants a gradient."""
        return tokens.want_grad or self.order_logits.want_grad or self.need_fuse

    def dalpha_buffer(self) -> np.ndarray | None:
        """Zeros for the per-offset products ``dalpha`` (R, n, k) if the order
        logits or the fusion learn, else None."""
        if not (self.need_order or self.need_fuse):
            return None
        k, r, n = self.alpha.shape
        return np.zeros((r, n, k))

    def accumulate_grads(self, dalpha: np.ndarray | None) -> None:
        """Accumulate the order-logit and fusion gradients from ``dalpha``. The
        sums run whole, over weights laid out offsets last, in the order of one
        pass."""
        if dalpha is None:
            return
        order_w = np.ascontiguousarray(np.moveaxis(self.order_w, 0, -1))
        if self.need_order:
            go = self.fuse * dalpha
            ds = order_w * (go - (go * order_w).sum(axis=2, keepdims=True))
            nc.accumulate_grad(self.order_logits, ds.sum(axis=(0, 1)).reshape(1, -1))
        if self.need_fuse:
            theta = np.ascontiguousarray(np.moveaxis(self.theta, 0, -1))
            dfuse = float((dalpha * (order_w - theta)).sum())
            nc.accumulate_grad(self.fusion, np.array([[dfuse]]))


def _mixing(tokens: Value, times, pad_lens, offsets, order_logits: Value,
            fusion: Union[Value, float]) -> _Mixing:
    """Check one adaptive layer call and compute its :class:`_Mixing`."""
    times = np.asarray(times, dtype=np.float64)
    pads = np.asarray(pad_lens, dtype=np.int64)
    r, n = times.shape
    rows, d = tokens.data.shape
    if rows != r * n:
        raise ShapeError(f"token rows {rows} do not form {r} blocks of {n}")
    if np.any(np.diff(times, axis=1) < 0):
        raise ContractError("token times must be non-decreasing within each block")
    offsets = np.asarray(offsets, dtype=np.int64)
    k = len(offsets)
    if k == 0:
        raise ContractError("adaptive mixing needs at least one offset")
    if order_logits.data.shape != (1, k):
        raise ShapeError(
            f"order logits shape {order_logits.data.shape} does not match {k} offsets")

    valid = np.arange(n)[None, None, :] - offsets[:, None, None] >= pads[None, :, None]
    covered = valid.any(axis=0)
    gaps = np.full((k, r, n), np.inf)
    for j, p in enumerate(offsets):
        if p < n:
            gaps[j, :, p:] = times[:, p:] - times[:, : n - p]
    gaps[~valid] = np.inf
    theta = _masked_softmax(-gaps)
    order_w = _masked_softmax(np.where(valid, order_logits.data[0][:, None, None], -np.inf))
    fuse = float(fusion.data[0, 0]) if isinstance(fusion, Value) else float(fusion)
    alpha = fuse * order_w + (1.0 - fuse) * theta
    nz = int(valid.sum())
    flops = 2 * nz * d + 10 * nz + int((~covered).sum()) * d
    return _Mixing(offsets, alpha, order_w, theta, covered, fuse, order_logits, fusion,
                   flops)


def _mix_rows(h3: np.ndarray, mix: _Mixing, b0: int, b1: int) -> np.ndarray:
    """The adaptive mix of blocks b0..b1 of ``h3`` (R, n, d), a new array;
    uncovered rows pass through."""
    n = h3.shape[1]
    h = h3[b0:b1]
    out = np.zeros_like(h)
    for j, p in enumerate(mix.offsets):
        if p < n:
            out[:, p:, :] += mix.alpha[j, b0:b1, p:, None] * h[:, : n - p, :]
    uncovered = ~mix.covered[b0:b1]
    out[uncovered] = h[uncovered]
    return out


def _mix_back_rows(g3: np.ndarray, h3: np.ndarray, mix: _Mixing, b0: int, b1: int,
                   want_dh: bool, dalpha: np.ndarray | None) -> np.ndarray | None:
    """Backward of :func:`_mix_rows` given the blocks' output gradient ``g3``:
    fills blocks b0..b1 of ``dalpha`` (R, n, k; zero where an offset reaches
    before the block) unless None, and returns the input gradient if
    ``want_dh``."""
    n = h3.shape[1]
    if dalpha is not None:
        h = h3[b0:b1]
        for j, p in enumerate(mix.offsets):
            if p < n:
                dalpha[b0:b1, p:, j] = (g3[:, p:, :] * h[:, : n - p, :]).sum(axis=2)
    if not want_dh:
        return None
    dh = np.zeros_like(g3)
    for j, p in enumerate(mix.offsets):
        if p < n:
            dh[:, : n - p, :] += mix.alpha[j, b0:b1, p:, None] * g3[:, p:, :]
    uncovered = ~mix.covered[b0:b1]
    dh[uncovered] += g3[uncovered]
    return dh


def adaptive_mix(tokens: Value, times, offsets, order_logits: Value,
                 fusion: Union[Value, float]) -> Value:
    """Causal weighted average over the offset window.

    Row i becomes sum_p alpha_p * tokens[i-p] over valid offsets (i-p >= 0),
    where alpha blends a softmax over learned order logits with a softmax
    over negative time gaps. Rows whose window is entirely out of range pass
    through unchanged. This is the single-block call of
    :func:`adaptive_mix_batched`.
    """
    times = np.asarray(times, dtype=np.float64)[None]
    return adaptive_mix_batched(tokens, times, [0], offsets, order_logits, fusion)


def adaptive_mix_batched(tokens: Value, times, pad_lens, offsets,
                         order_logits: Value, fusion: Union[Value, float]) -> Value:
    """Adaptive mixing over a batch of equally padded sequences.

    ``tokens`` stacks R sequences of ``n`` rows each into an (R*n) x d matrix;
    block r's first ``pad_lens[r]`` rows are padding. Offsets never reach into
    the padding and padded rows pass through unchanged, so each block matches
    the mixer run on its unpadded sequence alone.
    """
    mix = _mixing(tokens, times, pad_lens, offsets, order_logits, fusion)
    tape = tokens.tape
    tape.flops += mix.flops
    rows, d = tokens.data.shape
    _, r, n = mix.alpha.shape
    h3 = tokens.data.reshape(r, n, d)
    want = mix.learns(tokens)
    out = Value(_mix_rows(h3, mix, 0, r).reshape(rows, d), tape, want)
    if want:
        def back():
            g = out.grad
            if g is None:
                return
            dalpha = mix.dalpha_buffer()
            dh = _mix_back_rows(g.reshape(r, n, d), h3, mix, 0, r, tokens.want_grad,
                                dalpha)
            if dh is not None:
                nc.accumulate_grad(tokens, dh.reshape(rows, d))
            mix.accumulate_grads(dalpha)
        tape.record(back)
    return out


def mlp_mix(tokens: Value, params: MlpLayer, activation: str = "gelu") -> Value:
    """Token-axis MLP; weight shapes are rigid in the token count."""
    n = tokens.data.shape[0]
    if params.w1.data.shape[1] != n:
        raise ConfigError(
            f"token-mixing weights were built for {params.w1.data.shape[1]} tokens, "
            f"got a sequence of {n}")
    act = _activation(activation)
    hidden = act(nc.add(nc.matmul(params.w1, tokens), params.b1))
    return nc.add(nc.matmul(params.w2, hidden), params.b2)


def attention_mix(tokens: Value, params: AttentionLayer) -> Value:
    """Single-head scaled dot-product attention with output projection."""
    return attention_mix_batched(tokens, [0], params)


def attention_mix_batched(tokens: Value, pad_lens, params: AttentionLayer) -> Value:
    """Single-head attention within each of R equally padded blocks.

    ``tokens`` stacks R blocks of ``n`` rows into an (R*n) x d matrix; block
    r's first ``pad_lens[r]`` rows are padding and are masked out as keys, so
    each real row matches :func:`attention_mix` on its block's real rows.
    The projections are plain matmuls over all rows; the per-block scores,
    key mask, softmax and weighted sum are one fused op.
    """
    pads = np.asarray(pad_lens, dtype=np.int64)
    rows = tokens.data.shape[0]
    r = len(pads)
    if r == 0 or rows % r:
        raise ShapeError(f"token rows {rows} do not form {r} equal blocks")
    n = rows // r
    if np.any(pads < 0) or np.any(pads >= n):
        raise ContractError(f"pad lengths must lie in [0, {n})")
    q = nc.matmul(tokens, params.wq)
    k = nc.matmul(tokens, params.wk)
    v = nc.matmul(tokens, params.wv)
    return nc.matmul(_attend(q, k, v, pads), params.wo)


def _attend(q: Value, k: Value, v: Value, pads: np.ndarray) -> Value:
    """softmax(q k^T / sqrt(d_k)) v per block, with each block's first
    ``pads[r]`` keys masked; the backward is analytic."""
    tape = q.tape
    r = len(pads)
    rows, dk = q.data.shape
    dv = v.data.shape[1]
    n = rows // r
    q3 = q.data.reshape(r, n, dk)
    k3 = k.data.reshape(r, n, dk)
    v3 = v.data.reshape(r, n, dv)
    c = 1.0 / np.sqrt(dk)
    p = np.matmul(q3, k3.transpose(0, 2, 1))
    p *= c
    masked = np.arange(n)[None, :] < pads[:, None]
    if masked.any():
        p += np.where(masked, -np.inf, 0.0)[:, None, :]
    # every block has a real last key, so each row's max is finite
    p -= p.max(axis=2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=2, keepdims=True)
    tape.flops += r * (2 * n * n * (dk + dv) + 6 * n * n)
    want = q.want_grad or k.want_grad or v.want_grad
    out = Value(np.matmul(p, v3).reshape(rows, dv), tape, want)
    if want:
        def back():
            g = out.grad
            if g is None:
                return
            g3 = g.reshape(r, n, dv)
            if v.want_grad:
                nc.accumulate_grad(v, np.matmul(p.transpose(0, 2, 1), g3).reshape(rows, dv))
            if q.want_grad or k.want_grad:
                dp = np.matmul(g3, v3.transpose(0, 2, 1))
                ds = p * (dp - (dp * p).sum(axis=2, keepdims=True))
                ds *= c
                if q.want_grad:
                    nc.accumulate_grad(q, np.matmul(ds, k3).reshape(rows, dk))
                if k.want_grad:
                    nc.accumulate_grad(k, np.matmul(ds.transpose(0, 2, 1), q3).reshape(rows, dk))
        tape.record(back)
    return out


def _activation(name: str):
    if name == "gelu":
        return nc.gelu
    if name == "relu":
        return nc.relu
    raise ConfigError(f"unknown activation {name!r}")


def _channel_flops(m: int, d: int, params: ChannelParams, activation: str,
                   residual: bool) -> int:
    """Check a channel mixer's activation and parameters against an m x d input;
    returns the flop tally of its chain of tape ops."""
    if activation not in ("gelu", "relu"):
        raise ConfigError(f"unknown activation {activation!r}")
    p = params
    hidden = p.w1.data.shape[1]
    d_out = p.w2.data.shape[1]
    shapes = [v.data.shape for v in (p.ln_gain, p.ln_bias, p.w1, p.b1, p.w2, p.b2)]
    want_shapes = [(1, d), (1, d), (d, hidden), (1, hidden), (hidden, d_out), (1, d_out)]
    if shapes != want_shapes or (residual and d_out != d):
        raise ShapeError(f"channel_mix: parameter shapes {shapes} do not fit {m}x{d} input")
    per_elem = nc._FLOPS_PER_ELEMENT
    return (per_elem["layer_norm"] * m * d + 2 * m * hidden * (d + d_out)
            + (1 + per_elem[activation]) * m * hidden
            + (2 if residual else 1) * m * d_out)


def _ffn_buffers(m: int, params: ChannelParams, gelu: bool):
    """Empty (pre, act, cdf) rows for the backward to read; cdf is None for ReLU."""
    hidden = params.w1.data.shape[1]
    return (np.empty((m, hidden)), np.empty((m, hidden)),
            np.empty((m, hidden)) if gelu else None)


def _rows_of(arrays, lo: int, hi: int):
    """Rows lo..hi of each of ``arrays``; None, and None entries, stay None."""
    return None if arrays is None else tuple(
        None if a is None else a[lo:hi] for a in arrays)


def _ffn_rows(z: np.ndarray, x: np.ndarray | None, params: ChannelParams, gelu: bool,
              f: np.ndarray, keep=None) -> None:
    """One row range of the channel mixer after its LayerNorm, written into
    ``f``: act(z @ W1 + b1) @ W2 + b2, plus ``x`` unless None. ``keep`` is None
    or the range's (pre, act, cdf) rows of :func:`_ffn_buffers` to fill."""
    pre, act, cdf = keep if keep is not None else (None, None, None)
    pre = np.matmul(z, params.w1.data, out=pre)
    pre += params.b1.data
    if gelu:
        cdf = nc._gelu_cdf(pre, out=cdf)
        act = np.multiply(pre, cdf, out=cdf if act is None else act)
    else:
        act = nc._relu(pre, out=pre if act is None else act)
    np.matmul(act, params.w2.data, out=f)
    f += params.b2.data
    if x is not None:
        f += x


def _ffn_back_rows(g: np.ndarray, params: ChannelParams, keep) -> np.ndarray:
    """The pre-activation gradient of one row range given its output gradient
    ``g``, written over the range's ``act`` rows of ``keep`` and returned."""
    pre, act, cdf = keep
    gact = g @ params.w2.data.T
    if cdf is None:
        return nc._relu_grad(gact, pre, out=act)
    return nc._gelu_grad(gact, pre, cdf, out=act)


def channel_mix(h: Value, params: ChannelParams, activation: str = "gelu",
                residual: bool = True) -> Value:
    """Feed-forward over layer-normed input, plus residual unless ablated.

    One fused op: LayerNorm -> W1 + b1 -> activation -> W2 + b2 (-> + h).
    It does the arithmetic of the same chain of tape ops, in the same order,
    so output, gradients and flop tally match it bit for bit. The backward
    reuses the forward's LayerNorm statistics, pre-activation and GELU cdf;
    without gradients nothing is kept.

    The per-row passes after the LayerNorm (in the backward, ``g @ W2.T`` and
    the activation gradient) run over row chunks on two cores
    (``numcore._row_passes``). The weight- and bias-gradient reductions,
    ``gpre @ W1.T`` and the LayerNorm backward run whole, so every sum keeps
    its order.
    """
    p = params
    inputs = (h, p.ln_gain, p.ln_bias, p.w1, p.b1, p.w2, p.b2)
    tape = nc._same_tape(*inputs)
    m, d = h.data.shape
    tape.flops += _channel_flops(m, d, p, activation, residual)

    want = any(v.want_grad for v in inputs)
    x = h.data
    gelu = activation == "gelu"
    # LayerNorm runs whole: split, its many small row-statistics calls would
    # mostly pass the GIL back and forth between the two threads
    z, xn, inv_std = nc._layer_norm(x, p.ln_gain.data, p.ln_bias.data)
    f = np.empty((m, p.w2.data.shape[1]))
    keep = _ffn_buffers(m, p, gelu) if want else None

    def forward_rows(lo, hi):
        _ffn_rows(z[lo:hi], x[lo:hi] if residual else None, p, gelu, f[lo:hi],
                  _rows_of(keep, lo, hi))

    nc._row_passes(m, forward_rows)
    out = Value(f, tape, want)
    if not want:
        return out
    act = keep[1]

    def back():
        g = out.grad
        if g is None:
            return
        if residual:
            nc.accumulate_grad(h, g)
        if p.b2.want_grad:
            nc.accumulate_grad(p.b2, g.sum(axis=0, keepdims=True))
        if p.w2.want_grad:
            nc.accumulate_grad(p.w2, act.T @ g)
        if not any(v.want_grad for v in inputs[:5]):
            return
        # the step runs once: act becomes gpre
        nc._row_passes(m, lambda lo, hi: _ffn_back_rows(g[lo:hi], p, _rows_of(keep, lo, hi)))
        gpre = act
        if p.b1.want_grad:
            nc.accumulate_grad(p.b1, gpre.sum(axis=0, keepdims=True))
        need_z = h.want_grad or p.ln_gain.want_grad or p.ln_bias.want_grad
        gz = gpre @ p.w1.data.T if need_z else None
        if p.w1.want_grad:
            nc.accumulate_grad(p.w1, z.T @ gpre)
        if need_z:
            nc._layer_norm_back(gz, h, p.ln_gain, p.ln_bias, xn, inv_std)
    tape.record(back)
    return out


def _mix_block(tokens: Value, times: np.ndarray, pad_lens, offsets, order_logits: Value,
               fusion: Union[Value, float], channel: ChannelParams, activation: str,
               residual: bool) -> Value:
    """One adaptive (or pooling) layer and its channel mixer as one tape op.

    It does the arithmetic of the chain :func:`adaptive_mix_batched` ->
    ``numcore.add`` (the residual, unless ablated) -> :func:`channel_mix`, in
    the same order, so output, gradients and flop tally match it bit for bit.
    The mixing weights are computed whole. Then one row pass
    (``numcore._row_passes``, chunks of whole blocks) runs, chunk by chunk,
    the mix, the residual, the LayerNorm and the feed-forward with its
    residual. The backward is one pass over the same chunks: ``g @ W2.T``,
    the activation gradient, ``gpre @ W1.T``, the LayerNorm's input gradient,
    the residual, the mix's input gradient and its per-offset products. The
    sums over rows (weights, biases, LayerNorm gain and bias, order logits
    and fusion) run whole, before or after the pass, so every sum keeps its
    order. The small ops of the mix and the LayerNorm, which hold the GIL,
    overlap with the other thread's GEMMs and erf, which release it.
    """
    mix = _mixing(tokens, times, pad_lens, offsets, order_logits, fusion)
    p = channel
    params = (p.ln_gain, p.ln_bias, p.w1, p.b1, p.w2, p.b2)
    tape = nc._same_tape(tokens, *params)
    m, d = tokens.data.shape
    _, r, n = mix.alpha.shape
    tape.flops += (mix.flops + (m * d if residual else 0)
                   + _channel_flops(m, d, p, activation, residual))

    mixed_learns = mix.learns(tokens)
    want = mixed_learns or any(v.want_grad for v in params)
    x = tokens.data
    x3 = x.reshape(r, n, d)
    gain, bias = p.ln_gain.data, p.ln_bias.data
    gelu = activation == "gelu"
    f = np.empty((m, p.w2.data.shape[1]))
    keep = _ffn_buffers(m, p, gelu) if want else None
    if want:  # what the backward reads, besides keep
        z, xn, inv_std = np.empty((m, d)), np.empty((m, d)), np.empty((m, 1))

    def forward_rows(lo, hi):
        h = _mix_rows(x3, mix, lo // n, hi // n).reshape(hi - lo, d)
        if residual:
            h += x[lo:hi]
        z_r, xn_r, inv_std_r = nc._layer_norm(h, gain, bias)
        if want:
            z[lo:hi], xn[lo:hi], inv_std[lo:hi] = z_r, xn_r, inv_std_r
        _ffn_rows(z_r, h if residual else None, p, gelu, f[lo:hi], _rows_of(keep, lo, hi))

    forward_rows.block = n
    nc._row_passes(m, forward_rows)
    out = Value(f, tape, want)
    if not want:
        return out
    act = keep[1]

    def back():
        g = out.grad
        if g is None:
            return
        if p.b2.want_grad:
            nc.accumulate_grad(p.b2, g.sum(axis=0, keepdims=True))
        if p.w2.want_grad:
            nc.accumulate_grad(p.w2, act.T @ g)
        if not (mixed_learns or any(v.want_grad for v in params[:4])):
            return
        need_z = mixed_learns or p.ln_gain.want_grad or p.ln_bias.want_grad
        gz = np.empty((m, d)) if p.ln_gain.want_grad or p.ln_bias.want_grad else None
        dalpha = mix.dalpha_buffer()
        # the chain adds the residual's gradient to what tokens already hold,
        # then the mix's: each chunk does both, into a new array
        prev = tokens.grad
        token_grad = np.empty((m, d)) if tokens.want_grad else None

        def backward_rows(lo, hi):  # the step runs once: act becomes gpre
            rows = slice(lo, hi)
            gpre = _ffn_back_rows(g[rows], p, _rows_of(keep, lo, hi))
            if not need_z:
                return
            gz_r = np.matmul(gpre, p.w1.data.T, out=None if gz is None else gz[rows])
            if not mixed_learns:
                return
            gh = nc._layer_norm_back_rows(gz_r, gain, xn[rows], inv_std[rows])
            if residual:
                gh += g[rows]
            dh = _mix_back_rows(gh.reshape(-1, n, d), x3, mix, lo // n, hi // n,
                                token_grad is not None, dalpha)
            if dh is None:
                return
            base = gh if residual else None
            if prev is not None:
                base = prev[rows] if base is None else prev[rows] + base
            if base is None:
                token_grad[rows] = dh.reshape(-1, d)
            else:
                np.add(base, dh.reshape(-1, d), out=token_grad[rows])

        backward_rows.block = n
        nc._row_passes(m, backward_rows)
        gpre = act
        if p.b1.want_grad:
            nc.accumulate_grad(p.b1, gpre.sum(axis=0, keepdims=True))
        if p.w1.want_grad:
            nc.accumulate_grad(p.w1, z.T @ gpre)
        if gz is not None:
            nc._layer_norm_back(gz, None, p.ln_gain, p.ln_bias, xn, inv_std)
        if token_grad is not None:
            tokens.grad = token_grad
        mix.accumulate_grads(dalpha)
    tape.record(back)
    return out


MixerLayer = Union[AdaptiveLayer, PoolingLayer, MlpLayer, AttentionLayer]


def _blocks(times, pad_lens):
    """``times`` as R x n blocks and their pad lengths (none by default)."""
    times = np.atleast_2d(np.asarray(times, dtype=np.float64))
    if pad_lens is None:
        pad_lens = np.zeros(len(times), dtype=np.int64)
    return times, pad_lens


def _adaptive_args(tokens: Value, mixer: MixerLayer):
    """(offsets, order logits, fusion) of an adaptive or pooling layer, else None."""
    if isinstance(mixer, AdaptiveLayer):
        return mixer.offsets, mixer.order_logits, mixer.fusion
    if isinstance(mixer, PoolingLayer):
        # flat order logits at fusion 1 weigh the valid part of the window
        # uniformly: the truncated mean
        flat = tokens.tape.constant(np.zeros((1, mixer.window)))
        return np.arange(mixer.window), flat, 1.0
    return None


def token_mix(tokens: Value, times, mixer: MixerLayer, activation: str = "gelu",
              pad_lens=None) -> Value:
    """One layer's token mixer: the one place a mixer kind meets its kernel.

    ``times`` of shape (n,) is one sequence of n token rows. Shape (R, n) is
    R blocks of n rows stacked into an (R*n) x d matrix, block r's first
    ``pad_lens[r]`` rows padding (none by default); each block's real rows
    match the mixer run on them alone.
    """
    times, pad_lens = _blocks(times, pad_lens)
    adaptive = _adaptive_args(tokens, mixer)
    if adaptive is not None:
        return adaptive_mix_batched(tokens, times, pad_lens, *adaptive)
    if isinstance(mixer, AttentionLayer):
        return attention_mix_batched(tokens, pad_lens, mixer)
    if isinstance(mixer, MlpLayer):
        # the token-axis MLP sees every block as n rows; side by side, all
        # blocks go through one pair of matmuls
        side_by_side = nc.blocks_to_cols(tokens, times.shape[1])
        return nc.cols_to_blocks(mlp_mix(side_by_side, mixer, activation),
                                 tokens.data.shape[1])
    raise ConfigError(f"unknown mixer layer type {type(mixer).__name__}")


def token_block(tokens: Value, times, mixer: MixerLayer, channel: ChannelParams,
                activation: str = "gelu", residual: bool = True,
                use_channel_mixer: bool = True, pad_lens=None) -> Value:
    """One full block: residual around :func:`token_mix`, then the channel mixer.

    With the channel mixer on, an adaptive or pooling layer runs the whole
    block as one fused op (:func:`_mix_block`), bit-identical to the chain.
    """
    adaptive = _adaptive_args(tokens, mixer) if use_channel_mixer else None
    if adaptive is not None:
        times, pad_lens = _blocks(times, pad_lens)
        return _mix_block(tokens, times, pad_lens, *adaptive, channel, activation, residual)
    mixed = token_mix(tokens, times, mixer, activation, pad_lens)
    h = nc.add(tokens, mixed) if residual else mixed
    if use_channel_mixer:
        h = channel_mix(h, channel, activation, residual)
    return h
