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
O(N * K * d) instead of materializing N x N mixing matrices.
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


def _masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis treating -inf entries as absent; rows with
    no finite entry come out all zero."""
    m = scores.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(scores - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / np.where(s > 0.0, s, 1.0)


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

    tape = tokens.tape
    h3 = tokens.data.reshape(r, n, d)
    local = np.arange(n)
    valid = local[None, :, None] - offsets[None, None, :] >= pads[:, None, None]
    covered = valid.any(axis=2)
    gaps = np.full((r, n, k), np.inf)
    for j, p in enumerate(offsets):
        if p < n:
            gaps[:, p:, j] = times[:, p:] - times[:, : n - p]
    gaps[~valid] = np.inf
    theta = _masked_softmax(-gaps)
    order_scores = np.where(valid, order_logits.data[0][None, None, :], -np.inf)
    order_w = _masked_softmax(order_scores)
    fusion_is_value = isinstance(fusion, Value)
    fuse = float(fusion.data[0, 0]) if fusion_is_value else float(fusion)
    alpha = fuse * order_w + (1.0 - fuse) * theta

    out3 = np.zeros_like(h3)
    for j, p in enumerate(offsets):
        if p < n:
            out3[:, p:, :] += alpha[:, p:, j, None] * h3[:, : n - p, :]
    out3[~covered] = h3[~covered]

    nz = int(valid.sum())
    tape.flops += 2 * nz * d + 10 * nz + int((~covered).sum()) * d

    want = tokens.want_grad or order_logits.want_grad or (
        fusion_is_value and fusion.want_grad)
    out = Value(out3.reshape(rows, d), tape, want)
    if want:
        def back():
            g = out.grad
            if g is None:
                return
            g3 = g.reshape(r, n, d)
            if tokens.want_grad:
                dh = np.zeros_like(h3)
                for j, p in enumerate(offsets):
                    if p < n:
                        dh[:, : n - p, :] += alpha[:, p:, j, None] * g3[:, p:, :]
                dh[~covered] += g3[~covered]
                nc.accumulate_grad(tokens, dh.reshape(rows, d))
            need_order = order_logits.want_grad and fuse != 0.0
            need_fuse = fusion_is_value and fusion.want_grad
            if need_order or need_fuse:
                dalpha = np.zeros((r, n, k))
                for j, p in enumerate(offsets):
                    if p < n:
                        dalpha[:, p:, j] = (g3[:, p:, :] * h3[:, : n - p, :]).sum(axis=2)
                if need_order:
                    go = fuse * dalpha
                    ds = order_w * (go - (go * order_w).sum(axis=2, keepdims=True))
                    nc.accumulate_grad(order_logits, ds.sum(axis=(0, 1)).reshape(1, k))
                if need_fuse:
                    dfuse = float((dalpha * (order_w - theta)).sum())
                    nc.accumulate_grad(fusion, np.array([[dfuse]]))
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
    if activation not in ("gelu", "relu"):
        raise ConfigError(f"unknown activation {activation!r}")
    p = params
    inputs = (h, p.ln_gain, p.ln_bias, p.w1, p.b1, p.w2, p.b2)
    tape = nc._same_tape(*inputs)
    m, d = h.data.shape
    hidden = p.w1.data.shape[1]
    d_out = p.w2.data.shape[1]
    shapes = [v.data.shape for v in inputs[1:]]
    want_shapes = [(1, d), (1, d), (d, hidden), (1, hidden), (hidden, d_out), (1, d_out)]
    if shapes != want_shapes or (residual and d_out != d):
        raise ShapeError(f"channel_mix: parameter shapes {shapes} do not fit {m}x{d} input")
    per_elem = nc._FLOPS_PER_ELEMENT
    tape.flops += (per_elem["layer_norm"] * m * d + 2 * m * hidden * (d + d_out)
                   + (1 + per_elem[activation]) * m * hidden
                   + (2 if residual else 1) * m * d_out)

    want = any(v.want_grad for v in inputs)
    x, gain, bias = h.data, p.ln_gain.data, p.ln_bias.data
    w1, b1, w2, b2 = p.w1.data, p.b1.data, p.w2.data, p.b2.data
    gelu = activation == "gelu"
    # LayerNorm runs whole: split, its many small row-statistics calls would
    # mostly pass the GIL back and forth between the two threads
    z, xn, inv_std = nc._layer_norm(x, gain, bias)
    f = np.empty((m, d_out))
    if want:  # what the backward reads, filled rows by rows
        pre, act = np.empty((m, hidden)), np.empty((m, hidden))
        cdf = np.empty((m, hidden)) if gelu else None

    def forward_rows(lo, hi):
        rows = slice(lo, hi)
        pre_r = np.matmul(z[rows], w1, out=pre[rows] if want else None)
        pre_r += b1
        if gelu:
            cdf_r = nc._gelu_cdf(pre_r, out=cdf[rows] if want else None)
            act_r = np.multiply(pre_r, cdf_r, out=act[rows] if want else cdf_r)
        else:
            act_r = nc._relu(pre_r, out=act[rows] if want else pre_r)
        f_r = np.matmul(act_r, w2, out=f[rows])
        f_r += b2
        if residual:
            f_r += x[rows]

    nc._row_passes(m, forward_rows)
    out = Value(f, tape, want)
    if not want:
        return out

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

        def backward_rows(lo, hi):  # the step runs once: act becomes gpre
            rows = slice(lo, hi)
            gact = g[rows] @ w2.T
            if gelu:
                nc._gelu_grad(gact, pre[rows], cdf[rows], out=act[rows])
            else:
                nc._relu_grad(gact, pre[rows], out=act[rows])

        nc._row_passes(m, backward_rows)
        gpre = act
        if p.b1.want_grad:
            nc.accumulate_grad(p.b1, gpre.sum(axis=0, keepdims=True))
        need_z = h.want_grad or p.ln_gain.want_grad or p.ln_bias.want_grad
        gz = gpre @ w1.T if need_z else None
        if p.w1.want_grad:
            nc.accumulate_grad(p.w1, z.T @ gpre)
        if need_z:
            nc._layer_norm_back(gz, h, p.ln_gain, p.ln_bias, xn, inv_std)
    tape.record(back)
    return out


MixerLayer = Union[AdaptiveLayer, PoolingLayer, MlpLayer, AttentionLayer]


def token_mix(tokens: Value, times, mixer: MixerLayer, activation: str = "gelu",
              pad_lens=None) -> Value:
    """One layer's token mixer: the one place a mixer kind meets its kernel.

    ``times`` of shape (n,) is one sequence of n token rows. Shape (R, n) is
    R blocks of n rows stacked into an (R*n) x d matrix, block r's first
    ``pad_lens[r]`` rows padding (none by default); each block's real rows
    match the mixer run on them alone.
    """
    times = np.atleast_2d(np.asarray(times, dtype=np.float64))
    if pad_lens is None:
        pad_lens = np.zeros(len(times), dtype=np.int64)
    if isinstance(mixer, AdaptiveLayer):
        return adaptive_mix_batched(tokens, times, pad_lens, mixer.offsets,
                                    mixer.order_logits, mixer.fusion)
    if isinstance(mixer, PoolingLayer):
        # flat order logits at fusion 1 weigh the valid part of the window
        # uniformly: the truncated mean
        flat = tokens.tape.constant(np.zeros((1, mixer.window)))
        return adaptive_mix_batched(tokens, times, pad_lens, np.arange(mixer.window),
                                    flat, 1.0)
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
    """One full block: residual around :func:`token_mix`, then the channel mixer."""
    mixed = token_mix(tokens, times, mixer, activation, pad_lens)
    h = nc.add(tokens, mixed) if residual else mixed
    if use_channel_mixer:
        h = channel_mix(h, channel, activation, residual)
    return h
