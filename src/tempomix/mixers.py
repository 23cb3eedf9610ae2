"""Token mixers over a neighbor-token matrix.

Four interchangeable mixers (adaptive, pooling, token-axis MLP, single-head
attention), the hierarchical offset schedule that widens the lookback window
with depth, and the per-token channel mixer. All layer functions are pure:
they read bound parameter Values and return a new Value.

Every layer is one :func:`token_block` (residual around the token mixer,
then the channel mixer, if the layer has one), the one place a mixer kind
meets its kernel; :func:`token_mix` is that block with neither. Training
and scoring run them on a padded batch: R sequences of n rows stacked into
one (R*n) x d matrix, each left-padded. The reference path
``model.node_repr`` runs them on one sequence, and ``tempomix bench`` times
:func:`token_mix` on the first layer that ``model.bind`` builds, so it
measures the kernels that training runs. The adaptive mixer computes its
weights whole, once per call (:func:`adaptive_mix` runs it on one
sequence). Pooling is an :class:`AdaptiveLayer` of constants: flat order
logits over the window 0..k-1 at fusion 1, the truncated mean. A pinned
fusion, a float, becomes a 1x1 constant on the tokens' tape, so the kernel
reads the order logits and the fusion as tape operands like any other.
Attention has a batched kernel (:func:`attention_mix_batched`), and
:func:`mlp_mix` runs on the blocks side by side (``numcore.blocks_to_cols``).

Attention and the block are fused differentiable operations: their backward
passes are derived analytically and registered on the tape. Every layer's
residual and channel mixer are one tape op, the block op, whose row work
runs in chunks of whole blocks on two threads; a layer without a channel
mixer is the same op without it. An adaptive or pooling layer's mix runs
inside those chunks, also with neither residual nor channel mixer. The
adaptive mix keeps per-layer work at O(N * K * d) instead of materializing
N x N mixing matrices. Attention and the MLP run their mix whole and hand
its output to the op.
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
    "MlpLayer",
    "AttentionLayer",
    "ChannelParams",
    "adaptive_mix",
    "mlp_mix",
    "attention_mix_batched",
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
    weights: a 1x1 Value, or a plain float that pins it (ablations, pooling)
    and becomes a tape constant. Pooling is this layer over offsets 0..k-1
    with constant flat order logits at fusion 1.
    """

    offsets: np.ndarray
    order_logits: Value
    fusion: Union[Value, float]


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
    order_logits: Value
    fusion: Value
    flops: int

    def dalpha_buffer(self) -> np.ndarray | None:
        """Zeros for the per-offset products ``dalpha`` (R, n, k) if the order
        logits or the fusion want a gradient, else None."""
        if not (self.order_logits.want_grad or self.fusion.want_grad):
            return None
        k, r, n = self.alpha.shape
        return np.zeros((r, n, k))

    def accumulate_grads(self, dalpha: np.ndarray | None) -> None:
        """Accumulate the order-logit and fusion gradients from ``dalpha``;
        ``numcore.accumulate_grad`` drops a constant's. The sums run whole,
        over weights laid out offsets last, in the order of one pass."""
        if dalpha is None:
            return
        order_w = np.ascontiguousarray(np.moveaxis(self.order_w, 0, -1))
        go = float(self.fusion.data[0, 0]) * dalpha
        ds = order_w * (go - (go * order_w).sum(axis=2, keepdims=True))
        nc.accumulate_grad(self.order_logits, ds.sum(axis=(0, 1)).reshape(1, -1))
        theta = np.ascontiguousarray(np.moveaxis(self.theta, 0, -1))
        dfuse = float((dalpha * (order_w - theta)).sum())
        nc.accumulate_grad(self.fusion, np.array([[dfuse]]))


def _mixing(tokens: Value, times, pad_lens, offsets, order_logits: Value,
            fusion: Union[Value, float]) -> _Mixing:
    """Check one adaptive layer call and compute its :class:`_Mixing`; a float
    ``fusion`` becomes a 1x1 constant on the tokens' tape."""
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
    if not isinstance(fusion, Value):
        fusion = tokens.tape.constant(np.array([[float(fusion)]]))
    fuse = float(fusion.data[0, 0])
    alpha = fuse * order_w + (1.0 - fuse) * theta
    nz = int(valid.sum())
    flops = 2 * nz * d + 10 * nz + int((~covered).sum()) * d
    return _Mixing(offsets, alpha, order_w, theta, covered, order_logits, fusion, flops)


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
                   dalpha: np.ndarray | None, out: np.ndarray) -> None:
    """Backward of :func:`_mix_rows` given the blocks' output gradient ``g3``:
    writes the input gradient into ``out`` (g3's shape) and fills blocks
    b0..b1 of ``dalpha`` (R, n, k; zero where an offset reaches before the
    block) unless None."""
    n = h3.shape[1]
    if dalpha is not None:
        h = h3[b0:b1]
        for j, p in enumerate(mix.offsets):
            if p < n:
                dalpha[b0:b1, p:, j] = (g3[:, p:, :] * h[:, : n - p, :]).sum(axis=2)
    out[...] = 0.0
    for j, p in enumerate(mix.offsets):
        if p < n:
            out[:, : n - p, :] += mix.alpha[j, b0:b1, p:, None] * g3[:, p:, :]
    uncovered = ~mix.covered[b0:b1]
    out[uncovered] += g3[uncovered]


def adaptive_mix(tokens: Value, times, offsets, order_logits: Value,
                 fusion: Union[Value, float]) -> Value:
    """Causal weighted average over the offset window.

    Row i becomes sum_p alpha_p * tokens[i-p] over valid offsets (i-p >= 0),
    where alpha blends a softmax over learned order logits with a softmax
    over negative time gaps. Rows whose window is entirely out of range pass
    through unchanged. This is :func:`token_mix` of an :class:`AdaptiveLayer`.
    """
    return token_mix(tokens, times, AdaptiveLayer(offsets, order_logits, fusion))


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


def attention_mix_batched(tokens: Value, pad_lens, params: AttentionLayer) -> Value:
    """Single-head attention within each of R equally padded blocks.

    ``tokens`` stacks R blocks of ``n`` rows into an (R*n) x d matrix; block
    r's first ``pad_lens[r]`` rows are padding and are masked out as keys, so
    each real row matches its block's real rows run alone.
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
    _activation(activation)  # rejects an unknown one
    p = params
    hidden = p.w1.data.shape[1]
    d_out = p.w2.data.shape[1]
    shapes = [v.data.shape for v in (p.ln_gain, p.ln_bias, p.w1, p.b1, p.w2, p.b2)]
    want_shapes = [(1, d), (1, d), (d, hidden), (1, hidden), (hidden, d_out), (1, d_out)]
    if shapes != want_shapes or (residual and d_out != d):
        raise ShapeError(f"channel mixer: parameter shapes {shapes} do not fit {m}x{d} input")
    per_elem = nc._FLOPS_PER_ELEMENT
    return (per_elem["layer_norm"] * m * d + 2 * m * hidden * (d + d_out)
            + (1 + per_elem[activation]) * m * hidden
            + (2 if residual else 1) * m * d_out)


def _rows_of(arrays, lo: int, hi: int):
    """Rows lo..hi of each of ``arrays``; None, and None entries, stay None."""
    return None if arrays is None else tuple(
        None if a is None else a[lo:hi] for a in arrays)


def _ffn_rows(z: np.ndarray, x: np.ndarray | None, params: ChannelParams, gelu: bool,
              f: np.ndarray, keep=None) -> None:
    """One row range of the channel mixer after its LayerNorm, written into
    ``f``: act(z @ W1 + b1) @ W2 + b2, plus ``x`` unless None. ``keep`` is None
    or the range's (pre, act, cdf) rows to fill; cdf is None for ReLU."""
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


def _mix_block(tokens: Value, mixed: Union[_Mixing, Value], n: int,
               channel: ChannelParams | None, activation: str | None,
               residual: bool) -> Value:
    """One layer's residual and channel mixer, after its token mix, as one tape op.

    ``mixed`` is either an adaptive (or pooling) layer's :class:`_Mixing`,
    whose mix then runs inside the op and whose order logits and fusion are
    operands, or the output of a token mixer that ran whole (attention, the
    token-axis MLP). ``channel`` None is the layer without a channel mixer
    (``activation`` is then unused); without the residual too, a mix that
    ran whole comes back as it is. The op does the
    arithmetic of the chain mix -> ``numcore.add`` (the residual, unless
    ablated) -> LayerNorm -> feed-forward (plus the residual), in the same
    order, so output, gradients and flop tally match it bit for bit. One row
    pass (``numcore._row_passes``, chunks of whole blocks of ``n`` rows) runs,
    chunk by chunk, the mix if it is an adaptive one, the residual, the
    LayerNorm and the feed-forward with its residual. The backward is one
    pass over the same chunks: ``g @ W2.T``, the activation gradient,
    ``gpre @ W1.T``, and the LayerNorm's input gradient plus the residual's
    share into one buffer (without a channel mixer, the output gradient is
    that gradient); then an adaptive mix's input gradient into a second
    buffer, and its per-offset products. The sums over rows (weights,
    biases, LayerNorm gain and bias, order logits and fusion) run whole,
    before or after the pass, so every sum keeps its order. Last, the
    gradients go out in the chain's order: ``tokens`` gets the residual's
    share, then ``tokens`` (adaptive, pooling) or ``mixed`` (attention, MLP)
    the mix's. A step computes every channel-mixer gradient, and
    ``numcore.accumulate_grad`` drops a constant's. The small ops of the mix
    and the LayerNorm, which hold the GIL, overlap with the other thread's
    GEMMs and erf, which release it.
    """
    mix = mixed if isinstance(mixed, _Mixing) else None
    p = channel
    params = () if p is None else (p.ln_gain, p.ln_bias, p.w1, p.b1, p.w2, p.b2)
    operands = (tokens, mixed) if mix is None else (tokens, mix.order_logits, mix.fusion)
    tape = nc._same_tape(*operands, *params)
    m, d = tokens.data.shape
    if mix is None and (mixed.data.shape != (m, d) or m % n):
        raise ShapeError(f"token_block: a mix of shape {mixed.data.shape} does not fit "
                         f"{m}x{d} tokens in blocks of {n}")
    if mix is None and p is None and not residual:
        return mixed  # nothing to add to a mix that ran whole
    tape.flops += ((0 if mix is None else mix.flops) + (m * d if residual else 0)
                   + (0 if p is None else _channel_flops(m, d, p, activation, residual)))

    want = any(v.want_grad for v in (*operands, *params))
    x = tokens.data
    x3 = x.reshape(-1, n, d)
    gelu = activation == "gelu"
    f = np.empty((m, d if p is None else p.w2.data.shape[1]))
    keep = None
    if want and p is not None:  # what the backward reads
        hidden = p.w1.data.shape[1]
        keep = (np.empty((m, hidden)), np.empty((m, hidden)),
                np.empty((m, hidden)) if gelu else None)
        z, xn, inv_std = np.empty((m, d)), np.empty((m, d)), np.empty((m, 1))

    def forward_rows(lo, hi):
        if mix is None:
            h = mixed.data[lo:hi] + x[lo:hi] if residual else mixed.data[lo:hi]
        else:
            h = _mix_rows(x3, mix, lo // n, hi // n).reshape(hi - lo, d)
            if residual:
                h += x[lo:hi]
        if p is None:
            f[lo:hi] = h
            return
        z_r, xn_r, inv_std_r = nc._layer_norm(h, p.ln_gain.data, p.ln_bias.data)
        if keep is not None:
            z[lo:hi], xn[lo:hi], inv_std[lo:hi] = z_r, xn_r, inv_std_r
        _ffn_rows(z_r, h if residual else None, p, gelu, f[lo:hi], _rows_of(keep, lo, hi))

    nc._row_passes(m, forward_rows, block=n)
    out = Value(f, tape, want)
    if not want:
        return out

    def back():
        g = out.grad
        if g is None:
            return
        if p is not None:
            nc.accumulate_grad(p.b2, g.sum(axis=0, keepdims=True))
            nc.accumulate_grad(p.w2, keep[1].T @ g)
        # the gradients of the LayerNorm's output and input (mix plus residual)
        gz, gh = (None, g) if p is None else (np.empty((m, d)), np.empty((m, d)))
        dalpha, dh = (None, None) if mix is None else (mix.dalpha_buffer(), np.empty((m, d)))

        def backward_rows(lo, hi):  # the step runs once: act becomes gpre
            rows = slice(lo, hi)
            if p is not None:
                pre, act_r, cdf = _rows_of(keep, lo, hi)
                gact = g[rows] @ p.w2.data.T
                gpre = (nc._relu_grad(gact, pre, out=act_r) if cdf is None
                        else nc._gelu_grad(gact, pre, cdf, out=act_r))
                np.matmul(gpre, p.w1.data.T, out=gz[rows])
                nc._layer_norm_back_rows(gz[rows], p.ln_gain.data, xn[rows], inv_std[rows],
                                         out=gh[rows])
                if residual:
                    gh[rows] += g[rows]
            if mix is not None:
                _mix_back_rows(gh[rows].reshape(-1, n, d), x3, mix, lo // n, hi // n, dalpha,
                               dh[rows].reshape(-1, n, d))

        if p is not None or mix is not None:  # else g is the gradient both get
            nc._row_passes(m, backward_rows, block=n)
        if p is not None:
            gpre = keep[1]
            nc.accumulate_grad(p.b1, gpre.sum(axis=0, keepdims=True))
            nc.accumulate_grad(p.w1, z.T @ gpre)
            nc.accumulate_grad(p.ln_gain, (gz * xn).sum(axis=0, keepdims=True))
            nc.accumulate_grad(p.ln_bias, gz.sum(axis=0, keepdims=True))
        # the chain's order: tokens get the residual's share, then tokens
        # (adaptive, pooling) or mixed (attention, MLP) get the mix's
        if residual:
            nc.accumulate_grad(tokens, gh)
        if mix is None:
            nc.accumulate_grad(mixed, gh)
        else:
            nc.accumulate_grad(tokens, dh)
            mix.accumulate_grads(dalpha)
    tape.record(back)
    return out


MixerLayer = Union[AdaptiveLayer, MlpLayer, AttentionLayer]


def token_block(tokens: Value, times, mixer: MixerLayer, channel: ChannelParams | None,
                activation: str = "gelu", residual: bool = True, pad_lens=None) -> Value:
    """One full block: residual around the token mixer, then the channel
    mixer, unless ``channel`` is None. The one place a mixer kind meets its
    kernel.

    ``times`` of shape (n,) is one sequence of n token rows. Shape (R, n) is
    R blocks of n rows stacked into an (R*n) x d matrix, block r's first
    ``pad_lens[r]`` rows padding (none by default); each block's real rows
    match the layer run on them alone. The residual and the channel mixer
    are one tape op (:func:`_mix_block`), bit-identical to the chain of ops;
    an adaptive or pooling layer's mix runs inside it, any other mixer's
    output feeds it.
    """
    times = np.atleast_2d(np.asarray(times, dtype=np.float64))
    pad_lens = np.zeros(len(times), dtype=np.int64) if pad_lens is None else pad_lens
    n = times.shape[1]
    if isinstance(mixer, AdaptiveLayer):
        mixed = _mixing(tokens, times, pad_lens, mixer.offsets, mixer.order_logits,
                        mixer.fusion)
    elif isinstance(mixer, AttentionLayer):
        mixed = attention_mix_batched(tokens, pad_lens, mixer)
    elif isinstance(mixer, MlpLayer):
        # the token-axis MLP sees every block as n rows; side by side, all
        # blocks go through one pair of matmuls
        side_by_side = nc.blocks_to_cols(tokens, n)
        mixed = nc.cols_to_blocks(mlp_mix(side_by_side, mixer, activation), tokens.data.shape[1])
    else:
        raise ConfigError(f"unknown mixer layer type {type(mixer).__name__}")
    return _mix_block(tokens, mixed, n, channel, activation, residual)


def token_mix(tokens: Value, times, mixer: MixerLayer, activation: str = "gelu",
              pad_lens=None) -> Value:
    """One layer's token mixer alone: :func:`token_block` with neither
    channel mixer nor residual."""
    return token_block(tokens, times, mixer, None, activation, residual=False,
                       pad_lens=pad_lens)
