"""Token mixers over a neighbor-token matrix.

Four interchangeable mixers (adaptive, pooling, token-axis MLP, single-head
attention), the hierarchical offset schedule that widens the lookback window
with depth, and the per-token channel mixer. All layer functions are pure:
they read bound parameter Values and return a new Value.

Every layer is one :func:`token_block`: the token mix, the residual and the
channel mixer (if any) as one tape op, run in chunks of whole blocks on two
threads; :func:`token_mix` is that block with neither residual nor channel
mixer. Training and scoring run
it on R left-padded sequences of n rows stacked into one (R*n) x d matrix;
``model.node_repr`` runs it on one sequence, and ``tempomix bench`` times
:func:`token_mix`. The adaptive mixer computes its weights whole, once per
call, and keeps per-layer work at O(N * K * d) instead of materializing
N x N mixing matrices. Pooling is an :class:`AdaptiveLayer` of constants:
flat order logits over the window 0..k-1 at fusion 1. The channel mixer and
the token-axis MLP share one activation kernel (``numcore._activate``,
``_activation`` and ``_activation_grad``); attention and the order logits
share one softmax gradient. Every backward is analytic, bit for bit the
chain of tape ops that ``tests/oracles.py`` keeps.
"""

from __future__ import annotations

import functools
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


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a softmax over the last axis, output ``p``, given the
    output's gradient ``g``."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


class _Sums(list):
    """A backward step's whole sums over rows, as (Value, result, task): each
    task is ``fn`` into a new array (``out=``), added only for a Value that
    wants a gradient, one GEMM or sum on one thread, so it keeps every bit."""

    def add(self, v: Value, fn, *args, **kwargs) -> None:
        if v.want_grad:
            out = np.empty(v.data.shape)
            self.append((v, out, functools.partial(fn, *args, out=out, **kwargs)))


class _Mix:
    """One layer call of a token mixer on R blocks of n rows, run by the block
    op in chunks of whole blocks: ``rows`` (the mix of rows lo..hi, an array
    the block may write over; the block drops it after its forward pass),
    ``start_back`` (allocating what the backward pass fills), ``back_rows``
    (given the output gradient of rows lo..hi, which the block may write
    over once it returns: their weight-gradient parts, returning the tokens'
    shares in the chain's order; run once over all rows after the pass if
    ``whole_back``), ``sums`` (the whole sums, added to the block's one task
    pass) and ``flops``."""

    whole_back = False

    def __init__(self, tokens: Value, times, pads, *operands: Value):
        (m, _), (r, n) = tokens.data.shape, times.shape
        if r == 0 or m != r * n:
            raise ShapeError(f"token rows {m} do not form {r} blocks of {n}")
        if len(pads) != r or np.any(pads < 0) or np.any(pads >= n):
            raise ContractError(f"{r} pad lengths must lie in [0, {n})")
        self.x, self.n, self.operands = tokens.data, n, operands
        self.want = any(v.want_grad for v in (tokens, *operands))

    def start_back(self) -> None:
        pass


class _Mixing(_Mix):
    """An adaptive (or pooling) layer call. Its mixing weights are computed
    whole, offsets leading: ``alpha``, ``order_w`` and ``theta`` are (k, R,
    n), ``covered`` (R, n) marks the rows with at least one valid offset. A
    float fusion becomes a 1x1 constant on the tokens' tape."""

    def __init__(self, tokens: Value, times, pads, layer: AdaptiveLayer, activation=None):
        (r, n), d = times.shape, tokens.data.shape[1]
        if np.any(np.diff(times, axis=1) < 0):
            raise ContractError("token times must be non-decreasing within each block")
        offsets = self.offsets = np.asarray(layer.offsets, dtype=np.int64)
        order_logits, fusion, k = layer.order_logits, layer.fusion, len(offsets)
        if k == 0:
            raise ContractError("adaptive mixing needs at least one offset")
        if order_logits.data.shape != (1, k):
            raise ShapeError(
                f"order logits shape {order_logits.data.shape} does not match {k} offsets")
        if not isinstance(fusion, Value):
            fusion = tokens.tape.constant(np.array([[float(fusion)]]))
        elif fusion.data.shape != (1, 1):
            raise ShapeError(f"fusion shape {fusion.data.shape} is not (1, 1)")
        super().__init__(tokens, times, pads, order_logits, fusion)

        valid = np.arange(n)[None, None, :] - offsets[:, None, None] >= pads[None, :, None]
        self.covered = valid.any(axis=0)
        # (index, offset) of each offset that reaches back within a block
        self.window = [(j, p) for j, p in enumerate(offsets) if p < n]
        gaps = np.full((k, r, n), np.inf)
        for j, p in self.window:
            gaps[j, :, p:] = times[:, p:] - times[:, : n - p]
        gaps[~valid] = np.inf
        self.theta = _masked_softmax(-gaps)
        self.order_w = _masked_softmax(
            np.where(valid, order_logits.data[0][:, None, None], -np.inf))
        fuse = float(fusion.data[0, 0])
        self.alpha = fuse * self.order_w + (1.0 - fuse) * self.theta
        nz = int(valid.sum())
        self.flops = 2 * nz * d + 10 * nz + int((~self.covered).sum()) * d
        self.dalpha = None

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Uncovered rows pass through."""
        n, b0, b1 = self.n, lo // self.n, hi // self.n
        h = self.x[lo:hi].reshape(b1 - b0, n, -1)
        out = np.zeros_like(h)
        for j, p in self.window:
            out[:, p:, :] += self.alpha[j, b0:b1, p:, None] * h[:, : n - p, :]
        uncovered = ~self.covered[b0:b1]
        out[uncovered] = h[uncovered]
        return out.reshape(hi - lo, -1)

    def start_back(self) -> None:
        """Zeros for ``dalpha`` (R, n, k) if the order logits or fusion learn."""
        if any(v.want_grad for v in self.operands):
            k, r, n = self.alpha.shape
            self.dalpha = np.zeros((r, n, k))

    def back_rows(self, g: np.ndarray, lo: int, hi: int) -> list:
        """Fills ``dalpha`` (zero where an offset reaches before the block)."""
        n, b0, b1 = self.n, lo // self.n, hi // self.n
        g3 = g.reshape(b1 - b0, n, -1)
        if self.dalpha is not None:
            h = self.x[lo:hi].reshape(g3.shape)
            for j, p in self.window:
                self.dalpha[b0:b1, p:, j] = (g3[:, p:, :] * h[:, : n - p, :]).sum(axis=2)
        out = np.zeros_like(g3)
        for j, p in self.window:
            out[:, : n - p, :] += self.alpha[j, b0:b1, p:, None] * g3[:, p:, :]
        uncovered = ~self.covered[b0:b1]
        out[uncovered] += g3[uncovered]
        return [out.reshape(hi - lo, -1)]

    def sums(self, sums: _Sums) -> None:
        """The order-logit and fusion gradients, offsets last as in one pass."""
        (order_logits, fusion), dalpha = self.operands, self.dalpha
        if dalpha is None:
            return
        fuse = float(fusion.data[0, 0])
        order_w = np.ascontiguousarray(np.moveaxis(self.order_w, 0, -1))
        theta = np.ascontiguousarray(np.moveaxis(self.theta, 0, -1))

        def order_grad(out):
            np.sum(_softmax_grad(order_w, fuse * dalpha), axis=(0, 1), out=out.reshape(-1))

        sums.add(order_logits, order_grad)
        sums.add(fusion, lambda out: np.sum(dalpha * (order_w - theta), out=out.reshape(())))


def adaptive_mix(tokens: Value, times, offsets, order_logits: Value,
                 fusion: Union[Value, float]) -> Value:
    """Causal weighted average over the offset window.

    Row i becomes sum_p alpha_p * tokens[i-p] over valid offsets (i-p >= 0),
    where alpha blends a softmax over learned order logits with a softmax
    over negative time gaps. Rows whose window is entirely out of range pass
    through unchanged. This is :func:`token_mix` of an :class:`AdaptiveLayer`.
    """
    return token_mix(tokens, times, AdaptiveLayer(offsets, order_logits, fusion))


def _row_max(p: np.ndarray) -> np.ndarray:
    """``p.max(axis=2, keepdims=True)`` for ``p`` (B, n, n), exact, as ``np.maximum``
    over the n key columns: much faster on rows this short."""
    top = p[:, :, :1].copy()
    for j in range(1, p.shape[2]):
        np.maximum(top, p[:, :, j:j + 1], out=top)
    return top


class _Attention(_Mix):
    """A single-head attention layer call: within each block, softmax(q k^T /
    sqrt(d_k)) v with the block's first ``pads[r]`` keys masked, then ``@ wo``.
    A chunk runs the chain's arithmetic on its blocks (projections split by
    rows keep each row), so every bit matches the chain."""

    def __init__(self, tokens: Value, times, pads, layer: AttentionLayer, activation=None):
        super().__init__(tokens, times, pads, layer.wq, layer.wk, layer.wv, layer.wo)
        (m, d), (r, n) = tokens.data.shape, times.shape
        shapes = [w.data.shape for w in self.operands]
        dk, dv = shapes[0][1], shapes[2][1]
        if shapes != [(d, dk), (d, dk), (d, dv), (dv, d)]:
            raise ShapeError(f"attention weights {shapes} do not fit {d}-wide tokens")
        self.c = 1.0 / np.sqrt(dk)
        self.flops = 4 * m * d * (dk + dv) + r * (2 * n * n * (dk + dv) + 6 * n * n)
        masked = np.arange(n)[None, :] < pads[:, None]
        # decided once per call, as the chain does
        self.mask = np.where(masked, -np.inf, 0.0)[:, None, :] if masked.any() else None
        # q, k, v, the probabilities (row by key) and the mix before wo
        self.keep = tuple(np.empty((m, w)) for w in (dk, dk, dv, n, dv)) if self.want else None

    def _blocks(self, arrays, lo: int, hi: int) -> list:
        """Rows lo..hi of each of ``arrays`` as (blocks, n, width) views."""
        return [a[lo:hi].reshape(-1, self.n, a.shape[1]) for a in arrays]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        wq, wk, wv, wo = (w.data for w in self.operands)
        x = self.x[lo:hi]
        q, k, v, p, att = (None,) * 5 if self.keep is None else self._blocks(self.keep, lo, hi)
        q3, k3, v3 = (np.matmul(x, w, out=None if o is None else o.reshape(x.shape[0], -1))
                      .reshape(-1, self.n, w.shape[1]) for w, o in ((wq, q), (wk, k), (wv, v)))
        p = np.matmul(q3, k3.transpose(0, 2, 1), out=p)
        p *= self.c
        if self.mask is not None:
            p += self.mask[lo // self.n:hi // self.n]
        # every block has a real last key, so each row's max is finite
        p -= _row_max(p)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        return np.matmul(p, v3, out=att).reshape(hi - lo, -1) @ wo

    def start_back(self) -> None:
        self.grads = tuple(np.empty_like(a) for a in self.keep[:3])  # of q, k and v
        self.gout = np.empty_like(self.x)  # the output gradient, for wo's sum

    def back_rows(self, g: np.ndarray, lo: int, hi: int) -> list:
        """Copies ``g`` and fills the q, k and v gradients; the tokens' shares
        go via v, k, q."""
        wq, wk, wv, wo = (w.data for w in self.operands)
        q3, k3, v3, p, _ = self._blocks(self.keep, lo, hi)
        gq, gk, gv = self._blocks(self.grads, lo, hi)
        self.gout[lo:hi] = g
        g3 = (g @ wo.T).reshape(v3.shape)
        np.matmul(p.transpose(0, 2, 1), g3, out=gv)
        dp = np.matmul(g3, v3.transpose(0, 2, 1))
        ds = _softmax_grad(p, dp)
        ds *= self.c
        np.matmul(ds, k3, out=gq)
        np.matmul(ds.transpose(0, 2, 1), q3, out=gk)
        return [a.reshape(hi - lo, -1) @ w.T for a, w in ((gv, wv), (gk, wk), (gq, wq))]

    def sums(self, sums: _Sums) -> None:
        sums.add(self.operands[3], np.matmul, self.keep[4].T, self.gout)
        for w, gw in zip(self.operands, self.grads):
            sums.add(w, np.matmul, self.x.T, gw)


def _side_by_side(a: np.ndarray, n: int) -> np.ndarray:
    """Blocks of n rows side by side, a new array: (B*n) x d becomes n x (B*d)."""
    return a.reshape(-1, n, a.shape[1]).transpose(1, 0, 2).copy().reshape(n, -1)


def _stacked(a: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`_side_by_side`: n x (B*d) becomes (B*n) x d."""
    return a.reshape(a.shape[0], -1, d).transpose(1, 0, 2).reshape(-1, d)


class _TokenMlp(_Mix):
    """A token-axis MLP layer call: each block's n rows become W2 act(W1 h +
    b1) + b2, all blocks side by side in one pair of GEMMs. Every GEMM runs
    whole, as in the chain: the forward once per call, and the backward once
    after the block's pass (``whole_back``); the chunks only slice them. It
    keeps the pre-activations and GELU gates; the backward rebuilds ``act``
    from them and ``h`` from the tokens, bit for bit."""

    whole_back = True

    def __init__(self, tokens: Value, times, pads, layer: MlpLayer, activation: str):
        super().__init__(tokens, times, pads, layer.w1, layer.b1, layer.w2, layer.b2)
        (m, d), n, k = tokens.data.shape, times.shape[1], layer.w1.data.shape[0]
        if layer.w1.data.shape[1] != n:
            raise ConfigError(f"token-mixing weights were built for {layer.w1.data.shape[1]} "
                              f"tokens, got a sequence of {n}")
        shapes = [w.data.shape for w in self.operands]
        if shapes != [(k, n), (k, 1), (n, k), (n, 1)]:
            raise ShapeError(f"token-axis MLP weights {shapes} do not fit {m}x{d} tokens")
        w1, b1, w2, b2 = (w.data for w in self.operands)
        self.flops = (4 * k * n + k + nc._FLOPS_PER_ELEMENT[activation] * k + n) * (m // n * d)
        h = _side_by_side(self.x, n)
        pre = w1 @ h + b1
        act, cdf = nc._activate(pre, activation == "gelu")
        out = _stacked(w2 @ act + b2, d)
        self.rows = lambda lo, hi: out[lo:hi]
        # side by side: the pre-activations and GELU gates
        self.keep = (pre, cdf) if self.want else None

    def back_rows(self, g: np.ndarray, lo: int, hi: int) -> list:
        """All rows at once: ``gout``, ``act`` rebuilt for ``W2``'s sum, and
        then the pre-activation gradient over ``pre`` (ReLU) or the GELU
        gates."""
        w1, _, w2, _ = (w.data for w in self.operands)
        pre, cdf = self.keep
        self.gout = _side_by_side(g, self.n)
        self.act = nc._activation(pre, cdf)
        gpre = nc._activation_grad(pre, cdf, lambda out: np.matmul(w2.T, self.gout, out=out))
        return [_stacked(w1.T @ gpre, self.x.shape[1])]

    def sums(self, sums: _Sums) -> None:
        (w1, b1, w2, b2), (pre, cdf) = self.operands, self.keep
        gpre = pre if cdf is None else cdf
        sums.add(b2, np.sum, self.gout, axis=1, keepdims=True)
        sums.add(w2, np.matmul, self.gout, self.act.T)
        sums.add(b1, np.sum, gpre, axis=1, keepdims=True)
        sums.add(w1, lambda out: np.matmul(gpre, _side_by_side(self.x, self.n).T, out=out))


def _channel_flops(m: int, d: int, params: ChannelParams, activation: str,
                   residual: bool) -> int:
    """Check a channel mixer's parameters against an m x d input; returns the
    flop tally of its chain of tape ops."""
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


def _mix_block(tokens: Value, mix: _Mix, channel: ChannelParams | None,
               activation: str | None, residual: bool) -> Value:
    """One layer as one tape op: the token mix, the residual and the channel
    mixer (``channel`` None: none). ``mix`` is one layer call of a mixer kind.

    The op does the arithmetic of the chain mix -> ``numcore.add`` (the
    residual, unless ablated) -> LayerNorm -> feed-forward (plus the
    residual), in the same order, so output, gradients and flop tally match
    it bit for bit. One row pass (``numcore._row_passes``) runs all of it
    chunk by chunk. Between forward and backward the op keeps only what its
    backward cannot rebuild bit for bit: the pre-activations, the GELU gates,
    the LayerNorm's normalized rows ``xn`` and 1/std.

    The backward has one schedule, whatever the mixer kind. First one pass
    over the same chunks, with no task in it: ``act`` rebuilt from ``pre``
    and the gates with the forward's own call (``numcore._activation``) for
    ``W2``'s sum, ``g @ W2.T``, the activation gradient
    (``numcore._activation_grad``, written over the GELU gates, or the
    pre-activations for ReLU), ``gpre @ W1.T``, the LayerNorm's input
    gradient plus the residual's share, the mix's backward (after the pass,
    whole, for the token-axis MLP), and, if the tokens want it, their
    gradient: the mix's shares added in the chain's order to any the tokens
    already hold, written over the LayerNorm's input gradient if there is a
    channel mixer. Then one pass of the whole sums over rows, each one task
    on one thread: ``W2``'s ``act.T @ g`` and ``W1``'s ``z.T @ gpre`` first,
    ``z`` rebuilt as ``xn * gain + bias`` (``numcore._layer_norm_affine``),
    then the biases', the LayerNorm's gain and bias and the mix's. Then
    ``accumulate_grad``, on the caller. The small ops, which hold the GIL,
    overlap with the other thread's GEMMs and erf, which release it.
    """
    p = channel
    params = () if p is None else (p.ln_gain, p.ln_bias, p.w1, p.b1, p.w2, p.b2)
    tape = nc._same_tape(tokens, *mix.operands, *params)
    m, d = tokens.data.shape
    tape.flops += (mix.flops + (m * d if residual else 0)
                   + (0 if p is None else _channel_flops(m, d, p, activation, residual)))

    want = mix.want or any(v.want_grad for v in params)
    x, gelu = tokens.data, activation == "gelu"
    f = np.empty((m, d if p is None else p.w2.data.shape[1]))
    keep = (None,) * 4  # what the backward reads: pre, GELU gates, xn, 1/std
    if want and p is not None:
        hidden = functools.partial(np.empty, (m, p.w1.data.shape[1]))
        keep = (hidden(), hidden() if gelu else None, np.empty((m, d)), np.empty((m, 1)))
    pre, cdf, xn, inv_std = keep

    def forward_rows(lo, hi):
        h = mix.rows(lo, hi)
        if residual:
            h += x[lo:hi]
        if p is None:
            f[lo:hi] = h
            return
        pre_r, cdf_r, xn_r, inv_std_r = (None if a is None else a[lo:hi] for a in keep)
        z_r, _, _ = nc._layer_norm(h, p.ln_gain.data, p.ln_bias.data, xn_r, inv_std_r)
        # the feed-forward: act(z @ W1 + b1) @ W2 + b2, plus the residual
        pre_r = np.matmul(z_r, p.w1.data, out=pre_r)
        pre_r += p.b1.data
        act_r, _ = nc._activate(pre_r, gelu, cdf_r, out=pre_r if pre is None else None)
        np.matmul(act_r, p.w2.data, out=f[lo:hi])
        f[lo:hi] += p.b2.data
        if residual:
            f[lo:hi] += h

    nc._row_passes(m, forward_rows, block=mix.n)
    mix.rows = None  # drops the forward's mix, such as the MLP's whole output
    out = Value(f, tape, want)
    if not want:
        return out

    def back():
        g = out.grad
        if g is None:
            return
        # the gradients of the LayerNorm's output and input (mix plus residual)
        gz, gh = (None, g) if p is None else (np.empty((m, d)), np.empty((m, d)))
        # with a channel mixer the tokens' gradient goes over gh, which no sum reads
        gx, prior = (np.empty((m, d)) if p is None else gh), tokens.grad
        # the activations, rebuilt for W2's sum before gpre goes over their inputs
        act = np.empty_like(pre) if p is not None and p.w2.want_grad else None
        if mix.want:
            mix.start_back()

        def mix_back_rows(lo, hi):
            shares = mix.back_rows(gh[lo:hi], lo, hi)
            if tokens.want_grad:  # the chain's order: the residual's share, then the mix's
                rows = slice(lo, hi)
                shares = ([] if prior is None else [prior[rows]]) + [gh[rows]] * residual + shares
                gx[rows] = functools.reduce(np.add, shares)

        def backward_rows(lo, hi):
            rows = slice(lo, hi)
            if p is not None:
                pre_r, cdf_r = pre[rows], None if cdf is None else cdf[rows]
                if act is not None:
                    nc._activation(pre_r, cdf_r, out=act[rows])
                gpre = nc._activation_grad(  # g @ W2.T into the slope's scratch
                    pre_r, cdf_r, lambda out: np.matmul(g[rows], p.w2.data.T, out=out))
                np.matmul(gpre, p.w1.data.T, out=gz[rows])
                nc._layer_norm_back_rows(gz[rows], p.ln_gain.data, xn[rows], inv_std[rows],
                                         out=gh[rows])
                if residual:
                    gh[rows] += g[rows]
            if mix.want and not mix.whole_back:
                mix_back_rows(lo, hi)

        nc._row_passes(m, backward_rows, mix.n)
        if mix.want and mix.whole_back:
            mix_back_rows(0, m)
        sums = _Sums()
        if p is not None:
            gpre = pre if cdf is None else cdf
            sums.add(p.w2, lambda out: np.matmul(act.T, g, out=out))
            sums.add(p.w1, lambda out: np.matmul(
                nc._layer_norm_affine(xn, p.ln_gain.data, p.ln_bias.data).T, gpre, out=out))
            sums.add(p.b2, np.sum, g, axis=0, keepdims=True)
            sums.add(p.b1, np.sum, gpre, axis=0, keepdims=True)
            sums.add(p.ln_gain, lambda out: np.sum(gz * xn, axis=0, keepdims=True, out=out))
            sums.add(p.ln_bias, np.sum, gz, axis=0, keepdims=True)
        if mix.want:
            mix.sums(sums)
        nc._row_passes(0, tasks=[task for *_, task in sums])
        for v, grad, _ in sums:
            nc.accumulate_grad(v, grad)
        if tokens.want_grad:
            tokens.grad = gx  # it already holds the earlier gradient
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
    match the layer run on them alone. The layer is one tape op
    (:func:`_mix_block`).
    """
    times = np.atleast_2d(np.asarray(times, dtype=np.float64))
    pads = np.asarray(np.zeros(len(times)) if pad_lens is None else pad_lens, dtype=np.int64)
    kernel = {AdaptiveLayer: _Mixing, AttentionLayer: _Attention, MlpLayer: _TokenMlp}.get(
        type(mixer))
    if kernel is None:
        raise ConfigError(f"unknown mixer layer type {type(mixer).__name__}")
    if activation not in ("gelu", "relu"):
        raise ConfigError(f"unknown activation {activation!r}")
    return _mix_block(tokens, kernel(tokens, times, pads, mixer, activation), channel,
                      activation, residual)


def token_mix(tokens: Value, times, mixer: MixerLayer, activation: str = "gelu",
              pad_lens=None) -> Value:
    """One layer's token mixer alone: :func:`token_block` with neither
    channel mixer nor residual."""
    return token_block(tokens, times, mixer, None, activation, residual=False,
                       pad_lens=pad_lens)
