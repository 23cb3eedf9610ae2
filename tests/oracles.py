"""References that the tests compare the program against and the program
never runs: tape ops that only tests compose, the probability-space loss, and
the per-sequence and tape-chain oracles of the fused mixer kernels. The
attention and token-axis MLP chains are the tape ops the block op
``mixers._mix_block`` stands for, kept here as its chain oracle.

The tape ops follow the conventions of ``tempomix.numcore``: each records its
backward step on the operand's tape and adds its work to ``Tape.flops``.
"""

import numpy as np
from scipy.special import erf

from tempomix import numcore as nc
from tempomix.numcore import ConfigError, ContractError, ShapeError, Value

PROB_CLAMP = 1e-12  # bce_loss clamps probabilities to [PROB_CLAMP, 1-PROB_CLAMP] before logs


# ---------------------------------------------------------------------------
# Tape ops
# ---------------------------------------------------------------------------


def scale(a: Value, c: float) -> Value:
    t = a.tape
    c = float(c)
    t.flops += a.data.size
    out = Value(a.data * c, t, a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                nc.accumulate_grad(a, out.grad * c)
        t.record(back)
    return out


def transpose(a: Value) -> Value:
    t = a.tape
    out = Value(a.data.T.copy(), t, a.want_grad)
    if out.want_grad:
        def back():
            if out.grad is not None:
                nc.accumulate_grad(a, out.grad.T)
        t.record(back)
    return out


def softmax_rows(a: Value) -> Value:
    t = a.tape
    x = a.data
    e = np.exp(x - x.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    t.flops += 5 * x.size
    out = Value(s, t, a.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            nc.accumulate_grad(a, s * (g - (g * s).sum(axis=1, keepdims=True)))
        t.record(back)
    return out


def sum_all(a: Value) -> Value:
    t = a.tape
    t.flops += a.data.size
    out = Value(np.array([[a.data.sum()]]), t, a.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            nc.accumulate_grad(a, np.full(a.data.shape, g[0, 0]))
        t.record(back)
    return out


def gelu(a: Value) -> Value:
    """Exact GELU, x * Phi(x), with the gate Phi(x) = (1 + erf(x / sqrt(2))) / 2
    and the gradient (Phi(x) + x phi(x)) * g, each step in the kernel's order.
    It calls erf on the signed input on purpose, where the kernel calls it on
    |x| and restores the sign: the two agreeing bit for bit is the proof that
    the kernel's shortcut changes no bit."""
    t = a.tape
    x = a.data
    cdf = (erf(x * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5
    t.flops += nc._FLOPS_PER_ELEMENT["gelu"] * x.size

    def share(g):
        slope = np.exp(x * -0.5 * x) * (1.0 / np.sqrt(2.0 * np.pi)) * x
        return (cdf + slope) * g
    return nc._record(t, x * cdf, ((a, share),))


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
    return nc._record(a.tape, _blocks_to_cols(a.data, block_len),
                      ((a, lambda g: _cols_to_blocks(g, cols)),))


def cols_to_blocks(a: Value, width: int) -> Value:
    """Inverse of :func:`blocks_to_cols`: n x (R*width) becomes (R*n) x width."""
    n, cols = a.data.shape
    if width < 1 or cols % width:
        raise ShapeError(f"cols_to_blocks: {cols} columns do not form blocks of {width}")
    return nc._record(a.tape, _cols_to_blocks(a.data, width),
                      ((a, lambda g: _blocks_to_cols(g, n)),))


def layer_norm_rows(a: Value, gain: Value, bias: Value) -> Value:
    """Per-row normalization with population variance, then affine gain/bias:
    the LayerNorm that the block op runs inside its row passes."""
    t = nc._same_tape(a, gain, bias)
    m, n = a.data.shape
    if gain.data.shape != (1, n) or bias.data.shape != (1, n):
        raise ShapeError(
            f"layer_norm_rows: gain/bias must be 1x{n}, got {gain.data.shape} and {bias.data.shape}")
    z, xn, inv_std = nc._layer_norm(a.data, gain.data, bias.data)
    t.flops += nc._FLOPS_PER_ELEMENT["layer_norm"] * z.size
    out = Value(z, t, a.want_grad or gain.want_grad or bias.want_grad)
    if out.want_grad:
        def back():
            g = out.grad
            if g is None:
                return
            if gain.want_grad:
                nc.accumulate_grad(gain, (g * xn).sum(axis=0, keepdims=True))
            if bias.want_grad:
                nc.accumulate_grad(bias, g.sum(axis=0, keepdims=True))
            if a.want_grad:
                nc.accumulate_grad(a, nc._layer_norm_back_rows(g, gain.data, xn, inv_std))
        t.record(back)
    return out


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def bce_loss(pos_probs, neg_probs) -> float:
    """Summed binary cross-entropy on probabilities (clamped before logs): the
    specification that ``model.batch_loss`` computes on logits."""
    pos = np.asarray(pos_probs, dtype=np.float64)
    neg = np.asarray(neg_probs, dtype=np.float64)
    if pos.size == 0 and neg.size == 0:
        raise ContractError("bce_loss: need at least one probability")
    pos = np.clip(pos, PROB_CLAMP, 1.0 - PROB_CLAMP)
    neg = np.clip(neg, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-(np.log(pos).sum() + np.log(1.0 - neg).sum()))


# ---------------------------------------------------------------------------
# Mixer oracles
# ---------------------------------------------------------------------------


def reference_pooling_mix(h, window):
    """Mean over the most recent ``window`` rows of ``h``, truncated at the
    start, by prefix sums: the oracle for the shipped pooling path."""
    n, d = h.shape
    cs = np.vstack([np.zeros((1, d)), np.cumsum(h, axis=0)])
    hi = np.arange(1, n + 1)
    lo = np.maximum(0, hi - window)
    return (cs[hi] - cs[lo]) / (hi - lo)[:, None]


def masked_softmax_rows(scores):
    """Softmax over the last axis treating -inf entries as absent; rows with
    no finite entry come out all zero."""
    m = scores.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(scores - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / np.where(s > 0.0, s, 1.0)


def reference_adaptive_mix(tokens, times, offsets, order_logits, fusion, pad_lens=None):
    """The per-sequence adaptive kernel, one sequence at a time: the oracle for
    ``mixers.adaptive_mix``, the single-block call of the batched kernel.

    With 2-D ``times`` (R x n), ``tokens`` stacks R blocks of n rows, block
    r's first ``pad_lens[r]`` rows padding (none by default): each block's
    real rows run alone, its padding passes through, and the order-logit and
    fusion gradients sum over the rows of all blocks at once."""
    times = np.atleast_2d(np.asarray(times, dtype=np.float64))
    r, n = times.shape
    pads = np.zeros(r, dtype=np.int64) if pad_lens is None else np.asarray(pad_lens)
    h3 = tokens.data.reshape(r, n, -1)
    d = h3.shape[2]
    offsets = np.asarray(offsets, dtype=np.int64)
    k = len(offsets)
    tape = tokens.tape
    fusion_is_value = isinstance(fusion, Value)
    fuse = float(fusion.data[0, 0]) if fusion_is_value else float(fusion)
    # weights over every block's rows, zero on padding and invalid offsets
    theta, order_w = np.zeros((r, n, k)), np.zeros((r, n, k))
    covered = np.zeros((r, n), dtype=bool)
    nz = 0
    for b, pad in enumerate(pads):
        m, t = n - pad, times[b, pad:]
        valid = offsets[None, :] <= np.arange(m)[:, None]
        covered[b, pad:] = valid.any(axis=1)
        gaps = np.full((m, k), np.inf)
        for j, p in enumerate(offsets):
            if p < m:
                gaps[p:, j] = t[p:] - t[: m - p]
        theta[b, pad:] = masked_softmax_rows(-gaps)
        order_w[b, pad:] = masked_softmax_rows(
            np.where(valid, order_logits.data[0][None, :], -np.inf))
        nz += int(valid.sum())
    alpha = fuse * order_w + (1.0 - fuse) * theta

    out3 = h3.copy()  # padding and rows without a valid offset pass through
    for b, pad in enumerate(pads):
        h, m = h3[b, pad:], n - pad
        mixed = np.zeros_like(h)
        for j, p in enumerate(offsets):
            if p < m:
                mixed[p:] += alpha[b, pad + p:, j:j + 1] * h[: m - p]
        out3[b, pad:][covered[b, pad:]] = mixed[covered[b, pad:]]
    tape.flops += 2 * nz * d + 10 * nz + int((~covered).sum()) * d

    want = tokens.want_grad or order_logits.want_grad or (fusion_is_value and fusion.want_grad)
    out = Value(out3.reshape(r * n, d), tape, want)
    if want:
        def back():
            g3 = out.grad.reshape(r, n, d)
            dalpha = np.zeros((r, n, k))
            dh3 = g3.copy()  # padding passes the gradient through
            for b, pad in enumerate(pads):
                h, g, m = h3[b, pad:], g3[b, pad:], n - pad
                dh = np.zeros_like(h)
                for j, p in enumerate(offsets):
                    if p < m:
                        dh[: m - p] += alpha[b, pad + p:, j:j + 1] * g[p:]
                        dalpha[b, pad + p:, j] = (g[p:] * h[: m - p]).sum(axis=1)
                uncovered = ~covered[b, pad:]
                dh[uncovered] += g[uncovered]
                dh3[b, pad:] = dh
            if tokens.want_grad:
                nc.accumulate_grad(tokens, dh3.reshape(r * n, d))
            if order_logits.want_grad and fuse != 0.0:
                go = fuse * dalpha
                ds = order_w * (go - (go * order_w).sum(axis=2, keepdims=True))
                nc.accumulate_grad(order_logits, ds.sum(axis=(0, 1)).reshape(1, k))
            if fusion_is_value and fusion.want_grad:
                dfuse = float((dalpha * (order_w - theta)).sum())
                nc.accumulate_grad(fusion, np.array([[dfuse]]))
        tape.record(back)
    return out


def reference_attention(tokens, params):
    """Single-head attention composed from tape primitives: the oracle for
    :func:`attention_mix_batched` on one block."""
    q = nc.matmul(tokens, params.wq)
    k = nc.matmul(tokens, params.wk)
    v = nc.matmul(tokens, params.wv)
    d_k = params.wq.data.shape[1]
    weights = softmax_rows(scale(nc.matmul(q, transpose(k)), 1.0 / np.sqrt(d_k)))
    return nc.matmul(nc.matmul(weights, v), params.wo)


def mlp_mix(tokens: Value, params, activation: str = "gelu") -> Value:
    """Token-axis MLP on one n x cols matrix; weight shapes are rigid in the
    token count n."""
    n = tokens.data.shape[0]
    if params.w1.data.shape[1] != n:
        raise ConfigError(
            f"token-mixing weights were built for {params.w1.data.shape[1]} tokens, "
            f"got a sequence of {n}")
    act = {"gelu": gelu, "relu": nc.relu}[activation]
    hidden = act(nc.add(nc.matmul(params.w1, tokens), params.b1))
    return nc.add(nc.matmul(params.w2, hidden), params.b2)


def mlp_mix_blocks(tokens: Value, n: int, params, activation: str = "gelu") -> Value:
    """The token-axis MLP of every block of n rows at once: the blocks side by
    side, one pair of matmuls, and back. The chain oracle of the MLP mix
    inside the block op."""
    side_by_side = blocks_to_cols(tokens, n)
    return cols_to_blocks(mlp_mix(side_by_side, params, activation), tokens.data.shape[1])


def attention_mix_batched(tokens: Value, pad_lens, params) -> Value:
    """Single-head attention within each of R equally padded blocks.

    ``tokens`` stacks R blocks of ``n`` rows into an (R*n) x d matrix; block
    r's first ``pad_lens[r]`` rows are padding and are masked out as keys, so
    each real row matches its block's real rows run alone. The projections
    are tape matmuls over all rows; the per-block scores, key mask, softmax
    and weighted sum are one op (:func:`attend`). The chain oracle of the
    attention mix inside the block op.
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
    return nc.matmul(attend(q, k, v, pads), params.wo)


def attend(q: Value, k: Value, v: Value, pads: np.ndarray) -> Value:
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


def reference_channel_mix(h, params, activation="gelu", residual=True):
    """The channel mixer composed from tape primitives: the oracle for the
    channel mixer inside ``mixers.token_block``."""
    act = {"gelu": gelu, "relu": nc.relu}[activation]
    z = layer_norm_rows(h, params.ln_gain, params.ln_bias)
    f = act(nc.add(nc.matmul(z, params.w1), params.b1))
    f = nc.add(nc.matmul(f, params.w2), params.b2)
    return nc.add(h, f) if residual else f
