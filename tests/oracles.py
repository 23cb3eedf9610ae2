"""References that the tests compare the program against and the program
never runs: tape ops that only tests compose, the probability-space loss, and
the per-sequence and tape-chain oracles of the fused mixer kernels.

The tape ops follow the conventions of ``tempomix.numcore``: each records its
backward step on the operand's tape and adds its work to ``Tape.flops``.
"""

import numpy as np

from tempomix import numcore as nc
from tempomix.numcore import ContractError, ShapeError, Value

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
    """Single-head attention composed from tape primitives: the oracle for the
    fused kernel behind ``mixers.attention_mix_batched``."""
    q = nc.matmul(tokens, params.wq)
    k = nc.matmul(tokens, params.wk)
    v = nc.matmul(tokens, params.wv)
    d_k = params.wq.data.shape[1]
    weights = softmax_rows(scale(nc.matmul(q, transpose(k)), 1.0 / np.sqrt(d_k)))
    return nc.matmul(nc.matmul(weights, v), params.wo)


def reference_channel_mix(h, params, activation="gelu", residual=True):
    """The channel mixer composed from tape primitives: the oracle for the
    channel mixer inside ``mixers.token_block``."""
    act = {"gelu": nc.gelu, "relu": nc.relu}[activation]
    z = layer_norm_rows(h, params.ln_gain, params.ln_bias)
    f = act(nc.add(nc.matmul(z, params.w1), params.b1))
    f = nc.add(nc.matmul(f, params.w2), params.b2)
    return nc.add(h, f) if residual else f
