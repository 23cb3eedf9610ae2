"""Tests for the token mixers and the hierarchical offset schedule."""

import inspect
import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tempomix import mixers as mx
from tempomix import numcore as nc


def const(tape, a):
    return tape.constant(np.asarray(a, dtype=np.float64))


def run_adaptive(h, times, offsets, logits=None, fusion=0.5, grad=False):
    tape = nc.Tape()
    tokens = (tape.leaf if grad else tape.constant)(h)
    k = len(offsets)
    logits = np.zeros((1, k)) if logits is None else logits
    order = (tape.leaf if grad else tape.constant)(logits)
    return mx.adaptive_mix(tokens, times, offsets, order, fusion)


def run_pooling(tokens, window):
    """The shipped pooling path on one sequence: ``token_mix`` with a
    ``PoolingLayer``."""
    times = np.arange(float(tokens.data.shape[0]))
    return mx.token_mix(tokens, times, mx.PoolingLayer(window=window))


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
    fusion_is_value = isinstance(fusion, nc.Value)
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
    out = nc.Value(out3.reshape(r * n, d), tape, want)
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


class TestOffsetSchedule:
    def test_layer_one_contiguous_window(self):
        np.testing.assert_array_equal(mx.OffsetSchedule([2, 4, 8]).offsets(1), [0, 1])

    def test_layer_two_gapped_interval(self):
        np.testing.assert_array_equal(mx.OffsetSchedule([2, 4, 8]).offsets(2), [2, 3, 4])

    def test_layer_three_kernel_size(self):
        offs = mx.OffsetSchedule([2, 4, 8]).offsets(3)
        np.testing.assert_array_equal(offs, [4, 5, 6, 7, 8])
        assert mx.OffsetSchedule([2, 4, 8]).kernel_size(3) == 5

    def test_layer_out_of_range(self):
        with pytest.raises(IndexError):
            mx.OffsetSchedule([2, 4]).offsets(3)

    def test_non_increasing_spans_rejected(self):
        with pytest.raises(nc.ConfigError):
            mx.OffsetSchedule([4, 4])

    def test_max_lookback(self):
        assert mx.OffsetSchedule([2, 4, 8]).max_lookback() == 13


class TestAdaptiveMix:
    def test_empty_offsets_rejected(self):
        with pytest.raises(nc.ContractError):
            run_adaptive([[1.0], [2.0]], [0.0, 1.0], [])

    def test_time_only_worked_example(self):
        # recency weights at row 2: softmax(-(0, 2, 3)) applied to rows 2,1,0
        out = run_adaptive([[1.0], [2.0], [3.0]], [0.0, 1.0, 3.0], [0, 1, 2], fusion=0.0)
        e = np.exp([0.0, -2.0, -3.0])
        theta = e / e.sum()
        np.testing.assert_allclose(theta, [0.84380, 0.11420, 0.04201], atol=1e-4)
        assert out.data[2, 0] == pytest.approx(2.80180, abs=1e-4)
        expected = theta[0] * 3 + theta[1] * 2 + theta[2] * 1
        assert out.data[2, 0] == pytest.approx(expected)

    def test_equal_timestamps_give_windowed_mean(self):
        out = run_adaptive([[3.0], [6.0], [9.0]], [2.0, 2.0, 2.0], [0, 1, 2], fusion=0.0)
        np.testing.assert_allclose(out.data, [[3.0], [4.5], [6.0]])

    def test_single_offset_is_identity(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 3))
        out = run_adaptive(h, np.arange(5.0), [0], logits=np.array([[1.7]]))
        np.testing.assert_allclose(out.data, h)

    def test_row_without_valid_offsets_is_copied(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = run_adaptive(h, [0.0, 1.0, 2.0], [2, 3, 4])
        np.testing.assert_array_equal(out.data[0], h[0])
        np.testing.assert_array_equal(out.data[1], h[1])

    def test_weights_are_convex_combination(self):
        # feeding all-ones tokens returns all ones iff the weights sum to 1
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 5))
            start = int(rng.integers(0, 4))
            offsets = np.arange(start, start + k)
            times = np.sort(rng.uniform(0, 10, size=n))
            logits = rng.normal(size=(1, k))
            fusion = float(rng.uniform(0, 1))
            out = run_adaptive(np.ones((n, 2)), times, offsets, logits, fusion)
            np.testing.assert_allclose(out.data, 1.0, atol=1e-12)

    def test_output_within_window_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            offsets = np.arange(int(rng.integers(1, 4)))
            times = np.sort(rng.uniform(0, 5, size=n))
            h = rng.normal(size=(n, 3))
            out = run_adaptive(h, times, offsets, rng.normal(size=(1, len(offsets))),
                               float(rng.uniform(0, 1)))
            for i in range(n):
                window = [i - p for p in offsets if i - p >= 0]
                rows = h[window] if window else h[[i]]
                assert np.all(out.data[i] >= rows.min(axis=0) - 1e-12)
                assert np.all(out.data[i] <= rows.max(axis=0) + 1e-12)

    def test_causality_dependency_set(self):
        rng = np.random.default_rng(3)
        n, offsets = 12, np.array([2, 3, 4])
        times = np.sort(rng.uniform(0, 6, size=n))
        h = rng.normal(size=(n, 2))
        logits = rng.normal(size=(1, 3))
        base = run_adaptive(h, times, offsets, logits, 0.4).data
        for j in range(n):
            bumped = h.copy()
            bumped[j] += 0.37
            out = run_adaptive(bumped, times, offsets, logits, 0.4).data
            changed = set(np.nonzero(np.abs(out - base).max(axis=1) > 1e-12)[0])
            covered = lambda i: any(i - p >= 0 for p in offsets)
            expected = {i for i in range(n)
                        if (covered(i) and (i - j) in offsets) or (not covered(i) and i == j)}
            assert changed == expected

    def test_shift_invariance_of_recency_weights(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(6, 2))
        times = np.sort(rng.integers(0, 40, size=6)).astype(float)
        a = run_adaptive(h, times, [0, 1, 2], fusion=0.0)
        b = run_adaptive(h, times + 1000.0, [0, 1, 2], fusion=0.0)
        assert a.data.tobytes() == b.data.tobytes()

    def test_times_length_mismatch(self):
        with pytest.raises(nc.ShapeError):
            run_adaptive(np.ones((3, 1)), [0.0, 1.0], [0, 1])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 3, size=7))
        offsets = np.array([1, 2, 3])

        def f(p):
            fusion = nc.sigmoid(p["fuse_raw"])
            mixed = mx.adaptive_mix(p["h"], times, offsets, p["order"], fusion)
            return nc.sum_all(nc.gelu(mixed))

        params = {
            "h": rng.normal(size=(7, 3)),
            "order": rng.normal(size=(1, 3)),
            "fuse_raw": rng.normal(size=(1, 1)),
        }
        report = nc.grad_check(f, params, h=1e-5)
        assert report.max_rel_error <= 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_single_block_matches_the_per_sequence_reference(self, seed):
        rng = np.random.default_rng(40 + seed)
        n, d = int(rng.integers(1, 9)), 3
        start, k = int(rng.integers(0, 4)), int(rng.integers(1, 5))
        offsets = np.arange(start, start + k)
        times = np.sort(rng.integers(0, 6, size=n)).astype(float)
        arrays = {"h": rng.normal(size=(n, d)), "order": rng.normal(size=(1, k)),
                  "fuse_raw": rng.normal(size=(1, 1)), "w": rng.normal(size=(d, 2))}

        def run(mix):
            tape = nc.Tape()
            v = {name: tape.leaf(a) for name, a in arrays.items()}
            out = mix(v["h"], times, offsets, v["order"], nc.sigmoid(v["fuse_raw"]))
            flops = tape.flops
            nc.backward(tape, nc.sum_all(nc.gelu(nc.matmul(out, v["w"]))))
            return out.data, flops, {name: val.grad for name, val in v.items()}

        out, flops, grads = run(mx.adaptive_mix)
        want_out, want_flops, want_grads = run(reference_adaptive_mix)
        assert flops == want_flops
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        for name in arrays:
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=0, atol=1e-12)

    def test_batched_blocks_match_per_sequence(self):
        rng = np.random.default_rng(20)
        n, d, k = 6, 3, 2
        offsets = np.array([1, 2])
        pads = np.array([0, 2, 5])
        times = np.vstack([np.sort(rng.uniform(0, 9, size=n)) for _ in range(3)])
        for b, pad in enumerate(pads):
            times[b, :pad] = times[b, pad]
        h3 = rng.normal(size=(3, n, d))
        h3[np.arange(n)[None, :] < pads[:, None]] = 0.0
        logits = rng.normal(size=(1, k))
        fusion = 0.3

        tape = nc.Tape()
        out = mx.adaptive_mix_batched(tape.constant(h3.reshape(3 * n, d)), times, pads,
                                      offsets, tape.constant(logits), fusion)
        for b, pad in enumerate(pads):
            single = reference_adaptive_mix(tape.constant(h3[b, pad:]), times[b, pad:], offsets,
                                            tape.constant(logits), fusion)
            np.testing.assert_allclose(out.data.reshape(3, n, d)[b, pad:], single.data,
                                       atol=1e-14)
            # padded rows pass through untouched (they are zero here)
            np.testing.assert_array_equal(out.data.reshape(3, n, d)[b, :pad], 0.0)

    def test_batched_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        n = 5
        pads = np.array([0, 3])
        times = np.vstack([np.sort(rng.uniform(0, 4, size=n)) for _ in range(2)])
        for b, pad in enumerate(pads):
            times[b, :pad] = times[b, pad]
        offsets = np.array([0, 1, 2])

        def f(p):
            fusion = nc.sigmoid(p["fuse_raw"])
            mixed = mx.adaptive_mix_batched(p["h"], times, pads, offsets, p["order"], fusion)
            return nc.sum_all(nc.gelu(mixed))

        params = {
            "h": rng.normal(size=(2 * n, 3)),
            "order": rng.normal(size=(1, 3)),
            "fuse_raw": rng.normal(size=(1, 1)),
        }
        report = nc.grad_check(f, params, h=1e-5)
        assert report.max_rel_error <= 1e-4

    def test_offset_sums_match_a_trailing_axis_sum_bit_for_bit(self):
        # the weights put offsets first; their sums must keep numpy's pairwise
        # order over a trailing axis, which changes at 8 and 128 terms
        rng = np.random.default_rng(22)
        for k in [*range(1, 140), 255, 256, 300]:
            e = rng.normal(size=(5, 3, k)) * 10.0 ** rng.uniform(-6, 6, size=(5, 3, k))
            leading = np.ascontiguousarray(np.moveaxis(e, -1, 0))
            np.testing.assert_array_equal(mx._sum_offsets(leading), e.sum(axis=-1),
                                          err_msg=f"{k} offsets")

    def test_work_scales_linearly_in_token_count(self):
        offsets = np.array([4, 5, 6, 7, 8])
        flops = {}
        for n in (256, 512):
            tape = nc.Tape()
            tokens = tape.constant(np.ones((n, 4)))
            order = tape.constant(np.zeros((1, 5)))
            mx.adaptive_mix(tokens, np.arange(float(n)), offsets, order, 0.5)
            flops[n] = tape.flops
        assert 1.9 <= flops[512] / flops[256] <= 2.1


class TestPoolingMix:
    def test_truncated_window_means(self):
        tape = nc.Tape()
        out = run_pooling(const(tape, [[1.0], [3.0], [5.0]]), 2)
        np.testing.assert_allclose(out.data, [[1.0], [2.0], [4.0]])

    def test_window_one_is_identity(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(4, 3))
        tape = nc.Tape()
        np.testing.assert_allclose(run_pooling(const(tape, h), 1).data, h)

    def test_window_covering_everything_is_running_mean(self):
        tape = nc.Tape()
        h = np.array([[2.0], [4.0], [9.0]])
        out = run_pooling(const(tape, h), 10)
        np.testing.assert_allclose(out.data, [[2.0], [3.0], [5.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        report = nc.grad_check(
            lambda p: nc.sum_all(nc.gelu(run_pooling(p["h"], 3))),
            {"h": rng.normal(size=(6, 2))}, h=1e-5)
        assert report.max_rel_error <= 1e-4

    def test_matches_the_prefix_sum_oracle(self):
        rng = np.random.default_rng(39)
        h = rng.normal(size=(7, 3))
        for window in (1, 2, 5, 7, 9):
            out = run_pooling(nc.Tape().constant(h), window).data
            np.testing.assert_allclose(out, reference_pooling_mix(h, window), atol=1e-14)

    def test_window_below_one_rejected(self):
        with pytest.raises(nc.ContractError):
            mx.PoolingLayer(window=0)

    def test_flat_adaptive_weights_at_fusion_one_give_the_truncated_mean(self):
        rng = np.random.default_rng(37)
        n, d, window = 6, 3, 3
        pads = np.array([0, 2, 5])
        times = np.sort(rng.uniform(0, 9, size=(3, n)), axis=1)
        h = rng.normal(size=(3 * n, d))
        tape = nc.Tape()
        flat = tape.constant(np.zeros((1, window)))
        out = mx.adaptive_mix_batched(tape.constant(h), times, pads, np.arange(window),
                                      flat, 1.0).data.reshape(3, n, d)
        for b, pad in enumerate(pads):
            rows = h.reshape(3, n, d)[b, pad:]
            np.testing.assert_allclose(out[b, pad:], reference_pooling_mix(rows, window),
                                       atol=1e-14)


class TestMlpMix:
    def bound(self, tape, n, d, gamma=0.5, zero=False):
        k = math.ceil(gamma * n)
        rng = np.random.default_rng(8)
        draw = (lambda s: np.zeros(s)) if zero else (lambda s: rng.normal(size=s))
        return mx.MlpLayer(w1=tape.constant(draw((k, n))), b1=tape.constant(draw((k, 1))),
                           w2=tape.constant(draw((n, k))), b2=tape.constant(draw((n, 1))))

    def test_zero_weights_give_zero_output(self):
        tape = nc.Tape()
        params = self.bound(tape, 4, 3, zero=True)
        out = mx.mlp_mix(const(tape, np.ones((4, 3))), params)
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_hidden_token_dim_even(self):
        tape = nc.Tape()
        assert self.bound(tape, 4, 3).w1.data.shape == (2, 4)

    def test_hidden_token_dim_ceil(self):
        tape = nc.Tape()
        assert self.bound(tape, 3, 3).w1.data.shape == (2, 3)

    def test_token_count_mismatch_is_config_error(self):
        tape = nc.Tape()
        params = self.bound(tape, 4, 3)
        with pytest.raises(nc.ConfigError):
            mx.mlp_mix(const(tape, np.ones((5, 3))), params)


class TestAttentionMix:
    def identity_params(self, tape, d):
        eye = np.eye(d)
        return mx.AttentionLayer(*(tape.constant(eye) for _ in range(4)))

    def test_single_token_identity_projections(self):
        tape = nc.Tape()
        h = np.array([[0.3, -1.2]])
        out = mx.attention_mix(const(tape, h), self.identity_params(tape, 2))
        np.testing.assert_allclose(out.data, h)

    def test_identical_tokens_identical_rows(self):
        tape = nc.Tape()
        h = np.array([[1.0, 2.0], [1.0, 2.0]])
        rng = np.random.default_rng(9)
        params = mx.AttentionLayer(*(tape.constant(rng.normal(size=(2, 2)))
                                     for _ in range(4)))
        out = mx.attention_mix(const(tape, h), params)
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_row_weights_sum_to_one(self):
        # softmax normalization oracle computed directly from the data
        rng = np.random.default_rng(10)
        h = rng.normal(size=(3, 4))
        wq, wk = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        scores = (h @ wq) @ (h @ wk).T / 2.0
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_permutation_equivariance_vs_order_sensitivity(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(5, 3))
        perm = rng.permutation(5)
        tape = nc.Tape()
        params = mx.AttentionLayer(*(tape.constant(rng.normal(size=(3, 3)))
                                     for _ in range(4)))
        a = mx.attention_mix(const(tape, h), params).data
        b = mx.attention_mix(const(tape, h[perm]), params).data
        np.testing.assert_allclose(b, a[perm], atol=1e-12)

        times = np.arange(5.0)
        base = run_adaptive(h, times, [0, 1], fusion=0.0).data
        swapped = run_adaptive(h[perm], times, [0, 1], fusion=0.0).data
        assert not np.allclose(swapped, base[perm])
        tape2 = nc.Tape()
        pool_a = run_pooling(const(tape2, h), 2).data
        pool_b = run_pooling(const(tape2, h[perm]), 2).data
        assert not np.allclose(pool_b, pool_a[perm])


def reference_attention(tokens, params):
    """Single-head attention composed from tape primitives: the oracle for the
    fused kernel behind ``mixers.attention_mix``."""
    q = nc.matmul(tokens, params.wq)
    k = nc.matmul(tokens, params.wk)
    v = nc.matmul(tokens, params.wv)
    d_k = params.wq.data.shape[1]
    weights = nc.softmax_rows(nc.scale(nc.matmul(q, nc.transpose(k)), 1.0 / np.sqrt(d_k)))
    return nc.matmul(nc.matmul(weights, v), params.wo)


def attention_inputs(rng, r, n, d):
    tape = nc.Tape()
    params = mx.AttentionLayer(*(tape.constant(rng.normal(size=(d, d))) for _ in range(4)))
    return tape, tape.constant(rng.normal(size=(r * n, d))), params


class TestBatchedAttention:
    # block 2's only real row is its last one
    PADS = np.array([0, 2, 4, 1])

    def test_pads_zero_match_the_tape_composed_reference(self):
        rng = np.random.default_rng(30)
        tape, tokens, params = attention_inputs(rng, 3, 7, 4)
        want = reference_attention(tokens, params).data
        np.testing.assert_allclose(mx.attention_mix(tokens, params).data, want, atol=1e-12)
        blocks = mx.attention_mix_batched(tokens, [0, 0, 0], params).data.reshape(3, 7, 4)
        for b in range(3):
            rows = tape.constant(tokens.data[7 * b:7 * b + 7])
            np.testing.assert_allclose(blocks[b], reference_attention(rows, params).data,
                                       atol=1e-12)

    def test_real_rows_match_the_reference_on_each_block(self):
        rng = np.random.default_rng(31)
        n, d = 5, 3
        tape, tokens, params = attention_inputs(rng, len(self.PADS), n, d)
        out = mx.attention_mix_batched(tokens, self.PADS, params).data.reshape(-1, n, d)
        for b, pad in enumerate(self.PADS):
            real = tape.constant(tokens.data[b * n + pad:(b + 1) * n])
            np.testing.assert_allclose(out[b, pad:], reference_attention(real, params).data,
                                       atol=1e-12)

    def test_flops_equal_the_reference_tally(self):
        def flops(attend):
            tape, tokens, params = attention_inputs(np.random.default_rng(32), 1, 9, 4)
            attend(tokens, params)
            return tape.flops

        assert flops(mx.attention_mix) == flops(reference_attention)

    def test_gradients_match_finite_differences_with_mixed_pads(self):
        rng = np.random.default_rng(33)
        n, d = 5, 3

        def f(p):
            params = mx.AttentionLayer(p["wq"], p["wk"], p["wv"], p["wo"])
            return nc.sum_all(nc.gelu(mx.attention_mix_batched(p["h"], self.PADS, params)))

        params = {name: rng.normal(size=(d, d)) for name in ("wq", "wk", "wv", "wo")}
        params["h"] = rng.normal(size=(len(self.PADS) * n, d))
        report = nc.grad_check(f, params, h=1e-5)
        assert report.max_rel_error <= 1e-4

    @pytest.mark.parametrize("pads,error", [([0, 0, 0], nc.ShapeError),
                                            ([0, 4], nc.ContractError),
                                            ([-1, 0], nc.ContractError)])
    def test_bad_blocks_rejected(self, pads, error):
        tape, tokens, params = attention_inputs(np.random.default_rng(34), 2, 4, 3)
        with pytest.raises(error):
            mx.attention_mix_batched(tokens, pads, params)


class TestBlockRegroup:
    def test_blocks_sit_side_by_side_and_come_back(self):
        tape = nc.Tape()
        x = np.arange(12.0).reshape(6, 2)  # 3 blocks of 2 rows
        cols = nc.blocks_to_cols(tape.constant(x), 2)
        np.testing.assert_array_equal(cols.data, [[0, 1, 4, 5, 8, 9], [2, 3, 6, 7, 10, 11]])
        np.testing.assert_array_equal(nc.cols_to_blocks(cols, 2).data, x)

    def test_pair_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        mix = rng.normal(size=(3, 3))

        def f(p):
            # a token-axis matmul between the two regroupings mixes rows
            # within each block, so a wrong permutation cannot cancel out
            side = nc.matmul(p["m"], nc.blocks_to_cols(p["x"], 3))
            back = nc.cols_to_blocks(nc.gelu(side), 2)
            return nc.sum_all(nc.matmul(nc.gelu(back), p["w"]))

        params = {"x": rng.normal(size=(12, 2)), "m": mix, "w": rng.normal(size=(2, 3))}
        report = nc.grad_check(f, params, h=1e-5)
        assert report.max_rel_error <= 1e-4

    @pytest.mark.parametrize("op,arg", [(nc.blocks_to_cols, 4), (nc.cols_to_blocks, 4),
                                        (nc.blocks_to_cols, 0)])
    def test_uneven_split_rejected(self, op, arg):
        tape = nc.Tape()
        with pytest.raises(nc.ShapeError):
            op(tape.constant(np.ones((6, 6))), arg)

    def test_side_by_side_mlp_equals_the_per_block_mlp(self):
        rng = np.random.default_rng(36)
        r, n, d = 3, 4, 2
        tape = nc.Tape()
        params = mx.MlpLayer(*(tape.constant(rng.normal(size=s))
                               for s in ((2, n), (2, 1), (n, 2), (n, 1))))
        h = rng.normal(size=(r * n, d))
        side = nc.blocks_to_cols(tape.constant(h), n)
        out = nc.cols_to_blocks(mx.mlp_mix(side, params), d).data
        for b in range(r):
            block = mx.mlp_mix(tape.constant(h[b * n:(b + 1) * n]), params).data
            np.testing.assert_allclose(out[b * n:(b + 1) * n], block, atol=1e-12)


def zero_channel(tape, d, hidden=None):
    hidden = hidden or 4 * d
    return mx.ChannelParams(
        ln_gain=tape.constant(np.ones((1, d))), ln_bias=tape.constant(np.zeros((1, d))),
        w1=tape.constant(np.zeros((d, hidden))), b1=tape.constant(np.zeros((1, hidden))),
        w2=tape.constant(np.zeros((hidden, d))), b2=tape.constant(np.zeros((1, d))))


class TestChannelMix:
    def test_zero_ffn_is_identity(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(3, 4))
        tape = nc.Tape()
        out = mx.channel_mix(const(tape, h), zero_channel(tape, 4))
        np.testing.assert_array_equal(out.data, h)

    def test_hand_evaluated_fixture(self):
        x = np.array([[0.5, -1.0]])
        gain, bias = np.array([[2.0, 0.5]]), np.array([[0.1, -0.2]])
        w1 = np.array([[0.3, -0.2, 0.5], [0.8, 0.1, -0.4]])
        b1 = np.array([[0.05, -0.1, 0.2]])
        w2 = np.array([[1.0, 0.0], [0.5, -0.5], [-0.3, 0.7]])
        b2 = np.array([[0.01, 0.02]])
        # independent scalar evaluation
        mu, var = x.mean(), x.var()
        xn = (x - mu) / np.sqrt(var + 1e-12)
        z = xn * gain + bias
        pre = z @ w1 + b1
        act = np.array([[0.5 * v * (1 + math.erf(v / math.sqrt(2))) for v in pre[0]]])
        expected = x + act @ w2 + b2

        tape = nc.Tape()
        params = mx.ChannelParams(*(tape.constant(a) for a in (gain, bias, w1, b1, w2, b2)))
        out = mx.channel_mix(const(tape, x), params)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_without_residual_zero_ffn_gives_zero(self):
        tape = nc.Tape()
        out = mx.channel_mix(const(tape, np.ones((2, 3))), zero_channel(tape, 3),
                             residual=False)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


def reference_channel_mix(h, params, activation="gelu", residual=True):
    """The channel mixer composed from tape primitives: the oracle for the
    fused op behind ``mixers.channel_mix``."""
    act = {"gelu": nc.gelu, "relu": nc.relu}[activation]
    z = nc.layer_norm_rows(h, params.ln_gain, params.ln_bias)
    f = act(nc.add(nc.matmul(z, params.w1), params.b1))
    f = nc.add(nc.matmul(f, params.w2), params.b2)
    return nc.add(h, f) if residual else f


CHANNEL_NAMES = ("ln_gain", "ln_bias", "w1", "b1", "w2", "b2")


def channel_arrays(rng, m=6, d=4, hidden=7):
    h = rng.normal(size=(m, d))
    h[0] = 0.0  # all-zero row
    h[1] = 1.5  # exactly constant row: its variance is 0, inv_std is 1/sqrt(LN_EPS)
    shapes = ((1, d), (1, d), (d, hidden), (1, hidden), (hidden, d), (1, d))
    arrays = {name: rng.normal(size=shape) for name, shape in zip(CHANNEL_NAMES, shapes)}
    arrays["ln_gain"] += 1.0
    arrays["h"] = h
    return arrays


def run_channel(mix, arrays, activation, residual, leaves):
    """Output, tape flops and leaf gradients of one channel mix under a loss
    that also reads ``h`` directly, so ``h`` gathers gradient from two ops."""
    tape = nc.Tape()
    v = {name: (tape.leaf if name in leaves else tape.constant)(a) for name, a in arrays.items()}
    out = mix(v["h"], mx.ChannelParams(*(v[name] for name in CHANNEL_NAMES)),
              activation, residual)
    flops = tape.flops
    mixer_steps = len(tape._steps)
    side = tape.constant(np.linspace(-1.0, 1.0, arrays["h"].shape[1])[:, None])
    loss = nc.add(nc.sum_all(nc.gelu(out)), nc.sum_all(nc.matmul(v["h"], side)))
    nc.backward(tape, loss)
    return out.data, flops, mixer_steps, {name: v[name].grad for name in leaves}


class TestFusedChannelMix:
    ALL = ("h",) + CHANNEL_NAMES

    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("leaves", [ALL, ("h",), ("w2", "b2"), ("ln_gain", "w1"), ()])
    def test_bit_identical_to_the_tape_chain(self, activation, residual, leaves):
        arrays = channel_arrays(np.random.default_rng(50))
        out, flops, _, grads = run_channel(mx.channel_mix, arrays, activation, residual,
                                           leaves)
        want_out, want_flops, _, want_grads = run_channel(reference_channel_mix, arrays,
                                                          activation, residual, leaves)
        assert flops == want_flops
        np.testing.assert_array_equal(out, want_out)
        for name in leaves:
            np.testing.assert_array_equal(grads[name], want_grads[name], err_msg=name)

    @pytest.mark.parametrize("leaves,steps", [(ALL, 1), ((), 0)])
    def test_one_tape_step_and_none_without_gradients(self, leaves, steps):
        arrays = channel_arrays(np.random.default_rng(51))
        assert run_channel(mx.channel_mix, arrays, "gelu", True, leaves)[2] == steps

    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_gradients_match_finite_differences(self, activation, residual):
        arrays = channel_arrays(np.random.default_rng(52), m=4, d=3, hidden=5)
        arrays["h"] = np.random.default_rng(53).normal(size=(4, 3))

        def f(p):
            params = mx.ChannelParams(*(p[name] for name in CHANNEL_NAMES))
            return nc.sum_all(nc.gelu(mx.channel_mix(p["h"], params, activation, residual)))

        report = nc.grad_check(f, arrays, h=1e-5)
        assert report.max_rel_error <= 1e-4

    def test_mismatched_parameters_rejected(self):
        tape = nc.Tape()
        params = zero_channel(tape, 3)
        with pytest.raises(nc.ShapeError):
            mx.channel_mix(const(tape, np.ones((2, 4))), params)
        with pytest.raises(nc.ConfigError):
            mx.channel_mix(const(tape, np.ones((2, 3))), params, activation="tanh")


@pytest.fixture(scope="module")
def row_worker():
    """One row worker for the module, made without touching the BLAS threads."""
    worker = ThreadPoolExecutor(max_workers=1)
    yield worker
    worker.shutdown()


class TestRowPasses:
    """The channel mixer's row passes give the same bits with the worker off
    and on, and the worker is one thread for the life of the process."""

    CHUNK = nc._ROW_CHUNK

    @pytest.mark.parametrize("m", [CHUNK // 2, CHUNK, 3 * CHUNK + 17])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("leaves", [TestFusedChannelMix.ALL, ("h",), ("w2", "b2"),
                                        ("ln_gain", "w1"), ()])
    def test_worker_off_and_on_agree_bit_for_bit(self, monkeypatch, row_worker, m,
                                                 activation, residual, leaves):
        arrays = channel_arrays(np.random.default_rng(54), m=m)
        runs = []
        for worker in (None, row_worker):
            monkeypatch.setattr(nc, "_row_worker", worker)
            runs.append(run_channel(mx.channel_mix, arrays, activation, residual, leaves))
        (out, flops, steps, grads), (out_on, flops_on, steps_on, grads_on) = runs
        assert (flops, steps) == (flops_on, steps_on)
        np.testing.assert_array_equal(out_on, out)
        for name in leaves:
            np.testing.assert_array_equal(grads_on[name], grads[name], err_msg=name)

    @pytest.mark.parametrize("m", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17, 8 * CHUNK - 1])
    def test_chunks_cover_each_row_once_and_are_never_short(self, monkeypatch, row_worker,
                                                            m):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        for block in (None, 1, 7, 20, self.CHUNK // 2 + 1, self.CHUNK + 3):
            rows_m = m if block is None else m // block * block
            seen = np.zeros(rows_m, dtype=np.int64)
            spans = []

            def rows(lo, hi):
                seen[lo:hi] += 1
                spans.append((lo, hi))

            if block is not None:
                rows.block = block
            nc._row_passes(rows_m, rows)
            assert np.all(seen == 1)
            sizes = [hi - lo for lo, hi in spans]
            step = block or 1
            if step == 1:  # the chunk count of a pass without blocks
                assert len(spans) == max(1, -(-rows_m // self.CHUNK))
            if len(spans) > 1:  # a GEMM over very few rows sums in another order
                assert self.CHUNK // 2 <= min(sizes) and max(sizes) < self.CHUNK + step
                assert all(lo % step == 0 and hi % step == 0 for lo, hi in spans)
                assert len(spans) <= -(-rows_m // self.CHUNK)
            else:
                assert spans == [(0, rows_m)]

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, row_worker):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        caller = threading.get_ident()
        worker_started = threading.Event()

        def rows(lo, hi):
            if threading.get_ident() == caller:  # hold a chunk until the worker has one
                assert worker_started.wait(timeout=60)
                return
            worker_started.set()
            raise ArithmeticError(f"rows {lo}:{hi}")

        with pytest.raises(ArithmeticError, match="rows"):
            nc._row_passes(3 * self.CHUNK, rows)
        seen = np.zeros(3 * self.CHUNK, dtype=np.int64)  # the worker serves the next call

        def count(lo, hi):
            seen[lo:hi] += 1

        nc._row_passes(3 * self.CHUNK, count)
        assert np.all(seen == 1)

    def test_concurrent_callers_each_get_every_row_once(self, monkeypatch, row_worker):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        failures = []

        def caller():
            for _ in range(20):
                seen = np.zeros(4 * self.CHUNK + 3, dtype=np.int64)

                def rows(lo, hi):
                    time.sleep(1e-4)  # a row function that releases the GIL
                    seen[lo:hi] += 1

                nc._row_passes(seen.size, rows)
                if not np.all(seen == 1):
                    failures.append(seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures

    def test_the_worker_keeps_no_array_after_a_call(self, monkeypatch, row_worker):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        out = np.zeros(4 * self.CHUNK)

        def rows(lo, hi, out=out):  # a default: "del out" would empty a closure cell
            out[lo:hi] = 1.0

        nc._row_passes(out.size, rows)
        alive = weakref.ref(out)
        del out, rows
        assert alive() is None

    def test_the_worker_is_made_once_not_per_call(self, monkeypatch):
        monkeypatch.setattr(nc, "_row_worker", None)
        monkeypatch.setattr(nc, "_blas_to_one_thread", lambda: True)
        monkeypatch.setattr(nc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        arrays = channel_arrays(np.random.default_rng(55), m=2 * self.CHUNK + 1)

        def call():
            run_channel(mx.channel_mix, arrays, "gelu", True, TestFusedChannelMix.ALL)

        nc._start_row_worker()
        worker = nc._row_worker
        try:
            nc._start_row_worker()
            assert isinstance(worker, ThreadPoolExecutor) and nc._row_worker is worker
            call()
            threads = threading.active_count()
            for _ in range(50):
                call()
            assert threading.active_count() == threads
            runners = []  # the Thread objects themselves: kept alive, never reused

            def rows(lo, hi):
                time.sleep(1e-3)  # long enough that the worker takes chunks too
                runners.append(threading.current_thread())

            for _ in range(50):
                nc._row_passes(3 * self.CHUNK, rows)
            assert len(set(runners) - {threading.current_thread()}) == 1
        finally:
            worker.shutdown()

    @pytest.mark.parametrize("cores,blas", [({0}, True), ({0, 1}, False)])
    def test_one_core_or_no_blas_setter_runs_inline(self, monkeypatch, cores, blas):
        monkeypatch.setattr(nc, "_row_worker", None)
        monkeypatch.setattr(nc, "_blas_to_one_thread", lambda: blas)
        monkeypatch.setattr(nc.os, "sched_getaffinity", lambda pid: cores, raising=False)
        threads = threading.active_count()
        nc._start_row_worker()
        spans = []
        nc._row_passes(3 * self.CHUNK, lambda lo, hi: spans.append((lo, hi)))
        assert nc._row_worker is None
        assert spans == [(0, 3 * self.CHUNK)]
        assert threading.active_count() == threads


def block_arrays(rng, r, n, k, d=4, hidden=9):
    """Tokens, times and pad lengths of R padded blocks, plus mixer and channel
    parameters. Some blocks have no history (pad n - 1), some no padding;
    padding rows are zero in even blocks (as in training), random in odd."""
    arrays = channel_arrays(rng, m=r * n, d=d, hidden=hidden)
    pads = rng.integers(0, n, size=r)
    pads[:3] = [n - 1, 0, n - 1][:r]
    times = np.sort(rng.uniform(0, 9, size=(r, n)), axis=1)
    h3 = arrays["h"].reshape(r, n, d)
    for b, pad in enumerate(pads):
        times[b, :pad] = times[b, pad]
        if b % 2 == 0:
            h3[b, :pad] = 0.0
    arrays["order"] = rng.normal(size=(1, k))
    arrays["fuse_raw"] = rng.normal(size=(1, 1))
    return arrays, times, pads


def fused_block(tokens, times, pads, kind, offsets, order, fusion, params, activation,
                residual):
    if kind == "pooling":
        mixer = mx.PoolingLayer(window=len(offsets))
    else:
        mixer = mx.AdaptiveLayer(offsets=offsets, order_logits=order, fusion=fusion)
    return mx.token_block(tokens, times, mixer, params, activation, residual, pad_lens=pads)


def composed_block(tokens, times, pads, kind, offsets, order, fusion, params, activation,
                   residual):
    """The chain the fused block stands for: batched adaptive kernel, residual
    add, fused channel mixer."""
    if kind == "pooling":
        order, fusion = tokens.tape.constant(np.zeros((1, len(offsets)))), 1.0
    mixed = mx.adaptive_mix_batched(tokens, times, pads, offsets, order, fusion)
    h = nc.add(tokens, mixed) if residual else mixed
    return mx.channel_mix(h, params, activation, residual)


def reference_block(tokens, times, pads, kind, offsets, order, fusion, params, activation,
                    residual):
    """The block from the per-sequence oracles of both kernels."""
    if kind == "pooling":
        order, fusion = tokens.tape.constant(np.zeros((1, len(offsets)))), 1.0
    mixed = reference_adaptive_mix(tokens, times, offsets, order, fusion, pads)
    h = nc.add(tokens, mixed) if residual else mixed
    return reference_channel_mix(h, params, activation, residual)


# (mixer kind, offsets, fixed fusion or None for a learned one)
BLOCK_MIXERS = {
    "learned": ("adaptive", np.arange(9), None),
    "no_lp": ("adaptive", np.array([2, 3, 4]), 0.0),
    "no_rt": ("adaptive", np.arange(1, 6), 1.0),
    "pooling": ("pooling", np.arange(3), None),
}
BLOCK_ALL = ("h", "order", "fuse_raw") + CHANNEL_NAMES


def run_block(block, arrays, times, pads, mixer, activation, residual, leaves):
    """Output, tape flops and steps, and leaf gradients of one token block under
    a loss that also reads the tokens directly, so they gather gradient from
    two ops."""
    kind, offsets, fixed = BLOCK_MIXERS[mixer]
    tape = nc.Tape()
    v = {name: (tape.leaf if name in leaves else tape.constant)(a) for name, a in arrays.items()}
    fusion = nc.sigmoid(v["fuse_raw"]) if fixed is None else fixed
    params = mx.ChannelParams(*(v[name] for name in CHANNEL_NAMES))
    flops, steps = tape.flops, len(tape._steps)
    out = block(v["h"], times, pads, kind, offsets, v["order"], fusion, params, activation,
                residual)
    flops, steps = tape.flops - flops, len(tape._steps) - steps
    side = tape.constant(np.linspace(-1.0, 1.0, arrays["h"].shape[1])[:, None])
    loss = nc.add(nc.sum_all(nc.gelu(out)), nc.sum_all(nc.matmul(v["h"], side)))
    nc.backward(tape, loss)
    return out.data, flops, steps, {name: v[name].grad for name in leaves}


class TestFusedTokenBlock:
    """An adaptive or pooling layer with the channel mixer is one fused op, bit
    for bit the chain of kernels and the per-sequence oracles, worker off and
    on, whatever rows its chunks get."""

    CHUNK = nc._ROW_CHUNK

    def assert_matches_both_oracles(self, arrays, times, pads, mixer, activation, residual,
                                    leaves):
        out, flops, steps, grads = run_block(fused_block, arrays, times, pads, mixer,
                                             activation, residual, leaves)
        for oracle in (composed_block, reference_block):
            want_out, want_flops, want_steps, want_grads = run_block(
                oracle, arrays, times, pads, mixer, activation, residual, leaves)
            assert steps == min(1, want_steps), oracle.__name__  # one step, not a chain
            assert flops == want_flops, oracle.__name__
            np.testing.assert_array_equal(out, want_out, err_msg=oracle.__name__)
            for name in leaves:
                np.testing.assert_array_equal(grads[name], want_grads[name],
                                              err_msg=f"{oracle.__name__}: {name}")

    @pytest.mark.parametrize("leaves", [BLOCK_ALL, ("h",), ("order", "fuse_raw"),
                                        ("w2", "b2"), ("ln_gain", "w1"), ()])
    @pytest.mark.parametrize("mixer", list(BLOCK_MIXERS))
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_bit_identical_to_the_chain_and_the_oracles(self, activation, residual, mixer,
                                                        leaves):
        arrays, times, pads = block_arrays(np.random.default_rng(60), r=9, n=7,
                                           k=len(BLOCK_MIXERS[mixer][1]))
        self.assert_matches_both_oracles(arrays, times, pads, mixer, activation, residual,
                                         leaves)

    @pytest.mark.parametrize("mixer,activation,residual",
                             [("learned", "gelu", True), ("pooling", "relu", False)])
    @pytest.mark.parametrize("chunks", ["below", "one", "several"])
    @pytest.mark.parametrize("n", [7, 20])
    @pytest.mark.parametrize("worker", [False, True])
    def test_every_chunking_matches_the_oracles(self, monkeypatch, row_worker, worker, n,
                                                chunks, mixer, activation, residual):
        monkeypatch.setattr(nc, "_row_worker", row_worker if worker else None)
        r = {"below": self.CHUNK // (2 * n), "one": self.CHUNK // n,
             "several": 3 * self.CHUNK // n + 2}[chunks]
        arrays, times, pads = block_arrays(np.random.default_rng(61), r=r, n=n,
                                           k=len(BLOCK_MIXERS[mixer][1]))
        self.assert_matches_both_oracles(arrays, times, pads, mixer, activation, residual,
                                         BLOCK_ALL)

    def test_chunks_hold_whole_blocks(self, monkeypatch, row_worker):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        n, r = 7, 3 * self.CHUNK // 7 + 2
        spans = []
        row_passes = nc._row_passes

        def recorded(m, fn):
            spans.append((m, getattr(fn, "block", 1)))
            row_passes(m, fn)

        monkeypatch.setattr(nc, "_row_passes", recorded)
        arrays, times, pads = block_arrays(np.random.default_rng(62), r=r, n=n, k=9)
        run_block(fused_block, arrays, times, pads, "learned", "gelu", True, BLOCK_ALL)
        assert spans == [(r * n, n), (r * n, n)]  # one forward pass, one backward pass

    def test_concurrent_blocks_give_the_single_caller_bits(self, monkeypatch, row_worker):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        arrays, times, pads = block_arrays(np.random.default_rng(64),
                                           r=3 * self.CHUNK // 7 + 2, n=7, k=9)
        args = (arrays, times, pads, "learned", "gelu", True, BLOCK_ALL)
        want_out, _, _, want_grads = run_block(fused_block, *args)
        failures = []

        def caller():
            for _ in range(3):
                out, _, _, grads = run_block(fused_block, *args)
                if not (np.array_equal(out, want_out)
                        and all(np.array_equal(grads[k], want_grads[k]) for k in grads)):
                    failures.append(out)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures

    @pytest.mark.parametrize("leaves", [BLOCK_ALL, ()])
    def test_the_worker_calls_no_public_function(self, monkeypatch, row_worker, leaves):
        """Row functions run on the worker thread; the public ops, the tape and
        the tracer that wraps them are single-threaded."""
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        caller = threading.get_ident()
        calls, row_threads = [], set()

        def recorder(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped

        for module in (nc, mx):
            for name, fn in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    monkeypatch.setattr(module, name, recorder(f"{module.__name__}.{name}", fn))
        monkeypatch.setattr(nc.Tape, "record", recorder("Tape.record", nc.Tape.record))
        ffn_rows = mx._ffn_rows

        def slow_rows(*args, **kwargs):
            row_threads.add(threading.get_ident())
            time.sleep(1e-3)  # long enough that the worker takes chunks too
            return ffn_rows(*args, **kwargs)

        monkeypatch.setattr(mx, "_ffn_rows", slow_rows)
        arrays, times, pads = block_arrays(np.random.default_rng(63), r=3 * self.CHUNK // 7 + 2,
                                           n=7, k=9)
        run_block(fused_block, arrays, times, pads, "learned", "gelu", True, leaves)
        assert len(row_threads) == 2
        assert "tempomix.mixers.token_block" in {name for name, _ in calls}
        assert {thread for _, thread in calls} == {caller}


class TestTokenMix:
    def test_unknown_layer_type_rejected(self):
        tape = nc.Tape()
        with pytest.raises(nc.ConfigError):
            mx.token_mix(const(tape, np.ones((3, 2))), np.arange(3.0), zero_channel(tape, 2))


class TestTokenBlock:
    def test_identity_mixer_with_zero_ffn_doubles_input(self):
        rng = np.random.default_rng(13)
        h = rng.normal(size=(4, 3))
        tape = nc.Tape()
        mixer = mx.AdaptiveLayer(offsets=np.array([0]),
                                 order_logits=tape.constant(np.zeros((1, 1))),
                                 fusion=0.5)
        out = mx.token_block(const(tape, h), np.arange(4.0), mixer, zero_channel(tape, 3))
        np.testing.assert_allclose(out.data, 2 * h)

    def test_no_channel_mixer_returns_residual_sum(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(4, 2))
        tape = nc.Tape()
        tokens = const(tape, h)
        mixer = mx.PoolingLayer(window=2)
        out = mx.token_block(tokens, np.arange(4.0), mixer, zero_channel(tape, 2),
                             use_channel_mixer=False)
        np.testing.assert_allclose(out.data, h + reference_pooling_mix(h, 2))

    def test_no_residual_no_channel_mixer_returns_pure_mix(self):
        rng = np.random.default_rng(15)
        h = rng.normal(size=(4, 2))
        tape = nc.Tape()
        out = mx.token_block(const(tape, h), np.arange(4.0), mx.PoolingLayer(window=2),
                             zero_channel(tape, 2), residual=False, use_channel_mixer=False)
        np.testing.assert_allclose(out.data, reference_pooling_mix(h, 2))


class TestReceptiveField:
    def test_stacked_adaptive_blocks_reach_exactly_thirteen_back(self):
        rng = np.random.default_rng(16)
        schedule = mx.OffsetSchedule([2, 4, 8])
        n, d = 32, 3
        times = np.sort(rng.uniform(0, 20, size=n))
        h0 = rng.normal(size=(n, d))

        def forward(h):
            tape = nc.Tape()
            tokens = tape.constant(h)
            for layer in range(1, 4):
                mixer = mx.AdaptiveLayer(
                    offsets=schedule.offsets(layer),
                    order_logits=tape.constant(rng_fixed[layer - 1]),
                    fusion=0.5)
                tokens = mx.token_block(tokens, times, mixer, zero_channel(tape, d))
            return tokens.data

        rng_fixed = [np.random.default_rng(layer).normal(size=(1, schedule.kernel_size(layer)))
                     for layer in range(1, 4)]
        base = forward(h0)
        lookback = schedule.max_lookback()
        assert lookback == 13
        for j in range(n):
            bumped = h0.copy()
            bumped[j] += 0.5
            changed = set(np.nonzero(np.abs(forward(bumped) - base).max(axis=1) > 1e-12)[0])
            expected = set(range(j, min(n, j + lookback + 1)))
            assert changed == expected, f"perturbing {j}: {sorted(changed)}"
