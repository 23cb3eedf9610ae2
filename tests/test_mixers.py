"""Tests for the token mixers and the hierarchical offset schedule."""

import functools
import inspect
import math
import re
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tempomix import mixers as mx
from tempomix import numcore as nc
from oracles import (attention_mix_batched, blocks_to_cols, cols_to_blocks, gelu, mlp_mix,
                     mlp_mix_blocks, reference_adaptive_mix, reference_attention,
                     reference_channel_mix, reference_pooling_mix, sum_all)


def const(tape, a):
    return tape.constant(np.asarray(a, dtype=np.float64))


def run_adaptive(h, times, offsets, logits=None, fusion=0.5, grad=False):
    tape = nc.Tape()
    tokens = (tape.leaf if grad else tape.constant)(h)
    k = len(offsets)
    logits = np.zeros((1, k)) if logits is None else logits
    order = (tape.leaf if grad else tape.constant)(logits)
    return mx.adaptive_mix(tokens, times, offsets, order, fusion)


def pooling_layer(tape, window):
    """A pooling layer as ``model.bind`` builds one: an adaptive layer over
    offsets 0..window-1 with constant flat order logits at fusion 1."""
    return mx.AdaptiveLayer(np.arange(window), tape.constant(np.zeros((1, window))), 1.0)


def run_pooling(tokens, window):
    """The shipped pooling path on one sequence: ``token_mix`` with a pooling
    layer."""
    times = np.arange(float(tokens.data.shape[0]))
    return mx.token_mix(tokens, times, pooling_layer(tokens.tape, window))


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
            return sum_all(gelu(mixed))

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
            nc.backward(tape, sum_all(gelu(nc.matmul(out, v["w"]))))
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
        layer = mx.AdaptiveLayer(offsets, tape.constant(logits), fusion)
        out = mx.token_mix(tape.constant(h3.reshape(3 * n, d)), times, layer, pad_lens=pads)
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
            mixed = mx.token_mix(p["h"], times, mx.AdaptiveLayer(offsets, p["order"], fusion),
                                 pad_lens=pads)
            return sum_all(gelu(mixed))

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
            lambda p: sum_all(gelu(run_pooling(p["h"], 3))),
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
            run_pooling(nc.Tape().constant(np.ones((3, 2))), 0)

    def test_flat_adaptive_weights_at_fusion_one_give_the_truncated_mean(self):
        rng = np.random.default_rng(37)
        n, d, window = 6, 3, 3
        pads = np.array([0, 2, 5])
        times = np.sort(rng.uniform(0, 9, size=(3, n)), axis=1)
        h = rng.normal(size=(3 * n, d))
        tape = nc.Tape()
        flat = tape.constant(np.zeros((1, window)))
        layer = mx.AdaptiveLayer(np.arange(window), flat, 1.0)
        out = mx.token_mix(tape.constant(h), times, layer, pad_lens=pads).data.reshape(3, n, d)
        for b, pad in enumerate(pads):
            rows = h.reshape(3, n, d)[b, pad:]
            np.testing.assert_allclose(out[b, pad:], reference_pooling_mix(rows, window),
                                       atol=1e-14)


def program_mlp(tokens, params, activation="gelu"):
    """The shipped token-axis MLP mix on one sequence: ``token_mix`` of an
    ``MlpLayer``."""
    times = np.arange(float(tokens.data.shape[0]))
    return mx.token_mix(tokens, times, params, activation)


def program_attention(tokens, pads, params):
    """The shipped attention mix: ``token_mix`` of an ``AttentionLayer`` on
    len(pads) blocks (times play no part in attention)."""
    n = tokens.data.shape[0] // max(len(pads), 1)
    return mx.token_mix(tokens, np.zeros((len(pads), n)), params, pad_lens=pads)


MLP_MIXES = pytest.mark.parametrize("mlp", [mlp_mix, program_mlp], ids=["chain", "program"])
ATTENTION_MIXES = pytest.mark.parametrize("attend", [attention_mix_batched, program_attention],
                                          ids=["chain", "program"])


class TestMlpMix:
    def bound(self, tape, n, d, gamma=0.5, zero=False):
        k = math.ceil(gamma * n)
        rng = np.random.default_rng(8)
        draw = (lambda s: np.zeros(s)) if zero else (lambda s: rng.normal(size=s))
        return mx.MlpLayer(w1=tape.constant(draw((k, n))), b1=tape.constant(draw((k, 1))),
                           w2=tape.constant(draw((n, k))), b2=tape.constant(draw((n, 1))))

    @MLP_MIXES
    def test_zero_weights_give_zero_output(self, mlp):
        tape = nc.Tape()
        params = self.bound(tape, 4, 3, zero=True)
        out = mlp(const(tape, np.ones((4, 3))), params)
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_hidden_token_dim_even(self):
        tape = nc.Tape()
        assert self.bound(tape, 4, 3).w1.data.shape == (2, 4)

    def test_hidden_token_dim_ceil(self):
        tape = nc.Tape()
        assert self.bound(tape, 3, 3).w1.data.shape == (2, 3)

    @MLP_MIXES
    def test_token_count_mismatch_is_config_error(self, mlp):
        tape = nc.Tape()
        params = self.bound(tape, 4, 3)
        with pytest.raises(nc.ConfigError):
            mlp(const(tape, np.ones((5, 3))), params)

    def test_misshapen_weights_or_rows_rejected(self):
        tape = nc.Tape()
        params = self.bound(tape, 4, 3)
        bad_bias = mx.MlpLayer(params.w1, const(tape, np.zeros((2, 2))), params.w2, params.b2)
        with pytest.raises(nc.ShapeError, match="token-axis MLP"):
            program_mlp(const(tape, np.ones((4, 3))), bad_bias)
        with pytest.raises(nc.ShapeError, match="do not form 2 blocks of 4"):
            mx.token_mix(const(tape, np.ones((10, 3))), np.zeros((2, 4)), params)


class TestAttentionMix:
    def identity_params(self, tape, d):
        eye = np.eye(d)
        return mx.AttentionLayer(*(tape.constant(eye) for _ in range(4)))

    @ATTENTION_MIXES
    def test_single_token_identity_projections(self, attend):
        tape = nc.Tape()
        h = np.array([[0.3, -1.2]])
        out = attend(const(tape, h), [0], self.identity_params(tape, 2))
        np.testing.assert_allclose(out.data, h)

    @ATTENTION_MIXES
    def test_identical_tokens_identical_rows(self, attend):
        tape = nc.Tape()
        h = np.array([[1.0, 2.0], [1.0, 2.0]])
        rng = np.random.default_rng(9)
        params = mx.AttentionLayer(*(tape.constant(rng.normal(size=(2, 2)))
                                     for _ in range(4)))
        out = attend(const(tape, h), [0], params)
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

    @ATTENTION_MIXES
    def test_permutation_equivariance_vs_order_sensitivity(self, attend):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(5, 3))
        perm = rng.permutation(5)
        tape = nc.Tape()
        params = mx.AttentionLayer(*(tape.constant(rng.normal(size=(3, 3)))
                                     for _ in range(4)))
        a = attend(const(tape, h), [0], params).data
        b = attend(const(tape, h[perm]), [0], params).data
        np.testing.assert_allclose(b, a[perm], atol=1e-12)

        times = np.arange(5.0)
        base = run_adaptive(h, times, [0, 1], fusion=0.0).data
        swapped = run_adaptive(h[perm], times, [0, 1], fusion=0.0).data
        assert not np.allclose(swapped, base[perm])
        tape2 = nc.Tape()
        pool_a = run_pooling(const(tape2, h), 2).data
        pool_b = run_pooling(const(tape2, h[perm]), 2).data
        assert not np.allclose(pool_b, pool_a[perm])

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 40])
    def test_row_max_is_the_max_over_keys_bit_for_bit(self, n):
        rng = np.random.default_rng(38)
        p = rng.normal(size=(5, n, n)) * 10.0 ** rng.integers(-3, 3, size=(5, n, n))
        p[1, :, : n // 2] = -np.inf  # masked keys
        p[2] = 0.0
        p[3, :, ::2] = -0.0
        np.testing.assert_array_equal(mx._row_max(p), p.max(axis=2, keepdims=True))


def attention_inputs(rng, r, n, d):
    tape = nc.Tape()
    params = mx.AttentionLayer(*(tape.constant(rng.normal(size=(d, d))) for _ in range(4)))
    return tape, tape.constant(rng.normal(size=(r * n, d))), params


class TestBatchedAttention:
    # block 2's only real row is its last one
    PADS = np.array([0, 2, 4, 1])

    @ATTENTION_MIXES
    def test_pads_zero_match_the_tape_composed_reference(self, attend):
        rng = np.random.default_rng(30)
        tape, tokens, params = attention_inputs(rng, 3, 7, 4)
        want = reference_attention(tokens, params).data
        np.testing.assert_allclose(attend(tokens, [0], params).data, want, atol=1e-12)
        blocks = attend(tokens, [0, 0, 0], params).data.reshape(3, 7, 4)
        for b in range(3):
            rows = tape.constant(tokens.data[7 * b:7 * b + 7])
            np.testing.assert_allclose(blocks[b], reference_attention(rows, params).data,
                                       atol=1e-12)

    @ATTENTION_MIXES
    def test_real_rows_match_the_reference_on_each_block(self, attend):
        rng = np.random.default_rng(31)
        n, d = 5, 3
        tape, tokens, params = attention_inputs(rng, len(self.PADS), n, d)
        out = attend(tokens, self.PADS, params).data.reshape(-1, n, d)
        for b, pad in enumerate(self.PADS):
            real = tape.constant(tokens.data[b * n + pad:(b + 1) * n])
            np.testing.assert_allclose(out[b, pad:], reference_attention(real, params).data,
                                       atol=1e-12)

    @ATTENTION_MIXES
    def test_flops_equal_the_reference_tally(self, attend):
        def flops(mix):
            tape, tokens, params = attention_inputs(np.random.default_rng(32), 1, 9, 4)
            mix(tokens, params)
            return tape.flops

        assert flops(lambda tokens, params: attend(tokens, [0], params)) == flops(
            reference_attention)

    @ATTENTION_MIXES
    def test_gradients_match_finite_differences_with_mixed_pads(self, attend):
        rng = np.random.default_rng(33)
        n, d = 5, 3

        def f(p):
            params = mx.AttentionLayer(p["wq"], p["wk"], p["wv"], p["wo"])
            return sum_all(gelu(attend(p["h"], self.PADS, params)))

        params = {name: rng.normal(size=(d, d)) for name in ("wq", "wk", "wv", "wo")}
        params["h"] = rng.normal(size=(len(self.PADS) * n, d))
        report = nc.grad_check(f, params, h=1e-5)
        assert report.max_rel_error <= 1e-4

    @ATTENTION_MIXES
    @pytest.mark.parametrize("pads,error", [([0, 0, 0], nc.ShapeError),
                                            ([0, 4], nc.ContractError),
                                            ([-1, 0], nc.ContractError)])
    def test_bad_blocks_rejected(self, pads, error, attend):
        tape, tokens, params = attention_inputs(np.random.default_rng(34), 2, 4, 3)
        with pytest.raises(error):
            attend(tokens, pads, params)


class TestBlockRegroup:
    """The oracle's regrouping ops, which its token-axis MLP chain runs on."""

    def test_blocks_sit_side_by_side_and_come_back(self):
        tape = nc.Tape()
        x = np.arange(12.0).reshape(6, 2)  # 3 blocks of 2 rows
        cols = blocks_to_cols(tape.constant(x), 2)
        np.testing.assert_array_equal(cols.data, [[0, 1, 4, 5, 8, 9], [2, 3, 6, 7, 10, 11]])
        np.testing.assert_array_equal(cols_to_blocks(cols, 2).data, x)
        np.testing.assert_array_equal(mx._side_by_side(x, 2), cols.data)
        np.testing.assert_array_equal(mx._stacked(cols.data, 2), x)

    def test_pair_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        mix = rng.normal(size=(3, 3))

        def f(p):
            # a token-axis matmul between the two regroupings mixes rows
            # within each block, so a wrong permutation cannot cancel out
            side = nc.matmul(p["m"], blocks_to_cols(p["x"], 3))
            back = cols_to_blocks(gelu(side), 2)
            return sum_all(nc.matmul(gelu(back), p["w"]))

        params = {"x": rng.normal(size=(12, 2)), "m": mix, "w": rng.normal(size=(2, 3))}
        report = nc.grad_check(f, params, h=1e-5)
        assert report.max_rel_error <= 1e-4

    @pytest.mark.parametrize("op,arg", [(blocks_to_cols, 4), (cols_to_blocks, 4),
                                        (blocks_to_cols, 0)])
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
        side = blocks_to_cols(tape.constant(h), n)
        out = cols_to_blocks(mlp_mix(side, params), d).data
        program = mx.token_mix(tape.constant(h), np.zeros((r, n)), params).data
        np.testing.assert_array_equal(program, out)
        for b in range(r):
            block = mlp_mix(tape.constant(h[b * n:(b + 1) * n]), params).data
            np.testing.assert_allclose(out[b * n:(b + 1) * n], block, atol=1e-12)


def zero_channel(tape, d, hidden=None):
    hidden = hidden or 4 * d
    return mx.ChannelParams(
        ln_gain=tape.constant(np.ones((1, d))), ln_bias=tape.constant(np.zeros((1, d))),
        w1=tape.constant(np.zeros((d, hidden))), b1=tape.constant(np.zeros((1, hidden))),
        w2=tape.constant(np.zeros((hidden, d))), b2=tape.constant(np.zeros((1, d))))


# the mixers whose output is computed whole and handed to the block op
MIXED_MIXERS = ["attention", "mlp"]
MIXER_PARAMS = {"attention": ("wq", "wk", "wv", "wo"), "mlp": ("tw1", "tb1", "tw2", "tb2")}
MIXER_LAYERS = {"attention": mx.AttentionLayer, "mlp": mx.MlpLayer}


def zero_mixer(tape, mixer, n, d):
    """An attention or token-axis MLP mixer over blocks of n rows whose output
    is all zero."""
    if mixer == "attention":
        weights = [np.ones((d, d))] * 3 + [np.zeros((d, d))]
    else:
        weights = [np.ones((5, n)), np.ones((5, 1)), np.zeros((n, 5)), np.zeros((n, 1))]
    return MIXER_LAYERS[mixer](*(tape.constant(w) for w in weights))


class TestChannelMix:
    """The channel mixer of a token block behind an all-zero token mix."""

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    def test_zero_ffn_is_identity(self, mixer):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(3, 4))
        tape = nc.Tape()
        out = mx.token_block(const(tape, h), np.arange(3.0), zero_mixer(tape, mixer, 3, 4),
                             zero_channel(tape, 4))
        np.testing.assert_array_equal(out.data, h)

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    def test_hand_evaluated_fixture(self, mixer):
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
        out = mx.token_block(const(tape, x), np.arange(1.0), zero_mixer(tape, mixer, 1, 2),
                             params)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    def test_without_residual_zero_ffn_gives_zero(self, mixer):
        tape = nc.Tape()
        out = mx.token_block(const(tape, np.ones((2, 3))), np.arange(2.0),
                             zero_mixer(tape, mixer, 2, 3), zero_channel(tape, 3),
                             residual=False)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


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


def add_mixer_arrays(rng, arrays, mixer, n):
    """Draw an attention or token-axis MLP mixer's parameters into ``arrays``."""
    d = arrays["h"].shape[1]
    shapes = {"attention": [(d, d)] * 4, "mlp": [(5, n), (5, 1), (n, 5), (n, 1)]}[mixer]
    for name, shape in zip(MIXER_PARAMS[mixer], shapes):
        arrays[name] = rng.normal(size=shape)


def mixed_arrays(rng, mixer, r=2, n=3, d=4, hidden=7):
    """``channel_arrays`` for R blocks of n rows, an attention or token-axis MLP
    mixer's parameters, times and pad lengths. The MLP mixes the first two
    rows of each block to constant rows (their w2 rows zero, b2 0 and 0.7), so
    the all-zero and the constant row of ``h`` reach the LayerNorm as such."""
    arrays = channel_arrays(rng, m=r * n, d=d, hidden=hidden)
    add_mixer_arrays(rng, arrays, mixer, n)
    if mixer == "mlp":
        arrays["tw2"][:2] = 0.0
        arrays["tb2"][:2] = [[0.0], [0.7]]
    return arrays, np.tile(np.arange(float(n)), (r, 1)), np.arange(r) % n


def block_arrays(rng, r, n, mixer, d=4, hidden=9):
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
    kind, offsets, _ = BLOCK_MIXERS[mixer]
    if kind in MIXER_PARAMS:
        add_mixer_arrays(rng, arrays, kind, n)
    else:
        arrays["order"] = rng.normal(size=(1, len(offsets)))
        arrays["fuse_raw"] = rng.normal(size=(1, 1))
    return arrays, times, pads


def adaptive_args(layer):
    """(offsets, order logits, fusion) of an adaptive or pooling layer."""
    return layer.offsets, layer.order_logits, layer.fusion


def fused_block(tokens, times, pads, layer, params, activation, residual):
    return mx.token_block(tokens, times, layer, params, activation, residual, pad_lens=pads)


def token_mix_only(tokens, times, pads, layer, params, activation, residual):
    return mx.token_mix(tokens, times, layer, activation, pads)


def chain_mix(tokens, times, pads, layer, activation):
    """The token mix of the chain the block op stands for: an adaptive or
    pooling layer's from ``token_mix`` (checked against the per-sequence
    oracle on its own), attention's and the token-axis MLP's from the tape ops
    of the chain oracle."""
    if isinstance(layer, mx.AttentionLayer):
        return attention_mix_batched(tokens, pads, layer)
    if isinstance(layer, mx.MlpLayer):
        return mlp_mix_blocks(tokens, times.shape[1], layer, activation)
    return mx.token_mix(tokens, times, layer, pad_lens=pads)


def composed_block(tokens, times, pads, layer, params, activation, residual):
    """The chain the block op stands for: the token mix, the residual add,
    the channel mixer from tape primitives."""
    mixed = chain_mix(tokens, times, pads, layer, activation)
    h = nc.add(tokens, mixed) if residual else mixed
    return reference_channel_mix(h, params, activation, residual)


def bare_block(tokens, times, pads, layer, params, activation, residual):
    """The block without a channel mixer."""
    return fused_block(tokens, times, pads, layer, None, activation, residual)


def bare_chain(tokens, times, pads, layer, params, activation, residual):
    """The chain a block without a channel mixer stands for: the token mix
    (an adaptive or pooling layer's from the per-sequence oracle), then the
    residual add."""
    if isinstance(layer, mx.AdaptiveLayer):
        mixed = reference_adaptive_mix(tokens, times, *adaptive_args(layer), pads)
    else:
        mixed = chain_mix(tokens, times, pads, layer, activation)
    return nc.add(tokens, mixed) if residual else mixed


def reference_block(tokens, times, pads, layer, params, activation, residual):
    """An adaptive or pooling block from the per-sequence oracles of both kernels."""
    mixed = reference_adaptive_mix(tokens, times, *adaptive_args(layer), pads)
    h = nc.add(tokens, mixed) if residual else mixed
    return reference_channel_mix(h, params, activation, residual)


# (mixer kind, offsets, fixed fusion or None for a learned one)
BLOCK_MIXERS = {
    "learned": ("adaptive", np.arange(9), None),
    "no_lp": ("adaptive", np.array([2, 3, 4]), 0.0),
    "no_rt": ("adaptive", np.arange(1, 6), 1.0),
    "pooling": ("pooling", np.arange(3), None),
    "attention": ("attention", None, None),
    "mlp": ("mlp", None, None),
}
ADAPTIVE_MIXERS = ["learned", "no_lp", "no_rt", "pooling"]
# "mixer" stands for all of an attention or MLP mixer's parameters
BLOCK_ALL = ("h", "order", "fuse_raw", "mixer") + CHANNEL_NAMES
MIXED_ALL = ("h", "mixer") + CHANNEL_NAMES
MIXED_LEAVES = [MIXED_ALL, ("h",), ("mixer",), ("w2", "b2"), ("ln_gain", "w1"), ()]
BLOCK_LEAVES = [BLOCK_ALL, ("h",), ("order", "fuse_raw"), ("w2", "b2"), ("ln_gain", "w1"), ()]


def leaf_layer(arrays, mixer):
    """A tape with every array a leaf, and the layer and channel mixer built of them."""
    kind, offsets, _ = BLOCK_MIXERS[mixer]
    tape = nc.Tape()
    v = {name: tape.leaf(a) for name, a in arrays.items()}
    if kind == "adaptive":
        layer = mx.AdaptiveLayer(offsets, v["order"], 0.5)
    else:
        layer = MIXER_LAYERS[kind](*(v[name] for name in MIXER_PARAMS[kind]))
    return tape, v, layer, mx.ChannelParams(*(v[name] for name in CHANNEL_NAMES))


def forward_bytes(block, arrays, times, pads, mixer, activation):
    """Bytes of numpy data that ``block``'s forward leaves alive."""
    tape, v, layer, params = leaf_layer(arrays, mixer)
    numpy_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(numpy_data)
        out = block(v["h"], times, pads, layer, params, activation, True)
        after = tracemalloc.take_snapshot().filter_traces(numpy_data)
    finally:
        tracemalloc.stop()
    assert out.data.shape == v["h"].data.shape and tape._steps
    return sum(t.size for t in after.traces) - sum(t.size for t in before.traces)


def run_block(block, arrays, times, pads, mixer, activation, residual, leaves):
    """Output, tape flops and steps, and leaf gradients of one token block under
    a loss that also reads the tokens directly, so they gather gradient from
    two ops."""
    kind, offsets, fixed = BLOCK_MIXERS[mixer]
    tape = nc.Tape()
    learned = [name for name in arrays
               if name in leaves or "mixer" in leaves and name in MIXER_PARAMS.get(kind, ())]
    v = {name: (tape.leaf if name in learned else tape.constant)(a)
         for name, a in arrays.items()}
    if kind == "adaptive":
        fusion = nc.sigmoid(v["fuse_raw"]) if fixed is None else fixed
        layer = mx.AdaptiveLayer(offsets=offsets, order_logits=v["order"], fusion=fusion)
    elif kind == "pooling":
        layer = pooling_layer(tape, len(offsets))
    else:
        layer = MIXER_LAYERS[kind](*(v[name] for name in MIXER_PARAMS[kind]))
    params = mx.ChannelParams(*(v[name] for name in CHANNEL_NAMES))
    flops, steps = tape.flops, len(tape._steps)
    out = block(v["h"], times, pads, layer, params, activation, residual)
    flops, steps = tape.flops - flops, len(tape._steps) - steps
    side = tape.constant(np.linspace(-1.0, 1.0, arrays["h"].shape[1])[:, None])
    loss = nc.add(sum_all(gelu(out)), sum_all(nc.matmul(v["h"], side)))
    nc.backward(tape, loss)
    return out.data, flops, steps, {name: v[name].grad for name in learned}


def assert_same_run(run, want, label):
    """Two ``run_block`` results agree bit for bit in output, flops and gradients."""
    out, flops, _, grads = run
    want_out, want_flops, _, want_grads = want
    assert flops == want_flops, label
    np.testing.assert_array_equal(out, want_out, err_msg=label)
    assert grads.keys() == want_grads.keys(), label
    for name in grads:
        np.testing.assert_array_equal(grads[name], want_grads[name], err_msg=f"{label}: {name}")


def assert_matches_the_oracles(arrays, times, pads, mixer, activation, residual, leaves,
                               block=fused_block):
    """The block is one tape step (none without a gradient to give), and bit
    for bit the chain of kernels and, for an adaptive or pooling layer, the
    per-sequence oracles; ``bare_block``, the block without a channel mixer,
    is checked against ``bare_chain``."""
    args = (arrays, times, pads, mixer, activation, residual, leaves)
    run = run_block(block, *args)
    if block is bare_block:
        oracles = (bare_chain,)
    elif BLOCK_MIXERS[mixer][0] in MIXER_PARAMS:
        oracles = (composed_block,)
    else:
        oracles = (composed_block, reference_block)
    for oracle in oracles:
        want = run_block(oracle, *args)
        assert run[2] == min(1, want[2]), oracle.__name__  # one step, not a chain
        assert_same_run(run, want, oracle.__name__)


class TestMixedBlock:
    """Attention and the token-axis MLP mix inside the block op, with the
    residual and the channel mixer: bit for bit the chain oracle
    ``attention_mix_batched`` or ``mlp_mix_blocks`` -> ``add`` -> channel
    mixer."""

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("leaves", MIXED_LEAVES)
    def test_bit_identical_to_the_tape_chain(self, activation, residual, leaves, mixer):
        arrays, times, pads = mixed_arrays(np.random.default_rng(50), mixer)
        assert_matches_the_oracles(arrays, times, pads, mixer, activation, residual, leaves)

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    @pytest.mark.parametrize("leaves,steps", [(MIXED_ALL, 1), ((), 0)])
    def test_one_tape_step_and_none_without_gradients(self, leaves, steps, mixer):
        arrays, times, pads = mixed_arrays(np.random.default_rng(51), mixer)
        args = (arrays, times, pads, mixer, "gelu", True, leaves)
        assert run_block(token_mix_only, *args)[2] == steps
        assert run_block(fused_block, *args)[2] == steps

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_gradients_match_finite_differences(self, activation, residual, mixer):
        arrays, times, pads = mixed_arrays(np.random.default_rng(52), mixer, r=2, n=2, d=3,
                                           hidden=5)
        rng = np.random.default_rng(53)
        for name in ("h",) + MIXER_PARAMS[mixer]:  # no constant rows here
            arrays[name] = rng.normal(size=arrays[name].shape)
        fixed = {}
        if mixer == "mlp" and not residual:
            # without the residual the LayerNorm cancels tb2, which shifts whole
            # rows: its gradient is 0 and finite differences see only noise
            fixed["tb2"] = arrays.pop("tb2")

        def f(p):
            p = {**p, **{name: p["h"].tape.constant(a) for name, a in fixed.items()}}
            layer = MIXER_LAYERS[mixer](*(p[name] for name in MIXER_PARAMS[mixer]))
            params = mx.ChannelParams(*(p[name] for name in CHANNEL_NAMES))
            return sum_all(gelu(mx.token_block(p["h"], times, layer, params, activation,
                                                     residual, pad_lens=pads)))

        report = nc.grad_check(f, arrays, h=1e-5)
        assert report.max_rel_error <= 1e-4

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    def test_mismatched_parameters_rejected(self, mixer):
        tape = nc.Tape()
        params = zero_channel(tape, 3)
        with pytest.raises(nc.ShapeError):
            mx.token_block(const(tape, np.ones((2, 4))), np.arange(2.0),
                           zero_mixer(tape, mixer, 2, 4), params)
        with pytest.raises(nc.ConfigError):
            mx.token_block(const(tape, np.ones((2, 3))), np.arange(2.0),
                           zero_mixer(tape, mixer, 2, 3), params, activation="tanh")

    def test_misshapen_or_foreign_weights_rejected(self):
        tape = nc.Tape()
        tokens, params = const(tape, np.ones((6, 3))), zero_channel(tape, 3)
        times = np.zeros((2, 3))
        for shapes in ([(3, 3)] * 3 + [(3, 2)], [(3, 2), (3, 3), (3, 3), (3, 3)],
                       [(2, 3)] + [(3, 3)] * 3):
            layer = mx.AttentionLayer(*(const(tape, np.ones(s)) for s in shapes))
            with pytest.raises(nc.ShapeError, match="attention weights"):
                mx.token_block(tokens, times, layer, params)
        with pytest.raises(nc.ShapeError):  # 6 rows are not blocks of 4
            mx.token_block(tokens, np.zeros((2, 4)), zero_mixer(tape, "attention", 4, 3), params)
        for mixer in MIXED_MIXERS:
            with pytest.raises(nc.ContractError, match="different tapes"):
                mx.token_block(tokens, times, zero_mixer(nc.Tape(), mixer, 3, 3), params)


@pytest.fixture(scope="module")
def row_worker():
    """One row worker for the module, made without touching the BLAS threads."""
    worker = ThreadPoolExecutor(max_workers=1)
    yield worker
    worker.shutdown()


class TestRowPasses:
    """The block op's row passes give the same bits with the worker off and
    on, and the worker is one thread for the life of the process."""

    CHUNK = nc._ROW_CHUNK
    N = 8  # rows per block; every row count below is a multiple

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    @pytest.mark.parametrize("m", [CHUNK // 2, CHUNK, 3 * CHUNK + 3 * N])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("leaves", MIXED_LEAVES)
    def test_worker_off_and_on_agree_bit_for_bit(self, monkeypatch, row_worker, m,
                                                 activation, residual, leaves, mixer):
        arrays, times, pads = mixed_arrays(np.random.default_rng(54), mixer, r=m // self.N,
                                           n=self.N)
        args = (arrays, times, pads, mixer, activation, residual, leaves)
        runs = []
        for worker in (None, row_worker):
            monkeypatch.setattr(nc, "_row_worker", worker)
            runs.append(run_block(fused_block, *args))
        assert runs[0][2] == runs[1][2]
        assert_same_run(runs[1], runs[0], "worker on")
        assert_same_run(runs[0], run_block(composed_block, *args), "chain")

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

            if block is None:  # the default: blocks of one row
                nc._row_passes(rows_m, rows)
            else:
                nc._row_passes(rows_m, rows, block=block)
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

    @pytest.mark.parametrize("m", [0, CHUNK, 4 * CHUNK])
    def test_every_task_runs_once_on_either_thread(self, monkeypatch, row_worker, m):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        caller, runs = threading.get_ident(), []

        def task(i):
            time.sleep(1e-3)  # long enough that the worker takes tasks too
            runs.append((i, threading.get_ident()))

        for fn in (None, lambda lo, hi: None):
            runs.clear()
            nc._row_passes(m, fn, tasks=[functools.partial(task, i) for i in range(8)])
            assert sorted(i for i, _ in runs) == list(range(8))
            worker = row_worker.submit(threading.get_ident).result()
            assert {t for _, t in runs} <= {caller, worker}

    def test_without_a_worker_the_rows_then_the_tasks_run_inline_in_order(self,
                                                                          monkeypatch):
        monkeypatch.setattr(nc, "_row_worker", None)
        order = []
        nc._row_passes(3 * self.CHUNK, lambda lo, hi: order.append((lo, hi)),
                       tasks=[functools.partial(order.append, i) for i in range(3)])
        assert order == [(0, 3 * self.CHUNK), 0, 1, 2]

    @pytest.mark.parametrize("fn", [None, "rows"])
    def test_a_task_exception_reaches_the_caller(self, monkeypatch, row_worker, fn):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        raised = threading.Event()

        def failing():
            raised.set()
            raise ArithmeticError(f"task on thread {threading.get_ident()}")

        def slow():
            assert raised.wait(timeout=60)

        rows = (lambda lo, hi: None) if fn else None
        with pytest.raises(ArithmeticError, match="task on"):
            nc._row_passes(3 * self.CHUNK, rows, tasks=[slow, failing, slow])
        done = []
        nc._row_passes(0, tasks=[functools.partial(done.append, 1)] * 2)
        assert done == [1, 1]  # the worker serves the next call

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

    @pytest.mark.parametrize("mixer", MIXED_MIXERS)
    def test_the_worker_is_made_once_not_per_call(self, monkeypatch, mixer):
        monkeypatch.setattr(nc, "_row_worker", None)
        monkeypatch.setattr(nc, "_blas_to_one_thread", lambda: True)
        monkeypatch.setattr(nc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        arrays, times, pads = mixed_arrays(np.random.default_rng(55), mixer,
                                           r=2 * self.CHUNK // self.N + 1, n=self.N)

        def call():
            run_block(fused_block, arrays, times, pads, mixer, "gelu", True, MIXED_ALL)

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



class TestFusedTokenBlock:
    """A layer's residual and channel mixer are one op, with an adaptive or
    pooling layer's mix inside it, bit for bit the chain of kernels and the
    per-sequence oracles, worker off and on, whatever rows its chunks get."""

    CHUNK = nc._ROW_CHUNK

    @pytest.mark.parametrize("leaves", BLOCK_LEAVES)
    @pytest.mark.parametrize("mixer", ADAPTIVE_MIXERS)
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_bit_identical_to_the_chain_and_the_oracles(self, activation, residual, mixer,
                                                        leaves):
        arrays, times, pads = block_arrays(np.random.default_rng(60), r=9, n=7, mixer=mixer)
        assert_matches_the_oracles(arrays, times, pads, mixer, activation, residual, leaves)

    @pytest.mark.parametrize("mixer,activation,residual",
                             [("learned", "gelu", True), ("pooling", "relu", False),
                              ("attention", "gelu", True), ("mlp", "relu", False)])
    @pytest.mark.parametrize("chunks", ["below", "one", "several"])
    @pytest.mark.parametrize("n", [7, 20])
    @pytest.mark.parametrize("worker", [False, True])
    def test_every_chunking_matches_the_oracles(self, monkeypatch, row_worker, worker, n,
                                                chunks, mixer, activation, residual):
        monkeypatch.setattr(nc, "_row_worker", row_worker if worker else None)
        r = {"below": self.CHUNK // (2 * n), "one": self.CHUNK // n,
             "several": 3 * self.CHUNK // n + 2}[chunks]
        arrays, times, pads = block_arrays(np.random.default_rng(61), r=r, n=n, mixer=mixer)
        assert_matches_the_oracles(arrays, times, pads, mixer, activation, residual, BLOCK_ALL)

    @pytest.mark.parametrize("mixer", ["learned", "attention", "mlp"])
    def test_one_block_matches_the_oracles(self, mixer):
        """One block side by side is the block itself, and the tokens'
        gradient is written over the output gradient the MLP's sums read."""
        arrays, times, pads = block_arrays(np.random.default_rng(63), r=1, n=7, mixer=mixer)
        assert_matches_the_oracles(arrays, times, pads, mixer, "gelu", True, BLOCK_ALL)

    @pytest.mark.parametrize("mixer", ["learned", "attention", "mlp"])
    def test_chunks_hold_whole_blocks(self, monkeypatch, row_worker, mixer):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        n, r = 7, 3 * self.CHUNK // 7 + 2
        spans = []
        row_passes = nc._row_passes

        def recorded(m, fn=None, block=1, tasks=()):
            spans.append((m, block, fn is not None, len(tasks)))
            row_passes(m, fn, block, tasks)

        monkeypatch.setattr(nc, "_row_passes", recorded)
        arrays, times, pads = block_arrays(np.random.default_rng(62), r=r, n=n, mixer=mixer)
        run_block(fused_block, arrays, times, pads, mixer, "gelu", True, BLOCK_ALL)
        # one forward pass; one backward pass, which rebuilds act, with no
        # task; one pass of every sum: W2, W1, b2, b1, the LayerNorm's two and
        # the mix's
        mix_sums = {"learned": 2, "attention": 4, "mlp": 4}[mixer]
        assert spans == [(r * n, n, True, 0), (r * n, n, True, 0), (0, 1, False, 6 + mix_sums)]

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_keeps_only_what_its_backward_cannot_rebuild(self, monkeypatch, activation):
        """Between forward and backward a block holds its output, the
        pre-activations, the GELU gates (none for ReLU), the LayerNorm's
        normalized rows and 1/std, and what its mix keeps: ``act`` and the
        LayerNorm's output are rebuilt by the backward."""
        monkeypatch.setattr(nc, "_row_worker", None)
        r, n, d, hidden = 64, 8, 16, 48
        m = r * n
        args = block_arrays(np.random.default_rng(66), r=r, n=n, mixer="learned", d=d,
                            hidden=hidden) + ("learned", activation)
        mix_keeps = forward_bytes(token_mix_only, *args) - 8 * m * d
        gates = hidden if activation == "gelu" else 0
        kept = 8 * (m * hidden + m * gates + m * d + m)  # pre, gates, xn, 1/std
        assert forward_bytes(fused_block, *args) == 8 * m * d + kept + mix_keeps

    def test_mlp_mix_keeps_only_its_pre_activations_and_gates(self, monkeypatch):
        """A token-axis MLP's whole output goes once the forward has read it:
        its ``token_mix`` leaves alive the output, and the pre-activations and
        GELU gates side by side (k x R*d each)."""
        monkeypatch.setattr(nc, "_row_worker", None)
        r, n, d = 64, 8, 16
        arrays, times, pads = block_arrays(np.random.default_rng(68), r=r, n=n, mixer="mlp",
                                           d=d)
        k = arrays["tw1"].shape[0]
        held = forward_bytes(token_mix_only, arrays, times, pads, "mlp", "gelu")
        assert held == 8 * (r * n * d + 2 * k * r * d)

    def test_attention_backward_peak(self, monkeypatch):
        """The peak of an attention block's backward (worker off) per row: the
        arrays it allocates (the LayerNorm's output and input gradients, over
        the latter of which the tokens' gradient goes, ``act``, the q, k and v
        gradients, and the mix's copy of the output gradient) and, in the
        mix's backward, the tokens' three shares and two partial sums of them.
        Taken at two sizes, so that the interpreter's own objects cancel."""
        monkeypatch.setattr(nc, "_row_worker", None)
        n, d, hidden = 8, 16, 48  # q, k and v are d wide

        def peak(r):
            arrays, times, pads = block_arrays(np.random.default_rng(69), r=r, n=n,
                                               mixer="attention", d=d, hidden=hidden)
            tape, v, layer, params = leaf_layer(arrays, "attention")
            out = fused_block(v["h"], times, pads, layer, params, "gelu", True)
            out.grad = np.random.default_rng(70).normal(size=out.data.shape)
            (step,) = tape._steps
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                step()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        # gz and gh, act, the q, k and v gradients, the copy, shares, partial sums
        per_row = 2 * d + hidden + 3 * d + d + 3 * d + 2 * d
        peak(64)  # the first call's one-off allocations
        assert peak(128) - peak(64) == 8 * 64 * n * per_row

    @pytest.mark.parametrize("mixer", ["learned", "attention"])
    def test_concurrent_blocks_give_the_single_caller_bits(self, monkeypatch, row_worker,
                                                           mixer):
        monkeypatch.setattr(nc, "_row_worker", row_worker)
        arrays, times, pads = block_arrays(np.random.default_rng(64),
                                           r=3 * self.CHUNK // 7 + 2, n=7, mixer=mixer)
        args = (arrays, times, pads, mixer, "gelu", True, BLOCK_ALL)
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

    @pytest.mark.parametrize("mixer", ["learned", "attention", "mlp"])
    @pytest.mark.parametrize("leaves", [BLOCK_ALL, ()])
    def test_the_worker_calls_no_public_function(self, monkeypatch, row_worker, leaves, mixer):
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
        layer_norm = nc._layer_norm
        worker_in = threading.Event()

        def handshake_rows(*args, **kwargs):
            row_threads.add(threading.get_ident())
            if threading.get_ident() == caller:
                worker_in.wait(timeout=30)  # hold the caller's chunk until the worker has one
            else:
                worker_in.set()
            return layer_norm(*args, **kwargs)

        monkeypatch.setattr(nc, "_layer_norm", handshake_rows)
        arrays, times, pads = block_arrays(np.random.default_rng(63), r=3 * self.CHUNK // 7 + 2,
                                           n=7, mixer=mixer)
        run_block(fused_block, arrays, times, pads, mixer, "gelu", True, leaves)
        assert len(row_threads) == 2
        assert "tempomix.mixers.token_block" in {name for name, _ in calls}
        assert {thread for _, thread in calls} == {caller}


class TestBlockWithoutChannelMixer:
    """``channel=None`` is the layer without a channel mixer: the same block
    op, one tape step for every mixer kind, bit for bit the token mix and the
    residual ``add``, worker off and on."""

    CHUNK = nc._ROW_CHUNK

    @pytest.mark.parametrize("leaves", BLOCK_LEAVES + [("mixer",)])
    @pytest.mark.parametrize("mixer", list(BLOCK_MIXERS))
    @pytest.mark.parametrize("residual", [True, False])
    def test_bit_identical_to_the_mix_and_add(self, residual, mixer, leaves):
        arrays, times, pads = block_arrays(np.random.default_rng(65), r=9, n=7, mixer=mixer)
        assert_matches_the_oracles(arrays, times, pads, mixer, "gelu", residual, leaves,
                                   block=bare_block)

    @pytest.mark.parametrize("mixer", list(BLOCK_MIXERS))
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("chunks", ["below", "several"])
    @pytest.mark.parametrize("worker", [False, True])
    def test_every_chunking_matches_the_mix_and_add(self, monkeypatch, row_worker, worker,
                                                   chunks, residual, mixer):
        monkeypatch.setattr(nc, "_row_worker", row_worker if worker else None)
        n = 7
        r = {"below": self.CHUNK // (2 * n), "several": 3 * self.CHUNK // n + 2}[chunks]
        arrays, times, pads = block_arrays(np.random.default_rng(66), r=r, n=n, mixer=mixer)
        assert_matches_the_oracles(arrays, times, pads, mixer, "gelu", residual, BLOCK_ALL,
                                   block=bare_block)


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
        out = mx.token_block(tokens, np.arange(4.0), pooling_layer(tape, 2), None)
        np.testing.assert_allclose(out.data, h + reference_pooling_mix(h, 2))

    def test_no_residual_no_channel_mixer_returns_pure_mix(self):
        rng = np.random.default_rng(15)
        h = rng.normal(size=(4, 2))
        tape = nc.Tape()
        out = mx.token_block(const(tape, h), np.arange(4.0), pooling_layer(tape, 2), None,
                             residual=False)
        np.testing.assert_allclose(out.data, reference_pooling_mix(h, 2))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2), (2, 1)])
    def test_a_fusion_of_another_shape_rejected(self, shape):
        tape = nc.Tape()
        mixer = mx.AdaptiveLayer(np.arange(2), tape.leaf(np.zeros((1, 2))),
                                 tape.leaf(np.zeros(shape)))
        with pytest.raises(nc.ShapeError, match=re.escape(f"fusion shape {shape}")):
            mx.token_mix(tape.leaf(np.ones((4, 2))), np.arange(4.0), mixer)

    @pytest.mark.parametrize("foreign", ["order_logits", "fusion"])
    def test_order_logits_or_fusion_on_another_tape_rejected(self, foreign):
        tape = nc.Tape()
        on = {"order_logits": tape, "fusion": tape, foreign: nc.Tape()}
        mixer = mx.AdaptiveLayer(np.arange(2), on["order_logits"].leaf(np.zeros((1, 2))),
                                 on["fusion"].leaf(np.zeros((1, 1))))
        with pytest.raises(nc.ContractError, match="different tapes"):
            mx.token_block(tape.leaf(np.ones((4, 2))), np.arange(4.0), mixer, None)


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
