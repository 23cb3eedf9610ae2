"""Tests for the neighbor-token embedding."""

import numpy as np
import pytest

from tempomix import encoders as enc
from tempomix import numcore as nc
from tempomix import tgraph as tg


def bind(tape, node_dim, edge_dim, time_dim, dim, fill="zero"):
    shapes = [(node_dim, dim), (edge_dim, dim), (time_dim, dim)]
    if fill == "zero":
        arrays = [np.zeros(s) for s in shapes]
    else:
        arrays = [np.ones(s) for s in shapes]
    return enc.EncoderParams(*(tape.constant(a) for a in arrays))


class TestTimeEncode:
    def test_zero_gap_gives_all_ones(self):
        np.testing.assert_array_equal(enc.time_encode_rows([0.0], 16)[0], np.ones(16))

    def test_pi_at_unit_frequency(self):
        # leading frequency is 1, so cos(pi * 1) = -1
        assert enc.time_encode_rows([np.pi], 8)[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_range_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for dt in rng.uniform(0, 1e6, size=50):
            assert np.max(np.abs(enc.time_encode_rows([dt], 100))) <= 1.0

    def test_negative_gap_rejected(self):
        with pytest.raises(nc.ContractError):
            enc.time_encode_rows([-0.5], 4)

    def test_out_has_the_allocating_call_bits(self):
        rng = np.random.default_rng(1)
        dts = np.concatenate([[0.0, 5e-324, 1e-300, 1e300], rng.uniform(0, 1e6, size=300)])
        want = enc.time_encode_rows(dts, 100)
        rows = np.full((len(dts) + 2, 100), np.nan)
        got = enc.time_encode_rows(dts, 100, out=rows[1:-1])
        assert got.base is rows
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isnan(rows[[0, -1]]).all()  # nothing written outside out
        with pytest.raises(nc.ContractError):
            enc.time_encode_rows([1.0, -0.5], 4, out=np.empty((2, 4)))

    def test_frequencies_strictly_decreasing(self):
        freqs = enc._frequencies(100)
        assert np.all(np.diff(freqs) < 0)
        assert freqs[0] == 1.0


def small_stream():
    # nodes 0..3 with 1-d node features, events carry 1-d edge features
    src, dst, t = [0, 0, 0], [1, 2, 3], [1.0, 2.0, 3.0]
    edge_feats = np.array([[2.0], [5.0], [7.0]])
    node_feats = np.array([[0.5], [1.0], [2.0], [3.0]])
    return tg.EventStream(src, dst, t, edge_feats, node_count=4, node_feats=node_feats)


class TestEmbedNeighbors:
    def test_zero_features_zero_time_map_gives_zero_matrix(self):
        stream = small_stream()
        store = tg.TemporalStore(stream)
        seq = store.recent_neighbors(0, 4.0, 3)
        tape = nc.Tape()
        params = bind(tape, 1, 1, 4, 2, fill="zero")
        tokens, padded = enc.embed_neighbors(seq, 4.0, stream, params)
        assert not padded
        np.testing.assert_array_equal(tokens.data, np.zeros((3, 2)))

    def test_additive_fusion_hand_value(self):
        # all maps are 1x1 identity sums: node 1 + edge 2 + cos(0) = 4
        stream = tg.EventStream([0], [1], [5.0], np.array([[2.0]]), node_count=2,
                                node_feats=np.array([[9.0], [1.0]]))
        seq = tg.NeighborSequence(np.array([1]), np.array([5.0]), np.array([0]))
        tape = nc.Tape()
        params = enc.EncoderParams(tape.constant([[1.0]]), tape.constant([[1.0]]),
                                   tape.constant([[1.0]]))
        tokens, _ = enc.embed_neighbors(seq, 5.0, stream, params)
        assert tokens.data[0, 0] == pytest.approx(4.0)

    def test_identical_neighbors_give_identical_rows(self):
        stream = tg.EventStream([0, 0], [1, 1], [2.0, 2.0],
                                np.array([[3.0], [3.0]]), node_count=2,
                                node_feats=np.zeros((2, 1)))
        store = tg.TemporalStore(stream)
        seq = store.recent_neighbors(0, 9.0, 4)
        tape = nc.Tape()
        params = bind(tape, 1, 1, 6, 3, fill="one")
        tokens, _ = enc.embed_neighbors(seq, 9.0, stream, params)
        np.testing.assert_array_equal(tokens.data[0], tokens.data[1])

    def test_empty_history_pads_single_zero_row(self):
        stream = small_stream()
        store = tg.TemporalStore(stream)
        seq = store.recent_neighbors(3, 0.5, 4)
        tape = nc.Tape()
        params = bind(tape, 1, 1, 4, 5)
        tokens, padded = enc.embed_neighbors(seq, 0.5, stream, params)
        assert padded
        assert tokens.data.shape == (1, 5)
        np.testing.assert_array_equal(tokens.data, np.zeros((1, 5)))

    def test_timestamp_shift_leaves_tokens_unchanged(self):
        stream = small_stream()
        shifted = stream.shift_times(1000.0)
        offs = 1000.0
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(1, 3)), rng.normal(size=(1, 3)), rng.normal(size=(7, 3))]
        for node, t_ref in [(0, 4.0), (1, 2.5), (2, 3.0)]:
            tape = nc.Tape()
            params = enc.EncoderParams(*(tape.constant(a) for a in arrays))
            seq = tg.TemporalStore(stream).recent_neighbors(node, t_ref, 4)
            seq2 = tg.TemporalStore(shifted).recent_neighbors(node, t_ref + offs, 4)
            a, _ = enc.embed_neighbors(seq, t_ref, stream, params)
            b, _ = enc.embed_neighbors(seq2, t_ref + offs, shifted, params)
            assert a.data.tobytes() == b.data.tobytes()

    def test_dimension_mismatch_is_config_error(self):
        stream = small_stream()
        seq = tg.TemporalStore(stream).recent_neighbors(0, 4.0, 3)
        tape = nc.Tape()
        params = bind(tape, 2, 1, 4, 5)  # node features are 1-d, map expects 2
        with pytest.raises(nc.ConfigError):
            enc.embed_neighbors(seq, 4.0, stream, params)

    def test_reference_time_before_history_rejected(self):
        stream = small_stream()
        seq = tg.TemporalStore(stream).recent_neighbors(0, 4.0, 3)
        tape = nc.Tape()
        params = bind(tape, 1, 1, 4, 5)
        with pytest.raises(nc.ContractError):
            enc.embed_neighbors(seq, 2.0, stream, params)
