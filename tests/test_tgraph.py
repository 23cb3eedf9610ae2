"""Tests for the temporal event store."""

import os
import warnings

import numpy as np
import pytest

from tempomix import tgraph as tg

# users 0-2 and items 0-1, numbered separately as in JODIE-format files
OVERLAPPING_IDS = os.path.join(os.path.dirname(__file__), "data", "overlapping_ids.csv")


def make_stream(events, node_count=None, edge_dim=0):
    src = [e[0] for e in events]
    dst = [e[1] for e in events]
    t = [e[2] for e in events]
    feats = np.zeros((len(events), edge_dim))
    return tg.EventStream(src, dst, t, feats, node_count=node_count)


class TestIngest:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("src,dst,timestamp,label\nA,B,1.0,0\nC,D,2.0,0\nA,C,3.0,1\n")
        stream = tg.ingest_csv(p)
        assert len(stream) == 3
        assert stream.node_count == 4
        assert stream.edge_dim == 0

    def test_stable_sort_on_shuffled_timestamps(self, tmp_path):
        # oracle: python sorted() is stable; equal timestamps keep file order
        rows = [("a", "b", 3.0), ("c", "d", 1.0), ("e", "f", 3.0), ("g", "h", 2.0),
                ("i", "j", 1.0), ("k", "l", 2.0), ("m", "n", 3.0), ("o", "p", 0.5),
                ("q", "r", 2.0), ("s", "t", 1.0)]
        p = tmp_path / "shuffled.csv"
        p.write_text("src,dst,timestamp,label\n"
                     + "".join(f"{u},{v},{t},0\n" for u, v, t in rows))
        stream = tg.ingest_csv(p)
        expected = sorted(enumerate(rows), key=lambda kv: kv[1][2])
        got_ts = list(stream.t)
        assert got_ts == [t for _, (_, _, t) in expected]
        # equal-timestamp blocks must preserve original file order: reconstruct
        # the original row index from edge features? ids are compacted, so use
        # the fact that each row introduced two fresh tokens in file order.
        first_seen = {}
        for i, (u, v, _) in enumerate(rows):
            first_seen.setdefault(u, i)
        order_of_rows = [first_seen[u] for _, (u, _, _) in expected]
        # stable sort keeps ascending original index within equal timestamps
        for a, b in zip(order_of_rows, order_of_rows[1:]):
            if got_ts[order_of_rows.index(a)] == got_ts[order_of_rows.index(b)]:
                assert a < b

    def test_ragged_rows_name_line_number(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("src,dst,timestamp,label,f0\nA,B,1.0,0,0.5\nB,C,2.0,0,0.5,0.9\n")
        with pytest.raises(tg.ParseError, match="line 3"):
            tg.ingest_csv(p)

    def test_negative_timestamp_rejected(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("src,dst,timestamp,label\nA,B,-1.0,0\n")
        with pytest.raises(tg.ValidationError):
            tg.ingest_csv(p)

    @pytest.mark.parametrize("row", ["B,C,nan,0,0.5", "B,C,inf,0,0.5",
                                     "B,C,2.0,0,-inf", "B,C,2.0,0,nan",
                                     "B,C,2.0,nan,0.5", "B,C,2.0,-inf,0.5"])
    def test_non_finite_timestamp_or_feature_names_the_line(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"src,dst,timestamp,label,f0\nA,B,1.0,0,0.5\n{row}\n")
        with pytest.raises(tg.ParseError,
                           match="line 3: timestamp, label and features must be finite"):
            tg.ingest_csv(p)

    def test_round_trip(self, tmp_path):
        # ingest -> serialize -> ingest is the identity on ingested streams
        raw = tg.generate_synthetic(
            tg.SyntheticSpec(n_src=5, n_dst=5, n_events=200, pattern="periodic"), seed=11)
        p0, p1 = tmp_path / "raw.csv", tmp_path / "round.csv"
        tg.write_csv(raw, p0)
        stream = tg.ingest_csv(p0)
        tg.write_csv(stream, p1)
        again = tg.ingest_csv(p1)
        np.testing.assert_array_equal(again.src, stream.src)
        np.testing.assert_array_equal(again.dst, stream.dst)
        np.testing.assert_array_equal(again.t, stream.t)
        np.testing.assert_array_equal(again.edge_feats, stream.edge_feats)
        np.testing.assert_array_equal(again.labels, stream.labels)
        assert again.node_count == stream.node_count

    def test_bipartite_keeps_user_and_item_ids_apart(self):
        stream = tg.ingest_csv(OVERLAPPING_IDS, bipartite=True)
        assert stream.node_count == 3 + 2
        # one counter in order of first appearance: u0, i0, u1, i1, u2
        np.testing.assert_array_equal(stream.src, [0, 2, 0, 4, 2])
        np.testing.assert_array_equal(stream.dst, [1, 1, 3, 3, 1])
        assert not set(stream.src) & set(stream.dst)

    def test_shared_namespace_is_the_default(self):
        stream = tg.ingest_csv(OVERLAPPING_IDS)
        assert stream.node_count == 3
        np.testing.assert_array_equal(stream.src, [0, 1, 0, 2, 1])
        np.testing.assert_array_equal(stream.dst, [0, 0, 1, 1, 0])

    @pytest.mark.skipif(not os.path.exists(os.environ.get("TEMPOMIX_WIKIPEDIA", "data/wikipedia.csv")),
                        reason="Wikipedia interaction file not present")
    def test_wikipedia_counts(self):
        stream = tg.ingest_csv(os.environ.get("TEMPOMIX_WIKIPEDIA", "data/wikipedia.csv"),
                               bipartite=True)
        assert stream.node_count == 9227
        assert len(stream) == 157474
        assert stream.edge_dim == 172


class TestValidation:
    @pytest.mark.parametrize("times", [[0.0, float("nan"), 2.0], [float("nan"), 1.0, 2.0],
                                       [0.0, 1.0, float("inf")]])
    def test_non_finite_timestamp_rejected(self, times):
        # NaN compares false both ways, so neither the sign nor the order check sees it
        with pytest.raises(tg.ValidationError, match="finite"):
            make_stream([(0, 1, t) for t in times])


class TestSplit:
    def test_floor_sizes_ten(self):
        stream = make_stream([(0, 1, float(i)) for i in range(10)])
        train, val, test = tg.chronological_split(stream, 0.7, 0.15)
        assert (len(train), len(val), len(test)) == (7, 1, 2)

    def test_floor_sizes_twenty(self):
        stream = make_stream([(0, 1, float(i)) for i in range(20)])
        train, val, test = tg.chronological_split(stream, 0.7, 0.15)
        assert (len(train), len(val), len(test)) == (14, 3, 3)

    def test_full_train_ratio_rejected(self):
        stream = make_stream([(0, 1, 0.0)])
        with pytest.raises(tg.SplitError):
            tg.chronological_split(stream, 1.0, 0.0)

    def test_empty_stream_rejected(self):
        stream = make_stream([], node_count=2)
        with pytest.raises(tg.SplitError):
            tg.chronological_split(stream, 0.7, 0.15)

    def test_concatenating_splits_reproduces_stream(self):
        stream = tg.generate_synthetic(tg.SyntheticSpec(n_events=137), seed=3)
        parts = tg.chronological_split(stream, 0.7, 0.15)
        assert sum(len(p) for p in parts) == len(stream)
        np.testing.assert_array_equal(np.concatenate([p.src for p in parts]), stream.src)
        np.testing.assert_array_equal(np.concatenate([p.t for p in parts]), stream.t)
        np.testing.assert_array_equal(np.concatenate([p.edge_feats for p in parts]),
                                      stream.edge_feats)


class TestRecentNeighbors:
    def setup_method(self):
        # A=0, B=1, C=2, D=3
        self.stream = make_stream([(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
        self.store = tg.TemporalStore(self.stream)

    def test_latest_two_before_time(self):
        seq = self.store.recent_neighbors(0, 3.5, 2)
        assert list(seq.neighbor_ids) == [2, 3]
        assert list(seq.times) == [2.0, 3.0]

    def test_strict_past_boundary(self):
        assert len(self.store.recent_neighbors(0, 1.0, 5)) == 0

    def test_destination_side_is_symmetric(self):
        seq = self.store.recent_neighbors(1, 2.0, 5)
        assert list(seq.neighbor_ids) == [0]
        assert list(seq.times) == [1.0]

    def test_no_history_returns_empty(self):
        assert len(self.store.recent_neighbors(3, 2.0, 4)) == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(7)
        n_nodes, n_events = 12, 300
        src = rng.integers(n_nodes, size=n_events)
        dst = rng.integers(n_nodes, size=n_events)
        t = np.sort(rng.choice(np.arange(50.0), size=n_events))  # many ties
        stream = tg.EventStream(src, dst, t, np.zeros((n_events, 0)),
                                node_count=n_nodes)
        store = tg.TemporalStore(stream)
        for _ in range(200):
            node = int(rng.integers(n_nodes))
            q = float(rng.uniform(-1, 55))
            n_max = int(rng.integers(1, 8))
            if q < 0:
                continue
            hits = []
            for i in range(n_events):
                if stream.t[i] < q:
                    if stream.src[i] == node:
                        hits.append((stream.t[i], i, stream.dst[i]))
                    if stream.dst[i] == node:
                        hits.append((stream.t[i], i, stream.src[i]))
            hits = hits[-n_max:] if n_max else []
            seq = store.recent_neighbors(node, q, n_max)
            assert [h[2] for h in hits] == list(seq.neighbor_ids)
            assert [h[0] for h in hits] == list(seq.times)
            assert all(tt < q for tt in seq.times)


class TestRecentWindows:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_key_query(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes, n_events = 10, 150
        src = rng.integers(n_nodes - 2, size=n_events)  # the last two nodes stay history-less
        dst = rng.integers(n_nodes - 2, size=n_events)
        t = np.sort(rng.choice(np.arange(30.0), size=n_events))  # many ties
        store = tg.TemporalStore(tg.EventStream(src, dst, t, np.zeros((n_events, 0)),
                                                node_count=n_nodes))
        nodes = rng.integers(n_nodes, size=300)
        # query times at event times (strict past excludes the ties), between
        # them, at 0 and past the end
        ts = np.concatenate([rng.choice(t, 150), rng.uniform(0, 32, 146), [0.0, 0.0, 40.0, 1e9]])
        for n_max in (1, 3, 40):  # 40 exceeds every degree
            index, valid = store.recent_windows(nodes, ts, n_max)
            assert index.shape == valid.shape == (300, n_max)
            for i, (node, q) in enumerate(zip(nodes, ts)):
                seq = store.recent_neighbors(int(node), float(q), n_max)
                k = len(seq)
                assert not valid[i, :n_max - k].any() and valid[i, n_max - k:].all()
                rows = index[i, n_max - k:]
                assert np.array_equal(store.neighbor_ids[rows], seq.neighbor_ids)
                assert np.array_equal(store.times[rows], seq.times)
                assert np.array_equal(store.edge_ids[rows], seq.edge_ids)

    def test_rejects_bad_nodes_and_negative_times(self):
        store = tg.TemporalStore(make_stream([(0, 1, 1.0), (0, 2, 2.0)]))
        with pytest.raises(tg.ValidationError, match="node 3"):
            store.recent_windows([0, 3], [1.0, 1.0], 2)
        with pytest.raises(tg.ValidationError, match="node -1"):
            store.recent_windows([-1], [1.0], 2)
        with pytest.raises(tg.ValidationError, match="non-negative"):
            store.recent_windows([0, 1], [1.0, -0.5], 2)

    def test_store_arrays_are_read_only(self):
        store = tg.TemporalStore(make_stream([(0, 1, 1.0)]))
        with pytest.raises(ValueError):
            store.times[0] = 5.0


class TestNegativeSampling:
    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        assert tg.sample_negative(rng, 0, 1, np.array([5, 1])) == 5

    def test_uniform_law(self):
        rng = np.random.default_rng(42)
        candidates = np.array([10, 11, 12])
        counts = {10: 0, 11: 0}
        n = 30_000
        for _ in range(n):
            counts[tg.sample_negative(rng, 0, 12, candidates)] += 1
        assert counts[10] / n == pytest.approx(0.5, abs=0.01)
        assert counts[11] / n == pytest.approx(0.5, abs=0.01)

    def test_empty_support(self):
        rng = np.random.default_rng(0)
        with pytest.raises(tg.SamplingError):
            tg.sample_negative(rng, 0, 3, np.array([3]))
        with pytest.raises(tg.SamplingError, match="destination 3"):
            tg.sample_negative(rng, np.zeros(3), np.array([1, 3, 2]), np.array([3, 3]))

    @staticmethod
    def one_at_a_time(rng, true_dst, candidates):
        out = []
        for d in true_dst:
            valid = candidates[candidates != d]
            out.append(int(valid[rng.integers(len(valid))]))
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_one_call_reproduces_the_per_query_draws(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            candidates = rng.integers(0, 6, size=9)  # unsorted, with repeats
        else:
            candidates = np.unique(rng.integers(0, 30, size=12))
        # true destinations inside and outside the candidate set
        true_dst = rng.integers(-2, candidates.max() + 3, size=200)
        true_dst = true_dst[[np.any(candidates != d) for d in true_dst]]
        loop_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = self.one_at_a_time(loop_rng, true_dst, candidates)
        drawn = tg.sample_negative(batch_rng, np.zeros_like(true_dst), true_dst, candidates)
        assert drawn.tolist() == expected
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
        scalar_rng = np.random.default_rng(seed)
        assert [tg.sample_negative(scalar_rng, 0, int(d), candidates) for d in true_dst] == expected


class TestSynthetic:
    def test_determinism(self):
        spec = tg.SyntheticSpec(n_src=10, n_dst=10, n_events=1000,
                                pattern="periodic", p_repeat=0.9)
        a = tg.generate_synthetic(spec, seed=7)
        b = tg.generate_synthetic(spec, seed=7)
        assert a.src.tobytes() == b.src.tobytes()
        assert a.dst.tobytes() == b.dst.tobytes()
        assert a.t.tobytes() == b.t.tobytes()
        assert a.edge_feats.tobytes() == b.edge_feats.tobytes()

    def test_always_repeat_after_warmup(self):
        spec = tg.SyntheticSpec(n_src=4, n_dst=4, n_events=500,
                                pattern="periodic", p_repeat=1.0)
        stream = tg.generate_synthetic(spec, seed=1)
        prev = {}
        for i in range(len(stream)):
            u, d = int(stream.src[i]), int(stream.dst[i])
            if u in prev:
                assert d == prev[u]
            prev[u] = d

    def test_repeat_fraction(self):
        spec = tg.SyntheticSpec(n_src=10, n_dst=10, n_events=10_000,
                                pattern="periodic", p_repeat=0.9)
        stream = tg.generate_synthetic(spec, seed=5)
        prev, repeats, chances = {}, 0, 0
        for i in range(len(stream)):
            u, d = int(stream.src[i]), int(stream.dst[i])
            if u in prev:
                chances += 1
                repeats += d == prev[u]
            prev[u] = d
        assert repeats / chances == pytest.approx(0.9, abs=0.03)

    @pytest.mark.parametrize("time_step", [float("nan"), float("inf"), -1.0])
    def test_nan_time_step_rejected(self, time_step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(tg.SpecError, match="time_step"):
                tg.SyntheticSpec(n_src=3, n_dst=3, n_events=20, time_step=time_step)

    def test_zero_nodes_rejected(self):
        with pytest.raises(tg.SpecError):
            tg.SyntheticSpec(n_src=0, n_dst=5)

    def test_endpoint_onehot_features(self):
        spec = tg.SyntheticSpec(n_src=3, n_dst=3, n_events=50, pattern="uniform")
        stream = tg.generate_synthetic(spec, seed=2)
        assert stream.edge_dim == 6
        for i in range(len(stream)):
            row = stream.edge_feats[i]
            assert row[stream.src[i]] == 1.0 and row[stream.dst[i]] == 1.0
            assert row.sum() == 2.0
