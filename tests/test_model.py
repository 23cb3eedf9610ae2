"""Tests for the end-to-end model."""

import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from tempomix import mixers as mx
from tempomix import model as md
from tempomix import numcore as nc
from tempomix import tgraph as tg
from tempomix.encoders import embed_neighbors, time_encode_rows
from oracles import bce_loss, reference_channel_mix


def toy_graph(n_events=6, seed=0, edge_dim=3, node_dim=2, n_nodes=5):
    rng = np.random.default_rng(seed)
    src = rng.integers(n_nodes, size=n_events)
    dst = (src + 1 + rng.integers(n_nodes - 1, size=n_events)) % n_nodes
    t = np.arange(1.0, n_events + 1)
    stream = tg.EventStream(src, dst, t, rng.normal(size=(n_events, edge_dim)),
                            node_count=n_nodes,
                            node_feats=rng.normal(size=(n_nodes, node_dim)))
    return stream, tg.TemporalStore(stream)


VARIANT_FLAGS = {"default": {}, "relu": {"activation": "relu"},
                 "no_resnet": {"no_resnet": True}, "no_cm": {"no_cm": True}}


def small_config(**kw):
    defaults = dict(dim=4, time_dim=6, spans=(2, 4), mixer="adaptive",
                    n_max=4)
    defaults.update(kw)
    return md.ModelConfig(**defaults)


class TestConfig:
    def test_layer_count_limited_to_search_range(self):
        with pytest.raises(nc.ConfigError):
            md.ModelConfig(spans=(2, 4, 8, 16))

    def test_exclusive_ablation_flags(self):
        with pytest.raises(nc.ConfigError):
            md.ModelConfig(no_lp=True, no_rt=True)

    def test_round_trip_dict(self):
        cfg = small_config(mixer="attention", activation="relu")
        assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("mixer", ["pooling", "mlp", "attention"])
    @pytest.mark.parametrize("flag", ["no_lp", "no_rt"])
    def test_pinned_fusion_needs_the_adaptive_mixer(self, mixer, flag):
        with pytest.raises(nc.ConfigError, match=f"{flag}.*{mixer}"):
            md.ModelConfig(mixer=mixer, **{flag: True})


class TestBind:
    @pytest.mark.parametrize("trainable", [True, False])
    def test_pooling_is_an_adaptive_layer_of_constants(self, trainable):
        cfg = small_config(mixer="pooling", spans=(2, 4, 8))
        tape = nc.Tape()
        bound = md.bind(md.init_params(cfg, 2, 3, seed=14), tape, trainable=trainable)
        schedule = mx.OffsetSchedule(cfg.spans)
        for i, (mixer, _) in enumerate(bound.layers):
            k = schedule.kernel_size(i + 1)
            assert isinstance(mixer, mx.AdaptiveLayer)
            np.testing.assert_array_equal(mixer.offsets, np.arange(k))
            assert mixer.order_logits.tape is tape and not mixer.order_logits.want_grad
            assert mixer.order_logits.data.tobytes() == np.zeros((1, k)).tobytes()
            assert mixer.fusion == 1.0


class TestNodeRepr:
    def test_cold_start_is_deterministic(self):
        stream, store = toy_graph()
        cfg = small_config()
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=1)
        # node 4 may have history; use a time before everything instead
        a = md.node_repr(store, 2, 0.5, cfg, params)
        b = md.node_repr(store, 2, 0.5, cfg, params)
        assert a.shape == (4,)
        assert a.tobytes() == b.tobytes()

    def test_single_neighbor_zero_ffn_doubles_embedded_token(self):
        stream, store = toy_graph()
        cfg = small_config(spans=(2,))
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=2)
        for name in ("ff_w1", "ff_b1", "ff_w2", "ff_b2", "ln_bias"):
            params.tensors[f"layer0.{name}"][:] = 0.0
        node, t = int(stream.src[0]), float(stream.t[0]) + 0.5
        seq = store.recent_neighbors(node, t, cfg.n_max)
        assert len(seq) == 1
        bound = md.bind(params, nc.Tape(), trainable=False)
        tokens, _ = embed_neighbors(seq, t, stream, bound.encoder)
        z = md.node_repr(store, node, t, cfg, params)
        np.testing.assert_allclose(z, 2.0 * tokens.data[0], atol=1e-12)

    def test_timestamp_shift_leaves_representation_bit_unchanged(self):
        stream, store = toy_graph(n_events=10)
        shifted_stream = stream.shift_times(512.0)
        shifted_store = tg.TemporalStore(shifted_stream)
        cfg = small_config()
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=3)
        for node in range(stream.node_count):
            a = md.node_repr(store, node, 11.0, cfg, params)
            b = md.node_repr(shifted_store, node, 11.0 + 512.0, cfg, params)
            assert a.tobytes() == b.tobytes()

    def test_attention_invariant_to_neighbor_order_at_equal_times(self):
        # two streams with the same events at one timestamp, differently ordered
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(4, 3))
        order = [0, 1, 2, 3]
        perm = [2, 0, 3, 1]
        def build(ixs):
            return tg.EventStream([0] * 4, [1 + i for i in ixs], [5.0] * 4,
                                  feats[ixs], node_count=5,
                                  node_feats=np.zeros((5, 0)))
        s1, s2 = build(order), build(perm)
        cfg_at = small_config(mixer="attention", spans=(2,), n_max=4)
        params = md.init_params(cfg_at, 0, 3, seed=5)
        za = md.node_repr(tg.TemporalStore(s1), 0, 6.0, cfg_at, params)
        zb = md.node_repr(tg.TemporalStore(s2), 0, 6.0, cfg_at, params)
        np.testing.assert_allclose(za, zb, atol=1e-12)

        cfg_ad = small_config(mixer="adaptive", spans=(2,), n_max=4)
        params_ad = md.init_params(cfg_ad, 0, 3, seed=5)
        params_ad.tensors["layer0.order"][:] = rng.normal(size=(1, 2))
        za = md.node_repr(tg.TemporalStore(s1), 0, 6.0, cfg_ad, params_ad)
        zb = md.node_repr(tg.TemporalStore(s2), 0, 6.0, cfg_ad, params_ad)
        assert not np.allclose(za, zb)


class TestPredictLink:
    def test_all_zero_predictor_gives_half(self):
        cfg = small_config()
        params = md.init_params(cfg, 2, 3, seed=6)
        for name in ("pred.w1", "pred.b1", "pred.w2", "pred.b2"):
            params.tensors[name][:] = 0.0
        assert md.predict_link(np.ones(4), np.ones(4), params) == pytest.approx(0.5)

    def test_constructed_logit_gives_three_quarters(self):
        cfg = small_config(dim=1, spans=(2,))
        params = md.init_params(cfg, 2, 3, seed=7)
        params.tensors["pred.w1"][:] = 0.0
        params.tensors["pred.b1"][:] = np.log(3.0)
        params.tensors["pred.w2"][:] = 1.0
        params.tensors["pred.b2"][:] = 0.0
        assert md.predict_link(np.zeros(1), np.zeros(1), params) == pytest.approx(0.75)

    def test_concatenation_order_matters(self):
        cfg = small_config()
        params = md.init_params(cfg, 2, 3, seed=8)
        rng = np.random.default_rng(9)
        params.tensors["pred.w2"][:] = rng.normal(size=(4, 1))
        zu, zv = rng.normal(size=4), rng.normal(size=4)
        assert md.predict_link(zu, zv, params) != md.predict_link(zv, zu, params)


class TestBceLoss:
    def test_half_half(self):
        assert bce_loss([0.5], [0.5]) == pytest.approx(2 * np.log(2), abs=1e-6)

    def test_perfect_predictions_vanish_from_above(self):
        loss = bce_loss([1.0 - 1e-9], [1e-9])
        assert 0.0 < loss < 1e-8

    def test_inverse_e_contributes_one(self):
        assert bce_loss([1.0 / np.e], []) == pytest.approx(1.0, abs=1e-12)

    def test_empty_inputs_rejected(self):
        with pytest.raises(nc.ContractError):
            bce_loss([], [])

    def test_batch_loss_equals_the_spec_on_scored_pairs(self):
        stream, store, cfg, params, pairs = oracle_fixture(35)
        queries = [(u, v, (v + 2) % 5, t) for u, v, t in pairs]
        pos = md.score_pairs(params, store, [(u, v, t) for u, v, _, t in queries])
        neg = md.score_pairs(params, store, [(u, n, t) for u, _, n, t in queries])
        loss = md.batch_loss(md.bind(params, nc.Tape()), store, queries)
        assert loss.data[0, 0] == pytest.approx(bce_loss(pos, neg), rel=1e-12)


def assert_every_tensor_learns(cfg):
    stream, store = toy_graph(n_events=12, seed=14)
    params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=15)
    w2 = params.tensors["pred.w2"]
    w2[:] = np.random.default_rng(16).normal(size=w2.shape)
    queries = [(int(stream.src[i]), int(stream.dst[i]), int((stream.dst[i] + 1) % 5),
                float(stream.t[i])) for i in range(4, 12)]
    tape = nc.Tape()
    bound = md.bind(params, tape, trainable=True)
    nc.backward(tape, md.batch_loss(bound, store, queries))
    dead = [name for name, value in bound.values.items()
            if value.data.size and not value.grad.any()]
    assert dead == []


class TestFullModelGradients:
    @pytest.mark.parametrize("mixer", ["adaptive", "pooling", "mlp", "attention"])
    def test_batch_loss_matches_finite_differences(self, mixer):
        stream, store = toy_graph(n_events=6, seed=10)
        cfg = small_config(mixer=mixer, spans=(2, 4), n_max=4)
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=11)
        queries = [(int(stream.src[i]), int(stream.dst[i]), int((stream.dst[i] + 1) % 5),
                    float(stream.t[i])) for i in range(3, 6)]

        def f(bound_values):
            bound = md.BoundModel(cfg, bound_values)
            return md.batch_loss(bound, store, queries)

        report = nc.grad_check(f, params.tensors, h=1e-5)
        assert report.max_rel_error <= 1e-4, f"{mixer}: {report.max_rel_error}"

    @pytest.mark.parametrize("variant", ["default", "relu", "no_resnet", "no_cm"])
    @pytest.mark.parametrize("mixer", md.MIXERS)
    def test_every_tensor_learns(self, mixer, variant):
        """Aim 3 for parameters: one backward of an initialised model, with a
        drawn ``pred.w2``, reaches every non-empty tensor it holds."""
        assert_every_tensor_learns(small_config(mixer=mixer, **VARIANTS[variant]))

    @pytest.mark.parametrize("flag", ["no_lp", "no_rt"])
    def test_every_tensor_learns_at_pinned_fusion(self, flag):
        assert_every_tensor_learns(small_config(**{flag: True}))

    def test_saturated_predictor_still_gets_gradient(self):
        stream, store, cfg, params, pairs = oracle_fixture(32)
        params.tensors["pred.w2"][:] = 0.0
        params.tensors["pred.b2"][:] = -40.0  # every pair scores sigmoid(-40)
        queries = [(u, v, (v + 2) % 5, t) for u, v, t in pairs]
        tape = nc.Tape()
        bound = md.bind(params, tape, trainable=True)
        nc.backward(tape, md.batch_loss(bound, store, queries))
        b = len(queries)
        sig = 1.0 / (1.0 + np.exp(40.0))
        assert bound.values["pred.b2"].grad[0, 0] == pytest.approx(-b + 2 * b * sig,
                                                                   abs=1e-12)


# (mixer, flags, seed): the 4 mixers under each variant, the pinned fusions
# and one 3-layer stack, each at a seeded point where every tensor it holds
# gets a nonzero gradient
GENERIC_POINTS = {f"{mixer}-{variant}": (mixer, flags, 40) for mixer in md.MIXERS
                  for variant, flags in VARIANT_FLAGS.items()}
GENERIC_POINTS.update({"adaptive-no_lp": ("adaptive", {"no_lp": True}, 40),
                       "adaptive-no_rt": ("adaptive", {"no_rt": True}, 40),
                       "adaptive-3_layers": ("adaptive", {"spans": (2, 4, 8), "n_max": 8}, 40)})


class TestGenericPointGradients:
    """The composed model (window gather, input tables, layer stack, readout,
    predictor) against central differences for every tensor, at a point
    where every tensor is moved off its initializer by a normal draw, as
    ``oracle_fixture`` does. At init the zero ``pred.w2`` cuts every other
    tensor off the loss, so there the check compares zeros."""

    @staticmethod
    def point(mixer, flags, seed):
        cfg = small_config(mixer=mixer, **flags)
        stream, store = toy_graph(n_events=24, seed=seed)
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        tensors = {name: arr + 0.3 * rng.normal(size=arr.shape)
                   for name, arr in params.tensors.items()}
        queries = [(int(stream.src[i]), int(stream.dst[i]), int((stream.dst[i] + 1) % 5),
                    float(stream.t[i])) for i in range(21, 24)]
        return cfg, store, tensors, queries

    @pytest.mark.parametrize("mixer,flags,seed", GENERIC_POINTS.values(), ids=GENERIC_POINTS)
    def test_every_tensor_matches_finite_differences(self, mixer, flags, seed):
        cfg, store, tensors, queries = self.point(mixer, flags, seed)

        def f(values):
            return md.batch_loss(md.BoundModel(cfg, values), store, queries)

        tape = nc.Tape()
        values = {name: tape.leaf(arr) for name, arr in tensors.items()}
        nc.backward(tape, f(values))
        assert [name for name, v in values.items() if v.data.size and not v.grad.any()] == []
        report = nc.grad_check(f, tensors, h=1e-5)
        assert report.max_rel_error <= 1e-4, report.max_rel_error

    def test_the_check_sees_a_dead_tensor(self):
        """At the zero ``pred.w2`` of init the nonzero-gradient assertion fails."""
        cfg, store, tensors, queries = self.point("adaptive", {}, 40)
        tensors["pred.w2"][:] = 0.0
        tape = nc.Tape()
        values = {name: tape.leaf(arr) for name, arr in tensors.items()}
        nc.backward(tape, md.batch_loss(md.BoundModel(cfg, values), store, queries))
        assert "layer0.ff_w1" in [name for name, v in values.items() if not v.grad.any()]


def reference_inputs(store, keys, cfg):
    """The per-key assembly loop the batched path replaced: its exact oracle.

    Returns the padded times, the pad counts and the time, node and edge
    input rows (``None`` for an absent feature kind).
    """
    stream = store.stream
    n = cfg.n_max
    r = len(keys)
    seqs = [store.recent_neighbors(node, t, n) for node, t in keys]
    pads = np.array([n - len(s) if len(s) else n - 1 for s in seqs], dtype=np.int64)
    times = np.empty((r, n))
    te_rows = np.zeros((r * n, cfg.time_dim))
    nf_rows = np.zeros((r * n, stream.node_dim)) if stream.node_dim else None
    ef_rows = np.zeros((r * n, stream.edge_dim)) if stream.edge_dim else None
    for i, ((node, t), seq) in enumerate(zip(keys, seqs)):
        base = i * n
        pad = pads[i]
        if len(seq):
            times[i, :pad] = seq.times[0]
            times[i, pad:] = seq.times
            te_rows[base + pad:base + n] = time_encode_rows(t - seq.times, cfg.time_dim)
            if nf_rows is not None:
                nf_rows[base + pad:base + n] = stream.node_feats[seq.neighbor_ids]
            if ef_rows is not None:
                ef_rows[base + pad:base + n] = stream.edge_feats[seq.edge_ids]
        else:
            times[i, :] = t  # single all-zero token, mirroring the padding row
    return times, pads, te_rows, nf_rows, ef_rows


def reference_reprs(bound, store, keys, tables=None):
    """Drop-in for ``model._batched_reprs`` built on ``reference_inputs``: the
    padded input matrices, each multiplied by its encoder weight."""
    cfg = bound.config
    times, pads, te_rows, nf_rows, ef_rows = reference_inputs(store, keys, cfg)
    tape = bound.tape
    tokens = nc.matmul(tape.constant(te_rows), bound.encoder.w_time)
    if nf_rows is not None:
        tokens = nc.add(tokens, nc.matmul(tape.constant(nf_rows), bound.encoder.w_node))
    if ef_rows is not None:
        tokens = nc.add(tokens, nc.matmul(tape.constant(ef_rows), bound.encoder.w_edge))
    for mixer, channel in bound.layers:
        mixed = mx.token_mix(tokens, times, mixer, pad_lens=pads)
        h = mixed if cfg.no_resnet else nc.add(tokens, mixed)
        tokens = h if cfg.no_cm else reference_channel_mix(h, channel, cfg.activation,
                                                           residual=not cfg.no_resnet)
    return nc.mean_rows_blocks(tokens, cfg.n_max, pads)


def oracle_fixture(seed, node_dim=2, edge_dim=3, **cfg_kw):
    """Tied timestamps, two history-less nodes and keys at t = 0."""
    rng = np.random.default_rng(seed)
    n_nodes, n_events = 7, 40
    src = rng.integers(n_nodes - 2, size=n_events)
    dst = (src + 1 + rng.integers(n_nodes - 3, size=n_events)) % (n_nodes - 2)
    t = np.sort(rng.choice(np.arange(12.0), size=n_events))
    stream = tg.EventStream(src, dst, t, rng.normal(size=(n_events, edge_dim)),
                            node_count=n_nodes,
                            node_feats=rng.normal(size=(n_nodes, node_dim)))
    cfg = small_config(**{"n_max": 6, **cfg_kw})
    params = md.init_params(cfg, node_dim, edge_dim, seed=seed + 1)
    for name, arr in params.tensors.items():
        params.tensors[name] = arr + 0.3 * rng.normal(size=arr.shape)
    pairs = [(int(u), int(v), float(tt)) for u, v, tt in zip(src, dst, t)]
    pairs += [(5, 0, 0.0), (6, 5, 4.0), (1, 6, 0.0), (2, 3, 12.5)]
    return stream, tg.TemporalStore(stream), cfg, params, pairs


class RecordingTape(nc.Tape):
    """A tape that keeps a copy of every constant it wraps."""

    def __init__(self):
        super().__init__()
        self.constants = []

    def constant(self, data):
        self.constants.append(np.array(data))
        return super().constant(data)


def record_gathers(monkeypatch):
    """Spy on ``numcore.gather_rows``: the returned list gets each call's indices."""
    calls = []
    real = nc.gather_rows

    def spy(a, indices):
        calls.append(np.array(indices))
        return real(a, indices)

    monkeypatch.setattr(nc, "gather_rows", spy)
    return calls


def real_gaps(store, keys, n_max):
    """Every real token's time gap, by the per-key window query."""
    return np.concatenate([t - store.recent_neighbors(node, t, n_max).times
                           for node, t in keys])


def pad_slots_of(store, keys, n_max):
    """Row-major mask of the pad slots in the keys' padded windows."""
    _, valid = store.recent_windows(np.array([node for node, _ in keys]),
                                    np.array([t for _, t in keys]), n_max)
    return ~valid.reshape(-1)


ENCODERS = ("enc.time", "enc.node", "enc.edge")


class TestBatchedAssemblyOracle:
    @pytest.mark.parametrize("node_dim,edge_dim", [(2, 3), (0, 4), (3, 0)])
    def test_inputs_equal_the_per_key_loop(self, monkeypatch, node_dim, edge_dim):
        stream, store, cfg, params, pairs = oracle_fixture(30, node_dim, edge_dim)
        keys = list(dict.fromkeys(k for u, v, t in pairs for k in ((u, t), (v, t))))
        seen = []

        def spy(tokens, times, *args, pad_lens=None, **kwargs):
            seen.append((times, pad_lens))
            return block(tokens, times, *args, pad_lens=pad_lens, **kwargs)

        block = mx.token_block
        monkeypatch.setattr(md.mx, "token_block", spy)
        gathers = record_gathers(monkeypatch)
        tape = RecordingTape()
        md._batched_reprs(md.bind(params, tape, trainable=True), store, keys)
        times, pads, *rows = reference_inputs(store, keys, cfg)
        assert np.array_equal(seen[0][0], times)
        assert np.array_equal(seen[0][1], pads)
        expected = [r for r in rows if r is not None]
        # one table of input rows per kind, then one lookup per kind
        assert len(tape.constants) == len(expected)
        pad_slots = pad_slots_of(store, keys, cfg.n_max)
        for table, index, want in zip(tape.constants, gathers, expected):
            assert not table[-1].any()  # the zero row
            assert (index[pad_slots] == len(table) - 1).all()
            assert len(np.unique(table[:-1], axis=0)) == len(table) - 1  # each input once
            assert np.array_equal(table[index], want)
        assert pads.max() == cfg.n_max - 1  # history-less keys are present

    @pytest.mark.parametrize("cfg_kw", [{}, {"no_resnet": True, "spans": (2, 4, 8)},
                                        {"no_cm": True, "activation": "relu"}])
    def test_scores_loss_and_gradients_equal_the_per_key_loop(self, monkeypatch, cfg_kw):
        stream, store, cfg, params, pairs = oracle_fixture(31, **cfg_kw)
        queries = [(u, v, (v + 2) % 5, t) for u, v, t in pairs]

        def run():
            scores = md.score_pairs(params, store, pairs)
            tape = nc.Tape()
            bound = md.bind(params, tape, trainable=True)
            loss = md.batch_loss(bound, store, queries)
            return scores, loss.data.copy(), nc.backward(tape, loss)

        fast = run()
        monkeypatch.setattr(md, "_batched_reprs", reference_reprs)
        slow = run()
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])
        assert len(fast[2]) == len(slow[2]) == len(params.tensors)
        for name, a, b in zip(params.tensors, fast[2], slow[2]):
            if name in ENCODERS:
                # the encoder weights' gradients are summed per table row first
                assert max_abs_diff(a, b) <= 1e-12 * np.abs(b).max(), name
            else:
                assert np.array_equal(a, b), name


class TestInputTables:
    def test_scoring_encodes_each_distinct_gap_of_the_split_once(self, monkeypatch):
        stream, store, cfg, params, pairs = oracle_fixture(40)
        keys, _, _ = md._key_index([((u, t), (v, t)) for u, v, t in pairs])
        monkeypatch.setattr(md, "SCORE_BLOCK_ROWS", 4)  # one key per block
        monkeypatch.setattr(nc, "_ROW_CHUNK", 4)  # chunks of at least 2 input rows
        blocks = count_batched_calls(monkeypatch)
        encoded = []
        real = md.time_encode_rows

        def spy(dts, time_dim, out=None):
            encoded.append(np.array(dts))
            return real(dts, time_dim, out=out)

        monkeypatch.setattr(md, "time_encode_rows", spy)
        md.score_pairs(params, store, pairs)
        distinct = np.unique(real_gaps(store, keys, cfg.n_max))
        assert len(blocks) == len(keys) >= 3
        # near-equal chunks of the distinct gaps and the zero row, each of at
        # most SCORE_BLOCK_ROWS * dim input floats, but never under 2 rows
        most = max(md.SCORE_BLOCK_ROWS * cfg.dim // cfg.time_dim, nc._ROW_CHUNK // 2)
        assert len(encoded) == -(-(len(distinct) + 1) // most) >= 2
        assert np.array_equal(np.concatenate(encoded), distinct)

    def test_every_input_chunk_fits_one_block(self, monkeypatch):
        # edge features three times wider than dim; query times off the event
        # grid, so that nearly every token has a gap of its own
        stream, store = toy_graph(n_events=1500, seed=44, edge_dim=12, node_dim=2, n_nodes=20)
        cfg = small_config(n_max=6)
        params = md.init_params(cfg, 2, 12, seed=45)
        rng = np.random.default_rng(46)
        pairs = [(int(u), int(v), float(t)) for u, v, t in
                 zip(stream.src, stream.dst, stream.t + rng.uniform(0, 1, size=len(stream)))]
        tapes = []

        def recording_tape():
            tapes.append(RecordingTape())
            return tapes[-1]

        monkeypatch.setattr(md, "Tape", recording_tape)
        projected = []
        real = md._input_tables

        def spy(distinct_kinds):
            tables = real(distinct_kinds)
            projected.append([table.data.view(np.int64).copy() for _, table in tables])
            return tables

        monkeypatch.setattr(md, "_input_tables", spy)
        monkeypatch.setattr(md, "SCORE_BLOCK_ROWS", 10**6)  # one chunk per table
        md.score_pairs(params, store, pairs)
        monkeypatch.setattr(md, "SCORE_BLOCK_ROWS", 512)
        md.score_pairs(params, store, pairs)
        # the chunks' projected rows have the bits of one product per table
        assert all(np.array_equal(a, b) for a, b in zip(*projected, strict=True))
        floor = nc._ROW_CHUNK // 2
        for width in (cfg.time_dim, stream.node_dim, stream.edge_dim):
            # one-row constants are scoring's parameters
            table, = [c for c in tapes[0].constants if c.shape[1] == width and len(c) > 1]
            chunks = [c for c in tapes[1].constants if c.shape[1] == width and len(c) > 1]
            assert np.array_equal(np.concatenate(chunks), table)
            assert all(c.size <= max(md.SCORE_BLOCK_ROWS * cfg.dim, floor * width)
                       for c in chunks)
            most = max(md.SCORE_BLOCK_ROWS * cfg.dim // width, floor)
            assert len(chunks) == -(-len(table) // most)
            assert len(chunks) == 1 or min(len(c) for c in chunks) >= floor // 2
            assert (len(chunks) >= 2) == (width != stream.node_dim)  # 21 node rows

    def test_no_input_matrix_has_a_row_per_token(self, monkeypatch):
        stream, store, cfg, params, pairs = oracle_fixture(41)
        widths = {cfg.time_dim, stream.node_dim, stream.edge_dim}
        keys, _, _ = md._key_index([((u, t), (v, t)) for u, v, t in pairs])
        tapes = []

        def recording_tape():
            tapes.append(RecordingTape())
            return tapes[-1]

        monkeypatch.setattr(md, "Tape", recording_tape)
        md.score_pairs(params, store, pairs)
        md._batched_reprs(md.bind(params, recording_tape(), trainable=True), store, keys)
        assert len(tapes) == 2
        for tape in tapes:
            # one table per input kind; one-row constants are scoring's parameters
            inputs = [c for c in tape.constants if c.shape[1] in widths and len(c) > 1]
            assert len(inputs) == 3
            assert all(len(c) < len(keys) for c in inputs)
            assert all(len(c) != len(keys) * cfg.n_max for c in tape.constants)

    def test_pad_tokens_are_exact_zeros(self, monkeypatch):
        stream, store, cfg, params, pairs = oracle_fixture(42)
        keys, _, _ = md._key_index([((u, t), (v, t)) for u, v, t in pairs])
        seen = []
        block = mx.token_block

        def spy(tokens, *args, **kwargs):
            seen.append(tokens.data.copy())
            return block(tokens, *args, **kwargs)

        monkeypatch.setattr(md.mx, "token_block", spy)
        md._batched_reprs(md.bind(params, nc.Tape(), trainable=True), store, keys)
        pad_slots = pad_slots_of(store, keys, cfg.n_max)
        assert pad_slots.any() and (~pad_slots).any()
        assert (seen[0][pad_slots] == 0.0).all()
        assert (seen[0][~pad_slots] != 0.0).any(axis=1).all()

    def test_encoder_gradients_match_finite_differences(self):
        stream, store, cfg, params, pairs = oracle_fixture(43)
        queries = [(u, v, (v + 2) % 5, t) for u, v, t in pairs]
        keys, _, _ = md._key_index([((u, t), (v, t)) for u, v, _, t in queries]
                                   + [((u, t), (n, t)) for u, _, n, t in queries])
        assert any(t == 0.0 for _, t in keys)
        assert 0 in [len(store.recent_neighbors(node, t, cfg.n_max)) for node, t in keys]
        encoders = {name: params.tensors[name] for name in ENCODERS}

        def f(values):
            tape = values["enc.time"].tape
            rest = {k: tape.constant(v) for k, v in params.tensors.items()
                    if k not in values}
            return md.batch_loss(md.BoundModel(cfg, {**rest, **values}), store, queries)

        report = nc.grad_check(f, encoders, h=1e-5)
        assert report.max_rel_error <= 1e-4, report.max_rel_error


def per_sequence_reprs(bound, store, keys, tables=None):
    """Drop-in for ``model._batched_reprs`` that runs ``node_repr_value``, the
    per-sequence path, once per key."""
    return nc.concat_rows([md.node_repr_value(bound, store, node, t) for node, t in keys])


def max_abs_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


VARIANTS = VARIANT_FLAGS


class TestEveryMixerMatchesThePerSequencePath:
    @pytest.mark.parametrize("n_max", [1, 3, 6])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("mixer", ["adaptive", "pooling", "mlp", "attention"])
    def test_scores_loss_and_gradients(self, monkeypatch, mixer, variant, n_max):
        stream, store, cfg, params, pairs = oracle_fixture(
            36, mixer=mixer, n_max=n_max, spans=(2, 3), **VARIANTS[variant])
        keys, _, _ = md._key_index([((u, t), (v, t)) for u, v, t in pairs])
        lens = [len(store.recent_neighbors(node, t, n_max)) for node, t in keys]
        assert 0 in lens and (n_max == 1 or min(l for l in lens if l) < n_max)
        assert any(t == 0.0 for _, t in keys)
        queries = [(u, v, (v + 2) % 5, t) for u, v, t in pairs]

        def run():
            scores = md.score_pairs(params, store, pairs)
            tape = nc.Tape()
            bound = md.bind(params, tape, trainable=True)
            loss = md.batch_loss(bound, store, queries)
            return scores, loss.data[0, 0], nc.backward(tape, loss)

        fast = run()
        monkeypatch.setattr(md, "_batched_reprs", per_sequence_reprs)
        slow = run()
        assert max_abs_diff(fast[0], slow[0]) <= 1e-12
        assert fast[1] == pytest.approx(slow[1], rel=1e-12, abs=1e-12)
        assert len(fast[2]) == len(slow[2]) == len(params.tensors)
        if mixer == "mlp":
            # history-less keys feed LayerNorm exactly constant rows, whose
            # 1/sqrt(LN_EPS) = 1e6 scale amplifies the roundoff of the two
            # paths' different matmul shapes (up to 4e-10 of the largest
            # entry over four fixture seeds); without the channel mixer they
            # agree to 1e-15
            largest = max(np.abs(b).max() for b in slow[2])
            for name, a, b in zip(params.tensors, fast[2], slow[2]):
                assert max_abs_diff(a, b) <= 1e-8 * largest, name
        else:
            for name, a, b in zip(params.tensors, fast[2], slow[2]):
                assert max_abs_diff(a, b) <= 1e-12 * np.abs(b).max(), name


class TestPadInvariance:
    @pytest.mark.parametrize("mixer", ["attention", "pooling"])
    def test_pad_rows_never_reach_real_rows(self, mixer):
        stream, store, cfg, params, pairs = oracle_fixture(37, mixer=mixer, spans=(3,))
        rng = np.random.default_rng(38)
        n, d = cfg.n_max, cfg.dim
        pads = np.array([0, 2, n - 1, 1])
        times = np.sort(rng.uniform(0, 9, size=(len(pads), n)), axis=1)
        h = rng.normal(size=(len(pads), n, d))
        pad_rows = np.arange(n)[None, :] < pads[:, None]
        bound = md.bind(params, nc.Tape(), trainable=False)
        mixer_layer = bound.layers[0][0]

        def mix(tokens):
            tape_tokens = bound.tape.constant(tokens.reshape(-1, d))
            out = mx.token_mix(tape_tokens, times, mixer_layer, cfg.activation, pads)
            return out.data.reshape(len(pads), n, d)

        base = mix(h)
        h[pad_rows] = rng.normal(scale=50.0, size=(int(pad_rows.sum()), d))
        assert np.array_equal(mix(h)[~pad_rows], base[~pad_rows])


def one_shot_scores(params, store, pairs):
    """``score_pairs`` with every distinct key in a single ``_batched_reprs`` call."""
    bound = md.bind(params, nc.Tape(), trainable=False)
    keys, left, right = md._key_index([((u, t), (v, t)) for u, v, t in pairs])
    reprs = md._batched_reprs(bound, store, keys)
    return nc.sigmoid(md._pair_logits(bound, reprs, left, right)).data[:, 0]


def count_batched_calls(monkeypatch):
    """Spy on ``model._batched_reprs``: the returned list gets each call's key count."""
    calls = []
    real = md._batched_reprs

    def spy(bound, store, keys, tables=None):
        calls.append(len(keys))
        return real(bound, store, keys, tables)

    monkeypatch.setattr(md, "_batched_reprs", spy)
    return calls


class TestBlockedScoring:
    @pytest.mark.parametrize("one_key_blocks", [False, True])
    def test_blocks_equal_one_shot_and_respect_the_row_budget(self, monkeypatch,
                                                              one_key_blocks):
        stream, store, cfg, params, pairs = oracle_fixture(33)
        keys, _, _ = md._key_index([((u, t), (v, t)) for u, v, t in pairs])
        assert {(5, 0.0), (6, 4.0), (1, 0.0)} <= set(keys)  # history-less, t = 0
        per_block = 1 if one_key_blocks else (len(keys) - 1) // 3
        assert len(keys) % per_block or one_key_blocks  # a partial last block
        budget = 1 if one_key_blocks else per_block * cfg.n_max + cfg.n_max - 1
        monkeypatch.setattr(md, "SCORE_BLOCK_ROWS", budget)
        want = one_shot_scores(params, store, pairs)
        calls = count_batched_calls(monkeypatch)
        got = md.score_pairs(params, store, pairs)
        assert np.array_equal(got, want)
        assert len(calls) >= 3 and sum(calls) == len(keys)
        assert max(calls) == per_block
        assert max(calls) * cfg.n_max <= max(md.SCORE_BLOCK_ROWS, cfg.n_max)

    def test_peak_memory_grows_only_with_the_outputs(self, monkeypatch):
        # an integer time grid and no edge features: the distinct gaps and
        # neighbors, so the input tables, are the same for any number of pairs
        rng = np.random.default_rng(50)
        n_nodes, n_events = 30, 400
        src = rng.integers(n_nodes, size=n_events)
        dst = (src + 1 + rng.integers(n_nodes - 1, size=n_events)) % n_nodes
        t = np.sort(rng.integers(0, 100, size=n_events)).astype(float)
        stream = tg.EventStream(src, dst, t, np.zeros((n_events, 0)), node_count=n_nodes,
                                node_feats=rng.normal(size=(n_nodes, 3)))
        store = tg.TemporalStore(stream)
        cfg = small_config(n_max=32)
        params = md.init_params(cfg, 3, 0, seed=51)
        monkeypatch.setattr(md, "SCORE_BLOCK_ROWS", 16 * cfg.n_max)  # 16 keys per block

        def traced_peak(run):
            run()  # warm
            tracemalloc.start()
            try:
                out = run()
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        sizes = []
        for n in (300, 1200):
            u = rng.integers(n_nodes, size=n)
            v = (u + 1 + rng.integers(n_nodes - 1, size=n)) % n_nodes
            pairs = [(int(a), int(b), float(c))
                     for a, b, c in zip(u, v, rng.integers(0, 120, size=n))]
            index_peak, (keys, _, _) = traced_peak(
                lambda: md._key_index([((a, c), (b, c)) for a, b, c in pairs]))
            peak, _ = traced_peak(lambda: md.score_pairs(params, store, pairs))
            sizes.append((len(pairs), len(keys), index_peak, peak))
        (p0, k0, i0, s0), (p1, k1, i1, s1) = sizes
        assert k1 >= 3 * k0
        # the key index's own objects, the keys' representations, and a few
        # floats per pair; the windows of all keys (k x n_max) would be more
        allowed = (i1 - i0) + (k1 - k0) * cfg.dim * 8 + (p1 - p0) * 3 * 8
        assert s1 - s0 <= allowed, (s1 - s0, allowed)

    def test_batch_loss_builds_one_graph(self, monkeypatch):
        stream, store, cfg, params, pairs = oracle_fixture(34)
        monkeypatch.setattr(md, "SCORE_BLOCK_ROWS", cfg.n_max)
        calls = count_batched_calls(monkeypatch)
        queries = [(u, v, (v + 2) % 5, t) for u, v, t in pairs]
        md.batch_loss(md.bind(params, nc.Tape(), trainable=True), store, queries)
        assert len(calls) == 1 and calls[0] > 1


class TestBatchedPath:
    def test_batched_scores_match_per_sequence_path(self):
        stream, store = toy_graph(n_events=12, seed=20)
        cfg = small_config(spans=(2, 4), n_max=4)
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=21)
        params.tensors["pred.w2"][:] = np.random.default_rng(22).normal(size=(4, 1))
        # queries cover empty histories, short histories, and truncation
        pairs = [(int(stream.src[i]), int(stream.dst[i]), float(stream.t[i]) + 0.5)
                 for i in range(len(stream))]
        fast = md.score_pairs(params, store, pairs)
        bound = md.bind(params, nc.Tape(), trainable=False)
        slow = []
        for u, v, t in pairs:
            zu = md.node_repr_value(bound, store, u, t)
            zv = md.node_repr_value(bound, store, v, t)
            slow.append(float(md.predict_link_value(bound, zu, zv).data[0, 0]))
        np.testing.assert_allclose(fast, slow, atol=1e-12)


ENC = ["enc.node", "enc.edge", "enc.time"]
CHANNEL = ["ln_gain", "ln_bias", "ff_w1", "ff_b1", "ff_w2", "ff_b2"]
PRED = ["pred.w1", "pred.b1", "pred.w2", "pred.b2"]


def layer_names(*own, channel=CHANNEL):
    return [f"layer{i}.{n}" for i in range(2) for n in [*own, *channel]]


def variant_config(variant):
    """``small_config`` of a "mixer" or "mixer-flag" variant name."""
    mixer, _, flag = variant.partition("-")
    return small_config(mixer=mixer, **({flag: True} if flag else {}))


# per variant, the layer tensors' names in draw order and the sha256 of all
# tensors' bytes, recorded with numpy 2.4.6: a change to the draw order or to
# an initializer changes a digest. A part switched off draws no tensor: the
# no_lp and no_rt digests equal those of the parent's kept tensors, since
# order and fuse are constant fills, while no_cm's later draws shift.
INIT_DRAWS = {
    "adaptive": (layer_names("order", "fuse"),
                 "52f0196a8a4b6f262ec0116f24fb40fd1ab20213389c904d7f4e5eb14d6e0762"),
    "pooling": (layer_names(),
                "ef4836a2b7e08bf13b0f1bb7e2de140e88619a32a93e2c05d89ffdf43ebfb546"),
    "mlp": (layer_names("tw1", "tb1", "tw2", "tb2"),
            "dc50ca1fcedeea9277c9504520b29565c52e43c5c3235312904e8b44cffce8ee"),
    "attention": (layer_names("wq", "wk", "wv", "wo"),
                  "5c7979fc77f1f9059a471676f76d43af86ba1ae5893b1a475cb68bc2382ff667"),
    "adaptive-no_cm": (layer_names("order", "fuse", channel=[]),
                       "7a7671b1c12c76b34d16ba2507274a864933a88deea3a4201f8b9bfb1da43315"),
    "adaptive-no_lp": (layer_names(),
                       "ef4836a2b7e08bf13b0f1bb7e2de140e88619a32a93e2c05d89ffdf43ebfb546"),
    "adaptive-no_rt": (layer_names("order"),
                       "0be52f909e1988fb415b2896acd016d1d557031cc1cf28608831f9ac88c532c2"),
}


class TestInitDraws:
    @pytest.mark.parametrize("variant", INIT_DRAWS)
    def test_names_order_and_bytes_are_pinned(self, variant):
        params = md.init_params(variant_config(variant), 2, 3, seed=12)
        names, digest = INIT_DRAWS[variant]
        assert list(params.tensors) == ENC + names + PRED
        data = b"".join(arr.tobytes() for arr in params.tensors.values())
        assert hashlib.sha256(data).hexdigest() == digest


class TestCheckpoint:
    @pytest.mark.parametrize("variant", [*md.MIXERS, *(f"{m}-no_cm" for m in md.MIXERS),
                                         "adaptive-no_lp", "adaptive-no_rt"])
    def test_round_trip_is_bit_exact(self, tmp_path, variant):
        cfg = variant_config(variant)
        params = md.init_params(cfg, 2, 3, seed=12)
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(params, path)
        loaded = md.load_checkpoint(path)
        assert loaded.config == cfg
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()

    def test_file_has_the_pure_python_encoder_bytes(self, tmp_path):
        params = md.init_params(small_config(), 2, 3, seed=12)
        awkward = [-0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.1, 0.30000000000000004,
                   1.2345678901234567, -9.8765432109876543e-17, 2.0**-1074 * 3, 1.0]
        flat = params.tensors["layer0.ff_w1"].reshape(-1)
        flat[:len(awkward)] = awkward
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(params, path)
        text = path.read_text(encoding="utf-8")
        # the file's own document, written again by the pure-Python encoder
        # (json.dump to a file), gives the same bytes
        again = io.StringIO()
        json.dump(json.loads(text), again, sort_keys=True)
        assert text == again.getvalue() + "\n"
        loaded = md.load_checkpoint(path).tensors["layer0.ff_w1"]
        assert loaded.tobytes() == params.tensors["layer0.ff_w1"].tobytes()
        assert "-0.0," in text and "5e-324" in text and "1e+300" in text

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_refused_by_name(self, tmp_path, bad):
        params = md.init_params(small_config(), 2, 3, seed=12)
        params.tensors["layer1.ff_b1"][0, 2] = bad
        path = tmp_path / "ckpt.json"
        with pytest.raises(nc.NonFiniteError, match="'layer1.ff_b1'"):
            md.save_checkpoint(params, path)
        assert not path.exists()

    def test_effective_fusion_reported(self, tmp_path):
        cfg = small_config(no_lp=True)
        params = md.init_params(cfg, 2, 3, seed=13)
        assert md.effective_fusions(params) == [0.0, 0.0]
        cfg2 = small_config(no_rt=True)
        params2 = md.init_params(cfg2, 2, 3, seed=13)
        assert md.effective_fusions(params2) == [1.0, 1.0]
        cfg3 = small_config()
        params3 = md.init_params(cfg3, 2, 3, seed=13)
        assert md.effective_fusions(params3) == [0.5, 0.5]
        params4 = md.init_params(small_config(mixer="pooling"), 2, 3, seed=13)
        assert md.effective_fusions(params4) == []
