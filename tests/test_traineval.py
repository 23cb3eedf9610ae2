"""Tests for metrics, evaluation protocol, and the training loop."""

import numpy as np
import pytest

from tempomix import model as md
from tempomix import numcore as nc
from tempomix import tgraph as tg
from tempomix import traineval as te
from oracles import scale


# --- independent brute-force oracles -------------------------------------

def ap_oracle(scores, labels):
    thresholds = sorted(set(scores), reverse=True)
    total_pos = sum(labels)
    ap, prev_recall = 0.0, 0.0
    for th in thresholds:
        tp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 0)
        precision = tp / (tp + fp)
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def auc_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def auc_tie_loop(scores, labels):
    """``auc_roc`` with its tie ranks filled by a loop over the tie groups."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    boundaries = np.nonzero(np.diff(s_sorted))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(s_sorted)]])
    ranks_sorted = np.empty(len(s_sorted))
    for a, b in zip(starts, ends):
        ranks_sorted[a:b] = 0.5 * (a + 1 + b)
    ranks = np.empty_like(ranks_sorted)
    ranks[order] = ranks_sorted
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class TestAveragePrecision:
    def test_worked_fixture(self):
        ap = te.average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert ap == pytest.approx(0.833333, abs=1e-6)

    def test_perfect_ranking(self):
        assert te.average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_second(self):
        assert te.average_precision([0.9, 0.1], [0, 1]) == pytest.approx(0.5)

    def test_no_positives_rejected(self):
        with pytest.raises(te.MetricError):
            te.average_precision([0.3, 0.2], [0, 0])


class TestAucRoc:
    def test_worked_fixture(self):
        assert te.auc_roc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_all_ties_give_half(self):
        assert te.auc_roc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_perfect_separation(self):
        assert te.auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(te.MetricError):
            te.auc_roc([0.3, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.sum() in (0, n):
                continue
            base = te.auc_roc(scores, labels)
            for f in (np.exp, lambda x: 3 * x + 7, lambda x: x ** 3):
                assert te.auc_roc(f(scores), labels) == pytest.approx(base, abs=1e-12)


class TestMetricOracles:
    def test_exhaustive_agreement_on_small_cases(self):
        rng = np.random.default_rng(1)
        score_grid = np.linspace(0, 1, 5)  # coarse grid forces plenty of ties
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            scores = rng.choice(score_grid, size=n)
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.sum() >= 1:
                assert te.average_precision(scores, labels) == pytest.approx(
                    ap_oracle(list(scores), list(labels)), abs=1e-12)
            if 0 < labels.sum() < n:
                assert te.auc_roc(scores, labels) == pytest.approx(
                    auc_oracle(list(scores), list(labels)), abs=1e-12)

    def test_auc_tie_ranks_equal_the_group_loop(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 17, 400, 5000):
            for grid in (2, 7, 10_000):
                scores = rng.integers(0, grid, size=n) / grid
                labels = np.arange(n) % 2
                rng.shuffle(labels)
                assert te.auc_roc(scores, labels) == auc_tie_loop(scores, labels)


def tiny_setup(n_events=600, seed=0, **model_kw):
    spec = tg.SyntheticSpec(n_src=5, n_dst=5, n_events=n_events, pattern="periodic",
                            p_repeat=0.9)
    stream = tg.generate_synthetic(spec, seed=seed)
    defaults = dict(dim=8, time_dim=8, spans=(2,), n_max=5)
    defaults.update(model_kw)
    return stream, md.ModelConfig(**defaults)


class TestEvaluate:
    def test_untrained_model_scores_at_chance(self):
        spec = tg.SyntheticSpec(n_src=10, n_dst=10, n_events=500, pattern="uniform")
        stream = tg.generate_synthetic(spec, seed=2)
        cfg = md.ModelConfig(dim=8, time_dim=8, spans=(2,), n_max=5)
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=3)
        store = tg.TemporalStore(stream)
        ap, auc = te.evaluate(params, stream.slice(0, 500), store,
                              stream.destinations(), seed=4)
        assert ap == pytest.approx(0.5, abs=0.05)
        assert auc == pytest.approx(0.5, abs=0.05)

    def test_oracle_scorer_reaches_one(self, monkeypatch):
        stream, cfg = tiny_setup(n_events=200)
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=5)
        store = tg.TemporalStore(stream)
        split = stream.slice(100, 200)
        truth = {(int(split.src[i]), int(split.dst[i]), float(split.t[i]))
                 for i in range(len(split))}
        monkeypatch.setattr(md, "score_pairs", lambda params, store, pairs: np.array(
            [1.0 if pair in truth else 0.0 for pair in pairs]))
        ap, auc = te.evaluate(params, split, store, stream.destinations(), seed=6)
        assert ap == 1.0
        assert auc == 1.0

    def test_same_seed_identical_metrics(self):
        stream, cfg = tiny_setup(n_events=200)
        params = md.init_params(cfg, stream.node_dim, stream.edge_dim, seed=7)
        store = tg.TemporalStore(stream)
        split = stream.slice(150, 200)
        a = te.evaluate(params, split, store, stream.destinations(), seed=8)
        b = te.evaluate(params, split, store, stream.destinations(), seed=8)
        assert a == b


class TestTrain:
    def test_loss_decreases_on_periodic_stream(self):
        stream, cfg = tiny_setup()
        tcfg = te.TrainConfig(epochs=3, lr=1e-2, batch_size=100, patience=20, seed=0)
        _, report = te.train(stream, cfg, tcfg)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_patience_zero_runs_exactly_one_epoch(self):
        stream, cfg = tiny_setup(n_events=200)
        tcfg = te.TrainConfig(epochs=10, lr=1e-3, batch_size=100, patience=0, seed=1)
        _, report = te.train(stream, cfg, tcfg)
        assert len(report.epoch_losses) == 1
        assert report.best_epoch == 0

    def test_same_seed_identical_loss_curves(self):
        stream, cfg = tiny_setup(n_events=300)
        tcfg = te.TrainConfig(epochs=2, lr=1e-3, batch_size=100, patience=20, seed=2)
        _, r1 = te.train(stream, cfg, tcfg)
        _, r2 = te.train(stream, cfg, tcfg)
        assert r1.epoch_losses == r2.epoch_losses
        assert r1.val_ap == r2.val_ap
        assert (r1.ap, r1.auc_roc) == (r2.ap, r2.auc_roc)

    def test_report_dict_has_contract_keys(self):
        stream, cfg = tiny_setup(n_events=200)
        tcfg = te.TrainConfig(epochs=1, lr=1e-3, batch_size=100, patience=5, seed=3)
        _, report = te.train(stream, cfg, tcfg)
        d = report.to_dict()
        for key in ("ap", "auc_roc", "epoch_losses", "best_epoch", "timing"):
            assert key in d

    def test_non_finite_loss_stops_the_fit(self, monkeypatch):
        stream, cfg = tiny_setup(n_events=200)
        real = md.batch_loss
        monkeypatch.setattr(md, "batch_loss",
                            lambda *args: scale(real(*args), np.nan))
        tcfg = te.TrainConfig(epochs=1, lr=1e-3, batch_size=50, patience=5, seed=3)
        with pytest.raises(nc.NonFiniteError, match=r"loss nan at optimizer step 1 \(epoch 0\)"):
            te.train(stream, cfg, tcfg)

    def test_non_finite_gradient_is_named(self, monkeypatch):
        stream, cfg = tiny_setup(n_events=200)
        real = nc.backward
        steps = []

        def backward(tape, loss):
            grads = real(tape, loss)
            steps.append(1)
            if len(steps) == 2:
                tape.leaves[-1].grad = np.full_like(tape.leaves[-1].grad, np.inf)
            return grads

        monkeypatch.setattr(nc, "backward", backward)
        tcfg = te.TrainConfig(epochs=1, lr=1e-3, batch_size=50, patience=5, seed=3)
        with pytest.raises(nc.NonFiniteError, match=r"'pred.b2' at optimizer step 2 "):
            te.train(stream, cfg, tcfg)

    def test_tiny_stream_rejected(self):
        stream = tg.generate_synthetic(tg.SyntheticSpec(n_events=1), seed=0)
        with pytest.raises((te.ProtocolError, tg.SplitError)):
            te.train(stream, md.ModelConfig(dim=4, time_dim=4, spans=(2,), n_max=3),
                     te.TrainConfig())


class RecordingStream(tg.EventStream):
    """Counts reads of any event-level accessor."""

    def __init__(self, base):
        super().__init__(base.src, base.dst, base.t, base.edge_feats, base.labels,
                         node_count=base.node_count, node_feats=base.node_feats)
        self.reads = 0

    def _tick(self):
        self.reads += 1

    @property
    def src(self):
        self._tick()
        return tg.EventStream.src.fget(self)

    @property
    def dst(self):
        self._tick()
        return tg.EventStream.dst.fget(self)

    @property
    def t(self):
        self._tick()
        return tg.EventStream.t.fget(self)

    @property
    def edge_feats(self):
        self._tick()
        return tg.EventStream.edge_feats.fget(self)


class TestAccessAudit:
    def test_fitting_never_reads_the_test_partition(self):
        stream, cfg = tiny_setup(n_events=300)
        train_split, val_split, test_split = tg.chronological_split(stream, 0.7, 0.15)
        recorded = RecordingStream(test_split)
        fit_stream = stream.slice(0, len(train_split) + len(val_split))
        store = tg.TemporalStore(fit_stream)
        candidates = fit_stream.destinations()
        tcfg = te.TrainConfig(epochs=1, lr=1e-3, batch_size=100, patience=5, seed=4)

        result = te.fit(train_split, val_split, store, candidates, cfg, tcfg)
        assert recorded.reads == 0
        # the fitting store stops strictly before the first test event
        assert store.stream.t.max() < test_split.t.min()

        # sanity: the recorder does count once the test phase touches it
        te.evaluate(result.params, recorded, tg.TemporalStore(stream),
                    candidates, seed=5)
        assert recorded.reads > 0
