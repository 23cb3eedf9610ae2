"""Training loop, ranking metrics, and the transductive evaluation protocol.

Training iterates chronological batches with one fresh uniform negative per
positive, optimizes the summed cross-entropy with Adam, early-stops on
validation average precision, and restores the best epoch's parameters.
Validation and test negatives come from a fixed seed so runs are comparable
epoch to epoch and byte-reproducible end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import model as md
from . import numcore as nc
from . import tgraph as tg

__all__ = [
    "MetricError",
    "ProtocolError",
    "TrainConfig",
    "MetricsReport",
    "average_precision",
    "auc_roc",
    "evaluate",
    "fit",
    "fit_partition",
    "train",
]

TRAIN_RATIO, VAL_RATIO = 0.7, 0.15
VAL_SEED_TAG, TEST_SEED_TAG = 900001, 900002


class MetricError(ValueError):
    """A ranking metric is undefined for the given labels."""


class ProtocolError(ValueError):
    """The training or evaluation protocol cannot run on this input."""


@dataclass
class TrainConfig:
    epochs: int = 100
    lr: float = 1e-4
    batch_size: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ProtocolError("epochs and batch_size must be positive")
        if not 0.0 < self.lr < np.inf:
            raise ProtocolError(f"lr must be positive and finite, got {self.lr}")
        if self.patience < 0 or self.seed < 0:
            raise ProtocolError("patience and seed must be non-negative")


@dataclass
class MetricsReport:
    """Per-epoch curves plus final test metrics; ``timing`` is wall-clock."""

    epoch_losses: list = field(default_factory=list)
    val_ap: list = field(default_factory=list)
    val_auc_roc: list = field(default_factory=list)
    best_epoch: int = -1
    ap: float = float("nan")
    auc_roc: float = float("nan")
    timing: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "auc_roc": self.auc_roc,
            "epoch_losses": list(self.epoch_losses),
            "best_epoch": self.best_epoch,
            "val_ap": list(self.val_ap),
            "val_auc_roc": list(self.val_auc_roc),
            "timing": dict(self.timing),
        }


def average_precision(scores, labels) -> float:
    """Step-interpolated average precision with tied scores grouped."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be equal-length vectors")
    n_pos = labels.sum()
    if n_pos == 0:
        raise MetricError("average precision is undefined without positives")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    ends = np.append(np.nonzero(np.diff(s))[0], len(s) - 1)
    tp = np.cumsum(y)[ends]
    fp = np.cumsum(1.0 - y)[ends]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))


def auc_roc(scores, labels) -> float:
    """Mann-Whitney statistic: P(random positive outranks random negative),
    ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be equal-length vectors")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC-ROC is undefined with a single class")
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    boundaries = np.nonzero(np.diff(s_sorted))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(s_sorted)]])
    # every member of a tie group gets the group's average 1-based rank
    ranks_sorted = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    ranks = np.empty_like(ranks_sorted)
    ranks[order] = ranks_sorted
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def evaluate(params: md.ModelParams, split: tg.EventStream, store: tg.TemporalStore,
             candidates: np.ndarray, seed):
    """AP and AUC-ROC over the split's positives plus seeded 1:1 negatives.

    Negatives keep the source node and draw a uniform different destination.
    """
    if len(split) == 0:
        raise ProtocolError("cannot evaluate an empty split")
    rng = np.random.default_rng(seed)
    pairs = []
    for u, v, neg, t in _queries(split, 0, len(split), rng, candidates):
        pairs.append((u, v, t))
        pairs.append((u, neg, t))
    scores = md.score_pairs(params, store, pairs)
    labels = np.tile([1.0, 0.0], len(split))
    return average_precision(scores, labels), auc_roc(scores, labels)


def _queries(split: tg.EventStream, lo: int, hi: int, rng: np.random.Generator,
             candidates: np.ndarray) -> list[tuple[int, int, int, float]]:
    """(src, dst, negative_dst, t) for events [lo, hi), negatives drawn in one call."""
    src, dst = split.src[lo:hi], split.dst[lo:hi]
    neg = tg.sample_negative(rng, src, dst, candidates)
    return list(zip(src.tolist(), dst.tolist(), neg.tolist(), split.t[lo:hi].tolist()))


@dataclass
class FitResult:
    params: md.ModelParams
    epoch_losses: list
    val_ap: list
    val_auc_roc: list
    best_epoch: int


def fit(train_split: tg.EventStream, val_split: tg.EventStream,
        store: tg.TemporalStore, candidates: np.ndarray,
        model_cfg: md.ModelConfig, train_cfg: TrainConfig) -> FitResult:
    """Optimize on the train split, select the best epoch by validation AP.

    ``store`` must cover only train+val history; the test partition is never
    seen here.
    """
    if len(train_split) == 0:
        raise ProtocolError("empty train split")
    if len(val_split) == 0:
        raise ProtocolError("empty validation split")
    stream = store.stream
    params = md.init_params(model_cfg, stream.node_dim, stream.edge_dim, train_cfg.seed)
    state = nc.adam_state(params.tensors, lr=train_cfg.lr)

    best = params
    best_ap = -np.inf
    best_epoch = -1
    streak = 0
    epoch_losses, val_aps, val_aucs = [], [], []
    n = len(train_split)
    for epoch in range(train_cfg.epochs):
        rng_neg = np.random.default_rng([train_cfg.seed, epoch])
        total = 0.0
        for lo in range(0, n, train_cfg.batch_size):
            queries = _queries(train_split, lo, min(lo + train_cfg.batch_size, n),
                               rng_neg, candidates)
            tape = nc.Tape()
            bound = md.bind(params, tape, trainable=True)
            loss = md.batch_loss(bound, store, queries)
            nc.backward(tape, loss)
            grads = {name: bound.values[name].grad for name in params.tensors}
            value = float(loss.data[0, 0])
            _check_step(value, grads, state.step + 1, epoch)
            params = md.ModelParams(model_cfg, params.node_dim, params.edge_dim,
                                    nc.adam_step(state, params.tensors, grads))
            total += value
        epoch_losses.append(total / n)  # reported per positive pair
        ap, auc = evaluate(params, val_split, store, candidates,
                           [train_cfg.seed, VAL_SEED_TAG])
        val_aps.append(ap)
        val_aucs.append(auc)
        if ap > best_ap:
            best_ap, best_epoch, best = ap, epoch, params
            streak = 0
        else:
            streak += 1
        if streak >= train_cfg.patience:
            break
    return FitResult(best, epoch_losses, val_aps, val_aucs, best_epoch)


def _check_step(loss: float, grads: dict[str, np.ndarray], step: int, epoch: int) -> None:
    """Stop before a non-finite loss or gradient reaches the parameters."""
    where = f"optimizer step {step} (epoch {epoch})"
    if not np.isfinite(loss):
        raise nc.NonFiniteError(f"non-finite loss {loss} at {where}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise nc.NonFiniteError(f"non-finite gradient for parameter {name!r} at {where}")


def _negative_candidates(stream: tg.EventStream, fit_len: int) -> np.ndarray:
    """The first ``fit_len`` events' destinations; a ProtocolError if one."""
    candidates = stream.slice(0, fit_len).destinations()
    if len(candidates) < 2:
        raise ProtocolError(f"no negative candidate among {len(candidates)} destination")
    return candidates


def fit_partition(stream: tg.EventStream):
    """The 70/15/15 chronological train, validation and test splits and the
    negative candidates, the first two's destinations; a ProtocolError if
    either is empty or has no second destination to draw a negative from."""
    train_split, val_split, test_split = tg.chronological_split(stream, TRAIN_RATIO, VAL_RATIO)
    if len(train_split) == 0 or len(val_split) == 0:
        raise ProtocolError("stream too small: empty train or validation split")
    return (train_split, val_split, test_split,
            _negative_candidates(stream, len(train_split) + len(val_split)))


def train(stream: tg.EventStream, model_cfg: md.ModelConfig,
          train_cfg: TrainConfig):
    """Split (:func:`fit_partition`), fit, then score the test partition
    once with the best parameters and full history."""
    train_split, val_split, test_split, candidates = fit_partition(stream)
    store_fit = tg.TemporalStore(stream.slice(0, len(train_split) + len(val_split)))

    t0 = time.perf_counter()
    result = fit(train_split, val_split, store_fit, candidates, model_cfg, train_cfg)
    t1 = time.perf_counter()
    store_full = tg.TemporalStore(stream)
    test_ap, test_auc = evaluate(result.params, test_split, store_full, candidates,
                                 [train_cfg.seed, TEST_SEED_TAG])
    t2 = time.perf_counter()

    report = MetricsReport(
        epoch_losses=result.epoch_losses,
        val_ap=result.val_ap,
        val_auc_roc=result.val_auc_roc,
        best_epoch=result.best_epoch,
        ap=test_ap,
        auc_roc=test_auc,
        timing={"fit_seconds": t1 - t0, "test_seconds": t2 - t1},
    )
    return result.params, report
