"""Temporal event store.

Ingestion of timestamped interaction streams, chronological splitting,
strict-past most-recent-neighbor queries, negative destination sampling, and
a synthetic stream generator used as a test fixture.

A stream is columnar (numpy arrays) and immutable after construction; the
per-node adjacency built by :class:`TemporalStore` is likewise immutable and
safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .numcore import Int64, from_json

__all__ = [
    "ParseError",
    "ValidationError",
    "SplitError",
    "SamplingError",
    "SpecError",
    "EventStream",
    "NeighborSequence",
    "TemporalStore",
    "ingest_csv",
    "write_csv",
    "chronological_split",
    "sample_negative",
    "SyntheticSpec",
    "generate_synthetic",
]


class ParseError(ValueError):
    """A data file is malformed."""


class ValidationError(ValueError):
    """A stream violates its invariants."""


class SplitError(ValueError):
    """Split ratios or stream size make a chronological split impossible."""


class SamplingError(ValueError):
    """Negative sampling has no valid candidate."""


class SpecError(ValueError):
    """A synthetic stream spec is invalid."""


class EventStream:
    """A time-sorted sequence of interactions plus node/edge features.

    Columns are exposed as read-only properties so that tests can interpose
    access-recording subclasses.
    """

    def __init__(self, src, dst, t, edge_feats, labels=None, node_count=None,
                 node_feats=None, validate=True):
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        self._t = np.asarray(t, dtype=np.float64)
        self._edge_feats = np.asarray(edge_feats, dtype=np.float64)
        if self._edge_feats.ndim != 2:
            self._edge_feats = self._edge_feats.reshape(len(self._src), -1)
        if labels is None:
            labels = np.zeros(len(self._src))
        self._labels = np.asarray(labels, dtype=np.float64)
        if node_count is None:
            node_count = int(max(self._src.max(initial=-1), self._dst.max(initial=-1)) + 1)
        self._node_count = int(node_count)
        if node_feats is None:
            node_feats = np.zeros((self._node_count, 0))
        self._node_feats = np.asarray(node_feats, dtype=np.float64)
        if validate:
            self._validate()

    def _validate(self):
        n = len(self._src)
        for name, col in (("dst", self._dst), ("t", self._t), ("labels", self._labels)):
            if len(col) != n:
                raise ValidationError(f"column {name} has length {len(col)}, expected {n}")
        if self._edge_feats.shape[0] != n:
            raise ValidationError("edge feature rows do not match event count")
        if not np.all(np.isfinite(self._t)):
            raise ValidationError("timestamps must be finite")
        if n and np.any(self._t < 0):
            raise ValidationError("timestamps must be non-negative")
        if n and np.any(np.diff(self._t) < 0):
            raise ValidationError("events must be sorted by timestamp")
        if n and (self._src.max() >= self._node_count or self._dst.max() >= self._node_count):
            raise ValidationError("node id exceeds node_count")
        if self._node_feats.shape[0] != self._node_count:
            raise ValidationError("node feature rows do not match node_count")

    @property
    def src(self) -> np.ndarray:
        return self._src

    @property
    def dst(self) -> np.ndarray:
        return self._dst

    @property
    def t(self) -> np.ndarray:
        return self._t

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def edge_feats(self) -> np.ndarray:
        return self._edge_feats

    @property
    def node_feats(self) -> np.ndarray:
        return self._node_feats

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_dim(self) -> int:
        return self._edge_feats.shape[1]

    @property
    def node_dim(self) -> int:
        return self._node_feats.shape[1]

    def __len__(self) -> int:
        return len(self._src)

    def slice(self, lo: int, hi: int) -> "EventStream":
        """A view of events [lo, hi) sharing the node universe."""
        return EventStream(self.src[lo:hi], self.dst[lo:hi], self.t[lo:hi],
                           self.edge_feats[lo:hi], self.labels[lo:hi],
                           node_count=self.node_count, node_feats=self.node_feats,
                           validate=False)

    def destinations(self) -> np.ndarray:
        """Sorted unique destination ids (the negative-sampling candidate set)."""
        return np.unique(self.dst)

    def shift_times(self, offset: float) -> "EventStream":
        """Copy of the stream with every timestamp moved by ``offset``."""
        return EventStream(self.src, self.dst, self.t + offset, self.edge_feats,
                           self.labels, node_count=self.node_count,
                           node_feats=self.node_feats)


def ingest_csv(path, bipartite: bool = False) -> EventStream:
    """Read `src,dst,timestamp,label,feat...` rows (one header line).

    Ids are opaque tokens, compacted to 0..node_count-1 in order of first
    appearance in the time-sorted stream; sorting is stable so rows with
    equal timestamps keep their file order. With ``bipartite``, source and
    destination tokens live in disjoint namespaces (user ``0`` and item ``0``
    are two nodes), numbered by one shared counter in the same order.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header line") from None
        width = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 4:
                raise ParseError(f"{path}: line {lineno}: expected at least 4 fields, got {len(row)}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
            try:
                t = float(row[2])
                label = float(row[3])
                feats = [float(x) for x in row[4:]]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, (t, label, *feats))):
                raise ParseError(
                    f"{path}: line {lineno}: timestamp, label and features must be finite")
            if t < 0:
                raise ValidationError(f"{path}: line {lineno}: negative timestamp {t}")
            rows.append((row[0].strip(), row[1].strip(), t, label, feats))
    if not rows:
        raise ParseError(f"{path}: no data rows")

    order = np.argsort([r[2] for r in rows], kind="stable")
    src_side, dst_side = ("src", "dst") if bipartite else ("", "")
    ids: dict[tuple[str, str], int] = {}
    src = np.empty(len(rows), dtype=np.int64)
    dst = np.empty(len(rows), dtype=np.int64)
    t = np.empty(len(rows))
    labels = np.empty(len(rows))
    feats = np.empty((len(rows), len(rows[0][4])))
    for out_i, in_i in enumerate(order):
        u, v, ts, lab, fs = rows[in_i]
        src[out_i] = ids.setdefault((src_side, u), len(ids))
        dst[out_i] = ids.setdefault((dst_side, v), len(ids))
        t[out_i] = ts
        labels[out_i] = lab
        feats[out_i] = fs
    return EventStream(src, dst, t, feats, labels, node_count=len(ids))


def write_csv(stream: EventStream, path) -> None:
    """Serialize a stream so that ``ingest_csv`` reproduces it exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "timestamp", "label"]
                        + [f"f{i}" for i in range(stream.edge_dim)])
        for i in range(len(stream)):
            writer.writerow([int(stream.src[i]), int(stream.dst[i]),
                             repr(float(stream.t[i])), repr(float(stream.labels[i]))]
                            + [repr(float(x)) for x in stream.edge_feats[i]])


def chronological_split(stream: EventStream, r_train: float, r_val: float):
    """First floor(r_train*n) events, next floor(r_val*n), remainder."""
    if len(stream) == 0:
        raise SplitError("cannot split an empty stream")
    if not (0 < r_train and 0 <= r_val and r_train + r_val < 1):
        raise SplitError(f"invalid split ratios train={r_train}, val={r_val}")
    n = len(stream)
    n_train = int(np.floor(r_train * n))
    n_val = int(np.floor(r_val * n))
    return (stream.slice(0, n_train),
            stream.slice(n_train, n_train + n_val),
            stream.slice(n_train + n_val, n))


@dataclass(frozen=True)
class NeighborSequence:
    """Up to N_max most recent strictly-past interactions of one node.

    Ordered oldest to newest; ``neighbor_ids`` holds the counterpart node of
    each interaction and ``edge_ids`` indexes into the originating stream.
    """

    neighbor_ids: np.ndarray
    times: np.ndarray
    edge_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.neighbor_ids)


class TemporalStore:
    """Per-node time-sorted adjacency for O(log E + N_max) recency queries.

    Adjacency is undirected: an interaction makes each endpoint the other's
    neighbor. Ties in timestamp keep stream order. The entries of all nodes
    sit in three read-only arrays, ``neighbor_ids``, ``times`` and
    ``edge_ids``, grouped by owner node and time-sorted within each group
    (a CSR layout); queries return slices of them or indices into them.
    """

    def __init__(self, stream: EventStream):
        self.stream = stream
        self.node_count = stream.node_count
        n = len(stream)
        # interleave the two endpoint views so a stable sort by owner keeps
        # every node's entries ordered by (time, stream position, src side)
        owners = np.empty(2 * n, dtype=np.int64)
        counterparts = np.empty(2 * n, dtype=np.int64)
        times = np.empty(2 * n)
        edge_ids = np.empty(2 * n, dtype=np.int64)
        owners[0::2], owners[1::2] = stream.src, stream.dst
        counterparts[0::2], counterparts[1::2] = stream.dst, stream.src
        times[0::2] = times[1::2] = stream.t
        edge_ids[0::2] = edge_ids[1::2] = np.arange(n, dtype=np.int64)
        order = np.argsort(owners, kind="stable")
        owners = owners[order]
        bounds = np.searchsorted(owners, np.arange(self.node_count + 1))
        self.neighbor_ids = _frozen(counterparts[order])
        self.times = _frozen(times[order])
        self.edge_ids = _frozen(edge_ids[order])
        self._lo = bounds[:-1]
        self._hi = bounds[1:]
        # One sorted int64 key per entry, owner * width + rank of its time
        # among the distinct times, so that a single searchsorted finds the
        # strict-past window end of any number of (node, t) queries at once.
        self._utimes = np.unique(self.times)
        self._width = len(self._utimes) + 1
        if self.node_count * self._width >= np.iinfo(np.int64).max:
            raise ValidationError(
                f"{self.node_count} nodes x {self._width - 1} distinct times "
                "overflow the int64 window keys")
        self._keys = owners * self._width + np.searchsorted(self._utimes, self.times)

    def recent_neighbors(self, node: int, t: float, n_max: int) -> NeighborSequence:
        if not (0 <= node < self.node_count):
            raise ValidationError(f"node {node} outside 0..{self.node_count - 1}")
        if t < 0:
            raise ValidationError(f"query time must be non-negative, got {t}")
        lo, hi = self._lo[node], self._hi[node]
        end = lo + np.searchsorted(self.times[lo:hi], t, side="left")
        start = max(lo, end - n_max)
        return NeighborSequence(self.neighbor_ids[start:end], self.times[start:end],
                                self.edge_ids[start:end])

    def recent_windows(self, nodes, ts, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Strict-past windows of many queries in one pass.

        Returns ``(index, valid)``, both ``(R, n_max)``: row ``i`` holds the
        entries ``recent_neighbors(nodes[i], ts[i], n_max)`` would return, as
        indices into ``neighbor_ids``, ``times`` and ``edge_ids``, oldest to
        newest and right-aligned; ``valid`` marks the real entries, and the
        index of an entry that is not valid is 0.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        bad = (nodes < 0) | (nodes >= self.node_count)
        if bad.any():
            raise ValidationError(
                f"node {nodes[bad][0]} outside 0..{self.node_count - 1}")
        if (ts < 0).any():
            raise ValidationError(f"query time must be non-negative, got {ts[ts < 0][0]}")
        query = nodes * self._width + np.searchsorted(self._utimes, ts, side="left")
        end = np.searchsorted(self._keys, query, side="left")
        index = end[:, None] - n_max + np.arange(n_max)
        valid = index >= self._lo[nodes][:, None]
        return np.where(valid, index, 0), valid


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def sample_negative(rng: np.random.Generator, src, true_dst, candidates: np.ndarray):
    """Uniform draw over ``candidates`` minus the observed destination.

    ``src`` and ``true_dst`` are scalars, giving one int, or equal-length
    vectors, giving one draw per query as an int64 vector. The vector form
    makes one ``rng.integers`` call with per-query bounds; it yields the
    draws of one scalar call per query, in order, and leaves ``rng`` in the
    same state.
    """
    candidates = np.asarray(candidates)
    m = len(candidates)
    order = np.argsort(candidates, kind="stable")
    ranked = candidates[order]
    lo = np.searchsorted(ranked, true_dst, side="left")
    hi = np.searchsorted(ranked, true_dst, side="right")
    kept = m - (hi - lo)
    if np.any(kept == 0):
        raise SamplingError(
            f"no negative candidate for destination {np.ravel(true_dst)[np.ravel(kept) == 0][0]}")
    pick = rng.integers(0, kept)
    # The pick-th kept candidate sits past every excluded position p_r
    # (the r-th copy of true_dst) with p_r - r <= pick. p_r - r rises within
    # a group of equal values, so one search over group-major keys counts them.
    group = np.searchsorted(ranked, ranked, side="left")
    keys = group * (m + 1) + order - (np.arange(m) - group)
    skipped = np.searchsorted(keys, lo * (m + 1) + pick, side="right") - lo
    drawn = candidates[pick + np.minimum(skipped, hi - lo)]
    return int(drawn) if np.ndim(true_dst) == 0 else drawn


@dataclass
class SyntheticSpec:
    """Parameters of the generated stream; accepted as a JSON document.

    ``periodic`` makes each source repeat its previous destination with
    probability ``p_repeat`` (otherwise it switches to a uniformly chosen
    different destination). ``endpoint_onehot`` edge features carry indicator
    coordinates for both endpoints, which is what makes the repeat pattern
    learnable from token sequences alone.
    """

    n_src: Int64 = 10
    n_dst: Int64 = 10
    n_events: Int64 = 1000
    pattern: str = "uniform"
    p_repeat: float = 0.9
    time_step: float = 1.0
    edge_feat_kind: str = "endpoint_onehot"

    def __post_init__(self):
        if self.n_src <= 0 or self.n_dst <= 0:
            raise SpecError("node counts must be positive")
        if self.n_events < 0:
            raise SpecError("event count must be non-negative")
        if self.pattern not in ("uniform", "periodic"):
            raise SpecError(f"unknown pattern {self.pattern!r}")
        if not (0.0 <= self.p_repeat <= 1.0):
            raise SpecError("p_repeat must lie in [0, 1]")
        if not (math.isfinite(self.time_step) and self.time_step >= 0):
            raise SpecError(f"time_step must be finite and non-negative, got {self.time_step}")
        if not math.isfinite(self.time_step * (self.n_events - 1)):
            raise SpecError(f"time_step {self.time_step} overflows the timestamps of "
                            f"{self.n_events} events")
        if self.edge_feat_kind not in ("none", "endpoint_onehot"):
            raise SpecError(f"unknown edge_feat_kind {self.edge_feat_kind!r}")

    @classmethod
    def from_dict(cls, d) -> "SyntheticSpec":
        return from_json(cls, d, "synthetic spec")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> EventStream:
    """Deterministic stream for the given seed. Sources are 0..n_src-1,
    destinations n_src..n_src+n_dst-1; timestamps advance by ``time_step``."""
    rng = np.random.default_rng(seed)
    n = spec.n_events
    src = rng.integers(spec.n_src, size=n)
    dst = np.empty(n, dtype=np.int64)
    prev = np.full(spec.n_src, -1, dtype=np.int64)
    repeat_draw = rng.random(n)
    for i in range(n):
        u = src[i]
        if (spec.pattern == "periodic" and prev[u] >= 0
                and repeat_draw[i] < spec.p_repeat):
            d = prev[u]
        else:
            d = int(rng.integers(spec.n_dst))
            if spec.pattern == "periodic" and prev[u] >= 0 and spec.n_dst > 1:
                while d == prev[u] - spec.n_src:
                    d = int(rng.integers(spec.n_dst))
            d += spec.n_src
        dst[i] = d
        prev[u] = d
    t = np.arange(n, dtype=np.float64) * spec.time_step
    node_count = spec.n_src + spec.n_dst
    if spec.edge_feat_kind == "endpoint_onehot":
        feats = np.zeros((n, node_count))
        feats[np.arange(n), src] = 1.0
        feats[np.arange(n), dst] = 1.0
    else:
        feats = np.zeros((n, 0))
    return EventStream(src, dst, t, feats, node_count=node_count)
