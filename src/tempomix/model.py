"""The end-to-end network: embed neighbors, stack token blocks, mean readout,
link predictor, and the binary cross-entropy objective.

Parameters live in a flat name -> float64-array mapping so the optimizer,
gradient checks, and checkpoints all share one addressing scheme. A forward
pass binds the arrays onto a tape (as leaves when training, constants when
evaluating) and builds the graph through the pure layer functions.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence

import numpy as np

from . import numcore as nc
from . import mixers as mx
from .encoders import EncoderParams, embed_neighbors, time_encode_rows
from .numcore import ConfigError, ContractError, Int64, Tape, Value
from .tgraph import TemporalStore

__all__ = [
    "ModelConfig",
    "ModelParams",
    "BoundModel",
    "init_params",
    "bind",
    "node_repr_value",
    "node_repr",
    "predict_link_value",
    "predict_link",
    "batch_loss",
    "score_pairs",
    "effective_fusions",
    "save_checkpoint",
    "load_checkpoint",
]

MIXERS = ("adaptive", "pooling", "mlp", "attention")
ACTIVATIONS = ("gelu", "relu")
MLP_TOKEN_RATIO = 0.5  # hidden token count = ceil(ratio * n_max)
# the scoring path's one size: token rows per block of keys, so that a block's
# 4*dim-wide channel-mixer temporaries stay within a few MB; input floats per
# chunk of an input table (one block's token matrix, 1 MiB at dim 32); and
# pairs per block of predictor logits. numcore._row_bounds cuts all three
SCORE_BLOCK_ROWS = 4096


@dataclass
class ModelConfig:
    """Architecture plus ablation switches; layer count equals len(spans)."""

    dim: Int64 = 32
    time_dim: Int64 = 100
    spans: tuple = (2, 4, 8)
    mixer: str = "adaptive"
    activation: str = "gelu"
    n_max: Int64 = 10
    no_lp: bool = False      # pin order/recency fusion to 0 (recency only)
    no_rt: bool = False      # pin fusion to 1 (order weights only)
    no_resnet: bool = False
    no_cm: bool = False

    def __post_init__(self):
        self.spans = tuple(int(s) for s in self.spans)
        if self.mixer not in MIXERS:
            raise ConfigError(f"mixer must be one of {MIXERS}, got {self.mixer!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if not 1 <= len(self.spans) <= 3:
            raise ConfigError(f"layer count {len(self.spans)} outside the searched range 1..3")
        mx.OffsetSchedule(self.spans)  # validates monotone positive spans
        if self.dim < 1 or self.time_dim < 1 or self.n_max < 1:
            raise ConfigError("dim, time_dim and n_max must be positive")
        if self.no_lp and self.no_rt:
            raise ConfigError("no_lp and no_rt are mutually exclusive")
        if (self.no_lp or self.no_rt) and self.mixer != "adaptive":
            raise ConfigError(f"no_lp/no_rt pin the adaptive fusion; {self.mixer!r} has none")

    @property
    def num_layers(self) -> int:
        return len(self.spans)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spans"] = list(self.spans)
        return d

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        return nc.from_json(cls, d, "model config")


@dataclass
class ModelParams:
    """All learnable tensors keyed by a flat canonical name."""

    config: ModelConfig
    node_dim: int
    edge_dim: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


# each mixer kind's own tensors per layer, in the order its layer class takes them
MIXER_TENSORS = {"adaptive": ("order", "fuse"), "pooling": (),
                 "mlp": ("tw1", "tb1", "tw2", "tb2"), "attention": ("wq", "wk", "wv", "wo")}
# the channel mixer's tensors per layer, in ``mixers.ChannelParams`` field order
CHANNEL_TENSORS = ("ln_gain", "ln_bias", "ff_w1", "ff_b1", "ff_w2", "ff_b2")


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = shape
    std = np.sqrt(2.0 / (fan_in + fan_out)) if fan_in + fan_out else 1.0
    return rng.normal(scale=std, size=shape)


def _tensor_table(config: ModelConfig, node_dim: int, edge_dim: int) -> dict[str, tuple]:
    """Every tensor that the config's forward reads, as name -> (shape,
    initializer), in draw order; the initializer is ``_glorot`` or a constant
    fill. ``init_params`` draws, ``BoundModel`` binds and ``load_checkpoint``
    checks these. A part switched off holds none: ``no_cm`` drops the channel
    mixer's tensors, pinned fusion ``fuse``, and ``no_lp`` ``order`` too."""
    pinned = ("order", "fuse") if config.no_lp else ("fuse",) if config.no_rt else ()
    unread = pinned + (CHANNEL_TENSORS if config.no_cm else ())
    d, n = config.dim, config.n_max
    hidden = int(np.ceil(MLP_TOKEN_RATIO * n))
    schedule = mx.OffsetSchedule(config.spans)
    table = {"enc.node": ((node_dim, d), _glorot), "enc.edge": ((edge_dim, d), _glorot),
             "enc.time": ((config.time_dim, d), _glorot)}
    for i in range(config.num_layers):
        layer = {"order": ((1, schedule.kernel_size(i + 1)), 0.0), "fuse": ((1, 1), 0.0),
                 "tw1": ((hidden, n), _glorot), "tb1": ((hidden, 1), 0.0),
                 "tw2": ((n, hidden), _glorot), "tb2": ((n, 1), 0.0),
                 **dict.fromkeys(MIXER_TENSORS["attention"], ((d, d), _glorot)),
                 "ln_gain": ((1, d), 1.0), "ln_bias": ((1, d), 0.0),
                 "ff_w1": ((d, 4 * d), _glorot), "ff_b1": ((1, 4 * d), 0.0),
                 "ff_w2": ((4 * d, d), _glorot), "ff_b2": ((1, d), 0.0)}
        for name in MIXER_TENSORS[config.mixer] + CHANNEL_TENSORS:
            if name not in unread:
                table[f"layer{i}.{name}"] = layer[name]
    table["pred.w1"] = ((2 * d, d), _glorot)
    table["pred.b1"] = ((1, d), 0.0)
    # zero final layer: an untrained model scores every pair at exactly 0.5
    table["pred.w2"] = ((d, 1), 0.0)
    table["pred.b2"] = ((1, 1), 0.0)
    return table


def init_params(config: ModelConfig, node_dim: int, edge_dim: int, seed: int) -> ModelParams:
    rng = np.random.default_rng(seed)
    return ModelParams(config, node_dim, edge_dim, {
        name: _glorot(rng, shape) if init is _glorot else np.full(shape, init)
        for name, (shape, init) in _tensor_table(config, node_dim, edge_dim).items()})


class BoundModel:
    """A parameter set bound onto one tape, ready to build forward graphs."""

    def __init__(self, config: ModelConfig, values: Mapping[str, Value]):
        self.config = config
        self.values = values
        self.encoder = EncoderParams(values["enc.node"], values["enc.edge"],
                                     values["enc.time"])
        schedule = mx.OffsetSchedule(config.spans)
        self.layers: list[tuple] = []
        for i in range(config.num_layers):
            at = f"layer{i}."
            if config.mixer in ("adaptive", "pooling"):
                # a tensor the config does not hold is a constant: flat order
                # logits, and fusion pinned at 1 (pooling, no_rt) or 0 (no_lp).
                # Pooling is the truncated mean over the window 0..k-1
                k = schedule.kernel_size(i + 1)
                order_logits = values.get(at + "order") or self.tape.constant(np.zeros((1, k)))
                fuse = values.get(at + "fuse")
                fusion = (float(config.no_rt or config.mixer == "pooling") if fuse is None
                          else nc.sigmoid(fuse))
                offsets = schedule.offsets(i + 1) if config.mixer == "adaptive" else np.arange(k)
                mixer = mx.AdaptiveLayer(offsets, order_logits, fusion)
            else:
                mixer = {"mlp": mx.MlpLayer, "attention": mx.AttentionLayer}[config.mixer](
                    *(values[at + name] for name in MIXER_TENSORS[config.mixer]))
            channel = None if config.no_cm else mx.ChannelParams(
                *(values[at + name] for name in CHANNEL_TENSORS))
            self.layers.append((mixer, channel))
        self.pred = (values["pred.w1"], values["pred.b1"],
                     values["pred.w2"], values["pred.b2"])

    @property
    def tape(self) -> Tape:
        return self.values["enc.time"].tape


def bind(params: ModelParams, tape: Tape, trainable: bool = True) -> BoundModel:
    wrap = tape.leaf if trainable else tape.constant
    values = {k: wrap(v) for k, v in params.tensors.items()}
    return BoundModel(params.config, values)


def node_repr_value(bound: BoundModel, store: TemporalStore, node: int, t: float) -> Value:
    """Temporal representation of ``node`` just before time ``t`` (1 x dim)."""
    cfg = bound.config
    seq = store.recent_neighbors(node, t, cfg.n_max)
    tokens, _ = embed_neighbors(seq, t, store.stream, bound.encoder)
    times = np.asarray(seq.times) if len(seq) else np.array([t])
    if cfg.mixer == "mlp":
        # the token-axis MLP is rigid in N: left-pad to n_max with zero rows
        n = tokens.data.shape[0]
        if n < cfg.n_max:
            pad = bound.tape.constant(np.zeros((cfg.n_max - n, cfg.dim)))
            tokens = nc.concat_rows([pad, tokens])
            times = np.concatenate([np.full(cfg.n_max - n, times[0]), times])
    for mixer, channel in bound.layers:
        tokens = mx.token_block(tokens, times, mixer, channel,
                                activation=cfg.activation,
                                residual=not cfg.no_resnet)
    return nc.mean_rows(tokens)


def node_repr(store: TemporalStore, node: int, t: float, config: ModelConfig,
              params: ModelParams) -> np.ndarray:
    """Evaluation-path representation as a plain length-dim vector."""
    if params.config != config:
        raise ConfigError("params were initialized for a different config")
    bound = bind(params, Tape(), trainable=False)
    return node_repr_value(bound, store, node, t).data[0].copy()


def _predictor_logits(bound: BoundModel, x: Value) -> Value:
    w1, b1, w2, b2 = bound.pred
    hidden = nc.relu(nc.add(nc.matmul(x, w1), b1))
    return nc.add(nc.matmul(hidden, w2), b2)


def predict_link_value(bound: BoundModel, z_u: Value, z_v: Value) -> Value:
    """Interaction probability from two 1 x dim representations."""
    return nc.sigmoid(_predictor_logits(bound, nc.concat_cols(z_u, z_v)))


def predict_link(z_u: np.ndarray, z_v: np.ndarray, params: ModelParams) -> float:
    tape = Tape()
    bound = bind(params, tape, trainable=False)
    zu = tape.constant(np.asarray(z_u, dtype=np.float64).reshape(1, -1))
    zv = tape.constant(np.asarray(z_v, dtype=np.float64).reshape(1, -1))
    return float(predict_link_value(bound, zu, zv).data[0, 0])


def _windows(store: TemporalStore, keys: Sequence[tuple[int, float]],
             n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query times of ``keys`` and their right-aligned strict-past windows:
    the store positions of the real tokens in row-major order, and the
    (R, n_max) mask of real slots."""
    nodes = np.array([node for node, _ in keys], dtype=np.int64)
    ts = np.array([t for _, t in keys], dtype=np.float64)
    index, valid = store.recent_windows(nodes, ts, n_max)
    return ts, index[valid], valid


def _feature_rows(feats: np.ndarray, ids: np.ndarray, out: np.ndarray) -> None:
    """Write ``feats[ids]`` for sorted ``ids`` into ``out``. The range is
    checked once, here, so that ``np.take`` need not buffer a copy of the
    rows to check each id."""
    if ids[0] < 0 or ids[-1] >= len(feats):
        raise IndexError(f"feature rows {ids[0]}..{ids[-1]} outside 0..{len(feats) - 1}")
    np.take(feats, ids, axis=0, out=out, mode="clip")


def _input_kinds(bound: BoundModel, store: TemporalStore, ts: np.ndarray,
                 entries: np.ndarray, valid: np.ndarray) -> list[tuple]:
    """Per input kind present, in the order tokens sum them (time gap,
    neighbor node, edge): every real token's lookup value in row-major order,
    the function ``fill(values, out)`` that writes the input rows of sorted
    values into ``out``, and the encoder weight."""
    stream, enc = store.stream, bound.encoder
    kinds = [(np.repeat(ts, valid.sum(axis=1)) - store.times[entries],
              lambda gaps, out: time_encode_rows(gaps, enc.time_dim, out=out), enc.w_time)]
    if stream.node_dim:
        kinds.append((store.neighbor_ids[entries],
                      functools.partial(_feature_rows, stream.node_feats), enc.w_node))
    if stream.edge_dim:
        kinds.append((store.edge_ids[entries],
                      functools.partial(_feature_rows, stream.edge_feats), enc.w_edge))
    return kinds


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, by one sort: numpy's hashed unique takes
    several times as long on integer ids."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _distinct(kinds: list[tuple]) -> list[tuple]:
    """``kinds`` with each kind's per-token values replaced by their sorted
    distinct values."""
    return [(_sorted_distinct(values), fill, weight) for values, fill, weight in kinds]


def _input_tables(distinct_kinds: list[tuple]) -> list[tuple[np.ndarray, Value]]:
    """Projected lookup tables, one per input kind: its sorted distinct values
    and their projected rows (dim wide), then one all-zero row that pad slots
    index. Each input row is written once, in place, into a chunk that holds
    at most ``SCORE_BLOCK_ROWS * dim`` input floats (one block's token
    matrix) and is projected by one tape matmul; the time encoder has fixed
    frequencies, so a projected row depends only on its value."""
    tables = []
    for distinct, fill, weight in distinct_kinds:
        width, dim = weight.data.shape
        parts = []
        # the last input row is zero
        for lo, hi in nc._row_bounds(len(distinct) + 1, SCORE_BLOCK_ROWS * dim // width):
            rows = np.empty((hi - lo, width))
            chunk = distinct[lo:hi]
            if chunk.size:
                fill(chunk, rows[:chunk.size])
            rows[chunk.size:] = 0.0
            parts.append(nc.matmul(weight.tape.constant(rows), weight))
        tables.append((distinct, parts[0] if len(parts) == 1 else nc.concat_rows(parts)))
    return tables


def _window_tokens(kinds: list[tuple], tables: list[tuple[np.ndarray, Value]],
                   valid: np.ndarray) -> Value:
    """Embedded token rows (R*n_max x dim) of right-aligned windows.

    Each token sums one looked-up row per input kind; pad slots index each
    table's zero row, so pad tokens are exactly zero.
    """
    real = valid.reshape(-1)
    tokens = None
    for (values, _, _), (distinct, table) in zip(kinds, tables):
        index = np.full(real.size, len(distinct))
        index[real] = np.searchsorted(distinct, values)
        rows = nc.gather_rows(table, index)
        tokens = rows if tokens is None else nc.add(tokens, rows)
    return tokens


def _batched_reprs(bound: BoundModel, store: TemporalStore,
                   keys: Sequence[tuple[int, float]],
                   tables: list[tuple[np.ndarray, Value]] | None = None) -> Value:
    """Representations for distinct (node, t) keys, one per output row.

    The one representation path behind training and scoring, for every
    mixer: each key's window is left-padded to n_max and the whole batch
    flows through stacked (R*n_max) x dim tensors. Tokens are gathered from
    projected lookup tables (:func:`_input_tables`): ``tables`` built over a
    superset of these keys, or by default tables of these keys alone. Each
    layer is the block body of the per-sequence path (:func:`node_repr_value`),
    ``mixers.token_block``, run on all blocks at once; each block's real rows
    match that path. The readout averages the real rows, except for the MLP,
    whose per-sequence input is padded to n_max and averaged whole.
    """
    cfg = bound.config
    n = cfg.n_max
    ts, entries, valid = _windows(store, keys, n)
    lens = valid.sum(axis=1)
    pads = np.where(lens > 0, n - lens, n - 1)
    times = np.repeat(ts[:, None], n, axis=1)
    times[valid] = store.times[entries]
    # pad slots repeat the oldest real time; a history-less key keeps t on
    # its single all-zero token
    oldest = times[np.arange(len(keys)), n - np.maximum(lens, 1)]
    times = np.where(valid, times, oldest[:, None])
    kinds = _input_kinds(bound, store, ts, entries, valid)
    if tables is None:
        tables = _input_tables(_distinct(kinds))
    tokens = _window_tokens(kinds, tables, valid)
    for mixer, channel in bound.layers:
        tokens = mx.token_block(tokens, times, mixer, channel,
                                activation=cfg.activation,
                                residual=not cfg.no_resnet, pad_lens=pads)
    if cfg.mixer == "mlp":
        pads = np.zeros_like(pads)
    return nc.mean_rows_blocks(tokens, n, pads)


def _key_index(endpoint_pairs: Sequence[tuple[tuple[int, float], tuple[int, float]]]
               ) -> tuple[list[tuple[int, float]], list[int], list[int]]:
    """Distinct (node, t) keys in first-seen order, and each pair's two rows."""
    keys: dict[tuple[int, float], int] = {}
    for a, b in endpoint_pairs:
        keys.setdefault(a, len(keys))
        keys.setdefault(b, len(keys))
    return (list(keys), [keys[a] for a, _ in endpoint_pairs],
            [keys[b] for _, b in endpoint_pairs])


def _pair_logits(bound: BoundModel, reprs: Value, left: Sequence[int],
                 right: Sequence[int]) -> Value:
    """Predictor logits (P x 1) for pairs of representation rows."""
    return _predictor_logits(bound, nc.concat_cols(nc.gather_rows(reprs, left),
                                                   nc.gather_rows(reprs, right)))


def batch_loss(bound: BoundModel, store: TemporalStore,
               queries: Sequence[tuple[int, int, int, float]]) -> Value:
    """Summed cross-entropy over (src, dst, negative_dst, t) queries.

    Representations are computed once per distinct (node, time) pair; the
    positive pair and its negative share the source representation. The loss
    is taken on the logits, so no pair's gradient saturates to zero.
    """
    if not queries:
        raise ContractError("batch_loss: empty query batch")
    endpoint_pairs = [((u, t), (v, t)) for u, v, _, t in queries]
    endpoint_pairs += [((u, t), (neg, t)) for u, _, neg, t in queries]
    keys, left, right = _key_index(endpoint_pairs)
    logits = _pair_logits(bound, _batched_reprs(bound, store, keys), left, right)
    b = len(queries)
    return nc.bce_with_logits(logits, np.concatenate([np.ones(b), np.zeros(b)]))


def score_pairs(params: ModelParams, store: TemporalStore,
                pairs: Sequence[tuple[int, int, float]]) -> np.ndarray:
    """Probabilities for (src, dst, t) pairs on the no-gradient path.

    Keys go in blocks of at most ``SCORE_BLOCK_ROWS`` token rows, twice. The
    first pass collects each input kind's distinct values, block by block,
    and merges them; the projected input tables are built once from those,
    in chunks of at most one block's worth of input floats. The second pass
    streams each block through the layer stack and writes its
    representations into one array of the split's keys; the predictor then
    takes the pairs in blocks of at most ``SCORE_BLOCK_ROWS``. So every array
    is sized by a block, by the distinct inputs or by the output, never by
    the split's token count. Blocks and chunks are cut by
    ``numcore._row_bounds`` and read the same tables, so the scores have the
    bits of one pass within the sizes it names.
    """
    if not pairs:
        return np.zeros(0)
    bound = bind(params, Tape(), trainable=False)
    cfg = bound.config
    keys, left, right = _key_index([((u, t), (v, t)) for u, v, t in pairs])
    n = cfg.n_max
    blocks = [(lo // n, hi // n) for lo, hi in
              nc._row_bounds(len(keys) * n, max(SCORE_BLOCK_ROWS // n, 1) * n, n)]
    per_block = [_distinct(_input_kinds(bound, store, *_windows(store, keys[lo:hi], n)))
                 for lo, hi in blocks]
    distinct = [(_sorted_distinct(np.concatenate([kinds[i][0] for kinds in per_block])),
                 fill, weight)
                for i, (_, fill, weight) in enumerate(per_block[0])]
    del per_block
    tables = _input_tables(distinct)
    reprs = np.empty((len(keys), cfg.dim))
    for lo, hi in blocks:
        reprs[lo:hi] = _batched_reprs(bound, store, keys[lo:hi], tables).data
    # the Value that concat_rows of the blocks' constant outputs would give
    reprs = Value(reprs, bound.tape, want_grad=False)
    scores = np.empty(len(pairs))
    for lo, hi in nc._row_bounds(len(pairs), SCORE_BLOCK_ROWS):
        logits = _pair_logits(bound, reprs, left[lo:hi], right[lo:hi])
        scores[lo:hi] = nc.sigmoid(logits).data[:, 0]
    return scores


def effective_fusions(params: ModelParams) -> list[float]:
    """Per-layer order/recency fusion coefficient actually used in forward;
    none for a mixer other than the adaptive one (pooling pins its own)."""
    if params.config.mixer != "adaptive":
        return []
    fusions = [mixer.fusion for mixer, _ in bind(params, Tape(), trainable=False).layers]
    return [float(f.data[0, 0]) if isinstance(f, Value) else float(f) for f in fusions]


CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path) -> None:
    """JSON checkpoint; float64 payloads round-trip bit-exactly.

    Refuses, before writing anything, a tensor with NaN or infinite entries:
    JSON has no spelling for them.
    """
    for name, arr in params.tensors.items():
        if not np.isfinite(arr).all():
            raise nc.NonFiniteError(f"save_checkpoint: tensor {name!r} has non-finite entries")
    head = json.dumps({
        "format_version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "node_dim": params.node_dim,
        "edge_dim": params.edge_dim,
        "effective_fusion": effective_fusions(params),
    }, sort_keys=True)
    # the bytes of json.dumps(doc, sort_keys=True), where "tensors" is the
    # last key, written a tensor at a time: json.dumps without indent runs
    # the C encoder (json.dump to a file runs the pure-Python one), and only
    # one tensor's list of floats and its text exist at once
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "tensors": {')
        for i, (name, arr) in enumerate(sorted(params.tensors.items())):
            tensor = {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            fh.write(f"{', ' if i else ''}{json.dumps(name)}: "
                     f"{json.dumps(tensor, sort_keys=True)}")
        fh.write("}}\n")


def load_checkpoint(path) -> ModelParams:
    """Parameters from a :func:`save_checkpoint` file, checked against the
    tensor table of the file's config and dims: a missing or mistyped field, a
    missing or extra tensor, another shape or entry count, or a non-finite
    entry is a ``ConfigError`` or ``ContractError`` naming the field or tensor."""
    with open(path, encoding="utf-8") as fh:
        doc = nc.json_typed("checkpoint", json.load(fh), "dict")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {doc.get('format_version')}")
    config, node_dim, edge_dim, stored = (
        nc.json_typed(f"checkpoint {key!r}", doc.get(key), kind) for key, kind in
        (("config", "dict"), ("node_dim", "Int64"), ("edge_dim", "Int64"),
         ("tensors", "dict")))
    config = ModelConfig.from_dict(config)
    table = _tensor_table(config, node_dim, edge_dim)
    if set(stored) != set(table):
        raise ContractError(f"checkpoint tensors: missing {sorted(set(table) - set(stored))}, "
                            f"not in the model {sorted(set(stored) - set(table))}")
    tensors = {}
    for name, (shape, _) in table.items():
        where = f"checkpoint tensor {name!r}"
        spec = nc.json_typed(where, stored[name], "dict")
        arr = np.array(nc.json_typed(f"{where} data", spec.get("data"), "list"),
                       dtype=np.float64)
        if spec.get("shape") != list(shape) or arr.size != np.prod(shape):
            raise ContractError(f"{where} has shape {spec.get('shape')} and "
                                f"{arr.size} entries, expected shape {list(shape)}")
        if not np.isfinite(arr).all():
            raise ContractError(f"{where} has non-finite entries")
        tensors[name] = arr.reshape(shape)
    return ModelParams(config, node_dim, edge_dim, tensors)
