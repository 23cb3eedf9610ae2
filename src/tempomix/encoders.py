"""Neighbor-token embedding.

Each neighbor of a query node becomes one token: the sum of a projected node
feature, a projected edge feature, and a projected cosine encoding of the
time gap to the query. Only time differences enter, so shifting all
timestamps by a constant leaves every token matrix unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import ConfigError, ContractError, Value
from .tgraph import EventStream, NeighborSequence

__all__ = ["EncoderParams", "time_encode_rows", "embed_neighbors"]


def _frequencies(time_dim: int) -> np.ndarray:
    # strictly decreasing geometric bank, from 1 down toward 1e-4
    return 10.0 ** (-4.0 * np.arange(time_dim) / time_dim)


def time_encode_rows(dts: np.ndarray, time_dim: int, out: np.ndarray | None = None
                     ) -> np.ndarray:
    """Row-stacked time encodings for a vector of gaps: row i is
    cos(w_k * dts[i]) for a fixed geometric frequency bank, k = 0..time_dim-1.

    With ``out`` (len(dts) x time_dim float64), the rows are written into it
    in place, with the same bits, and ``out`` is returned.
    """
    dts = np.asarray(dts, dtype=np.float64)
    if np.any(dts < 0):
        raise ContractError("time gaps must be non-negative")
    product = np.multiply(dts[:, None], _frequencies(time_dim)[None, :], out=out)
    return np.cos(product, out=product)


@dataclass
class EncoderParams:
    """Bound projection maps; all three must share the output dimension."""

    w_node: Value  # node_dim x d
    w_edge: Value  # edge_dim x d
    w_time: Value  # time_dim x d

    @property
    def dim(self) -> int:
        return self.w_time.data.shape[1]

    @property
    def time_dim(self) -> int:
        return self.w_time.data.shape[0]


def embed_neighbors(seq: NeighborSequence, t_ref: float, stream: EventStream,
                    params: EncoderParams) -> tuple[Value, bool]:
    """Token matrix for a neighbor sequence, one row per neighbor.

    Returns ``(tokens, padded)``: a history-less node gets a single all-zero
    padding row with ``padded=True`` so downstream readout can tell the node
    apart from one with real history.
    """
    if stream.node_dim != params.w_node.data.shape[0]:
        raise ConfigError(
            f"node feature dim {stream.node_dim} does not match encoder "
            f"map of shape {params.w_node.data.shape}")
    if stream.edge_dim != params.w_edge.data.shape[0]:
        raise ConfigError(
            f"edge feature dim {stream.edge_dim} does not match encoder "
            f"map of shape {params.w_edge.data.shape}")
    tape = params.w_time.tape
    if len(seq) == 0:
        return tape.constant(np.zeros((1, params.dim))), True
    if len(seq.times) and t_ref < seq.times[-1]:
        raise ContractError("reference time precedes a neighbor interaction")

    enc = time_encode_rows(t_ref - seq.times, params.time_dim)
    tokens = nc.matmul(tape.constant(enc), params.w_time)
    if stream.node_dim:
        feats = stream.node_feats[seq.neighbor_ids]
        tokens = nc.add(tokens, nc.matmul(tape.constant(feats), params.w_node))
    if stream.edge_dim:
        feats = stream.edge_feats[seq.edge_ids]
        tokens = nc.add(tokens, nc.matmul(tape.constant(feats), params.w_edge))
    return tokens, False
