"""Spatial mixing over sensor channels, steered by electrode geometry.

Sensors within a fixed radius of each other are joined into a graph
whose symmetrically normalized adjacency diffuses features; a per-head
linear readout of the diffused features becomes an additive attention
bias. Attention itself runs over the channel axis and keeps only the
top-k scores per row; the softmax runs over the kept entries alone, so
they form a proper distribution (a literal multiply-by-zero mask would
leave the excluded scores competing at 0).

Top-k selection uses the biased scores and breaks ties toward the
lowest column index, so results are deterministic. The temperature on
the bias term is kept positive through a softplus.

The bias readout is one GEMM weight: w_bias is (D, H*C) with head-major
columns, so columns h*C .. h*C+C-1 read head h's (C, C) bias out of each
channel's diffused features. Every parameter is the right operand of a
2-D matmul; the batched (N-D @ N-D) products are the adjacency
diffusion, the scores and attention @ V, all between activations.

Heads are an array axis: Q, K and V are laid out head-major as
(H*B, C, d_k), so one score matmul, one masked softmax over
(H, B, C, C) and one (C, C) @ (C, d_k) matmul with V serve all heads.
The attention map stays dense in C whatever k is: top-k saves no work,
it only zeroes entries. That costs C*C*d_k per row against C*k*d_k for
a row gather, a fair trade while C is small (22 electrodes in the
BCI IV-2a montage), and it avoids materializing gathered value rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as te
from .tensor import Tensor

__all__ = [
    "ElectrodeGraph",
    "SpatialAttention",
    "build_graph",
    "circle_layout",
    "drop_edges",
    "graph_conv",
    "spatial_biases",
    "masked_softmax_topk",
    "topk_masked_attention",
    "init_spatial_attention",
]


@dataclass
class ElectrodeGraph:
    positions: np.ndarray  # (C, 3) meters
    adjacency: np.ndarray  # (C, C) zero/one, unit diagonal
    norm_adjacency: np.ndarray  # (C, C), spectral radius <= 1

    @property
    def n_channels(self) -> int:
        return self.adjacency.shape[0]


@dataclass
class SpatialAttention:
    w_q: Tensor  # (D, D), H head slices of width D//H
    w_k: Tensor  # (D, D)
    w_v: Tensor  # (D, D)
    w_o: Tensor  # (D, D)
    w_graph: Tensor  # (D, D)
    w_bias: Tensor  # (D, H*C), head h's readout in columns h*C .. h*C+C-1
    raw_beta: Tensor  # scalar, temperature = softplus(raw_beta)
    heads: int
    k_top: int

    @property
    def beta(self) -> Tensor:
        return te.softplus(self.raw_beta)


def _normalize(adjacency: np.ndarray) -> np.ndarray:
    degree = adjacency.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)  # positive: every node has a self-loop
    return inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]


def build_graph(positions: np.ndarray, radius: float = 0.05) -> ElectrodeGraph:
    """Connect sensors within `radius` meters; add self-loops; normalize."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if positions.shape[0] < 1:
        raise ValueError("need at least one channel")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    adjacency = (dist <= radius).astype(np.float64)
    np.fill_diagonal(adjacency, 1.0)
    return ElectrodeGraph(
        positions=positions,
        adjacency=adjacency,
        norm_adjacency=_normalize(adjacency),
    )


def circle_layout(c: int, radius: float = 0.09) -> np.ndarray:
    """C sensors evenly spaced on a circle in the z=0 plane (meters)."""
    angles = 2 * np.pi * np.arange(c) / c
    return np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(c)], axis=1
    )


def drop_edges(g: ElectrodeGraph, rate: float, rng: np.random.Generator) -> ElectrodeGraph:
    """Remove each off-diagonal edge pair with probability `rate`, renormalize."""
    if rate <= 0.0:
        return g
    c = g.n_channels
    keep = (rng.random(size=(c, c)) >= rate).astype(np.float64)
    keep = np.triu(keep, k=1)
    keep = keep + keep.T  # one coin per undirected edge
    adjacency = g.adjacency * keep
    np.fill_diagonal(adjacency, 1.0)
    return ElectrodeGraph(
        positions=g.positions,
        adjacency=adjacency,
        norm_adjacency=_normalize(adjacency),
    )


def graph_conv(g: ElectrodeGraph, h_feat: Tensor, w: Tensor) -> Tensor:
    """GELU(A_hat @ H @ W) over (..., C, D) features."""
    mixed = te.matmul(Tensor(g.norm_adjacency), te.matmul(h_feat, w))
    return te.gelu(mixed)


def spatial_biases(h_tilde: Tensor, w_bias: Tensor) -> Tensor:
    """Per-head channel-pair biases from diffused features.

    h_tilde is (B, C, D) graph_conv output, w_bias (D, H*C).
    Returns (H, B, C, C): one (B*C, D) @ (D, H*C) GEMM, then a view.
    """
    b, c, _ = h_tilde.shape
    heads = w_bias.shape[1] // c
    per_head = te.matmul(h_tilde, w_bias).reshape((b, c, heads, c))
    return te.transpose(per_head, (2, 0, 1, 3))


def masked_softmax_topk(scores: Tensor, k: int) -> Tensor:
    """Row-wise softmax over the k largest scores; the rest are exactly zero.

    scores (..., C): keeps min(k, C) entries per row, ties resolved
    toward the lowest column, and normalizes over them. Returns the
    dense (..., C) map. The mask costs one argsort, skipped when k >= C
    keeps every entry; the softmax and everything after it stay dense in
    C, whatever k is.
    """
    if k >= scores.shape[-1]:
        return te.softmax(scores)
    # stable sort on the negated scores: equal values keep ascending column order
    idx = np.argsort(-scores.data, axis=-1, kind="stable")[..., :k]
    keep = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(keep, idx, True, axis=-1)
    return te.softmax(scores, keep)


def topk_masked_attention(sa: SpatialAttention, g: ElectrodeGraph, x: Tensor):
    """Channel-axis multi-head attention with graph biases and top-k rows.

    x is (B, C, D). Returns (output (B, C, D), attn (H, B, C, C) dense
    with zeros off the kept entries, scores (H, B, C, C) pre-mask).
    """
    b, c, d = x.shape
    heads = sa.heads
    if d % heads:
        raise ValueError("head count must divide the feature width")
    dk = d // heads
    scale = 1.0 / np.sqrt(dk)

    h_tilde = graph_conv(g, x, sa.w_graph)
    biases = spatial_biases(h_tilde, sa.w_bias)  # (H, B, C, C)
    beta = sa.beta

    def split(proj):  # (B, C, D) -> (H*B, C, dk), head-major
        per_head = te.transpose(proj.reshape((b, c, heads, dk)), (2, 0, 1, 3))
        return per_head.reshape((heads * b, c, dk))

    q = split(te.matmul(x, sa.w_q))
    k_t = te.transpose(split(te.matmul(x, sa.w_k)), (0, 2, 1))  # (H*B, dk, C)
    v = split(te.matmul(x, sa.w_v))
    qk = te.matmul(q, k_t).reshape((heads, b, c, c))
    scores = qk * scale + beta * biases  # (H, B, C, C)
    attn = masked_softmax_topk(scores, sa.k_top)
    per_head = te.matmul(attn.reshape((heads * b, c, c)), v).reshape((heads, b, c, dk))
    merged = te.transpose(per_head, (1, 2, 0, 3)).reshape((b, c, d))
    out = te.matmul(merged, sa.w_o)
    return out, attn, scores


def init_spatial_attention(
    d: int,
    heads: int,
    c: int,
    rng: np.random.Generator,
    k_top: int,
) -> SpatialAttention:
    if d % heads:
        raise ValueError("head count must divide the feature width")
    bound = 1.0 / np.sqrt(d)

    def mat(shape):
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    def bias_readout():  # drawn per head as (H, D, C), stored as (D, H*C)
        per_head = rng.uniform(-bound, bound, size=(heads, d, c))
        return Tensor(per_head.transpose(1, 0, 2).reshape(d, heads * c), requires_grad=True)

    return SpatialAttention(
        w_q=mat((d, d)),
        w_k=mat((d, d)),
        w_v=mat((d, d)),
        w_o=mat((d, d)),
        w_graph=mat((d, d)),
        w_bias=bias_readout(),
        raw_beta=Tensor(te.inv_softplus(1.0), requires_grad=True),
        heads=heads,
        k_top=k_top,
    )
