"""Full classifier: patch embedding, mixing blocks, pooled head.

Layout is B x C x T_p x D throughout the trunk. Each block normalizes,
then mixes along two different axes: the band-filter and kernel-mixture
branches treat every channel's patch sequence independently (time axis),
while the attention branch treats every patch's channel vector
independently (channel axis). A softmax over three logits fuses the
branches, a scaled layer-normed projection re-enters the residual
stream, and a position-wise FFN finishes the block.

Zeroing every mixing and FFN parameter reduces each block to the exact
identity map: layer_norm maps an all-zero vector to its (zero) shift,
so both residual updates vanish bitwise. Tests pin that.

Band-filter centers are specified in source-signal hertz and rescaled
by 1/P to the patch sequence rate, preserving band ordering inside the
patch-level Nyquist range.

Checkpoints are a flat binary: magic `NAKL`, u32 version, u32 tensor
count, then per tensor a u16 name length, UTF-8 name, u8 rank, u32
dims, and float32 values, all little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as te
from .dynamic import (
    DEFAULT_KERNEL_SIZES,
    KernelBank,
    MetaNetwork,
    dynamic_mix,
    init_kernel_bank,
    init_meta_network,
)
from .graph import (
    ElectrodeGraph,
    SpatialAttention,
    build_graph,
    circle_layout,
    drop_edges,
    init_spatial_attention,
    topk_masked_attention,
)
from .spectral import CANONICAL_MU_HZ, init_band_filters, spectral_mix
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "NakulBlock",
    "NakulModel",
    "init_model",
    "embed",
    "block_forward",
    "model_forward",
    "count_flops",
    "save_checkpoint",
    "load_checkpoint",
    "load_into",
]

CHECKPOINT_MAGIC = b"NAKL"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    n_channels: int
    n_classes: int
    sample_rate: float = 250.0
    d: int = 128
    n_blocks: int = 6
    heads: int = 8
    patch: int = 50
    n_bands: int = 4
    kernel_sizes: tuple = DEFAULT_KERNEL_SIZES
    k_top: int = 16
    ffn_mult: int = 4
    head_hidden: int = 64
    dropout: float = 0.1
    stoch_depth: float = 0.1
    drop_edge: float = 0.2
    band_mu_hz: tuple = CANONICAL_MU_HZ
    band_sigma_hz: float = 2.0
    sigma_floor_hz: float = 0.1
    init_state_dim: int = 1  # order of the system seeding the kernel bank
    positions: np.ndarray | None = None  # default: circle layout

    @property
    def patch_rate(self) -> float:
        return self.sample_rate / self.patch


@dataclass
class NakulBlock:
    filters: list  # spectral band filters
    bank: KernelBank
    meta: MetaNetwork
    attn: SpatialAttention
    fusion_logits: Tensor  # (3,)
    w_proj: Tensor  # (D, D)
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    lnf_gain: Tensor
    lnf_bias: Tensor
    ffn_w1: Tensor  # (D, 4D)
    ffn_b1: Tensor
    ffn_w2: Tensor  # (4D, D)
    ffn_b2: Tensor
    scale: float = 0.5  # fixed damping on the fused update

    def named(self, prefix: str) -> dict:
        out = {}
        for i, f in enumerate(self.filters):
            out.update(f.named(f"{prefix}.band{i}"))
        out.update(self.bank.named(f"{prefix}.bank"))
        out.update(self.meta.named(f"{prefix}.meta"))
        out.update(self.attn.named(f"{prefix}.attn"))
        out.update(
            {
                f"{prefix}.fusion_logits": self.fusion_logits,
                f"{prefix}.w_proj": self.w_proj,
                f"{prefix}.ln1_gain": self.ln1_gain,
                f"{prefix}.ln1_bias": self.ln1_bias,
                f"{prefix}.ln2_gain": self.ln2_gain,
                f"{prefix}.ln2_bias": self.ln2_bias,
                f"{prefix}.lnf_gain": self.lnf_gain,
                f"{prefix}.lnf_bias": self.lnf_bias,
                f"{prefix}.ffn_w1": self.ffn_w1,
                f"{prefix}.ffn_b1": self.ffn_b1,
                f"{prefix}.ffn_w2": self.ffn_w2,
                f"{prefix}.ffn_b2": self.ffn_b2,
            }
        )
        return out


@dataclass
class NakulModel:
    cfg: ModelConfig
    graph: ElectrodeGraph
    w_embed: Tensor  # (P, D)
    b_embed: Tensor  # (D,)
    pos_enc: dict = field(default_factory=dict)  # (C, T_p, D) lazily per T_p
    blocks: list = field(default_factory=list)
    head_w1: Tensor | None = None
    head_b1: Tensor | None = None
    head_w2: Tensor | None = None
    head_b2: Tensor | None = None

    def named(self) -> dict:
        out = {"embed.weight": self.w_embed, "embed.bias": self.b_embed}
        for key, enc in self.pos_enc.items():
            out[f"embed.pos_{key}"] = enc
        for i, b in enumerate(self.blocks):
            out.update(b.named(f"block{i}"))
        out.update(
            {
                "head.w1": self.head_w1,
                "head.b1": self.head_b1,
                "head.w2": self.head_w2,
                "head.b2": self.head_b2,
            }
        )
        return out

    def parameters(self) -> list:
        named = self.named()
        return [named[k] for k in sorted(named)]


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape):
    return Tensor(np.ones(shape), requires_grad=True)


def init_block(cfg: ModelConfig, rng: np.random.Generator) -> NakulBlock:
    d, hidden = cfg.d, cfg.ffn_mult * cfg.d
    p = cfg.patch
    filters = init_band_filters(
        d,
        rng,
        mus_hz=tuple(m / p for m in cfg.band_mu_hz),
        sigma_hz=cfg.band_sigma_hz / p,
        sigma_floor=cfg.sigma_floor_hz / p,
    )
    return NakulBlock(
        filters=filters,
        bank=init_kernel_bank(d, rng, sizes=cfg.kernel_sizes, state_dim=cfg.init_state_dim),
        meta=init_meta_network(rng, m=len(cfg.kernel_sizes)),
        attn=init_spatial_attention(d, cfg.heads, cfg.n_channels, rng, k_top=cfg.k_top),
        fusion_logits=_zeros((3,)),
        w_proj=_uniform(rng, (d, d), d),
        ln1_gain=_ones((d,)),
        ln1_bias=_zeros((d,)),
        ln2_gain=_ones((d,)),
        ln2_bias=_zeros((d,)),
        lnf_gain=_ones((d,)),
        lnf_bias=_zeros((d,)),
        ffn_w1=_uniform(rng, (d, hidden), d),
        ffn_b1=_zeros((hidden,)),
        ffn_w2=_uniform(rng, (hidden, d), hidden),
        ffn_b2=_zeros((d,)),
    )


def init_model(cfg: ModelConfig, rng: np.random.Generator) -> NakulModel:
    positions = cfg.positions if cfg.positions is not None else circle_layout(cfg.n_channels)
    graph = build_graph(positions)
    if graph.n_channels != cfg.n_channels:
        raise ValueError("positions do not match the configured channel count")
    model = NakulModel(
        cfg=cfg,
        graph=graph,
        w_embed=_uniform(rng, (cfg.patch, cfg.d), cfg.patch),
        b_embed=_zeros((cfg.d,)),
    )
    model.blocks = [init_block(cfg, rng) for _ in range(cfg.n_blocks)]
    model.head_w1 = _uniform(rng, (cfg.d, cfg.head_hidden), cfg.d)
    model.head_b1 = _zeros((cfg.head_hidden,))
    model.head_w2 = _uniform(rng, (cfg.head_hidden, cfg.n_classes), cfg.head_hidden)
    model.head_b2 = _zeros((cfg.n_classes,))
    return model


def _positional(model: NakulModel, t_p: int) -> Tensor:
    """Zero-initialized learnable encodings, one table per patch count."""
    if t_p not in model.pos_enc:
        model.pos_enc[t_p] = _zeros((model.cfg.n_channels, t_p, model.cfg.d))
    return model.pos_enc[t_p]


def embed(model: NakulModel, x: Tensor) -> Tensor:
    """Split (B, C, T) into P-sample patches, project to D, add positions.

    T below one patch is an error; a ragged tail is zero-padded.
    """
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    b, c, t = x.shape
    p = model.cfg.patch
    if t < p:
        raise ValueError(f"need at least {p} samples, got {t}")
    t_p = -(-t // p)
    if t_p * p != t:
        pad = Tensor(np.zeros((b, c, t_p * p - t)))
        x = te.concat([x, pad], axis=-1)
    tokens = x.reshape((b, c, t_p, p))
    return te.matmul(tokens, model.w_embed) + model.b_embed + _positional(model, t_p)


def _dropout(x: Tensor, rate: float, rng) -> Tensor:
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * keep


def block_forward(
    blk: NakulBlock,
    x: Tensor,
    g: ElectrodeGraph,
    rate: float,
    rng=None,
    dropout: float = 0.0,
    stoch_rate: float = 0.0,
    drop_edge: float = 0.0,
    fusion_override: np.ndarray | None = None,
):
    """One mixing block over (B, C, T_p, D); rng enables train-time noise.

    Returns (output, diagnostics) where diagnostics carries the fusion
    weights, band gates, and kernel weights for dumps and tests.
    """
    b, c, t_p, d = x.shape
    x_norm = te.layer_norm(x, blk.ln1_gain, blk.ln1_bias)

    y_spec, band_gates = spectral_mix(blk.filters, x_norm, rate)
    stats = {}
    y_dyn, kernel_weights = dynamic_mix(blk.bank, blk.meta, x_norm, stats_out=stats)

    g_used = drop_edges(g, drop_edge, rng) if rng is not None else g
    tokens = te.swapaxes(x_norm, 1, 2).reshape((b * t_p, c, d))
    y_graph, attention, _ = topk_masked_attention(blk.attn, g_used, tokens)
    y_graph = te.swapaxes(y_graph.reshape((b, t_p, c, d)), 1, 2)

    if fusion_override is None:
        fusion = te.softmax(blk.fusion_logits)
    else:
        fusion = Tensor(np.asarray(fusion_override, dtype=np.float64))
    fused = fusion[0] * y_spec + fusion[1] * y_dyn + fusion[2] * y_graph

    update = te.layer_norm(te.matmul(fused, blk.w_proj), blk.lnf_gain, blk.lnf_bias)
    update = update * blk.scale
    if rng is not None and stoch_rate > 0.0:
        keep = (rng.random((b, 1, 1, 1)) >= stoch_rate) / (1.0 - stoch_rate)
        update = update * keep
    z = x + update

    hidden = te.gelu(te.matmul(te.layer_norm(z, blk.ln2_gain, blk.ln2_bias), blk.ffn_w1) + blk.ffn_b1)
    hidden = _dropout(hidden, dropout, rng)
    ffn_update = te.matmul(hidden, blk.ffn_w2) + blk.ffn_b2
    if rng is not None and stoch_rate > 0.0:
        keep = (rng.random((b, 1, 1, 1)) >= stoch_rate) / (1.0 - stoch_rate)
        ffn_update = ffn_update * keep
    out = z + ffn_update

    diag = {
        "fusion": fusion,
        "band_gates": band_gates,
        "kernel_weights": kernel_weights,
        "attention": attention,
    }
    diag.update(stats)
    return out, diag


def model_forward(
    model: NakulModel,
    x,
    rng=None,
    fusion_override: np.ndarray | None = None,
    diags: list | None = None,
):
    """Logits for a (B, C, T) batch; pass rng to enable training noise.

    A list passed as diags receives one diagnostics dict per block.
    """
    cfg = model.cfg
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if data.shape[1] != model.graph.n_channels:
        raise ValueError(
            f"input has {data.shape[1]} channels, graph has {model.graph.n_channels}")
    h = embed(model, x)
    n = len(model.blocks)
    for i, blk in enumerate(model.blocks):
        p_l = cfg.stoch_depth * i / max(n - 1, 1)
        h, diag = block_forward(
            blk,
            h,
            model.graph,
            cfg.patch_rate,
            rng=rng,
            dropout=cfg.dropout,
            stoch_rate=p_l,
            drop_edge=cfg.drop_edge,
            fusion_override=fusion_override,
        )
        if diags is not None:
            diags.append(diag)
    pooled = h.mean(axis=(1, 2))  # (B, D)
    hidden = te.gelu(te.matmul(pooled, model.head_w1) + model.head_b1)
    hidden = _dropout(hidden, cfg.dropout, rng)
    return te.matmul(hidden, model.head_w2) + model.head_b2


# --- cost model ----------------------------------------------------------------


def count_flops(model: NakulModel, input_shape) -> dict:
    """Analytic multiply-add estimate per component for one forward pass.

    Mirrors the engine counter's conventions: matmul m*k*n, each FFT
    1.25*T*log2(T), elementwise one per element. The elementwise bucket
    is a coarse per-block constant times the trunk size.
    """
    b, c, t = input_shape
    cfg = model.cfg
    d, p = cfg.d, cfg.patch
    t_p = -(-t // p)
    f = t_p // 2 + 1
    k_bands = cfg.n_bands
    heads = cfg.heads
    k_att = min(cfg.k_top, c)
    n_blocks = len(model.blocks)
    trunk = b * c * t_p * d

    out = {"embed": b * c * t_p * p * d}
    log_t = max(np.log2(max(t_p, 2)), 1.0)
    fft_one = 1.25 * t_p * log_t
    # spectral: forward+inverse transforms per feature column, plus the
    # entropy statistic's own forward transform in the kernel branch
    out["fft"] = int(n_blocks * 3 * b * c * d * fft_one)
    out["band_mixing"] = n_blocks * 4 * k_bands * b * c * f * d * d
    out["band_gates"] = n_blocks * k_bands * (3 * b * c * f * d + b * c * d)
    out["kernel_convs"] = n_blocks * sum(trunk * km for km in cfg.kernel_sizes)
    out["kernel_gate"] = n_blocks * trunk * d
    out["meta"] = n_blocks * b * c * (2 * 16 + 16 * len(cfg.kernel_sizes))
    rows = b * t_p
    out["graph_conv"] = n_blocks * (rows * c * c * d + rows * c * d * d)
    out["bias_readout"] = n_blocks * heads * rows * c * d * c
    out["attention"] = n_blocks * (
        4 * rows * c * d * d  # Q, K, V, output projections
        + rows * c * c * d  # scores, summed over heads
        + rows * c * k_att * d  # value gather and combine
    )
    out["fusion_proj"] = n_blocks * trunk * d
    out["ffn"] = n_blocks * 2 * trunk * cfg.ffn_mult * d
    out["elementwise"] = n_blocks * 40 * trunk
    out["head"] = b * d * cfg.head_hidden + b * cfg.head_hidden * cfg.n_classes
    out = {k: int(v) for k, v in out.items()}
    out["total"] = sum(out.values())
    return out


# --- checkpoint io -------------------------------------------------------------


def save_checkpoint(path, named: dict) -> None:
    """Write name -> Tensor/array pairs in the flat binary format."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(named)))
        for name in sorted(named):
            arr = named[name]
            arr = np.asarray(arr.data if isinstance(arr, Tensor) else arr)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes(order="C"))


def load_checkpoint(path) -> dict:
    """Read the flat binary format back into {name: float64 array}."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = 12
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        values = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
        offset += 4 * size
        out[name] = values.astype(np.float64).reshape(dims)
    if offset != len(blob):
        raise ValueError("trailing bytes after last tensor")
    return out


def load_into(model: NakulModel, path) -> None:
    """Restore saved values into an initialized model.

    Every name and shape is checked before anything changes, so a
    mismatch leaves the model exactly as it was.
    """
    saved = load_checkpoint(path)
    shapes = {name: tensor.data.shape for name, tensor in model.named().items()}
    lazy = []  # positional tables are created lazily; check the shape they would get
    for key in saved:
        if key.startswith("embed.pos_") and key not in shapes:
            t_p = int(key.split("_")[-1])
            shapes[key] = (model.cfg.n_channels, t_p, model.cfg.d)
            lazy.append(t_p)
    if set(saved) != set(shapes):
        missing = set(shapes) - set(saved)
        extra = set(saved) - set(shapes)
        raise ValueError(f"checkpoint mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for name, arr in saved.items():
        if tuple(shapes[name]) != tuple(arr.shape):
            raise ValueError(f"shape mismatch for {name}")
    for t_p in lazy:
        _positional(model, t_p)
    named = model.named()
    for name, arr in saved.items():
        # ascontiguousarray would silently promote 0-d scalars to (1,)
        named[name].data = np.ascontiguousarray(arr) if arr.ndim else np.asarray(arr)
