"""Full classifier: patch embedding, mixing blocks, pooled head.

Layout is B x C x T_p x D throughout the trunk. Each block normalizes,
then mixes along two different axes: the band-filter and kernel-mixture
branches treat every channel's patch sequence independently (time axis),
while the attention branch treats every patch's channel vector
independently (channel axis). A softmax over three logits fuses the
branches, a scaled layer-normed projection re-enters the residual
stream, and a position-wise FFN finishes the block.

The block's FFN after its layer_norm, and the classifier head after
pooling, are one `te.ffn` node each. Their dropout masks are drawn here,
in model code, from the rng the caller passes.

Zeroing every mixing and FFN parameter reduces each block to the exact
identity map: layer_norm maps an all-zero vector to its (zero) shift,
so both residual updates vanish bitwise. Tests pin that.

Band-filter centers are specified in source-signal hertz and rescaled
by 1/P to the patch sequence rate, preserving band ordering inside the
patch-level Nyquist range.

The electrode layout is a `ModelConfig` value like any size: one
(x, y, z) tuple per channel in metres, or empty for sensors evenly
spaced on a circle. `init_model` builds the fixed electrode graph from
it, so the `ModelConfig` alone fixes the model's structure, graph
included.

A checkpoint is an `.npz` file (`save_npz`) of float32 members named by
dotted field path (`w_embed`, `blocks.0.bands.w_r` holding all K bands,
`blocks.0.bank.kernels.2`), each in the layout its forward reads (the
kernel bank in lag order). It holds exactly the parameters `init_model`
creates from the run's `ModelConfig`: sizes are never read from shapes.
"""

from __future__ import annotations

import os
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import tensor as te
from .dynamic import (
    DEFAULT_KERNEL_SIZES,
    META_HIDDEN,
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
from .spectral import (
    CANONICAL_MU_HZ,
    CANONICAL_SIGMA_HZ,
    BandBank,
    band_mask,
    band_spans,
    init_band_filters,
    spectral_mix,
)
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "NakulBlock",
    "NakulModel",
    "init_model",
    "named_tensors",
    "embed",
    "block_forward",
    "model_forward",
    "count_flops",
    "atomic_open",
    "save_npz",
    "load_npz",
    "save_checkpoint",
    "load_checkpoint",
    "load_into",
]

FUSED_SCALE = 0.5  # fixed damping on each block's fused update


@dataclass
class ModelConfig:
    n_channels: int
    n_classes: int
    sample_rate: float = 250.0
    d: int = 128
    n_blocks: int = 6
    heads: int = 8
    patch: int = 50
    kernel_sizes: tuple = DEFAULT_KERNEL_SIZES
    k_top: int = 16
    ffn_mult: int = 4
    head_hidden: int = 64
    dropout: float = 0.1
    stoch_depth: float = 0.1
    drop_edge: float = 0.2
    band_mu_hz: tuple = CANONICAL_MU_HZ
    band_sigma_hz: float = CANONICAL_SIGMA_HZ
    sigma_floor_hz: float = 0.1
    positions: tuple = ()  # one (x, y, z) per channel in metres; empty: circle layout

    @property
    def patch_rate(self) -> float:
        return self.sample_rate / self.patch


@dataclass
class NakulBlock:
    bands: BandBank
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


@dataclass
class NakulModel:
    cfg: ModelConfig
    graph: ElectrodeGraph
    w_embed: Tensor  # (P, D)
    b_embed: Tensor  # (D,)
    blocks: list
    head_w1: Tensor  # (D, H)
    head_b1: Tensor
    head_w2: Tensor  # (H, classes)
    head_b2: Tensor

    def named(self) -> dict:
        """Every parameter, by dotted field path: `blocks.0.bands.w_r`."""
        return named_tensors(self)

    def parameters(self) -> list:
        named = self.named()
        return [named[k] for k in sorted(named)]


def named_tensors(node) -> dict:
    """Every Tensor reachable through dataclass fields and lists, by dotted path.

    Fields are the only declaration of a module's parameters.
    """
    # An explicit stack, not a closure that calls itself: such a closure is a
    # reference cycle, which would keep `out`, and so every parameter of a
    # discarded model, alive until the cyclic garbage collector next runs.
    out = {}
    stack = [("", node)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, Tensor):
            out[path] = value
        elif is_dataclass(value):
            stack.extend((f"{path}.{f.name}" if path else f.name, getattr(value, f.name))
                         for f in reversed(fields(value)))
        elif isinstance(value, list):
            stack.extend((f"{path}.{i}", value[i]) for i in reversed(range(len(value))))
    return out


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
    return NakulBlock(
        bands=init_band_filters(
            d,
            rng,
            mus_hz=tuple(m / p for m in cfg.band_mu_hz),
            sigma_hz=cfg.band_sigma_hz / p,
            sigma_floor=cfg.sigma_floor_hz / p,
        ),
        bank=init_kernel_bank(d, rng, sizes=cfg.kernel_sizes),
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
    graph = build_graph(cfg.positions or circle_layout(cfg.n_channels))
    if graph.n_channels != cfg.n_channels:
        raise ValueError("positions do not match the configured channel count")
    # keyword arguments evaluate in order: embed, blocks, head draw in that order
    return NakulModel(
        cfg=cfg,
        graph=graph,
        w_embed=_uniform(rng, (cfg.patch, cfg.d), cfg.patch),
        b_embed=_zeros((cfg.d,)),
        blocks=[init_block(cfg, rng) for _ in range(cfg.n_blocks)],
        head_w1=_uniform(rng, (cfg.d, cfg.head_hidden), cfg.d),
        head_b1=_zeros((cfg.head_hidden,)),
        head_w2=_uniform(rng, (cfg.head_hidden, cfg.n_classes), cfg.head_hidden),
        head_b2=_zeros((cfg.n_classes,)),
    )


def embed(model: NakulModel, x: Tensor) -> Tensor:
    """Split (B, C, T) into P-sample patches and project each to D.

    T below one patch is an error; a ragged tail is zero-padded.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    b, c, t = x.shape
    p = model.cfg.patch
    if t < p:
        raise ValueError(f"need at least {p} samples, got {t}")
    t_p = -(-t // p)
    if t_p * p != t:
        pad = Tensor(np.zeros((b, c, t_p * p - t)))
        x = te.concat([x, pad], axis=-1)
    tokens = x.reshape((b, c, t_p, p))
    return te.matmul(tokens, model.w_embed) + model.b_embed


def _ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, rate: float, rng) -> Tensor:
    """te.ffn, with its dropout mask drawn from rng when rng is given and rate > 0."""
    mask = None
    if rng is not None and rate > 0.0:
        mask = rng.random(x.shape[:-1] + w1.shape[1:]) >= rate
    return te.ffn(x, w1, b1, w2, b2, mask, rate)


def _drop_path(update: Tensor, rate: float, rng) -> Tensor:
    """Stochastic depth: drop each sample's whole residual update with probability rate."""
    if rng is None or rate <= 0.0:
        return update
    keep = (rng.random((update.shape[0],) + (1,) * (update.ndim - 1)) >= rate) / (1.0 - rate)
    return update * keep


def block_forward(
    blk: NakulBlock,
    x: Tensor,
    model: NakulModel,
    rng=None,
    stoch_rate: float = 0.0,
    fusion_override: np.ndarray | None = None,
):
    """One mixing block of `model` over (B, C, T_p, D); rng enables train-time noise.

    The graph, patch rate, dropout and drop-edge rate come from `model`;
    stoch_rate is this block's own. Returns (output, diagnostics) where
    diagnostics carries the fusion weights, band gates, and kernel
    weights for dumps and tests.
    """
    cfg = model.cfg
    b, c, t_p, d = x.shape
    x_norm = te.layer_norm(x, blk.ln1_gain, blk.ln1_bias)

    y_spec, band_gates = spectral_mix(blk.bands, x_norm, cfg.patch_rate)
    stats = {}
    y_dyn, kernel_weights = dynamic_mix(blk.bank, blk.meta, x_norm, stats_out=stats)

    g_used = drop_edges(model.graph, cfg.drop_edge, rng) if rng is not None else model.graph
    tokens = te.transpose(x_norm, (0, 2, 1, 3)).reshape((b * t_p, c, d))
    y_graph, attention, _ = topk_masked_attention(blk.attn, g_used, tokens)
    y_graph = te.transpose(y_graph.reshape((b, t_p, c, d)), (0, 2, 1, 3))

    if fusion_override is None:
        fusion = te.softmax(blk.fusion_logits)
    else:
        fusion = Tensor(fusion_override)
    fused = fusion[0] * y_spec + fusion[1] * y_dyn + fusion[2] * y_graph

    update = te.layer_norm(te.matmul(fused, blk.w_proj), blk.lnf_gain, blk.lnf_bias)
    z = x + _drop_path(update * FUSED_SCALE, stoch_rate, rng)

    z_norm = te.layer_norm(z, blk.ln2_gain, blk.ln2_bias)
    ffn = _ffn(z_norm, blk.ffn_w1, blk.ffn_b1, blk.ffn_w2, blk.ffn_b2, cfg.dropout, rng)
    out = z + _drop_path(ffn, stoch_rate, rng)

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
        h, diag = block_forward(blk, h, model, rng, p_l, fusion_override)
        if diags is not None:
            diags.append(diag)
    pooled = h.mean(axis=(1, 2))  # (B, D)
    return _ffn(pooled, model.head_w1, model.head_b1, model.head_w2, model.head_b2,
                cfg.dropout, rng)


# --- cost model ----------------------------------------------------------------


def count_flops(model: NakulModel, input_shape) -> dict:
    """Analytic multiply-add estimate per component for one forward pass.

    Mirrors the engine counter's conventions: matmul m*k*n, each FFT
    1.25*T*log2(T), elementwise one per element. Band mixing prices only
    the bins each block's current masks keep (band_spans), as
    te.band_mix counts them. The elementwise bucket is a coarse
    per-block constant times the trunk size.
    """
    b, c, t = input_shape
    cfg = model.cfg
    d, p = cfg.d, cfg.patch
    t_p = -(-t // p)
    f = t_p // 2 + 1
    k_bands = len(cfg.band_mu_hz)
    heads = cfg.heads
    n_kernels, k_max = len(cfg.kernel_sizes), max(cfg.kernel_sizes)
    n_blocks = len(model.blocks)
    trunk = b * c * t_p * d

    out = {"embed": b * c * t_p * p * d}
    log_t = max(np.log2(max(t_p, 2)), 1.0)
    fft_one = 1.25 * t_p * log_t
    # spectral: forward+inverse transforms per feature column, plus the
    # entropy statistic's own forward transform in the kernel branch
    out["fft"] = int(n_blocks * 3 * b * c * d * fft_one)
    with te.no_grad():
        kept = sum(hi - lo for blk in model.blocks
                   for lo, hi in band_spans(band_mask(blk.bands, t_p, cfg.patch_rate)))
    out["band_mixing"] = 4 * kept * b * c * d * d
    out["band_gates"] = n_blocks * k_bands * (3 * b * c * f * d + b * c * d)
    # one convolution with a blended kernel of the longest size per sample
    out["kernel_convs"] = n_blocks * trunk * k_max
    out["kernel_gate"] = n_blocks * trunk * d
    out["meta"] = n_blocks * b * c * (
        2 * META_HIDDEN + META_HIDDEN * n_kernels + n_kernels * k_max * d)
    rows = b * t_p
    out["graph_conv"] = n_blocks * (rows * c * c * d + rows * c * d * d)
    out["bias_readout"] = n_blocks * heads * rows * c * d * c
    out["attention"] = n_blocks * (
        4 * rows * c * d * d  # Q, K, V, output projections
        + rows * c * c * d  # scores, summed over heads
        + rows * c * c * d  # dense top-k map @ V, whatever k is
    )
    out["fusion_proj"] = n_blocks * trunk * d
    out["ffn"] = n_blocks * 2 * trunk * cfg.ffn_mult * d
    out["elementwise"] = n_blocks * 40 * trunk
    out["head"] = b * d * cfg.head_hidden + b * cfg.head_hidden * cfg.n_classes
    out = {k: int(v) for k, v in out.items()}
    out["total"] = sum(out.values())
    return out


# --- checkpoint io -------------------------------------------------------------


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file beside `path` for the block to write.

    When the block finishes, the file is flushed, fsynced and renamed
    over `path` in one step. When it raises, any previous `path` stays
    as it was and the temporary file is removed. Extra keyword
    arguments go to `open`.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_npz(path, arrays: dict) -> None:
    """Write name -> array pairs as `.npy` members of a stored zip (numpy's `.npz`) through
    `atomic_open`, sorted and dated 1980-01-01 by `ZipInfo`: equal arrays give equal bytes."""
    with atomic_open(path) as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, arr in sorted(arrays.items()):
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w") as member:
                np.lib.format.write_array(member, np.asarray(arr, order="C"), allow_pickle=False)


def load_npz(path) -> dict:
    """{name: array} from an `.npz` file of plain `.npy` members; ValueError on any damage.
    Members are streamed: `zipfile` checks each one's CRC-32 when a read reaches its end."""
    out = {}
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
            fh.seek(-22, os.SEEK_END)  # zipfile skips trailing bytes and miscounted members
            end, found = fh.read(22), len(set(zf.namelist()))
            if end[:4] != b"PK\x05\x06" or int.from_bytes(end[10:12], "little") != found:
                raise ValueError("bytes after the zip's end record, or members missing or repeated")
            for info in zf.infolist():
                with zf.open(info) as member:
                    arr = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read(1):
                        raise ValueError(f"{info.filename} is more than a plain {arr.dtype} array")
                out[info.filename.removesuffix(".npy")] = arr
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, NotImplementedError,
            RuntimeError, SyntaxError, tokenize.TokenError) as exc:
        # RuntimeError: a flipped flag bit marks a member encrypted; SyntaxError and
        # TokenError: numpy parses a damaged .npy header before the CRC-32 is checked
        raise ValueError(f"not a zip of .npy arrays: {exc}") from None
    return out


def save_checkpoint(path, named: dict) -> None:
    """Write name -> Tensor/array pairs as float32 members of an `.npz` file (`save_npz`)."""
    save_npz(path, {name: np.asarray(arr.data if isinstance(arr, Tensor) else arr, "<f4")
                    for name, arr in named.items()})


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into {name: float64 array}; ValueError on any damage."""
    with open(path, "rb") as fh:
        if fh.read(4) == b"NAKL":
            raise ValueError("a flat NAKL checkpoint from an earlier build; retrain")
    arrays = load_npz(path)
    wrong = [name for name, arr in arrays.items() if arr.dtype != "<f4"]
    if wrong:
        raise ValueError(f"member {wrong[0]}.npy is not a plain float32 array")
    return {name: arr.astype(np.float64, order="C") for name, arr in arrays.items()}


def load_into(model: NakulModel, path) -> None:
    """Restore saved values into a model built from the run's config.

    Every name, shape and value is checked before anything changes, so a
    mismatch (ValueError) or a NaN/Inf value (FloatingPointError naming
    the tensor) leaves the model exactly as it was.
    """
    saved = load_checkpoint(path)
    named = model.named()
    if set(saved) != set(named):
        missing = sorted(set(named) - set(saved))
        extra = sorted(set(saved) - set(named))
        raise ValueError(  # counts and the first few names: a full list runs to pages
            f"checkpoint does not match the model: {len(missing)} missing {missing[:3]}, "
            f"{len(extra)} extra {extra[:3]}")
    for name, arr in saved.items():
        if named[name].data.shape != arr.shape:
            raise ValueError(f"shape mismatch for {name}")
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError(f"checkpoint tensor {name} holds NaN or Inf")
    for name, arr in saved.items():
        named[name].data = arr
