"""Adaptive temporal mixing: statistics-driven mixture of causal kernels.

A bank of M depthwise causal kernels of different lengths filters the
input in parallel. A small meta-network looks at two whole-sequence
statistics, temporal variance and spectral entropy, and produces a
softmax mixture over the bank; short kernels for fast transient content,
long ones for tonal content, learned rather than hand-assigned. The
aggregate is gated elementwise by sigmoid(x W_gate).

Statistics are computed per sample. Averaging them over a batch (as a
literal reading of the pooled-sum formulation would do) was rejected:
a sample's output must not depend on its batch neighbors.

Kernels are stored in lag order, the order the convolution reads: row
j multiplies x[t - j], so [1, 0, ..., 0] is the identity filter. Output
at time t never sees input beyond t.

The bank is one (M, K_max, D) tensor: kernel m holds its sizes[m] taps
in rows 0..sizes[m]-1 and zeros in the rows past them (the oldest
lags). The mixture is linear in the kernels, so sum_m a_m (k_m * x)
equals (sum_m a_m k_m) * x once every kernel is zero-padded to K_max.
Each forward multiplies the bank by a constant lag mask, which holds
the rows past each kernel's size at exactly 0 and passes them no
gradient, views it as (M, K_max*D), blends one kernel per sample with
one (..., M) @ (M, K_max*D) matmul and runs a single convolution with
it.

The meta-network's weights are stored as the right operands of its two
products, s @ W1 with W1 (2, META_HIDDEN) and h @ W2 with W2
(META_HIDDEN, M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as te
from .tensor import Tensor

__all__ = [
    "KernelBank",
    "MetaNetwork",
    "init_kernel_bank",
    "init_meta_network",
    "temporal_variance",
    "spectral_entropy",
    "predict_weights",
    "dynamic_mix",
    "DEFAULT_KERNEL_SIZES",
    "META_HIDDEN",
]

DEFAULT_KERNEL_SIZES = (3, 5, 7, 11)
META_HIDDEN = 16  # meta-network hidden width
INIT_NOISE = 0.01  # half-width of the uniform draw added to each initial kernel tap


@dataclass
class KernelBank:
    kernels: Tensor  # (M, K_max, D), lag order (row j multiplies x[t - j])
    w_gate: Tensor  # (D, D)
    sizes: tuple[int, ...]  # taps of each kernel; rows past sizes[m] are masked to 0


@dataclass
class MetaNetwork:
    w1: Tensor  # (2, META_HIDDEN)
    w2: Tensor  # (META_HIDDEN, M)


def init_kernel_bank(d: int, rng: np.random.Generator, sizes) -> KernelBank:
    """Kernels start at the impulse response of a stable linear system.

    The one-state system (transition 0.7, unit input and output maps)
    has the impulse response (1, 0.7, 0.49, ...), built here as a running
    product of the transition; the taps are truncated to each bank size
    and perturbed so the filters are not identical across features. The
    noise draw is a (size, D) block read bottom-up, so lag j takes its
    row size-1-j.
    """
    kernels = np.zeros((len(sizes), max(sizes), d))
    for k, size in zip(kernels, sizes):
        taps = np.cumprod(np.r_[1.0, np.full(size - 1, 0.7)])
        k[:size] = taps[:, None] + INIT_NOISE * rng.uniform(-1, 1, size=(size, d))[::-1]
    bound = 1.0 / np.sqrt(d)
    w_gate = Tensor(rng.uniform(-bound, bound, size=(d, d)), requires_grad=True)
    return KernelBank(kernels=Tensor(kernels, requires_grad=True), w_gate=w_gate, sizes=sizes)


def init_meta_network(rng: np.random.Generator, m: int) -> MetaNetwork:
    """Uniform weights; each is drawn as its (out, in) transpose."""
    w1 = rng.uniform(-1, 1, size=(META_HIDDEN, 2)).T / np.sqrt(2.0)
    w2 = rng.uniform(-1, 1, size=(m, META_HIDDEN)).T / np.sqrt(META_HIDDEN)
    return MetaNetwork(w1=Tensor(np.ascontiguousarray(w1), requires_grad=True),
                       w2=Tensor(np.ascontiguousarray(w2), requires_grad=True))


def temporal_variance(x: Tensor) -> Tensor:
    """Mean squared deviation from the global mean, per sample.

    x is (..., T, D); the mean pools time and features together.
    Returns shape (...,).
    """
    mu = x.mean(axis=(-1, -2), keepdims=True)
    dev = x - mu
    return (dev * dev).mean(axis=(-1, -2))


def spectral_entropy(x: Tensor) -> Tensor:
    """Shannon entropy of the bin-magnitude distribution, per sample.

    x is (..., T, D), transformed along time to a (..., F, 2, D) spectrum.
    Each bin's magnitude is the Euclidean norm over its real and
    imaginary parts and all features together (axes -2 and -1). An
    identically zero spectrum yields 0 by convention rather than NaN;
    that case carries no gradient.
    """
    spec = te.fft_real(x)
    mags = te.sqrt((spec * spec).sum(axis=(-2, -1)))  # (..., F)
    total = mags.sum(axis=-1, keepdims=True)
    zero_rows = (total.data == 0.0).astype(np.float64)
    p = mags / (total + zero_rows)  # zero rows divide by 1, give p = 0
    return -te.xlogx(p).sum(axis=-1)


def predict_weights(meta: MetaNetwork, variance: Tensor, entropy: Tensor) -> Tensor:
    """Mixture weights on the M-simplex from the two sequence statistics.

    variance enters through log1p to keep its unbounded scale O(1);
    entropy is expected already divided by its ln(F) maximum (the caller
    knows the bin count). Takes () or (...,) Tensors; returns (..., M).
    """
    log_var = te.log(variance + 1.0)
    s = te.stack([log_var, entropy], axis=-1)  # (..., 2)
    flat = s.reshape((-1, 2))
    h = te.gelu(te.matmul(flat, meta.w1))
    logits = te.matmul(h, meta.w2)
    alphas = te.softmax(logits)
    return alphas.reshape(variance.shape + (alphas.shape[-1],))


def dynamic_mix(bank: KernelBank, meta: MetaNetwork, x: Tensor):
    """Statistics-weighted causal filtering with sigmoid output gating.

    x is (..., T, D). Returns (output, alphas, variance, entropy): output
    shaped like x, the meta-network's mixture alphas (..., M), and the
    raw variance and normalized entropy (...,) it read, one per leading
    index of x.
    """
    nbins = x.shape[-2] // 2 + 1
    var = temporal_variance(x)
    ent = spectral_entropy(x) / float(np.log(max(nbins, 2)))
    gates = predict_weights(meta, var, ent)

    # one blended kernel per sample: (R, M) @ (M, K_max*D)
    m, k_max, d = bank.kernels.shape
    lag_mask = np.arange(k_max)[:, None] < np.asarray(bank.sizes)[:, None, None]  # (M, K_max, 1)
    masked = (bank.kernels * lag_mask).reshape((m, k_max * d))
    kernel = te.matmul(gates.reshape((-1, m)), masked)
    y = te.depthwise_causal_conv(x, kernel.reshape(gates.shape[:-1] + (k_max, d)))

    gate = te.sigmoid(te.matmul(x, bank.w_gate))
    return y * gate, gates, var, ent
