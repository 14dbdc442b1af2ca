"""Learnable Gaussian band filters with complex per-band spectral mixing.

Each band k carries a center mu_k and width sigma_k (Hz), a complex
mixing matrix W_r + i W_i shared across bins, and a gate projection.
The input is transformed along time with the one-sided real FFT, each
band contributes alpha_k * M_k(f) * (W_r + i W_i) X[f], and the sum
returns to the time domain. Phase information survives because the
mixing is complex multiplication, not a magnitude operation.

Bands are an array axis: one forward builds the (F, K) masks of all
bands once, for the gates and the mixing, and the band sum runs inside
one GEMM per product, of the (..., F, K*D) band-scaled spectrum with the
per-band W_r or W_i stacked to (K*D, D).

mu and sigma stay positive through softplus reparameterization; sigma
additionally sits above a configurable floor so gradient steps cannot
collapse a band to a spike. Band gates alpha_k = sigmoid(w_gate . Z_k)
are computed per sample from that sample's own spectrum.

The "rate"/"Hz" vocabulary reads naturally for time series, but nothing
here requires seconds: for any sequence, rate is samples per unit and
mu is cycles per unit. The model applies this branch along the patch
axis with rate = sample_rate / patch_len; to keep the mask geometry of
the 250 Hz reference setting, it maps the canonical initialization (and
the sigma floor) into the reduced band proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as te
from .tensor import ComplexTensor, Tensor

__all__ = [
    "BandFilter",
    "init_band_filters",
    "band_mask",
    "band_importance",
    "spectral_mix",
    "CANONICAL_MU_HZ",
    "CANONICAL_SIGMA_HZ",
]

CANONICAL_MU_HZ = (4.0, 10.0, 20.0, 40.0)
CANONICAL_SIGMA_HZ = 2.0


@dataclass
class BandFilter:
    raw_mu: Tensor  # scalar, softplus gives mu > 0
    raw_sigma: Tensor  # scalar, sigma_floor + softplus gives sigma
    w_r: Tensor  # (D, D)
    w_i: Tensor  # (D, D)
    w_gate: Tensor  # (D, 1)
    sigma_floor: float = 0.1

    @property
    def mu(self) -> Tensor:
        return te.softplus(self.raw_mu)

    @property
    def sigma(self) -> Tensor:
        return te.softplus(self.raw_sigma) + self.sigma_floor

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.raw_mu": self.raw_mu,
            f"{prefix}.raw_sigma": self.raw_sigma,
            f"{prefix}.w_r": self.w_r,
            f"{prefix}.w_i": self.w_i,
            f"{prefix}.w_gate": self.w_gate,
        }


def init_band_filters(
    d: int,
    rng: np.random.Generator,
    mus_hz=CANONICAL_MU_HZ,
    sigma_hz: float = CANONICAL_SIGMA_HZ,
    sigma_floor: float = 0.1,
    noise: float = 0.01,
) -> list[BandFilter]:
    """Bands at the given centers, mixing near the identity passthrough.

    W_r starts at 0.5 I plus small noise and W_i at small noise, so an
    untrained branch roughly halves and passes through each band.
    """
    if sigma_hz <= sigma_floor:
        raise ValueError("sigma init must sit above the floor")
    filters = []
    for mu in mus_hz:
        raw_mu = te.inv_softplus(np.asarray(mu))
        raw_sigma = te.inv_softplus(np.asarray(sigma_hz - sigma_floor))
        w_r = 0.5 * np.eye(d) + noise * rng.uniform(-1.0, 1.0, size=(d, d))
        w_i = noise * rng.uniform(-1.0, 1.0, size=(d, d))
        bound = 1.0 / np.sqrt(d)
        w_gate = rng.uniform(-bound, bound, size=(d, 1))
        filters.append(
            BandFilter(
                raw_mu=Tensor(raw_mu, requires_grad=True),
                raw_sigma=Tensor(raw_sigma, requires_grad=True),
                w_r=Tensor(w_r, requires_grad=True),
                w_i=Tensor(w_i, requires_grad=True),
                w_gate=Tensor(w_gate, requires_grad=True),
                sigma_floor=sigma_floor,
            )
        )
    return filters


def band_mask(filters: list[BandFilter], t: int, rate: float) -> Tensor:
    """Gaussian densities over the one-sided bin frequencies; shape (T//2+1, K)."""
    if t < 2:
        raise ValueError("need at least two samples for a spectrum")
    freqs = (np.arange(t // 2 + 1) * (rate / t)).reshape(-1, 1)  # (F, 1)
    mu = te.stack([f.mu for f in filters], axis=0)  # (K,)
    sigma = te.stack([f.sigma for f in filters], axis=0)
    diff = te.add(freqs, -mu)  # (F, K)
    quad = (diff * diff) / (sigma * sigma * 2.0)
    norm = sigma * float(np.sqrt(2.0 * np.pi))
    return te.exp(-quad) / norm


def band_importance(filters: list[BandFilter], x_mag: Tensor, masks: Tensor) -> Tensor:
    """Per-sample band gates; x_mag is |spectrum| of shape (..., F, D).

    Z_k sums the (F, K) masks' column k times the magnitudes over bins;
    the gate is sigmoid(Z_k . w_gate), one value per sample per band, in (0, 1).
    """
    z = te.matmul(te.swapaxes(x_mag, -1, -2), masks)  # (..., D, K)
    w_gate = te.concat([f.w_gate for f in filters], axis=-1)  # (D, K)
    return te.sigmoid((z * w_gate).sum(axis=-2))  # (..., K)


def spectral_mix(
    filters: list[BandFilter],
    x: Tensor,
    rate: float,
    alphas: np.ndarray | None = None,
):
    """Gated complex band mixing along the second-to-last axis of x.

    x has shape (..., T, D). Returns (output, gates) where output has
    the shape of x and gates is the (..., K) Tensor of band gates used.
    Passing `alphas` (a plain array) freezes the gates at those values,
    which makes the whole map linear in x.
    """
    t, d = x.shape[-2], x.shape[-1]
    k = len(filters)
    xt = te.swapaxes(x, -1, -2)  # (..., D, T)
    spec = te.fft_real(xt)  # re/im (..., D, F)
    re = te.swapaxes(spec.re, -1, -2)  # (..., F, D)
    im = te.swapaxes(spec.im, -1, -2)
    masks = band_mask(filters, t, rate)  # (F, K)

    if alphas is None:
        mag = te.complex_abs(ComplexTensor(re, im))
        gates = band_importance(filters, mag, masks)
    else:
        gates = te.Tensor(np.asarray(alphas, dtype=np.float64))

    # alpha_k * M_k(f) scales band k's copy of each bin
    weight = gates.reshape(gates.shape[:-1] + (1, k, 1)) * masks.reshape((-1, k, 1))

    def by_band(part):  # (..., F, D) -> (..., F, K*D)
        scaled = part.reshape(part.shape[:-1] + (1, d)) * weight  # (..., F, K, D)
        return scaled.reshape(scaled.shape[:-2] + (k * d,))

    s_re, s_im = by_band(re), by_band(im)
    w_r = te.concat([f.w_r for f in filters], axis=0)  # (K*D, D)
    w_i = te.concat([f.w_i for f in filters], axis=0)
    mix_re = te.matmul(s_re, w_r) - te.matmul(s_im, w_i)
    mix_im = te.matmul(s_re, w_i) + te.matmul(s_im, w_r)

    out = te.ifft_real(
        ComplexTensor(te.swapaxes(mix_re, -1, -2), te.swapaxes(mix_im, -1, -2)), n=t
    )
    out = te.swapaxes(out, -1, -2)
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("spectral mixing produced non-finite values")
    return out, gates
