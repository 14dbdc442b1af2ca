"""Learnable Gaussian band filters with complex per-band spectral mixing.

Each band k carries a center mu_k and width sigma_k (Hz), a complex
mixing matrix W_r + i W_i shared across bins, and a gate projection.
The input is transformed along time with the one-sided real FFT, each
band contributes alpha_k * M_k(f) * (W_r + i W_i) X[f], and the sum
returns to the time domain. Phase information survives because the
mixing is complex multiplication, not a magnitude operation.

Time is axis -2, as in the trunk, so (..., T, D) maps to a (..., F, 2, D)
spectrum (real parts at index 0 of axis -2, imaginary at 1) and back
with no transpose. A BandBank holds each quantity of all K bands as one
tensor. The forward builds the (F, K) masks once, for gates and mixing,
and weights each (bin, band) pair by alpha_k * M_k(f). te.band_mix then
mixes band k only over its span: the bins where M_k(f) > TAU. A
Gaussian is unimodal in f, so those bins form one interval
[lo_k, hi_k), recomputed from the current masks on every forward since
mu and sigma train.

TAU = 1e-30 changes the math slightly: a pair whose mask is at or below
TAU adds nothing to the mix, and mu and sigma get no gradient through
it. Such a pair's weight alpha_k M_k(f) is at most 1e-30, so the mix
moves by less than 1e-30 of |W X|. The gates still read every pair.

mu and sigma stay positive through softplus reparameterization; sigma
additionally sits above a configurable floor so gradient steps cannot
collapse a band to a spike. Band gates alpha_k = sigmoid(Z_k) are
computed per sample from that sample's own spectrum.

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
from .tensor import Tensor

__all__ = [
    "BandBank",
    "init_band_filters",
    "band_mask",
    "band_importance",
    "band_spans",
    "spectral_mix",
    "TAU",
    "CANONICAL_MU_HZ",
    "CANONICAL_SIGMA_HZ",
]

CANONICAL_MU_HZ = (4.0, 10.0, 20.0, 40.0)
CANONICAL_SIGMA_HZ = 2.0
TAU = 1e-30  # a mask at or below this leaves its (bin, band) pair out of the mix
INIT_NOISE = 0.01  # half-width of the uniform draw added to each initial mixing matrix


@dataclass
class BandBank:
    raw_mu: Tensor  # (K,), softplus gives mu > 0
    raw_sigma: Tensor  # (K,), sigma_floor + softplus gives sigma
    w_r: Tensor  # (K, D, D)
    w_i: Tensor  # (K, D, D)
    w_gate: Tensor  # (D, K), column k gates band k
    sigma_floor: float

    @property
    def mu(self) -> Tensor:
        return te.softplus(self.raw_mu)

    @property
    def sigma(self) -> Tensor:
        return te.softplus(self.raw_sigma) + self.sigma_floor


def init_band_filters(
    d: int,
    rng: np.random.Generator,
    mus_hz=CANONICAL_MU_HZ,
    sigma_hz: float = CANONICAL_SIGMA_HZ,
    sigma_floor: float = 0.1,
) -> BandBank:
    """Bands at the given centers, mixing near the identity passthrough.

    W_r starts at 0.5 I plus small noise and W_i at small noise, so an
    untrained branch roughly halves and passes through each band.
    """
    if sigma_hz <= sigma_floor:
        raise ValueError("sigma init must sit above the floor")
    bound = 1.0 / np.sqrt(d)
    w_r, w_i, w_gate = zip(*[  # band by band: W_r, W_i, then its gate column
        (0.5 * np.eye(d) + INIT_NOISE * rng.uniform(-1.0, 1.0, size=(d, d)),
         INIT_NOISE * rng.uniform(-1.0, 1.0, size=(d, d)),
         rng.uniform(-bound, bound, size=d))
        for _ in mus_hz
    ])
    return BandBank(
        raw_mu=Tensor(te.inv_softplus(np.asarray(mus_hz, dtype=np.float64)), requires_grad=True),
        raw_sigma=Tensor(
            te.inv_softplus(np.full(len(mus_hz), sigma_hz - sigma_floor)), requires_grad=True),
        w_r=Tensor(np.stack(w_r), requires_grad=True),
        w_i=Tensor(np.stack(w_i), requires_grad=True),
        w_gate=Tensor(np.stack(w_gate, axis=1), requires_grad=True),
        sigma_floor=sigma_floor,
    )


def band_mask(bands: BandBank, t: int, rate: float) -> Tensor:
    """Gaussian densities over the one-sided bin frequencies; shape (T//2+1, K)."""
    freqs = (np.arange(t // 2 + 1) * (rate / t)).reshape(-1, 1)  # (F, 1)
    mu, sigma = bands.mu, bands.sigma  # (K,)
    diff = te.add(freqs, -mu)  # (F, K)
    quad = (diff * diff) / (sigma * sigma * 2.0)
    norm = sigma * float(np.sqrt(2.0 * np.pi))
    return te.exp(-quad) / norm


def band_importance(bands: BandBank, x_mag: Tensor, masks: Tensor) -> Tensor:
    """Per-sample band gates; x_mag is |spectrum| of shape (..., F, D).

    Z_k = sum_f M_k(f) (|X[f]| . w_gate[:, k]), and the gate is
    sigmoid(Z_k), one value per sample per band, in (0, 1).
    """
    z = te.matmul(x_mag, bands.w_gate) * masks  # (..., F, K)
    return te.sigmoid(z.sum(axis=-2))  # (..., K)


def band_spans(masks: Tensor) -> list[tuple[int, int]]:
    """Each band's bins with a mask above TAU, as one [lo, hi) interval per band.

    masks is band_mask's (F, K) result. A Gaussian is unimodal, so the
    kept bins of a band are contiguous; a band that keeps none gets the
    empty span (0, 0).
    """
    spans = []
    for keep in (masks.data > TAU).T:
        bins = np.flatnonzero(keep)
        spans.append((int(bins[0]), int(bins[-1]) + 1) if bins.size else (0, 0))
    return spans


def spectral_mix(
    bands: BandBank,
    x: Tensor,
    rate: float,
    alphas: np.ndarray | None = None,
):
    """Gated complex band mixing along the second-to-last axis of x.

    x has shape (..., T, D). Returns (output, gates) where output has
    the shape of x and gates is the (..., K) Tensor of band gates used.
    Passing `alphas` (a plain array) freezes the gates at those values,
    which makes the whole map linear in x.

    Band k mixes only over its span (band_spans): pairs whose mask is
    at or below TAU add nothing and pass no gradient back to mu and
    sigma.
    """
    t = x.shape[-2]
    k = bands.raw_mu.shape[0]
    spec = te.fft_real(x)  # (..., F, 2, D)
    masks = band_mask(bands, t, rate)  # (F, K)

    if alphas is None:
        gates = band_importance(bands, te.complex_abs(spec), masks)
    else:
        gates = Tensor(alphas)

    weight = gates.reshape(gates.shape[:-1] + (1, k)) * masks  # (..., F, K): alpha_k M_k(f)
    mixed = te.band_mix(spec, weight, bands.w_r, bands.w_i, band_spans(masks))
    out = te.ifft_real(mixed, n=t)
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("spectral mixing produced non-finite values")
    return out, gates
