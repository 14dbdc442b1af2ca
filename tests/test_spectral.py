"""Spectral branch: mask geometry, gating, complex mixing, gradients."""

import time

import numpy as np
import pytest

from nakul import spectral as sp
from nakul import tensor as te
from oracles import check_gradients, gaussian_density, graph_size

RNG = np.random.default_rng(42)


def default_filters(d=4, seed=0, **kw):
    return sp.init_band_filters(d, np.random.default_rng(seed), **kw)


def single_filter(d, mu, sigma, w_r=None, w_i=None, w_gate=None, sigma_floor=0.1):
    return sp.BandFilter(
        raw_mu=te.Tensor(te.inv_softplus(np.asarray(mu)), requires_grad=True),
        raw_sigma=te.Tensor(te.inv_softplus(np.asarray(sigma - sigma_floor)), requires_grad=True),
        w_r=te.Tensor(w_r if w_r is not None else np.eye(d), requires_grad=True),
        w_i=te.Tensor(w_i if w_i is not None else np.zeros((d, d)), requires_grad=True),
        w_gate=te.Tensor(w_gate if w_gate is not None else np.ones((d, 1)), requires_grad=True),
        sigma_floor=sigma_floor,
    )


# --- masks --------------------------------------------------------------------


def test_mask_peak_value():
    # T=100 at 100 Hz puts a bin exactly at 10 Hz
    f = single_filter(2, mu=10.0, sigma=2.0)
    mask = sp.band_mask([f], t=100, rate=100.0).data[:, 0]
    assert abs(mask[10] - 0.19947114020071635) < 1e-9
    assert abs(mask[12] - 0.19947114020071635 * np.exp(-0.5)) < 1e-9
    assert abs(mask[12] - 0.120985) < 1e-6


def test_mask_symmetry_about_mu():
    f = single_filter(2, mu=25.0, sigma=3.0)
    mask = sp.band_mask([f], t=100, rate=100.0).data[:, 0]
    for delta in (1, 2, 5, 10):
        assert abs(mask[25 + delta] - mask[25 - delta]) < 1e-12


def test_mask_matches_density_oracle():
    bands = ((7.3, 1.7), (2.0, 0.6), (19.5, 4.2))
    filters = [single_filter(2, mu=mu, sigma=sigma) for mu, sigma in bands]
    t, rate = 64, 50.0
    masks = sp.band_mask(filters, t, rate).data
    assert masks.shape == (t // 2 + 1, len(bands))
    freqs = np.arange(t // 2 + 1) * rate / t
    for k, (mu, sigma) in enumerate(bands):
        assert np.abs(masks[:, k] - gaussian_density(freqs, mu, sigma)).max() < 1e-12


def test_default_init_masks_peak_at_canonical_bins():
    filters = default_filters(d=2)
    t, rate = 250, 250.0  # 1 Hz bins
    masks = sp.band_mask(filters, t, rate).data
    for k, (filt, mu) in enumerate(zip(filters, sp.CANONICAL_MU_HZ)):
        assert np.argmax(masks[:, k]) == int(mu)
        assert abs(filt.mu.item() - mu) < 1e-9
        assert abs(filt.sigma.item() - 2.0) < 1e-9


def test_sigma_respects_floor():
    f = single_filter(2, mu=5.0, sigma=2.0, sigma_floor=0.1)
    f.raw_sigma.data[...] = -50.0  # drive softplus term to ~0
    assert f.sigma.item() >= 0.1


# --- gates ---------------------------------------------------------------------


def gates_of(filters, mag, rate):
    """band_importance of an (..., F, D) magnitude spectrum at the given rate."""
    masks = sp.band_mask(filters, 2 * (mag.shape[-2] - 1), rate)
    return sp.band_importance(filters, mag, masks).data


def test_zero_input_gates_half():
    filters = default_filters(d=3)
    mag = te.Tensor(np.zeros((2, 33, 3)))
    alphas = gates_of(filters, mag, rate=128.0)
    assert np.allclose(alphas, 0.5, atol=1e-12)
    assert alphas.shape == (2, 4)


def test_gates_open_interval():
    filters = default_filters(d=3)
    mag = te.Tensor(np.abs(RNG.normal(size=(4, 33, 3))) * 100)
    alphas = gates_of(filters, mag, rate=128.0)
    assert ((alphas > 0) & (alphas < 1)).all()


def test_energy_at_band_center_raises_its_gate():
    d, t, rate = 3, 200, 100.0
    filters = default_filters(d=d)
    for f in filters:
        f.w_gate.data[...] = 1.0  # positive gate weights
    # energy exactly at the first band center (4 Hz -> bin 8)
    mag = np.zeros((1, t // 2 + 1, d))
    mag[0, 8, :] = 50.0
    alphas = gates_of(filters, te.Tensor(mag), rate)[0]
    assert alphas[0] > alphas[1] and alphas[0] > alphas[2] and alphas[0] > alphas[3]


def test_gates_are_per_sample():
    filters = default_filters(d=3)
    mag = np.abs(RNG.normal(size=(5, 17, 3)))
    batch = gates_of(filters, te.Tensor(mag), rate=32.0)
    solo = gates_of(filters, te.Tensor(mag[2:3]), rate=32.0)
    assert np.abs(batch[2] - solo[0]).max() < 1e-12


# --- mixing ----------------------------------------------------------------------


def test_passthrough_with_identity_mixing_and_flat_mask():
    # sigma so large the Gaussian is flat across the band: M ~ c everywhere
    d, t = 3, 32
    f = single_filter(d, mu=1.0, sigma=1e6, w_r=np.eye(d), w_i=np.zeros((d, d)))
    c = 1.0 / (f.sigma.item() * np.sqrt(2 * np.pi))
    x = te.Tensor(RNG.normal(size=(2, t, d)))
    a = 0.7
    out, _ = sp.spectral_mix([f], x, rate=16.0, alphas=np.full((2, 1), a))
    want = a * c * x.data
    assert np.abs(out.data - want).max() < 1e-6 * np.abs(want).max()


def test_far_tone_is_suppressed():
    d, t, rate = 2, 256, 128.0
    filters = default_filters(d=d)  # centers 4..40 Hz, sigma 2
    # 60 Hz tone: 10 sigma from the nearest band center
    ts = np.arange(t) / rate
    x = np.stack([np.sin(2 * np.pi * 60.0 * ts)] * d, axis=-1)[None]
    out, _ = sp.spectral_mix(filters, te.Tensor(x), rate)
    assert np.abs(out.data).max() < 1e-6 * np.abs(x).max()


def test_frozen_gate_linearity():
    d, t = 3, 24
    filters = default_filters(d=d)
    x = RNG.normal(size=(2, t, d))
    _, gates = sp.spectral_mix(filters, te.Tensor(x), rate=12.0)
    frozen = gates.data.copy()
    y1, _ = sp.spectral_mix(filters, te.Tensor(x), rate=12.0, alphas=frozen)
    y3, _ = sp.spectral_mix(filters, te.Tensor(3.0 * x), rate=12.0, alphas=frozen)
    assert np.abs(y3.data - 3.0 * y1.data).max() < 1e-9 * max(np.abs(y1.data).max(), 1.0)


def test_full_operation_nonlinear_through_gates():
    d, t = 2, 16
    filters = default_filters(d=d)
    x = RNG.normal(size=(1, t, d))
    y1, _ = sp.spectral_mix(filters, te.Tensor(x), rate=8.0)
    y3, _ = sp.spectral_mix(filters, te.Tensor(3.0 * x), rate=8.0)
    assert np.abs(y3.data - 3.0 * y1.data).max() > 1e-6


def test_global_receptive_field():
    d, t = 2, 64
    filters = default_filters(d=d)
    x = RNG.normal(size=(1, t, d))
    base, _ = sp.spectral_mix(filters, te.Tensor(x), rate=32.0)
    bumped = x.copy()
    bumped[0, 0, 0] += 1.0
    moved, _ = sp.spectral_mix(filters, te.Tensor(bumped), rate=32.0)
    assert np.abs(moved.data[0, -1] - base.data[0, -1]).max() > 1e-12


def mix_oracle(filters, x, rate, alphas=None):
    """Numpy complex-FFT reference: sum_k alpha_k M_k(f) (W_r^k + i W_i^k) X[f].

    x is (..., T, D); bands, gates and mixing are evaluated one band at a time.
    """
    t = x.shape[-2]
    spec = np.fft.rfft(x, axis=-2)  # (..., F, D)
    freqs = np.arange(t // 2 + 1) * rate / t
    masks, gates = [], []
    for f in filters:
        mu = np.logaddexp(0.0, f.raw_mu.data)
        sigma = f.sigma_floor + np.logaddexp(0.0, f.raw_sigma.data)
        mask = gaussian_density(freqs, mu, sigma)[:, None]  # (F, 1)
        z = (np.abs(spec) * mask).sum(axis=-2)  # (..., D)
        gates.append(1.0 / (1.0 + np.exp(-(z @ f.w_gate.data)[..., 0])))
        masks.append(mask)
    alphas = np.stack(gates, axis=-1) if alphas is None else alphas
    mixed = 0.0
    for k, f in enumerate(filters):
        w = f.w_r.data + 1j * f.w_i.data
        mixed = mixed + alphas[..., k, None, None] * masks[k] * (spec @ w)
    return np.fft.irfft(mixed, n=t, axis=-2), alphas


@pytest.mark.parametrize("gating", ["model", "frozen"])
def test_mix_matches_complex_fft_oracle(gating):
    rng = np.random.default_rng(21)
    d, t, rate = 4, 30, 15.0
    bands = ((1.5, 0.8), (3.2, 1.1), (5.9, 0.5))  # K=3, unequal widths
    filters = [
        single_filter(
            d, mu, sigma,
            w_r=rng.normal(size=(d, d)),
            w_i=rng.normal(size=(d, d)),
            w_gate=0.1 * rng.normal(size=(d, 1)),
        )
        for mu, sigma in bands
    ]
    x = rng.normal(size=(2, 3, t, d))
    alphas = rng.uniform(0.1, 0.9, size=(2, 3, len(bands))) if gating == "frozen" else None
    want, want_gates = mix_oracle(filters, x, rate, alphas)
    out, gates = sp.spectral_mix(filters, te.Tensor(x), rate, alphas=alphas)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(gates.data - want_gates).max() <= 1e-12


def test_mix_graph_grows_by_band_parameters_only():
    # per added band: its 5 parameter leaves plus softplus(mu), softplus(sigma)
    # and the floor shift; every other node is shared by all bands
    d, t = 3, 16
    x = te.Tensor(RNG.normal(size=(2, t, d)), requires_grad=True)
    sizes = []
    for k in range(1, 5):
        filters = default_filters(d=d, mus_hz=tuple(float(m) for m in range(1, k + 1)))
        sizes.append(graph_size(*sp.spectral_mix(filters, x, rate=8.0)))
    assert all(0 < b - a <= 8 for a, b in zip(sizes, sizes[1:])), sizes


def test_mix_wallclock_subquadratic():
    d = 2
    filters = default_filters(d=d)

    def once(t):
        x = te.Tensor(np.zeros((1, t, d)))
        start = time.perf_counter()
        for _ in range(3):
            sp.spectral_mix(filters, x, rate=float(t))
        return (time.perf_counter() - start) / 3

    once(512)  # warm caches
    short = min(once(512) for _ in range(3))
    long = min(once(4096) for _ in range(3))
    assert long / short < 10.0


def test_mix_gradients_match_finite_differences():
    d, t = 3, 16
    filters = default_filters(d=d, seed=5)
    x = te.Tensor(RNG.normal(size=(2, t, d)), requires_grad=True)

    def build():
        out, _ = sp.spectral_mix(filters, x, rate=50.0)
        return (out * out).sum()

    params = [x]
    for f in filters[:2]:
        params += [f.raw_mu, f.raw_sigma, f.w_r, f.w_i, f.w_gate]
    worst = check_gradients(build, params, np.random.default_rng(3), n_samples=5)
    assert worst < 1e-3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_mix_rejects_nonfinite_via_guard():
    d = 2
    f = single_filter(d, mu=5.0, sigma=2.0)
    f.w_r.data[...] = 1e308  # force overflow in the mixing product
    x = te.Tensor(np.full((1, 8, d), 1e10))
    with pytest.raises(FloatingPointError):
        sp.spectral_mix([f], x, rate=8.0)
