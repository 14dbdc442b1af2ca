"""Spectral branch: mask geometry, gating, complex mixing, gradients."""

import time

import numpy as np
import pytest

from nakul import spectral as sp
from nakul import tensor as te
from oracles import check_gradients, gaussian_density, graph_size

RNG = np.random.default_rng(42)


def default_filters(d=4, seed=0, mus_hz=sp.CANONICAL_MU_HZ, sigma_hz=sp.CANONICAL_SIGMA_HZ,
                    sigma_floor=0.1):
    return sp.init_band_filters(d, np.random.default_rng(seed), mus_hz, sigma_hz, sigma_floor)


def band_bank(d, bands, w_r=None, w_i=None, w_gate=None, sigma_floor=0.1):
    """A BandBank from (mu, sigma) pairs; mixing defaults to I + 0i, gates to ones.

    w_r and w_i are (K, D, D), stored side by side as w = [W_r | W_i]; w_gate is (D, K).
    """
    mu, sigma = np.asarray(bands, dtype=np.float64).T
    k = len(bands)
    w_r = w_r if w_r is not None else np.tile(np.eye(d), (k, 1, 1))
    w_i = w_i if w_i is not None else np.zeros((k, d, d))
    return sp.BandBank(
        raw_mu=te.Tensor(te.inv_softplus(mu), requires_grad=True),
        raw_sigma=te.Tensor(te.inv_softplus(sigma - sigma_floor), requires_grad=True),
        w=te.Tensor(np.concatenate((w_r, w_i), axis=-1), requires_grad=True),
        w_gate=te.Tensor(w_gate if w_gate is not None else np.ones((d, k)), requires_grad=True),
        sigma_floor=sigma_floor,
    )


def single_filter(d, mu, sigma, sigma_floor=0.1):
    """A one-band bank with identity mixing and unit gate weights."""
    return band_bank(d, [(mu, sigma)], sigma_floor=sigma_floor)


# --- masks --------------------------------------------------------------------


def test_mask_peak_value():
    # T=100 at 100 Hz puts a bin exactly at 10 Hz
    f = single_filter(2, mu=10.0, sigma=2.0)
    mask = sp.band_mask(f, t=100, rate=100.0).data[:, 0]
    assert abs(mask[10] - 0.19947114020071635) < 1e-9
    assert abs(mask[12] - 0.19947114020071635 * np.exp(-0.5)) < 1e-9
    assert abs(mask[12] - 0.120985) < 1e-6


def test_mask_symmetry_about_mu():
    f = single_filter(2, mu=25.0, sigma=3.0)
    mask = sp.band_mask(f, t=100, rate=100.0).data[:, 0]
    for delta in (1, 2, 5, 10):
        assert abs(mask[25 + delta] - mask[25 - delta]) < 1e-12


def test_mask_matches_density_oracle():
    bands = ((7.3, 1.7), (2.0, 0.6), (19.5, 4.2))
    t, rate = 64, 50.0
    masks = sp.band_mask(band_bank(2, bands), t, rate).data
    assert masks.shape == (t // 2 + 1, len(bands))
    freqs = np.arange(t // 2 + 1) * rate / t
    for k, (mu, sigma) in enumerate(bands):
        assert np.abs(masks[:, k] - gaussian_density(freqs, mu, sigma)).max() < 1e-12


def test_default_init_masks_peak_at_canonical_bins():
    filters = default_filters(d=2)
    t, rate = 250, 250.0  # 1 Hz bins
    masks = sp.band_mask(filters, t, rate).data
    mus, sigmas = filters.mu.data, filters.sigma.data
    assert mus.shape == sigmas.shape == (len(sp.CANONICAL_MU_HZ),)
    for k, mu in enumerate(sp.CANONICAL_MU_HZ):
        assert np.argmax(masks[:, k]) == int(mu)
        assert abs(mus[k] - mu) < 1e-9
        assert abs(sigmas[k] - 2.0) < 1e-9


def test_sigma_respects_floor():
    f = single_filter(2, mu=5.0, sigma=2.0, sigma_floor=0.1)
    f.raw_sigma.data[...] = -50.0  # drive softplus term to ~0
    assert f.sigma.data[0] >= 0.1


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
    filters.w_gate.data[...] = 1.0  # positive gate weights
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
    # zero gate weights give every band the gate sigmoid(0) = 0.5 exactly
    d, t = 3, 32
    f = band_bank(d, [(1.0, 1e6)], w_gate=np.zeros((d, 1)))  # W_r = I, W_i = 0
    c = 1.0 / (f.sigma.data[0] * np.sqrt(2 * np.pi))
    x = te.Tensor(RNG.normal(size=(2, t, d)))
    out, gates = sp.spectral_mix(f, x, rate=16.0)
    np.testing.assert_array_equal(gates.data, 0.5)
    want = 0.5 * c * x.data
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
    # zero gate weights freeze every gate at 0.5, whatever the input
    d, t = 3, 24
    filters = default_filters(d=d)
    filters.w_gate.data[:] = 0.0
    x = RNG.normal(size=(2, t, d))
    y1, g1 = sp.spectral_mix(filters, te.Tensor(x), rate=12.0)
    y3, g3 = sp.spectral_mix(filters, te.Tensor(3.0 * x), rate=12.0)
    np.testing.assert_array_equal(g1.data, 0.5)
    np.testing.assert_array_equal(g3.data, 0.5)
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


def mix_oracle(bands, x, rate):
    """Numpy complex-FFT reference: sum_k alpha_k M_k(f) (W_r^k + i W_i^k) X[f].

    x is (..., T, D); bands, gates and mixing are evaluated one band at a time.
    """
    t = x.shape[-2]
    spec = np.fft.rfft(x, axis=-2)  # (..., F, D)
    freqs = np.arange(t // 2 + 1) * rate / t
    k_bands = bands.raw_mu.shape[0]
    masks, gates = [], []
    for k in range(k_bands):
        mu = np.logaddexp(0.0, bands.raw_mu.data[k])
        sigma = bands.sigma_floor + np.logaddexp(0.0, bands.raw_sigma.data[k])
        mask = gaussian_density(freqs, mu, sigma)[:, None]  # (F, 1)
        z = (np.abs(spec) * mask).sum(axis=-2)  # (..., D)
        gates.append(1.0 / (1.0 + np.exp(-(z @ bands.w_gate.data[:, k]))))
        masks.append(mask)
    alphas = np.stack(gates, axis=-1)
    mixed = 0.0
    for k in range(k_bands):
        w_r, w_i = np.split(bands.w.data[k], 2, axis=-1)
        w = w_r + 1j * w_i
        mixed = mixed + alphas[..., k, None, None] * masks[k] * (spec @ w)
    return np.fft.irfft(mixed, n=t, axis=-2), alphas


@pytest.mark.parametrize("gating", ["model", "frozen"])
def test_mix_matches_complex_fft_oracle(gating):
    rng = np.random.default_rng(21)
    d, t, rate = 4, 30, 15.0
    bands = ((1.5, 0.8), (3.2, 1.1), (5.9, 0.5))  # K=3, unequal widths
    draws = [(rng.normal(size=(d, d)), rng.normal(size=(d, d)), 0.1 * rng.normal(size=(d, 1)))
             for _ in bands]  # band by band: W_r, W_i, gate column
    w_r, w_i, w_gate = zip(*draws)
    w_gate = np.concatenate(w_gate, axis=1)
    if gating == "frozen":  # every gate exactly sigmoid(0) = 0.5
        w_gate = np.zeros_like(w_gate)
    filters = band_bank(d, bands, w_r=np.stack(w_r), w_i=np.stack(w_i), w_gate=w_gate)
    x = rng.normal(size=(2, 3, t, d))
    want, want_gates = mix_oracle(filters, x, rate)
    out, gates = sp.spectral_mix(filters, te.Tensor(x), rate)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(gates.data - want_gates).max() <= 1e-12


def test_full_span_band_matches_dense_oracle():
    # widened until every bin keeps every band: the span path is the dense sum
    rng = np.random.default_rng(4)
    d, t, rate = 3, 24, 12.0
    bands = ((1.0, 40.0), (4.5, 25.0))
    filters = band_bank(d, bands, w_r=rng.normal(size=(2, d, d)), w_i=rng.normal(size=(2, d, d)),
                        w_gate=0.1 * rng.normal(size=(d, 2)))
    assert sp.band_spans(sp.band_mask(filters, t, rate)) == [(0, t // 2 + 1)] * 2
    x = rng.normal(size=(2, t, d))
    want, _ = mix_oracle(filters, x, rate)
    out, _ = sp.spectral_mix(filters, te.Tensor(x), rate)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()


def test_band_below_tau_everywhere_adds_nothing():
    # band 1 sits far above Nyquist: its mask underflows on every bin
    rng = np.random.default_rng(6)
    d, t, rate = 3, 16, 8.0
    filters = band_bank(d, ((1.5, 0.8), (40.0, 0.2)), w_r=rng.normal(size=(2, d, d)),
                        w_i=rng.normal(size=(2, d, d)))
    masks = sp.band_mask(filters, t, rate)
    assert (masks.data[:, 1] <= sp.TAU).all()
    assert sp.band_spans(masks)[1] == (0, 0)
    x = te.Tensor(rng.normal(size=(2, t, d)))
    base, _ = sp.spectral_mix(filters, x, rate)
    filters.w.data[1, :, :d] *= 1e3  # W_r
    filters.w.data[1, :, d:] = rng.normal(size=(d, d))  # W_i
    out, _ = sp.spectral_mix(filters, x, rate)
    np.testing.assert_array_equal(out.data, base.data)
    (out * out).sum().backward()
    assert not filters.w.grad[1].any()
    assert filters.w.grad[0, :, :d].any() and filters.w.grad[0, :, d:].any()


@pytest.mark.parametrize("bands,t,rate", [
    (((1.0, 0.15), (2.5, 0.3), (3.9, 0.12)), 16, 8.0),  # narrow: partial spans
    (((4.0, 2.0), (10.0, 2.0), (20.0, 2.0), (40.0, 2.0)), 250, 250.0),  # canonical, 1 Hz bins
    (((0.08, 0.04), (0.2, 0.04), (0.4, 0.04), (0.8, 0.04)), 20, 5.0),  # default patch axis
    (((30.0, 0.11), (1.0, 50.0)), 32, 16.0),  # one band far out, one covering all
])
def test_band_spans_keep_exactly_the_bins_above_tau(bands, t, rate):
    masks = sp.band_mask(band_bank(2, bands, sigma_floor=0.01), t, rate)
    spans = sp.band_spans(masks)
    assert len(spans) == len(bands)
    for k, (lo, hi) in enumerate(spans):
        inside = np.zeros(t // 2 + 1, dtype=bool)
        inside[lo:hi] = True
        np.testing.assert_array_equal(inside, masks.data[:, k] > sp.TAU)


def test_mix_graph_size_independent_of_band_count():
    # every band quantity is one tensor, so adding a band adds no node
    d, t = 3, 16
    x = te.Tensor(RNG.normal(size=(2, t, d)), requires_grad=True)
    sizes = []
    for k in range(1, 5):
        filters = default_filters(d=d, mus_hz=tuple(float(m) for m in range(1, k + 1)))
        sizes.append(graph_size(*sp.spectral_mix(filters, x, rate=8.0)))
    assert len(set(sizes)) == 1, sizes


@pytest.mark.parametrize("k", [1, 2, 4])
def test_mix_runs_one_gate_gemm_and_mixes_only_kept_bins(monkeypatch, k):
    # the gate projection is the only te.matmul, and te.band_mix prices each
    # band's kept bins exactly: sum_k 4 * rows * n_k * D^2
    matmul, band_mix = te.matmul, te.band_mix
    calls, mixing_macs = [], []

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    def metered(*args):
        before = macs["total"]
        out = band_mix(*args)
        mixing_macs.append(macs["total"] - before)
        return out

    monkeypatch.setattr(te, "matmul", counted)
    monkeypatch.setattr(te, "band_mix", metered)
    d, t, rate, rows = 3, 16, 8.0, 2
    mus = tuple(float(m) for m in range(1, k + 1))
    filters = default_filters(d=d, mus_hz=mus, sigma_hz=0.15)
    x = te.Tensor(np.random.default_rng(k).normal(size=(rows, t, d)))
    with te.mac_counter() as macs:
        sp.spectral_mix(filters, x, rate=rate)
    f = t // 2 + 1
    assert calls == [((rows, f, d), (d, k))]
    freqs = np.arange(f) * rate / t
    kept = [int((gaussian_density(freqs, mu, s) > sp.TAU).sum())
            for mu, s in zip(filters.mu.data, filters.sigma.data)]
    assert max(kept) < f  # every band leaves bins out, so dense pricing would differ
    assert mixing_macs == [sum(4 * rows * n * d * d for n in kept)]


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

    params = [x, filters.raw_mu, filters.raw_sigma, filters.w, filters.w_gate]
    worst = check_gradients(build, params, np.random.default_rng(3), n_samples=5)
    assert worst < 1e-3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_mix_rejects_nonfinite_via_guard():
    d = 2
    f = single_filter(d, mu=5.0, sigma=2.0)
    f.w.data[..., :d] = 1e308  # W_r: force overflow in the mixing product
    x = te.Tensor(np.full((1, 8, d), 1e10))
    with pytest.raises(FloatingPointError):
        sp.spectral_mix(f, x, rate=8.0)
