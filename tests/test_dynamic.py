"""Statistics-driven kernel mixing: frozen values, invariants, gradients."""

import numpy as np
import pytest

from nakul import tensor as te
from nakul.dynamic import (
    KernelBank,
    MetaNetwork,
    dynamic_mix,
    init_kernel_bank,
    init_meta_network,
    predict_weights,
    spectral_entropy,
    temporal_variance,
)
from nakul.tensor import Tensor

from oracles import check_gradients


def make_bank(d, sizes=(3, 5, 7, 11), rng=None):
    rng = rng or np.random.default_rng(0)
    return init_kernel_bank(d, rng, sizes=sizes)


# --- temporal variance ---------------------------------------------------------


def test_variance_constant_is_zero():
    x = Tensor(np.full((6, 4), 3.25))
    assert temporal_variance(x).item() == 0.0


def test_variance_alternating_unit():
    x = np.empty((8, 2))
    x[0::2] = 1.0
    x[1::2] = -1.0
    assert temporal_variance(Tensor(x)).item() == pytest.approx(1.0, abs=1e-15)


def test_variance_quadratic_scaling():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 3))
    v1 = temporal_variance(Tensor(x)).item()
    v3 = temporal_variance(Tensor(3.0 * x)).item()
    assert v3 == pytest.approx(9.0 * v1, rel=1e-12)


def test_variance_matches_numpy_global():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 16, 3))
    got = temporal_variance(Tensor(x)).data
    want = x.reshape(4, -1).var(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


# --- spectral entropy ----------------------------------------------------------


def test_entropy_impulse_is_log_bins():
    t = 16
    x = np.zeros((t, 1))
    x[0, 0] = 1.0  # flat magnitude spectrum
    nbins = t // 2 + 1
    assert spectral_entropy(Tensor(x)).item() == pytest.approx(np.log(nbins), abs=1e-12)


def test_entropy_pure_tone_near_zero():
    t = 512
    x = np.cos(2 * np.pi * 8 * np.arange(t) / t)[:, None]
    assert spectral_entropy(Tensor(x)).item() < 1e-6


def test_entropy_zero_input_flagged_zero():
    assert spectral_entropy(Tensor(np.zeros((10, 3)))).item() == 0.0


def test_entropy_pools_features_euclidean():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 5))
    spec = np.fft.rfft(x, axis=0)
    mags = np.sqrt((np.abs(spec) ** 2).sum(axis=1))
    p = mags / mags.sum()
    want = -(p * np.log(p)).sum()
    assert spectral_entropy(Tensor(x)).item() == pytest.approx(want, rel=1e-12)


def test_entropy_noise_exceeds_tone():
    t = 256
    tone = np.cos(2 * np.pi * 12 * np.arange(t) / t)[:, None]
    e_tone = spectral_entropy(Tensor(tone)).item()
    wins = 0
    for seed in range(100):
        noise = np.random.default_rng(seed).normal(size=(t, 1))
        if spectral_entropy(Tensor(noise)).item() > e_tone:
            wins += 1
    assert wins == 100


# --- meta-network --------------------------------------------------------------


def test_zero_meta_gives_uniform():
    meta = MetaNetwork(w1=Tensor(np.zeros((2, 16))), w2=Tensor(np.zeros((16, 4))))
    alphas = predict_weights(meta, Tensor(np.array(2.0)), Tensor(np.array(0.5)))
    np.testing.assert_allclose(alphas.data, 0.25, rtol=1e-15)


def test_alphas_on_simplex():
    rng = np.random.default_rng(4)
    meta = init_meta_network(rng, m=4)
    var = Tensor(rng.uniform(0, 10, size=(32,)))
    ent = Tensor(rng.uniform(0, 1, size=(32,)))
    alphas = predict_weights(meta, var, ent).data
    assert alphas.shape == (32, 4)
    assert np.all(alphas >= 0)
    np.testing.assert_allclose(alphas.sum(axis=1), 1.0, atol=1e-12)


def test_logit_shift_invariance():
    rng = np.random.default_rng(5)
    meta = init_meta_network(rng, m=4)
    shifted = MetaNetwork(w1=meta.w1, w2=Tensor(meta.w2.data.copy()))
    base = predict_weights(meta, Tensor(np.array(1.5)), Tensor(np.array(0.7)))
    # same constant added to every logit: append it through a rank-one
    # change is overkill; shift the softmax input directly instead
    h = te.gelu(te.matmul(Tensor(np.array([[np.log(2.5), 0.7]])), meta.w1))
    logits = te.matmul(h, meta.w2)
    again = te.softmax(logits + 10.0)
    np.testing.assert_allclose(again.data[0], base.data, rtol=1e-12)
    del shifted


def test_reversal_preserves_alphas():
    rng = np.random.default_rng(6)
    meta = init_meta_network(rng, m=4)
    bank = make_bank(4, rng=rng)
    x = rng.normal(size=(3, 24, 4))
    _, a_fwd, _, _ = dynamic_mix(bank, meta, Tensor(x))
    _, a_rev, _, _ = dynamic_mix(bank, meta, Tensor(x[:, ::-1, :].copy()))
    np.testing.assert_allclose(a_fwd.data, a_rev.data, atol=1e-9)


# --- dynamic mixing ------------------------------------------------------------


def test_init_bank_is_lag_order_impulse_response():
    # row j multiplies x[t - j] and starts at 0.7**j; each kernel's
    # (size, D) noise block is read bottom-up
    draws = np.random.default_rng(15)
    bank = init_kernel_bank(4, np.random.default_rng(15), sizes=(3, 5))
    assert bank.sizes == (3, 5) and bank.kernels.shape == (2, 5, 4)
    for size, k in zip((3, 5), bank.kernels.data):
        noise = draws.uniform(-1, 1, size=(size, 4))
        want = 0.7 ** np.arange(size)[:, None] + 0.01 * noise[::-1]
        np.testing.assert_allclose(k[:size], want, rtol=0, atol=1e-15)
        assert not k[size:].any()  # the rows past a kernel's size start at 0


def test_taps_past_a_kernels_size_are_masked():
    # whatever the rows past sizes[m] hold, the output ignores them and they get no gradient
    rng = np.random.default_rng(16)
    d = 3
    bank = make_bank(d, sizes=(3, 5), rng=rng)
    meta = init_meta_network(rng, m=2)
    x = Tensor(rng.normal(size=(2, 12, d)))
    want, _, _, _ = dynamic_mix(bank, meta, x)
    bank.kernels.data[0, 3:] = rng.normal(size=(2, d))
    got, _, _, _ = dynamic_mix(bank, meta, x)
    np.testing.assert_array_equal(got.data, want.data)
    (got * got).sum().backward()
    assert not bank.kernels.grad[0, 3:].any() and bank.kernels.grad[0, :3].all()
    assert bank.kernels.grad[1].all()


def test_identity_kernels_saturated_gate():
    d = 5
    rng = np.random.default_rng(7)
    kernels = np.zeros((4, 11, d))
    kernels[:, 0, :] = 1.0  # lag order: row 0 multiplies the current sample
    bank = KernelBank(kernels=Tensor(kernels), w_gate=Tensor(1000.0 * np.eye(d)),
                      sizes=(3, 5, 7, 11))
    meta = init_meta_network(rng, m=4)
    x = rng.uniform(0.5, 1.5, size=(2, 20, d))  # positive, so the gate saturates
    out, _, _, _ = dynamic_mix(bank, meta, Tensor(x))
    np.testing.assert_allclose(out.data, x, atol=1e-3)


def test_zero_input_zero_output():
    rng = np.random.default_rng(8)
    bank = make_bank(3, rng=rng)
    meta = init_meta_network(rng, m=4)
    out, _, _, _ = dynamic_mix(bank, meta, Tensor(np.zeros((2, 16, 3))))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-15)


def test_one_hot_isolates_branch():
    # a one-kernel bank's softmax is exactly 1.0: the kernel filters alone
    rng = np.random.default_rng(9)
    d = 4
    bank = make_bank(d, rng=rng)
    x = rng.normal(size=(2, 18, d))
    for size, kernel in zip(bank.sizes, bank.kernels.data):
        solo = KernelBank(kernels=Tensor(kernel[None, :size]), w_gate=bank.w_gate, sizes=(size,))
        got, gates, _, _ = dynamic_mix(solo, init_meta_network(rng, m=1), Tensor(x))
        np.testing.assert_array_equal(gates.data, 1.0)
        per_row = np.broadcast_to(kernel[:size], (2, size, d))
        y_m = te.depthwise_causal_conv(Tensor(x), Tensor(per_row))
        gate = te.sigmoid(te.matmul(Tensor(x), bank.w_gate))
        np.testing.assert_allclose(got.data, (y_m * gate).data, rtol=1e-12)


def causal_filter_oracle(lag, x):
    """Direct sums of one lag-order (K, D) kernel over x (..., T, D)."""
    out = np.zeros_like(x)
    for j in range(min(lag.shape[0], x.shape[-2])):
        out[..., j:, :] += lag[j] * x[..., : x.shape[-2] - j, :]
    return out


def test_random_mixture_matches_weighted_branch_sum():
    # one convolution with the blended kernel sum_m a_m k_m must equal the
    # a_m-weighted sum of the separate filters, gated
    rng = np.random.default_rng(14)
    d = 4
    bank = make_bank(d, rng=rng)
    x = rng.normal(size=(2, 3, 18, d))
    gate = 1.0 / (1.0 + np.exp(-(x @ bank.w_gate.data)))
    skewed = init_meta_network(rng, m=4)  # large logits: far from uniform, different per row
    skewed.w2.data = 5.0 * rng.normal(size=skewed.w2.shape)
    for meta in (skewed, init_meta_network(rng, m=4)):
        got, used, _, _ = dynamic_mix(bank, meta, Tensor(x))
        a = used.data
        want = sum(
            a[..., m, None, None] * causal_filter_oracle(k[:size], x)
            for m, (size, k) in enumerate(zip(bank.sizes, bank.kernels.data))
        ) * gate
        assert np.abs(got.data - want).max() <= 1e-12 * np.abs(want).max()


def test_branches_causal():
    rng = np.random.default_rng(10)
    d, t = 3, 30
    # one kernel of 11 taps: its weight is exactly 1.0, so the whole-sequence
    # statistics, which do see the future, cannot move the output
    bank = make_bank(d, sizes=(11,), rng=rng)
    meta = init_meta_network(rng, m=1)
    x = rng.normal(size=(1, t, d))
    bumped = x.copy()
    bumped[0, 20, :] += 5.0
    a, _, _, _ = dynamic_mix(bank, meta, Tensor(x))
    b, _, _, _ = dynamic_mix(bank, meta, Tensor(bumped))
    np.testing.assert_array_equal(a.data[0, :20], b.data[0, :20])
    assert np.any(a.data[0, 20:] != b.data[0, 20:])


def test_feature_permutation_equivariance():
    rng = np.random.default_rng(11)
    d = 6
    bank = make_bank(d, rng=rng)
    meta = init_meta_network(rng, m=4)
    x = rng.normal(size=(2, 14, d))
    perm = rng.permutation(d)
    bank_p = KernelBank(
        kernels=Tensor(bank.kernels.data[:, :, perm]),
        w_gate=Tensor(bank.w_gate.data[np.ix_(perm, perm)]),
        sizes=bank.sizes,
    )
    base, a0, _, _ = dynamic_mix(bank, meta, Tensor(x))
    moved, a1, _, _ = dynamic_mix(bank_p, meta, Tensor(x[:, :, perm].copy()))
    np.testing.assert_allclose(moved.data, base.data[:, :, perm], atol=1e-10)
    np.testing.assert_allclose(a0.data, a1.data, atol=1e-12)


def test_mix_normalizes_stats_as_documented():
    rng = np.random.default_rng(12)
    d = 3
    bank = make_bank(d, rng=rng)
    meta = init_meta_network(rng, m=4)
    x = rng.normal(size=(2, 20, d))
    _, alphas, got_var, got_ent = dynamic_mix(bank, meta, Tensor(x))
    var = temporal_variance(Tensor(x))
    ent = spectral_entropy(Tensor(x)) / np.log(20 // 2 + 1)
    np.testing.assert_array_equal(got_var.data, var.data)
    np.testing.assert_allclose(got_ent.data, ent.data, rtol=1e-15)
    np.testing.assert_allclose(
        alphas.data, predict_weights(meta, var, ent).data, rtol=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    d = 3
    bank = init_kernel_bank(d, rng, sizes=(3, 5))
    meta = init_meta_network(rng, m=2)
    x = Tensor(rng.normal(size=(2, 10, d)), requires_grad=True)
    weights = rng.normal(size=(2, 10, d))

    params = [x, bank.kernels, bank.w_gate, meta.w1, meta.w2]

    def build():
        out, _, _, _ = dynamic_mix(bank, meta, x)
        return (out * weights).sum()

    worst = check_gradients(build, params, rng)
    assert worst < 1e-3
