"""Tensor engine: values against direct oracles, gradients against finite differences."""

import gc
import tracemalloc
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import erf as scipy_erf
from scipy.special import expit as scipy_expit
from scipy.stats import norm

from nakul import backends
from nakul import tensor as T
from nakul.config import parse_config
from nakul.model import ModelConfig, init_model, model_forward
from nakul.rng import stream
from nakul.training import smoothed_cross_entropy
from oracles import (check_gradients, composed_ffn, graph_nodes, loop_depthwise_causal_bwd,
                     loop_depthwise_causal_fwd, naive_dft, naive_idft)

RNG = np.random.default_rng(1234)


def randt(*shape, grad=True, rng=RNG, scale=1.0):
    return T.Tensor(rng.normal(size=shape) * scale, requires_grad=grad)


# --- construction -----------------------------------------------------------


def test_rejects_non_finite_input():
    with pytest.raises(ValueError):
        T.Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        T.Tensor(np.inf)


def test_float64_row_major():
    x = T.Tensor(np.arange(6, dtype=np.int32).reshape(2, 3))
    assert x.data.dtype == np.float64
    assert x.data.flags["C_CONTIGUOUS"]


# --- fft --------------------------------------------------------------------


def test_fft_frozen_small_case():
    # direct DFT of [1, 2, 3, 4], computed by hand from the definition
    z = T.fft_real(T.Tensor([[1.0], [2.0], [3.0], [4.0]]))
    assert np.allclose(z.data[:, 0, 0], [10.0, -2.0, -2.0], atol=1e-12)
    assert np.allclose(z.data[:, 1, 0], [0.0, 2.0, 0.0], atol=1e-12)


def test_fft_rejects_input_without_a_time_and_feature_axis():
    with pytest.raises(ValueError, match=r"\(\.\.\., T, D\)"):
        T.fft_real(T.Tensor([1.0, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("t", [1, 2, 3, 8, 17, 32, 64])
def test_fft_matches_direct_dft(t):
    x = RNG.normal(size=(t, 3))
    z = T.fft_real(T.Tensor(x))
    ref = naive_dft(x.T).T
    assert np.abs(z.data[..., 0, :] - ref.real).max() < 1e-9
    assert np.abs(z.data[..., 1, :] - ref.imag).max() < 1e-9


@pytest.mark.parametrize("t", [2, 5, 16, 31, 64])
def test_fft_roundtrip(t):
    x = RNG.normal(size=(t, 2))
    back = T.ifft_real(T.fft_real(T.Tensor(x)), n=t)
    assert np.abs(back.data - x).max() < 1e-9


def test_ifft_matches_direct_inverse():
    t = 12
    x = RNG.normal(size=(t, 1))
    spec = naive_dft(x.T).T
    z = T.Tensor(np.stack((spec.real, spec.imag), axis=-2))
    assert np.abs(T.ifft_real(z, n=t).data - naive_idft(spec.T, t).T).max() < 1e-9


@pytest.mark.parametrize("t", [8, 21, 64])
def test_parseval(t):
    x = RNG.normal(size=(t, 1))
    z = T.fft_real(T.Tensor(x))
    power = z.data[..., 0, :]**2 + z.data[..., 1, :]**2
    w = np.full((t // 2 + 1, 1), 2.0)
    w[0] = 1.0
    if t % 2 == 0:
        w[-1] = 1.0
    lhs = (x**2).sum()
    rhs = (w * power).sum() / t
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


def test_fft_backward_runs_one_inverse_transform(monkeypatch):
    # the real and imaginary halves reach x through a single irfft
    rng = np.random.default_rng(35)
    x = randt(16, 3, rng=rng)
    z = T.fft_real(x)
    assert z.shape == (9, 2, 3)
    loss = (z * rng.normal(size=z.shape)).sum()
    calls = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    loss.backward()
    assert len(calls) == 1
    assert x.grad.shape == x.shape


def test_dc_only_spectrum_gives_constant():
    nbins = 5
    re = np.zeros((nbins, 1))
    re[0] = 3.0
    z = T.Tensor(np.stack((re, np.zeros((nbins, 1))), axis=-2))
    y = T.ifft_real(z, n=8)
    assert np.allclose(y.data, 3.0 / 8.0, atol=1e-12)


# --- pointwise values ---------------------------------------------------------


def test_gelu_exact_erf_form():
    xs = np.linspace(-4, 4, 41)
    got = T.gelu(T.Tensor(xs)).data
    want = xs * norm.cdf(xs)
    assert np.abs(got - want).max() < 1e-12
    assert T.gelu(T.Tensor(0.0)).item() == 0.0


def _edges(*points):
    """Each point, its neighbouring doubles, and their negatives."""
    p = np.asarray(points, dtype=np.float64)
    near = np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)])
    return np.concatenate([near, -near])


ERF_INPUTS = np.concatenate([
    np.linspace(-40.0, 40.0, 160_001),
    *(np.random.default_rng(34).normal(scale=s, size=50_000) for s in (0.5, 1.0, 2.0)),
    _edges(1.0, 5.9, 6.0, 8.0),
    _edges(5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e-154, 1.5e-154),  # subnormal, x*x underflows
])


def test_erf_within_an_ulp_of_scipy():
    with np.errstate(all="raise"):
        got = T._erf(ERF_INPUTS)
    np.testing.assert_array_max_ulp(got, scipy_erf(ERF_INPUTS), maxulp=1)


def test_erf_special_values():
    with np.errstate(all="raise"):
        got = T._erf(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308]))
    np.testing.assert_array_equal(got, [1.0, -1.0, np.nan, 0.0, -0.0, 1.0, -1.0])
    assert np.signbit(got[4]) and not np.signbit(got[3])


def test_erf_layouts():
    """Several chunks, in place, strided, 0-d and empty inputs give the same values."""
    base = np.random.default_rng(35).normal(scale=2.0, size=(40, 1000))  # 40 000: three chunks
    want = T._erf(base)
    np.testing.assert_array_max_ulp(want, scipy_erf(base), maxulp=1)
    np.testing.assert_array_equal(np.stack([T._erf(row) for row in base]), want)
    x = base.copy()
    assert T._erf(x, out=x) is x
    np.testing.assert_array_equal(x, want)
    np.testing.assert_array_equal(T._erf(base.T), want.T)
    x = base.copy()
    strided = x[:, ::3]
    T._erf(strided, out=strided)
    np.testing.assert_array_equal(x[:, ::3], want[:, ::3])
    np.testing.assert_array_equal(x[:, 1::3], base[:, 1::3])
    zero_d = T._erf(np.array(0.5))
    assert zero_d.shape == () and zero_d == scipy_erf(0.5)
    assert T._erf(np.empty((0, 3))).shape == (0, 3)


def _exact_logistic(xs):
    """1 / (1 + exp(-x)) rounded once to a double, from 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        return np.array([float(1 / (1 + (-Decimal(float(v))).exp())) for v in xs])


def test_expit_within_two_ulp():
    x = np.concatenate([np.linspace(-800.0, 800.0, 4001),
                        np.random.default_rng(36).normal(scale=4.0, size=2000)])
    with np.errstate(all="raise"):
        got = T._expit(x)
    np.testing.assert_array_max_ulp(got, _exact_logistic(x), maxulp=2)
    # scipy computes 1 / (1 + exp(-x)) for every x, so only at x >= 0 is its
    # formula this one; at x < 0 it rounds once more (3 ulp apart at x = -1.976)
    # and below -709.78 its exp(-x) overflows and it returns 0
    pos = x >= 0
    np.testing.assert_array_max_ulp(got[pos], scipy_expit(x[pos]), maxulp=2)


def test_expit_special_values():
    with np.errstate(all="raise"):
        got = T._expit(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]))
        assert T._expit(np.array(0.0)) == 0.5
    np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0, np.nan, 1.0, 0.0])


def test_softplus_sigmoid_values():
    assert abs(T.softplus(T.Tensor(0.0)).item() - np.log(2.0)) < 1e-15
    assert T.sigmoid(T.Tensor(0.0)).item() == 0.5
    big = T.softplus(T.Tensor(50.0)).item()
    assert abs(big - 50.0) < 1e-15


def test_softmax_rows_sum_to_one():
    x = randt(4, 7, grad=False, scale=30.0)
    s = T.softmax(x).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s >= 0).all()


def test_softmax_without_mask_is_the_plain_formula():
    rng = np.random.default_rng(31)
    x = randt(5, 9, rng=rng, scale=30.0)
    g = rng.normal(size=(5, 9))
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    want = e / e.sum(axis=-1, keepdims=True)
    s = T.softmax(x)
    (s * g).sum().backward()
    assert np.array_equal(s.data, want)
    assert np.array_equal(x.grad, want * (g - (g * want).sum(axis=-1, keepdims=True)))


def test_softmax_keep_mask_values_and_zero_gradient():
    rng = np.random.default_rng(32)
    x = randt(4, 7, rng=rng, scale=3.0)
    keep = rng.random((4, 7)) < 0.5
    keep[:, 2] = True  # every row keeps at least one entry
    x.data[~keep] += 1e3  # excluded entries may dwarf the kept ones before the -inf
    g = rng.normal(size=(4, 7))
    with np.errstate(all="raise"):
        s = T.softmax(x + np.where(keep, 0.0, -np.inf))
        (s * g).sum().backward()
    assert np.all(s.data[~keep] == 0.0)
    assert np.all(x.grad[~keep] == 0.0)
    for row in range(4):
        kept = x.data[row, keep[row]]
        e = np.exp(kept - kept.max())
        np.testing.assert_allclose(s.data[row, keep[row]], e / e.sum(), rtol=1e-13)


def test_grad_softmax_keep_mask():
    rng = np.random.default_rng(33)
    x = randt(3, 6, rng=rng)
    keep = rng.random((3, 6)) < 0.6
    keep[:, 0] = True
    w = rng.normal(size=(3, 6))

    def build():
        return (T.softmax(x + np.where(keep, 0.0, -np.inf)) * w).sum()

    # every coordinate: kept ones against finite differences, excluded ones at 0
    assert worst_grad_error(build, [x], n_samples=x.data.size) < GRAD_TOL


def test_layer_norm_statistics():
    x = randt(6, 32, grad=False, scale=5.0)
    g = T.Tensor(np.ones(32))
    b = T.Tensor(np.zeros(32))
    y = T.layer_norm(x, g, b).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-12
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4  # eps shifts variance slightly


def test_layer_norm_constant_input_gives_bias():
    x = T.Tensor(np.full((3, 8), 2.5))
    g = T.Tensor(np.ones(8))
    b = T.Tensor(np.arange(8.0))
    y = T.layer_norm(x, g, b).data
    assert np.allclose(y, np.arange(8.0), atol=1e-12)


def test_xlogx_zero_convention():
    y = T.xlogx(T.Tensor([0.0, 1.0, np.e])).data
    assert y[0] == 0.0 and abs(y[1]) < 1e-15 and abs(y[2] - np.e) < 1e-12


def test_inv_softplus_inverts():
    ys = np.array([1e-3, 0.04, 0.5, 2.0, 40.0])
    raw = T.inv_softplus(ys)
    assert np.abs(np.logaddexp(0.0, raw) - ys).max() < 1e-10


# --- gradients vs central differences -----------------------------------------

GRAD_TOL = 1e-3


def worst_grad_error(build, params, seed=0, n_samples=6):
    return check_gradients(build, params, np.random.default_rng(seed), n_samples=n_samples)


def test_grad_arithmetic():
    a, b = randt(3, 4), randt(3, 4)
    c = randt(4)  # broadcast operand

    def build():
        out = (a * b + c) / (T.exp(b) + 2.0) - a
        return (out * out).sum()

    assert worst_grad_error(build, [a, b, c]) < GRAD_TOL


def _rel_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


# (a shape, b shape, a is a parameter, operands built from a and b, einsum of the product)
MATMUL_CASES = {
    "3d@2d": ((2, 3, 4), (4, 5), True, lambda a, b: (a, b), "bik,kl->bil"),
    "4d_swapaxes_view@2d": ((2, 5, 3, 4), (4, 6), True,
                            lambda a, b: (T.transpose(a, (0, 2, 1, 3)), b), "bjik,kl->bijl"),
    "2d@2d_transposed_view": ((3, 4), (5, 4), True,
                              lambda a, b: (a, T.transpose(b, (1, 0))), "ik,jk->ij"),
    "const2d@3d": ((3, 3), (2, 3, 5), False, lambda a, b: (a, b), "ij,bjk->bik"),
}


@pytest.mark.parametrize("case", list(MATMUL_CASES), ids=list(MATMUL_CASES))
def test_grad_matmul_batched(case):
    a_shape, b_shape, a_grad, operands, spec = MATMUL_CASES[case]
    a, b = randt(*a_shape, grad=a_grad), randt(*b_shape)
    ref = np.einsum(spec, a.data, b.data)
    w = RNG.normal(size=ref.shape)

    def build():
        return (T.matmul(*operands(a, b)) * w).sum()

    params = [a, b] if a_grad else [b]
    assert worst_grad_error(build, params) < GRAD_TOL

    assert _rel_gap(T.matmul(*operands(a, b)).data, ref) <= 1e-12
    a.grad = b.grad = None
    build().backward()
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    assert _rel_gap(b.grad, np.einsum(f"{sa},{out}->{sb}", a.data, w)) <= 1e-12
    if a_grad:
        assert _rel_gap(a.grad, np.einsum(f"{out},{sb}->{sa}", w, b.data)) <= 1e-12
    else:
        assert a.grad is None


def test_grad_shape_ops():
    x = randt(2, 3, 4)

    def build():
        y = T.transpose(x, (1, 0, 2)).reshape(3, 8)
        z = T.concat([y, y * 2.0], axis=-1)[:, 3:10]
        return (z * z).mean()

    assert worst_grad_error(build, [x]) < GRAD_TOL


def test_grad_transpose_negative_axes():
    x, w = randt(2, 3, 4), RNG.normal(size=(2, 4, 3))
    (T.transpose(x, (0, -1, 1)) * w).sum().backward()
    np.testing.assert_array_equal(x.grad, w.transpose(0, 2, 1))


def test_grad_repeated_index_adds_each_use():
    x = randt(3)
    x[np.array([0, 0, 1])].sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])


def test_grad_stack_and_sum_axes():
    a, b = randt(3, 4), randt(3, 4)

    def build():
        s = T.stack([a, b], axis=0)
        return (s.sum(axis=0) * b).mean(axis=-1).sum()

    assert worst_grad_error(build, [a, b]) < GRAD_TOL


def test_grad_pointwise():
    x = randt(5, 5, scale=0.8)

    def build():
        y = T.gelu(x) + T.sigmoid(x) + T.softplus(x) + T.exp(x * 0.3)
        y = y + T.log(T.softplus(x) + 1.0) + T.sqrt(T.exp(x))
        return (y * y).sum()

    assert worst_grad_error(build, [x]) < GRAD_TOL


def test_grad_xlogx():
    p = T.Tensor(np.abs(RNG.normal(size=(4, 4))) + 0.1, requires_grad=True)

    def build():
        return T.xlogx(p).sum()

    assert worst_grad_error(build, [p]) < GRAD_TOL


def test_grad_softmax_layernorm():
    x = randt(3, 6)
    g = randt(6)
    b = randt(6)

    def build():
        y = T.softmax(x * 2.0)
        z = T.layer_norm(y + x, g, b)
        return (z * z).sum()

    assert worst_grad_error(build, [x, g, b]) < GRAD_TOL


def test_grad_fft_path():
    x = randt(16, 2)
    w = randt(16 // 2 + 1, 1)

    def build():
        z = T.fft_real(x)
        mag = T.complex_abs(z)
        mixed = z * w.reshape((-1, 1, 1))
        y = T.ifft_real(mixed, n=16)
        return (y * y).sum() + (mag * mag).mean()

    assert worst_grad_error(build, [x, w]) < GRAD_TOL


def test_grad_fft_odd_length():
    x = randt(9, 2)

    def build():
        z = T.fft_real(x)
        y = T.ifft_real(z * 1.5, n=9)
        return (y * y).sum()

    assert worst_grad_error(build, [x]) < GRAD_TOL


BAND_SPANS = [(1, 4), (0, 0), (0, 9), (3, 7)]  # partial, empty, full, overlapping


def band_mix_oracle(spec, weight, w, spans):
    """sum_k [lo_k <= f < hi_k] weight[..., f, k] X[f] (W_r,k + i W_i,k), bin by bin,
    for w[k] = [W_r,k | W_i,k]."""
    x = spec[..., 0, :] + 1j * spec[..., 1, :]  # (..., F, D)
    y = np.zeros(x.shape, dtype=np.complex128)
    d = x.shape[-1]
    for k, (lo, hi) in enumerate(spans):
        mixing = w[k, :, :d] + 1j * w[k, :, d:]
        for f in range(lo, hi):
            y[..., f, :] += weight[..., f, k, None] * (x[..., f, :] @ mixing)
    return np.stack((y.real, y.imag), axis=-2)


def band_mix_inputs(rng, lead=(2, 3), f=9, d=4):
    k = len(BAND_SPANS)
    return (T.Tensor(rng.normal(size=lead + (f, 2, d)), requires_grad=True),
            T.Tensor(rng.uniform(0.1, 1.0, size=lead + (f, k)), requires_grad=True),
            T.Tensor(rng.normal(size=(k, d, 2 * d)), requires_grad=True))


def test_band_mix_matches_per_bin_oracle():
    args = band_mix_inputs(np.random.default_rng(11))
    want = band_mix_oracle(*(a.data for a in args), BAND_SPANS)
    out = T.band_mix(*args, BAND_SPANS)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()


def test_grad_band_mix():
    spec, weight, w = band_mix_inputs(np.random.default_rng(12))

    def build():
        y = T.band_mix(spec, weight, w, BAND_SPANS)
        return (y * y).sum()

    assert worst_grad_error(build, [spec, weight, w], n_samples=12) < GRAD_TOL
    # the empty band and the bins outside each span pass back exactly 0
    assert not w.grad[1].any()
    outside = np.ones(weight.data.shape, dtype=bool)
    for k, (lo, hi) in enumerate(BAND_SPANS):
        outside[..., lo:hi, k] = False
    assert not weight.grad[outside].any() and weight.grad[~outside].all()


def test_mac_counter_counts_band_mix():
    args = band_mix_inputs(np.random.default_rng(13))
    with T.mac_counter() as macs:
        T.band_mix(*args, BAND_SPANS)
    rows, d = 2 * 3, 4
    assert macs["total"] == sum(4 * rows * (hi - lo) * d * d for lo, hi in BAND_SPANS)


def ffn_arrays(rng, lead, d, h, n):
    return [rng.normal(size=lead + (d,)), rng.normal(size=(d, h)) / np.sqrt(d),
            rng.normal(size=(h,)) * 0.1, rng.normal(size=(h, n)) / np.sqrt(h),
            rng.normal(size=(n,)) * 0.1]


@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
@pytest.mark.parametrize("lead", [(6,), (2, 3, 4)], ids=["2d", "4d"])
def test_ffn_is_bitwise_the_composed_chain(lead, masked):
    rng = np.random.default_rng(21)
    arrays = ffn_arrays(rng, lead, d=5, h=12, n=4)
    mask = rng.random(lead + (12,)) >= 0.3 if masked else None
    upstream = rng.normal(size=lead + (4,))
    runs = []
    for fn in (T.ffn, composed_ffn):
        tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
        with T.mac_counter() as macs:
            out = fn(*tensors, mask, 0.3)
        count = macs["total"]
        (out * upstream).sum().backward()
        runs.append((out.data, count, [t.grad for t in tensors]))
    (got, got_macs, got_grads), (want, want_macs, want_grads) = runs
    np.testing.assert_array_equal(got, want)
    assert got_macs == want_macs
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w)
    with T.no_grad():  # the path that overwrites the pre-activation in place
        fast = T.ffn(*[T.Tensor(a, requires_grad=True) for a in arrays], mask, 0.3)
    np.testing.assert_array_equal(fast.data, got)


def test_ffn_memory_at_default_shape():
    """A recorded node keeps two (rows, hidden) float arrays and the mask; no_grad peaks at two."""
    rows, d, h = 1280, 128, 512
    hidden_bytes = rows * h * 8
    slack = 1 << 16  # Tensor, closure and cell objects
    rng = np.random.default_rng(22)
    x, w1, b1, w2, b2 = [T.Tensor(a, requires_grad=True) for a in ffn_arrays(rng, (rows,), d, h, d)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mask = rng.random((rows, h)) >= 0.1
        out = T.ffn(x, w1, b1, w2, b2, mask, 0.1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        del out, mask
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with T.no_grad():
            T.ffn(x, w1, b1, w2, b2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert held <= 2 * hidden_bytes + rows * h + slack  # rows * h: the bool mask
    assert peak <= 2 * hidden_bytes + slack


def test_grad_depthwise_causal_conv():
    x = randt(2, 10, 3)
    k = randt(2, 4, 3)

    def build():
        y = T.depthwise_causal_conv(x, k)
        return (y * y).sum()

    assert worst_grad_error(build, [x, k]) < GRAD_TOL


@pytest.mark.parametrize("steps,taps", [(2, 5), (20, 3), (20, 11)])
def test_depthwise_causal_conv_more_taps_than_steps(steps, taps):
    # Forward and kernel gradient against direct sums, one kernel per row.
    # When the kernel is longer than the sequence, taps past the first
    # sample see only zero-padding, so they contribute nothing forward and
    # get zero gradient.
    rng = np.random.default_rng(100 * steps + taps)
    x = randt(2, steps, 3, rng=rng)
    k = randt(2, taps, 3, rng=rng)
    y = T.depthwise_causal_conv(x, k)
    ref = np.zeros_like(x.data)
    for t in range(steps):
        for j in range(min(taps, t + 1)):
            ref[:, t, :] += k.data[:, j] * x.data[:, t - j, :]
    assert np.array_equal(y.data, ref)

    def build():
        out = T.depthwise_causal_conv(x, k)
        return (out * out).sum()

    assert worst_grad_error(build, [x, k]) < GRAD_TOL
    gy = 2.0 * ref  # d(sum out^2)/d out
    gk_ref = np.zeros((2, taps, 3))
    for j in range(taps):
        for t in range(j, steps):
            gk_ref[:, j] += gy[:, t, :] * x.data[:, t - j, :]
    assert np.abs(k.grad - gk_ref).max() <= 1e-12 * np.abs(gk_ref).max()
    assert np.all(k.grad[:, steps:, :] == 0.0)


def test_depthwise_causal_conv_rejects_foreign_row_kernels():
    # one kernel per row: leading dims must equal the input's, and a 2-D
    # kernel shared by every row is not accepted
    x = randt(2, 3, 8, 4, grad=False)
    with pytest.raises(ValueError):
        T.depthwise_causal_conv(x, randt(3, 2, 5, 4, grad=False))
    with pytest.raises(ValueError, match="one kernel per row"):
        T.depthwise_causal_conv(x, randt(5, 4, grad=False))
    with pytest.raises(ValueError):
        T.depthwise_causal_conv(randt(2, 8, 4, grad=False), randt(5, 4, grad=False))
    # one filter per feature: a kernel one feature wide would broadcast
    for width in (1, 5):
        kernel = randt(2, 3, 5, width, grad=False)
        with pytest.raises(ValueError, match=r"\(2, 3, 5, %d\).*\(2, 3, 8, 4\)" % width):
            T.depthwise_causal_conv(x, kernel)


@pytest.mark.parametrize("lead,steps,width,taps", [
    ((), 20, 4, 11), ((3,), 7, 5, 3), ((2, 3), 9, 6, 5), ((4, 4), 12, 8, 7),
    ((3,), 1, 4, 5), ((2, 3), 16, 3, 1), ((3,), 3, 4, 12),
    ((8, 8), 20, 128, 11), ((1, 8), 20, 128, 11), ((16, 8), 20, 16, 11),
])
def test_depthwise_kernels_bitwise_equal_to_loop(lead, steps, width, taps):
    # The windowed einsum kernels against the per-tap loop they replaced,
    # byte for byte: leading shapes from none to (B, C), T = 1, taps = 1,
    # taps > T, and the default, B=1 and acceptance-model block shapes.
    rng = np.random.default_rng(steps * 1000 + width * 10 + taps)
    x, gy = rng.normal(size=(2,) + lead + (steps, width))
    k = rng.normal(size=lead + (taps, width))
    rows = int(np.prod(lead, dtype=np.int64))
    x3, k3, g3 = (a.reshape((rows,) + a.shape[-2:]) for a in (x, k, gy))
    gx_ref, gk_ref = loop_depthwise_causal_bwd(x3, k3, g3)
    gx, gk = backends.depthwise_causal_bwd(x, k, gy)
    y = backends.depthwise_causal_fwd(x, k)
    assert y.tobytes() == loop_depthwise_causal_fwd(x3, k3).tobytes()
    assert gx.tobytes() == gx_ref.tobytes()
    assert gk.tobytes() == gk_ref.tobytes()
    assert y.shape == gx.shape == x.shape and gk.shape == k.shape


def test_depthwise_kernels_one_feature_wide_within_ulps_of_loop():
    # With D = 1 the tap and time axes are contiguous, and numpy's einsum
    # sums a contiguous reduction axis in blocks, so the backward rounds
    # differently from the loop. Tolerance: 1e-15 of the largest value.
    # The forward reads its window reversed and stays bitwise.
    rng = np.random.default_rng(7)
    for steps, taps in [(8, 3), (20, 11), (64, 5), (64, 100)]:
        x, gy = rng.normal(size=(2, 5, steps, 1))
        k = rng.normal(size=(5, taps, 1))
        gx_ref, gk_ref = loop_depthwise_causal_bwd(x, k, gy)
        gx, gk = backends.depthwise_causal_bwd(x, k, gy)
        assert backends.depthwise_causal_fwd(x, k).tobytes() == loop_depthwise_causal_fwd(x, k).tobytes()
        assert np.abs(gx - gx_ref).max() <= 1e-15 * np.abs(gx_ref).max()
        assert np.abs(gk - gk_ref).max() <= 1e-15 * np.abs(gk_ref).max()


def test_grad_accumulates_across_reuse():
    x = T.Tensor([2.0], requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.sum().backward()
    assert abs(x.grad[0] - 7.0) < 1e-12


def test_accumulation_leaves_shared_gradients_alone():
    # add hands the same upstream array to w1 and w2; adding w1's second
    # contribution into it in place would also change w2.grad
    w1, w2 = randt(3, 4), randt(3, 4)
    loss = (w1 + w2).sum() + (w1 * 3.0).sum()
    loss.backward()
    np.testing.assert_array_equal(w2.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(w1.grad, np.full((3, 4), 4.0))


def test_backward_requires_scalar():
    x = randt(2, 2)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_on_graph_less_root_raises():
    w = randt(3, 3)
    with T.no_grad():
        loss = (w * 2.0).sum()
    with pytest.raises(RuntimeError, match="no_grad"):
        loss.backward()
    assert w.grad is None
    constant = (randt(2, grad=False) * 3.0).sum()  # no leaf requires grad
    with pytest.raises(RuntimeError, match="requires_grad"):
        constant.backward()


def test_backward_frees_interior_nodes_and_keeps_leaf_gradients():
    x, w, b = randt(4, 3, grad=False), randt(3, 5), randt(5)
    hidden = T.gelu(T.matmul(x, w) + b)
    loss = (T.softmax(hidden) * hidden).sum()
    loss.backward()
    interior = [n for n in graph_nodes(loss.node) if n._prev]
    assert len(interior) >= 5
    for node in interior:
        assert node.grad is None and node._backward is None
    assert hidden._prev  # parent links stay, so the graph can still be walked
    for leaf in (w, b):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    assert x.grad is None


def test_second_backward_on_a_consumed_graph_raises():
    w = randt(3, 3)
    hidden = T.exp(w * 0.5)
    loss = hidden.sum()
    loss.backward()
    first = w.grad
    with pytest.raises(RuntimeError, match="already consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="already consumed"):
        (hidden * 2.0).sum().backward()  # a fresh root on consumed nodes
    assert w.grad is first


# --- what the graph holds ---------------------------------------------------------

PRIMITIVES = {
    "add", "mul", "div", "matmul", "_matmul_2d", "reshape", "transpose", "getitem", "concat",
    "stack", "tsum", "tmean", "exp", "log", "sqrt", "xlogx", "sigmoid", "softplus", "gelu",
    "ffn", "softmax", "layer_norm", "fft_real", "ifft_real", "complex_abs", "band_mix",
    "depthwise_causal_conv",
}
# what a closure may hold besides grad nodes and arrays: shapes, axes, keys, rates
PLAIN = (int, float, slice, type(None), type(Ellipsis), np.generic)


def _closure_values(fn) -> list:
    """The values fn's closure cells hold, looking inside tuples, lists and nested functions."""
    todo, out = [fn], []
    while todo:
        v = todo.pop()
        if isinstance(v, (tuple, list)):
            todo.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            todo.extend(cell.cell_contents for cell in v.__closure__)
        else:
            out.append(v)
    return out


def tiny_model_step(rng):
    """A tiny model's training forward and loss, plus terms that reach every primitive."""
    cfg = ModelConfig(n_channels=3, n_classes=2, sample_rate=20.0, d=8, n_blocks=1, heads=2,
                      patch=4, band_mu_hz=(3.0, 7.0), kernel_sizes=(3, 5), k_top=2,
                      head_hidden=6)
    model = init_model(cfg, rng)
    logits = model_forward(model, rng.normal(size=(4, 3, 16)), rng=rng)
    loss = smoothed_cross_entropy(logits, np.array([0, 1, 1, 0]))
    w = model.head_w2
    extra = T.concat([w / (T.exp(w) + 1.0), T.stack([w[0], w[1]], axis=0)], axis=0)
    return logits, loss + extra.sum() + extra.mean(axis=0).sum()


def test_closures_hold_grad_nodes_leaves_and_arrays_only():
    # a closure that held a Tensor would keep that forward value alive
    # until backward, whether or not the backward reads it
    _, loss = tiny_model_step(np.random.default_rng(0))
    nodes = [n for n in graph_nodes(loss.node) if n._backward is not None]
    assert {n._backward.__qualname__.split(".")[0] for n in nodes} == PRIMITIVES
    for node in nodes:
        name = node._backward.__qualname__
        for v in _closure_values(node._backward):
            assert isinstance(v, (T._Node, np.ndarray) + PLAIN), (name, type(v))


def test_forward_values_die_with_their_tensors_without_gc():
    # no reference cycle: dropping the last Tensor frees its data at once
    rng = np.random.default_rng(1)
    gc.disable()
    try:
        with T.no_grad():
            logits, loss = tiny_model_step(rng)
        ref = weakref.ref(logits.data)
        del logits, loss
        assert ref() is None
        logits, loss = tiny_model_step(rng)
        loss.backward()
        ref = weakref.ref(logits.data)
        del logits, loss
        assert ref() is None
    finally:
        gc.enable()


# --- inference mode -------------------------------------------------------------


def test_only_tensors_a_gradient_flows_through_have_a_node(monkeypatch):
    assert T.Tensor(np.ones(2)).node is None
    assert T.Tensor(np.ones(2), requires_grad=True).node._prev == ()
    assert not hasattr(T.Tensor(np.ones(2)), "__dict__") and not hasattr(T._Node(), "__dict__")
    constant = T.Tensor(np.ones(2))
    constant.grad = None  # clearing the gradient of a Tensor that takes none is a no-op
    with pytest.raises(AttributeError, match="no gradient"):
        constant.grad = np.ones(2)
    rc = parse_config("")
    model = init_model(rc.model, stream(0, "init"))
    x = stream(1, "data").normal(size=(1, rc.data.n_channels, rc.data.t_len))
    made, real_init = [], T._Node.__init__

    def counted(node, *args):
        made.append(node)
        real_init(node, *args)

    monkeypatch.setattr(T._Node, "__init__", counted)
    with T.no_grad():
        model_forward(model, x)
    assert made == []


def test_no_grad_results_record_no_parents():
    x, w = randt(2, 3, grad=False), randt(3, 4)
    with T.no_grad():
        out = T.gelu(T.matmul(x, w))
        leaf = T.Tensor(np.ones(2), requires_grad=True)
    assert out.node is None
    assert leaf.requires_grad is True and w.requires_grad is True
    np.testing.assert_array_equal(out.data, T.gelu(T.matmul(x, w)).data)


def test_no_grad_restored_after_raise_and_nesting():
    w = randt(2)
    with pytest.raises(KeyError):
        with T.no_grad():
            raise KeyError("inside the block")
    assert (w * 2.0)._prev == (w.node,)
    with T.no_grad():
        with T.no_grad():
            pass
        assert not (w * 2.0).requires_grad  # the inner exit keeps the outer block off
    assert (w * 2.0)._prev == (w.node,)


# --- item -----------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)], ids=["rank0", "rank1", "rank2"])
def test_item_on_size_one_tensor(shape):
    assert T.Tensor(np.full(shape, 2.5)).item() == 2.5


def test_item_rejects_size_two():
    with pytest.raises(ValueError):
        T.Tensor([1.0, 2.0]).item()


# --- instrumentation -----------------------------------------------------------


@pytest.mark.parametrize("a_shape,b_shape,expected", [
    ((8, 16), (16, 4), 8 * 16 * 4),
    ((3, 8, 16), (16, 4), 3 * 8 * 16 * 4),
    ((8, 8), (3, 8, 4), 3 * 8 * 8 * 4),
], ids=["2d@2d", "3d@2d", "2d@3d"])
def test_mac_counter_counts_matmul(a_shape, b_shape, expected):
    a, b = randt(*a_shape, grad=False), randt(*b_shape, grad=False)
    with T.mac_counter() as macs:
        T.matmul(a, b)
    assert macs["total"] == expected


def test_mac_counter_off_outside_context():
    a = randt(4, 4, grad=False)
    with T.mac_counter() as macs:
        pass
    T.matmul(a, a)
    assert macs["total"] == 0


def test_scalar_index_keeps_zero_dim():
    x = randt(3)
    picked = x[0]
    assert picked.data.shape == ()  # ascontiguousarray must not promote to (1,)
    loss = (picked * randt(2, 2, grad=False)).sum()
    loss.backward()
    assert x.grad.shape == (3,)


def test_grad_scalar_index():
    x = randt(3)
    y = randt(2, 5, grad=False)

    def build():
        return (x[1] * y).sum() + x[0] * 2.0

    assert worst_grad_error(build, [x]) < GRAD_TOL
