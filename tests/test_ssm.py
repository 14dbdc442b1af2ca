"""State-space core: discretization, kernel/scan equivalence."""

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from nakul import ssm
from oracles import (
    direct_ssm_outputs,
    zoh_discretize_diag,
    zoh_discretize_scalar,
)

RNG = np.random.default_rng(99)


def random_stable_params(rng, n=None):
    n = n or int(rng.integers(1, 5))
    # negative-definite-ish A: random matrix shifted to stable eigenvalues
    m = rng.normal(size=(n, n)) * 0.5
    a = m - (np.abs(np.linalg.eigvals(m).real).max() + 0.5 + rng.uniform(0, 1)) * np.eye(n)
    return ssm.SsmParams(
        a=a,
        b=rng.normal(size=(n, 1)),
        c=rng.normal(size=(1, n)),
        d_skip=float(rng.normal()),
        n=n,
    )


# --- matrix exponential -------------------------------------------------------


def test_matrix_exp_matches_scipy():
    for _ in range(50):
        n = int(RNG.integers(1, 6))
        m = RNG.normal(size=(n, n)) * RNG.uniform(0.1, 3.0)
        got = ssm.matrix_exp(m)
        want = scipy_expm(m)
        denom = max(np.abs(want).max(), 1.0)
        assert np.abs(got - want).max() / denom < 1e-12


def test_matrix_exp_identity_at_zero():
    assert np.array_equal(ssm.matrix_exp(np.zeros((3, 3))), np.eye(3))


# --- discretize -----------------------------------------------------------------


def test_discretize_zero_a_gives_delta_b_exactly():
    p = ssm.SsmParams(a=[[0.0]], b=[[1.0]], c=[[1.0]], d_skip=0.0, n=1)
    d = ssm.discretize(p, 0.1)
    assert d.a_bar[0, 0] == 1.0
    assert d.b_bar[0, 0] == 0.1  # exactly delta * B, first series term only


def test_discretize_scalar_closed_form():
    p = ssm.SsmParams(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d_skip=0.0, n=1)
    d = ssm.discretize(p, 0.1)
    a_ref, b_ref = zoh_discretize_scalar(-1.0, 1.0, 0.1)
    assert abs(d.a_bar[0, 0] - a_ref) < 1e-14
    assert abs(d.b_bar[0, 0] - b_ref) < 1e-14
    assert abs(d.a_bar[0, 0] - 0.9048374180359595) < 1e-12
    assert abs(d.b_bar[0, 0] - 0.0951625819640404) < 1e-12


def test_discretize_diagonal_exact():
    for _ in range(20):
        n = int(RNG.integers(1, 5))
        diag = -RNG.uniform(0.1, 5.0, size=n)
        delta = float(RNG.uniform(0.01, 1.0))
        p = ssm.SsmParams(
            a=np.diag(diag), b=RNG.normal(size=(n, 1)), c=np.ones((1, n)), d_skip=0.0, n=n
        )
        d = ssm.discretize(p, delta)
        a_ref, b_ref = zoh_discretize_diag(diag, p.b[:, 0], delta)
        assert np.abs(d.a_bar - a_ref).max() < 1e-12
        assert np.abs(np.diag(d.a_bar) - np.exp(delta * diag)).max() < 1e-12
        assert np.abs(d.b_bar[:, 0] - b_ref).max() < 1e-12


def test_discretize_rejects_bad_delta():
    p = ssm.SsmParams(a=np.diag([-1.0, -2.0]), b=np.ones((2, 1)), c=np.ones((1, 2)),
                      d_skip=1.0, n=2)
    with pytest.raises(ValueError):
        ssm.discretize(p, 0.0)


def test_stable_a_bar_spectral_radius():
    for _ in range(50):
        p = random_stable_params(RNG)
        d = ssm.discretize(p, float(RNG.uniform(0.01, 1.0)))
        radius = np.abs(np.linalg.eigvals(d.a_bar)).max()
        assert radius <= 1.0 + 1e-12


# --- kernel ---------------------------------------------------------------------


def test_kernel_frozen_small_cases():
    d = ssm.DiscreteSsm(
        a_bar=np.array([[0.5]]), b_bar=np.array([[1.0]]), c=np.array([[1.0]]), d_skip=0.0, delta=1.0
    )
    assert np.allclose(ssm.materialize_kernel(d, 3), [1.0, 0.5, 0.25], atol=1e-15)
    d.a_bar = np.array([[0.0]])
    assert np.allclose(ssm.materialize_kernel(d, 4), [1.0, 0.0, 0.0, 0.0], atol=0)
    d.c = np.array([[0.0]])
    assert np.array_equal(ssm.materialize_kernel(d, 4), np.zeros(4))


def test_scalar_kernel_geometric_decay():
    p = ssm.SsmParams(a=[[-0.7]], b=[[1.3]], c=[[0.9]], d_skip=0.0, n=1)
    d = ssm.discretize(p, 0.2)
    k = ssm.materialize_kernel(d, 16)
    ratios = np.abs(k[1:]) / np.abs(k[:-1])
    assert np.allclose(ratios, d.a_bar[0, 0], atol=1e-12)
    assert np.all(np.abs(k[1:]) <= np.abs(k[:-1]))


# --- convolution ------------------------------------------------------------------


def test_causal_convolve_identity_and_delay():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(ssm.causal_convolve(np.array([1.0]), x), x)
    assert np.array_equal(ssm.causal_convolve(np.array([0.0, 1.0]), x), [0.0, 1.0, 2.0])


def test_causal_convolve_matches_direct_sum():
    for _ in range(20):
        taps = int(RNG.integers(1, 12))
        length = int(RNG.integers(1, 40))
        k = RNG.normal(size=taps)
        x = RNG.normal(size=length)
        got = ssm.causal_convolve(k, x)
        want = np.zeros(length)
        for t in range(length):
            for j in range(min(t + 1, taps)):
                want[t] += k[j] * x[t - j]
        assert np.abs(got - want).max() < 1e-12


def loop_causal_convolve(kernel, x, skip=0.0):
    """The shift-and-add loop causal_convolve ran before it called the
    model's depthwise kernel, kept as a bitwise reference."""
    T = x.shape[0]
    y = kernel[0] * x
    for j in range(1, min(kernel.shape[0], T)):
        y[j:] += kernel[j] * x[: T - j]
    return y + float(skip) * x


def test_causal_convolve_bitwise_equal_to_loop_on_random_systems():
    rng = np.random.default_rng(104)
    for i in range(200):
        d = ssm.discretize(random_stable_params(rng), float(rng.uniform(0.02, 0.5)))
        length = int(rng.integers(1, 65))
        taps = int(rng.integers(1, 2 * length + 1))  # also longer than the input
        x = rng.normal(size=(length,) if i % 2 else (length, 3))  # columns along axis 0
        k = ssm.materialize_kernel(d, taps)
        got = ssm.causal_convolve(k, x, skip=d.d_skip)
        assert np.array_equal(got, loop_causal_convolve(k, x, skip=d.d_skip))


def test_causal_convolve_rejects_empty_kernel():
    with pytest.raises(ValueError):
        ssm.causal_convolve(np.zeros(0), np.ones(4))


# --- scan / convolution equivalence ------------------------------------------------


def test_impulse_response_equals_kernel():
    p = random_stable_params(np.random.default_rng(3), n=3)
    p.d_skip = 0.0
    d = ssm.discretize(p, 0.15)
    x = np.zeros(20)
    x[0] = 1.0
    assert np.abs(ssm.recurrent_scan(d, x) - ssm.materialize_kernel(d, 20)).max() < 1e-12


def test_zero_input_zero_output():
    d = ssm.discretize(random_stable_params(np.random.default_rng(4)), 0.1)
    assert np.array_equal(ssm.recurrent_scan(d, np.zeros(16)), np.zeros(16))


def test_scan_matches_convolution_and_direct_unroll():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_stable_params(rng)
        d = ssm.discretize(p, float(rng.uniform(0.02, 0.5)))
        x = rng.normal(size=32)
        y_scan = ssm.recurrent_scan(d, x)
        k = ssm.materialize_kernel(d, 32)
        y_conv = ssm.causal_convolve(k, x, skip=d.d_skip)
        y_direct = direct_ssm_outputs(d.a_bar, d.b_bar[:, 0], d.c[0], d.d_skip, x)
        assert np.abs(y_scan - y_conv).max() < 1e-10
        assert np.abs(y_scan - y_direct).max() < 1e-9

