"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (direct sums, explicit
loops, closed forms) so that the package code is checked against a
second route rather than against itself.
"""

from __future__ import annotations

import numpy as np


def naive_dft(x: np.ndarray) -> np.ndarray:
    """One-sided DFT by direct O(T^2) summation, unnormalized."""
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[-1]
    nbins = t // 2 + 1
    ks = np.arange(t)
    out = np.empty(x.shape[:-1] + (nbins,), dtype=np.complex128)
    for f in range(nbins):
        basis = np.exp(-2j * np.pi * f * ks / t)
        out[..., f] = (x * basis).sum(axis=-1)
    return out


def naive_idft(spec: np.ndarray, t: int) -> np.ndarray:
    """Invert the one-sided DFT by direct summation with 1/T scaling."""
    spec = np.asarray(spec, dtype=np.complex128)
    nbins = spec.shape[-1]
    full = np.zeros(spec.shape[:-1] + (t,), dtype=np.complex128)
    full[..., :nbins] = spec
    for f in range(1, t - nbins + 1):
        full[..., t - f] = np.conj(spec[..., f])
    ks = np.arange(t)
    out = np.empty(spec.shape[:-1] + (t,), dtype=np.complex128)
    for n in range(t):
        basis = np.exp(2j * np.pi * ks * n / t)
        out[..., n] = (full * basis).sum(axis=-1) / t
    return out.real


def central_difference(f, arr: np.ndarray, idx, h: float = 1e-4) -> float:
    """d f / d arr[idx] by central differences; f re-evaluates the graph."""
    orig = arr[idx]
    arr[idx] = orig + h
    hi = f()
    arr[idx] = orig - h
    lo = f()
    arr[idx] = orig
    return (hi - lo) / (2.0 * h)


def relative_error(analytic: float, numeric: float, floor: float = 1e-4) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def check_gradients(build, tensors, rng, n_samples=8, h=1e-4, floor=1e-4):
    """Compare autodiff gradients of a scalar against central differences.

    build() runs the forward pass and returns the scalar loss Tensor;
    it must be deterministic. Returns the max relative error over
    n_samples randomly chosen coordinates of each tensor.
    """
    loss = build()
    loss.backward()
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "parameter received no gradient"
        flat_n = t.data.size
        take = min(n_samples, flat_n)
        coords = rng.choice(flat_n, size=take, replace=False)
        for c in coords:
            idx = np.unravel_index(int(c), t.data.shape)
            numeric = central_difference(lambda: build().item(), t.data, idx, h=h)
            analytic = float(t.grad[idx])
            worst = max(worst, relative_error(analytic, numeric, floor=floor))
    return worst


def zoh_discretize_scalar(a: float, b: float, dt: float) -> tuple[float, float]:
    """Closed-form zero-order-hold for a 1x1 system."""
    a_bar = np.exp(dt * a)
    if abs(a) < 1e-300:
        b_bar = dt * b
    else:
        b_bar = (np.expm1(dt * a) / a) * b
    return float(a_bar), float(b_bar)


def zoh_discretize_diag(a: np.ndarray, b: np.ndarray, dt: float):
    """Closed-form zero-order-hold for a diagonal system."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_bar = np.diag(np.exp(dt * a))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(np.abs(a) > 1e-300, np.expm1(dt * a) / np.where(a == 0, 1, a), dt)
    return a_bar, factor * b


def direct_ssm_outputs(a_bar, b_bar, c, d_skip, x):
    """Unrolled y_k = sum_j C A^j B x_{k-j} + D x_k by explicit powers."""
    t = len(x)
    n = a_bar.shape[0]
    taps = np.empty(t)
    power = np.eye(n)
    for k in range(t):
        taps[k] = c @ power @ b_bar
        power = a_bar @ power
    y = np.zeros(t)
    for k in range(t):
        for j in range(k + 1):
            y[k] += taps[j] * x[k - j]
        y[k] += d_skip * x[k]
    return y


def graph_size(*roots) -> int:
    """Autograd nodes reachable from the given Tensors through their parents."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


def gaussian_density(f, mu, sigma):
    return np.exp(-((f - mu) ** 2) / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))


def reference_adamw(param, grad, state, lr, beta1, beta2, eps, weight_decay, step):
    """One AdamW update, transcribed directly from the published algorithm."""
    m = state.get("m", np.zeros_like(param))
    v = state.get("v", np.zeros_like(param))
    m = beta1 * m + (1 - beta1) * grad
    v = beta2 * v + (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1**step)
    v_hat = v / (1 - beta2**step)
    new = param - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * param)
    return new, {"m": m, "v": v}


def reference_onecycle(step, total_steps, max_lr, warmup_frac=0.3, div=25.0, final_lr=1e-6):
    """Linear ramp from max_lr/div to max_lr, then cosine to final_lr."""
    warm = max(int(round(total_steps * warmup_frac)), 1)
    if step < warm:
        frac = step / warm
        return max_lr / div + (max_lr - max_lr / div) * frac
    span = max(total_steps - warm, 1)
    frac = min((step - warm) / span, 1.0)
    return final_lr + 0.5 * (max_lr - final_lr) * (1 + np.cos(np.pi * frac))


def band_power_features(signals: np.ndarray, rate: float, bands) -> np.ndarray:
    """Per-channel power summed over each frequency band, flattened."""
    n, c, t = signals.shape
    spec = np.fft.rfft(signals, axis=-1)
    freqs = np.fft.rfftfreq(t, d=1.0 / rate)
    feats = np.empty((n, c * len(bands)))
    for bi, (lo, hi) in enumerate(bands):
        sel = (freqs >= lo) & (freqs < hi)
        power = (np.abs(spec[..., sel]) ** 2).sum(axis=-1)
        feats[:, bi * c : (bi + 1) * c] = power
    return feats


CANONICAL_BANDS = ((4.0, 8.0), (8.0, 13.0), (13.0, 30.0), (30.0, 45.0))


def band_power_probe(train_x, train_y, test_x, test_y, rate: float):
    """Ridge regression to one-hot targets on canonical band powers.

    Returns test accuracy. Deterministic closed form; the standard
    fixed-band baseline the learned filter bank is measured against.
    """
    ftr = band_power_features(train_x, rate, CANONICAL_BANDS)
    fte = band_power_features(test_x, rate, CANONICAL_BANDS)
    mean, std = ftr.mean(axis=0), ftr.std(axis=0) + 1e-12
    ftr = (ftr - mean) / std
    fte = (fte - mean) / std
    ftr = np.hstack([ftr, np.ones((len(ftr), 1))])
    fte = np.hstack([fte, np.ones((len(fte), 1))])
    classes = int(train_y.max()) + 1
    onehot = np.eye(classes)[train_y]
    lam = 1e-3
    w = np.linalg.solve(ftr.T @ ftr + lam * np.eye(ftr.shape[1]), ftr.T @ onehot)
    pred = (fte @ w).argmax(axis=1)
    return float((pred == test_y).mean())
