"""Continuous-time state-space systems and their discrete forms.

A system is dh/dt = A h + B x, y = C h + D_skip x with scalar input and
output. Zero-order hold over a step delta gives the discrete transition
A_bar = exp(delta A) and input matrix B_bar; unrolling the recurrence
shows the output is a causal convolution with the kernel
K_k = C A_bar^k B_bar plus the skip term, which is what the equivalence
tests exercise.

The matrix exponential is scaling-and-squaring with a Pade order-6
approximant. B_bar is computed from the series
delta (I + delta A / 2! + (delta A)^2 / 3! + ...) B, truncated once the
next term's norm drops below 1e-14, so A = 0 yields exactly delta B
instead of hitting the singular closed form.

Everything here is plain numpy (verification plumbing, no gradients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SsmParams",
    "DiscreteSsm",
    "stable_diag_init",
    "matrix_exp",
    "discretize",
    "materialize_kernel",
    "recurrent_scan",
    "causal_convolve",
]


@dataclass
class SsmParams:
    """Continuous-time system matrices; A must start stable.

    Matrices may be given as nested sequences; `discretize` reads them
    as float64 of the shapes noted below.
    """

    a: np.ndarray  # N x N
    b: np.ndarray  # N x 1
    c: np.ndarray  # 1 x N
    d_skip: float
    n: int


@dataclass
class DiscreteSsm:
    a_bar: np.ndarray  # N x N
    b_bar: np.ndarray  # N x 1
    c: np.ndarray  # 1 x N
    d_skip: float
    delta: float


def stable_diag_init(n: int, d_skip: float = 1.0) -> SsmParams:
    """Diagonal A with entries -(1 + k); B and C all ones."""
    a = np.diag(-np.arange(1.0, n + 1.0))
    return SsmParams(a=a, b=np.ones((n, 1)), c=np.ones((1, n)), d_skip=d_skip, n=n)


# Pade [6/6] numerator coefficients for exp; the denominator uses the
# same coefficients with alternating signs.
_PADE6 = np.array(
    [1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280]
)
_PADE6_THETA = 0.5


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """exp(M) by scaling-and-squaring with an order-6 Pade approximant."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    norm = np.abs(m).sum(axis=1).max() if n else 0.0
    squarings = 0
    if norm > _PADE6_THETA:
        squarings = int(np.ceil(np.log2(norm / _PADE6_THETA)))
        m = m / (2.0**squarings)
    powers = [np.eye(n)]
    for _ in range(6):
        powers.append(powers[-1] @ m)
    num = sum(c * p for c, p in zip(_PADE6, powers))
    den = sum(c * p * (-1.0) ** k for k, (c, p) in enumerate(zip(_PADE6, powers)))
    result = np.linalg.solve(den, num)
    for _ in range(squarings):
        result = result @ result
    return result


def _b_bar_series(a: np.ndarray, b: np.ndarray, delta: float) -> np.ndarray:
    """delta (I + dA/2! + (dA)^2/3! + ...) B, truncated at term norm 1e-14."""
    term = delta * b
    acc = term.copy()
    for k in range(2, 64):
        term = (delta / k) * (a @ term)
        if np.linalg.norm(term) < 1e-14:
            break
        acc += term
    return acc


def discretize(p: SsmParams, delta: float) -> DiscreteSsm:
    if delta <= 0:
        raise ValueError("delta must be positive")
    a = np.asarray(p.a, dtype=np.float64).reshape(p.n, p.n)
    b = np.asarray(p.b, dtype=np.float64).reshape(p.n, 1)
    c = np.array(p.c, dtype=np.float64).reshape(1, p.n)
    a_bar = matrix_exp(delta * a)
    b_bar = _b_bar_series(a, b, delta)
    if not (np.all(np.isfinite(a_bar)) and np.all(np.isfinite(b_bar))):
        raise FloatingPointError("discretization produced non-finite values")
    return DiscreteSsm(a_bar=a_bar, b_bar=b_bar, c=c, d_skip=float(p.d_skip), delta=delta)


def materialize_kernel(d: DiscreteSsm, length: int) -> np.ndarray:
    """Impulse-response taps K_k = C A_bar^k B_bar for k = 0..length-1."""
    if length < 1:
        raise ValueError("kernel length must be >= 1")
    out = np.empty(length)
    v = d.b_bar.copy()
    for k in range(length):
        out[k] = (d.c @ v)[0, 0]
        v = d.a_bar @ v
    return out


def recurrent_scan(d: DiscreteSsm, x: np.ndarray) -> np.ndarray:
    """y_k = C h_k + D_skip x_k with h_k = A_bar h_{k-1} + B_bar x_k, h_0 = 0."""
    x = np.asarray(x, dtype=np.float64)
    b_bar, c = d.b_bar[:, 0], d.c[0]
    h = np.zeros(d.a_bar.shape[0])
    y = np.empty(x.shape[0])
    for t in range(x.shape[0]):
        h = d.a_bar @ h + b_bar * x[t]
        y[t] = c @ h + d.d_skip * x[t]
    return y


def causal_convolve(kernel: np.ndarray, x: np.ndarray, skip: float = 0.0) -> np.ndarray:
    """Same-length causal convolution, left-zero-padded, plus skip * x."""
    kernel = np.asarray(kernel, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    taps = kernel.shape[0]
    if taps < 1:
        raise ValueError("kernel must have at least one tap")
    T = x.shape[0]
    y = kernel[0] * x
    for j in range(1, min(taps, T)):
        y[j:] += kernel[j] * x[: T - j]
    return y + float(skip) * x
