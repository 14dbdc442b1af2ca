"""Depthwise causal convolution kernels, forward and backward, in numpy.

y[r, t, d] = sum_j k[r, j, d] * x[r, t - j, d], zero-padded on the left:
every row r has its own kernel, (R, taps, D). Shapes use R for flattened
leading (batch-like) dimensions, T for time, D for features, and taps
for kernel length. All arrays are float64.
"""

from __future__ import annotations

import numpy as np

# Recorded in benchmark environment reports; there is no compiled path.
BACKEND = "numpy"
HAS_NUMBA = False


def depthwise_causal_fwd(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    R, T, D = x.shape
    taps = k.shape[1]
    y = k[:, 0:1] * x
    for j in range(1, min(taps, T)):  # taps beyond T never reach an output
        y[:, j:, :] += k[:, j : j + 1] * x[:, : T - j, :]
    return y


def depthwise_causal_bwd(
    x: np.ndarray, k: np.ndarray, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    R, T, D = x.shape
    taps = k.shape[1]
    gx = k[:, 0:1] * gy
    gk = np.zeros_like(k)  # taps past T keep zero gradient
    gk[:, 0] = np.einsum("rtd,rtd->rd", gy, x)
    for j in range(1, min(taps, T)):
        gx[:, : T - j, :] += k[:, j : j + 1] * gy[:, j:, :]
        gk[:, j] = np.einsum("rtd,rtd->rd", gy[:, j:, :], x[:, : T - j, :])
    return gx, gk
