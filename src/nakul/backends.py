"""Depthwise causal convolution kernels, forward and backward, in numpy.

y[..., t, d] = sum_j k[..., j, d] * x[..., t - j, d], zero-padded on the
left: x is (..., T, D) and k (..., taps, D), one kernel per leading index
(there may be none); a k of width 1 is shared by every feature. Each pass
is one einsum over a (..., T, D, taps) lag view of a zero-padded operand,
so taps past T read only padding. All arrays are float64.
"""

from __future__ import annotations

import numpy as np

# Recorded in benchmark environment reports; there is no compiled path.
BACKEND = "numpy"
HAS_NUMBA = False


def _lag_windows(a: np.ndarray, taps: int, past: bool) -> np.ndarray:
    """Zero-padded lag view w of a (..., T, D), shaped (..., T, D, taps):
    w[..., t, d, j] = a[..., t - j, d] if past, else a[..., t + j, d]."""
    pad = [(0, 0)] * a.ndim
    pad[-2] = (taps - 1, 0) if past else (0, taps - 1)
    w = np.lib.stride_tricks.sliding_window_view(np.pad(a, pad), taps, axis=-2)
    return w[..., ::-1] if past else w


def depthwise_causal_fwd(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    return np.einsum("...tdj,...jd->...td", _lag_windows(x, k.shape[-2], past=True), k)


def depthwise_causal_bwd(
    x: np.ndarray, k: np.ndarray, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    w = _lag_windows(gy, k.shape[-2], past=False)  # one view feeds both gradients
    return np.einsum("...tdj,...jd->...td", w, k), np.einsum("...td,...tdj->...jd", x, w)
