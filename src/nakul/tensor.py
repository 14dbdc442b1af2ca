"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps a numpy array and the
closure that routes upstream gradients to its parents. Calling
``backward`` on a scalar walks the recorded graph once in reverse
topological order. Everything is float64 and row-major; there is no
device abstraction and no dtype promotion to think about.

Conventions fixed here and relied on throughout the package:

- layer_norm normalizes the last axis with eps = 1e-5.
- softmax acts on the last axis.
- gelu is the exact erf form, not the tanh approximation.
- fft_real is the unnormalized one-sided real FFT (T//2 + 1 bins);
  ifft_real carries the 1/T factor and inverts it exactly.

Complex spectra are carried as a (re, im) pair of real Tensors, so any
computation built on them is differentiable without special casing.

matmul with a 2-D right operand (every weight) runs as one GEMM over the
flattened leading rows of the left operand, forward and backward; only
N-D @ N-D products use numpy's batched matmul. Gradient accumulation
never adds in place: a node's first gradient is stored as given, often
the very array a sibling or the upstream node holds.

Construction from external data rejects NaN/Inf. Results of internal
ops skip that check; modules that can produce non-finite values guard
their own outputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit

from . import backends

__all__ = [
    "Tensor",
    "ComplexTensor",
    "backward",
    "mac_counter",
    "add",
    "mul",
    "matmul",
    "concat",
    "stack",
    "exp",
    "log",
    "sqrt",
    "xlogx",
    "sigmoid",
    "softplus",
    "gelu",
    "softmax",
    "layer_norm",
    "fft_real",
    "ifft_real",
    "complex_abs",
    "gather_last",
    "gather_rows",
    "scatter_last",
    "depthwise_causal_conv",
    "inv_softplus",
]

# --- multiply-add instrumentation -------------------------------------------

_MACS = {"active": False, "total": 0}


def _count(n: int) -> None:
    if _MACS["active"]:
        _MACS["total"] += int(n)


@contextmanager
def mac_counter():
    """Count multiply-adds executed by primitives inside the block.

    Elementwise primitives count one MAC per output element; matmul
    counts m*k*n; the FFT pair counts 1.25 * T * log2(T) per transform.
    Yields a dict whose "total" entry holds the running count.
    """
    _MACS["active"] = True
    _MACS["total"] = 0
    try:
        yield _MACS
    finally:
        _MACS["active"] = False


# --- tensor -----------------------------------------------------------------


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    @classmethod
    def _result(cls, data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        tracked = tuple(p for p in parents if p.requires_grad)
        out.requires_grad = bool(tracked)
        out._prev = tracked
        out._backward = backward_fn if tracked else None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._prev = ()
        out._backward = None
        return out

    def _accum(self, g: np.ndarray) -> None:
        # g may be a sibling's or the upstream node's gradient (add, reshape
        # and swapaxes pass it through), so it is stored, never added into.
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones(self.data.shape)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(_wrap(other), -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def transpose(self, axes):
        return transpose(self, axes)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


@dataclass
class ComplexTensor:
    """One-sided complex spectrum carried as real/imaginary Tensors."""

    re: Tensor
    im: Tensor

    @property
    def shape(self):
        return self.re.shape


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(x, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    out._prev = ()
    out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# --- arithmetic primitives ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data
    _count(data.size)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return Tensor._result(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    _count(data.size)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._result(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data / b.data
    _count(data.size)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * data / b.data, b.data.shape))

    return Tensor._result(data, (a, b), bw)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")
    if b.data.ndim == 2:
        return _matmul_2d(a, b)
    data = np.matmul(a.data, b.data)
    m, k = a.data.shape[-2], a.data.shape[-1]
    n = b.data.shape[-1]
    _count(int(np.prod(data.shape[:-2], dtype=np.int64)) * m * k * n)

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, b.data.swapaxes(-1, -2))
            a._accum(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(a.data.swapaxes(-1, -2), g)
            b._accum(_unbroadcast(gb, b.data.shape))

    return Tensor._result(data, (a, b), bw)


def _matmul_2d(a: Tensor, b: Tensor) -> Tensor:
    """a (..., k) @ b (k, n) as one GEMM over the flattened leading rows."""
    rows, k = a.data.shape[:-1], a.data.shape[-1]
    n = b.data.shape[1]
    data = (a.data.reshape(-1, k) @ b.data).reshape(rows + (n,))
    _count(int(np.prod(rows, dtype=np.int64)) * k * n)

    def bw(g):
        g2 = g.reshape(-1, n)
        if a.requires_grad:
            a._accum((g2 @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            # redone rather than kept: for a non-contiguous a it is a copy
            b._accum(a.data.reshape(-1, k).T @ g2)

    return Tensor._result(data, (a, b), bw)


# --- shape primitives --------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    x = _wrap(x)
    data = x.data.reshape(shape)

    def bw(g):
        x._accum(g.reshape(x.data.shape))

    return Tensor._result(data, (x,), bw)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    x = _wrap(x)
    data = x.data.swapaxes(a, b)

    def bw(g):
        x._accum(g.swapaxes(a, b))

    return Tensor._result(data, (x,), bw)


def transpose(x: Tensor, axes) -> Tensor:
    x = _wrap(x)
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        x._accum(g.transpose(inv))

    return Tensor._result(data, (x,), bw)


def getitem(x: Tensor, key) -> Tensor:
    x = _wrap(x)
    data = np.asarray(x.data[key])
    if data.ndim:
        data = np.ascontiguousarray(data)  # ascontiguousarray would promote 0-d to (1,)

    def bw(g):
        full = np.zeros(x.data.shape)
        full[key] += g
        x._accum(full)

    return Tensor._result(data, (x,), bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return Tensor._result(data, tuple(tensors), bw)


def stack(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        parts = np.moveaxis(g, axis, 0)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accum(part.reshape(t.data.shape))

    return Tensor._result(data, tuple(tensors), bw)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    _count(x.data.size)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accum(np.broadcast_to(g, x.data.shape).copy())

    return Tensor._result(np.asarray(data), (x,), bw)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    data = x.data.mean(axis=axis, keepdims=keepdims)
    denom = x.data.size / max(data.size, 1)
    _count(x.data.size)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accum(np.broadcast_to(g, x.data.shape) / denom)

    return Tensor._result(np.asarray(data), (x,), bw)


# --- pointwise primitives -----------------------------------------------------


def exp(x) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)
    _count(data.size)

    def bw(g):
        x._accum(g * data)

    return Tensor._result(data, (x,), bw)


def log(x) -> Tensor:
    x = _wrap(x)
    data = np.log(x.data)
    _count(data.size)

    def bw(g):
        x._accum(g / x.data)

    return Tensor._result(data, (x,), bw)


def sqrt(x) -> Tensor:
    x = _wrap(x)
    data = np.sqrt(x.data)
    _count(data.size)

    def bw(g):
        safe = np.where(data > 0.0, data, 1.0)
        x._accum(np.where(data > 0.0, g * 0.5 / safe, 0.0))

    return Tensor._result(data, (x,), bw)


def xlogx(x) -> Tensor:
    """x * log(x) with the 0 log 0 = 0 convention (entropy terms)."""
    x = _wrap(x)
    pos = x.data > 0.0
    safe = np.where(pos, x.data, 1.0)
    data = np.where(pos, x.data * np.log(safe), 0.0)
    _count(data.size)

    def bw(g):
        x._accum(np.where(pos, g * (np.log(safe) + 1.0), 0.0))

    return Tensor._result(data, (x,), bw)


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    data = expit(x.data)
    _count(data.size)

    def bw(g):
        x._accum(g * data * (1.0 - data))

    return Tensor._result(data, (x,), bw)


def softplus(x) -> Tensor:
    x = _wrap(x)
    data = np.logaddexp(0.0, x.data)
    _count(data.size)

    def bw(g):
        x._accum(g * expit(x.data))

    return Tensor._result(data, (x,), bw)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x) -> Tensor:
    x = _wrap(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    data = x.data * cdf
    _count(2 * data.size)

    def bw(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        x._accum(g * (cdf + x.data * pdf))

    return Tensor._result(data, (x,), bw)


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    _count(3 * data.size)

    def bw(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        x._accum(data * (g - inner))

    return Tensor._result(data, (x,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance; affine after."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data
    _count(5 * data.size)

    def bw(g):
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.data.shape))
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.data.shape))
        if x.requires_grad:
            gyh = g * gain.data
            m1 = gyh.mean(axis=-1, keepdims=True)
            m2 = (gyh * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (gyh - m1 - xhat * m2))

    return Tensor._result(data, (x, gain, bias), bw)


# --- FFT primitives -----------------------------------------------------------
# Forward transform is unnormalized; the inverse carries 1/T. Gradients
# are the exact adjoints of those linear maps, computed with one more
# FFT of matching length.


def _bin_weights(t: int) -> np.ndarray:
    nbins = t // 2 + 1
    w = np.full(nbins, 2.0)
    w[0] = 1.0
    if t % 2 == 0:
        w[-1] = 1.0
    return w


def _fft_macs(t: int, rows: int) -> int:
    return int(1.25 * t * max(np.log2(t), 1.0)) * rows


def fft_real(x) -> ComplexTensor:
    """One-sided unnormalized real FFT along the last axis."""
    x = _wrap(x)
    spec = np.fft.rfft(x.data, axis=-1)
    t = x.data.shape[-1]
    scale = t / _bin_weights(t)
    _count(_fft_macs(t, x.data.size // t))

    def bw_re(g):
        x._accum(np.fft.irfft(g * scale, n=t, axis=-1))

    def bw_im(g):
        x._accum(np.fft.irfft(1j * g * scale, n=t, axis=-1))

    re = Tensor._result(np.ascontiguousarray(spec.real), (x,), bw_re)
    im = Tensor._result(np.ascontiguousarray(spec.imag), (x,), bw_im)
    return ComplexTensor(re, im)


def ifft_real(z: ComplexTensor, n: int) -> Tensor:
    """Inverse of fft_real: real signal of length n, 1/n normalized."""
    re, im = z.re, z.im
    data = np.fft.irfft(re.data + 1j * im.data, n=n, axis=-1)
    scale = _bin_weights(n) / n
    _count(_fft_macs(n, data.size // n))

    def bw(g):
        spec = np.fft.rfft(g, axis=-1)
        if re.requires_grad:
            re._accum(spec.real * scale)
        if im.requires_grad:
            im._accum(spec.imag * scale)

    return Tensor._result(data, (re, im), bw)


def complex_abs(z: ComplexTensor) -> Tensor:
    re, im = z.re, z.im
    data = np.hypot(re.data, im.data)
    _count(2 * data.size)

    def bw(g):
        safe = np.where(data > 0.0, data, 1.0)
        if re.requires_grad:
            re._accum(np.where(data > 0.0, g * re.data / safe, 0.0))
        if im.requires_grad:
            im._accum(np.where(data > 0.0, g * im.data / safe, 0.0))

    return Tensor._result(data, (re, im), bw)


# --- selection ---------------------------------------------------------------


def gather_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Take entries along the last axis; idx must be unique per row."""
    x = _wrap(x)
    data = np.take_along_axis(x.data, idx, axis=-1)

    def bw(g):
        full = np.zeros(x.data.shape)
        np.put_along_axis(full, idx, g, axis=-1)
        x._accum(full)

    return Tensor._result(data, (x,), bw)


def scatter_last(x: Tensor, idx: np.ndarray, size: int) -> Tensor:
    """Place entries of x at idx along a new last axis of width `size`.

    Inverse layout of gather_last: unselected positions are zero.
    idx must be unique per row.
    """
    x = _wrap(x)
    data = np.zeros(x.data.shape[:-1] + (size,))
    np.put_along_axis(data, idx, x.data, axis=-1)

    def bw(g):
        x._accum(np.take_along_axis(g, idx, axis=-1))

    return Tensor._result(data, (x,), bw)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of x per batch: x (B, C, D), idx (B, Q, K) -> (B, Q, K, D).

    Rows may repeat across queries; the backward pass accumulates.
    """
    x = _wrap(x)
    if x.data.ndim != 3 or idx.ndim != 3:
        raise ValueError("gather_rows expects x (B, C, D) and idx (B, Q, K)")
    b_ix = np.arange(x.data.shape[0])[:, None, None]
    data = x.data[b_ix, idx, :]
    _count(data.size)

    def bw(g):
        # flat offset of every gathered element; bincount sums in C order,
        # so repeated rows accumulate exactly as a sequential scatter-add
        c, d = x.data.shape[1:]
        flat = ((b_ix * c + idx)[..., None] * d + np.arange(d)).ravel()
        full = np.bincount(flat, weights=g.ravel(), minlength=x.data.size)
        x._accum(full.reshape(x.data.shape))

    return Tensor._result(np.ascontiguousarray(data), (x,), bw)


# --- depthwise causal convolution ---------------------------------------------


def depthwise_causal_conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-feature causal convolution along the time axis.

    x has shape (..., T, D), kernel (taps, D): one filter per feature
    column, output at t sees inputs t, t-1, ..., t-taps+1 only.
    """
    x, kernel = _wrap(x), _wrap(kernel)
    lead = x.data.shape[:-2]
    t, d = x.data.shape[-2], x.data.shape[-1]
    rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
    x3 = np.ascontiguousarray(x.data.reshape(rows, t, d))
    k2 = np.ascontiguousarray(kernel.data)
    data = backends.depthwise_causal_fwd(x3, k2).reshape(x.data.shape)
    _count(data.size * k2.shape[0])

    def bw(g):
        g3 = np.ascontiguousarray(g.reshape(rows, t, d))
        gx, gk = backends.depthwise_causal_bwd(x3, k2, g3)
        if x.requires_grad:
            x._accum(gx.reshape(x.data.shape))
        if kernel.requires_grad:
            kernel._accum(gk)

    return Tensor._result(data, (x, kernel), bw)


# --- helpers -----------------------------------------------------------------


def inv_softplus(y) -> np.ndarray:
    """Inverse of log(1 + exp(x)); y must be positive."""
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def backward(loss: Tensor) -> dict:
    """Run reverse mode from a scalar; return {tensor: gradient array}.

    Gradients are also left on each tensor's .grad field. The returned
    map covers every tensor in the graph marked requires_grad.
    """
    for node in _walk(loss):
        if node.requires_grad:
            node.grad = None
    loss.backward()
    return {n: n.grad for n in _walk(loss) if n.requires_grad and n.grad is not None}


def _walk(root: Tensor):
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node._prev)
