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
- Sequences are (..., T, D), time on axis -2 for both sequence ops:
  fft_real is the unnormalized one-sided real FFT, (..., T, D) to
  (..., T//2 + 1, 2, D), and ifft_real carries 1/T and inverts it exactly;
  depthwise_causal_conv takes one kernel per row, (..., taps, D).
- A one-sided spectrum is one real Tensor (..., F, 2, D): index 0 on
  axis -2 holds the real parts, index 1 the imaginary parts.

Two primitives are fused: one node each, with their own backward and
MAC count. band_mix applies per-band complex mixing matrices to a
spectrum, each band only on its own span of bins. ffn is the
position-wise feed-forward (gelu(x @ w1 + b1) * keep) @ w2 + b2 with an
optional boolean dropout mask; it keeps only the pre-activation, its
GELU CDF and the mask, and its values, gradients and MAC count are
bitwise those of the six-node chain it replaces. gelu and ffn share one
implementation of the GELU and of its derivative.

``backward`` frees as it goes: once an interior node (one with parents)
has routed its gradient, its ``grad`` and ``_backward`` closure are set
to None, so interior gradients and closure-held arrays do not outlive
their use. Leaves keep their gradients, and every node keeps ``_prev``,
so the graph can still be walked afterwards. A second ``backward``
through a consumed node (``_prev`` set, ``_backward`` None) raises
RuntimeError.

matmul with a 2-D right operand (every weight) runs as one GEMM over the
flattened leading rows of the left operand, forward and backward; only
N-D @ N-D products use numpy's batched matmul. Gradient accumulation
never adds in place: a node's first gradient is stored as given, often
the very array a sibling or the upstream node holds.

Inside ``with no_grad():`` results record no parents: ``_prev`` is
empty, ``_backward`` is None and ``requires_grad`` is False, so each
intermediate is freed as soon as its last reader returns. The forward
arithmetic is the same in both modes, and leaves (Tensors built with
``requires_grad=True``) are untouched. Calling ``backward`` on such a
graph-less result raises.

Construction from external data rejects NaN/Inf. Results of internal
ops skip that check; modules that can produce non-finite values guard
their own outputs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf, expit

from . import backends

__all__ = [
    "Tensor",
    "mac_counter",
    "no_grad",
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
    "ffn",
    "softmax",
    "layer_norm",
    "fft_real",
    "ifft_real",
    "complex_abs",
    "band_mix",
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
    counts m*k*n; the FFT pair counts 1.25 * T * log2(T) per transform;
    band_mix counts its per-band GEMMs; ffn counts what its six-node
    chain would.
    Yields a dict whose "total" entry holds the running count.
    """
    _MACS["active"] = True
    _MACS["total"] = 0
    try:
        yield _MACS
    finally:
        _MACS["active"] = False


# --- inference mode ----------------------------------------------------------

_GRAD = {"enabled": True}


@contextmanager
def no_grad():
    """Record no autograd graph for results computed inside the block.

    Nests, and restores the previous mode on exit, also when the block
    raises.
    """
    previous = _GRAD["enabled"]
    _GRAD["enabled"] = False
    try:
        yield
    finally:
        _GRAD["enabled"] = previous


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
        tracked = tuple(p for p in parents if p.requires_grad) if _GRAD["enabled"] else ()
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
        return float(self.data.item())

    def _accum(self, g: np.ndarray) -> None:
        # g may be a sibling's or the upstream node's gradient (add, reshape
        # and transpose pass it through), so it is stored, never added into.
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar")
        if not self.requires_grad:
            raise RuntimeError(
                "backward on a tensor that records no graph: it was computed under "
                "te.no_grad() or from leaves without requires_grad")
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
            if node._prev and node._backward is None:
                raise RuntimeError(
                    "backward through a graph that was already consumed: each "
                    "backward frees the gradients and closures of the nodes it runs")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones(self.data.shape)
        for node in reversed(order):
            if node._prev:  # interior: route its gradient, then free it and the closure
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None

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

    def transpose(self, axes):
        return transpose(self, axes)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor._result(np.asarray(x, dtype=np.float64), (), None)


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


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), the gate of the exact GELU x * Phi(x).

    One new array; erf, the shift and the halving run in place on it.
    """
    cdf = np.asarray(x * _INV_SQRT2)  # asarray: a 0-d x gives a scalar, which out= refuses
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d(x * Phi(x))/dx = Phi(x) + x * phi(x), from x and its _gelu_cdf, as one new array."""
    slope = np.asarray(-0.5 * x)
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x
    slope += cdf
    return slope


def gelu(x) -> Tensor:
    x = _wrap(x)
    cdf = _gelu_cdf(x.data)
    data = x.data * cdf
    _count(2 * data.size)

    def bw(g):
        x._accum(g * _gelu_slope(x.data, cdf))

    return Tensor._result(data, (x,), bw)


def _drop(a: np.ndarray, mask: np.ndarray, rate: float) -> None:
    """a *= mask / (1 - rate) in place, without building that float array."""
    np.multiply(a, mask, out=a)
    a *= 1.0 / (1.0 - rate)


def ffn(x, w1, b1, w2, b2, mask: np.ndarray | None = None, rate: float = 0.0) -> Tensor:
    """(gelu(x @ w1 + b1) * keep) @ w2 + b2 as one node, keep = mask / (1 - rate).

    x is (..., D), w1 (D, H) and w2 (H, D_out); mask, boolean of shape
    (..., H), is inverted dropout on the hidden layer, and None (rate
    unused) applies none. The node keeps the pre-activation x @ w1 + b1,
    its GELU CDF and the mask; the backward rebuilds the hidden layer
    and the GELU derivative from them with the operations, in the
    order, of the matmul, add, gelu, mul, matmul, add chain it
    replaces, so every value and gradient is bitwise that chain's, and
    so is the MAC count. A result that records no graph (no_grad, or no
    input requiring grad) keeps nothing: the hidden layer overwrites the
    pre-activation, so at most two (..., H) arrays are alive at once.
    """
    x, w1, b1, w2, b2 = _wrap(x), _wrap(w1), _wrap(b1), _wrap(w2), _wrap(b2)
    lead, k = x.data.shape[:-1], x.data.shape[-1]
    h, n = w2.data.shape
    rows = int(np.prod(lead, dtype=np.int64))
    parents = (x, w1, b1, w2, b2)
    records = _GRAD["enabled"] and any(p.requires_grad for p in parents)

    pre = (x.data.reshape(-1, k) @ w1.data).reshape(lead + (h,))
    pre += b1.data
    if records:
        cdf = _gelu_cdf(pre)
        hidden = pre * cdf
    else:  # nothing reads the pre-activation again: the hidden layer overwrites it
        hidden = pre
        hidden *= _gelu_cdf(pre)
    if mask is not None:
        _drop(hidden, mask, rate)
    data = (hidden.reshape(-1, h) @ w2.data).reshape(lead + (n,))
    data += b2.data
    _count(rows * (k * h + (4 if mask is not None else 3) * h + h * n + n))

    def bw(g):
        g2 = g.reshape(-1, n)
        if b2.requires_grad:
            b2._accum(_unbroadcast(g, b2.data.shape))
        if w2.requires_grad:
            hid = pre * cdf
            if mask is not None:
                _drop(hid, mask, rate)
            w2._accum(hid.reshape(-1, h).T @ g2)
            del hid
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        gpre = (g2 @ w2.data.T).reshape(pre.shape)
        if mask is not None:
            _drop(gpre, mask, rate)
        gpre *= _gelu_slope(pre, cdf)
        if b1.requires_grad:
            b1._accum(_unbroadcast(gpre, b1.data.shape))
        gpre2 = gpre.reshape(-1, h)
        if w1.requires_grad:
            w1._accum(x.data.reshape(-1, k).T @ gpre2)
        if x.requires_grad:
            x._accum((gpre2 @ w1.data.T).reshape(x.data.shape))

    return Tensor._result(data, parents, bw)


def softmax(x, keep: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, optionally over a subset of each row.

    keep (boolean, broadcastable to x) marks the entries that take part;
    the others come out exactly 0 and pass back exactly 0 gradient. Every
    row must keep at least one entry.
    """
    x = _wrap(x)
    where = True if keep is None else keep
    top = x.data.max(axis=-1, keepdims=True, where=where, initial=-np.inf)
    e = np.exp(x.data - top, out=np.zeros(x.data.shape), where=where)
    data = e / e.sum(axis=-1, keepdims=True)
    _count(3 * data.size)

    def bw(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        x._accum(data * (g - inner))

    return Tensor._result(data, (x,), bw)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (eps 1e-5); affine after."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
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


def _complex(z: np.ndarray) -> np.ndarray:
    """The (..., F, D) complex array a (..., F, 2, D) spectrum holds."""
    c = np.empty(z.shape[:-2] + z.shape[-1:], dtype=np.complex128)
    c.real, c.imag = z[..., 0, :], z[..., 1, :]
    return c


def fft_real(x) -> Tensor:
    """One-sided unnormalized real FFT along time axis -2: (..., T, D) to (..., F, 2, D)."""
    x = _wrap(x)
    if x.data.ndim < 2:
        raise ValueError("fft_real requires a (..., T, D) input with ndim >= 2")
    spec = np.fft.rfft(x.data, axis=-2)
    t = x.data.shape[-2]
    scale = (t / _bin_weights(t))[:, None]
    _count(_fft_macs(t, x.data.size // t))

    def bw(g):
        c = _complex(g)
        c *= scale
        x._accum(np.fft.irfft(c, n=t, axis=-2))

    return Tensor._result(np.stack((spec.real, spec.imag), axis=-2), (x,), bw)


def ifft_real(z, n: int) -> Tensor:
    """Inverse of fft_real: (..., F, 2, D) to a real (..., n, D), 1/n normalized."""
    z = _wrap(z)
    data = np.fft.irfft(_complex(z.data), n=n, axis=-2)
    scale = (_bin_weights(n) / n)[:, None]
    _count(_fft_macs(n, data.size // n))

    def bw(g):
        spec = np.fft.rfft(g, axis=-2)
        spec *= scale
        z._accum(np.stack((spec.real, spec.imag), axis=-2))

    return Tensor._result(data, (z,), bw)


def complex_abs(z) -> Tensor:
    """|z| of a (..., F, 2, D) spectrum, shape (..., F, D)."""
    z = _wrap(z)
    data = np.hypot(z.data[..., 0, :], z.data[..., 1, :])
    _count(2 * data.size)

    def bw(g):
        live = data[..., None, :] > 0.0
        safe = np.where(live, data[..., None, :], 1.0)
        z._accum(np.where(live, g[..., None, :] * z.data / safe, 0.0))

    return Tensor._result(data, (z,), bw)


def band_mix(spec, weight, w_r, w_i, spans) -> Tensor:
    """Weighted complex band mixing of a (..., F, 2, D) spectrum, each band on its own bins.

    Returns the (..., F, 2, D) spectrum
    sum_k weight[..., f, k] (W_r,k + i W_i,k) spec[..., f], where band k
    takes part only at the bins f of its span [lo_k, hi_k) and adds
    exactly 0 elsewhere. weight is (..., F, K); w_r and w_i are
    (K, D, D) and multiply from the right, as a weight matrix does;
    spans holds one (lo, hi) pair per band, and lo == hi leaves the band
    out. Spans may overlap, and a span covering every bin is the dense
    sum.

    Each band is one GEMM of its scaled real and imaginary rows against
    [W_r,k | W_i,k], counted as 4 * rows * (hi_k - lo_k) * D^2 MACs. The
    backward redoes each band's scaled rows, so nothing of size
    (..., F, 2, K*D) is built or kept.
    """
    spec, weight, w_r, w_i = _wrap(spec), _wrap(weight), _wrap(w_r), _wrap(w_i)
    d = spec.data.shape[-1]
    lead = np.broadcast_shapes(spec.data.shape[:-3], weight.data.shape[:-2])
    live = [(k, lo, hi) for k, (lo, hi) in enumerate(spans) if hi > lo]

    def mixing(k):
        """[W_r,k | W_i,k], (D, 2D)."""
        return np.concatenate((w_r.data[k], w_i.data[k]), axis=1)

    def scaled(k, lo, hi):
        """Band k's rows weight[..., f, k] * spec[..., f] for f in [lo, hi)."""
        return spec.data[..., lo:hi, :, :] * weight.data[..., lo:hi, k, None, None]

    data = np.zeros(lead + spec.data.shape[-3:])
    for k, lo, hi in live:
        s = scaled(k, lo, hi)
        t = (s.reshape(-1, d) @ mixing(k)).reshape(s.shape[:-1] + (2 * d,))
        out = data[..., lo:hi, :, :]
        out[..., 0, :] += t[..., 0, :d] - t[..., 1, d:]  # re: a W_r - b W_i
        out[..., 1, :] += t[..., 1, :d] + t[..., 0, d:]  # im: b W_r + a W_i
    rows = int(np.prod(lead, dtype=np.int64))
    _count(sum(4 * rows * (hi - lo) * d * d for _, lo, hi in live))

    def bw(g):
        gspec = np.zeros(data.shape) if spec.requires_grad else None
        gweight = np.zeros(lead + weight.data.shape[-2:]) if weight.requires_grad else None
        wants_w = w_r.requires_grad or w_i.requires_grad
        gw = np.zeros(w_r.data.shape[:-1] + (2 * d,)) if wants_w else None  # [gW_r,k | gW_i,k]
        for k, lo, hi in live:
            gk = g[..., lo:hi, :, :]
            # gradient at [a W | b W] (rows a, b): (g_re, g_im) for a, (g_im, -g_re) for b
            gt = np.empty(gk.shape[:-1] + (2 * d,))
            gt[..., 0, :d], gt[..., 0, d:] = gk[..., 0, :], gk[..., 1, :]
            gt[..., 1, :d], gt[..., 1, d:] = gk[..., 1, :], -gk[..., 0, :]
            gt2 = gt.reshape(-1, 2 * d)
            if gw is not None:
                gw[k] = scaled(k, lo, hi).reshape(-1, d).T @ gt2
            gs = (gt2 @ mixing(k).T).reshape(gk.shape)  # gradient at band k's scaled rows
            if gspec is not None:
                gspec[..., lo:hi, :, :] += gs * weight.data[..., lo:hi, k, None, None]
            if gweight is not None:
                gweight[..., lo:hi, k] = (gs * spec.data[..., lo:hi, :, :]).sum(axis=(-2, -1))
        if gspec is not None:
            spec._accum(_unbroadcast(gspec, spec.data.shape))
        if gweight is not None:
            weight._accum(_unbroadcast(gweight, weight.data.shape))
        if w_r.requires_grad:
            w_r._accum(np.ascontiguousarray(gw[..., :d]))
        if w_i.requires_grad:
            w_i._accum(np.ascontiguousarray(gw[..., d:]))

    return Tensor._result(data, (spec, weight, w_r, w_i), bw)


# --- depthwise causal convolution ---------------------------------------------


def depthwise_causal_conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-feature causal convolution along the time axis, one kernel per row.

    x has shape (..., T, D) and kernel (..., taps, D) with the same
    leading dims. Each feature column has its own filter; output at t
    sees inputs t, t-1, ..., t-taps+1 only. Taps are in lag order: tap j
    multiplies x[t-j].
    """
    x, kernel = _wrap(x), _wrap(kernel)
    lead = x.data.shape[:-2]
    t, d = x.data.shape[-2], x.data.shape[-1]
    taps = kernel.data.shape[-2]
    if kernel.data.shape[:-2] != lead:
        raise ValueError(
            f"kernel {kernel.data.shape} needs the input's leading dims {lead}: one kernel per row")
    rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
    x3 = np.ascontiguousarray(x.data.reshape(rows, t, d))
    k3 = np.ascontiguousarray(kernel.data.reshape(rows, taps, d))
    data = backends.depthwise_causal_fwd(x3, k3).reshape(x.data.shape)
    _count(data.size * taps)

    def bw(g):
        g3 = np.ascontiguousarray(g.reshape(rows, t, d))
        gx, gk = backends.depthwise_causal_bwd(x3, k3, g3)
        if x.requires_grad:
            x._accum(gx.reshape(x.data.shape))
        if kernel.requires_grad:
            kernel._accum(gk.reshape(kernel.data.shape))

    return Tensor._result(data, (x, kernel), bw)


# --- helpers -----------------------------------------------------------------


def inv_softplus(y) -> np.ndarray:
    """Inverse of log(1 + exp(x)); y must be positive."""
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))
