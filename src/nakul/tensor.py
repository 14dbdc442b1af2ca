"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a Tensor wraps a numpy array, and a
recorded result points to the grad node whose closure routes upstream
gradients to its parents' nodes. Calling ``backward`` on a scalar walks
the recorded graph once in reverse topological order. Everything is
float64 and row-major; there is no device abstraction and no dtype
promotion to think about.

Conventions fixed here and relied on throughout the package:

- layer_norm normalizes the last axis with eps = 1e-5.
- softmax acts on the last axis.
- gelu is the exact erf form, not the tanh approximation; erf is Cephes'
  rational approximation (ndtr.c), evaluated in numpy.
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

The graph holds only what backward reads; the caller holds the values
(the saved-tensor split of Paszke et al., "Automatic differentiation in
PyTorch", 2017). A Tensor holds ``data`` and ``node``, its grad node, or
None when no gradient flows through it: a leaf built with
``requires_grad=True`` gets a node of its own, and a result gets one only
in grad mode and when some parent has one. A node holds ``grad``,
``_prev`` (its parents' nodes) and the ``_backward`` closure. A closure
captures its parents' nodes, shapes and the arrays its backward reads,
never a Tensor, so once model code drops a result Tensor its value is
freed, without the cycle collector, unless a backward reads it.

``backward`` frees as it goes: once an interior node (one with parents)
has routed its gradient, its ``grad`` and ``_backward`` closure are set
to None, so interior gradients and closure-held arrays do not outlive
their use. Leaves keep their gradients, and every node keeps ``_prev``,
so the graph can still be walked afterwards, though it holds no forward
value by then. A second ``backward`` through a consumed node (``_prev``
set, ``_backward`` None) raises RuntimeError.

matmul with a 2-D right operand (every weight) runs as one GEMM over the
flattened leading rows of the left operand, forward and backward; only
N-D @ N-D products use numpy's batched matmul. Gradient accumulation
never adds in place: a node's first gradient is stored as given, often
the very array a sibling or the upstream node holds.

Inside ``with no_grad():`` results get no node, so each intermediate is
freed as soon as its last reader returns. The forward arithmetic is the
same in both modes, and leaves (Tensors built with
``requires_grad=True``) are untouched. Calling ``backward`` on a result
without a node raises.

Construction from external data rejects NaN/Inf. Results of internal
ops skip that check; modules that can produce non-finite values guard
their own outputs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

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


class _Node:
    """One vertex of the autograd graph: what backward reads, never a value."""

    __slots__ = ("grad", "_prev", "_backward")

    def __init__(self, prev: tuple = (), backward_fn=None):
        self.grad = None
        self._prev = prev
        self._backward = backward_fn

    def _accum(self, g: np.ndarray) -> None:
        # g may be a sibling's or the upstream node's gradient (add, reshape
        # and transpose pass it through), so it is stored, never added into.
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g


class Tensor:
    """A float64 array and, only when a gradient flows through it, its grad node."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.node = _Node() if requires_grad else None

    @classmethod
    def _result(cls, data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        tracked = tuple(p.node for p in parents if p.node is not None) if _GRAD["enabled"] else ()
        out.node = _Node(tracked, backward_fn) if tracked else None
        return out

    @property
    def grad(self) -> np.ndarray | None:
        node = self.node
        return None if node is None else node.grad

    @grad.setter
    def grad(self, g) -> None:
        if self.node is not None:
            self.node.grad = g
        elif g is not None:
            raise AttributeError("a tensor that takes no gradient holds none")

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def _prev(self) -> tuple:
        """The nodes this Tensor's gradient flows to; () if it has no parents."""
        node = self.node
        return () if node is None else node._prev

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

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward requires a scalar")
        root = self.node
        if root is None:
            raise RuntimeError(
                "backward on a tensor that records no graph: it was computed under "
                "te.no_grad() or from leaves without requires_grad")
        order: list[_Node] = []
        seen: set[int] = set()
        stack = [(root, False)]
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
        root.grad = np.ones(self.data.shape)
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
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(g, sa))
        if nb is not None:
            nb._accum(_unbroadcast(g, sb))

    return Tensor._result(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data
    _count(data.size)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    xa = a.data if nb is not None else None  # each parent's gradient reads the other
    xb = b.data if na is not None else None

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(g * xb, sa))
        if nb is not None:
            nb._accum(_unbroadcast(g * xa, sb))

    return Tensor._result(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data / b.data
    _count(data.size)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    xb = b.data
    out = data if nb is not None else None

    def bw(g):
        if na is not None:
            na._accum(_unbroadcast(g / xb, sa))
        if nb is not None:
            nb._accum(_unbroadcast(-g * out / xb, sb))

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
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def bw(g):
        if na is not None:
            ga = np.matmul(g, xb.swapaxes(-1, -2))
            na._accum(_unbroadcast(ga, sa))
        if nb is not None:
            gb = np.matmul(xa.swapaxes(-1, -2), g)
            nb._accum(_unbroadcast(gb, sb))

    return Tensor._result(data, (a, b), bw)


def _matmul_2d(a: Tensor, b: Tensor) -> Tensor:
    """a (..., k) @ b (k, n) as one GEMM over the flattened leading rows."""
    rows, k = a.data.shape[:-1], a.data.shape[-1]
    n = b.data.shape[1]
    data = (a.data.reshape(-1, k) @ b.data).reshape(rows + (n,))
    _count(int(np.prod(rows, dtype=np.int64)) * k * n)
    na, nb, sa = a.node, b.node, a.shape
    xa = a.data if nb is not None else None
    xb = b.data if na is not None else None

    def bw(g):
        g2 = g.reshape(-1, n)
        if na is not None:
            na._accum((g2 @ xb.T).reshape(sa))
        if nb is not None:
            # redone rather than kept: for a non-contiguous a it is a copy
            nb._accum(xa.reshape(-1, k).T @ g2)

    return Tensor._result(data, (a, b), bw)


# --- shape primitives --------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    x = _wrap(x)
    data = x.data.reshape(shape)
    node, sx = x.node, x.shape

    def bw(g):
        node._accum(g.reshape(sx))

    return Tensor._result(data, (x,), bw)


def transpose(x: Tensor, axes) -> Tensor:
    x = _wrap(x)
    axes = tuple(axes)
    data = x.data.transpose(axes)
    inv = tuple(np.argsort([a % x.ndim for a in axes]))  # numpy has checked -ndim <= a < ndim
    node = x.node

    def bw(g):
        node._accum(g.transpose(inv))

    return Tensor._result(data, (x,), bw)


def getitem(x: Tensor, key) -> Tensor:
    x = _wrap(x)
    data = np.asarray(x.data[key])
    if data.ndim:
        data = np.ascontiguousarray(data)  # ascontiguousarray would promote 0-d to (1,)
    node, sx = x.node, x.shape

    def bw(g):
        full = np.zeros(sx)
        np.add.at(full, key, g)  # unbuffered: a repeated index adds each of its gradients
        node._accum(full)

    return Tensor._result(data, (x,), bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = [t.node for t in tensors]

    def bw(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                node._accum(g[tuple(idx)])

    return Tensor._result(data, tuple(tensors), bw)


def stack(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    nodes = [(t.node, t.shape) for t in tensors]

    def bw(g):
        parts = np.moveaxis(g, axis, 0)
        for (node, shape), part in zip(nodes, parts):
            if node is not None:
                node._accum(part.reshape(shape))

    return Tensor._result(data, tuple(tensors), bw)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)
    _count(x.data.size)
    node, sx = x.node, x.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        node._accum(np.broadcast_to(g, sx).copy())

    return Tensor._result(np.asarray(data), (x,), bw)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    data = x.data.mean(axis=axis, keepdims=keepdims)
    denom = x.data.size / max(data.size, 1)
    _count(x.data.size)
    node, sx = x.node, x.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        node._accum(np.broadcast_to(g, sx) / denom)

    return Tensor._result(np.asarray(data), (x,), bw)


# --- special functions ---------------------------------------------------------

# Cephes' erf (S. L. Moshier, Cephes Math Library, ndtr.c): x T(x^2) / U(x^2)
# for |x| <= 1 and sign(x) (1 - exp(-x^2) P(|x|) / Q(|x|)) beyond, with U and
# Q monic (their leading 1 is not stored). Cephes switches to a third pair of
# polynomials at |x| = 8; erf is exactly +-1.0 in float64 from |x| = 5.922 on,
# so |x| is clamped at 8 instead.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# Elements per pass of _erf, and of the no-grad ffn's GELU: the temporaries of
# one pass stay in cache.
_ERF_CHUNK = 1 << 14


def _polevl(z: np.ndarray, coefs) -> np.ndarray:
    """coefs[0] z^n + ... + coefs[n] by Horner's rule, in Cephes' polevl order."""
    s = z * coefs[0]
    s += coefs[1]
    for c in coefs[2:]:
        s *= z
        s += c
    return s


def _p1evl(z: np.ndarray, coefs) -> np.ndarray:
    """z^n + coefs[0] z^(n-1) + ... + coefs[n-1], in Cephes' p1evl order."""
    s = z + coefs[0]
    for c in coefs[1:]:
        s *= z
        s += c
    return s


def _erf_chunk(x: np.ndarray, out: np.ndarray) -> None:
    """out = erf(x) for 1-D x and out of one length; out may be x."""
    a = np.clip(x, -1.0, 1.0)
    big = (a != x).nonzero()[0]  # |x| > 1, and NaN: the second branch overwrites these
    xb = x[big]  # gathered before out is written
    z = a * a
    np.multiply(a, _polevl(z, _ERF_T), out=out)
    out /= _p1evl(z, _ERF_U)
    if big.size:
        m = np.abs(xb)
        np.minimum(m, 8.0, out=m)
        p = _polevl(m, _ERF_P)
        q = _p1evl(m, _ERF_Q)
        m *= -m
        np.exp(m, out=m)
        m *= p
        m /= q  # erfc(|x|)
        np.subtract(1.0, m, out=m)
        out[big] = np.copysign(m, xb)


def _erf(x, out: np.ndarray | None = None) -> np.ndarray:
    """The error function elementwise, by Cephes' rational approximations.

    Runs in chunks of _ERF_CHUNK elements; out, if given, has x's shape
    and may be x itself. Finite inputs raise no floating-point error;
    erf(+-inf) = +-1, NaN stays NaN and -0.0 stays -0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    flat_x = x.reshape(-1)  # a copy when x is not contiguous
    flat_out = out.reshape(-1) if out.flags.c_contiguous else np.empty(out.size)
    with np.errstate(under="ignore"):  # a * a for |x| < 1.5e-154; erf(x) for subnormal x
        for lo in range(0, flat_x.size, _ERF_CHUNK):
            _erf_chunk(flat_x[lo : lo + _ERF_CHUNK], flat_out[lo : lo + _ERF_CHUNK])
    if not out.flags.c_contiguous:
        out[...] = flat_out.reshape(out.shape)
    return out


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)) elementwise, as a new array.

    With e = exp(-|x|) <= 1 it is 1 / (1 + e) for x >= 0 and e / (1 + e)
    for x < 0, so nothing overflows; expit(0) is exactly 0.5.
    """
    flat = np.ravel(x)
    e = np.abs(flat)
    np.negative(e, out=e)
    with np.errstate(under="ignore"):  # exp(-|x|) for |x| > 708
        np.exp(e, out=e)
        num = np.sign(flat)
        np.maximum(num, e, out=num)  # 1 where x >= 0, as e <= 1 there; e where x < 0
        e += 1.0
        num /= e
    return num.reshape(np.shape(x))


# --- pointwise primitives -----------------------------------------------------


def exp(x) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)
    _count(data.size)
    node = x.node

    def bw(g):
        node._accum(g * data)

    return Tensor._result(data, (x,), bw)


def log(x) -> Tensor:
    x = _wrap(x)
    data = np.log(x.data)
    _count(data.size)
    node, xd = x.node, x.data

    def bw(g):
        node._accum(g / xd)

    return Tensor._result(data, (x,), bw)


def sqrt(x) -> Tensor:
    x = _wrap(x)
    data = np.sqrt(x.data)
    _count(data.size)
    node = x.node

    def bw(g):
        safe = np.where(data > 0.0, data, 1.0)
        node._accum(np.where(data > 0.0, g * 0.5 / safe, 0.0))

    return Tensor._result(data, (x,), bw)


def xlogx(x) -> Tensor:
    """x * log(x) with the 0 log 0 = 0 convention (entropy terms)."""
    x = _wrap(x)
    pos = x.data > 0.0
    safe = np.where(pos, x.data, 1.0)
    data = np.where(pos, x.data * np.log(safe), 0.0)
    _count(data.size)
    node = x.node

    def bw(g):
        node._accum(np.where(pos, g * (np.log(safe) + 1.0), 0.0))

    return Tensor._result(data, (x,), bw)


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    data = _expit(x.data)
    _count(data.size)
    node = x.node

    def bw(g):
        node._accum(g * data * (1.0 - data))

    return Tensor._result(data, (x,), bw)


def softplus(x) -> Tensor:
    x = _wrap(x)
    data = np.logaddexp(0.0, x.data)
    _count(data.size)
    node, xd = x.node, x.data

    def bw(g):
        node._accum(g * _expit(xd))

    return Tensor._result(data, (x,), bw)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), the gate of the exact GELU x * Phi(x).

    One new array; erf, the shift and the halving run in place on it.
    """
    cdf = np.asarray(x * _INV_SQRT2)  # asarray: a 0-d x gives a scalar, which out= refuses
    _erf(cdf, out=cdf)
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
    node, xd = x.node, x.data

    def bw(g):
        node._accum(g * _gelu_slope(xd, cdf))

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
    pre-activation one chunk at a time, so one (..., H) array is alive.
    """
    x, w1, b1, w2, b2 = _wrap(x), _wrap(w1), _wrap(b1), _wrap(w2), _wrap(b2)
    lead, k = x.data.shape[:-1], x.data.shape[-1]
    h, n = w2.data.shape
    rows = int(np.prod(lead, dtype=np.int64))
    parents = (x, w1, b1, w2, b2)
    records = _GRAD["enabled"] and any(p.node is not None for p in parents)

    pre = (x.data.reshape(-1, k) @ w1.data).reshape(lead + (h,))
    pre += b1.data
    if records:
        cdf = _gelu_cdf(pre)
        hidden = pre * cdf
    else:  # nothing reads the pre-activation again: the hidden layer overwrites it
        hidden = pre
        flat = hidden.reshape(-1)  # a chunk at a time, so no second (..., H) array is made
        for lo in range(0, flat.size, _ERF_CHUNK):
            part = flat[lo : lo + _ERF_CHUNK]
            part *= _gelu_cdf(part)
    if mask is not None:
        _drop(hidden, mask, rate)
    data = (hidden.reshape(-1, h) @ w2.data).reshape(lead + (n,))
    data += b2.data
    _count(rows * (k * h + (4 if mask is not None else 3) * h + h * n + n))
    nx, nw1, nb1, nw2, nb2 = (p.node for p in parents)
    sx, sb1, sb2 = x.shape, b1.shape, b2.shape
    xd = x.data if nw1 is not None else None
    w1d = w1.data if nx is not None else None
    w2d = w2.data

    def bw(g):
        g2 = g.reshape(-1, n)
        if nb2 is not None:
            nb2._accum(_unbroadcast(g, sb2))
        if nw2 is not None:
            hid = pre * cdf
            if mask is not None:
                _drop(hid, mask, rate)
            nw2._accum(hid.reshape(-1, h).T @ g2)
            del hid
        if nx is None and nw1 is None and nb1 is None:
            return
        gpre = (g2 @ w2d.T).reshape(pre.shape)
        if mask is not None:
            _drop(gpre, mask, rate)
        gpre *= _gelu_slope(pre, cdf)
        if nb1 is not None:
            nb1._accum(_unbroadcast(gpre, sb1))
        gpre2 = gpre.reshape(-1, h)
        if nw1 is not None:
            nw1._accum(xd.reshape(-1, k).T @ gpre2)
        if nx is not None:
            nx._accum((gpre2 @ w1d.T).reshape(sx))

    return Tensor._result(data, parents, bw)


def softmax(x) -> Tensor:
    """Softmax over the last axis. An entry of -inf comes out exactly 0 and
    passes back exactly 0 gradient; every row needs at least one finite entry.
    """
    x = _wrap(x)
    # initial= changes no value but halves numpy's max over a last axis of 8
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True, initial=-np.inf))
    data = e / e.sum(axis=-1, keepdims=True)
    _count(3 * data.size)
    node = x.node

    def bw(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        node._accum(data * (g - inner))

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
    nx, ngain, nbias = x.node, gain.node, bias.node
    sgain, sbias, gd = gain.shape, bias.shape, gain.data

    def bw(g):
        if nbias is not None:
            nbias._accum(_unbroadcast(g, sbias))
        if ngain is not None:
            ngain._accum(_unbroadcast(g * xhat, sgain))
        if nx is not None:
            gyh = g * gd
            m1 = gyh.mean(axis=-1, keepdims=True)
            m2 = (gyh * xhat).mean(axis=-1, keepdims=True)
            nx._accum(inv * (gyh - m1 - xhat * m2))

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
    node = x.node

    def bw(g):
        c = _complex(g)
        c *= scale
        node._accum(np.fft.irfft(c, n=t, axis=-2))

    return Tensor._result(np.stack((spec.real, spec.imag), axis=-2), (x,), bw)


def ifft_real(z, n: int) -> Tensor:
    """Inverse of fft_real: (..., F, 2, D) to a real (..., n, D), 1/n normalized."""
    z = _wrap(z)
    data = np.fft.irfft(_complex(z.data), n=n, axis=-2)
    scale = (_bin_weights(n) / n)[:, None]
    _count(_fft_macs(n, data.size // n))
    node = z.node

    def bw(g):
        spec = np.fft.rfft(g, axis=-2)
        spec *= scale
        node._accum(np.stack((spec.real, spec.imag), axis=-2))

    return Tensor._result(data, (z,), bw)


def complex_abs(z) -> Tensor:
    """|z| of a (..., F, 2, D) spectrum, shape (..., F, D)."""
    z = _wrap(z)
    data = np.hypot(z.data[..., 0, :], z.data[..., 1, :])
    _count(2 * data.size)
    node, zd = z.node, z.data

    def bw(g):
        live = data[..., None, :] > 0.0
        safe = np.where(live, data[..., None, :], 1.0)
        node._accum(np.where(live, g[..., None, :] * zd / safe, 0.0))

    return Tensor._result(data, (z,), bw)


def band_mix(spec, weight, w, spans) -> Tensor:
    """Weighted complex band mixing of a (..., F, 2, D) spectrum, each band on its own bins.

    Returns the (..., F, 2, D) spectrum
    sum_k weight[..., f, k] (W_r,k + i W_i,k) spec[..., f], where band k
    takes part only at the bins f of its span [lo_k, hi_k) and adds
    exactly 0 elsewhere. weight is (..., F, K); w is (K, D, 2D), w[k] =
    [W_r,k | W_i,k], and multiplies from the right, as a weight matrix
    does; spans holds one (lo, hi) pair per band, and lo == hi leaves the
    band out. Spans may overlap, and a span covering every bin is the
    dense sum.

    Each band is one GEMM of its scaled real and imaginary rows against
    w[k], counted as 4 * rows * (hi_k - lo_k) * D^2 MACs. The backward
    redoes each band's scaled rows, so nothing of size (..., F, 2, K*D)
    is built or kept.
    """
    spec, weight, w = _wrap(spec), _wrap(weight), _wrap(w)
    sd, wd, wm = spec.data, weight.data, w.data
    d = sd.shape[-1]
    lead = np.broadcast_shapes(sd.shape[:-3], wd.shape[:-2])
    live = [(k, lo, hi) for k, (lo, hi) in enumerate(spans) if hi > lo]

    def scaled(k, lo, hi):
        """Band k's rows weight[..., f, k] * spec[..., f] for f in [lo, hi)."""
        return sd[..., lo:hi, :, :] * wd[..., lo:hi, k, None, None]

    data = np.zeros(lead + sd.shape[-3:])
    for k, lo, hi in live:
        s = scaled(k, lo, hi)
        t = (s.reshape(-1, d) @ wm[k]).reshape(s.shape[:-1] + (2 * d,))
        out = data[..., lo:hi, :, :]
        out[..., 0, :] += t[..., 0, :d] - t[..., 1, d:]  # re: a W_r - b W_i
        out[..., 1, :] += t[..., 1, :d] + t[..., 0, d:]  # im: b W_r + a W_i
    rows = int(np.prod(lead, dtype=np.int64))
    _count(sum(4 * rows * (hi - lo) * d * d for _, lo, hi in live))
    nspec, nweight, nw = spec.node, weight.node, w.node

    def bw(g):
        gspec = np.zeros(g.shape) if nspec is not None else None
        gweight = np.zeros(lead + wd.shape[-2:]) if nweight is not None else None
        gw = np.zeros(wm.shape) if nw is not None else None  # [gW_r,k | gW_i,k]
        for k, lo, hi in live:
            gk = g[..., lo:hi, :, :]
            # gradient at [a W | b W] (rows a, b): (g_re, g_im) for a, (g_im, -g_re) for b
            gt = np.empty(gk.shape[:-1] + (2 * d,))
            gt[..., 0, :d], gt[..., 0, d:] = gk[..., 0, :], gk[..., 1, :]
            gt[..., 1, :d], gt[..., 1, d:] = gk[..., 1, :], -gk[..., 0, :]
            gt2 = gt.reshape(-1, 2 * d)
            if gw is not None:
                gw[k] = scaled(k, lo, hi).reshape(-1, d).T @ gt2
            gs = (gt2 @ wm[k].T).reshape(gk.shape)  # gradient at band k's scaled rows
            if gspec is not None:
                gspec[..., lo:hi, :, :] += gs * wd[..., lo:hi, k, None, None]
            if gweight is not None:
                gweight[..., lo:hi, k] = (gs * sd[..., lo:hi, :, :]).sum(axis=(-2, -1))
        if gspec is not None:
            nspec._accum(_unbroadcast(gspec, sd.shape))
        if gweight is not None:
            nweight._accum(_unbroadcast(gweight, wd.shape))
        if gw is not None:
            nw._accum(gw)

    return Tensor._result(data, (spec, weight, w), bw)


# --- depthwise causal convolution ---------------------------------------------


def depthwise_causal_conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Per-feature causal convolution along the time axis, one kernel per row.

    x has shape (..., T, D) and kernel (..., taps, D) with the same
    leading dims, which may be none. Each feature column has its own
    filter; output at t sees inputs t, t-1, ..., t-taps+1 only. Taps are
    in lag order: tap j multiplies x[t-j]. Taps past T see only the zero
    padding and get zero gradient.
    """
    x, kernel = _wrap(x), _wrap(kernel)
    lead = x.data.shape[:-2]
    if kernel.data.shape[:-2] != lead:
        raise ValueError(
            f"kernel {kernel.data.shape} needs the input's leading dims {lead}: one kernel per row")
    if kernel.data.shape[-1] != x.data.shape[-1]:  # einsum would broadcast a width of 1
        raise ValueError(
            f"kernel {kernel.data.shape} needs the feature width of input {x.data.shape}")
    data = backends.depthwise_causal_fwd(x.data, kernel.data)
    _count(data.size * kernel.data.shape[-2])
    nx, nk, xd, kd = x.node, kernel.node, x.data, kernel.data

    def bw(g):
        gx, gk = backends.depthwise_causal_bwd(xd, kd, g)
        if nx is not None:
            nx._accum(gx)
        if nk is not None:
            nk._accum(gk)

    return Tensor._result(data, (x, kernel), bw)


# --- helpers -----------------------------------------------------------------


def inv_softplus(y) -> np.ndarray:
    """Inverse of log(1 + exp(x)); y must be positive."""
    y = np.asarray(y, dtype=np.float64)
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))
