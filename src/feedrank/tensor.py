"""Dense tensor engine: numpy arrays with reverse-mode gradients.

Every forward op builds a node holding a backward closure; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients into each ``requires_grad`` leaf. Ops operate on the
last axis (or last two for matmul) so the same code serves 2-D math and
batched 3-D activations. Only the broadcasting the models need is supported:
row-wise bias add, scalar ops, leading extents of 1 in elementwise ops and
matmul, and an explicit ``broadcast_to``.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import erf, expit

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 erf(z) = z * P(z^2) / Q(z^2) on z clipped to [-4, 4] (outside it
# erf is +-1 in float32): the coefficients of Eigen's generic_fast_erf_float,
# highest power first
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))
# elements per block of the float32 CDF: its three scratch arrays and the
# output block stay in a 2 MB L2 cache
_CDF_BLOCK = 65536


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class ConfigError(ValueError):
    """A configuration value violates a structural requirement."""


class _GradMode(threading.local):
    # thread-local: evaluation workers toggle no_grad concurrently
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the block (evaluation mode)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled() -> bool:
    return _grad_mode.enabled


class Tensor:
    """Dense array with an optional gradient slot.

    ``data`` is a flat-strided row-major numpy array (float32 by default,
    float64 for gradient-check work). ``grad``, once populated, always has
    the same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode pass from a scalar root."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # interior grads are no longer needed; keep leaf grads only
        for node in reversed(order):
            if node._backward is not None:
                node.grad = None
                node._parents = ()
                node._backward = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, never ``g`` itself: ``add`` hands one ``g`` to both operands
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _feature_major(a: np.ndarray) -> np.ndarray:
    """The rows of ``a`` ([..., n]) as a contiguous feature-major [n, rows]
    copy. Rows here are short (4-32 features), and numpy runs one inner loop
    per row for a last-axis reduction or a [..., 1] broadcast; on the copy a
    row reduction is a reduction over axis 0 and a per-row broadcast runs
    along the leading axis, so every inner loop is as long as the row count.
    Always a copy, which callers may overwrite (with one row or one feature,
    the transposed view is already contiguous)."""
    return np.array(a.reshape(-1, a.shape[-1]).T, order="C")


def _row_major(t: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of ``_feature_major``: [n, rows] back to contiguous ``shape``."""
    return np.ascontiguousarray(t.T).reshape(shape)


def _exp_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(row - row max) of every row of ``a``, feature-major as [n, rows],
    and the row maxima [rows]."""
    e = _feature_major(a)
    m = e.max(axis=0)
    e -= m
    np.exp(e, out=e)
    return e, m


class Parameter:
    """Named trainable tensor."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Tensor):
        self.name = name
        value.requires_grad = True
        self.value = value

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.value.grad

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParameterRegistry:
    """Ordered registry of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, data, dtype=None) -> Parameter:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name!r}")
        arr = np.array(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        p = Parameter(name, Tensor(arr, requires_grad=True))
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def names(self) -> list[str]:
        return list(self._params.keys())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.value.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.value.data for name, p in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        unknown = [name for name in arrays if name not in self._params]
        if unknown:
            raise ConfigError(f"state names no parameter of this model: {', '.join(map(repr, unknown))}")
        for name, p in self._params.items():
            if name not in arrays:
                raise ConfigError(f"missing parameter in state: {name!r}")
            arr = arrays[name]
            if tuple(arr.shape) != p.value.shape:
                raise ShapeError(
                    f"parameter {name!r}: stored shape {tuple(arr.shape)} vs model shape {p.value.shape}"
                )
            p.value.data = arr.astype(p.value.data.dtype)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        # a 2-D ``b`` takes one GEMM over every leading row of ``a`` and
        # ``g``, not a stack of small products (to sum, for ``b``'s gradient)
        if a.requires_grad:
            if b.ndim == 2:
                ga = (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.shape)
            else:
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            _accumulate(a, ga)
        if b.requires_grad:
            if b.ndim == 2:
                k = a.shape[-1]
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
            _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def transpose_last2(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 needs >=2-D, got {x.shape}")
    data = np.swapaxes(x.data, -1, -2)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _make(data, (x,), backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g.reshape(x.shape))

    return _make(data, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; supports row-wise bias broadcast on the last axis."""
    data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    data = x.data * x.data.dtype.type(c)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * c)

    return _make(data, (x,), backward)


def add_scalar(x: Tensor, c: float) -> Tensor:
    data = x.data + x.data.dtype.type(c)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g)

    return _make(data, (x,), backward)


def broadcast_to(x: Tensor, shape: tuple) -> Tensor:
    """Repeat extents of 1 out to ``shape`` as numpy broadcasting does (a
    read-only view); identity (same object) when the shape already matches.
    The gradient sums over the repeats."""
    shape = tuple(shape)
    if x.shape == shape:
        return x
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast {x.shape} to {shape}") from None

    def backward(g: np.ndarray) -> None:
        _accumulate(x, _unbroadcast(g, x.shape))

    return _make(data, (x,), backward)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    ash, bsh = list(a.shape), list(b.shape)
    if len(ash) != len(bsh):
        raise ShapeError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    ax = axis % len(ash)
    ash[ax] = bsh[ax] = -1
    if ash != bsh:
        raise ShapeError(f"concat non-axis extents differ: {a.shape} vs {b.shape} on axis {axis}")
    data = np.concatenate([a.data, b.data], axis=ax)
    split = a.shape[ax]

    def backward(g: np.ndarray) -> None:
        ga, gb = np.split(g, [split], axis=ax)
        _accumulate(a, ga)
        _accumulate(b, gb)

    return _make(data, (a, b), backward)


def concat_many(parts: Sequence[Tensor], axis: int) -> Tensor:
    out = parts[0]
    for p in parts[1:]:
        out = concat(out, p, axis)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)). Float64 takes scipy's exact ``expit``; float32
    takes numpy's vector ``exp``; below about -88.7, exp(-x) overflows to
    inf and the result is 0, where the true value is subnormal."""
    if x.data.dtype == np.float32:
        s = np.negative(x.data)
        with np.errstate(over="ignore"):
            np.exp(s, out=s)
        s += np.float32(1.0)
        np.reciprocal(s, out=s)
    else:
        s = expit(x.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * s * (1.0 - s))

    return _make(s, (x,), backward)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0))

    return _make(data, (x,), backward)


def _normal_cdf_f32(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt(2))) of a float32 array through the
    rational erf, evaluated by Horner in place one block at a time."""
    flat = x.reshape(-1)
    cdf = np.empty(x.shape, dtype=np.float32)
    out = cdf.reshape(-1)
    block = min(flat.size, _CDF_BLOCK)
    z_buf, z2_buf, q_buf = (np.empty(block, dtype=np.float32) for _ in range(3))
    for start in range(0, flat.size, _CDF_BLOCK):
        stop = min(start + _CDF_BLOCK, flat.size)
        m = stop - start
        z, z2, q, p = z_buf[:m], z2_buf[:m], q_buf[:m], out[start:stop]
        np.multiply(flat[start:stop], np.float32(_INV_SQRT2), out=z)
        np.clip(z, np.float32(-4.0), np.float32(4.0), out=z)
        np.multiply(z, z, out=z2)
        for poly, acc in ((_ERF_P, p), (_ERF_Q, q)):
            np.multiply(z2, poly[0], out=acc)
            acc += poly[1]
            for c in poly[2:]:
                acc *= z2
                acc += c
        p *= z
        p /= q
        p *= np.float32(0.5)
        p += np.float32(0.5)
    return cdf


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x). Float64 takes the exact standard Gaussian CDF; float32
    takes a rational erf within 2e-6 of it."""
    if x.data.dtype == np.float32:
        cdf = _normal_cdf_f32(x.data)
    else:
        cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    data = (x.data * cdf).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _accumulate(x, g * (cdf + x.data * pdf))

    return _make(data, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, max-subtracted for stability."""
    n = x.shape[-1]
    if n < 1:
        raise ShapeError(f"softmax_rows needs a non-empty last axis, got {x.shape}")
    e, _ = _exp_rows(x.data)
    e /= e.sum(axis=0)
    s = _row_major(e, x.shape)

    def backward(g: np.ndarray) -> None:
        # s * (g - rowsum(g * s)); the row sums are one BLAS product
        gx = g * s
        dot = gx.reshape(-1, n) @ np.ones((n, 1), dtype=gx.dtype)
        gx -= s * dot.reshape(s.shape[:-1] + (1,))
        _accumulate(x, gx)

    return _make(s, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    ``gain`` and shift by ``bias`` (both [n])."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm gain {gain.shape} and bias {bias.shape} must be ({n},)")
    # feature-major throughout: row means as one BLAS product with a row of
    # 1/n, the gain and bias as per-feature scalars
    mean_row = np.full(n, 1.0 / n, dtype=x.data.dtype)
    xhat = _feature_major(x.data)
    xhat -= mean_row @ xhat
    inv = mean_row @ (xhat * xhat)
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    out = xhat * gain.data[:, None]
    out += bias.data[:, None]
    data = _row_major(out, x.shape).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray) -> None:
        gt = _feature_major(g)
        if gain.requires_grad:
            _accumulate(gain, np.einsum("ij,ij->i", gt, xhat))
        if bias.requires_grad:
            _accumulate(bias, gt.sum(axis=1))
        if x.requires_grad:
            gt *= gain.data[:, None]
            mean_gx_xhat = mean_row @ (gt * xhat)
            gt -= mean_row @ gt
            gt -= xhat * mean_gx_xhat
            gt *= inv
            _accumulate(x, _row_major(gt, x.shape))

    return _make(data, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity (same object) when not training or rate=0."""
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ConfigError("dropout in training mode requires an rng")
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype)
    factor = 1.0 / (1.0 - rate)
    data = x.data * keep * x.data.dtype.type(factor)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * keep * factor)

    return _make(data, (x,), backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * inside)

    return _make(data, (x,), backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g / x.data)

    return _make(data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g, x.shape).astype(x.data.dtype))

    return _make(data, (x,), backward)


def l2_sq(x: Tensor) -> Tensor:
    """Scalar sum of squared entries."""
    data = np.asarray((x.data * x.data).sum(), dtype=x.data.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, 2.0 * g * x.data)

    return _make(data, (x,), backward)


def cast(x: Tensor, dtype) -> Tensor:
    """Change element precision; gradient is cast back on the way down."""
    data = x.data.astype(dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g.astype(x.data.dtype))

    return _make(data, (x,), backward)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]``; gradient scatter-adds to touched rows."""
    idx = np.asarray(indices)
    if idx.size:
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0 or hi >= table.shape[0]:
            raise IndexError(f"lookup index out of range: [{lo}, {hi}] vs table of {table.shape[0]} rows")
    data = table.data[idx]

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros(table.shape, table.dtype)
            elif not table.grad.flags.c_contiguous:
                # the flat scatter below must write through a view of grad
                table.grad = np.ascontiguousarray(table.grad)
            # one 1-D scatter of element offsets takes numpy's fast ufunc.at
            # path, where a row-wise scatter does not; elements are added in
            # the same order, so the sums are bit-identical
            k = math.prod(table.shape[1:])
            offsets = idx.reshape(-1, 1).astype(np.intp, copy=False) * k + np.arange(k)
            np.add.at(table.grad.reshape(-1), offsets.reshape(-1), g.reshape(-1))

    return _make(data, (table,), backward)


def select_row(x: Tensor, index: int) -> Tensor:
    """Pick one row along axis -2: ``x[..., index, :]``."""
    data = x.data[..., index, :]

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[..., index, :] += g

    return _make(data, (x,), backward)
