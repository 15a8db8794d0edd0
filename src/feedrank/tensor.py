"""Dense tensor engine: numpy arrays with reverse-mode gradients.

Every forward op builds a node holding a backward closure; calling
``backward()`` on a scalar walks the graph in reverse topological order,
accumulates gradients into each ``requires_grad`` leaf, and unlinks each
interior node as soon as its backward has run. A node's ``grad`` is
its own: its backward may overwrite it in place and may hand it, or disjoint
views of it, to one parent, which keeps the array it is given. Only ``add``
gives one gradient to two operands, so it copies for the second. Ops operate
on the last axis (or last two for matmul) so the same code serves 2-D math and
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

DEFAULT_DTYPE = np.float32

# GELU's tanh form (arXiv 1606.08415), as BERT's reference code computes it
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

LAYER_NORM_EPS = 1e-5


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

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
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

    def backward(self) -> None:
        """Reverse-mode pass from a scalar root."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            # every consumer of a node runs before it, so once its backward
            # has run nothing reads its gradient, parents or closure again;
            # dropping them frees what only the graph held, often its
            # output, before the next backward runs. Leaves keep ``grad``.
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), None

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
        # ``g`` is this tensor's from here on (module docstring); a copy only
        # when it differs in shape or dtype, so ``grad`` matches ``data``
        if g.shape == t.data.shape and g.dtype == t.data.dtype:
            t.grad = g
        else:
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


def _layer_norm_features(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """Layer norm of the rows a feature-major ``xhat`` ([n, rows]) holds as
    columns: normalises ``xhat`` in place to zero mean and unit variance,
    writes ``xhat * gain + bias`` (``gain`` and ``bias`` [n]) to ``out``,
    which may be ``xhat``, and returns each row's 1 / sqrt(var + eps).
    Row means are sums down the columns, which add each column's features
    in the same order wherever the column sits (a BLAS product with a row
    of 1/n rounds a column by its position, so blocks of columns would not
    match the whole array); every elementwise loop runs the row count
    long."""
    n = xhat.shape[0]
    mean = xhat.sum(axis=0)
    mean /= n
    xhat -= mean
    inv = (xhat * xhat).sum(axis=0)
    inv /= n
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain[:, None], out=out)
    out += bias[:, None]
    return inv


def _exp_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(row - row max) of every row of ``a``, feature-major as [n, rows],
    and the row maxima [rows]."""
    e = _feature_major(a)
    m = e.max(axis=0)
    e -= m
    np.exp(e, out=e)
    return e, m


class Parameter(Tensor):
    """Named trainable leaf: a Tensor that always requires its gradient."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParameterRegistry:
    """Ordered registry of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, data) -> Parameter:
        """A new parameter holding a copy of ``data``."""
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name!r}")
        p = Parameter(name, np.array(data))
        self._params[name] = p
        return p

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        unknown = [name for name in arrays if name not in self._params]
        if unknown:
            raise ConfigError(f"state names no parameter of this model: {', '.join(map(repr, unknown))}")
        for name, p in self._params.items():
            if name not in arrays:
                raise ConfigError(f"missing parameter in state: {name!r}")
            arr = arrays[name]
            if tuple(arr.shape) != p.shape:
                raise ShapeError(
                    f"parameter {name!r}: stored shape {tuple(arr.shape)} vs model shape {p.shape}"
                )
            p.data = arr.astype(p.dtype)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, with numpy's invalid-value flag ignored when the product
    has one output column: a BLAS kernel can raise that flag on finite
    inputs, from lanes it does not return. A NaN the product does return
    still stops training or evaluation at the non-finite loss or score check."""
    if b.shape[-1] != 1:
        return a @ b
    with np.errstate(invalid="ignore"):
        return a @ b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    # a 2-D ``b`` takes one GEMM over every leading row of ``a``, forward and
    # backward, not a stack of small products (to sum, for ``b``'s gradient)
    if a.ndim > 2 and b.ndim == 2:
        data = _dot(a.data.reshape(-1, a.shape[-1]), b.data).reshape(a.shape[:-1] + b.shape[1:])
    else:
        data = _dot(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            if b.ndim == 2:
                # a contiguous bᵀ: BLAS multiplies by it faster than by b's view
                ga = _dot(g.reshape(-1, g.shape[-1]), np.ascontiguousarray(b.data.T)).reshape(a.shape)
            else:
                ga = _unbroadcast(_dot(g, np.swapaxes(b.data, -1, -2)), a.shape)
            _accumulate(a, ga)
        if b.requires_grad:
            if b.ndim == 2:
                k = a.shape[-1]
                gb = _dot(a.data.reshape(-1, k).T, g.reshape(-1, g.shape[-1]))
            else:
                gb = _dot(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight.T + bias`` for ``weight`` stored [out, in] and ``bias``
    [out], as one node. It does the products and sums of ``add(matmul(x,
    transpose_last2(weight)), bias)``, so its outputs and gradients are
    bit-identical to that composition's for operands of one dtype, without
    its two interior nodes or a second [rows, out] array: the bias is added
    into the product."""
    if x.ndim < 2 or weight.ndim != 2:
        raise ShapeError(f"linear needs a >=2-D input and a 2-D weight, got {x.shape} and {weight.shape}")
    if x.shape[-1] != weight.shape[1] or bias.shape != weight.shape[:1]:
        raise ShapeError(f"linear input {x.shape}, weight {weight.shape} and bias {bias.shape} disagree")
    k = x.shape[-1]
    # matmul's forms: one GEMM over every leading row of a 3-D ``x``
    if x.ndim > 2:
        data = _dot(x.data.reshape(-1, k), weight.data.T).reshape(x.shape[:-1] + weight.shape[:1])
    else:
        data = _dot(x.data, weight.data.T)
    data += bias.data

    def backward(g: np.ndarray) -> None:
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, _dot(g2, weight.data).reshape(x.shape))
        if weight.requires_grad:
            _accumulate(weight, _dot(x.data.reshape(-1, k).T, g2).T)

    return _make(data, (x, weight, bias), backward)


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
            gb = _unbroadcast(g, b.shape)
            _accumulate(b, gb.copy() if gb is g and a.grad is g else gb)

    return _make(data, (a, b), backward)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.multiply(g, a.data, out=g), b.shape))

    return _make(data, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    data = x.data * x.data.dtype.type(c)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.multiply(g, c, out=g))

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
    """1 / (1 + exp(-x)) in the input's precision. Where exp(-x) overflows
    to inf (below about -88.7 in float32, -709.8 in float64) the result is
    0, where the true value is below the smallest normal float."""
    s = np.negative(x.data)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)

    def backward(g: np.ndarray) -> None:
        g *= s
        _accumulate(x, np.multiply(g, 1.0 - s, out=g))

    return _make(s, (x,), backward)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.multiply(g, x.data > 0, out=g))

    return _make(data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))), within 4.8e-4
    of x * Phi(x), in the input's precision. When no backward will read the
    tanh buffer, the result is written over it."""
    xd = x.data
    with np.errstate(over="ignore"):  # x^2 overflows past 1.8e19 in float32; tanh gives +-1
        t = xd * xd
        t *= _GELU_C * _GELU_A
        t += _GELU_C
        t *= xd
    np.tanh(t, out=t)
    if _grad_mode.enabled and x.requires_grad:
        data = t * 0.5
    else:
        data = np.multiply(t, 0.5, out=t)
    data += 0.5
    data *= xd

    def backward(g: np.ndarray) -> None:
        # 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3a * x^2); 1 - t^2 is
        # 0 wherever tanh saturates, so multiplying it in first keeps every
        # product finite
        s = t * t
        np.subtract(1.0, s, out=s)
        s *= xd
        gx = s * xd
        gx *= xd
        gx *= 1.5 * _GELU_C * _GELU_A
        s *= 0.5 * _GELU_C
        gx += s
        np.multiply(t, 0.5, out=s)
        gx += s
        gx += 0.5
        gx *= g
        _accumulate(x, gx)

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
        g *= s
        dot = _dot(g.reshape(-1, n), np.ones((n, 1), dtype=g.dtype))
        g -= s * dot.reshape(s.shape[:-1] + (1,))
        _accumulate(x, g)

    return _make(s, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    ``gain`` and shift by ``bias`` (both [n])."""
    n = x.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm gain {gain.shape} and bias {bias.shape} must be ({n},)")
    xhat = _feature_major(x.data)
    out = np.empty_like(xhat)
    inv = _layer_norm_features(xhat, gain.data, bias.data, out)
    data = _row_major(out, x.shape)

    def backward(g: np.ndarray) -> None:
        gt = _feature_major(g)
        if gain.requires_grad:
            _accumulate(gain, np.einsum("ij,ij->i", gt, xhat))
        if bias.requires_grad:
            _accumulate(bias, gt.sum(axis=1))
        if x.requires_grad:
            mean_row = np.full(n, 1.0 / n, dtype=x.data.dtype)
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
        g *= keep
        _accumulate(x, np.multiply(g, factor, out=g))

    return _make(data, (x,), backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.multiply(g, inside, out=g))

    return _make(data, (x,), backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.divide(g, x.data, out=g))

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
    data = np.take(table.data, idx, axis=0)

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


def embedding_bag(table: Tensor, ids: np.ndarray, weights: Optional[np.ndarray] = None) -> Tensor:
    """Weighted bags of rows: ``out[..., :] = sum_j w[..., j] * table[ids[..., j]]``
    over the last axis of ``ids`` ([..., m]), skipping slots whose id is -1;
    ``weights`` (the shape of ``ids``) default to 1. A bag adds its weighted
    rows into +0.0 in slot order, and the table's gradient takes the bags'
    weighted gradient rows in bag order, each by one flat ``np.add.at``: the
    additions, in order, of the CSR products ``S @ table`` and ``S.T @ g``
    for the [bags, rows] matrix ``S``."""
    ids = np.asarray(ids)
    if table.ndim != 2 or ids.ndim < 1:
        raise ShapeError(f"embedding_bag needs a 2-D table and >=1-D ids, got {table.shape} and {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise IndexError(f"bag ids must be integers, got {ids.dtype}")
    if weights is not None and np.shape(weights) != ids.shape:
        raise ShapeError(f"embedding_bag weights {np.shape(weights)} vs ids {ids.shape}")
    if ids.size:
        lo, hi = int(ids.min()), int(ids.max())
        if lo < -1 or hi >= table.shape[0]:
            raise IndexError(f"bag id out of range: [{lo}, {hi}] vs table of {table.shape[0]} rows "
                             "(-1 pads)")
    lead, m = ids.shape[:-1], ids.shape[-1]
    n, k = math.prod(lead), table.shape[1]
    flat_ids = ids.reshape(n, m)
    bag, slot = np.nonzero(flat_ids >= 0)   # the kept slots, bag by bag
    rows = flat_ids[bag, slot].astype(np.intp, copy=False)
    values = None if weights is None else np.asarray(weights).reshape(n, m)[bag, slot].astype(table.dtype)

    def scatter(src: np.ndarray, at: np.ndarray, out_rows: int) -> np.ndarray:
        # out[at[i], :] += values[i] * src[i, :], i in order, into +0.0
        if values is not None:
            src = src * values[:, None]
        out = np.zeros(out_rows * k, dtype=src.dtype)
        np.add.at(out, (at[:, None] * k + np.arange(k)).reshape(-1), src.reshape(-1))
        return out.reshape(out_rows, k)

    data = scatter(np.take(table.data, rows, axis=0), bag, n).reshape(lead + (k,))

    def backward(g: np.ndarray) -> None:
        _accumulate(table, scatter(g.reshape(n, k)[bag], rows, table.shape[0]))

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
