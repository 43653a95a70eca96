"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: each operation records its parents and a local backward
rule; ``Tensor.backward`` replays the implicit tape in reverse
topological order. Everything downstream of this module (attention
layers, equivariant updates, losses) is built from the primitives here,
so each backward rule is validated against central finite differences in
the test suite.

Graph lifetime: a result records its parents and rule only when one of
its inputs requires a gradient, so a forward pass over constants builds
no graph. No rule refers to its own result, so a graph has no reference
cycles and is freed as soon as its last handle is dropped.
``Tensor.backward`` consumes the graph as it walks it: interior nodes
drop their gradient, rule and parents once their rule has fired, and
leaves keep ``grad``. A second ``backward`` on the same graph is not
supported.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit as _expit


class NumericsError(ValueError):
    """Base class for numerics failures."""


class DimensionError(NumericsError):
    """Shapes incompatible with the requested operation."""


class DomainError(NumericsError):
    """Input outside the mathematical domain of the operation."""


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Results of operations on inputs that require gradients keep
    references to their parent tensors; results of constant inputs and
    leaves created directly from data have none. Leaves with
    ``requires_grad`` set receive gradients during ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self.grad = None
        if self.requires_grad:
            self._parents = tuple(_parents)
            self._backward_fn = _backward_fn
        else:
            self._parents, self._backward_fn = (), None
        if not np.all(np.isfinite(self.data)):
            raise NumericsError("non-finite values in tensor")

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    # ---- autodiff ----

    def backward(self) -> None:
        """Populate ``grad`` on every reachable ``requires_grad`` tensor.

        The loss must be scalar. The implicit tape is linearized once
        (inputs before outputs) and walked in reverse, so every node's
        backward rule fires exactly once and fan-out accumulates
        additively.

        The graph is consumed: once a node's rule has fired, the node
        drops its ``grad``, its rule and its parents, so memory shrinks
        as the walk proceeds. Leaves keep ``grad``. A second ``backward``
        on the same graph is not supported.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        tape = _linearize(self)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += np.ones_like(self.data)
        while tape:
            node = tape.pop()
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node.grad = node._backward_fn = None
                node._parents = ()

    # ---- operator sugar ----

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _linearize(root: Tensor) -> list:
    """Topological order of the graph below ``root`` (inputs first)."""
    order = []
    seen = set()
    stack = [(root, False)]
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
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


# ---- binary elementwise (broadcasting) ----

def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor(a.data + b.data, _parents=(a, b), _backward_fn=bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return Tensor(a.data - b.data, _parents=(a, b), _backward_fn=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return Tensor(a.data * b.data, _parents=(a, b), _backward_fn=bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data ** 2), b.shape))

    return Tensor(a.data / b.data, _parents=(a, b), _backward_fn=bw)


# ---- matmul ----

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul requires >=2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}"
        )

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.shape))
        _accumulate(b, _unbroadcast(gb, b.shape))

    return Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward_fn=bw)


# ---- unary elementwise ----

def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)

    def bw(g):
        _accumulate(x, g * y)

    return Tensor(y, _parents=(x,), _backward_fn=bw)


def ln(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise DomainError("ln requires strictly positive input")

    def bw(g):
        _accumulate(x, g / x.data)

    return Tensor(np.log(x.data), _parents=(x,), _backward_fn=bw)


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0.0):
        raise DomainError("sqrt requires nonnegative input")
    y = np.sqrt(x.data)

    def bw(g):
        _accumulate(x, g * 0.5 / np.maximum(y, 1e-300))

    return Tensor(y, _parents=(x,), _backward_fn=bw)


def relu(x: Tensor) -> Tensor:
    def bw(g):
        _accumulate(x, g * (x.data > 0.0))

    return Tensor(np.maximum(x.data, 0.0), _parents=(x,), _backward_fn=bw)


def sigmoid(x: Tensor) -> Tensor:
    s = _expit(x.data)

    def bw(g):
        _accumulate(x, g * s * (1.0 - s))

    return Tensor(s, _parents=(x,), _backward_fn=bw)


def silu(x: Tensor) -> Tensor:
    s = _expit(x.data)

    def bw(g):
        _accumulate(x, g * (s + x.data * s * (1.0 - s)))

    return Tensor(x.data * s, _parents=(x,), _backward_fn=bw)


# ---- reductions and shape ----

def tensor_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    def bw(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(ge, x.shape).copy())

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), _parents=(x,),
                  _backward_fn=bw)


def l2_norm(x: Tensor, axis=-1, keepdims=True) -> Tensor:
    """Euclidean norm along ``axis``; gradient is 0 at the origin."""
    n = np.sqrt((x.data ** 2).sum(axis=axis, keepdims=True))
    out_data = n if keepdims else np.squeeze(n, axis=axis)

    def bw(g):
        ge = g if keepdims else np.expand_dims(g, axis)
        safe = np.where(n == 0.0, 1.0, n)
        _accumulate(x, ge * np.where(n == 0.0, 0.0, x.data / safe))

    return Tensor(out_data, _parents=(x,), _backward_fn=bw)


def reshape(x: Tensor, shape) -> Tensor:
    def bw(g):
        _accumulate(x, g.reshape(x.shape))

    return Tensor(x.data.reshape(shape), _parents=(x,), _backward_fn=bw)


def transpose(x: Tensor, axes=None) -> Tensor:
    def bw(g):
        if axes is None:
            _accumulate(x, np.transpose(g))
        else:
            _accumulate(x, np.transpose(g, np.argsort(axes)))

    return Tensor(np.transpose(x.data, axes), _parents=(x,), _backward_fn=bw)


def broadcast_to(x: Tensor, shape) -> Tensor:
    def bw(g):
        _accumulate(x, _unbroadcast(g, x.shape))

    return Tensor(np.broadcast_to(x.data, shape).copy(), _parents=(x,),
                  _backward_fn=bw)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return Tensor(data, _parents=tuple(tensors), _backward_fn=bw)


def take(x: Tensor, indices) -> Tensor:
    """Gather rows of ``x`` along axis 0 by an integer index array."""
    indices = np.asarray(indices, dtype=np.intp)

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, indices, g)
        _accumulate(x, gx)

    return Tensor(x.data[indices], _parents=(x,), _backward_fn=bw)


# ---- softmax / log-softmax / layer norm ----

def softmax(x: Tensor, axis=-1) -> Tensor:
    if x.data.ndim == 0 or x.data.shape[axis] == 0:
        raise DimensionError(f"softmax over empty axis of shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot))

    return Tensor(y, _parents=(x,), _backward_fn=bw)


def log_softmax(x: Tensor, axis=-1) -> Tensor:
    """Numerically stable log-softmax, composed from primitives.

    The max shift is a detached constant, so gradients flow only through
    the exp/sum path.
    """
    c = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = sub(x, broadcast_to(c, x.shape))
    lse = ln(tensor_sum(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, broadcast_to(lse, x.shape))


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (pre-affine)."""
    n = x.shape[-1]
    mu = tensor_sum(x, axis=-1, keepdims=True) * (1.0 / n)
    xc = sub(x, broadcast_to(mu, x.shape))
    var = tensor_sum(mul(xc, xc), axis=-1, keepdims=True) * (1.0 / n)
    denom = sqrt(add(var, Tensor(eps)))
    return div(xc, broadcast_to(denom, x.shape))


# ---- finite-difference harness ----

def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-5,
                               indices=None) -> np.ndarray:
    """Central finite differences of scalar-valued ``f`` at ``x``.

    ``x`` is perturbed in place one flat coordinate at a time and
    restored, so ``f`` may read it through another handle. With
    ``indices`` (flat positions) only those coordinates are differenced;
    the rest of the result stays zero.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size) if indices is None else indices:
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g
