"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: each operation records its parents, a backward rule and
a creation number. A rule is a pure function of the result's gradient
that returns one gradient per parent, in order; ``Tensor.backward`` is
the one place that sums each back to its input's shape and accumulates
it, and it fires the rules newest first. Everything downstream of this
module (attention layers, equivariant updates, losses) is built from the
primitives here, so each backward rule is validated against central
finite differences in the test suite.

The primitives are the ones the model calls: ``add``, ``sub``, ``mul``
and ``matmul``, which broadcast like numpy and sum their gradients back
to each operand's shape; ``linear`` (``x @ w + b`` over the last axis);
``relu``, ``sigmoid``, ``silu``, ``tensor_sum``, ``l2_norm``, ``reshape``,
``take``, ``concat`` along axis 0 and a matrix's ``transpose``;
``softmax``, ``log_softmax``, multi-head ``attention`` (block-diagonal
over packed records) and the affine ``layer_norm(x, g, b)``. Each is one
graph node with a closed-form backward rule.

Finiteness is checked at the boundaries: a tensor built from data (a
leaf, an input, a checkpoint payload) is scanned when it is made, an op
result is not. Callers check what leaves the graph: ``forward_stack``
its logits and coordinates, ``train`` its loss.

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

import heapq
import itertools

import numpy as np

_creation = itertools.count()  # orders the tensors that require a gradient

# Rows per block of the forward work that grows with N² or N·K (attention
# queries, neighborhood edges, kNN distances), read at call time.
ROW_TILE = 128


class NumericsError(ValueError):
    """Base class for numerics failures."""


class DimensionError(NumericsError):
    """Shapes incompatible with the requested operation."""


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    if t.grad is None:
        # a copy in the memory layout of t.data, so that reductions of
        # this gradient sum in the same order whatever g's strides
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_order")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self.grad = None
        if self.requires_grad:
            self._parents = tuple(_parents)
            self._backward_fn = _backward_fn
            self._order = next(_creation)
        else:
            self._parents, self._backward_fn = (), None
        # op results are checked where they leave the graph (see above)
        if _backward_fn is None and not np.all(np.isfinite(self.data)):
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

        The loss must be scalar. Rules fire from a heap keyed on the
        creation number, newest first; an input that has a rule is
        pushed when it receives its first gradient. A result is always
        newer than its inputs, so when a node is popped every consumer
        of it has fired and its gradient is complete: each rule fires
        exactly once and fan-out accumulates additively. Inputs that
        require no gradient are skipped.

        The graph is consumed: once a node's rule has fired, the node
        drops its ``grad``, its rule and its parents, so memory shrinks
        as the walk proceeds. Leaves keep ``grad``. A second ``backward``
        on the same graph is not supported.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        _accumulate(self, np.ones_like(self.data))
        heap = [] if self._backward_fn is None else [(-self._order, self)]
        while heap:
            node = heapq.heappop(heap)[1]
            for p, g in zip(node._parents, node._backward_fn(node.grad)):
                if p.requires_grad:
                    if p.grad is None and p._backward_fn is not None:
                        heapq.heappush(heap, (-p._order, p))
                    _accumulate(p, _unbroadcast(g, p.shape))
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

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---- binary elementwise (broadcasting) ----

def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        return g, g

    return Tensor(a.data + b.data, _parents=(a, b), _backward_fn=bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        return g, -g

    return Tensor(a.data - b.data, _parents=(a, b), _backward_fn=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        return g * b.data, g * a.data

    return Tensor(a.data * b.data, _parents=(a, b), _backward_fn=bw)


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
        return (np.matmul(g, np.swapaxes(b.data, -1, -2)),
                np.matmul(np.swapaxes(a.data, -1, -2), g))

    return Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward_fn=bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``: one GEMM over the
    flattened leading axes, with the bias added in place."""
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear shapes disagree: x {x.shape}, "
                             f"w {w.shape}, b {b.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    y = x2 @ w.data
    y += b.data

    def bw(g):
        g2 = g.reshape(-1, w.shape[1])
        return (g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return Tensor(y.reshape(x.shape[:-1] + w.shape[1:]), _parents=(x, w, b),
                  _backward_fn=bw)


# ---- unary elementwise ----

def relu(x: Tensor) -> Tensor:
    def bw(g):
        return (g * (x.data > 0.0),)

    return Tensor(np.maximum(x.data, 0.0), _parents=(x,), _backward_fn=bw)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on numpy's vectorized exp. Below x = -709 the exp
    overflows to inf and the quotient is the exact 0.0, so that overflow
    is not an error."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(x: Tensor) -> Tensor:
    s = _logistic(x.data)

    def bw(g):
        return (g * s * (1.0 - s),)

    return Tensor(s, _parents=(x,), _backward_fn=bw)


def silu(x: Tensor) -> Tensor:
    s = _logistic(x.data)

    def bw(g):
        return (g * (s + x.data * s * (1.0 - s)),)

    return Tensor(x.data * s, _parents=(x,), _backward_fn=bw)


# ---- reductions and shape ----

def tensor_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    def bw(g):
        ge = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, x.shape),)

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims), _parents=(x,),
                  _backward_fn=bw)


def l2_norm(x: Tensor, axis=-1) -> Tensor:
    """Euclidean norm over ``axis``, kept as size 1; gradient 0 at 0."""
    n = np.sqrt((x.data ** 2).sum(axis=axis, keepdims=True))

    def bw(g):
        safe = np.where(n == 0.0, 1.0, n)
        return (g * np.where(n == 0.0, 0.0, x.data / safe),)

    return Tensor(n, _parents=(x,), _backward_fn=bw)


def reshape(x: Tensor, shape) -> Tensor:
    def bw(g):
        return (g.reshape(x.shape),)

    return Tensor(x.data.reshape(shape), _parents=(x,), _backward_fn=bw)


def transpose(x: Tensor) -> Tensor:
    def bw(g):
        return (g.T,)

    return Tensor(x.data.T, _parents=(x,), _backward_fn=bw)


def take(x: Tensor, indices) -> Tensor:
    """Gather rows of ``x`` along axis 0 by a non-negative integer index
    array.

    The backward scatter is one ``bincount`` over flat positions
    ``row * width + column``; it sums each position's terms in index
    order, as ``np.add.at`` does, so the two agree bit for bit.
    """
    indices = np.asarray(indices, dtype=np.intp)

    def bw(g):
        width = x.size // x.shape[0]
        flat = indices.reshape(-1, 1) * width + np.arange(width)
        gx = np.bincount(flat.reshape(-1), weights=g.reshape(-1),
                         minlength=x.size)
        return (gx.reshape(x.shape),)

    return Tensor(x.data[indices], _parents=(x,), _backward_fn=bw)


def concat(parts) -> Tensor:
    """Join tensors along axis 0; a single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    ends = np.cumsum([t.shape[0] for t in parts])[:-1]

    def bw(g):
        return np.split(g, ends)

    return Tensor(np.concatenate([t.data for t in parts]), _parents=tuple(parts),
                  _backward_fn=bw)


# ---- softmax / attention / log-softmax / layer norm ----

def segments(lengths) -> list[slice]:
    """Row slices of consecutive records of the given lengths."""
    ends = np.cumsum(lengths, dtype=np.intp)
    return [slice(int(e) - int(m), int(e)) for m, e in zip(lengths, ends)]


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(x: Tensor, axis=-1) -> Tensor:
    if x.data.ndim == 0 or x.data.shape[axis] == 0:
        raise DimensionError(f"softmax over empty axis of shape {x.shape}")
    y = _softmax(x.data, axis)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, _parents=(x,), _backward_fn=bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              lengths=None) -> Tensor:
    """softmax(q kᵀ / √dh) v on each of ``heads`` column slices of width dh
    of (N, d) inputs, merged back to (N, d), with a closed-form backward.

    ``lengths`` splits the rows into consecutive records (one record of N
    rows when None); each row attends only to the rows of its own record,
    so the weights are block-diagonal. Within a record the forward runs
    ``ROW_TILE`` query rows at a time; each record's (heads, n, n)
    weights are kept only for the backward."""
    n, d = q.shape
    scale = 1.0 / np.sqrt(d // heads)

    def split(t):  # (rows, d) -> (heads, rows, dh), a view
        return t.reshape(-1, heads, d // heads).transpose(1, 0, 2)

    def merge(t):  # (heads, rows, dh) -> (rows, d)
        return t.transpose(1, 0, 2).reshape(-1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    grad = q.requires_grad or k.requires_grad or v.requires_grad
    records = segments([n] if lengths is None else lengths)
    out, weights = np.empty((n, d)), []
    for r in records:
        kt, vr, size = kh[:, r].transpose(0, 2, 1), vh[:, r], r.stop - r.start
        p = np.empty((heads, size, size)) if grad else None
        for lo in range(r.start, r.stop, ROW_TILE):
            rows = slice(lo, min(lo + ROW_TILE, r.stop))
            pt = _softmax((qh[:, rows] @ kt) * scale, -1)
            out[rows] = merge(pt @ vr)
            if p is not None:
                p[:, lo - r.start:rows.stop - r.start] = pt
        weights.append(p)

    def bw(g):
        gh = split(g)
        gq, gk, gv = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
        for r, p in zip(records, weights):
            gr = gh[:, r]
            dp = gr @ vh[:, r].transpose(0, 2, 1)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
            gq[r] = merge(ds @ kh[:, r])
            gk[r] = merge(ds.transpose(0, 2, 1) @ qh[:, r])
            gv[r] = merge(p.transpose(0, 2, 1) @ gr)
        return gq, gk, gv

    return Tensor(out, _parents=(q, k, v), _backward_fn=bw)


def log_softmax(x: Tensor, axis=-1) -> Tensor:
    """Log-softmax along ``axis``, shifted by the max for stability."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bw(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return Tensor(y, _parents=(x,), _backward_fn=bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """``y * g + b`` with y the last axis of ``x`` normalized to zero mean
    and unit variance, ``LAYER_NORM_EPS`` = 1e-5 added to the variance."""
    n = x.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * (1.0 / n)
                  + LAYER_NORM_EPS)
    y = xc / std

    def bw(go):
        gn = go * g.data
        gy = (gn * y).sum(axis=-1, keepdims=True) * (1.0 / n)
        gm = gn.sum(axis=-1, keepdims=True) * (1.0 / n)
        return (gn - gm - y * gy) / std, go * y, go

    return Tensor(y * g.data + b.data, _parents=(x, g, b), _backward_fn=bw)


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
