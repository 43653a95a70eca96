"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: each operation records its parents, a backward rule and
a creation number. A rule maps the result's gradient to one gradient
per parent, in order, and fires once (``edge_messages``' rule reuses the
buffers its forward kept); ``Tensor.backward`` is the one place that
sums each back to its input's shape and accumulates it, and it fires the
rules newest first. Everything downstream of this
module (attention layers, equivariant updates, losses) is built from the
primitives here, so each backward rule is validated against central
finite differences in the test suite.

The primitives are ``add``, ``sub``, ``mul`` and ``matmul``, which
broadcast like numpy and sum their gradients back to each operand's
shape; ``linear`` (``x @ w + b`` over the last axis); ``relu``,
``sigmoid``, ``tensor_sum``, ``take`` (embedding rows by an index
array), ``concat`` along axis 0, a matrix's ``columns`` and its
``transpose``; ``log_softmax``, multi-head ``attention`` (block-diagonal
over packed records), the affine ``layer_norm(x, g, b)`` and
``edge_messages`` (one edge tile of an EGNN layer: the sums over K of
its softmax-weighted messages and, with the coordinate head, of its
coordinate updates). Each is one graph node with a closed-form backward
rule, and a run of the program builds every one. ``attention`` runs its
softmax, and ``edge_messages`` its radial vectors, distances, SiLUs and
softmax, as numpy ops.

Forward work that grows with N² or N·K runs ``tile_rows`` rows at a
time, each tile's temporaries at most ``TILE_BYTES``, with or without a
graph: an edge tile's backward rule allocates its temporaries at the
tile's size too.

No tensor is scanned for finiteness when it is made. Data is checked
where it enters the program (the record, substrate, motif and run-config
readers and ``load_checkpoint``), and results where they leave the
graph: ``forward_stack`` its logits and coordinates, ``train`` its loss.

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

# Bytes per tile temporary, read at call time. On a 2-vCPU VM with 2 MB
# of L2 per core, 2^18 to 2^20 overlapped across two sweeps and 2^21
# (about 128-row tiles) was slowest in both; 2^19 led the first sweep.
TILE_BYTES = 1 << 19


def tile_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes that fit in ``TILE_BYTES``, at least 1."""
    return max(1, TILE_BYTES // max(1, row_bytes))


class NumericsError(ValueError):
    """A non-finite result where it leaves the graph."""


class DimensionError(ValueError):
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

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

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


def _logistic(x: np.ndarray, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)) on numpy's vectorized exp, in one buffer (``out``
    when given). Below x = -709 the exp overflows to inf and the reciprocal
    is the exact 0.0, so that overflow is not an error."""
    s = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _silu_grad(g: np.ndarray, s: np.ndarray, y: np.ndarray,
               out=None) -> np.ndarray:
    """g · (s + y · (1 − s)) for y = x · s, in one buffer (``out`` when
    given, which must not be one of the inputs); the same bits as
    g · (s + x · s · (1 − s))."""
    t = np.subtract(1.0, s, out=out)
    t *= y
    t += s
    t *= g
    return t


def sigmoid(x: Tensor) -> Tensor:
    s = _logistic(x.data)

    def bw(g):
        gx = g * s
        gx *= 1.0 - s  # (g · s) · (1 − s), with one temporary
        return (gx,)

    return Tensor(s, _parents=(x,), _backward_fn=bw)


# ---- reductions and shape ----

def tensor_sum(x: Tensor, axis=None) -> Tensor:
    def bw(g):
        ge = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, x.shape),)

    return Tensor(x.data.sum(axis=axis), _parents=(x,), _backward_fn=bw)


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
        return (_scatter_rows(indices, g, x.shape),)

    return Tensor(x.data[indices], _parents=(x,), _backward_fn=bw)


def _scatter_rows(indices, g, shape) -> np.ndarray:
    """Rows of ``g`` added into zeros of ``shape`` at rows ``indices``."""
    width = int(np.prod(shape[1:]))
    flat = indices.reshape(-1, 1) * width + np.arange(width)
    return np.bincount(flat.reshape(-1), weights=g.reshape(-1),
                       minlength=shape[0] * width).reshape(shape)


def columns(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of a matrix, as a C-contiguous copy."""
    def bw(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return Tensor(x.data[:, start:stop].copy(), _parents=(x,),
                  _backward_fn=bw)


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


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of a numpy array along ``axis``, shifted by the max: no
    graph node, just the binding suite's probabilities."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              lengths=None) -> Tensor:
    """softmax(q kᵀ / √dh) v on each of ``heads`` column slices of width dh
    of (N, d) inputs, merged back to (N, d), with a closed-form backward.

    ``lengths`` splits the rows into consecutive records (one record of N
    rows when None); each row attends only to the rows of its own record,
    so the weights are block-diagonal. A record of n rows runs
    ``tile_rows(heads·n·8)`` query rows at a time, each tile's softmax in
    place in its scores' buffer: with a backward, the tile's slice of the
    record's (heads, n, n) weights, kept only for the backward."""
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
        tile = tile_rows(heads * size * 8)
        for lo in range(r.start, r.stop, tile):
            rows = slice(lo, min(lo + tile, r.stop))
            pt = np.matmul(qh[:, rows], kt, out=None if p is None else
                           p[:, lo - r.start:rows.stop - r.start])
            pt *= scale  # softmax's ops, in place
            pt -= pt.max(axis=-1, keepdims=True)
            np.exp(pt, out=pt)
            pt /= pt.sum(axis=-1, keepdims=True)
            out[rows] = merge(pt @ vr)
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


def edge_messages(hw_i: Tensor, hw_k: Tensor, x: Tensor, wd: Tensor,
                  b1: Tensor, w2: Tensor, b2: Tensor, wa: Tensor, ba: Tensor,
                  lo: int, lists, head=()) -> Tensor:
    """One edge tile of an EGNN layer (Satorras et al. 2021, eqs. 3-6) as
    one node: the (R, d) sums over K of its softmax-weighted messages and,
    given the coordinate ``head`` (coord1/w, coord1/b, coord2/w,
    coord2/b), the (R, 3) coordinate updates beside them.

    Center r is row ``lo + r`` of ``hw_i`` (N, d) and of ``x`` (N, 3); its
    neighbors are the rows ``lists[r]`` (R, K) of ``hw_k`` and ``x``. With
    rel_rk = x[lo + r] − x[lists[r, k]] and d_rk = |rel_rk|:

        z = (hw_i[lo + r] + hw_k[lists[r, k]]) + d_rk·wd + b1
        m = silu(silu(z) @ w2 + b2)
        u = softmax over K of (m @ wa + ba), times m
        out = [Σ_k u | Σ_k rel · (silu(u @ c1w + c1b) @ c2w + c2b)]

    A K = 0 tile gives zeros. The forward runs the numpy ops of the chain
    of nodes it replaces (two ``take``s and a ``sub`` for rel, the
    messages, the head's ``linear``, SiLU, ``linear`` and ``mul``, two
    ``tensor_sum``s) in their order, and ``x`` is a parent twice, once
    per ``take``, so values and gradients keep their bits. Without a
    backward, the head reuses the messages' spent buffers. The rule keeps
    six (R, K, d) arrays, silu(z), m and the head's SiLU output with
    their logistics, beside (R, K, 3) and (R, K, 1) ones; it recomputes u
    and reuses buffers, so it fires once, as ``Tensor.backward`` fires
    every rule. The distance gradient is 0 at d = 0.
    """
    lists = np.asarray(lists, dtype=np.intp)
    (r, k), d = lists.shape, hw_k.shape[1]
    if k == 0:
        return Tensor(np.zeros((r, d + 3 if head else d)))
    parents = (hw_i, hw_k, x, x, wd, b1, w2, b2, wa, ba, *head)
    keep = any(t.requires_grad for t in parents)
    rel = x.data[lo:lo + r, None] - x.data[lists]
    dist = np.sqrt((rel ** 2).sum(axis=-1, keepdims=True))
    y1 = hw_k.data[lists]
    y1 += hw_i.data[lo:lo + r, None]
    s1 = np.multiply(dist, wd.data)
    y1 += s1
    y1 += b1.data
    _logistic(y1, out=s1)
    y1 *= s1  # silu(z), in z's buffer
    # without a backward, m and its logistic take the two spent buffers
    m = np.matmul(y1.reshape(-1, d), w2.data,
                  out=None if keep else s1.reshape(-1, d))
    m += b2.data
    s2 = _logistic(m, out=None if keep else y1.reshape(-1, d))
    m *= s2
    p = (m @ wa.data).reshape(r, k, 1)
    p += ba.data
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    m, s2 = m.reshape(r, k, d), s2.reshape(r, k, d)
    u = np.multiply(p, m, out=None if keep else m)
    out = u.sum(axis=1)
    if head:
        c1w, c1b, c2w, c2b = head
        y3 = np.matmul(u.reshape(-1, d), c1w.data,
                       out=None if keep else s2.reshape(-1, d))
        y3 += c1b.data
        s3 = _logistic(y3, out=None if keep else u.reshape(-1, d))
        y3 *= s3  # the head's silu, in its input's buffer
        scale = y3 @ c2w.data
        scale += c2b.data
        scale = scale.reshape(r, k, 1)
        out = np.concatenate([out, (rel * scale).sum(axis=1)], axis=1)

    def bw(g):
        if head:  # the chain's rules from its last node back to u
            g_rel = g[:, None, d:] * scale
            gs = (g[:, None, d:] * rel).sum(axis=2, keepdims=True)
            gs = gs.reshape(r * k, 1)
            gy3 = gs @ c2w.data.T
            gc2w, gc2b = y3.T @ gs, gs.sum(axis=0)
            gz3 = _silu_grad(gy3, s3, y3)
            u = np.multiply(p, m, out=gy3.reshape(r, k, d)).reshape(-1, d)
            gc1w, gc1b = u.T @ gz3, gz3.sum(axis=0)
            gu = np.matmul(gz3, c1w.data.T, out=u).reshape(r, k, d)
            gu += g[:, None, :d]
            buf = np.multiply(gu, m, out=gz3.reshape(r, k, d))
        else:
            gu = np.empty((r, k, d))
            gu[...] = g[:, None, :]
            buf = gu * m
        gp = buf.sum(axis=-1, keepdims=True)  # the product's rule
        gp -= (gp * p).sum(axis=1, keepdims=True)
        gp *= p  # softmax's rule
        gp = gp.reshape(r * k, 1)
        gwa = m.reshape(r * k, d).T @ gp
        gm = np.multiply(gu, p, out=buf)
        gm += (gp @ wa.data.T).reshape(gm.shape)
        gz2 = _silu_grad(gm, s2, m, out=gu).reshape(r * k, d)
        gy1 = np.matmul(gz2, w2.data.T, out=buf.reshape(r * k, d))
        gz1 = _silu_grad(gy1.reshape(y1.shape), s1, y1, out=s2)
        gw2 = y1.reshape(r * k, d).T @ gz2
        # the bias-like gradients sum over R, then K, as _unbroadcast does
        gwd = np.multiply(gz1, dist, out=buf).sum(axis=0).sum(axis=0)
        gdist = np.multiply(gz1, wd.data, out=buf).sum(axis=-1, keepdims=True)
        unit = np.where(dist == 0.0, 0.0,
                        rel / np.where(dist == 0.0, 1.0, dist))
        if head:
            g_rel += gdist * unit
        else:
            g_rel = gdist * unit
        ghw_i = np.zeros_like(hw_i.data)
        ghw_i[lo:lo + r] = gz1.sum(axis=1)
        grads = (ghw_i, _scatter_rows(lists, gz1, hw_k.shape),
                 _scatter_rows(lists, -g_rel, x.shape),
                 _scatter_rows(np.arange(lo, lo + r),
                               _unbroadcast(g_rel, (r, 1, 3)), x.shape),
                 gwd, gz1.sum(axis=0).sum(axis=0), gw2, gz2.sum(axis=0),
                 gwa, gp.sum(axis=0))
        return grads + ((gc1w, gc1b, gc2w, gc2b) if head else ())

    return Tensor(out, _parents=parents, _backward_fn=bw)


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
