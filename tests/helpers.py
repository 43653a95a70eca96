"""Shared test utilities."""
import json
import struct
import tempfile
import zlib
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import enzydesign.numerics as nm
from enzydesign.config import (DATA_SPEC, OUTPUT_SPEC, ModelConfig,
                               TrainSchedule)
from enzydesign.data import SplitManifest, read_table
from enzydesign.enzyme_model import greedy_decode
from enzydesign.numerics import Tensor, finite_difference_gradient
from enzydesign.parameters import constant_views, parameter_layout
from enzydesign.site_miner import GAP_CHARS, _family_columns
from enzydesign.training import record_loss

# section -> {key: type} of every key ``config.read_run_config`` accepts
RUN_CONFIG_SPEC = {
    "model": {f.name: f.type for f in fields(ModelConfig)},
    "schedule": {f.name: f.type for f in fields(TrainSchedule)},
    "data": DATA_SPEC,
    "output": OUTPUT_SPEC,
}


def check_gradient(op, x, h=1e-5, tol=1e-6):
    """Compare analytic gradient of a random projection of op(x) against
    central differences.

    A fixed random weighting avoids losses that are constant by
    construction (softmax and layer_norm outputs have invariant sums).
    """
    analytic, fd = analytic_and_fd(op, x, h)
    rel = np.abs(analytic - fd) / (np.abs(fd) + 1e-8)
    assert rel.max() < tol, f"max relative error {rel.max():.3e}"


def check_input_gradient(op, x, zero=False):
    """``check_gradient``'s two gradients of op(x), for an input of a whole
    layer: they agree within 1e-6 of the largest central difference, since
    an entry many times smaller than the rest carries the differences'
    roundoff. With ``zero`` (an input whose exact gradient is 0, as a
    shift that every score of a softmax shares) both are checked against
    0, not against each other."""
    analytic, fd = analytic_and_fd(op, x)
    if zero:
        assert np.abs(analytic).max() <= 1e-14
        assert np.abs(fd).max() <= 1e-9
    else:
        err = np.abs(analytic - fd).max() / np.abs(fd).max()
        assert err < 1e-6, f"max error {err:.3e} of the largest entry"


def analytic_and_fd(op, x, h=1e-5):
    """``check_gradient``'s two gradients of the same random projection of
    op(x): the analytic one and central differences at step ``h``."""
    probe = {}

    def loss_of(out):
        if out.size == 1:
            return out
        if "r" not in probe:
            probe["r"] = Tensor(np.random.default_rng(99).normal(size=out.shape))
        return nm.tensor_sum(out * probe["r"])

    t = Tensor(x, requires_grad=True)
    loss_of(op(t)).backward()

    def f(arr):
        return loss_of(op(Tensor(arr))).item()

    fd = finite_difference_gradient(f, np.array(x, dtype=np.float64), h=h)
    return t.grad, fd


# ---- graph nodes the program no longer builds, kept as test oracles ----

def l2_norm(x: Tensor, axis=-1) -> Tensor:
    """Euclidean norm over ``axis``, kept as size 1; gradient 0 at 0."""
    n = np.sqrt((x.data ** 2).sum(axis=axis, keepdims=True))

    def bw(g):
        safe = np.where(n == 0.0, 1.0, n)
        return (g * np.where(n == 0.0, 0.0, x.data / safe),)

    return Tensor(n, _parents=(x,), _backward_fn=bw)


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Softmax along ``axis`` as one graph node over ``nm.softmax``."""
    if x.data.ndim == 0 or x.data.shape[axis] == 0:
        raise nm.DimensionError(f"softmax over empty axis of shape {x.shape}")
    y = nm.softmax(x.data, axis)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, _parents=(x,), _backward_fn=bw)


def silu(x: Tensor) -> Tensor:
    """x · σ(x) as one graph node, on ``numerics``' logistic and SiLU
    gradient; the coordinate head built it before ``edge_messages`` took
    the head in."""
    s = nm._logistic(x.data)
    y = x.data * s

    def bw(g):
        return (nm._silu_grad(g, s, y),)

    return Tensor(y, _parents=(x,), _backward_fn=bw)


def reshape(x: Tensor, shape) -> Tensor:
    """``x`` in another shape of the same size, as one graph node."""
    def bw(g):
        return (g.reshape(x.shape),)

    return Tensor(x.data.reshape(shape), _parents=(x,), _backward_fn=bw)


def composite_attention(q, k, v, heads):
    """Multi-head attention as the model built it from separate primitives
    before ``numerics.attention``, op for op on numpy arrays: split the
    heads with reshape and transpose views, ``q @ kᵀ``, times a 0-d
    1/√dh, softmax over the keys, ``@ v``, then merge the heads."""
    n, d = q.shape
    dh = d // heads

    def split(t):
        return np.transpose(t.reshape(n, heads, dh), (1, 0, 2))

    q, k, v = split(q), split(k), split(v)
    scores = np.matmul(q, np.transpose(k, (0, 2, 1))) * np.asarray(
        1.0 / np.sqrt(dh))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return np.transpose(np.matmul(attn, v), (1, 0, 2)).reshape(n, d)


def composite_edge_messages(hw_i, hw_k, rel, wd, b1, w2, b2, wa, ba, lo,
                            lists):
    """One edge tile's (R, K, d) weighted messages from separate
    primitives: the centers' rows of ``hw_i`` plus the neighbors' rows of
    ``hw_k``, plus the distance |``rel``| times ``wd``, plus ``b1``; silu,
    ``msg2``, silu; then a softmax over K of the ``attn`` score, times
    the messages. Its values and gradients have the bits of the messages
    node the model built before ``numerics.edge_messages`` also took in
    the radial vectors, the coordinate head and the sums over K."""
    (r, _), d = lists.shape, hw_k.shape[1]
    hw_r = nm.take(hw_i, np.arange(lo, lo + r))
    pre = (reshape(hw_r, (r, 1, d)) + nm.take(hw_k, lists)
           + l2_norm(rel, axis=-1) * wd + b1)
    m = silu(nm.linear(silu(pre), w2, b2))
    return softmax(nm.linear(m, wa, ba), axis=1) * m


def edge_chain(hw_i, hw_k, x, wd, b1, w2, b2, wa, ba, lo, lists, head=()):
    """One edge tile as the model built it before ``numerics.edge_messages``
    was one node: the radial vectors from two ``take``s and a ``sub``, the
    messages, and with the coordinate ``head`` its ``linear``, silu,
    ``linear`` and ``mul``, then a ``tensor_sum`` over K of the
    coordinate update and of the messages. Returns [message sum] or
    [message sum, coordinate update], made in that model's order."""
    r = len(lists)
    rel = nm.take(x, np.arange(lo, lo + r)[:, None]) - nm.take(x, lists)
    m = composite_edge_messages(hw_i, hw_k, rel, wd, b1, w2, b2, wa, ba, lo,
                                lists)
    if not head:
        return [nm.tensor_sum(m, axis=1)]
    c1w, c1b, c2w, c2b = head
    scale = nm.linear(silu(nm.linear(m, c1w, c1b)), c2w, c2b)
    delta = nm.tensor_sum(rel * scale, axis=1)
    return [nm.tensor_sum(m, axis=1), delta]


def init_generic_parameters(config, vocab, rng) -> dict:
    """``init_parameters`` with each ``*/coord2/w`` drawn like the other
    weights, ``("normal", 1/sqrt(fan_in))``, instead of starting at zero,
    so the coordinate path runs on generic weights. The draws come in
    ``parameter_layout`` order, so every other tensor is unchanged."""
    rng = np.random.default_rng(rng)
    params = {}
    for name, (shape, (kind, value)) in parameter_layout(config,
                                                         vocab).items():
        if name.endswith("/coord2/w"):
            kind, value = "normal", 1.0 / np.sqrt(shape[0])
        data = (rng.normal(0.0, value, shape) if kind == "normal"
                else np.full(shape, value))
        params[name] = Tensor(data, requires_grad=True)
    return params


def evaluate_recovery(records, params, config, vocab, seed: int = 0):
    """(nats per free residue, free-residue recovery rate) on a record set:
    criterion 3's measure of the toy overfit. Each record goes through
    ``training.record_loss`` on constant views of ``params``, so it
    builds no graph."""
    rng = np.random.default_rng(seed)
    params = constant_views(params)
    nll_sum, free_sum, correct = 0.0, 0, 0
    for rec in sorted(records, key=lambda r: r.id):
        (_, bd), logits = record_loss(rec, params, config, vocab, rng)
        nll_sum += bd.seq_nll
        free_sum += bd.free_residues
        mask = rec.site_mask
        decoded = greedy_decode(logits, rec.seq_indices, mask)
        correct += int((decoded[~mask] == rec.seq_indices[~mask]).sum())
    return nll_sum / max(free_sum, 1), correct / max(free_sum, 1)


def interior_nodes(root):
    """Every tensor below ``root`` that records parents, each once."""
    seen, stack, found = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._parents:
                found.append(t)
                stack.extend(t._parents)
    return found


def rule_closure(t):
    """What ``t``'s backward rule refers to, less the names it reads only
    on a path this node did not take."""
    kept = []
    for cell in t._backward_fn.__closure__:
        try:
            kept.append(cell.cell_contents)
        except ValueError:  # an empty cell
            pass
    return kept


def kept_arrays(t):
    """The arrays ``t``'s backward rule keeps alive: each view's owner,
    once."""
    owners = {}
    for a in rule_closure(t):
        if isinstance(a, np.ndarray):
            a = a if a.base is None else a.base
            owners[id(a)] = a
    return list(owners.values())


def mostly(field):
    """A well-formed field three times in four, else short free text."""
    return st.one_of(field, field, field, st.text(max_size=3))


# Fields near each tab-separated format.
COORD = mostly(st.floats().map(str))
NAME = mostly(st.text("ab01", min_size=1, max_size=3))


def integer(lo, hi):
    return mostly(st.integers(lo, hi).map(str))


def table(*fields):
    """File text near a format: rows of ``fields``, rows of free text split
    by tabs, or free text."""
    row = (st.tuples(*fields).map("\t".join)
           | st.lists(st.text(max_size=4), max_size=6).map("\t".join))
    return st.text() | st.lists(row, max_size=4).map("\n".join)


def read_text_as(reader, text, *errors):
    """``reader(path)`` on a file holding ``text``; None if it raised one of
    ``errors``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.tsv"
        path.write_text(text, encoding="utf-8")
        try:
            return reader(path)
        except errors:
            return None


def with_crc(body: bytes) -> bytes:
    """Checkpoint bytes: ``body`` and its CRC-32, as ``save_checkpoint``
    ends a file."""
    return body + struct.pack("<I", zlib.crc32(body))


def edit_checkpoint_header(path, header=None):
    """The checkpoint's JSON header; with ``header``, write it in place
    before the same payload, under a fresh CRC-32."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    if header is None:
        return json.loads(raw[12:12 + hlen])
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(with_crc(raw[:8] + struct.pack("<I", len(hbytes))
                              + hbytes + raw[12 + hlen:-4]))


def read_split_manifest(path) -> SplitManifest:
    """The manifest ``SplitManifest.write`` wrote to ``path``."""
    rows = read_table(path, 3, lambda rid, c, which: (rid, int(c), which))
    return SplitManifest({rid: cid for rid, cid, _ in rows},
                         {rid: which for rid, _, which in rows})


def argsort_knn(points, k):
    """k nearest neighbors by a stable argsort of each row of distances
    summed over an (N, N, 3) difference array."""
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1, kind="stable")[:, :min(k, len(points) - 1)]


def loop_init_coordinates(given, motif, n, rng, bond_length):
    """``geometry.init_coordinates`` one residue at a time: two scalar
    draws per free residue, each placed from its predecessor."""
    rng = np.random.default_rng(rng)
    motif = np.asarray(motif, dtype=np.intp)
    given = np.asarray(given, dtype=np.float64).reshape(len(motif), 3)
    motif_set = {int(i): row for i, row in zip(motif, given)}
    coords = np.zeros((n, 3))
    for i in range(n):
        if i in motif_set:
            coords[i] = motif_set[i]
        else:
            prev = coords[i - 1] if i > 0 else np.zeros(3)
            w1 = rng.uniform(0.0, np.pi)
            w2 = rng.uniform(0.0, 2.0 * np.pi)
            direction = np.array([
                np.sin(w1) * np.cos(w2),
                np.sin(w1) * np.sin(w2),
                np.cos(w1),
            ])
            coords[i] = prev + bond_length * direction
    return coords


# ---- scalar oracles for the vectorized data and site_miner paths ----

def scalar_alignment_identity(a: str, b: str) -> float:
    """Needleman-Wunsch identity filled cell by cell (match=1, mismatch=0,
    gap=-1; traceback prefers diagonal, then up, then left)."""
    la, lb = len(a), len(b)
    score = np.zeros((la + 1, lb + 1))
    move = np.zeros((la + 1, lb + 1), dtype=np.int8)  # 0 diag, 1 up, 2 left
    score[:, 0] = -np.arange(la + 1)
    score[0, :] = -np.arange(lb + 1)
    move[1:, 0] = 1
    move[0, 1:] = 2
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            diag = score[i - 1, j - 1] + (1.0 if a[i - 1] == b[j - 1] else 0.0)
            up = score[i - 1, j] - 1.0
            left = score[i, j - 1] - 1.0
            best = max(diag, up, left)
            score[i, j] = best
            move[i, j] = 0 if best == diag else (1 if best == up else 2)
    matches, length = 0, 0
    i, j = la, lb
    while i > 0 or j > 0:
        length += 1
        m = move[i, j]
        if m == 0:
            matches += a[i - 1] == b[j - 1]
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
    return matches / length if length else 0.0


def conserved_columns(family, tau: float) -> dict:
    """Map column -> majority letter for columns above the tau threshold,
    from the arrays ``mine_sites`` reads."""
    _, _, conserved, majority = _family_columns(family, tau)
    return {int(col): chr(majority[col]) for col in np.flatnonzero(conserved)}


def counter_conserved_columns(family, tau: float) -> dict:
    """Column -> majority letter above tau * rows, one Counter per column;
    ties go to the highest count, then the lowest letter."""
    threshold = tau * len(family.rows)
    out = {}
    for col in range(family.column_count):
        counts = Counter(seq[col] for _, seq in family.rows
                         if seq[col] not in GAP_CHARS)
        if not counts:
            continue
        letter, count = max(counts.items(), key=lambda kv: (kv[1], -ord(kv[0])))
        if count > threshold:
            out[col] = letter
    return out


def map_column_to_residue_index(gapped_row: str, column: int):
    """Ungapped index of an alignment column, or None when the row gaps there."""
    if gapped_row[column] in GAP_CHARS:
        return None
    return sum(1 for ch in gapped_row[:column] if ch not in GAP_CHARS)
