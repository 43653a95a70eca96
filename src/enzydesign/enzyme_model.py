"""Enzyme modeling stack.

Interleaves global self-attention sub-layers (full-sequence context)
with neighborhood equivariant sub-layers (k-nearest-neighbor message
passing that also moves Cα coordinates), on top of residue + EC-tag +
positional embeddings. The output head reuses the amino-acid embedding
matrix to score the 20 types per position.
"""
from __future__ import annotations

import numpy as np

from . import geometry
from . import numerics as nm
from .config import ConfigError, ModelConfig
from .numerics import Tensor


def embed_inputs(seq_indices, known_mask, tag_indices, params,
                 config: ModelConfig) -> Tensor:
    """Initial residue embeddings h⁰.

    Known (motif) positions look up their amino-acid row; all other
    positions get the mask embedding. Every position then receives the
    sum of the four EC-level tag embeddings plus its positional
    embedding.
    """
    seq_indices = np.asarray(seq_indices, dtype=np.intp)
    known = np.asarray(known_mask, dtype=bool)
    n = len(seq_indices)
    if n == 0:
        raise ConfigError("empty sequence")
    if n > config.max_len:
        raise ConfigError(f"sequence length {n} exceeds max_len {config.max_len}")

    aa_rows = nm.take(params["emb/amino"], np.where(known, seq_indices, 0))
    known_col = known.astype(np.float64)[:, None]
    h = (aa_rows * Tensor(known_col)
         + params["emb/mask"] * Tensor(1.0 - known_col))

    tag_indices = np.asarray(tag_indices, dtype=np.intp)
    for k in range(4):
        h = h + nm.take(params[f"emb/tag_l{k + 1}"], tag_indices[k:k + 1])
    h = h + nm.take(params["emb/pos"], np.arange(n))
    return h


def _linear(x, params, name):
    return nm.linear(x, params[name + "/w"], params[name + "/b"])


def global_attention_sublayer(h: Tensor, params, prefix: str,
                              config: ModelConfig) -> Tensor:
    """Pre-softmax scaled dot-product MHA + FFN, post-norm residuals."""
    d, heads = h.shape[1], config.num_heads
    if d % heads != 0:
        raise ConfigError(f"d={d} not divisible by {heads} heads")
    qkv = (_linear(h, params, f"{prefix}/{w}") for w in "qkv")
    ctx = _linear(nm.attention(*qkv, heads), params, f"{prefix}/o")

    h_tilde = nm.layer_norm(ctx + h, params[f"{prefix}/ln1/g"],
                            params[f"{prefix}/ln1/b"])
    ffn = _linear(nm.relu(_linear(h_tilde, params, f"{prefix}/ffn1")),
                  params, f"{prefix}/ffn2")
    return nm.layer_norm(ffn + h_tilde, params[f"{prefix}/ln2/g"],
                         params[f"{prefix}/ln2/b"])


def edge_projections(h: Tensor, params, prefix: str):
    """(h W_i, h W_k) over all N rows, with W_i and W_k rows [0, d) and
    [d, 2d) of the first message layer's W (row 2d is w_d)."""
    w1, d = params[f"{prefix}/msg1/w"], h.shape[1]
    return h @ nm.take(w1, np.arange(d)), h @ nm.take(w1, np.arange(d, 2 * d))


def neighborhood_messages(proj, x: Tensor, neighbors: np.ndarray, params,
                          prefix: str, rows=None):
    """Softmax-weighted edge messages m_ik of the centers ``rows`` (all
    when None), whose neighbor lists are ``neighbors``.

    Returns (weighted messages (R,K,d), weights (R,K,1), radial vectors
    x_i − x_k (R,K,3)). The only coordinate dependence is through the
    pairwise distance, which keeps the whole block rigid-motion
    invariant. The first message layer W·[h_i; h_k; d_ik] + b is
    (hW_i)_i + (hW_k)_k + d_ik·w_d + b, from ``edge_projections``'s
    ``proj``, so no (R,K,2d+1) input is built.
    """
    (hw_i, hw_k), x_i = proj, x
    if rows is not None:
        hw_i, x_i = nm.take(hw_i, rows), nm.take(x, rows)
    r, d = hw_i.shape
    rel = nm.reshape(x_i, (r, 1, 3)) - nm.take(x, neighbors)
    dist = nm.l2_norm(rel, axis=-1)
    pre = (nm.reshape(hw_i, (r, 1, d)) + nm.take(hw_k, neighbors)
           + dist * nm.take(params[f"{prefix}/msg1/w"], [2 * d])
           + params[f"{prefix}/msg1/b"])
    m = nm.silu(_linear(nm.silu(pre), params, f"{prefix}/msg2"))
    w = nm.softmax(_linear(m, params, f"{prefix}/attn"), axis=1)
    return w * m, w, rel


def gated_node_update(h: Tensor, g: Tensor, params, prefix: str) -> Tensor:
    """h_i ← h_i + σ(FFN(g_i)) ⊙ g_i with g_i the aggregated message."""
    gate = nm.sigmoid(_linear(nm.relu(_linear(g, params, f"{prefix}/gate1")),
                              params, f"{prefix}/gate2"))
    return h + gate * g


def neighborhood_sublayer(h: Tensor, x: Tensor, neighbors: np.ndarray,
                          params, prefix: str, config: ModelConfig,
                          motif_mask=None):
    """One equivariant sub-layer: messages, coordinate update, node update.

    Coordinates move along the radial directions x_i − x_k scaled by a
    per-edge scalar, which preserves SE(3) equivariance. When
    ``freeze_motif_coords`` is set, motif rows keep their incoming
    coordinates. The edge block runs ``numerics.ROW_TILE`` centers at a
    time.
    """
    n, tile = h.shape[0], nm.ROW_TILE
    proj = edge_projections(h, params, prefix)
    deltas, aggregates = [], []
    for lo in range(0, n, tile):
        rows = None if n <= tile else np.arange(lo, min(lo + tile, n))
        m, _, rel = neighborhood_messages(proj, x, neighbors[lo:lo + tile],
                                          params, prefix, rows)
        scale = _linear(nm.silu(_linear(m, params, f"{prefix}/coord1")),
                        params, f"{prefix}/coord2")
        deltas.append(nm.tensor_sum(rel * scale, axis=1))
        aggregates.append(nm.tensor_sum(m, axis=1))
    x_new = x + nm.concat(deltas)
    if config.freeze_motif_coords and motif_mask is not None:
        keep = Tensor(np.asarray(motif_mask, dtype=np.float64)[:, None])
        x_new = x * keep + x_new * (1.0 - keep)

    h_new = gated_node_update(h, nm.concat(aggregates), params, prefix)
    return h_new, x_new


def forward_stack(seq_indices, known_mask, tag_indices, coords, params,
                  config: ModelConfig):
    """Full enzyme forward pass.

    ``coords`` is the complete N×3 coordinate input (motif values plus
    spherical initialization for free residues, see
    ``geometry.init_coordinates``). Each neighborhood sub-layer builds
    its kNN graph from the coordinates it updates. Returns (logits N×20,
    output coordinates N×3, final features N×d), all Tensors.
    """
    config.validate()
    h = embed_inputs(seq_indices, known_mask, tag_indices, params, config)
    x = coords if isinstance(coords, Tensor) else Tensor(np.asarray(coords, dtype=np.float64))
    if x.shape != (h.shape[0], 3):
        raise ConfigError(f"coords shape {x.shape} does not match sequence "
                          f"length {h.shape[0]}")

    period = config.interleave_period
    for i in range(config.attention_sublayers):
        h = global_attention_sublayer(h, params, f"attn{i}", config)
        if (i + 1) % period == 0:
            graph = geometry.knn(x.data, config.k_neighbors)
            h, x = neighborhood_sublayer(h, x, graph, params,
                                         f"neigh{(i + 1) // period - 1}",
                                         config, motif_mask=known_mask)

    logits = h @ nm.transpose(params["emb/amino"])
    return logits, x, h


def greedy_decode(logits, seq_indices, known_mask) -> np.ndarray:
    """Per-position argmax at free positions, motif residues copied verbatim.

    Ties resolve to the lowest amino-acid index (np.argmax convention).
    """
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    seq_indices = np.asarray(seq_indices, dtype=np.intp)
    known = np.asarray(known_mask, dtype=bool)
    picks = arr.argmax(axis=-1)
    return np.where(known, seq_indices, picks)
