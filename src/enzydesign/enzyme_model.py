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
                 config: ModelConfig, lengths=None) -> Tensor:
    """Initial residue embeddings h⁰.

    Known (motif) positions look up their amino-acid row; all other
    positions get the mask embedding. Every position then receives the
    sum of the four EC-level tag embeddings plus its positional
    embedding. With ``lengths``, the rows are consecutive records:
    ``tag_indices`` holds one row of four per record, and positions
    restart at 0 in each record.
    """
    seq_indices = np.asarray(seq_indices, dtype=np.intp)
    known = np.asarray(known_mask, dtype=bool)
    lengths = [len(seq_indices)] if lengths is None else list(lengths)
    if min(lengths, default=0) == 0:
        raise ConfigError("empty sequence")
    config.check_length(max(lengths))

    aa_rows = nm.take(params["emb/amino"], np.where(known, seq_indices, 0))
    known_col = known.astype(np.float64)[:, None]
    h = (aa_rows * Tensor(known_col)
         + params["emb/mask"] * Tensor(1.0 - known_col))

    tags = np.repeat(np.asarray(tag_indices, dtype=np.intp).reshape(-1, 4),
                     lengths, axis=0)
    for k in range(4):
        h = h + nm.take(params[f"emb/tag_l{k + 1}"], tags[:, k])
    return h + nm.take(params["emb/pos"],
                       np.concatenate([np.arange(n) for n in lengths]))


def _linear(x, params, name):
    return nm.linear(x, params[name + "/w"], params[name + "/b"])


def global_attention_sublayer(h: Tensor, params, prefix: str,
                              config: ModelConfig, lengths=None) -> Tensor:
    """Pre-softmax scaled dot-product MHA + FFN, post-norm residuals; with
    ``lengths``, each record attends only to itself."""
    qkv = (_linear(h, params, f"{prefix}/{w}") for w in "qkv")
    ctx = _linear(nm.attention(*qkv, config.num_heads, lengths), params,
                  f"{prefix}/o")

    h_tilde = nm.layer_norm(ctx + h, params[f"{prefix}/ln1/g"],
                            params[f"{prefix}/ln1/b"])
    ffn = _linear(nm.relu(_linear(h_tilde, params, f"{prefix}/ffn1")),
                  params, f"{prefix}/ffn2")
    return nm.layer_norm(ffn + h_tilde, params[f"{prefix}/ln2/g"],
                         params[f"{prefix}/ln2/b"])


def neighborhood_messages(h: Tensor, x: Tensor, neighbors, params,
                          prefix: str, head=()) -> Tensor:
    """Each row's summed softmax-weighted edge messages Σ_k m_ik, (N, d),
    and with the coordinate ``head`` weights its moved coordinates
    x_i + Σ_k (x_i − x_k)·φ_x(m_ik) in three more columns, (N, d + 3).

    ``neighbors`` holds one (N_r, K_r) block of row indices per packed
    record, and the sub-layer's edges are one ``numerics.edge_messages``
    node; a K = 0 row (a one-residue or one-atom record) has no messages
    and does not move. Coordinates enter the messages only through the
    pairwise distance, which keeps them rigid-motion invariant. The first
    message layer W·[h_i; h_k; d_ik] + b, stored as W's row blocks
    ``msg1/wi``, ``msg1/wk`` and ``msg1/wd``, is (hW_i)_i + (hW_k)_k +
    d_ik·w_d + b with hW_i and hW_k formed once over all N rows: no
    (R,K,2d+1) input is built.
    """
    hw_i = h @ params[f"{prefix}/msg1/wi"]
    hw_k = h @ params[f"{prefix}/msg1/wk"]
    weights = [params[f"{prefix}/{name}"] for name in (
        "msg1/wd", "msg1/b", "msg2/w", "msg2/b", "attn/w", "attn/b")]
    return nm.edge_messages(hw_i, hw_k, x, *weights, neighbors, head)


def gated_node_update(h: Tensor, g: Tensor, params, prefix: str) -> Tensor:
    """h_i ← h_i + σ(FFN(g_i)) ⊙ g_i with g_i the aggregated message."""
    gate = nm.sigmoid(_linear(nm.relu(_linear(g, params, f"{prefix}/gate1")),
                              params, f"{prefix}/gate2"))
    return h + gate * g


def neighborhood_sublayer(h: Tensor, x: Tensor, neighbors, params,
                          prefix: str, config: ModelConfig,
                          motif_mask=None):
    """One equivariant sub-layer: messages, coordinate update, node update.

    Coordinates move along the radial directions x_i − x_k scaled by a
    per-edge scalar, which preserves SE(3) equivariance. When
    ``freeze_motif_coords`` is set, motif rows keep their incoming
    coordinates. ``neighbors`` is as in ``neighborhood_messages``.
    """
    d = h.shape[1]
    head = [params[f"{prefix}/{name}"] for name in (
        "coord1/w", "coord1/b", "coord2/w", "coord2/b")]
    blocks = neighborhood_messages(h, x, neighbors, params, prefix, head)
    x_new = nm.columns(blocks, d, d + 3)
    if config.freeze_motif_coords and motif_mask is not None:
        keep = np.asarray(motif_mask, dtype=np.float64)[:, None]
        x_new = x * Tensor(keep) + x_new * Tensor(1.0 - keep)

    h_new = gated_node_update(h, nm.columns(blocks, 0, d), params, prefix)
    return h_new, x_new


def encode(seq_indices, known_mask, tag_indices, params, config: ModelConfig,
           lengths=None) -> Tensor:
    """The coordinate-free prefix of ``forward_stack``: ``embed_inputs``
    and the first ``interleave_period`` attention sub-layers, (N, d).

    Nothing before the first kNN reads coordinates, so candidates that
    share a sequence, motif mask and tag share this result and can each
    pass it to ``forward_stack`` as ``encoded``.
    """
    h = embed_inputs(seq_indices, known_mask, tag_indices, params, config,
                     lengths)
    for i in range(config.interleave_period):
        h = global_attention_sublayer(h, params, f"attn{i}", config, lengths)
    return h


def forward_stack(seq_indices, known_mask, tag_indices, coords, params,
                  config: ModelConfig, lengths=None, encoded=None):
    """Full enzyme forward pass.

    ``coords`` is the complete N×3 coordinate array (motif values plus
    spherical initialization for free residues, see
    ``geometry.init_coordinates``). Each neighborhood sub-layer builds
    its kNN graph from the coordinates it updates. Returns (logits N×20,
    output coordinates N×3, final features N×d), all Tensors.

    With ``lengths``, the N rows are several records packed end to end
    (``tag_indices`` then holds one row of four per record). They share
    one graph but never interact: attention is block-diagonal and each
    record gets its own kNN graph, so each record's rows equal its own
    forward's. ``encoded``, the result of ``encode`` on the same inputs,
    stands in for that prefix, which then does not run again; a shape
    other than (N, d) raises ``DimensionError``. Raises ``NumericsError``
    when the logits or coordinates are not finite.
    """
    n = len(seq_indices)
    lengths = [n] if lengths is None else list(lengths)
    if sum(lengths) != n:
        raise ConfigError(f"record lengths {lengths} do not sum to {n}")
    if encoded is None:
        h = encode(seq_indices, known_mask, tag_indices, params, config,
                   lengths)
    elif encoded.shape == (n, config.d):
        h = encoded
    else:
        raise nm.DimensionError(f"encoded shape {encoded.shape} is not "
                                f"({n}, {config.d})")
    x = Tensor(np.asarray(coords, dtype=np.float64))
    if x.shape != (n, 3):
        raise ConfigError(f"coords shape {x.shape} does not match sequence "
                          f"length {n}")

    records = nm.segments(lengths)
    period = config.interleave_period
    # step i follows the first i attention sub-layers; ``encode`` ran
    # the first ``period`` of them
    for i in range(period, config.attention_sublayers + 1):
        if i % period == 0:
            graph = [geometry.knn(x.data[r], config.k_neighbors) + r.start
                     for r in records]
            h, x = neighborhood_sublayer(h, x, graph, params,
                                         f"neigh{i // period - 1}",
                                         config, motif_mask=known_mask)
        if i < config.attention_sublayers:
            h = global_attention_sublayer(h, params, f"attn{i}", config,
                                          lengths)

    logits = h @ nm.transpose(params["emb/amino"])
    if not (np.isfinite(logits.data).all() and np.isfinite(x.data).all()):
        raise nm.NumericsError("non-finite logits or coordinates")
    return logits, x, h


def greedy_decode(logits, seq_indices, known_mask) -> np.ndarray:
    """Per-position argmax of the ``logits`` Tensor at free positions, motif
    residues copied verbatim.

    Ties resolve to the lowest amino-acid index (np.argmax convention).
    """
    seq_indices = np.asarray(seq_indices, dtype=np.intp)
    known = np.asarray(known_mask, dtype=bool)
    picks = logits.data.argmax(axis=-1)
    return np.where(known, seq_indices, picks)
