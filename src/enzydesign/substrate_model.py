"""Substrate representation and the enzyme-substrate binding head.

Substrate atoms carry five precomputed chemical features and fixed 3D
coordinates; stacked neighborhood layers update features only (the real
substrate geometry is kept as-is), so a substrate block has no
coordinate head. The binding head sum-pools enzyme and substrate
features and adds each pool times its own weight: bind / no-bind scores.
"""
from __future__ import annotations

import numpy as np

from . import geometry
from . import numerics as nm
from .config import ModelConfig
from .enzyme_model import gated_node_update, neighborhood_messages
from .numerics import Tensor


def substrate_forward(features, coords, params, config: ModelConfig,
                      lengths=None) -> Tensor:
    """Per-atom representations after the substrate message-passing stack.

    ``features`` have the shape ``SubstrateRecord`` enforces; ``coords``
    with another row count than ``features`` raise, since the edge path
    gathers only the rows its neighbor lists name. With ``lengths``, the
    atoms are several substrates packed end to end, each with its own kNN
    block, so each one's rows equal its own forward's.
    """
    feats = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (len(feats), 3):
        raise nm.DimensionError(f"substrate coords of shape {coords.shape} "
                                f"for {len(feats)} atoms")
    lengths = [feats.shape[0]] if lengths is None else lengths

    h = Tensor(feats) @ params["sub/input/w"]
    if max(lengths) == 1:
        return h  # no edges, so every gated update is the identity
    x = Tensor(coords)
    # at most k + 1 atoms are fully connected: knn clips k to m - 1
    neighbors = [geometry.knn(coords[r], config.k_neighbors) + r.start
                 for r in nm.segments(lengths)]
    for layer in range(config.substrate_layers):
        prefix = f"sub{layer}"
        g = neighborhood_messages(h, x, neighbors, params, prefix)
        h = gated_node_update(h, g, params, prefix)
    return h


def binding_scores(enzyme_features: Tensor, substrate_features: Tensor,
                   params, lengths=None, substrate_rows=None) -> Tensor:
    """Pre-softmax {no-bind, bind} scores from sum-pooled representations.

    ``lengths`` splits the enzyme rows into records (one when None), and
    ``substrate_rows`` holds the slice of substrate rows paired with each
    (all of them when None). Each record's enzyme pool times
    ``binding/enzyme/w`` plus its substrate pool times
    ``binding/substrate/w`` is one row of the (B, 2) scores.
    """
    n = enzyme_features.shape[0]
    records = nm.segments([n] if lengths is None else lengths)
    pool_e = np.zeros((len(records), n))  # the constant 0/1 pooling matrices
    pool_s = np.zeros((len(records), substrate_features.shape[0]))
    pairs = zip(records, substrate_rows or [slice(None)] * len(records),
                strict=True)
    for b, (rows, atoms) in enumerate(pairs):
        pool_e[b, rows] = pool_s[b, atoms] = 1.0
    return (Tensor(pool_e) @ enzyme_features @ params["binding/enzyme/w"]
            + Tensor(pool_s) @ substrate_features
            @ params["binding/substrate/w"])
