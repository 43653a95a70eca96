"""Substrate representation and the enzyme-substrate binding head.

Substrate atoms carry five precomputed chemical features and fixed 3D
coordinates; stacked neighborhood layers update features only (the real
substrate geometry is kept as-is), so a substrate block has no
coordinate head. The binding head sum-pools enzyme and substrate
features and maps the concatenation to bind / no-bind scores.
"""
from __future__ import annotations

import numpy as np

from . import geometry
from . import numerics as nm
from .config import SUBSTRATE_FEATURES, ModelConfig
from .enzyme_model import (edge_projections, gated_node_update,
                           neighborhood_messages)
from .numerics import Tensor


def substrate_forward(features, coords, params, config: ModelConfig) -> Tensor:
    """Per-atom representations after the substrate message-passing stack."""
    feats = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != SUBSTRATE_FEATURES:
        raise ValueError(f"substrate features must be m x "
                         f"{SUBSTRATE_FEATURES}, got {feats.shape}")
    if coords.shape != (feats.shape[0], 3):
        raise ValueError(f"substrate coords shape {coords.shape} inconsistent "
                         f"with {feats.shape[0]} atoms")

    h = Tensor(feats) @ params["sub/input/w"]
    if feats.shape[0] == 1:
        return h  # no edges, so every gated update is the identity
    x = Tensor(coords)
    # at most k + 1 atoms are fully connected: knn clips k to m - 1
    neighbors = geometry.knn(coords, config.k_neighbors)
    for layer in range(config.substrate_layers):
        prefix = f"sub{layer}"
        m, _, _ = neighborhood_messages(edge_projections(h, params, prefix), x,
                                        neighbors, params, prefix)
        h = gated_node_update(h, nm.tensor_sum(m, axis=1), params, prefix)
    return h


def binding_scores(enzyme_features: Tensor, substrate_features: Tensor,
                   params) -> Tensor:
    """Pre-softmax {no-bind, bind} scores from sum-pooled representations.

    ``binding/out/w`` maps [enzyme pool; substrate pool] to one (1, 2) row
    of scores; each pool meets its own half of the rows, so nothing is
    concatenated.
    """
    w = params["binding/out/w"]
    d = enzyme_features.shape[1]
    return (nm.tensor_sum(enzyme_features, axis=0, keepdims=True)
            @ nm.take(w, np.arange(d))
            + nm.tensor_sum(substrate_features, axis=0, keepdims=True)
            @ nm.take(w, np.arange(d, 2 * d)))

