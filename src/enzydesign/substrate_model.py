"""Substrate representation and the enzyme-substrate binding head.

Substrate atoms carry five precomputed chemical features and fixed 3D
coordinates; stacked neighborhood layers update features only (the real
substrate geometry is kept as-is). The binding head sum-pools enzyme and
substrate features and maps the concatenation to bind / no-bind
probabilities.
"""
from __future__ import annotations

import numpy as np

from . import geometry
from . import numerics as nm
from .config import ModelConfig
from .enzyme_model import gated_node_update, neighborhood_messages
from .numerics import Tensor


def substrate_neighbors(coords: np.ndarray, k: int) -> np.ndarray | None:
    """Fully connected when the molecule is small, kNN otherwise.

    Returns None for a single-atom substrate (no edges).
    """
    m = coords.shape[0]
    if m == 1:
        return None
    if m - 1 <= k:
        return np.array([[j for j in range(m) if j != i] for i in range(m)],
                        dtype=np.intp)
    return geometry.knn(coords, k)


def substrate_forward(features, coords, params, config: ModelConfig) -> Tensor:
    """Per-atom representations after the substrate message-passing stack."""
    feats = np.asarray(features, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != config.substrate_feature_dim:
        raise ValueError(f"substrate features must be m x "
                         f"{config.substrate_feature_dim}, got {feats.shape}")
    if coords.shape != (feats.shape[0], 3):
        raise ValueError(f"substrate coords shape {coords.shape} inconsistent "
                         f"with {feats.shape[0]} atoms")

    h = Tensor(feats) @ params["sub/input/w"]
    x = Tensor(coords)
    neighbors = substrate_neighbors(coords, config.k_neighbors)
    for layer in range(config.substrate_layers):
        if neighbors is None:
            continue  # zero aggregate: the gated update is the identity
        m, _ = neighborhood_messages(h, x, neighbors, params, f"sub{layer}")
        h = gated_node_update(h, m, params, f"sub{layer}")
    return h


def binding_scores(enzyme_features: Tensor, substrate_features: Tensor,
                   params) -> Tensor:
    """Pre-softmax {no-bind, bind} scores from sum-pooled representations."""
    pooled = nm.concat([nm.tensor_sum(enzyme_features, axis=0),
                        nm.tensor_sum(substrate_features, axis=0)], axis=0)
    logits = nm.reshape(pooled, (1, pooled.shape[0])) @ params["binding/out/w"]
    return nm.reshape(logits, (2,))


def binding_probabilities(enzyme_features: Tensor, substrate_features: Tensor,
                          params) -> Tensor:
    """Softmax over {no-bind, bind}."""
    scores = binding_scores(enzyme_features, substrate_features, params)
    return nm.reshape(nm.softmax(nm.reshape(scores, (1, 2)), axis=-1), (2,))
