"""Executable property suites: SE(3) equivariance, gradient audit and
binding invariance.

Each suite runs against a parameter store and its model config (the
equivariance property is architectural, so random weights suffice) and
reports the worst observed deviation per property. Their seeds, sample
counts and acceptance bounds are the fixed constants below; only the
equivariance and binding suites take a trial count, their constant's
when None. Enzyme lengths are capped at the model's ``max_len``. The
forward-only suites run on constant views of the parameters, so they
build no autodiff graph, and the binding probabilities are numpy
softmaxes of the scores.
"""
from __future__ import annotations

import numpy as np

from . import geometry
from .config import SUBSTRATE_FEATURES, ModelConfig
from .data import EnzymeRecord, SubstrateRecord
from .enzyme_model import forward_stack
from .numerics import finite_difference_gradient, softmax
from .parameters import constant_views, zero_grads
from .residues import AMINO_ACIDS, NUM_AMINO_ACIDS
from .substrate_model import binding_scores, substrate_forward
from .training import record_loss

SEED = 0
EQUIVARIANCE_TOL = 1e-9   # features and logits absolute, coords relative
GRADIENT_TOL = 1e-5       # relative error, analytic against central FD
FD_STEP = 1e-5
FD_SAMPLES = 5            # coordinates differenced per parameter tensor
PERMUTATION_TOL = 1e-12
RIGID_TOL = 1e-9
EQUIVARIANCE_TRIALS = 50  # (input, transform) pairs
BINDING_TRIALS = 25       # (enzyme, substrate) cases


def random_instance(n: int, rng):
    """Random sequence, motif mask, tag indices, and coordinates."""
    seq = rng.integers(0, NUM_AMINO_ACIDS, size=n)
    mask = rng.random(n) < 0.4
    if not mask.any():
        mask[int(rng.integers(n))] = True
    tag_idx = np.zeros(4, dtype=np.intp)
    coords = rng.normal(0.0, 4.0, size=(n, 3))
    return seq, mask, tag_idx, coords


def equivariance_deviation(params, config: ModelConfig, n: int, rng) -> dict:
    """Max deviations for one random (input, rigid transform) pair.

    Feature/logit deviations are absolute; the coordinate deviation is
    relative to the coordinate scale.
    """
    seq, mask, tag_idx, coords = random_instance(n, rng)
    rot, t = geometry.random_rigid(rng)
    logits_a, x_a, h_a = forward_stack(seq, mask, tag_idx, coords, params, config)
    logits_b, x_b, h_b = forward_stack(seq, mask, tag_idx,
                                       geometry.apply_rigid(rot, t, coords),
                                       params, config)
    expected = geometry.apply_rigid(rot, t, x_a.data)
    scale = max(np.abs(expected).max(), 1.0)
    return {
        "features": float(np.abs(h_b.data - h_a.data).max()),
        "logits": float(np.abs(logits_b.data - logits_a.data).max()),
        "coords": float(np.abs(x_b.data - expected).max() / scale),
    }


def run_equivariance_suite(params, config: ModelConfig,
                           trials: int | None = None) -> dict:
    """Random (input, transform) pairs against ``params``, N in {5, 50}."""
    rng = np.random.default_rng(SEED)
    params = constant_views(params)
    worst = {"features": 0.0, "logits": 0.0, "coords": 0.0}
    for trial in range(EQUIVARIANCE_TRIALS if trials is None else trials):
        n = min((5, 50)[trial % 2], config.max_len)
        dev = equivariance_deviation(params, config, n, rng)
        for key in worst:
            worst[key] = max(worst[key], dev[key])
    worst["passed"] = max(worst.values()) < EQUIVARIANCE_TOL
    return worst


def run_gradient_suite(params, config: ModelConfig, vocab) -> dict:
    """Central finite differences of the full joint loss, every tensor.

    Samples up to ``FD_SAMPLES`` coordinates in each parameter tensor and
    compares the analytic gradient against (f(θ+h)-f(θ-h))/2h, h = FD_STEP.
    """
    rng = np.random.default_rng(SEED)
    n = min(6, config.max_len)
    seq = "".join(AMINO_ACIDS[i]
                  for i in rng.integers(0, NUM_AMINO_ACIDS, n))
    rec = EnzymeRecord("grad-check", seq, rng.normal(0.0, 3.0, (n, 3)),
                       sites=[i for i in (0, 2) if i < n],
                       tag=vocab.levels[3][0])
    substrate = SubstrateRecord("sub", rng.normal(0.0, 1.0, (4, SUBSTRATE_FEATURES)),
                                rng.normal(0.0, 2.0, (4, 3)))
    init_seed = int(rng.integers(2 ** 31))

    def loss():
        (total, _), _ = record_loss(rec, params, config, vocab,
                                    np.random.default_rng(init_seed),
                                    substrate, 1)
        return total

    zero_grads(params)
    loss().backward()

    worst = 0.0
    worst_name = ""
    for name in sorted(params):
        p = params[name]
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        count = min(FD_SAMPLES, p.size)
        picks = rng.choice(p.size, size=count, replace=False)
        fd = finite_difference_gradient(lambda _: loss().item(), p.data,
                                        FD_STEP, picks).reshape(-1)[picks]
        g = grad.reshape(-1)[picks]
        # relative error with an absolute floor: FD roundoff at h=1e-5
        # is ~1e-10 even where the true gradient is exactly zero
        rel = float((np.abs(g - fd)
                     / (np.maximum(np.abs(g), np.abs(fd)) + 1e-3)).max())
        if rel > worst:
            worst, worst_name = rel, name
    return {"max_relative_error": worst, "worst": worst_name,
            "passed": worst < GRADIENT_TOL}


def run_binding_invariance_suite(params, config: ModelConfig,
                                 trials: int | None = None) -> dict:
    """Binding probabilities under atom permutation and rigid transforms."""
    rng = np.random.default_rng(SEED)
    params = constant_views(params)

    def probabilities(enzyme, coords, *substrates):
        """Bind probabilities of each (features, coords) substrate."""
        _, _, h_e = forward_stack(*enzyme, coords, params, config)
        return [softmax(binding_scores(
            h_e, substrate_forward(f, x, params, config), params).data, -1)
            for f, x in substrates]

    worst_perm, worst_rigid = 0.0, 0.0
    for _ in range(BINDING_TRIALS if trials is None else trials):
        m = int(rng.integers(2, 8))
        n = min(int(rng.integers(4, 12)), config.max_len)
        *enzyme, coords = random_instance(n, rng)
        feats = rng.normal(0.0, 1.0, (m, SUBSTRATE_FEATURES))
        sub_coords = rng.normal(0.0, 2.0, (m, 3))
        perm = rng.permutation(m)
        rot_e, t_e = geometry.random_rigid(rng)
        rot_s, t_s = geometry.random_rigid(rng)

        base, p_perm = probabilities(enzyme, coords, (feats, sub_coords),
                                     (feats[perm], sub_coords[perm]))
        (p_rigid,) = probabilities(
            enzyme, geometry.apply_rigid(rot_e, t_e, coords),
            (feats, geometry.apply_rigid(rot_s, t_s, sub_coords)))
        worst_perm = max(worst_perm, float(np.abs(p_perm - base).max()))
        worst_rigid = max(worst_rigid, float(np.abs(p_rigid - base).max()))
    return {"permutation": worst_perm, "rigid": worst_rigid,
            "passed": worst_perm < PERMUTATION_TOL and worst_rigid < RIGID_TOL}
