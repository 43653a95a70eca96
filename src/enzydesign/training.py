"""Joint objective, optimizer, and the training loop.

The objective is the sum of a sequence negative log-likelihood over free
(not teacher-forced) positions, a weighted squared coordinate residual
over the same positions, and (in phase 2) a binding cross-entropy.
Training, masked-modeling pretraining and evaluation all go through one
forward-and-loss path, ``record_loss``, and the first two through one
loop, ``train``: pretraining differs only in its masking policy (a fresh
random fraction of residues per record each step, not the motif) and in
leaving the binding term off.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict, fields

import numpy as np

from . import geometry
from . import numerics as nm
from .config import ModelConfig
from .enzyme_model import forward_stack, greedy_decode
from .numerics import NumericsError, Tensor
from .parameters import save_checkpoint, zero_grads
from .residues import NUM_AMINO_ACIDS
from .substrate_model import binding_scores, substrate_forward


@dataclass
class LossBreakdown:
    seq_nll: float
    coord_l2: float
    binding_ce: float
    total: float
    free_residues: int = 0

    def line(self, step: int) -> str:
        return (f"{step}\t{self.seq_nll:.17g}\t{self.coord_l2:.17g}\t"
                f"{self.binding_ce:.17g}\t{self.total:.17g}")


@dataclass
class TrainSchedule:
    phase1_steps: int = 100
    phase2_steps: int = 400
    learning_rate: float = 3e-4
    batch_residues: int = 8192
    seed: int = 0
    mlm_pretrain_steps: int = 0
    mlm_mask_fraction: float = 0.20
    mlm_respect_motif: bool = False

    def validate(self) -> "TrainSchedule":
        if not 0.0 <= self.mlm_mask_fraction < 1.0:
            raise ValueError("mlm_mask_fraction must lie in [0, 1)")
        if self.phase1_steps < 0 or self.phase2_steps < 0:
            raise ValueError("step counts must be nonnegative")
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "TrainSchedule":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown schedule keys: {sorted(unknown)}")
        return cls(**d).validate()

    def to_dict(self) -> dict:
        return asdict(self)


def joint_loss(logits: Tensor, target_seq, coords_out: Tensor, target_coords,
               free_mask, coord_weight: float, binding=None, y: int | None = None):
    """The joint objective for one enzyme.

    ``binding`` is the pre-softmax 2-vector of binding scores (phase 2)
    or None (phase 1). Returns (total Tensor, LossBreakdown).
    """
    free = np.asarray(free_mask, dtype=bool)
    n_free = int(free.sum())

    if n_free:
        target_seq = np.asarray(target_seq, dtype=np.intp)
        onehot = np.zeros((len(free), NUM_AMINO_ACIDS))
        onehot[np.arange(len(free)), target_seq] = 1.0
        onehot[~free] = 0.0
        lp = nm.log_softmax(logits, axis=-1)
        seq_nll = -nm.tensor_sum(lp * Tensor(onehot))

        diff = coords_out - Tensor(np.asarray(target_coords, dtype=np.float64))
        free_col = Tensor(free.astype(np.float64)[:, None])
        coord_l2 = nm.tensor_sum(diff * diff * free_col) * coord_weight
    else:
        seq_nll = Tensor(0.0)
        coord_l2 = Tensor(0.0)

    total = seq_nll + coord_l2
    binding_ce = Tensor(0.0)
    if binding is not None:
        if y not in (0, 1):
            raise ValueError(f"binding label must be 0 or 1, got {y!r}")
        pick = np.zeros(2)
        pick[y] = 1.0
        lp_bind = nm.log_softmax(nm.reshape(binding, (1, 2)), axis=-1)
        binding_ce = -nm.tensor_sum(lp_bind * Tensor(pick[None, :]))
        total = total + binding_ce

    breakdown = LossBreakdown(seq_nll.item(), coord_l2.item(),
                              binding_ce.item(), total.item(), n_free)
    return total, breakdown


class Adam:
    """Adam with constant learning rate over a named parameter dict."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * p.grad
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * p.grad ** 2
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _pack_batches(records, budget: int, rng) -> list[list]:
    """Seeded shuffle, then greedy packing by total residue count."""
    order = [records[i] for i in rng.permutation(len(records))]
    batches, current, used = [], [], 0
    for rec in order:
        n = len(rec.sequence)
        if current and used + n > budget:
            batches.append(current)
            current, used = [], 0
        current.append(rec)
        used += n
    if current:
        batches.append(current)
    return batches


def draw_mlm_mask(n: int, fraction: float, rng, motif_mask=None) -> np.ndarray:
    """Boolean mask of round(fraction*n) freshly masked positions."""
    candidates = np.arange(n)
    if motif_mask is not None:
        candidates = candidates[~np.asarray(motif_mask, dtype=bool)]
    count = min(int(round(fraction * n)), len(candidates))
    masked = np.zeros(n, dtype=bool)
    if count:
        picks = rng.choice(candidates, size=count, replace=False)
        masked[picks] = True
    return masked


def record_loss(rec, params, config: ModelConfig, rng,
                substrate=None, y: int | None = None, known=None):
    """Forward pass + joint loss for one record.

    ``known`` marks the teacher-forced residues (types and coordinates
    given); the loss covers the rest. It defaults to the record's motif.
    """
    known = rec.site_mask if known is None else known
    coords0 = geometry.init_coordinates(rec.coords[known], np.where(known)[0],
                                        len(rec.sequence), rng,
                                        config.bond_length)
    logits, coords_out, feats = forward_stack(rec.seq_indices, known,
                                              rec.tag_idx, coords0, params,
                                              config)
    binding = None
    if substrate is not None:
        sub_feats = substrate_forward(substrate.features, substrate.coords,
                                      params, config)
        binding = binding_scores(feats, sub_feats, params)
    return joint_loss(logits, rec.seq_indices, coords_out, rec.coords,
                      ~known, config.coord_loss_weight, binding, y), logits


class TrainResult:
    def __init__(self):
        self.history: list[LossBreakdown] = []
        self.aborted = False


def train(records, substrate_pool, params, config: ModelConfig,
          schedule: TrainSchedule, vocab, checkpoint_path=None,
          loss_log_path=None, start_step: int = 0,
          mlm: bool = False) -> TrainResult:
    """One loop for both training stages; deterministic given the seed.

    By default: the two-phase schedule, motif teacher-forced, binding
    term from ``phase1_steps`` on. With ``mlm``: ``mlm_pretrain_steps``
    of masked pretraining, each step hiding a fresh random fraction of
    every record, binding term off, RNG seeded with ``seed + 1``.

    On numeric divergence the loop stops holding the parameters at which
    the last finite loss was computed; the checkpoint keeps them, with
    the number of updates behind them as its step.
    """
    schedule.validate()
    if mlm:
        rng = np.random.default_rng(schedule.seed + 1)
        total_steps, substrate_pool = schedule.mlm_pretrain_steps, None
    else:
        rng = np.random.default_rng(schedule.seed)
        total_steps = schedule.phase1_steps + schedule.phase2_steps
    opt = Adam(params, schedule.learning_rate)
    result = TrainResult()
    records = sorted(records, key=lambda r: r.id)
    for rec in records:
        rec.tag_idx = vocab.encode(rec.tag)

    pool_ids = sorted(substrate_pool or ())
    log_lines = []
    last_good: dict = {}
    step = start_step
    batches: list = []
    epoch_pairings: dict = {}
    while step < total_steps:
        if not batches:
            batches = _pack_batches(records, schedule.batch_residues, rng)
            if pool_ids:
                # fresh negatives each epoch; experimental positives are kept
                epoch_pairings = {}
                for rec in records:
                    if rec.binding_label == 1 and rec.substrate_id:
                        epoch_pairings[rec.id] = (rec.substrate_id, 1)
                    else:
                        own = ({rec.substrate_id} if rec.binding_label == 1
                               else set())
                        candidates = [s for s in pool_ids if s not in own]
                        pick = candidates[int(rng.integers(len(candidates)))]
                        epoch_pairings[rec.id] = (pick, 0)
        batch = batches.pop(0)
        phase2 = step >= schedule.phase1_steps

        zero_grads(params)
        try:
            total = Tensor(0.0)
            agg = LossBreakdown(0.0, 0.0, 0.0, 0.0, 0)
            for rec in batch:
                substrate, y = None, None
                if phase2 and rec.id in epoch_pairings:
                    sid, y = epoch_pairings[rec.id]
                    substrate = substrate_pool[sid]
                known = None
                if mlm:
                    masked = draw_mlm_mask(
                        len(rec.sequence), schedule.mlm_mask_fraction, rng,
                        rec.site_mask if schedule.mlm_respect_motif else None)
                    known = ~masked
                (rec_total, bd), _ = record_loss(rec, params, config, rng,
                                                 substrate, y, known)
                total = total + rec_total
                agg.seq_nll += bd.seq_nll
                agg.coord_l2 += bd.coord_l2
                agg.binding_ce += bd.binding_ce
                agg.free_residues += bd.free_residues
            agg.total = agg.seq_nll + agg.coord_l2 + agg.binding_ce
            total.backward()
        except NumericsError:
            result.aborted = True
            if last_good:  # undo the update that led to the divergence
                for k, data in last_good.items():
                    params[k].data = data
                step -= 1
            break
        last_good = {k: t.data.copy() for k, t in params.items()}
        opt.step()
        result.history.append(agg)
        log_lines.append(agg.line(step))
        step += 1

    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, params, config, vocab, step)
    if loss_log_path is not None:
        mode = "a" if start_step > 0 else "w"
        with open(loss_log_path, mode) as f:
            for line in log_lines:
                f.write(line + "\n")
    return result


def evaluate_recovery(records, params, config: ModelConfig, vocab,
                      seed: int = 0):
    """(nats per free residue, free-residue recovery rate) on a record set."""
    rng = np.random.default_rng(seed)
    nll_sum, free_sum, correct = 0.0, 0, 0
    for rec in sorted(records, key=lambda r: r.id):
        rec.tag_idx = vocab.encode(rec.tag)
        (_, bd), logits = record_loss(rec, params, config, rng)
        nll_sum += bd.seq_nll
        free_sum += bd.free_residues
        mask = rec.site_mask
        decoded = greedy_decode(logits, rec.seq_indices, mask)
        correct += int((decoded[~mask] == rec.seq_indices[~mask]).sum())
    return nll_sum / max(free_sum, 1), correct / max(free_sum, 1)
