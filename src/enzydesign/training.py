"""Joint objective, optimizer, and the training loop.

The objective is the sum of a sequence negative log-likelihood over free
(not teacher-forced) positions, a weighted squared coordinate residual
over the same positions, and (in phase 2) a binding cross-entropy.
Training and masked-modeling pretraining go through one forward-and-loss
path, ``batch_loss``, which packs a batch of records into one forward
(``record_loss`` is its one-record case), and through one loop,
``train``: pretraining differs only in its masking policy (a fresh
random fraction of residues per record each step, not the motif) and in
leaving the binding term off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from . import numerics as nm
from .config import ModelConfig, TrainSchedule
from .enzyme_model import forward_stack
from .numerics import NumericsError, Tensor
from .parameters import save_checkpoint, zero_grads
from .residues import NUM_AMINO_ACIDS
from .substrate_model import binding_scores, substrate_forward

MLM_MASK_FRACTION = 0.20  # share of each record hidden per pretraining step


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


def joint_loss(logits: Tensor, target_seq, coords_out: Tensor, target_coords,
               free_mask, coord_weight: float, binding=None, y=None):
    """The joint objective for one enzyme, or for records packed end to
    end, whose terms are summed.

    ``binding`` holds the pre-softmax binding scores (phase 2), a (B, 2)
    block with one row per record, and ``y`` one 0/1 label per row. It
    is None in phase 1. Returns (total Tensor, LossBreakdown).
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
        labels = np.asarray(y)
        if (labels.ndim != 1 or binding.shape != (len(labels), 2)
                or not all(v in (0, 1) for v in labels)):
            raise ValueError(f"want one 0/1 binding label per row of scores "
                             f"of shape {binding.shape}, got {y!r}")
        pick = np.eye(2)[labels.astype(np.intp)]
        binding_ce = -nm.tensor_sum(nm.log_softmax(binding, axis=-1)
                                    * Tensor(pick))
        total = total + binding_ce

    breakdown = LossBreakdown(seq_nll.item(), coord_l2.item(),
                              binding_ce.item(), total.item(), n_free)
    return total, breakdown


class Adam:
    """Adam with constant learning rate over a named parameter dict."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float):
        self.params, self.lr = params, lr
        # moments start at zero and are stored from a tensor's first update,
        # so a run that takes no step allocates none
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            self.m[name] = (self.BETA1 * self.m.get(name, 0.0)
                            + (1 - self.BETA1) * p.grad)
            self.v[name] = (self.BETA2 * self.v.get(name, 0.0)
                            + (1 - self.BETA2) * p.grad ** 2)
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)


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


def draw_mlm_mask(n: int, fraction: float, rng) -> np.ndarray:
    """Boolean mask of round(fraction*n) freshly masked positions."""
    count = int(round(fraction * n))
    masked = np.zeros(n, dtype=bool)
    if count:
        masked[rng.choice(n, size=count, replace=False)] = True
    return masked


def batch_loss(batch, params, config: ModelConfig, vocab, rng, pairs=None,
               mlm: bool = False):
    """One packed forward pass + the joint loss of a batch of records.

    Each record's EC tag is encoded with ``vocab``. For each record in
    turn, ``mlm`` draws its masked positions and then its free-residue
    coordinates are drawn; the known (teacher-forced) residues are its
    motif, or with ``mlm`` the unmasked ones, and the loss covers the
    rest. ``pairs`` gives each record's (substrate, label) for the
    binding term, or is None (no binding term). The distinct substrates
    run as one packed stack, shared by their records.
    Returns ((total, LossBreakdown), packed logits).
    """
    knowns, coords0 = [], []
    for rec in batch:
        n = len(rec.sequence)
        known = (~draw_mlm_mask(n, MLM_MASK_FRACTION, rng) if mlm
                 else rec.site_mask)
        knowns.append(known)
        coords0.append(geometry.init_coordinates(
            rec.coords[known], np.where(known)[0], n, rng, config.bond_length))
    known = np.concatenate(knowns)
    seq = np.concatenate([rec.seq_indices for rec in batch])
    lengths = [len(rec.sequence) for rec in batch]
    logits, coords_out, feats = forward_stack(
        seq, known, np.stack([vocab.encode(rec.tag) for rec in batch]),
        np.concatenate(coords0), params, config, lengths)
    binding = labels = None
    if pairs is not None:
        subs = list({id(sub): sub for sub, _ in pairs}.values())
        sizes = [len(sub.features) for sub in subs]
        rows = dict(zip(map(id, subs), nm.segments(sizes)))
        h_sub = substrate_forward(np.concatenate([s.features for s in subs]),
                                  np.concatenate([s.coords for s in subs]),
                                  params, config, sizes)
        binding = binding_scores(feats, h_sub, params, lengths,
                                 [rows[id(sub)] for sub, _ in pairs])
        labels = [y for _, y in pairs]
    return joint_loss(logits, seq, coords_out,
                      np.concatenate([rec.coords for rec in batch]), ~known,
                      config.coord_loss_weight, binding, labels), logits


def record_loss(rec, params, config: ModelConfig, vocab, rng,
                substrate=None, y: int | None = None):
    """``batch_loss`` of the one record ``rec``: its motif teacher-forced,
    and the binding term with ``substrate`` and label ``y`` when given."""
    return batch_loss([rec], params, config, vocab, rng,
                      None if substrate is None else [(substrate, y)])


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
    of masked pretraining, each step hiding a fresh ``MLM_MASK_FRACTION``
    of every record, binding term off, RNG seeded with ``seed + 1``.

    On numeric divergence the loop stops holding the parameters at which
    the last finite loss was computed; the checkpoint keeps them, with
    the number of updates behind them as its step.
    """
    if mlm:
        rng = np.random.default_rng(schedule.seed + 1)
        total_steps, substrate_pool = schedule.mlm_pretrain_steps, None
    else:
        rng = np.random.default_rng(schedule.seed)
        total_steps = schedule.phase1_steps + schedule.phase2_steps
    opt = Adam(params, schedule.learning_rate)
    result = TrainResult()
    records = sorted(records, key=lambda r: r.id)

    pool_ids = sorted(substrate_pool or ())
    last_good: dict = {}
    step = start_step
    if step < total_steps:  # the forward's checks, naming the record
        for rec in records:
            try:
                config.check_length(len(rec.sequence))
                vocab.encode(rec.tag)
            except ValueError as exc:  # ConfigError or VocabularyError
                raise type(exc)(f"record {rec.id}: {exc}") from None
    batches: list = []
    epoch_pairings: dict = {}
    while step < total_steps:
        if not batches:
            batches = _pack_batches(records, schedule.batch_residues, rng)
            if pool_ids:
                # the one place negatives are drawn: a fresh one each epoch
                # for every record without a label-1 pairing
                epoch_pairings = {}
                for rec in records:
                    if rec.binding_label == 1:
                        epoch_pairings[rec.id] = (rec.substrate_id, 1)
                    else:
                        pick = pool_ids[int(rng.integers(len(pool_ids)))]
                        epoch_pairings[rec.id] = (pick, 0)
        batch = batches.pop(0)
        pairs = None
        if step >= schedule.phase1_steps and epoch_pairings:
            pairs = [(substrate_pool[sid], y) for sid, y in
                     (epoch_pairings[rec.id] for rec in batch)]

        zero_grads(params)
        try:
            (total, agg), _ = batch_loss(batch, params, config, vocab, rng,
                                         pairs, mlm)
            if not np.isfinite(total.item()):
                raise NumericsError("non-finite loss")
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
        step += 1

    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, params, config, vocab, step)
    if loss_log_path is not None:
        mode = "a" if start_step > 0 else "w"
        with open(loss_log_path, mode) as f:
            for i, agg in enumerate(result.history):
                f.write(agg.line(start_step + i) + "\n")
    return result
