import json
from pathlib import Path

import numpy as np
import pytest

import enzydesign.numerics as nm
import enzydesign.training as training
from enzydesign import geometry
from enzydesign.config import ModelConfig, read_run_config
from enzydesign.data import EnzymeRecord
from enzydesign.enzyme_model import forward_stack
from enzydesign.numerics import Tensor, finite_difference_gradient
from enzydesign.parameters import (TagVocabulary, init_parameters,
                                   load_checkpoint, zero_grads)
from enzydesign.residues import AMINO_ACIDS
from enzydesign.substrate_model import binding_scores, substrate_forward
from enzydesign.training import (Adam, TrainSchedule, _pack_batches,
                                 batch_loss, draw_mlm_mask, evaluate_recovery,
                                 joint_loss, record_loss, train)
from fixtures import make_toy_corpus

REPO = Path(__file__).resolve().parent.parent


def small_config(**kw):
    kw.setdefault("d", 8)
    kw.setdefault("num_heads", 2)
    kw.setdefault("attention_sublayers", 2)
    kw.setdefault("interleave_period", 1)
    kw.setdefault("k_neighbors", 3)
    return ModelConfig(**kw)


def toy_setup(config=None, seed=0):
    records, pool = make_toy_corpus()
    vocab = TagVocabulary.from_tags([r.tag for r in records])
    config = config or small_config()
    params = init_parameters(config, vocab, np.random.default_rng(seed))
    return records, pool, vocab, config, params


class TestJointLoss:
    def test_coord_weight_default_is_one(self):
        assert ModelConfig().coord_loss_weight == 1.0

    def test_uniform_logits_single_free_position(self):
        logits = Tensor(np.zeros((1, 20)))
        total, bd = joint_loss(logits, np.array([4]), Tensor(np.zeros((1, 3))),
                               np.zeros((1, 3)), np.array([True]), 1.0)
        assert abs(bd.seq_nll - np.log(20.0)) < 1e-12
        assert bd.coord_l2 == 0.0

    def test_perfect_coordinates_zero_residual(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(4, 3))
        logits = Tensor(rng.normal(size=(4, 20)))
        _, bd = joint_loss(logits, rng.integers(0, 20, 4), Tensor(coords),
                           coords, np.ones(4, bool), 1.0)
        assert bd.coord_l2 == 0.0

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(1)
        n = 6
        logits_arr = rng.normal(size=(n, 20))
        target = rng.integers(0, 20, n)
        coords_out = rng.normal(size=(n, 3))
        coords_tgt = rng.normal(size=(n, 3))
        free = np.array([True, False, True, True, False, True])
        binding_arr = rng.normal(size=2)
        total, bd = joint_loss(Tensor(logits_arr), target, Tensor(coords_out),
                               coords_tgt, free, 1.0, Tensor(binding_arr), 1)

        lse = np.log(np.exp(logits_arr).sum(axis=-1))
        nll = sum(lse[i] - logits_arr[i, target[i]] for i in range(n) if free[i])
        cl2 = sum(np.sum((coords_out[i] - coords_tgt[i]) ** 2)
                  for i in range(n) if free[i])
        bce = np.log(np.exp(binding_arr).sum()) - binding_arr[1]
        assert abs(bd.seq_nll - nll) < 1e-10
        assert abs(bd.coord_l2 - cl2) < 1e-10
        assert abs(bd.binding_ce - bce) < 1e-10
        assert abs(total.item() - (nll + cl2 + bce)) < 1e-10

    def test_additivity_exact(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(1, 8))
            free = rng.random(n) < 0.6
            binding = Tensor(rng.normal(size=2)) if trial % 2 else None
            y = int(rng.integers(2)) if binding is not None else None
            total, bd = joint_loss(Tensor(rng.normal(size=(n, 20))),
                                   rng.integers(0, 20, n),
                                   Tensor(rng.normal(size=(n, 3))),
                                   rng.normal(size=(n, 3)), free, 1.0,
                                   binding, y)
            assert bd.total == bd.seq_nll + bd.coord_l2 + bd.binding_ce
            assert bd.seq_nll >= 0 and bd.coord_l2 >= 0 and bd.binding_ce >= 0

    def test_all_motif_positions_zero_loss(self):
        rng = np.random.default_rng(3)
        total, bd = joint_loss(Tensor(rng.normal(size=(3, 20))),
                               rng.integers(0, 20, 3),
                               Tensor(rng.normal(size=(3, 3))),
                               rng.normal(size=(3, 3)), np.zeros(3, bool), 1.0)
        assert total.item() == 0.0

    def test_binding_rows_sum_per_record_terms(self):
        """One row of scores per record, one label each: the sum of the
        per-record cross-entropies."""
        rng = np.random.default_rng(5)
        scores, labels = rng.normal(size=(3, 2)), [1, 0, 1]
        args = (Tensor(np.zeros((1, 20))), np.array([0]),
                Tensor(np.zeros((1, 3))), np.zeros((1, 3)),
                np.array([False]), 1.0)
        _, bd = joint_loss(*args, Tensor(scores), labels)
        each = [joint_loss(*args, Tensor(row), y)[1].binding_ce
                for row, y in zip(scores, labels)]
        assert abs(bd.binding_ce - sum(each)) < 1e-12

    def test_bad_binding_label(self):
        with pytest.raises(ValueError):
            joint_loss(Tensor(np.zeros((1, 20))), np.array([0]),
                       Tensor(np.zeros((1, 3))), np.zeros((1, 3)),
                       np.array([True]), 1.0, Tensor(np.zeros(2)), 2)

    def test_se3_invariance_of_total(self):
        """One shared rigid motion on input and target coords: same loss."""
        records, pool, vocab, config, params = toy_setup()
        params = init_parameters(config, vocab, np.random.default_rng(0),
                                 zero_coord_scale=False)
        rec = records[0]
        rec.tag_idx = vocab.encode(rec.tag)
        mask = rec.site_mask
        rng = np.random.default_rng(4)
        coords0 = geometry.init_coordinates(rec.coords[mask], np.where(mask)[0],
                                            len(rec.sequence), rng,
                                            config.bond_length)
        rot, t = geometry.random_rigid(rng)
        totals = []
        for c0, tgt in ((coords0, rec.coords),
                        (geometry.apply_rigid(rot, t, coords0),
                         geometry.apply_rigid(rot, t, rec.coords))):
            logits, coords_out, _ = forward_stack(rec.seq_indices, mask,
                                                  rec.tag_idx, c0, params,
                                                  config)
            total, _ = joint_loss(logits, rec.seq_indices, coords_out, tgt,
                                  ~mask, config.coord_loss_weight)
            totals.append(total.item())
        assert abs(totals[0] - totals[1]) < 1e-8


class TestAdam:
    def test_single_parameter_oracle(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        m = v = 0.0
        x = 1.0
        for t in range(1, 4):
            g = 2.0 * p.data[0]
            p.grad = np.array([g])
            gx = 2.0 * x
            m = 0.9 * m + 0.1 * gx
            v = 0.999 * v + 0.001 * gx ** 2
            x -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            opt.step()
            assert abs(p.data[0] - x) < 1e-12

    def test_none_grad_skipped(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = None
        opt.step()
        assert p.data[0] == 3.0


class TestBatching:
    def test_every_record_once_per_epoch(self):
        records, _, _, _, _ = toy_setup()
        batches = _pack_batches(records, 30, np.random.default_rng(0))
        seen = [r.id for b in batches for r in b]
        assert sorted(seen) == sorted(r.id for r in records)

    def test_budget_respected(self):
        records, _, _, _, _ = toy_setup()
        batches = _pack_batches(records, 30, np.random.default_rng(1))
        for b in batches:
            total = sum(len(r.sequence) for r in b)
            assert total <= 30 or len(b) == 1

    def test_shuffle_is_seeded(self):
        records, _, _, _, _ = toy_setup()
        a = _pack_batches(records, 25, np.random.default_rng(7))
        b = _pack_batches(records, 25, np.random.default_rng(7))
        assert [[r.id for r in batch] for batch in a] == \
               [[r.id for r in batch] for batch in b]


class TestTrainLoop:
    def test_phase_gate(self):
        records, pool, vocab, config, params = toy_setup()
        sched = TrainSchedule(phase1_steps=3, phase2_steps=3, seed=0)
        res = train(records, pool, params, config, sched, vocab)
        assert len(res.history) == 6
        for step, bd in enumerate(res.history):
            if step < 3:
                assert bd.binding_ce == 0.0
            else:
                assert bd.binding_ce > 0.0

    def test_fixed_seed_bit_reproducible(self, tmp_path):
        logs = []
        finals = []
        for run in range(2):
            records, pool, vocab, config, params = toy_setup()
            sched = TrainSchedule(phase1_steps=2, phase2_steps=3, seed=3)
            log = tmp_path / f"loss{run}.log"
            train(records, pool, params, config, sched, vocab,
                  loss_log_path=log)
            logs.append(log.read_text())
            finals.append({k: t.data.copy() for k, t in params.items()})
        assert logs[0] == logs[1]
        for k in finals[0]:
            np.testing.assert_array_equal(finals[0][k], finals[1][k])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_last_good_params(self):
        for lr, finite_steps in ((1e12, 2), (1e18, 1)):
            records, pool, vocab, config, params = toy_setup()
            sched = TrainSchedule(phase1_steps=10, phase2_steps=0,
                                  learning_rate=lr, seed=0)
            res = train(records, pool, params, config, sched, vocab)
            assert res.aborted and len(res.history) == finite_steps
            # the last finite loss was computed after finite_steps - 1 updates
            records, pool, vocab, config, last_good = toy_setup()
            sched.phase1_steps = finite_steps - 1
            train(records, pool, last_good, config, sched, vocab)
            for k, t in params.items():
                np.testing.assert_array_equal(t.data, last_good[k].data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_checkpoint_step_counts_updates(self, tmp_path):
        """The saved step is the number of updates behind the saved θ."""
        ckpt = tmp_path / "m.ckpt"
        for lr, start_step, updates in ((1e12, 0, 1), (1e18, 3, 3)):
            records, pool, vocab, config, params = toy_setup()
            sched = TrainSchedule(phase1_steps=10, phase2_steps=0,
                                  learning_rate=lr, seed=0)
            res = train(records, pool, params, config, sched, vocab,
                        checkpoint_path=ckpt, start_step=start_step)
            assert res.aborted
            assert load_checkpoint(ckpt)[3] == updates

    def test_loss_log_append_on_resume(self, tmp_path):
        records, pool, vocab, config, params = toy_setup()
        log = tmp_path / "loss.log"
        sched = TrainSchedule(phase1_steps=2, phase2_steps=0, seed=0)
        train(records, pool, params, config, sched, vocab, loss_log_path=log)
        sched2 = TrainSchedule(phase1_steps=2, phase2_steps=2, seed=0)
        train(records, pool, params, config, sched2, vocab,
              loss_log_path=log, start_step=2)
        steps = [int(line.split("\t")[0]) for line in
                 log.read_text().splitlines()]
        assert steps == [0, 1, 2, 3]

    def test_record_loss_gradient_matches_finite_differences(self):
        records, pool, vocab, config, params = toy_setup()
        rec = records[0]
        rec.tag_idx = vocab.encode(rec.tag)
        sub = pool["sub0"]

        def loss_fn():
            (total, _), _ = record_loss(rec, params, config,
                                        np.random.default_rng(11), sub, 1)
            return total

        loss_fn().backward()
        for name in ("emb/amino", "attn0/q/w", "neigh0/msg1/w",
                     "sub/input/w", "binding/out/w"):
            p = params[name]
            idx = np.linspace(0, p.size - 1, 3, dtype=int)
            fd = finite_difference_gradient(lambda _: loss_fn().item(), p.data,
                                            indices=idx).reshape(-1)[idx]
            g = p.grad.reshape(-1)[idx]
            rel = np.abs(g - fd) / (np.maximum(np.abs(g), np.abs(fd)) + 1e-3)
            assert rel.max() < 1e-5, name


def mixed_batch():
    """Three toy records around a 20-residue one, each paired with a
    substrate (sub0 twice). With k = 12 the toy records have K = 11 and
    the long one K = 12, so the neighborhood tiles have two widths."""
    records, pool, vocab, _, _ = toy_setup()
    rng = np.random.default_rng(12)
    n = 20
    long = EnzymeRecord("long", "".join(rng.choice(list(AMINO_ACIDS), n)),
                        np.cumsum(rng.normal(size=(n, 3)) * 2.0, axis=0),
                        sites=[0, 4, 9, 13, 17], tag=records[0].tag)
    batch = [records[0], long, records[1], records[2]]
    for rec in batch:
        rec.tag_idx = vocab.encode(rec.tag)
    pairs = [(pool["sub0"], 1), (pool["sub1"], 0), (pool["sub0"], 0),
             (pool["sub2"], 1)]
    config = small_config(k_neighbors=12)
    params = init_parameters(config, vocab, np.random.default_rng(0),
                             zero_coord_scale=False)
    return batch, pairs, params, config


class TestPackedBatch:
    """``batch_loss`` packs a batch into one forward; ``record_loss`` is its
    one-record case."""

    @pytest.mark.parametrize("tile", [128, 5])
    def test_matches_one_record_path(self, monkeypatch, tile):
        """Per-record logits, the loss terms and every parameter gradient
        agree with one record at a time to 1e-12 relative."""
        monkeypatch.setattr(nm, "ROW_TILE", tile)
        batch, pairs, params, config = mixed_batch()
        rng = np.random.default_rng(8)
        singles, logits, grads = [], [], {}
        for rec, (sub, y) in zip(batch, pairs):
            zero_grads(params)
            (total, bd), lg = record_loss(rec, params, config, rng, sub, y)
            total.backward()
            singles.append(bd)
            logits.append(lg.data)
            for k, t in params.items():
                if t.grad is not None:
                    grads[k] = grads.get(k, 0.0) + t.grad
        zero_grads(params)
        (total, bd), packed = batch_loss(batch, params, config,
                                         np.random.default_rng(8), pairs)
        total.backward()

        np.testing.assert_allclose(packed.data, np.concatenate(logits),
                                   rtol=1e-12, atol=0)
        for term in ("seq_nll", "coord_l2", "binding_ce", "total"):
            want = sum(getattr(b, term) for b in singles)
            assert abs(getattr(bd, term) - want) <= 1e-12 * abs(want), term
        assert bd.free_residues == sum(b.free_residues for b in singles)
        assert grads.keys() == {k for k, t in params.items()
                                if t.grad is not None}
        # relative to the largest gradient: some (attn*/k/b) are zero
        # up to roundoff
        scale = max(np.abs(g).max() for g in grads.values())
        for k, g in grads.items():
            np.testing.assert_allclose(params[k].grad, g, rtol=0,
                                       atol=1e-12 * scale, err_msg=k)

    def test_phase2_step_is_one_forward_and_one_stack_per_substrate(
            self, monkeypatch):
        """Eight records over three substrates: one enzyme forward and
        three substrate stacks."""
        records, pool, vocab, config, params = toy_setup()
        forwards, stacks = [], []

        def spy(fn, log):
            def wrapped(*args, **kwargs):
                log.append(args[0])
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(training, "forward_stack",
                            spy(training.forward_stack, forwards))
        monkeypatch.setattr(training, "substrate_forward",
                            spy(training.substrate_forward, stacks))
        sched = TrainSchedule(phase1_steps=0, phase2_steps=1, seed=0)
        train(records, pool, params, config, sched, vocab)
        assert len(forwards) == 1 and len(forwards[0]) == 8 * 12
        by_features = {id(sub.features): name for name, sub in pool.items()}
        assert sorted(by_features[id(f)] for f in stacks) == \
            ["sub0", "sub1", "sub2"]

    def test_toy_config_step_tensor_count(self, monkeypatch):
        """One phase-2 step of the toy config's model over the toy corpus
        (eight length-12 records, three substrates) builds 558 tensors,
        interior nodes and constants alike; one forward and one substrate
        stack per record built 2497."""
        model_cfg = read_run_config(json.loads(
            (REPO / "configs/toy.json").read_text()))[0]
        records, pool, vocab, _, _ = toy_setup()
        params = init_parameters(model_cfg, vocab, np.random.default_rng(0))
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        sched = TrainSchedule(phase1_steps=0, phase2_steps=1, seed=0)
        train(records, pool, params, model_cfg, sched, vocab)
        assert len(built) == 558

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("primitive", ["silu", "log_softmax"])
    def test_nan_planted_mid_graph_keeps_last_good_params(
            self, monkeypatch, tmp_path, primitive):
        """A primitive that returns a NaN from the third step on: the loop
        stops holding the parameters of the second step's finite loss, one
        update in, and the checkpoint says so. ``forward_stack``'s output
        check catches ``silu`` (message layers), the loss check
        ``log_softmax`` (the loss itself)."""
        records, pool, vocab, config, params = toy_setup()
        armed = []
        step, original = Adam.step, getattr(nm, primitive)

        def counted(opt):
            step(opt)
            if opt.t == 2:
                armed.append(True)

        def planted(*args, **kwargs):
            out = original(*args, **kwargs)
            if armed:
                out.data.flat[0] = np.nan
            return out

        monkeypatch.setattr(Adam, "step", counted)
        monkeypatch.setattr(nm, primitive, planted)
        sched = TrainSchedule(phase1_steps=2, phase2_steps=3, seed=0)
        ckpt = tmp_path / "m.ckpt"
        res = train(records, pool, params, config, sched, vocab,
                    checkpoint_path=ckpt)
        assert res.aborted and len(res.history) == 2
        assert load_checkpoint(ckpt)[3] == 1
        monkeypatch.undo()
        records, pool, vocab, config, last_good = toy_setup()
        sched.phase1_steps, sched.phase2_steps = 1, 0
        train(records, pool, last_good, config, sched, vocab)
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, last_good[k].data)


class TestEvaluateRecovery:
    def test_matches_direct_computation(self):
        """Nats and recovery recomputed from forward_stack logits."""
        records, _, vocab, config, params = toy_setup()
        records = records[:2]
        rng = np.random.default_rng(5)
        logits = {}
        for rec in records:
            rec.tag_idx = vocab.encode(rec.tag)
            mask = rec.site_mask
            coords0 = geometry.init_coordinates(rec.coords[mask],
                                                np.where(mask)[0],
                                                len(rec.sequence), rng,
                                                config.bond_length)
            logits[rec.id] = forward_stack(rec.seq_indices, mask, rec.tag_idx,
                                           coords0, params, config)[0].data
        # free residue types are not model inputs: make one prediction right
        rec = records[0]
        i = int(np.where(~rec.site_mask)[0][0])
        aa = AMINO_ACIDS[int(logits[rec.id][i].argmax())]
        rec.sequence = rec.sequence[:i] + aa + rec.sequence[i + 1:]

        nll, hits, free_total = 0.0, 0, 0
        for rec in records:
            lg, seq, free = logits[rec.id], rec.seq_indices, ~rec.site_mask
            lse = np.log(np.exp(lg).sum(axis=-1))
            nll += (lse - lg[np.arange(len(seq)), seq])[free].sum()
            hits += int((lg.argmax(axis=-1) == seq)[free].sum())
            free_total += int(free.sum())
        assert hits >= 1
        nats, recovery = evaluate_recovery(records, params, config, vocab,
                                           seed=5)
        assert abs(nats - nll / free_total) < 1e-12
        assert recovery == hits / free_total


    def test_builds_no_graph(self, monkeypatch):
        """No evaluation tensor has parents, and the caller's parameters
        keep their gradient flag and get no gradient."""
        records, _, vocab, config, params = toy_setup()
        taped = []
        init = Tensor.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            taped.extend(self._parents[:1])

        monkeypatch.setattr(Tensor, "__init__", spy)
        evaluate_recovery(records[:2], params, config, vocab)
        assert taped == []
        assert all(t.requires_grad and t.grad is None
                   for t in params.values())


class TestMLM:
    def test_mask_count_exactly_round_fraction(self):
        rng = np.random.default_rng(0)
        for n, frac, want in ((10, 0.2, 2), (12, 0.2, 2), (13, 0.2, 3),
                              (5, 0.5, 2)):
            mask = draw_mlm_mask(n, frac, rng)
            assert mask.sum() == want, (n, frac)

    def test_mask_uniformity(self):
        """Per-position hit rate within 3 sigma of the binomial mean."""
        rng = np.random.default_rng(1)
        n, frac, trials = 10, 0.2, 4000
        hits = np.zeros(n)
        for _ in range(trials):
            hits += draw_mlm_mask(n, frac, rng)
        p = 0.2
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(hits - trials * p) < 3 * sigma)

    def test_pretrain_runs_and_is_deterministic(self):
        hist = []
        for _ in range(2):
            records, pool, vocab, config, params = toy_setup()
            sched = TrainSchedule(phase1_steps=0, phase2_steps=0,
                                  mlm_pretrain_steps=3, seed=5)
            res = train(records, pool, params, config, sched, vocab, mlm=True)
            hist.append([b.total for b in res.history])
            assert len(res.history) == 3
            assert all(b.binding_ce == 0.0 for b in res.history)
        assert hist[0] == hist[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_last_good_params(self):
        for lr, finite_steps in ((1e12, 2), (1e18, 1)):
            records, pool, vocab, config, params = toy_setup()
            sched = TrainSchedule(mlm_pretrain_steps=10, learning_rate=lr,
                                  seed=0)
            res = train(records, pool, params, config, sched, vocab, mlm=True)
            assert res.aborted and len(res.history) == finite_steps
            records, pool, vocab, config, last_good = toy_setup()
            sched.mlm_pretrain_steps = finite_steps - 1
            train(records, pool, last_good, config, sched, vocab, mlm=True)
            for k, t in params.items():
                np.testing.assert_array_equal(t.data, last_good[k].data)

    def test_zero_steps_is_noop(self):
        records, pool, vocab, config, params = toy_setup()
        before = {k: t.data.copy() for k, t in params.items()}
        sched = TrainSchedule(mlm_pretrain_steps=0, seed=0)
        res = train(records, pool, params, config, sched, vocab, mlm=True)
        assert res.history == []
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, before[k])


class TestSchedule:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            TrainSchedule.from_dict({"phase1_steps": 1, "bogus": 2})

    def test_round_trip(self):
        s = TrainSchedule(phase1_steps=7, seed=9)
        assert TrainSchedule.from_dict(s.to_dict()) == s
