"""Acceptance gate: the nine primary product criteria, one test each,
and one test that pins the bounds the property suites hold.

Each criterion test prints a single pass/fail line (run with
``pytest -s`` to see them) and asserts the stated tolerance and runtime
budget.
"""
import json
import time
from pathlib import Path

import numpy as np

from enzydesign import geometry, verify
from enzydesign.cli import _load_corpus, load_run_config, main
from enzydesign.config import ModelConfig
from enzydesign.data import (assemble_dataset, global_alignment_identity,
                             make_split_manifest)
from enzydesign.numerics import Tensor
from enzydesign.parameters import (TagVocabulary, constant_views,
                                   init_parameters)
from enzydesign.site_miner import AlignedFamily
from enzydesign.training import joint_loss, train
from enzydesign.verify import run_binding_invariance_suite, run_gradient_suite
from fixtures import write_toy_tree
from helpers import (conserved_columns, evaluate_recovery,
                     init_generic_parameters)

REPO = Path(__file__).resolve().parent.parent


def report(number, name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_se3_equivariance():
    """200 (model, input, transform) triples: each trial draws a fresh
    random model, d in {8, 64} by N in {5, 50} in turn, from one
    generator seeded with the suites' seed."""
    t0 = time.monotonic()
    rng = np.random.default_rng(verify.SEED)
    vocab = TagVocabulary.from_tags(["1.1.1.1"])
    settings = [(8, 5), (8, 50), (64, 5), (64, 50)]
    res = {"features": 0.0, "logits": 0.0, "coords": 0.0}
    for trial in range(200):
        d, n = settings[trial % len(settings)]
        config = ModelConfig(d=d, num_heads=2 if d == 8 else 4,
                             attention_sublayers=2, interleave_period=1,
                             k_neighbors=6)
        params = constant_views(init_generic_parameters(config, vocab, rng))
        dev = verify.equivariance_deviation(params, config, n, rng)
        for key in res:
            res[key] = max(res[key], dev[key])
    dt = time.monotonic() - t0
    ok = max(res.values()) < verify.EQUIVARIANCE_TOL and dt < 60.0
    report(1, "SE(3) equivariance, 200 triples", ok,
           f"features={res['features']:.2e} logits={res['logits']:.2e} "
           f"coords={res['coords']:.2e} {dt:.1f}s")


def test_criterion_2_gradient_audit():
    t0 = time.monotonic()
    config = ModelConfig(d=8, num_heads=2, attention_sublayers=4,
                         interleave_period=1, k_neighbors=3)
    vocab = TagVocabulary.from_tags(["1.1.1.1"])
    params = init_generic_parameters(config, vocab, np.random.default_rng(0))
    res = run_gradient_suite(params, config, vocab)
    dt = time.monotonic() - t0
    ok = res["passed"] and dt < 120.0
    report(2, "gradient audit vs central finite differences", ok,
           f"max_rel={res['max_relative_error']:.2e} "
           f"worst={res['worst']} {dt:.1f}s")


def test_suite_bounds_are_the_criteria_bounds():
    """Criteria 1, 2 and 8 pass only within these bounds: equivariance to
    1e-9, gradients to 1e-5 relative at h = 1e-5 over five coordinates per
    tensor, binding to 1e-12 under permutation and 1e-9 under rigid
    motion. Loosening any of them fails here."""
    assert (verify.EQUIVARIANCE_TOL, verify.GRADIENT_TOL, verify.FD_STEP,
            verify.FD_SAMPLES, verify.PERMUTATION_TOL,
            verify.RIGID_TOL) == (1e-9, 1e-5, 1e-5, 5, 1e-12, 1e-9)


def test_criterion_3_overfit_oracle():
    t0 = time.monotonic()
    model_cfg, schedule, data_cfg, _ = load_run_config(REPO / "configs/toy.json")
    data_cfg = {k: (v if k == "split_seed" else str(REPO / v))
                for k, v in data_cfg.items()}
    records, sites, pool, pairings = _load_corpus(data_cfg)
    manifest = make_split_manifest(records, data_cfg["split_seed"])
    splits = assemble_dataset(records, sites, pool, pairings, manifest)
    vocab = TagVocabulary.from_tags(sorted({r.tag for r in records}))
    params = init_parameters(model_cfg, vocab,
                             np.random.default_rng(schedule.seed))
    result = train(splits["train"], pool, params, model_cfg, schedule, vocab)
    nats, recovery = evaluate_recovery(splits["train"], params, model_cfg,
                                       vocab)
    per = [b.seq_nll / max(b.free_residues, 1) for b in result.history]
    ma = np.convolve(per, np.ones(50) / 50, mode="valid")
    # tolerate upticks below 1% of the total decrease: windows spanning
    # the phase boundary pick up the newly added binding gradient
    slack = 0.01 * (ma[0] - ma[-1])
    monotone = bool(np.all(np.diff(ma) <= slack))
    dt = time.monotonic() - t0
    ok = (not result.aborted and nats < 0.05 and recovery >= 0.99
          and monotone and dt < 600.0)
    report(3, "toy-config overfit", ok,
           f"nats={nats:.4f} recovery={recovery:.3f} monotone={monotone} "
           f"{dt:.0f}s")


def test_criterion_4_loss_decomposition():
    rng = np.random.default_rng(0)
    exact = True
    phase1_zero = True
    for trial in range(100):
        n = int(rng.integers(1, 12))
        free = rng.random(n) < 0.6
        phase2 = trial % 2 == 1
        binding = Tensor(rng.normal(size=(1, 2))) if phase2 else None
        y = [int(rng.integers(2))] if phase2 else None
        total, bd = joint_loss(Tensor(rng.normal(size=(n, 20))),
                               rng.integers(0, 20, n),
                               Tensor(rng.normal(size=(n, 3))),
                               rng.normal(size=(n, 3)), free, 1.0, binding, y)
        exact &= bd.total == bd.seq_nll + bd.coord_l2 + bd.binding_ce
        exact &= total.item() == bd.total
        if not phase2:
            phase1_zero &= bd.binding_ce == 0.0
    ok = exact and phase1_zero and ModelConfig().coord_loss_weight == 1.0
    report(4, "loss decomposition on 100 batches", ok,
           f"exact={exact} phase1_zero={phase1_zero}")


def test_criterion_5_site_miner():
    family = AlignedFamily([
        ("seq1", "AEKG-CMW"),
        ("seq2", "TEQGRSMY"),
        ("seq3", "-EVGNIMH"),
        ("seq4", "PELGD-MF"),
    ])
    golden = conserved_columns(family, 0.30) == {1: "E", 3: "G", 6: "M"}

    rng = np.random.default_rng(1)
    alphabet = list("ACDEFG-")
    oracle_ok, monotone_ok = True, True
    for _ in range(20):
        rows = [(f"r{i}", "".join(rng.choice(alphabet, size=30)))
                for i in range(6)]
        fam = AlignedFamily(rows)
        previous = None
        for tau in (0.1, 0.3, 0.5, 0.8, 1.0):
            got = set(conserved_columns(fam, tau))
            want = set()
            for col in range(30):
                counts = {}
                for _, seq in rows:
                    ch = seq[col]
                    if ch not in "-.":
                        counts[ch] = counts.get(ch, 0) + 1
                if counts and max(counts.values()) > tau * 6:
                    want.add(col)
            oracle_ok &= got == want
            if previous is not None:
                monotone_ok &= got <= previous
            previous = got
    ok = golden and oracle_ok and monotone_ok
    report(5, "site miner golden + tau monotonicity", ok,
           f"golden={golden} oracle={oracle_ok} monotone={monotone_ok}")


def test_criterion_6_geometry():
    rng = np.random.default_rng(2)
    bond_ok = True
    for _ in range(20):
        n = int(rng.integers(3, 20))
        motif_count = int(rng.integers(1, n))
        motif_idx = np.sort(rng.choice(n, size=motif_count, replace=False))
        motif = rng.normal(size=(motif_count, 3)) * 5.0
        coords = geometry.init_coordinates(motif, motif_idx, n, rng, 3.75)
        for i in range(1, n):
            if i not in motif_idx:
                bond_ok &= abs(np.linalg.norm(coords[i] - coords[i - 1])
                               - 3.75) < 1e-12

    knn_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, 8))
        pts = rng.normal(size=(n, 3))
        got = geometry.knn(pts, k)
        kk = min(k, n - 1)
        for i in range(n):
            dists = np.linalg.norm(pts - pts[i], axis=1)
            dists[i] = np.inf
            want = np.argsort(dists, kind="stable")[:kk]
            knn_ok &= list(got[i]) == list(want)
    ok = bond_ok and knn_ok
    report(6, "coordinate init bond length + knn oracle", ok,
           f"bond={bond_ok} knn={knn_ok}")


def test_criterion_7_split_leak_freedom():
    from enzydesign.data import EnzymeRecord
    from enzydesign.residues import AMINO_ACIDS
    rng = np.random.default_rng(3)
    records = []
    for i in range(25):
        seq = "".join(rng.choice(list(AMINO_ACIDS), size=12))
        twin = list(seq)
        for pos in rng.choice(12, size=3, replace=False):
            twin[pos] = AMINO_ACIDS[int(rng.integers(20))]
        records.append(EnzymeRecord(f"p{i}a", seq, np.zeros((12, 3))))
        records.append(EnzymeRecord(f"p{i}b", "".join(twin), np.zeros((12, 3))))
    manifest = make_split_manifest(records, seed=0)
    seqs = {r.id: r.sequence for r in records}
    ids = sorted(seqs)
    leaks = 0
    for a in ids:
        for b in ids:
            if a < b and global_alignment_identity(seqs[a], seqs[b]) >= 0.5:
                leaks += manifest.split[a] != manifest.split[b]
    covered = set(manifest.split.values()) == {"train", "valid", "test"}
    ok = leaks == 0 and covered
    report(7, "split leak-freedom on planted 50-record corpus", ok,
           f"leaks={leaks} splits_covered={covered}")


def test_criterion_8_binding_invariances():
    config = ModelConfig(d=8, num_heads=2, attention_sublayers=2,
                         interleave_period=1, k_neighbors=3)
    vocab = TagVocabulary.from_tags(["1.1.1.1"])
    params = init_generic_parameters(config, vocab, np.random.default_rng(0))
    res = run_binding_invariance_suite(params, config, trials=100)
    report(8, "binding invariance, 100 cases", res["passed"],
           f"permutation={res['permutation']:.2e} rigid={res['rigid']:.2e}")


def test_criterion_9_bit_reproducibility(tmp_path):
    root = tmp_path / "toy"
    root.mkdir()
    write_toy_tree(root)
    artifacts = []
    for run in range(2):
        sub = tmp_path / f"run{run}"
        sub.mkdir()
        cfg = {
            "model": {"d": 8, "num_heads": 2, "attention_sublayers": 2,
                      "interleave_period": 1, "k_neighbors": 3},
            "schedule": {"phase1_steps": 2, "phase2_steps": 2, "seed": 0},
            "data": {"records_dir": str(root / "records"),
                     "tags": str(root / "tags.tsv"),
                     "sites_manifest": str(root / "sites.tsv"),
                     "substrates_dir": str(root / "substrates"),
                     "pairings": str(root / "pairings.tsv"),
                     "split_seed": 0},
            "output": {"checkpoint": str(sub / "m.ckpt"),
                       "loss_log": str(sub / "loss.log")},
        }
        cfg_path = sub / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        designs = sub / "designs.txt"
        assert main(["generate", "--checkpoint", str(sub / "m.ckpt"),
                     "--motif", str(root / "motif.tsv"), "--seed", "3",
                     "--num-candidates", "2", "--out", str(designs)]) == 0
        artifacts.append(((sub / "m.ckpt").read_bytes(),
                          (sub / "loss.log").read_bytes(),
                          designs.read_bytes()))
    same = artifacts[0] == artifacts[1]
    report(9, "train + generate bit-reproducibility", same)
