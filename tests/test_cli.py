import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enzydesign
import enzydesign.cli as cli
from enzydesign import training
from enzydesign.cli import SUITES, UsageError, main, read_motif_file
from enzydesign.config import ModelConfig
from enzydesign.numerics import Tensor
from enzydesign.parameters import (TagVocabulary, init_parameters,
                                   load_checkpoint, save_checkpoint)
from enzydesign.site_miner import read_site_manifest
from enzydesign.verify import (run_binding_invariance_suite,
                               run_equivariance_suite)
from fixtures import TOY_LENGTH, free_positions, write_toy_tree
from helpers import (COORD, edit_checkpoint_header, init_generic_parameters,
                     integer, mostly, read_text_as, table, with_crc)


@pytest.fixture
def toy_tree(tmp_path):
    root = tmp_path / "toy"
    root.mkdir()
    records, pool = write_toy_tree(root)
    return root, records, pool


def toy_config(root, tmp_path, phase1=2, phase2=2, **schedule_extra):
    cfg = {
        "model": {"d": 8, "num_heads": 2, "attention_sublayers": 2,
                  "interleave_period": 1, "k_neighbors": 3},
        "schedule": {"phase1_steps": phase1, "phase2_steps": phase2,
                     "seed": 0, **schedule_extra},
        "data": {
            "records_dir": str(root / "records"),
            "tags": str(root / "tags.tsv"),
            "sites_manifest": str(root / "sites.tsv"),
            "substrates_dir": str(root / "substrates"),
            "pairings": str(root / "pairings.tsv"),
            "split_seed": 0,
        },
        "output": {"checkpoint": str(tmp_path / "m.ckpt"),
                   "loss_log": str(tmp_path / "loss.log"),
                   "split_manifest": str(tmp_path / "splits.tsv")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestMineSites:
    def fasta_dir(self, tmp_path):
        d = tmp_path / "aln"
        d.mkdir()
        (d / "fam1.fasta").write_text(
            ">seq1\nAEKG-CMW\n>seq2\nTEQGRSMY\n>seq3\n-EVGNIMH\n>seq4\nPELGD-MF\n")
        return d

    def test_golden_output(self, tmp_path):
        d = self.fasta_dir(tmp_path)
        out = tmp_path / "sites.tsv"
        assert main(["mine-sites", "--alignments", str(d), "--tau", "0.30",
                     "--out", str(out)]) == 0
        sites = read_site_manifest(out)
        assert sites["seq1"].indices == [1, 3, 5]
        assert sites["seq1"].letters == ["E", "G", "M"]

    def test_bad_tau_exits_2(self, tmp_path, capsys):
        d = self.fasta_dir(tmp_path)
        out = tmp_path / "sites.tsv"
        assert main(["mine-sites", "--alignments", str(d), "--tau", "1.5",
                     "--out", str(out)]) == 2
        assert "tau" in capsys.readouterr().err

    def test_missing_dir_exits_2(self, tmp_path):
        assert main(["mine-sites", "--alignments", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o.tsv")]) == 2

    def test_bad_family_exits_1_but_keeps_good_output(self, tmp_path, capsys):
        d = self.fasta_dir(tmp_path)
        (d / "ragged.fasta").write_text(">a\nABC\n>b\nAB\n")
        out = tmp_path / "sites.tsv"
        assert main(["mine-sites", "--alignments", str(d),
                     "--out", str(out)]) == 1
        assert "ragged" in capsys.readouterr().err
        assert "seq1" in read_site_manifest(out)

    def test_bare_header_fails_its_file_only(self, tmp_path, capsys):
        """A header line with no id names its file and line; the other
        families still reach the manifest."""
        d = self.fasta_dir(tmp_path)
        (d / "bad.fasta").write_text(">a\nACDE\n>\nACDE\n")
        out = tmp_path / "sites.tsv"
        assert main(["mine-sites", "--alignments", str(d),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad.fasta: {d / 'bad.fasta'} line 3: "
            "header has no sequence id\n")
        assert sorted(read_site_manifest(out)) == [
            "seq1", "seq2", "seq3", "seq4"]

    def test_id_in_two_families_fails_the_later_family(self, tmp_path,
                                                          capsys):
        """A family giving an id an earlier family gave fails whole and
        claims none of its ids; the others still reach a manifest that
        reads back."""
        d = tmp_path / "aln"
        d.mkdir()
        for name, ids in (("f1", "ab"), ("f2", "ac"), ("f3", "cd")):
            (d / f"{name}.fasta").write_text(
                "".join(f">{rid}\nACDE\n" for rid in ids))
        out = tmp_path / "sites.tsv"
        assert main(["mine-sites", "--alignments", str(d),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: f2.fasta: id 'a' is given in both f1.fasta and f2.fasta\n")
        assert sorted(read_site_manifest(out)) == ["a", "b", "c", "d"]

    def test_deterministic_bytes(self, tmp_path):
        d = self.fasta_dir(tmp_path)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["mine-sites", "--alignments", str(d), "--out", str(a)])
        main(["mine-sites", "--alignments", str(d), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_end_to_end(self, toy_tree, tmp_path):
        root, records, pool = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        params, model_cfg, vocab, step = load_checkpoint(cfg["output"]["checkpoint"])
        assert step == 4
        lines = Path(cfg["output"]["loss_log"]).read_text().splitlines()
        assert [int(l.split("\t")[0]) for l in lines] == [0, 1, 2, 3]
        for line in lines:
            s, nll, cl2, bce, total = line.split("\t")
            assert float(total) == float(nll) + float(cl2) + float(bce)
        splits = Path(cfg["output"]["split_manifest"]).read_text().splitlines()
        assert len(splits) == len(records)

    def test_one_residue_record_trains(self, toy_tree, tmp_path):
        """A one-row record file beside the toy corpus trains through its
        empty kNN block and writes the checkpoint and loss log."""
        root, _, _ = toy_tree
        (root / "records" / "one.tsv").write_text("one\tW\t0\t0\t0\n")
        with open(root / "tags.tsv", "a") as f:
            f.write("one\t1.1.1.9\n")
        cfg_path, cfg = toy_config(root, tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        splits = Path(cfg["output"]["split_manifest"]).read_text()
        assert "one\t0\ttrain\n" in splits
        assert load_checkpoint(cfg["output"]["checkpoint"])[3] == 4
        assert len(Path(cfg["output"]["loss_log"]).read_text()
                   .splitlines()) == 4

    def test_overlong_record_refused_before_first_step(
            self, toy_tree, tmp_path, capsys, monkeypatch):
        """A record longer than max_len exits 2 naming it, and no step
        runs: no checkpoint, loss log or split manifest is written."""
        root, _, _ = toy_tree
        (root / "records" / "big.tsv").write_text(
            "".join(f"big\tA\t{3.75 * i}\t0\t0\n" for i in range(40)))
        with open(root / "tags.tsv", "a") as f:
            f.write("big\t1.1.1.9\n")
        cfg_path, cfg = toy_config(root, tmp_path, batch_residues=24)
        cfg["model"]["max_len"] = 30
        cfg_path.write_text(json.dumps(cfg))
        steps = []
        monkeypatch.setattr(training.Adam, "step", lambda opt: steps.append(1))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: record big: sequence length 40 exceeds max_len 30\n")
        assert not steps
        assert not any(Path(path).exists() for path in cfg["output"].values())

    def test_resume_with_unknown_tag_leaves_checkpoint(self, toy_tree,
                                                       tmp_path, capsys):
        """--resume over a record whose tag the checkpoint's vocabulary
        lacks exits 1 naming it, before any step: the checkpoint and the
        loss log stay as they were."""
        root, _, _ = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path, phase1=1, phase2=0,
                                   batch_residues=24)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt, log = (Path(cfg["output"][k]) for k in ("checkpoint", "loss_log"))
        before = ckpt.read_bytes(), log.read_bytes()
        tags = (root / "tags.tsv").read_text()
        (root / "tags.tsv").write_text(tags.replace("rec7\t1.1.1.8",
                                                    "rec7\t6.6.6.6"))
        cfg_path, _ = toy_config(root, tmp_path, phase1=1, phase2=2,
                                 batch_residues=24)
        assert main(["train", "--config", str(cfg_path), "--resume",
                     str(ckpt)]) == 1
        assert capsys.readouterr().err == (
            "error: record rec7: unknown EC tag component '6'\n")
        assert (ckpt.read_bytes(), log.read_bytes()) == before

    def test_unknown_config_key_exits_2(self, toy_tree, tmp_path, capsys):
        root, _, _ = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["model"]["width"] = 3
        cfg_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "width" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, toy_tree, tmp_path):
        root, _, _ = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["extras"] = {}
        cfg_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_missing_tag_exits_1(self, toy_tree, tmp_path, capsys):
        root, _, _ = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path)
        tags = (root / "tags.tsv").read_text().splitlines()
        (root / "tags.tsv").write_text("\n".join(tags[:-1]) + "\n")
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "tag" in capsys.readouterr().err

    def test_resume_continues_loss_log(self, toy_tree, tmp_path):
        root, _, _ = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path, phase1=2, phase2=0)
        assert main(["train", "--config", str(cfg_path)]) == 0
        cfg_path2, _ = toy_config(root, tmp_path, phase1=2, phase2=2)
        assert main(["train", "--config", str(cfg_path2), "--resume",
                     cfg["output"]["checkpoint"]]) == 0
        steps = [int(l.split("\t")[0]) for l in
                 Path(cfg["output"]["loss_log"]).read_text().splitlines()]
        assert steps == [0, 1, 2, 3]
        _, _, _, step = load_checkpoint(cfg["output"]["checkpoint"])
        assert step == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_pretrain_exits_1(self, toy_tree, tmp_path, capsys):
        root, _, _ = toy_tree
        cfg_path, _ = toy_config(root, tmp_path, mlm_pretrain_steps=10,
                                 learning_rate=1e18)
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: masked pretraining diverged\n"

    def test_pretrain_flag_is_gone(self, toy_tree, tmp_path):
        """``schedule.mlm_pretrain_steps`` alone decides pretraining."""
        cfg_path, _ = toy_config(toy_tree[0], tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(cfg_path), "--pretrain-mlm"])
        assert info.value.code == 2

    def test_pretrain_mlm_changes_result(self, toy_tree, tmp_path):
        root, _, _ = toy_tree
        checkpoints = []
        for k, steps in enumerate((0, 2)):
            sub = tmp_path / f"run{k}"
            sub.mkdir()
            cfg_path, cfg = toy_config(root, sub, mlm_pretrain_steps=steps)
            assert main(["train", "--config", str(cfg_path)]) == 0
            checkpoints.append(Path(cfg["output"]["checkpoint"]).read_bytes())
        assert checkpoints[0] != checkpoints[1]


class TestGenerate:
    @pytest.fixture
    def trained(self, toy_tree, tmp_path):
        root, records, pool = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path)
        main(["train", "--config", str(cfg_path)])
        return root, cfg["output"]["checkpoint"]

    def test_motif_residues_copied(self, trained, tmp_path):
        root, ckpt = trained
        out = tmp_path / "designs.txt"
        assert main(["generate", "--checkpoint", ckpt,
                     "--motif", str(root / "motif.tsv"),
                     "--out", str(out)]) == 0
        n, tag, indices, residues, coords = read_motif_file(root / "motif.tsv")
        lines = out.read_text().splitlines()
        assert lines[0].startswith(">candidate_0")
        seq = lines[1]
        assert len(seq) == TOY_LENGTH
        for idx, res in zip(indices, residues):
            assert seq[idx] == res
        assert len(lines) == 2 + TOY_LENGTH   # header + seq + coords table

    def test_same_seed_identical_output(self, trained, tmp_path):
        root, ckpt = trained
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["generate", "--checkpoint", ckpt,
                  "--motif", str(root / "motif.tsv"), "--seed", "5",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_candidates_vary_with_index(self, trained, tmp_path):
        root, ckpt = trained
        out = tmp_path / "cands.txt"
        main(["generate", "--checkpoint", ckpt,
              "--motif", str(root / "motif.tsv"),
              "--num-candidates", "3", "--out", str(out)])
        text = out.read_text()
        assert text.count(">candidate_") == 3
        blocks = text.split(">candidate_")[1:]
        coords = [b.splitlines()[2:] for b in blocks]
        assert coords[0] != coords[1]   # different init seeds move free residues

    def test_one_residue_design(self, trained, tmp_path):
        """A design of length 1 decodes through an empty kNN block."""
        root, ckpt = trained
        motif = tmp_path / "one.tsv"
        motif.write_text("length 1, tag 1.1.1.1\n0\tW\t1\t2\t3\n")
        out = tmp_path / "one.txt"
        assert main(["generate", "--checkpoint", ckpt, "--motif", str(motif),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == [">candidate_0 tag=1.1.1.1 length=1", "W"]
        assert len(lines) == 3 and lines[2].startswith("0\tW\t")

    def test_nan_mid_graph_exits_1_with_one_line(self, trained, tmp_path,
                                                 capsys, monkeypatch):
        """A NaN planted in an edge tile's result is caught where the
        forward's outputs leave the graph."""
        import enzydesign.numerics as nm
        root, ckpt = trained
        edge_messages = nm.edge_messages

        def planted(*args):
            out = edge_messages(*args)
            out.data.flat[0] = np.nan
            return out

        monkeypatch.setattr(nm, "edge_messages", planted)
        capsys.readouterr()
        assert main(["generate", "--checkpoint", ckpt, "--motif",
                     str(root / "motif.tsv"), "--out",
                     str(tmp_path / "o.txt")]) == 1
        assert capsys.readouterr().err == \
            "error: non-finite logits or coordinates\n"

    def test_failed_candidate_leaves_no_designs_file(self, trained, tmp_path,
                                                     capsys, monkeypatch):
        """A forward that fails after an earlier candidate decoded still
        leaves no ``--out`` file."""
        import enzydesign.cli as cli
        import enzydesign.numerics as nm
        root, ckpt = trained
        forwards = []
        forward_stack, edge_messages = cli.forward_stack, nm.edge_messages

        def counted(*args, **kwargs):
            forwards.append(1)
            return forward_stack(*args, **kwargs)

        def planted(*args):
            out = edge_messages(*args)
            if len(forwards) > 1:
                out.data.flat[0] = np.nan
            return out

        monkeypatch.setattr(cli, "forward_stack", counted)
        monkeypatch.setattr(nm, "edge_messages", planted)
        capsys.readouterr()
        out = tmp_path / "o.txt"
        assert main(["generate", "--checkpoint", ckpt, "--motif",
                     str(root / "motif.tsv"), "--num-candidates", "3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: non-finite logits or coordinates\n"
        assert len(forwards) == 2 and not out.exists()

    @pytest.mark.parametrize("candidates", [1, 2, 3])
    def test_prefix_runs_once_per_request(self, toy_tree, tmp_path,
                                          monkeypatch, candidates):
        """The embedding and the attention sub-layers before the first
        kNN run once per request, 2 + 4C sub-layers at the default
        period, and the designs equal a per-candidate forward loop's."""
        from enzydesign import enzyme_model, geometry
        from enzydesign.enzyme_model import forward_stack, greedy_decode
        from enzydesign.parameters import constant_views
        from enzydesign.residues import AA_TO_INDEX, AMINO_ACIDS
        root, _, _ = toy_tree
        config = ModelConfig(d=8, num_heads=2, k_neighbors=3)
        vocab = TagVocabulary.from_tags(["1.1.1.1", "1.2.3.4"])
        params = init_generic_parameters(config, vocab,
                                         np.random.default_rng(0))
        ckpt, motif = tmp_path / "m.ckpt", root / "motif.tsv"
        save_checkpoint(ckpt, params, config, vocab)

        params = constant_views(params)
        n, tag, indices, residues, motif_coords = read_motif_file(motif)
        seq = np.zeros(n, dtype=np.intp)
        seq[indices] = [AA_TO_INDEX[r] for r in residues]
        mask = np.isin(np.arange(n), indices)
        expected = ""
        for k in range(candidates):
            coords0 = geometry.init_coordinates(
                motif_coords, indices, n, np.random.default_rng(3 + k),
                config.bond_length)
            logits, x, _ = forward_stack(seq, mask, vocab.encode(tag),
                                         coords0, params, config)
            design = "".join(AMINO_ACIDS[i] for i in
                             greedy_decode(logits, seq, mask))
            expected += f">candidate_{k} tag={tag} length={n}\n{design}\n"
            expected += "".join(f"{i}\t{design[i]}\t{a:.6f}\t{b:.6f}\t"
                                f"{c:.6f}\n" for i, (a, b, c) in
                                enumerate(x.data))

        calls = {"embed_inputs": 0, "global_attention_sublayer": 0}
        for name in calls:
            def counted(*args, fn=getattr(enzyme_model, name), name=name,
                        **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(enzyme_model, name, counted)
        out = tmp_path / "d.txt"
        assert main(["generate", "--checkpoint", str(ckpt), "--motif",
                     str(motif), "--num-candidates", str(candidates),
                     "--seed", "3", "--out", str(out)]) == 0
        period = config.interleave_period
        assert calls == {"embed_inputs": 1, "global_attention_sublayer":
                         period + candidates * (config.attention_sublayers
                                                - period)}
        assert calls["global_attention_sublayer"] == 2 + 4 * candidates
        assert out.read_text() == expected

    def test_unknown_tag_exits_1(self, trained, tmp_path):
        root, ckpt = trained
        assert main(["generate", "--checkpoint", ckpt,
                     "--motif", str(root / "motif.tsv"), "--tag", "7.7.7.7",
                     "--out", str(tmp_path / "x.txt")]) == 1

    def test_bad_motif_header_exits_2(self, trained, tmp_path):
        root, ckpt = trained
        bad = tmp_path / "bad_motif.tsv"
        bad.write_text("garbage header\n")
        assert main(["generate", "--checkpoint", ckpt, "--motif", str(bad),
                     "--out", str(tmp_path / "x.txt")]) == 2

    def test_all_motif_passthrough(self, trained, tmp_path):
        """A motif covering every position pins the whole sequence."""
        root, ckpt = trained
        _, _, vocab, _ = load_checkpoint(ckpt)
        full = tmp_path / "full_motif.tsv"
        lines = (root / "motif.tsv").read_text().splitlines()
        header = lines[0]
        rec_tsv = (root / "records" / "rec0.tsv").read_text().splitlines()
        with open(full, "w") as f:
            f.write(header + "\n")
            for i, line in enumerate(rec_tsv):
                _, aa, x, y, z = line.split("\t")
                f.write(f"{i}\t{aa}\t{x}\t{y}\t{z}\n")
        out = tmp_path / "full.txt"
        assert main(["generate", "--checkpoint", ckpt, "--motif", str(full),
                     "--out", str(out)]) == 0
        seq = out.read_text().splitlines()[1]
        assert seq == "".join(l.split("\t")[1] for l in rec_tsv)

    def test_freeze_motif_coords_preserved(self, toy_tree, tmp_path):
        root, records, pool = toy_tree
        cfg_path, cfg = toy_config(root, tmp_path)
        raw = json.loads(cfg_path.read_text())
        raw["model"]["freeze_motif_coords"] = True
        cfg_path.write_text(json.dumps(raw))
        main(["train", "--config", str(cfg_path)])
        out = tmp_path / "frozen.txt"
        main(["generate", "--checkpoint", cfg["output"]["checkpoint"],
              "--motif", str(root / "motif.tsv"), "--out", str(out)])
        n, tag, indices, residues, motif_coords = read_motif_file(root / "motif.tsv")
        rows = out.read_text().splitlines()[2:]
        got = np.array([[float(v) for v in row.split("\t")[2:]] for row in rows])
        np.testing.assert_allclose(got[indices], motif_coords, atol=5e-7)


class TestExportEmbeddings:
    def test_row_count_and_values(self, tmp_path):
        config = ModelConfig(d=8, num_heads=2, attention_sublayers=2,
                             interleave_period=1)
        vocab = TagVocabulary.from_tags(["1.1.1.1", "1.2.3.4", "2.1.1.1"])
        params = init_parameters(config, vocab, np.random.default_rng(0))
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, params, config, vocab)
        out = tmp_path / "emb.tsv"
        assert main(["export-embeddings", "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == sum(len(lv) for lv in vocab.levels)
        by_tag = {l.split("\t")[0]: np.array([float(v) for v in
                                              l.split("\t")[1:]])
                  for l in lines}
        idx = vocab.levels[3].index("1.2.3.4")
        np.testing.assert_array_equal(by_tag["1.2.3.4"],
                                      params["emb/tag_l4"].data[idx])


def test_import_loads_no_scipy():
    """numpy is the one runtime dependency: the CLI's imports pull in no
    scipy module."""
    src = str(Path(enzydesign.__file__).parents[1])
    probe = ("import sys; import enzydesign.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "[]\n", done.stdout


def _verify_ckpt(path, d=8, tags=("1.1.1.1",), max_len=512):
    config = ModelConfig(d=d, num_heads=2, attention_sublayers=2,
                         interleave_period=1, k_neighbors=3, max_len=max_len)
    vocab = TagVocabulary.from_tags(list(tags))
    params = init_generic_parameters(config, vocab, np.random.default_rng(0))
    save_checkpoint(path, params, config, vocab)
    return path


class TestVerifyCommand:
    @pytest.fixture
    def small_ckpt(self, tmp_path):
        return _verify_ckpt(tmp_path / "m.ckpt")

    def test_equivariance_suite_passes(self, small_ckpt, capsys):
        assert main(["verify", "--checkpoint", str(small_ckpt),
                     "--suite", "equivariance", "--trials", "8"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("max_len", [30, 1])
    def test_suites_fit_a_small_max_len(self, tmp_path, capsys, max_len):
        """Each suite caps its enzyme lengths at the checkpoint's max_len
        (the equivariance suite's N = 50 would exceed 30)."""
        ckpt = _verify_ckpt(tmp_path / "m.ckpt", max_len=max_len)
        assert main(["verify", "--checkpoint", str(ckpt),
                     "--trials", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(SUITES)
        assert all(line.endswith(" PASS") for line in lines)

    def test_gradient_suite_passes(self, small_ckpt, capsys):
        assert main(["verify", "--checkpoint", str(small_ckpt),
                     "--suite", "gradients"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_equivariance_suite_runs_the_checkpoint(self, tmp_path,
                                                    monkeypatch):
        """Every trial runs the checkpoint's own d=16 weights."""
        import enzydesign.verify as verify
        ckpt = _verify_ckpt(tmp_path / "d16.ckpt", d=16)
        saved = load_checkpoint(ckpt)[0]["emb/amino"].data
        calls = []
        original = verify.equivariance_deviation

        def spy(params, config, n, rng):
            same = np.array_equal(params["emb/amino"].data, saved)
            calls.append((config.d, n, same))
            return original(params, config, n, rng)

        monkeypatch.setattr(verify, "equivariance_deviation", spy)
        assert main(["verify", "--checkpoint", str(ckpt),
                     "--suite", "equivariance", "--trials", "4"]) == 0
        assert calls == [(16, 5, True), (16, 50, True)] * 2

    def test_forward_only_suites_build_no_graph(self, small_ckpt,
                                                monkeypatch):
        """Neither forward-only suite creates a Tensor with parents; the
        caller's tensors keep theirs."""
        import enzydesign.numerics as nm
        params, config, _, _ = load_checkpoint(small_ckpt)
        taped = []
        init = nm.Tensor.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            taped.extend(self._parents[:1])

        monkeypatch.setattr(nm.Tensor, "__init__", spy)
        run_equivariance_suite(params, config, trials=2)
        run_binding_invariance_suite(params, config, trials=2)
        assert taped == []
        assert all(t.requires_grad for t in params.values())

    def test_binding_suite_model_calls_per_trial(self, small_ckpt,
                                                 monkeypatch):
        """Each trial runs the enzyme forward twice (as given, then moved)
        and the substrate stack three times (as given, permuted, moved)."""
        import enzydesign.verify as verify
        params, config, _, _ = load_checkpoint(small_ckpt)
        calls = []
        for name in ("forward_stack", "substrate_forward"):
            def spy(*args, name=name, fn=getattr(verify, name)):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(verify, name, spy)
        run_binding_invariance_suite(params, config, trials=3)
        assert calls == ["forward_stack", "substrate_forward",
                         "substrate_forward", "forward_stack",
                         "substrate_forward"] * 3

    def test_all_suites_print_one_line_each(self, small_ckpt, capsys):
        num = r"\d\.\d{3}e[+-]\d\d"
        assert main(["verify", "--checkpoint", str(small_ckpt),
                     "--suite", "all"]) == 0
        out, err = capsys.readouterr()
        want = [rf"equivariance: features={num} logits={num} coords={num} PASS",
                rf"gradients: max_relative_error={num} worst=\S+ PASS",
                rf"binding: permutation={num} rigid={num} PASS"]
        lines = out.splitlines()
        assert len(lines) == 3 and err == "", (out, err)
        for pattern, line in zip(want, lines):
            assert re.fullmatch(pattern, line), line

    def test_binding_suite_runs_alone(self, small_ckpt, capsys):
        num = r"\d\.\d{3}e[+-]\d\d"
        assert main(["verify", "--checkpoint", str(small_ckpt),
                     "--suite", "binding"]) == 0
        out, err = capsys.readouterr()
        assert re.fullmatch(rf"binding: permutation={num} rigid={num} PASS\n",
                            out) and err == "", (out, err)

    @pytest.mark.parametrize("suite,argv,trials", [
        ("equivariance", [], 50), ("equivariance", ["--trials", "3"], 3),
        ("binding", [], 25), ("binding", ["--trials", "3"], 3)])
    def test_trials_reach_the_sampled_suites(self, small_ckpt, monkeypatch,
                                             suite, argv, trials):
        """Each trial draws one random instance; without ``--trials`` a
        suite runs ``EQUIVARIANCE_TRIALS`` or ``BINDING_TRIALS`` of them."""
        import enzydesign.verify as verify
        drawn = []

        def spy(n, rng, draw=verify.random_instance):
            drawn.append(n)
            return draw(n, rng)

        monkeypatch.setattr(verify, "random_instance", spy)
        assert main(["verify", "--checkpoint", str(small_ckpt),
                     "--suite", suite, *argv]) == 0
        assert len(drawn) == trials

    @pytest.mark.parametrize("failing,prop", [
        ("equivariance", "SE(3) equivariance"),
        ("gradients", "gradient audit"), ("binding", "binding invariance")])
    def test_failing_suite_names_its_property(self, small_ckpt, capsys,
                                              monkeypatch, failing, prop):
        import enzydesign.cli as cli
        results = {
            "equivariance": {"features": 1e-10, "logits": 2e-10,
                             "coords": 3e-10},
            "gradients": {"max_relative_error": 4e-6, "worst": "emb/mask"},
            "binding": {"permutation": 0.0, "rigid": 0.5},
        }
        for name, fn in (("equivariance", "run_equivariance_suite"),
                         ("gradients", "run_gradient_suite"),
                         ("binding", "run_binding_invariance_suite")):
            res = {**results[name], "passed": name != failing}
            monkeypatch.setattr(cli, fn, lambda *a, res=res, **k: dict(res))
        assert main(["verify", "--checkpoint", str(small_ckpt),
                     "--suite", "all"]) == 1
        out, err = capsys.readouterr()
        verdict = {name: "FAIL" if name == failing else "PASS"
                   for name in results}
        assert out == (
            "equivariance: features=1.000e-10 logits=2.000e-10 "
            f"coords=3.000e-10 {verdict['equivariance']}\n"
            "gradients: max_relative_error=4.000e-06 worst=emb/mask "
            f"{verdict['gradients']}\n"
            "binding: permutation=0.000e+00 rigid=5.000e-01 "
            f"{verdict['binding']}\n")
        assert err == f"failing property: {prop}\n"

    def test_gradient_suite_takes_tag_from_checkpoint(self, tmp_path, capsys):
        ckpt = _verify_ckpt(tmp_path / "m.ckpt", tags=("2.7.1.1",))
        assert main(["verify", "--checkpoint", str(ckpt),
                     "--suite", "gradients"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_broken_equivariance_detected(self, small_ckpt, tmp_path, capsys):
        """Coordinates leaking into features must fail the suite."""
        params, config, vocab, step = load_checkpoint(small_ckpt)
        import enzydesign.enzyme_model as em
        original = em.neighborhood_messages

        def leaky(h, x, neighbors, params, prefix, head=()):
            from enzydesign.numerics import Tensor
            # x * 1e-3 into the first three channels of every row's
            # message sum
            out = original(h, x, neighbors, params, prefix, head)
            pad = np.zeros((3, out.shape[1]))
            pad[:, :3] = 1e-3 * np.eye(3)
            return out + x @ Tensor(pad)

        em.neighborhood_messages = leaky
        try:
            code = main(["verify", "--checkpoint", str(small_ckpt),
                         "--suite", "equivariance", "--trials", "4"])
        finally:
            em.neighborhood_messages = original
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


def _flip(raw, i):
    """``raw`` with every bit of byte ``i`` flipped."""
    return raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:]


def _bad_input_files(root, tmp_path):
    """A valid checkpoint, cut, flipped and edited copies of it, motifs,
    run configs and alignment directories of one bad family each."""
    config = ModelConfig(d=8, num_heads=2, attention_sublayers=2,
                         interleave_period=1, k_neighbors=3)
    vocab = TagVocabulary.from_tags(["1.1.1.1"])
    ckpt = tmp_path / "m.ckpt"
    params = init_parameters(config, vocab, np.random.default_rng(0))
    save_checkpoint(ckpt, params, config, vocab)
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    payload = 12 + hlen  # where the payload starts; emb/amino comes first
    for name, data in {
            "header_cut.ckpt": raw[:10],
            "payload_cut.ckpt": raw[:len(raw) // 2],
            "record_cut.ckpt": raw[:payload + params["emb/amino"].data.nbytes],
            "header-end-cut.ckpt": raw[:payload],
            "header-flip.ckpt": _flip(raw, 12),
            "payload-flip.ckpt": _flip(raw, payload),
            "crc-flip.ckpt": _flip(raw, len(raw) - 1),
            "old-format.ckpt": b"ENZD0001" + raw[8:],
            "header-text.ckpt": with_crc(raw[:12] + b"{" * hlen
                                         + raw[payload:-4]),
            # payloads longer than the model: one more d-vector, or a
            # substrate block's old coord1 (a d x d weight and a d bias)
            "unknown-name.ckpt": with_crc(raw[:-4] + bytes(8 * 8)),
            "coord-head.ckpt": with_crc(raw[:-4] + bytes(8 * (8 * 8 + 8))),
    }.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "frozen.ckpt").write_bytes(raw)
    header = edit_checkpoint_header(tmp_path / "frozen.ckpt")
    header["config"]["knn_mode"] = "frozen"  # a model key that is gone
    edit_checkpoint_header(tmp_path / "frozen.ckpt", header)
    for name, edit in _HEADER_EDITS.items():
        (tmp_path / name).write_bytes(raw)
        edit_checkpoint_header(tmp_path / name,
                               edit(edit_checkpoint_header(ckpt)))
    params["attn0/q/w"].data[0, 0] = np.nan
    save_checkpoint(tmp_path / "nan-payload.ckpt", params, config, vocab)
    for name, row in (("motif.tsv", "1\tA\t0\t0\t0"),
                      ("far.tsv", "9\tA\t0\t0\t0"),
                      ("residue.tsv", "1\tX\t0\t0\t0"),
                      ("short_row.tsv", "1\tA\t0\t0"),
                      ("nan.tsv", "1\tA\tnan\t0\t0"),
                      ("inf.tsv", "1\tA\t0\t-inf\t0"),
                      ("dup.tsv", "0\tW\t0\t0\t0\n0\tP\t1\t0\t0")):
        (tmp_path / name).write_text(f"length 4, tag 1.1.1.1\n{row}\n")
    (tmp_path / "one.tsv").write_text("length 1, tag 1.1.1.1\n0\tA\t0\t0\t0\n")
    (tmp_path / "zero.tsv").write_text("length 0, tag 1.1.1.1\n")
    (tmp_path / "long.tsv").write_text("length 5000, tag 1.1.1.1\n"
                                       "0\tA\t0\t0\t0\n")
    (tmp_path / "header.tsv").write_text("length 4 tag 1.1.1.1\n0\tA\t0\t0\t0\n")
    _, cfg = toy_config(root, tmp_path)
    for name, key, edits in _CORPUS_EDITS:
        _corpus_variant(root, tmp_path / name, key, edits)
    for name, (section, key, value) in _CONFIG_EDITS.items():
        edited = json.loads(json.dumps(cfg))
        if value is None:
            del edited[section][key]
        else:
            edited[section][key] = value
        (tmp_path / name).write_text(json.dumps(edited))
    for name, text in (("dup", ">a\nACDE\n>a\nACDF\n>b\nACDE\n"),
                       ("headless", "ACDEF\n>a\nACDE\n>b\nACDE\n")):
        (tmp_path / f"aln-{name}").mkdir()
        (tmp_path / f"aln-{name}" / f"{name}.fasta").write_text(text)
    (tmp_path / "aln-twice").mkdir()
    for name, text in (("f1", ">a\nACDE\n>b\nACDE\n"),
                       ("f2", ">a\nACDF\n>c\nACDF\n")):
        (tmp_path / "aln-twice" / f"{name}.fasta").write_text(text)
    for key, name in (("checkpoint", "m.ckpt"), ("split_manifest", "splits.tsv")):
        edited = json.loads(json.dumps(cfg))
        edited["output"][key] = str(tmp_path / "nodir" / name)
        (tmp_path / f"nodir-{key}.json").write_text(json.dumps(edited))
    (tmp_path / "outdir").mkdir()
    edited = json.loads(json.dumps(cfg))
    edited["output"]["checkpoint"] = str(tmp_path / "outdir")
    (tmp_path / "outdir-checkpoint.json").write_text(json.dumps(edited))
    (tmp_path / "top-array.json").write_text("[]")
    (tmp_path / "data-number.json").write_text(json.dumps({**cfg, "data": 3}))


def _corpus_variant(root, sub, key, edits):
    """sub/run.json over the toy corpus, with data[key] copied into sub and
    ``edits`` (path inside the copy -> text) written over the copy."""
    sub.mkdir()
    _, cfg = toy_config(root, sub)
    src = Path(cfg["data"][key])
    dst = sub / src.name
    (shutil.copytree if src.is_dir() else shutil.copy)(src, dst)
    for rel, text in edits.items():
        (dst / rel).write_text(text)
    cfg["data"][key] = str(dst)
    (sub / "run.json").write_text(json.dumps(cfg))


# checkpoint file -> its header, edited from the valid one
_HEADER_EDITS = {
    "header-array.ckpt": lambda h: [h],
    "config-number.ckpt": lambda h: {**h, "config": 3},
    "config-d-string.ckpt": lambda h: {**h, "config": {**h["config"], "d": "x"}},
    "config-unknown-key.ckpt": lambda h: {**h, "config": {**h["config"],
                                                          "depth": 2}},
    "vocab-missing.ckpt": lambda h: {k: v for k, v in h.items()
                                     if k != "vocab_levels"},
    "vocab-number.ckpt": lambda h: {**h, "vocab_levels": 3},
    "vocab-level-number.ckpt": lambda h: {
        **h, "vocab_levels": [["1"], ["1.1"], [1], ["1.1.1.1"]]},
    "step-string.ckpt": lambda h: {**h, "step": "7"},
    "count-kept.ckpt": lambda h: {**h, "param_count": 177},
    "step-negative.ckpt": lambda h: {**h, "step": -3},
    "header-unknown-key.ckpt": lambda h: {**h, "epoch": 1},
    "vocab-longer.ckpt": lambda h: {**h, "vocab_levels": [
        *h["vocab_levels"][:3], h["vocab_levels"][3] + ["1.1.1.2"]]},
    "config-d-16.ckpt": lambda h: {**h, "config": {**h["config"], "d": 16}},
}
# run config file -> (section, key, value): one bad value in the toy
# config; a value of None drops the key
_CONFIG_EDITS = {
    "lr-string.json": ("schedule", "learning_rate", "0.1"),
    "phase1-fraction.json": ("schedule", "phase1_steps", 1.5),
    "k-fraction.json": ("model", "k_neighbors", 2.5),
    "bond-string.json": ("model", "bond_length", "x"),
    "freeze-string.json": ("model", "freeze_motif_coords", "no"),
    "seed-string.json": ("data", "split_seed", "x"),
    "split-seed-negative.json": ("data", "split_seed", -3),
    "seed-negative.json": ("schedule", "seed", -1),
    "lr-nan.json": ("schedule", "learning_rate", float("nan")),
    "mlm-negative.json": ("schedule", "mlm_pretrain_steps", -1),
    "batch-zero.json": ("schedule", "batch_residues", 0),
    "substrate-layers-negative.json": ("model", "substrate_layers", -1),
    "bond-zero.json": ("model", "bond_length", 0.0),
    "coord-weight-inf.json": ("model", "coord_loss_weight", float("inf")),
    "retired-key.json": ("model", "knn_mode", "dynamic"),
    "no-records-dir.json": ("data", "records_dir", None),
    "no-tags.json": ("data", "tags", None),
    "no-substrates-dir.json": ("data", "substrates_dir", None),
}
_PDB_BAD_X = ("ATOM      1  CA  GLY A   1      xx.000   0.000   0.000"
              "  1.00  0.00           C\n")
# (directory, data key, edits): one bad value in a copy of the toy corpus
_CORPUS_EDITS = [
    ("badtags", "tags", {"": "rec0 1.1.1.1\n"}),
    ("badrecords", "records_dir", {"bad.tsv": "bad\tA\t0\t0\n",
                                   "bad.pdb": _PDB_BAD_X,
                                   "mixed.tsv": "m\tA\t0\t0\t0\n"
                                                "n\tC\t0\t0\t0\n"}),
    ("shortsub", "substrates_dir", {"sub0.tsv": "sub0\t1\n0 0 0 0 0\t0\t0\n"}),
    ("nansub", "substrates_dir", {"sub0.tsv": "sub0\t1\nnan 0 0 0 0\t0\t0\t0\n"}),
    ("skippedcopy", "records_dir", {"copy.tsv": "rec0\tA\t0\t0\n"}),
    ("recordcopy", "records_dir", {"copy.tsv": "rec0\tA\t0\t0\t0\n"}),
    ("substratecopy", "substrates_dir",
     {"copy.tsv": "sub0\t1\n0 0 0 0 0\t0\t0\t0\n"}),
    ("duptags", "tags", {"": "rec0\t1.1.1.1\nrec0\t1.1.1.2\n"}),
    ("duppairing", "pairings", {"": "rec0\tsub0\t1\nrec0\tsub1\t0\n"}),
    ("dupsites", "sites_manifest", {"": "rec0\t0\tA\nrec0\t1\tA\n"}),
    ("badlabel", "pairings", {"": "rec0\tsub0\tyes\n"}),
    ("rangelabel", "pairings", {"": "rec0\tsub0\t2\n"}),
    ("sitelow", "sites_manifest", {"": "rec0\t-1\tA\n"}),
    ("sitehigh", "sites_manifest", {"": "rec0\t99\tA\n"}),
]


BAD_INPUTS = {
    "generate-missing-checkpoint": (1, "none.ckpt", [
        "generate", "--checkpoint", "{d}/none.ckpt", "--motif",
        "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "verify-missing-checkpoint": (1, "none.ckpt", [
        "verify", "--checkpoint", "{d}/none.ckpt", "--suite", "gradients"]),
    "train-resume-missing-checkpoint": (1, "none.ckpt", [
        "train", "--config", "{d}/run.json", "--resume", "{d}/none.ckpt"]),
    "generate-truncated-checkpoint": (1, "truncated", [
        "generate", "--checkpoint", "{d}/payload_cut.ckpt", "--motif",
        "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "export-truncated-checkpoint": (1, "truncated", [
        "export-embeddings", "--checkpoint", "{d}/header_cut.ckpt",
        "--out", "{d}/e.tsv"]),
    "generate-checkpoint-cut-at-record": (
        1, "record_cut.ckpt is truncated or corrupt\n", [
        "generate", "--checkpoint", "{d}/record_cut.ckpt", "--motif",
        "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "generate-checkpoint-cut-after-header": (
        1, "header-end-cut.ckpt is truncated or corrupt\n", [
            "generate", "--checkpoint", "{d}/header-end-cut.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "export-checkpoint-header-byte-flipped": (
        1, "header-flip.ckpt is truncated or corrupt\n", [
            "export-embeddings", "--checkpoint", "{d}/header-flip.ckpt",
            "--out", "{d}/e.tsv"]),
    "generate-checkpoint-payload-byte-flipped": (
        1, "payload-flip.ckpt is truncated or corrupt\n", [
            "generate", "--checkpoint", "{d}/payload-flip.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "verify-checkpoint-crc-byte-flipped": (
        1, "crc-flip.ckpt is truncated or corrupt\n", [
            "verify", "--checkpoint", "{d}/crc-flip.ckpt"]),
    "train-resume-checkpoint-old-format": (
        1, "old-format.ckpt: format tag b'ENZD0001' is not ENZD0002\n", [
            "train", "--config", "{d}/run.json", "--resume",
            "{d}/old-format.ckpt"]),
    "generate-checkpoint-frozen-knn-mode": (
        1, "frozen.ckpt: unknown model config key 'knn_mode'", [
        "generate", "--checkpoint", "{d}/frozen.ckpt", "--motif",
        "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "export-checkpoint-header-array": (
        1, "header-array.ckpt: header config must be a JSON object, got list", [
            "export-embeddings", "--checkpoint", "{d}/header-array.ckpt",
            "--out", "{d}/e.tsv"]),
    "export-checkpoint-header-not-json": (
        1, "header-text.ckpt: header is not JSON", [
            "export-embeddings", "--checkpoint", "{d}/header-text.ckpt",
            "--out", "{d}/e.tsv"]),
    "export-checkpoint-config-number": (
        1, "config-number.ckpt: header.config must be dict, got int", [
            "export-embeddings", "--checkpoint", "{d}/config-number.ckpt",
            "--out", "{d}/e.tsv"]),
    "export-checkpoint-without-vocab-levels": (
        1, "vocab-missing.ckpt: header config needs vocab_levels", [
            "export-embeddings", "--checkpoint", "{d}/vocab-missing.ckpt",
            "--out", "{d}/e.tsv"]),
    "export-checkpoint-vocab-levels-number": (
        1, "vocab-number.ckpt: header.vocab_levels must be list, got int", [
            "export-embeddings", "--checkpoint", "{d}/vocab-number.ckpt",
            "--out", "{d}/e.tsv"]),
    "export-checkpoint-vocab-level-holds-number": (
        1, "vocab-level-number.ckpt: tag vocabulary needs 4 lists of strings", [
            "export-embeddings", "--checkpoint",
            "{d}/vocab-level-number.ckpt", "--out", "{d}/e.tsv"]),
    "export-checkpoint-with-param-count": (
        1, "count-kept.ckpt: unknown header config key 'param_count'", [
            "export-embeddings", "--checkpoint", "{d}/count-kept.ckpt",
            "--out", "{d}/e.tsv"]),
    "generate-checkpoint-substrate-coord-head": (
        1, "coord-head.ckpt: payload has 65528 bytes, header's model needs "
        "64952\n", [
            "generate", "--checkpoint", "{d}/coord-head.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "export-checkpoint-step-string": (
        1, "step-string.ckpt: header.step must be int, got str", [
            "export-embeddings", "--checkpoint", "{d}/step-string.ckpt",
            "--out", "{d}/e.tsv"]),
    "train-resume-checkpoint-negative-step": (
        1, "step-negative.ckpt: header.step must be >= 0", [
            "train", "--config", "{d}/run.json", "--resume",
            "{d}/step-negative.ckpt"]),
    "export-checkpoint-header-unknown-key": (
        1, "header-unknown-key.ckpt: unknown header config key 'epoch'", [
            "export-embeddings", "--checkpoint",
            "{d}/header-unknown-key.ckpt", "--out", "{d}/e.tsv"]),
    "export-checkpoint-config-bad-type": (
        1, "config-d-string.ckpt: model.d must be int, got str", [
            "export-embeddings", "--checkpoint", "{d}/config-d-string.ckpt",
            "--out", "{d}/e.tsv"]),
    "export-checkpoint-config-unknown-key": (
        1, "config-unknown-key.ckpt: unknown model config key 'depth'", [
            "export-embeddings", "--checkpoint",
            "{d}/config-unknown-key.ckpt", "--out", "{d}/e.tsv"]),
    "export-checkpoint-vocab-longer-than-table": (
        1, "vocab-longer.ckpt: payload has 64952 bytes, header's model needs "
        "65016\n", [
            "export-embeddings", "--checkpoint", "{d}/vocab-longer.ckpt",
            "--out", "{d}/e.tsv"]),
    "generate-checkpoint-d-over-smaller-tensors": (
        1, "config-d-16.ckpt: payload has 64952 bytes, header's model needs "
        "182072\n", [
            "generate", "--checkpoint", "{d}/config-d-16.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "generate-checkpoint-nan-payload": (
        1, "nan-payload.ckpt: parameter attn0/q/w is not finite", [
            "generate", "--checkpoint", "{d}/nan-payload.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "verify-checkpoint-nan-payload": (
        1, "nan-payload.ckpt: parameter attn0/q/w is not finite", [
            "verify", "--checkpoint", "{d}/nan-payload.ckpt"]),
    "generate-motif-row-with-four-fields": (2, "short_row.tsv line 2", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
        "{d}/short_row.tsv", "--out", "{d}/o.txt"]),
    "generate-unknown-tag-component": (
        1, "error: unknown EC tag component '1.2'\n", [
            "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
            "{d}/motif.tsv", "--tag", "1.2.1.1", "--out", "{d}/o.txt"]),
    "generate-missing-motif": (1, "none.tsv", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/none.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-index-outside-length": (
        2, "far.tsv: motif index 9 outside [0, 4)", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/far.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-nan-coordinate": (2, "nan.tsv line 2", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/nan.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-inf-coordinate": (2, "inf.tsv line 2", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/inf.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-repeated-index": (2, "dup.tsv: motif index 0 given twice", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/dup.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-length-one": (0, "", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/one.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-length-zero": (2, "zero.tsv: design length 0 is below 1", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/zero.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-longer-than-max-len": (
        2, "long.tsv: design length 5000 exceeds max_len 512", [
            "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
            "{d}/long.tsv", "--out", "{d}/o.txt"]),
    "generate-motif-bad-header": (2, "header.tsv: bad motif header", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
        "{d}/header.tsv", "--out", "{d}/o.txt"]),
    "generate-checkpoint-unknown-parameter": (
        1, "unknown-name.ckpt: payload has 65016 bytes, header's model needs "
        "64952\n", [
            "generate", "--checkpoint", "{d}/unknown-name.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "generate-negative-seed": (2, "error: --seed must be at least 0\n", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/motif.tsv",
        "--seed", "-1", "--out", "{d}/o.txt"]),
    "generate-zero-candidates": (
        2, "error: --num-candidates must be at least 1\n", [
            "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
            "{d}/motif.tsv", "--num-candidates", "0", "--out", "{d}/o.txt"]),
    "verify-zero-trials": (2, "error: --trials must be at least 1\n", [
        "verify", "--checkpoint", "{d}/m.ckpt", "--suite", "equivariance",
        "--trials", "0"]),
    "verify-negative-trials": (2, "error: --trials must be at least 1\n", [
        "verify", "--checkpoint", "{d}/m.ckpt", "--suite", "equivariance",
        "--trials", "-2"]),
    "generate-motif-unknown-residue": (2, "residue.tsv: motif residue 'X'", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
        "{d}/residue.tsv", "--out", "{d}/o.txt"]),
    "mine-sites-id-repeated": (
        1, "dup.fasta line 3: id 'a' is given in both line 1 and line 3\n", [
            "mine-sites", "--alignments", "{d}/aln-dup", "--out",
            "{d}/sites-dup.tsv"]),
    "mine-sites-id-in-two-families": (
        1, "error: f2.fasta: id 'a' is given in both f1.fasta and f2.fasta\n",
        ["mine-sites", "--alignments", "{d}/aln-twice", "--out",
         "{d}/sites-twice.tsv"]),
    "mine-sites-sequence-before-header": (
        1, "headless.fasta line 1: sequence before the first header\n", [
            "mine-sites", "--alignments", "{d}/aln-headless", "--out",
            "{d}/sites-headless.tsv"]),
    "train-tag-line-without-tab": (1, "tags.tsv line 1", [
        "train", "--config", "{d}/badtags/run.json"]),
    "train-malformed-record-files": (
        0, "bad.pdb line 1, bad.tsv line 1, mixed.tsv line 2", [
        "train", "--config", "{d}/badrecords/run.json"]),
    "train-skipped-file-with-a-taken-id": (0, "copy.tsv line 1", [
        "train", "--config", "{d}/skippedcopy/run.json"]),
    "train-record-id-in-two-files": (
        1, "error: record 'rec0' is given in both copy.tsv and rec0.tsv\n", [
            "train", "--config", "{d}/recordcopy/run.json"]),
    "train-substrate-id-in-two-files": (
        1, "error: substrate 'sub0' is given in both copy.tsv and sub0.tsv\n",
        ["train", "--config", "{d}/substratecopy/run.json"]),
    "train-tag-id-repeated": (
        1, "tags.tsv line 2: id 'rec0' is given in both line 1 and line 2\n",
        ["train", "--config", "{d}/duptags/run.json"]),
    "train-pairing-id-repeated": (
        1, "pairings.tsv line 2: id 'rec0' is given in both line 1 and "
        "line 2\n", ["train", "--config", "{d}/duppairing/run.json"]),
    "train-site-manifest-id-repeated": (
        1, "sites.tsv line 2: id 'rec0' is given in both line 1 and line 2\n",
        ["train", "--config", "{d}/dupsites/run.json"]),
    "train-substrate-row-with-three-fields": (1, "sub0.tsv line 2", [
        "train", "--config", "{d}/shortsub/run.json"]),
    "train-nan-substrate": (1, "sub0: non-finite", [
        "train", "--config", "{d}/nansub/run.json"]),
    "train-pairing-label-not-integer": (1, "pairings.tsv line 1", [
        "train", "--config", "{d}/badlabel/run.json"]),
    "train-pairing-label-out-of-range": (
        1, "pairings.tsv line 1: binding label must be 0 or 1, got 2", [
            "train", "--config", "{d}/rangelabel/run.json"]),
    "train-site-index-negative": (1, "rec0: site index -1", [
        "train", "--config", "{d}/sitelow/run.json"]),
    "train-site-index-past-end": (1, "rec0: site index 99", [
        "train", "--config", "{d}/sitehigh/run.json"]),
    "train-config-top-level-array": (2, "run config must be a JSON object", [
        "train", "--config", "{d}/top-array.json"]),
    "train-config-data-section-number": (2, "run.data", [
        "train", "--config", "{d}/data-number.json"]),
    "train-config-learning-rate-string": (2, "schedule.learning_rate", [
        "train", "--config", "{d}/lr-string.json"]),
    "train-config-phase1-steps-fraction": (2, "schedule.phase1_steps", [
        "train", "--config", "{d}/phase1-fraction.json"]),
    "train-config-k-neighbors-fraction": (2, "model.k_neighbors", [
        "train", "--config", "{d}/k-fraction.json"]),
    "train-config-bond-length-string": (2, "model.bond_length", [
        "train", "--config", "{d}/bond-string.json"]),
    "train-config-freeze-motif-string": (2, "model.freeze_motif_coords", [
        "train", "--config", "{d}/freeze-string.json"]),
    "train-config-split-seed-string": (2, "data.split_seed", [
        "train", "--config", "{d}/seed-string.json"]),
    "train-config-negative-split-seed": (
        2, "error: data.split_seed must be >= 0\n", [
            "train", "--config", "{d}/split-seed-negative.json"]),
    "train-config-negative-seed": (2, "error: schedule.seed must be >= 0\n", [
        "train", "--config", "{d}/seed-negative.json"]),
    "train-config-learning-rate-nan": (
        2, "error: schedule.learning_rate must be finite and > 0\n", [
            "train", "--config", "{d}/lr-nan.json"]),
    "train-config-negative-mlm-steps": (
        2, "error: schedule.mlm_pretrain_steps must be >= 0\n", [
            "train", "--config", "{d}/mlm-negative.json"]),
    "train-config-zero-batch-residues": (
        2, "error: schedule.batch_residues must be >= 1\n", [
            "train", "--config", "{d}/batch-zero.json"]),
    "train-config-negative-substrate-layers": (
        2, "error: model.substrate_layers must be >= 0\n", [
            "train", "--config", "{d}/substrate-layers-negative.json"]),
    "train-config-zero-bond-length": (
        2, "error: model.bond_length must be finite and > 0\n", [
            "train", "--config", "{d}/bond-zero.json"]),
    "train-config-infinite-coord-loss-weight": (
        2, "error: model.coord_loss_weight must be finite and >= 0\n", [
            "train", "--config", "{d}/coord-weight-inf.json"]),
    "train-config-retired-key": (2, "unknown model config key 'knn_mode'", [
        "train", "--config", "{d}/retired-key.json"]),
    "train-config-without-records-dir": (
        2, "error: data config needs records_dir\n", [
            "train", "--config", "{d}/no-records-dir.json"]),
    "train-config-without-tags": (2, "error: data config needs tags\n", [
        "train", "--config", "{d}/no-tags.json"]),
    "train-config-without-substrates-dir": (
        2, "error: data config needs substrates_dir\n", [
            "train", "--config", "{d}/no-substrates-dir.json"]),
    "train-checkpoint-directory-missing": (
        2, "error: output.checkpoint directory not found: '{d}/nodir/m.ckpt'\n",
        ["train", "--config", "{d}/nodir-checkpoint.json"]),
    "generate-out-directory-missing": (
        2, "error: --out directory not found: '{d}/nodir/o.txt'\n", [
            "generate", "--checkpoint", "{d}/none.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/nodir/o.txt"]),
    "mine-sites-out-directory-missing": (
        2, "error: --out directory not found: '{d}/nodir/sites.tsv'\n", [
            "mine-sites", "--alignments", "{d}/aln-twice", "--out",
            "{d}/nodir/sites.tsv"]),
    "export-out-directory-missing": (
        2, "error: --out directory not found: '{d}/nodir/e.tsv'\n", [
            "export-embeddings", "--checkpoint", "{d}/none.ckpt", "--out",
            "{d}/nodir/e.tsv"]),
    "train-checkpoint-is-a-directory": (
        2, "error: output.checkpoint is a directory: '{d}/outdir'\n",
        ["train", "--config", "{d}/outdir-checkpoint.json"]),
    "generate-out-is-a-directory": (
        2, "error: --out is a directory: '{d}/outdir'\n", [
            "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
            "{d}/motif.tsv", "--out", "{d}/outdir"]),
    "mine-sites-out-is-a-directory": (
        2, "error: --out is a directory: '{d}/outdir'\n", [
            "mine-sites", "--alignments", "{d}/aln-twice", "--out",
            "{d}/outdir"]),
    "export-out-is-a-directory": (
        2, "error: --out is a directory: '{d}/outdir'\n", [
            "export-embeddings", "--checkpoint", "{d}/m.ckpt", "--out",
            "{d}/outdir"]),
    "train-split-manifest-directory-missing": (
        2, "error: output.split_manifest directory not found: "
           "'{d}/nodir/splits.tsv'\n",
        ["train", "--config", "{d}/nodir-split_manifest.json"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_error_line(case, toy_tree, tmp_path,
                                             capsys):
    """Exit 1 or 2 with one error line, or 0 with one warning line per
    skipped file (the fragment lists each file and line, comma-separated;
    an empty one means no line). A usage error (exit 2) writes none of
    the toy run config's outputs."""
    root, _, _ = toy_tree
    _bad_input_files(root, tmp_path)
    ckpt = (tmp_path / "m.ckpt").read_bytes()
    code, fragment, argv = BAD_INPUTS[case]
    capsys.readouterr()
    assert main([a.format(d=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    if code == 0:
        lines = err.splitlines()
        wanted = fragment.split(", ") if fragment else []
        assert len(lines) == len(wanted) and all(
            line.startswith("warning: skipping ") for line in lines), err
        for where in wanted:
            assert any(where in line for line in lines), (where, err)
        return
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment.format(d=tmp_path) in err
    assert not (tmp_path / "o.txt").exists()  # no designs file on failure
    if code == 2:
        assert (tmp_path / "m.ckpt").read_bytes() == ckpt
        assert not any((tmp_path / name).exists()
                       for name in ("loss.log", "splits.tsv", "nodir"))


@pytest.mark.parametrize("error", [KeyError("k"), IndexError("i")])
def test_unexpected_error_propagates(error, monkeypatch, tmp_path):
    """``main`` maps only the two exception families to exit codes: any
    other error inside a command is a fault and keeps its traceback."""
    def command(args):
        raise error

    monkeypatch.setattr(cli, "cmd_export_embeddings", command)
    with pytest.raises(type(error)):
        main(["export-embeddings", "--checkpoint", str(tmp_path / "m.ckpt"),
              "--out", str(tmp_path / "e.tsv")])


_MOTIF = table(integer(-1, 4), mostly(st.sampled_from("ACWX")),
               COORD, COORD, COORD)


@given(_MOTIF)
@settings(max_examples=200, deadline=None)
def test_motif_parser_parses_or_raises_usage_error(body):
    """Any text after a valid header parses or raises UsageError."""
    motif = read_text_as(read_motif_file, "length 4, tag 1.1.1.1\n" + body,
                         UsageError)
    if motif is None:
        return
    n, tag, indices, residues, coords = motif
    assert n == 4 and tag == "1.1.1.1" and np.all(np.isfinite(coords))
    assert len(indices) == len(residues) == len(coords)
    assert all(0 <= i < 4 for i in indices)
    assert len(set(indices.tolist())) == len(indices)


def test_512_row_motif_duplicate_check(tmp_path):
    """A 512-row motif reads whole; a repeated index is reported at the
    first of its two rows, before a bad residue that lies between them,
    and a bad residue before both is reported first."""
    rows = [f"{i}\tA\t{i}.0\t0.0\t0.0" for i in range(512)]
    path = tmp_path / "m.tsv"

    def read(lines):
        path.write_text("length 600, tag 1.1.1.1\n" + "\n".join(lines) + "\n")
        return read_motif_file(path)

    n, _, indices, residues, coords = read(rows)
    assert n == 600 and indices.tolist() == list(range(512))
    assert len(residues) == len(coords) == 512
    dup = rows[:511] + ["300\tA\t1.0\t2.0\t3.0"]
    dup[400] = "400\tX\t0.0\t0.0\t0.0"
    with pytest.raises(UsageError,
                       match=r"m\.tsv: motif index 300 given twice$"):
        read(dup)
    dup[200] = "200\tX\t0.0\t0.0\t0.0"
    with pytest.raises(UsageError, match=r"motif residue 'X'$"):
        read(dup)
