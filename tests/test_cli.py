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
from enzydesign.cli import UsageError, main, read_motif_file
from enzydesign.config import ModelConfig
from enzydesign.parameters import (TagVocabulary, init_parameters,
                                   load_checkpoint, save_checkpoint)
from enzydesign.site_miner import read_site_manifest
from enzydesign.verify import (run_binding_invariance_suite,
                               run_equivariance_suite)
from fixtures import TOY_LENGTH, free_positions, write_toy_tree
from helpers import (COORD, edit_checkpoint_header, integer, mostly,
                     read_text_as, table)


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

    def test_pretrain_flag_with_zero_steps_is_noop(self, toy_tree, tmp_path):
        root, _, _ = toy_tree
        checkpoints = []
        for k, flag in enumerate((False, True)):
            sub = tmp_path / f"run{k}"
            sub.mkdir()
            cfg_path, cfg = toy_config(root, sub, mlm_pretrain_steps=0)
            argv = ["train", "--config", str(cfg_path)]
            if flag:
                argv.append("--pretrain-mlm")
            assert main(argv) == 0
            checkpoints.append(Path(cfg["output"]["checkpoint"]).read_bytes())
        assert checkpoints[0] == checkpoints[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_pretrain_exits_1(self, toy_tree, tmp_path, capsys):
        root, _, _ = toy_tree
        cfg_path, _ = toy_config(root, tmp_path, mlm_pretrain_steps=10,
                                 learning_rate=1e18)
        assert main(["train", "--config", str(cfg_path),
                     "--pretrain-mlm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pretrain_mlm_changes_result(self, toy_tree, tmp_path):
        root, _, _ = toy_tree
        checkpoints = []
        for k, steps in enumerate((0, 2)):
            sub = tmp_path / f"run{k}"
            sub.mkdir()
            cfg_path, cfg = toy_config(root, sub, mlm_pretrain_steps=steps)
            assert main(["train", "--config", str(cfg_path),
                         "--pretrain-mlm"]) == 0
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

    def test_nan_mid_graph_exits_1_with_one_line(self, trained, tmp_path,
                                                 capsys, monkeypatch):
        """A NaN planted in a primitive's result is caught where the
        forward's outputs leave the graph."""
        import enzydesign.numerics as nm
        root, ckpt = trained
        silu = nm.silu

        def planted(x):
            out = silu(x)
            out.data.flat[0] = np.nan
            return out

        monkeypatch.setattr(nm, "silu", planted)
        capsys.readouterr()
        assert main(["generate", "--checkpoint", ckpt, "--motif",
                     str(root / "motif.tsv"), "--out",
                     str(tmp_path / "o.txt")]) == 1
        assert capsys.readouterr().err == \
            "error: non-finite logits or coordinates\n"

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


def _verify_ckpt(path, d=8, tags=("1.1.1.1",)):
    config = ModelConfig(d=d, num_heads=2, attention_sublayers=2,
                         interleave_period=1, k_neighbors=3)
    vocab = TagVocabulary.from_tags(list(tags))
    params = init_parameters(config, vocab, np.random.default_rng(0),
                             zero_coord_scale=False)
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
        """Neither forward-only suite, in either equivariance branch,
        creates a Tensor with parents; the caller's tensors keep theirs."""
        import enzydesign.numerics as nm
        params, config, _, _ = load_checkpoint(small_ckpt)
        taped = []
        init = nm.Tensor.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            taped.extend(self._parents[:1])

        monkeypatch.setattr(nm.Tensor, "__init__", spy)
        run_equivariance_suite(params, config, trials=2)
        run_equivariance_suite(trials=4)
        run_binding_invariance_suite(params, config, trials=2)
        assert taped == []
        assert all(t.requires_grad for t in params.values())

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
        import enzydesign.cli as cli
        seen = []

        def spy(params, config, trials):
            seen.append(trials)
            return {"passed": True}

        fn = {"equivariance": "run_equivariance_suite",
              "binding": "run_binding_invariance_suite"}[suite]
        monkeypatch.setattr(cli, fn, spy)
        assert main(["verify", "--checkpoint", str(small_ckpt),
                     "--suite", suite, *argv]) == 0
        assert seen == [trials]

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

        def leaky(proj, x, neighbors, params, prefix, rows=None):
            m, w, rel = original(proj, x, neighbors, params, prefix, rows)
            from enzydesign.numerics import Tensor
            import enzydesign.numerics as nm
            # x * 1e-3 into the first three channels of every message
            pad = np.zeros((3, m.shape[-1]))
            pad[:, :3] = 1e-3 * np.eye(3)
            leak = nm.reshape(x, (x.shape[0], 1, 3)) @ Tensor(pad)
            return m + leak, w, rel

        em.neighborhood_messages = leaky
        try:
            code = main(["verify", "--checkpoint", str(small_ckpt),
                         "--suite", "equivariance", "--trials", "4"])
        finally:
            em.neighborhood_messages = original
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


def _first_record_end(raw):
    """Byte offset just past the first parameter record of a checkpoint."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    pos = 12 + hlen
    (nlen,) = struct.unpack_from("<H", raw, pos)
    pos += 2 + nlen
    ndim = raw[pos]
    shape = struct.unpack_from(f"<{ndim}I", raw, pos + 1)
    return pos + 1 + 4 * ndim + 8 * int(np.prod(shape))


def _bad_input_files(root, tmp_path):
    """A valid checkpoint, three truncations of it, motifs, run configs."""
    config = ModelConfig(d=8, num_heads=2, attention_sublayers=2,
                         interleave_period=1, k_neighbors=3)
    vocab = TagVocabulary.from_tags(["1.1.1.1"])
    ckpt = tmp_path / "m.ckpt"
    params = init_parameters(config, vocab, np.random.default_rng(0))
    save_checkpoint(ckpt, params, config, vocab)
    params["attn0/q/w"].data[0, 0] = np.nan
    save_checkpoint(tmp_path / "nan-payload.ckpt", params, config, vocab)
    raw = ckpt.read_bytes()
    (tmp_path / "header_cut.ckpt").write_bytes(raw[:10])
    (tmp_path / "payload_cut.ckpt").write_bytes(raw[:len(raw) // 2])
    (tmp_path / "record_cut.ckpt").write_bytes(raw[:_first_record_end(raw)])
    (tmp_path / "frozen.ckpt").write_bytes(raw)
    header = edit_checkpoint_header(tmp_path / "frozen.ckpt")
    header["config"]["knn_mode"] = "frozen"  # a retired key, not at its value
    edit_checkpoint_header(tmp_path / "frozen.ckpt", header)
    for name, edit in _HEADER_EDITS.items():
        (tmp_path / name).write_bytes(raw)
        edit_checkpoint_header(tmp_path / name,
                               edit(edit_checkpoint_header(ckpt)))
    (hlen,) = struct.unpack_from("<I", raw, 8)
    (tmp_path / "header-text.ckpt").write_bytes(
        raw[:8] + struct.pack("<I", hlen) + b"{" * hlen + raw[12 + hlen:])
    for name, row in (("motif.tsv", "1\tA\t0\t0\t0"),
                      ("far.tsv", "9\tA\t0\t0\t0"),
                      ("residue.tsv", "1\tX\t0\t0\t0"),
                      ("short_row.tsv", "1\tA\t0\t0"),
                      ("nan.tsv", "1\tA\tnan\t0\t0"),
                      ("inf.tsv", "1\tA\t0\t-inf\t0"),
                      ("dup.tsv", "0\tW\t0\t0\t0\n0\tP\t1\t0\t0")):
        (tmp_path / name).write_text(f"length 4, tag 1.1.1.1\n{row}\n")
    (tmp_path / "one.tsv").write_text("length 1, tag 1.1.1.1\n0\tA\t0\t0\t0\n")
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
    "retired-key.json": ("model", "knn_mode", "dynamic"),
    "no-records-dir.json": ("data", "records_dir", None),
    "no-tags.json": ("data", "tags", None),
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
    ("badlabel", "pairings", {"": "rec0\tsub0\tyes\n"}),
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
    "generate-checkpoint-cut-at-record": (1, "truncated", [
        "generate", "--checkpoint", "{d}/record_cut.ckpt", "--motif",
        "{d}/motif.tsv", "--out", "{d}/o.txt"]),
    "generate-checkpoint-frozen-knn-mode": (1, "frozen.ckpt: model key knn_mode", [
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
    "export-checkpoint-step-string": (
        1, "step-string.ckpt: header.step must be int, got str", [
            "export-embeddings", "--checkpoint", "{d}/step-string.ckpt",
            "--out", "{d}/e.tsv"]),
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
        1, "vocab-longer.ckpt: parameter emb/tag_l4: payload has (1, 8), "
        "header's model needs (2, 8)", [
            "export-embeddings", "--checkpoint", "{d}/vocab-longer.ckpt",
            "--out", "{d}/e.tsv"]),
    "generate-checkpoint-d-over-smaller-tensors": (
        1, "config-d-16.ckpt: parameter attn0/ffn1/b: payload has (32,), "
        "header's model needs (64,)", [
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
    "generate-motif-length-one": (2, "one.tsv: design length 1 is below 2", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif", "{d}/one.tsv",
        "--out", "{d}/o.txt"]),
    "generate-motif-longer-than-max-len": (
        2, "long.tsv: design length 5000 exceeds max_len 512", [
            "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
            "{d}/long.tsv", "--out", "{d}/o.txt"]),
    "generate-motif-bad-header": (2, "header.tsv: bad motif header", [
        "generate", "--checkpoint", "{d}/m.ckpt", "--motif",
        "{d}/header.tsv", "--out", "{d}/o.txt"]),
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
    "train-tag-line-without-tab": (1, "tags.tsv line 1", [
        "train", "--config", "{d}/badtags/run.json"]),
    "train-malformed-record-files": (
        0, "bad.pdb line 1, bad.tsv line 1, mixed.tsv line 2", [
        "train", "--config", "{d}/badrecords/run.json"]),
    "train-substrate-row-with-three-fields": (1, "sub0.tsv line 2", [
        "train", "--config", "{d}/shortsub/run.json"]),
    "train-nan-substrate": (1, "sub0: non-finite", [
        "train", "--config", "{d}/nansub/run.json"]),
    "train-pairing-label-not-integer": (1, "pairings.tsv line 1", [
        "train", "--config", "{d}/badlabel/run.json"]),
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
    "train-config-retired-key": (2, "unknown model config key 'knn_mode'", [
        "train", "--config", "{d}/retired-key.json"]),
    "train-config-without-records-dir": (
        2, "error: data config needs records_dir\n", [
            "train", "--config", "{d}/no-records-dir.json"]),
    "train-config-without-tags": (2, "error: data config needs tags\n", [
        "train", "--config", "{d}/no-tags.json"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_error_line(case, toy_tree, tmp_path,
                                             capsys):
    """Exit 1 or 2 with one error line, or 0 with one warning line per
    skipped file (the fragment lists each file and line, comma-separated)."""
    root, _, _ = toy_tree
    _bad_input_files(root, tmp_path)
    code, fragment, argv = BAD_INPUTS[case]
    capsys.readouterr()
    assert main([a.format(d=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    if code == 0:
        lines = err.splitlines()
        wanted = fragment.split(", ")
        assert len(lines) == len(wanted) and all(
            line.startswith("warning: skipping ") for line in lines), err
        for where in wanted:
            assert any(where in line for line in lines), (where, err)
        return
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err
    assert not (tmp_path / "o.txt").exists()  # no designs file on failure


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
