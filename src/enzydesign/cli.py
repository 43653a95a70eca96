"""Command-line surface for the enzyme design pipeline.

Subcommands: mine-sites, train, generate, export-embeddings, verify.
Exit codes: 0 success; 1 verification failure, divergence or bad input
data; 2 usage or configuration error. ``main`` holds the one map from
exception to exit code, and every error prints one ``error: ...`` line.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import geometry
from .config import ConfigError, ModelConfig
from .data import (DataError, assemble_dataset, ingest_directory,
                   make_split_manifest, read_pairing_manifest, read_substrate,
                   read_table, read_tags)
from .enzyme_model import forward_stack, greedy_decode
from .parameters import TagVocabulary, init_parameters, load_checkpoint
from .residues import AA_TO_INDEX, AMINO_ACIDS
from .site_miner import (mine_sites, read_aligned_fasta, read_site_manifest,
                         write_site_manifest)
from .training import TrainSchedule, train
from .verify import (run_binding_invariance_suite, run_equivariance_suite,
                     run_gradient_suite)

_RUN_CONFIG_SECTIONS = {"model", "schedule", "data", "output"}
_DATA_KEYS = {"records_dir", "tags", "sites_manifest", "substrates_dir",
              "pairings", "split_seed"}
_OUTPUT_KEYS = {"checkpoint", "loss_log", "split_manifest"}


class UsageError(Exception):
    pass


def load_run_config(path):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    unknown = set(raw) - _RUN_CONFIG_SECTIONS
    if unknown:
        raise UsageError(f"unknown config sections: {sorted(unknown)}")
    try:
        model = ModelConfig.from_dict(raw.get("model", {}))
        schedule = TrainSchedule.from_dict(raw.get("schedule", {}))
    except (ConfigError, ValueError, TypeError) as exc:
        raise UsageError(str(exc))
    data = raw.get("data", {})
    output = raw.get("output", {})
    for section, keys, name in ((data, _DATA_KEYS, "data"),
                                (output, _OUTPUT_KEYS, "output")):
        bad = set(section) - keys
        if bad:
            raise UsageError(f"unknown {name} config keys: {sorted(bad)}")
    if "records_dir" in data and not Path(data["records_dir"]).is_dir():
        raise UsageError(f"records_dir not found: {data['records_dir']}")
    return model, schedule, data, output


def cmd_mine_sites(args) -> int:
    if not 0.0 < args.tau <= 1.0:
        raise UsageError(f"--tau must lie in (0, 1], got {args.tau}")
    directory = Path(args.alignments)
    if not directory.is_dir():
        raise UsageError(f"alignment directory not found: {directory}")
    annotations = []
    failures = 0
    files = sorted(p for p in directory.iterdir()
                   if p.suffix in (".fasta", ".fa", ".aln"))
    for path in files:
        try:
            family = read_aligned_fasta(path)
            annotations.extend(mine_sites(family, args.tau))
        except (ValueError, OSError) as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            failures += 1
    write_site_manifest(args.out, annotations)
    return 1 if failures else 0


def _load_corpus(data_cfg):
    records = ingest_directory(data_cfg["records_dir"])
    if not records:
        raise DataError("no records ingested")
    tags = read_tags(data_cfg["tags"])
    for rec in records:
        if rec.id not in tags:
            raise DataError(f"record {rec.id} has no EC tag")
        rec.tag = tags[rec.id]
    sites = (read_site_manifest(data_cfg["sites_manifest"])
             if "sites_manifest" in data_cfg else {})
    pool = {}
    if "substrates_dir" in data_cfg:
        for path in sorted(Path(data_cfg["substrates_dir"]).iterdir()):
            sub = read_substrate(path)
            pool[sub.id] = sub
    pairings = (read_pairing_manifest(data_cfg["pairings"])
                if "pairings" in data_cfg else {})
    return records, sites, pool, pairings


def cmd_train(args) -> int:
    model_cfg, schedule, data_cfg, output = load_run_config(args.config)
    records, sites, pool, pairings = _load_corpus(data_cfg)
    manifest = make_split_manifest(records, data_cfg.get("split_seed", 0))
    splits = assemble_dataset(records, sites, pool, pairings, manifest,
                              schedule.seed)

    start_step = 0
    if args.resume:
        params, model_cfg, vocab, start_step = load_checkpoint(args.resume)
    else:
        vocab = TagVocabulary.from_tags(sorted({r.tag for r in records}))
        params = init_parameters(model_cfg, vocab,
                                 np.random.default_rng(schedule.seed))
        if args.pretrain_mlm and train(splits["train"], pool, params,
                                       model_cfg, schedule, vocab,
                                       mlm=True).aborted:
            print("error: masked pretraining diverged", file=sys.stderr)
            return 1

    checkpoint = output.get("checkpoint", "model.ckpt")
    loss_log = output.get("loss_log", "loss.log")
    result = train(splits["train"], pool, params, model_cfg, schedule, vocab,
                   checkpoint_path=checkpoint, loss_log_path=loss_log,
                   start_step=start_step)
    if "split_manifest" in output:
        manifest.write(output["split_manifest"])
    if result.aborted:
        print("error: training diverged; last good checkpoint kept",
              file=sys.stderr)
        return 1
    return 0


def read_motif_file(path):
    """Header 'length N, tag c1.c2.c3.c4', then index/residue/x/y/z lines."""
    try:
        header, rows = read_table(path, 5, lambda idx, res, x, y, z: (
            int(idx), res, [float(x), float(y), float(z)]), header=True)
    except DataError as exc:
        raise UsageError(str(exc)) from None
    try:
        length_part, tag_part = header.split(",")
        n = int(length_part.split()[1])
        tag = tag_part.split()[1]
    except (ValueError, IndexError):
        raise UsageError(f"bad motif header {header.strip()!r}")
    for idx, res, _ in rows:
        if res not in AA_TO_INDEX:
            raise UsageError(f"motif residue {res!r}")
        if not 0 <= idx < n:
            raise UsageError(f"motif index {idx} outside [0, {n})")
    return (n, tag, np.array([r[0] for r in rows], dtype=np.intp),
            [r[1] for r in rows], np.array([r[2] for r in rows]))


def cmd_generate(args) -> int:
    params, config, vocab, _ = load_checkpoint(args.checkpoint)
    n, tag, indices, residues, motif_coords = read_motif_file(args.motif)
    tag = args.tag or tag
    tag_idx = vocab.encode(tag)
    for t in params.values():  # forward only: constants build no graph
        t.requires_grad = False

    seq_indices = np.zeros(n, dtype=np.intp)
    mask = np.zeros(n, dtype=bool)
    for i, res in zip(indices, residues):
        seq_indices[i] = AA_TO_INDEX[res]
        mask[i] = True

    with open(args.out, "w") as f:
        for k in range(args.num_candidates):
            rng = np.random.default_rng(args.seed + k)
            coords0 = geometry.init_coordinates(motif_coords, indices, n, rng,
                                                config.bond_length)
            logits, coords_out, _ = forward_stack(seq_indices, mask, tag_idx,
                                                  coords0, params, config)
            decoded = greedy_decode(logits, seq_indices, mask)
            seq = "".join(AMINO_ACIDS[i] for i in decoded)
            f.write(f">candidate_{k} tag={tag} length={n}\n{seq}\n")
            for i, xyz in enumerate(coords_out.data):
                f.write(f"{i}\t{seq[i]}\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t{xyz[2]:.6f}\n")
    return 0


def cmd_export_embeddings(args) -> int:
    params, config, vocab, _ = load_checkpoint(args.checkpoint)
    with open(args.out, "w") as f:
        for level, table in enumerate(vocab.levels, start=1):
            rows = params[f"emb/tag_l{level}"].data
            for i, tag in enumerate(table):
                values = "\t".join(f"{v:.17g}" for v in rows[i])
                f.write(f"{tag}\t{values}\n")
    return 0


def cmd_verify(args) -> int:
    params, config, vocab, _ = load_checkpoint(args.checkpoint)
    ok = True
    if args.suite in ("equivariance", "all"):
        trials = args.trials or 50
        res = run_equivariance_suite(params, config, trials=trials)
        print(f"equivariance: features={res['features']:.3e} "
              f"logits={res['logits']:.3e} coords={res['coords']:.3e} "
              f"{'PASS' if res['passed'] else 'FAIL'}")
        if not res["passed"]:
            print("failing property: SE(3) equivariance", file=sys.stderr)
            ok = False
    if args.suite in ("gradients", "all"):
        res = run_gradient_suite(params, config, vocab)
        print(f"gradients: max_relative_error={res['max_relative_error']:.3e} "
              f"worst={res['worst_tensor']} "
              f"{'PASS' if res['passed'] else 'FAIL'}")
        if not res["passed"]:
            print("failing property: gradient audit", file=sys.stderr)
            ok = False
    if args.suite == "all":
        res = run_binding_invariance_suite(params, config, trials=25)
        print(f"binding: permutation={res['permutation']:.3e} "
              f"rigid={res['rigid']:.3e} {'PASS' if res['passed'] else 'FAIL'}")
        if not res["passed"]:
            print("failing property: binding invariance", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enzydesign",
        description="Joint enzyme sequence/backbone design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine-sites", help="mine conserved sites from MSAs")
    p.add_argument("--alignments", required=True)
    p.add_argument("--tau", type=float, default=0.30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine_sites)

    p = sub.add_parser("train", help="train from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--pretrain-mlm", action="store_true", dest="pretrain_mlm")
    p.add_argument("--resume", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="design enzymes from a motif file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--motif", required=True)
    p.add_argument("--tag", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--num-candidates", type=int, default=1,
                   dest="num_candidates")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export-embeddings", help="dump EC tag embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("verify", help="run property suites on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--suite", choices=("equivariance", "gradients", "all"),
                   default="all")
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, IndexError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
