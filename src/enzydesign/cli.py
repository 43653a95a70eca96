"""Command-line surface for the enzyme design pipeline.

Subcommands: mine-sites, train, generate, export-embeddings, verify.
Exit codes: 0 success; 1 verification failure, divergence or bad input
data (ValueError, OSError); 2 usage or configuration error (UsageError,
ConfigError). ``main`` maps just these, each to one ``error: ...`` line.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import geometry
from .config import ConfigError, read_run_config
from .data import (DataError, assemble_dataset, claim, ingest_directory,
                   make_split_manifest, read_pairing_manifest, read_substrate,
                   read_table, read_tags)
from .enzyme_model import encode, forward_stack, greedy_decode
from .parameters import (TagVocabulary, constant_views, init_parameters,
                         load_checkpoint)
from .residues import AA_TO_INDEX, AMINO_ACIDS
from .site_miner import (mine_sites, read_aligned_fasta, read_site_manifest,
                         write_site_manifest)
from .training import train
from .verify import (run_binding_invariance_suite, run_equivariance_suite,
                     run_gradient_suite)

class UsageError(Exception):
    pass


def load_run_config(path):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    model, schedule, data, output = read_run_config(raw)
    if not Path(data["records_dir"]).is_dir():
        raise UsageError(f"records_dir not found: {data['records_dir']!r}")
    output = {"checkpoint": "model.ckpt", "loss_log": "loss.log", **output}
    for key, path in output.items():
        check_out_dir(path, f"output.{key}")
    return model, schedule, data, output


def check_out_dir(path, name="--out") -> None:
    """Fail before any work, not after it, when output ``name`` is a
    directory or its directory does not exist."""
    if Path(path).is_dir():
        raise UsageError(f"{name} is a directory: {path!r}")
    if not Path(path).parent.is_dir():
        raise UsageError(f"{name} directory not found: {path!r}")


def cmd_mine_sites(args) -> int:
    if not 0.0 < args.tau <= 1.0:
        raise UsageError(f"--tau must lie in (0, 1], got {args.tau}")
    check_out_dir(args.out)
    directory = Path(args.alignments)
    if not directory.is_dir():
        raise UsageError(f"alignment directory not found: {directory}")
    annotations, owners = [], {}
    failures = 0
    files = sorted(p for p in directory.iterdir()
                   if p.suffix in (".fasta", ".fa", ".aln"))
    for path in files:
        try:
            sites = mine_sites(read_aligned_fasta(path), args.tau)
            ids = [f"id {ann.sequence_id!r}" for ann in sites]
            taken = [key for key in ids if key in owners]
            for key in taken + ids:  # a taken id raises before any is claimed
                claim(owners, key, path.name)
            annotations.extend(sites)
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
    pool, files = {}, {}
    for path in sorted(Path(data_cfg["substrates_dir"]).iterdir()):
        sub = read_substrate(path)
        claim(files, f"substrate {sub.id!r}", path.name)
        pool[sub.id] = sub
    pairings = (read_pairing_manifest(data_cfg["pairings"])
                if "pairings" in data_cfg else {})
    return records, sites, pool, pairings


def cmd_train(args) -> int:
    model_cfg, schedule, data_cfg, output = load_run_config(args.config)
    records, sites, pool, pairings = _load_corpus(data_cfg)
    manifest = make_split_manifest(records, data_cfg.get("split_seed", 0))
    splits = assemble_dataset(records, sites, pool, pairings, manifest)

    start_step = 0
    if args.resume:
        params, model_cfg, vocab, start_step = load_checkpoint(args.resume)
    else:
        vocab = TagVocabulary.from_tags(sorted({r.tag for r in records}))
        params = init_parameters(model_cfg, vocab,
                                 np.random.default_rng(schedule.seed))
        if schedule.mlm_pretrain_steps > 0 and train(
                splits["train"], pool, params, model_cfg, schedule, vocab,
                mlm=True).aborted:
            print("error: masked pretraining diverged", file=sys.stderr)
            return 1

    result = train(splits["train"], pool, params, model_cfg, schedule, vocab,
                   checkpoint_path=output["checkpoint"],
                   loss_log_path=output["loss_log"], start_step=start_step)
    if "split_manifest" in output:
        manifest.write(output["split_manifest"])
    if result.aborted:
        print("error: training diverged; last good checkpoint kept",
              file=sys.stderr)
        return 1
    return 0


def _motif_row(idx, res, x, y, z):
    xyz = [float(x), float(y), float(z)]
    if not np.all(np.isfinite(xyz)):
        raise ValueError("non-finite coordinate")
    return int(idx), res, xyz


def read_motif_file(path):
    """Header 'length N, tag c1.c2.c3.c4', then index/residue/x/y/z lines."""
    try:
        header, rows = read_table(path, 5, _motif_row, header=True)
    except DataError as exc:
        raise UsageError(str(exc)) from None
    try:
        length_part, tag_part = header.split(",")
        n = int(length_part.split()[1])
        tag = tag_part.split()[1]
    except (ValueError, IndexError):
        raise UsageError(f"{path}: bad motif header {header.strip()!r}")
    if n < 1:
        raise UsageError(f"{path}: design length {n} is below 1")
    indices = [r[0] for r in rows]
    counts = Counter(indices)
    for idx, res, _ in rows:
        if res not in AA_TO_INDEX:
            raise UsageError(f"{path}: motif residue {res!r}")
        if not 0 <= idx < n:
            raise UsageError(f"{path}: motif index {idx} outside [0, {n})")
        if counts[idx] > 1:
            raise UsageError(f"{path}: motif index {idx} given twice")
    return (n, tag, np.array(indices, dtype=np.intp),
            [r[1] for r in rows], np.array([r[2] for r in rows]))


def cmd_generate(args) -> int:
    if args.num_candidates < 1:
        raise UsageError("--num-candidates must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be at least 0")
    check_out_dir(args.out)
    params, config, vocab, _ = load_checkpoint(args.checkpoint)
    n, tag, indices, residues, motif_coords = read_motif_file(args.motif)
    if n > config.max_len:  # before --out is created
        raise UsageError(f"{args.motif}: design length {n} exceeds max_len "
                         f"{config.max_len}")
    tag = args.tag or tag
    tag_idx = vocab.encode(tag)
    params = constant_views(params)  # forward only: builds no graph

    seq_indices = np.zeros(n, dtype=np.intp)
    mask = np.zeros(n, dtype=bool)
    for i, res in zip(indices, residues):
        seq_indices[i] = AA_TO_INDEX[res]
        mask[i] = True

    # the coordinate-free prefix is the same for every candidate: run once
    encoded = encode(seq_indices, mask, tag_idx, params, config)
    designs = []  # every candidate decodes before --out is created
    for k in range(args.num_candidates):
        rng = np.random.default_rng(args.seed + k)
        coords0 = geometry.init_coordinates(motif_coords, indices, n, rng,
                                            config.bond_length)
        logits, coords_out, _ = forward_stack(seq_indices, mask, tag_idx,
                                              coords0, params, config,
                                              encoded=encoded)
        decoded = greedy_decode(logits, seq_indices, mask)
        designs.append(("".join(AMINO_ACIDS[i] for i in decoded),
                        coords_out.data))
    with open(args.out, "w") as f:
        for k, (seq, coords) in enumerate(designs):
            f.write(f">candidate_{k} tag={tag} length={n}\n{seq}\n")
            for i, xyz in enumerate(coords):
                f.write(f"{i}\t{seq[i]}\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t{xyz[2]:.6f}\n")
    return 0


def cmd_export_embeddings(args) -> int:
    check_out_dir(args.out)
    params, config, vocab, _ = load_checkpoint(args.checkpoint)
    with open(args.out, "w") as f:
        for level, table in enumerate(vocab.levels, start=1):
            rows = params[f"emb/tag_l{level}"].data
            for i, tag in enumerate(table):
                values = "\t".join(f"{v:.17g}" for v in rows[i])
                f.write(f"{tag}\t{values}\n")
    return 0


# name -> (suite(params, config, vocab, trials), the property it checks)
SUITES = {
    "equivariance": (lambda p, c, v, trials: run_equivariance_suite(
        p, c, trials), "SE(3) equivariance"),
    "gradients": (lambda p, c, v, trials: run_gradient_suite(p, c, v),
                  "gradient audit"),
    "binding": (lambda p, c, v, trials: run_binding_invariance_suite(
        p, c, trials), "binding invariance"),
}


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise UsageError("--trials must be at least 1")
    params, config, vocab, _ = load_checkpoint(args.checkpoint)
    ok = True
    for name, (suite, prop) in SUITES.items():
        if args.suite not in (name, "all"):
            continue
        res = suite(params, config, vocab, args.trials)
        passed = res.pop("passed")
        values = " ".join(f"{key}={value:.3e}" if isinstance(value, float)
                          else f"{key}={value}" for key, value in res.items())
        print(f"{name}: {values} {'PASS' if passed else 'FAIL'}")
        if not passed:
            print(f"failing property: {prop}", file=sys.stderr)
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
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
