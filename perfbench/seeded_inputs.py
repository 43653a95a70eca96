"""Seeded input generators for the three benchmark workloads.

Everything the program reads is written here as plain files (TSV and PDB
records, substrates, manifests, aligned FASTA families, motif files and
run configs) from one ``numpy`` generator seeded with ``--seed``. Paths
inside the configs are relative, so the same seed gives byte-identical
files in any directory.

Only numpy is imported: generating inputs runs no program code.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

AMINO = "ACDEFGHIKLMNPQRSTVWY"
ONE_TO_THREE = {
    "A": "ALA", "R": "ARG", "N": "ASN", "D": "ASP", "C": "CYS",
    "Q": "GLN", "E": "GLU", "G": "GLY", "H": "HIS", "I": "ILE",
    "L": "LEU", "K": "LYS", "M": "MET", "F": "PHE", "P": "PRO",
    "S": "SER", "T": "THR", "W": "TRP", "Y": "TYR", "V": "VAL",
}
BOND = 3.75

# train_short: two families of N-terminal truncations. Each truncation
# keeps >= 66 % identity with the next longer one, so every family is one
# identity cluster; with at most two clusters the split puts every record
# in train, and each step packs the whole corpus (177 residues) under the
# default 8192-residue budget.
TRAIN_FAMILIES = {"a": (12, 18, 27), "b": (32, 40, 48)}
TRAIN_PHASE1_STEPS = 4
TRAIN_PHASE2_STEPS = 12

# generate: motif lengths in request order; requests cycle through it.
GEN_LENGTHS = (12, 128, 512)
GEN_ORDER = (128, 12, 128, 512, 128, 12, 128)
GEN_MOTIF_SIZE = 6
GEN_CANDIDATES = 2

# corpus_prep: families of two same-length members (10 % substitutions).
# Lengths are a fixed multiset dealt to families by the seed, and member
# ids sort family by family, so the clustering compares the same number
# of pairs with the same total alignment area for every seed.
PREP_FAMILY_LENGTHS = (60, 95, 130, 165, 200)
PREP_ALIGNED_FAMILIES = 4
PREP_ALIGNED_ROWS = 40
PREP_ALIGNED_WIDTH = 240
PREP_CONSERVED_COLUMNS = 24
PREP_TAU = 0.30


def _walk(rng, n: int) -> np.ndarray:
    """Cα trace: a random walk with the canonical bond length."""
    steps = rng.normal(size=(n, 3))
    steps *= BOND / np.linalg.norm(steps, axis=1, keepdims=True)
    steps[0] = 0.0
    return np.cumsum(steps, axis=0)


def _sequence(rng, n: int) -> str:
    return "".join(AMINO[i] for i in rng.integers(0, len(AMINO), size=n))


def _write_tsv(path: Path, rid: str, seq: str, coords) -> None:
    with open(path, "w") as f:
        for aa, xyz in zip(seq, coords):
            f.write(f"{rid}\t{aa}\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t{xyz[2]:.6f}\n")


def _write_pdb(path: Path, seq: str, coords) -> None:
    with open(path, "w") as f:
        for i, (aa, xyz) in enumerate(zip(seq, coords), start=1):
            f.write(f"ATOM  {i:5d}  CA  {ONE_TO_THREE[aa]} A{i:4d}    "
                    f"{xyz[0]:8.3f}{xyz[1]:8.3f}{xyz[2]:8.3f}"
                    f"  1.00  0.00           C\n")
        f.write("END\n")


def _write_substrates(rng, directory: Path, count: int) -> list[str]:
    directory.mkdir()
    ids = []
    for s in range(count):
        sid = f"sub{s}"
        atoms = int(rng.integers(4, 9))
        feats = rng.normal(size=(atoms, 5))
        coords = rng.normal(0.0, 2.0, size=(atoms, 3))
        with open(directory / f"{sid}.tsv", "w") as f:
            f.write(f"{sid}\t{atoms}\n")
            for fv, xyz in zip(feats, coords):
                f.write(" ".join(f"{v:.6f}" for v in fv)
                        + f"\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t{xyz[2]:.6f}\n")
        ids.append(sid)
    return ids


def _write_corpus(rng, root: Path, records: dict, tags: dict,
                  site_fraction: float, pdb_ids=()) -> None:
    """records: id -> (sequence, coords). Writes records/, manifests, substrates/."""
    (root / "records").mkdir(parents=True)
    for rid, (seq, coords) in records.items():
        if rid in pdb_ids:
            _write_pdb(root / "records" / f"{rid}.pdb", seq, coords)
        else:
            _write_tsv(root / "records" / f"{rid}.tsv", rid, seq, coords)
    sub_ids = _write_substrates(rng, root / "substrates", 3)
    with open(root / "tags.tsv", "w") as tf, \
            open(root / "sites.tsv", "w") as sf, \
            open(root / "pairings.tsv", "w") as pf:
        for k, (rid, (seq, _)) in enumerate(records.items()):
            tf.write(f"{rid}\t{tags[rid]}\n")
            count = max(1, int(round(site_fraction * len(seq))))
            sites = np.sort(rng.choice(len(seq), size=count, replace=False))
            sf.write(f"{rid}\t{','.join(str(i) for i in sites)}\t"
                     f"{','.join(seq[i] for i in sites)}\n")
            pf.write(f"{rid}\t{sub_ids[k % len(sub_ids)]}\t{1 - k % 3 // 2}\n")


def _write_config(path: Path, corpus: str, phase1: int, phase2: int,
                  seed: int, out: str) -> None:
    config = {
        "model": {},
        "schedule": {"phase1_steps": phase1, "phase2_steps": phase2,
                     "learning_rate": 3e-4, "batch_residues": 8192,
                     "seed": seed},
        "data": {"records_dir": f"{corpus}/records",
                 "tags": f"{corpus}/tags.tsv",
                 "sites_manifest": f"{corpus}/sites.tsv",
                 "substrates_dir": f"{corpus}/substrates",
                 "pairings": f"{corpus}/pairings.tsv",
                 "split_seed": seed},
        "output": {"checkpoint": f"{out}.ckpt",
                   "loss_log": f"{out}_loss.log",
                   "split_manifest": f"{out}_splits.tsv"},
    }
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")


def train_short(root: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    records, tags = {}, {}
    for f, (fam, lengths) in enumerate(TRAIN_FAMILIES.items()):
        base_seq = _sequence(rng, max(lengths))
        base_xyz = _walk(rng, max(lengths))
        tag = f"3.1.{1 + f}.{int(rng.integers(1, 4))}"
        for k, n in enumerate(lengths):
            rid = f"{fam}{k}"
            records[rid] = (base_seq[:n], base_xyz[:n])
            tags[rid] = tag
    _write_corpus(rng, root / "corpus", records, tags, site_fraction=1 / 3)
    schedule_seed = int(rng.integers(1 << 30))
    _write_config(root / "train.json", "corpus", TRAIN_PHASE1_STEPS,
                  TRAIN_PHASE2_STEPS, schedule_seed, "train")
    _write_config(root / "warmup.json", "corpus", 1, 1, schedule_seed, "warmup")
    residues = sum(len(s) for s, _ in records.values())
    free = sum(len(s) - max(1, int(round(len(s) / 3)))
               for s, _ in records.values())
    return {"steps": TRAIN_PHASE1_STEPS + TRAIN_PHASE2_STEPS,
            "records": sorted(records), "residues_per_step": residues,
            "free_per_step": free}


def generate(root: Path, seed: int) -> dict:
    """Motif files for each length plus a small corpus to train the checkpoint."""
    rng = np.random.default_rng([seed, 2])
    records, tags = {}, {}
    for k in range(4):
        rid = f"g{k}"
        records[rid] = (_sequence(rng, 24), _walk(rng, 24))
        tags[rid] = f"2.7.{1 + k // 2}.{1 + k % 2}"
    _write_corpus(rng, root / "corpus", records, tags, site_fraction=0.25)
    _write_config(root / "checkpoint.json", "corpus", 2, 2,
                  int(rng.integers(1 << 30)), "model")
    motifs = {}
    for n in GEN_LENGTHS:
        indices = np.sort(rng.choice(n, size=GEN_MOTIF_SIZE, replace=False))
        xyz = _walk(rng, n)[indices]
        residues = _sequence(rng, GEN_MOTIF_SIZE)
        tag = tags[f"g{int(rng.integers(4))}"]
        path = root / f"motif_{n}.tsv"
        with open(path, "w") as f:
            f.write(f"length {n}, tag {tag}\n")
            for i, aa, p in zip(indices, residues, xyz):
                f.write(f"{i}\t{aa}\t{p[0]:.6f}\t{p[1]:.6f}\t{p[2]:.6f}\n")
        motifs[n] = {"path": path.name, "indices": [int(i) for i in indices],
                     "residues": residues}
    return {"motifs": motifs, "request_seed": int(rng.integers(1 << 30)),
            "candidates": GEN_CANDIDATES, "order": list(GEN_ORDER)}


def _aligned_family(rng, rows: int, width: int, conserved: int):
    """Gapped rows with ``conserved`` gap-free columns shared by every row.

    Other columns draw a uniform letter per row (a gap with probability
    0.15) and are redrawn until no letter fills a fifth of the rows, so
    none can reach the tau threshold.
    """
    cols = np.sort(rng.choice(width, size=conserved, replace=False))
    letters = rng.integers(0, len(AMINO), size=conserved)
    grid = rng.integers(0, len(AMINO), size=(rows, width))
    gaps = rng.random((rows, width)) < 0.15
    for c in range(width):   # keep every other column far below tau
        while np.bincount(grid[~gaps[:, c], c]).max(initial=0) > 0.2 * rows:
            grid[:, c] = rng.integers(0, len(AMINO), size=rows)
    grid[:, cols] = letters
    gaps[:, cols] = False
    seqs = ["".join("-" if gaps[r, c] else AMINO[grid[r, c]]
                    for c in range(width)) for r in range(rows)]
    expected = []
    for seq in seqs:
        ungapped = np.cumsum([ch != "-" for ch in seq]) - 1
        expected.append(([int(ungapped[c]) for c in cols],
                         [AMINO[x] for x in letters]))
    return seqs, expected


def corpus_prep(root: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    lengths = [PREP_FAMILY_LENGTHS[i]
               for i in rng.permutation(len(PREP_FAMILY_LENGTHS))]
    records, tags, pdb_ids = {}, {}, set()
    for f, n in enumerate(lengths):
        seq = _sequence(rng, n)
        xyz = _walk(rng, n)
        tag = f"1.{1 + f % 3}.1.{1 + f % 2}"
        for m in range(2):
            rid = f"fam{f:02d}_{m}"
            if m:
                hit = rng.random(n) < 0.10
                seq = "".join(AMINO[int(rng.integers(len(AMINO)))] if h else c
                              for c, h in zip(seq, hit))
                xyz = xyz + rng.normal(0.0, 0.5, size=xyz.shape)
            records[rid] = (seq, xyz)
            tags[rid] = tag
            if (f + m) % 2:
                pdb_ids.add(rid)
    _write_corpus(rng, root / "corpus", records, tags, site_fraction=0.1,
                  pdb_ids=pdb_ids)
    _write_config(root / "prep.json", "corpus", 0, 0,
                  int(rng.integers(1 << 30)), "prep")
    (root / "msas").mkdir()
    expected = {}
    for a in range(PREP_ALIGNED_FAMILIES):
        seqs, exp = _aligned_family(rng, PREP_ALIGNED_ROWS, PREP_ALIGNED_WIDTH,
                                    PREP_CONSERVED_COLUMNS)
        with open(root / "msas" / f"family{a}.fasta", "w") as f:
            for r, seq in enumerate(seqs):
                rid = f"fam{a}_seq{r:02d}"
                f.write(f">{rid}\n{seq[:80]}\n{seq[80:160]}\n{seq[160:]}\n")
                expected[rid] = exp[r]
    # a two-record warm-up corpus, run once per set-up repetition
    warm = {rid: records[rid] for rid in ("fam00_0", "fam00_1")}
    (root / "warmup").mkdir()
    _write_corpus(rng, root / "warmup" / "corpus", warm,
                  {rid: tags[rid] for rid in warm}, site_fraction=0.1)
    _write_config(root / "warmup.json", "warmup/corpus", 0, 0, 0, "warmup")
    return {"records": sorted(records), "families": len(lengths),
            "tau": PREP_TAU, "expected_sites": expected}


GENERATORS = {"train_short": train_short, "generate": generate,
              "corpus_prep": corpus_prep}


def write_inputs(workload: str, root, seed: int) -> dict:
    """Write the workload's inputs under ``root``; return what the checks need."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](root, seed)
