"""Shared toy corpus used by the training, CLI and acceptance tests.

Eight short protein-like records with consecutive Ca atoms 3.75 apart,
a unique fourth-level EC tag per record (so tag + position identifies
the target residue), and exactly two free residues per record. That
keeps the coordinate term small enough for the sequence term to be
memorized within a 500-step budget.
"""
import numpy as np

from enzydesign.data import EnzymeRecord, SubstrateRecord
from enzydesign.residues import AMINO_ACIDS
from enzydesign.site_miner import SiteAnnotation, write_site_manifest

TOY_LENGTH = 12
TOY_RECORDS = 8
TOY_SUBSTRATES = 3


def write_tsv(path, record: EnzymeRecord) -> None:
    """A record in the TSV layout ``data.read_tsv`` reads."""
    with open(path, "w") as f:
        for aa, xyz in zip(record.sequence, record.coords):
            f.write(f"{record.id}\t{aa}\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t"
                    f"{xyz[2]:.6f}\n")


def write_substrate(path, sub: SubstrateRecord) -> None:
    """A substrate in the layout ``data.read_substrate`` reads."""
    with open(path, "w") as f:
        f.write(f"{sub.id}\t{sub.features.shape[0]}\n")
        for feats, xyz in zip(sub.features, sub.coords):
            feat_field = " ".join(f"{v:.6f}" for v in feats)
            f.write(f"{feat_field}\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t"
                    f"{xyz[2]:.6f}\n")


def free_positions(length: int) -> list[int]:
    return [length // 3, 2 * length // 3]


def make_toy_corpus(seed: int = 7):
    """Returns (records, substrate_pool) with positive pairings attached."""
    rng = np.random.default_rng(seed)
    records = []
    for r in range(TOY_RECORDS):
        seq = "".join(rng.choice(list(AMINO_ACIDS), size=TOY_LENGTH))
        steps = rng.normal(size=(TOY_LENGTH, 3))
        steps /= np.linalg.norm(steps, axis=1, keepdims=True)
        coords = np.cumsum(steps * 3.75, axis=0)
        coords -= coords[0]
        free = set(free_positions(TOY_LENGTH))
        sites = sorted(set(range(TOY_LENGTH)) - free)
        records.append(EnzymeRecord(
            id=f"rec{r}", sequence=seq, coords=coords, sites=sites,
            tag=f"1.1.1.{r + 1}", substrate_id=f"sub{r % TOY_SUBSTRATES}",
            binding_label=1))
    pool = {}
    for s in range(TOY_SUBSTRATES):
        pool[f"sub{s}"] = SubstrateRecord(
            id=f"sub{s}", features=rng.normal(size=(4, 5)),
            coords=rng.normal(size=(4, 3)) * 2.0)
    return records, pool


def write_toy_tree(root):
    """Materializes the corpus as the on-disk layout cmd_train expects."""
    records, pool = make_toy_corpus()
    (root / "records").mkdir(parents=True, exist_ok=True)
    (root / "substrates").mkdir(exist_ok=True)
    for rec in records:
        write_tsv(root / "records" / f"{rec.id}.tsv", rec)
    for sub in pool.values():
        write_substrate(root / "substrates" / f"{sub.id}.tsv", sub)
    with open(root / "tags.tsv", "w") as f:
        for rec in records:
            f.write(f"{rec.id}\t{rec.tag}\n")
    with open(root / "pairings.tsv", "w") as f:
        for rec in records:
            f.write(f"{rec.id}\t{rec.substrate_id}\t1\n")
    annotations = [SiteAnnotation(rec.id, list(rec.sites),
                                  [rec.sequence[i] for i in rec.sites])
                   for rec in records]
    write_site_manifest(root / "sites.tsv", annotations)
    motif = records[0]
    with open(root / "motif.tsv", "w") as f:
        f.write(f"length {TOY_LENGTH}, tag {motif.tag}\n")
        for i in motif.sites:
            x, y, z = motif.coords[i]
            f.write(f"{i}\t{motif.sequence[i]}\t{x:.6f}\t{y:.6f}\t{z:.6f}\n")
    return records, pool
