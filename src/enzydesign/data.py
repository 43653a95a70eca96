"""Corpus ingestion and dataset assembly.

Enzyme records come from PDB text or a simplified TSV (one residue per
line), substrates from a small per-atom text format. ``read_table`` reads
every tab-separated input and names the file and line of a bad row.
Records are grouped into identity clusters (global alignment, 50%
threshold by default) so train and held-out splits never share a
cluster, and every training record gets a substrate pairing: its
experimental positive or a sampled negative.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .residues import AA_TO_INDEX, AMINO_ACIDS, THREE_TO_ONE, UnknownResidueError


class DataError(ValueError):
    pass


def read_table(path, width: int, parse, header: bool = False):
    """``parse(*fields)`` for each non-blank row of a tab-separated file.

    A row without ``width`` fields, or whose ``parse`` raises ValueError,
    raises DataError naming the file and 1-based line. With ``header``,
    returns ``(first line, rows)``.
    """
    rows = []
    with open(path) as f:
        first = f.readline().rstrip("\n") if header else None
        for lineno, line in enumerate(f, start=2 if header else 1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != width:
                    raise ValueError(f"want {width} tab-separated fields, "
                                     f"got {len(fields)}")
                rows.append(parse(*fields))
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
    return (first, rows) if header else rows


def _check_sites(rec) -> None:
    for i in rec.sites:
        if not 0 <= i < len(rec.sequence):
            raise DataError(f"{rec.id}: site index {i} outside the sequence")


@dataclass
class EnzymeRecord:
    id: str
    sequence: str
    coords: np.ndarray               # N x 3 Cα positions
    sites: list = field(default_factory=list)  # important-site indices
    tag: str = ""
    substrate_id: str | None = None
    binding_label: int | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        if len(self.sequence) != self.coords.shape[0]:
            raise DataError(f"{self.id}: sequence length {len(self.sequence)} "
                            f"!= coordinate rows {self.coords.shape[0]}")
        bad = [c for c in self.sequence if c not in AA_TO_INDEX]
        if bad:
            raise UnknownResidueError(f"{self.id}: non-standard residues {bad}")
        _check_sites(self)
        if not np.all(np.isfinite(self.coords)):
            raise DataError(f"{self.id}: non-finite coordinates")

    @property
    def seq_indices(self) -> np.ndarray:
        return np.array([AA_TO_INDEX[c] for c in self.sequence], dtype=np.intp)

    @property
    def site_mask(self) -> np.ndarray:
        mask = np.zeros(len(self.sequence), dtype=bool)
        mask[list(self.sites)] = True
        return mask


@dataclass
class SubstrateRecord:
    id: str
    features: np.ndarray             # m x 5 chemical features
    coords: np.ndarray               # m x 3

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        if self.features.ndim != 2 or self.features.shape[1] != 5:
            raise DataError(f"{self.id}: substrate features must be m x 5")
        if self.features.shape[0] != self.coords.shape[0] or self.features.shape[0] < 1:
            raise DataError(f"{self.id}: inconsistent atom counts")
        if not (np.all(np.isfinite(self.features))
                and np.all(np.isfinite(self.coords))):
            raise DataError(f"{self.id}: non-finite features or coordinates")


# ---- coordinate ingestion ----

def parse_pdb(path, record_id: str | None = None) -> EnzymeRecord:
    """First-chain Cα trace from PDB-format text.

    Keeps altLoc blank or 'A' only. Non-standard residue codes abort the
    record (never remapped to a lookalike type).
    """
    rid = record_id or Path(path).stem
    sequence, coords = [], []
    chain = None
    seen = set()
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.startswith("ATOM"):
                continue
            if line[12:16].strip() != "CA":
                continue
            altloc = line[16:17]
            if altloc not in (" ", "A"):
                continue
            this_chain = line[21:22]
            if chain is None:
                chain = this_chain
            elif this_chain != chain:
                continue
            resname = line[17:20].strip()
            reskey = (line[22:26], line[26:27])  # resSeq + insertion code
            if reskey in seen:
                continue
            seen.add(reskey)
            if resname not in THREE_TO_ONE:
                raise UnknownResidueError(
                    f"{rid}: unknown residue code {resname!r}")
            try:
                coords.append([float(line[c:c + 8]) for c in (30, 38, 46)])
            except ValueError:
                raise DataError(f"{path} line {lineno}: bad coordinates") from None
            sequence.append(THREE_TO_ONE[resname])
    if not coords:
        raise DataError(f"{rid}: no Cα atoms found")
    return EnzymeRecord(rid, "".join(sequence), np.array(coords))


def write_tsv(path, record: EnzymeRecord) -> None:
    with open(path, "w") as f:
        for i, (aa, xyz) in enumerate(zip(record.sequence, record.coords)):
            f.write(f"{record.id}\t{aa}\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t{xyz[2]:.6f}\n")


def read_tsv(path) -> EnzymeRecord:
    rows = read_table(path, 5, lambda rid, aa, x, y, z:
                      (rid, aa, [float(x), float(y), float(z)]))
    if not rows:
        raise DataError(f"{path}: empty record file")
    return EnzymeRecord(rows[-1][0], "".join(aa for _, aa, _ in rows),
                        np.array([xyz for _, _, xyz in rows]))


def ingest_directory(directory) -> list[EnzymeRecord]:
    """Parse every .pdb/.tsv file, skipping unparseable records with a warning."""
    records = []
    for path in sorted(Path(directory).iterdir()):
        try:
            if path.suffix == ".pdb":
                records.append(parse_pdb(path))
            elif path.suffix == ".tsv":
                records.append(read_tsv(path))
        except ValueError as exc:  # DataError, UnknownResidueError, undecodable text
            warnings.warn(f"skipping {path.name}: {exc}")
    return records


# ---- substrate files ----

def write_substrate(path, sub: SubstrateRecord) -> None:
    with open(path, "w") as f:
        f.write(f"{sub.id}\t{sub.features.shape[0]}\n")
        for feats, xyz in zip(sub.features, sub.coords):
            feat_field = " ".join(f"{v:.6f}" for v in feats)
            f.write(f"{feat_field}\t{xyz[0]:.6f}\t{xyz[1]:.6f}\t{xyz[2]:.6f}\n")


def _substrate_atom(feat_field, x, y, z):
    feats = [float(v) for v in feat_field.split()]
    if len(feats) != 5:
        raise ValueError(f"want 5 features, got {len(feats)}")
    return feats, [float(x), float(y), float(z)]


def read_substrate(path) -> SubstrateRecord:
    header, atoms = read_table(path, 4, _substrate_atom, header=True)
    name, _, count = header.partition("\t")
    if not count.isdecimal():
        raise DataError(f"{path} line 1: want a name and an atom count")
    if len(atoms) != int(count):
        raise DataError(f"{path}: header promises {count} atoms, found {len(atoms)}")
    return SubstrateRecord(name, np.array([f for f, _ in atoms]),
                           np.array([xyz for _, xyz in atoms]))


def read_tags(path) -> dict:
    """record_id -> EC tag from a tab-separated file."""
    return dict(read_table(path, 2, lambda rid, tag: (rid, tag)))


def read_pairing_manifest(path) -> dict:
    """enzyme_id -> (substrate_id, label) from a tab-separated manifest."""
    return dict(read_table(path, 3, lambda eid, sid, label:
                           (eid, (sid, int(label)))))


# ---- sequence identity and clustering ----

def global_alignment_identity(a: str, b: str) -> float:
    """Identity = matches / alignment length under match=1, mismatch=0, gap=-1.

    Needleman-Wunsch with a deterministic traceback preference
    (diagonal, then up, then left).
    """
    la, lb = len(a), len(b)
    score = np.zeros((la + 1, lb + 1))
    move = np.zeros((la + 1, lb + 1), dtype=np.int8)  # 0 diag, 1 up, 2 left
    score[:, 0] = -np.arange(la + 1)
    score[0, :] = -np.arange(lb + 1)
    move[1:, 0] = 1
    move[0, 1:] = 2
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            diag = score[i - 1, j - 1] + (1.0 if a[i - 1] == b[j - 1] else 0.0)
            up = score[i - 1, j] - 1.0
            left = score[i, j - 1] - 1.0
            best = max(diag, up, left)
            score[i, j] = best
            move[i, j] = 0 if best == diag else (1 if best == up else 2)
    matches, length = 0, 0
    i, j = la, lb
    while i > 0 or j > 0:
        length += 1
        m = move[i, j]
        if m == 0:
            matches += a[i - 1] == b[j - 1]
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
    return matches / length if length else 0.0


def cluster_by_identity(records, threshold: float = 0.5) -> dict:
    """record id -> cluster id, greedy single linkage in id order."""
    ordered = sorted(records, key=lambda r: r.id)
    clusters: list[list[EnzymeRecord]] = []
    assignment = {}
    for rec in ordered:
        placed = False
        for cid, members in enumerate(clusters):
            if any(global_alignment_identity(rec.sequence, m.sequence) >= threshold
                   for m in members):
                members.append(rec)
                assignment[rec.id] = cid
                placed = True
                break
        if not placed:
            assignment[rec.id] = len(clusters)
            clusters.append([rec])
    return assignment


@dataclass
class SplitManifest:
    assignment: dict                 # record id -> cluster id
    split: dict                      # record id -> 'train' | 'valid' | 'test'

    def ids(self, which: str) -> list:
        return sorted(r for r, s in self.split.items() if s == which)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for rid in sorted(self.split):
                f.write(f"{rid}\t{self.assignment[rid]}\t{self.split[rid]}\n")

    @classmethod
    def read(cls, path) -> "SplitManifest":
        rows = read_table(path, 3, lambda rid, c, which: (rid, int(c), which))
        return cls({rid: cid for rid, cid, _ in rows},
                   {rid: which for rid, _, which in rows})


def make_split_manifest(records, seed: int, threshold: float = 0.5,
                        valid_fraction: float = 0.1,
                        test_fraction: float = 0.1) -> SplitManifest:
    """Cluster-level split: whole clusters go to one side, never both."""
    assignment = cluster_by_identity(records, threshold)
    cluster_ids = sorted(set(assignment.values()))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(cluster_ids))
    n_test = max(1, int(round(test_fraction * len(cluster_ids)))) \
        if len(cluster_ids) > 2 else 0
    n_valid = max(1, int(round(valid_fraction * len(cluster_ids)))) \
        if len(cluster_ids) > 2 else 0
    test_set = {cluster_ids[i] for i in order[:n_test]}
    valid_set = {cluster_ids[i] for i in order[n_test:n_test + n_valid]}
    split = {}
    for rec in records:
        cid = assignment[rec.id]
        split[rec.id] = ("test" if cid in test_set
                         else "valid" if cid in valid_set else "train")
    return SplitManifest(assignment, split)


# ---- assembly ----

def assemble_dataset(records, sites, substrate_pool, pairings, manifest,
                     seed: int):
    """Attach sites and substrate pairings, grouped by manifest split.

    Records without a substrate pairing get a uniformly sampled negative
    (label 0) from the pool. Test records must arrive with a real
    substrate pairing.
    """
    rng = np.random.default_rng(seed)
    pool_ids = sorted(substrate_pool)
    if not pool_ids:
        raise DataError("empty substrate pool")
    out = {"train": [], "valid": [], "test": []}
    for rec in sorted(records, key=lambda r: r.id):
        which = manifest.split[rec.id]
        if rec.id in sites:
            rec.sites = list(sites[rec.id].indices)
            _check_sites(rec)
        if rec.id in pairings:
            sid, label = pairings[rec.id]
            if sid not in substrate_pool:
                raise DataError(f"{rec.id}: unknown substrate {sid!r}")
            rec.substrate_id, rec.binding_label = sid, label
        elif which == "test":
            raise DataError(f"test record {rec.id} lacks a substrate pairing")
        else:
            rec.substrate_id = pool_ids[int(rng.integers(len(pool_ids)))]
            rec.binding_label = 0
        out[which].append(rec)
    return out
