"""Corpus ingestion and dataset assembly.

Enzyme records come from PDB text or a simplified TSV (one residue per
line), substrates from a small per-atom text format. ``read_table`` reads
every tab-separated input and names the file and line of a bad row.
Records are grouped into identity clusters (global alignment,
``SPLIT_IDENTITY`` = 50%) so train and held-out splits never share a
cluster. The Needleman-Wunsch fill takes three numpy calls a row, and a
pair whose length ratio is below the threshold is never aligned, since
its identity cannot reach it. A record keeps the substrate pairing its
manifest gives; training draws the negatives.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SUBSTRATE_FEATURES
from .residues import AA_TO_INDEX, AMINO_ACIDS, THREE_TO_ONE, UnknownResidueError

SPLIT_IDENTITY = 0.5      # clusters never straddle a split
HELD_OUT_FRACTION = 0.1   # of clusters, for test and for valid each


class DataError(ValueError):
    pass


def claim(owners: dict, key: str, where) -> None:
    """``owners[key] = where``; a second ``where`` raises naming both."""
    if owners.setdefault(key, where) != where:
        raise DataError(f"{key} is given in both {owners[key]} and {where}")


def read_table(path, width: int, parse, header=False, keyed=False):
    """``parse(*fields)`` for each non-blank row of a tab-separated file.

    A row without ``width`` fields, or whose ``parse`` raises ValueError,
    raises DataError naming the file and 1-based line, as does a repeated
    key with ``keyed``, which returns the (key, value) rows as a dict.
    With ``header``, returns ``(first line, rows)``.
    """
    rows, lines = [], {}
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
                if keyed:
                    claim(lines, f"id {rows[-1][0]!r}", f"line {lineno}")
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
    return (first, rows) if header else dict(rows) if keyed else rows


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
    features: np.ndarray             # m x SUBSTRATE_FEATURES chemical features
    coords: np.ndarray               # m x 3

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        if self.features.ndim != 2 or self.features.shape[1] != SUBSTRATE_FEATURES:
            raise DataError(f"{self.id}: substrate features must be m x "
                            f"{SUBSTRATE_FEATURES}")
        if self.features.shape[0] != self.coords.shape[0] or self.features.shape[0] < 1:
            raise DataError(f"{self.id}: inconsistent atom counts")
        if not (np.all(np.isfinite(self.features))
                and np.all(np.isfinite(self.coords))):
            raise DataError(f"{self.id}: non-finite features or coordinates")


# ---- coordinate ingestion ----

def parse_pdb(path) -> EnzymeRecord:
    """First-chain Cα trace from PDB-format text.

    Keeps altLoc blank or 'A' only. Non-standard residue codes abort the
    record (never remapped to a lookalike type).
    """
    rid = Path(path).stem
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


def read_tsv(path) -> EnzymeRecord:
    """One record per file: every row carries the first row's id."""
    ids = []

    def residue(rid, aa, x, y, z):
        if not ids:
            ids.append(rid)
        elif rid != ids[0]:
            raise ValueError(f"record id {rid!r} differs from {ids[0]!r}")
        return aa, [float(x), float(y), float(z)]

    rows = read_table(path, 5, residue)
    if not rows:
        raise DataError(f"{path}: empty record file")
    return EnzymeRecord(ids[0], "".join(aa for aa, _ in rows),
                        np.array([xyz for _, xyz in rows]))


def ingest_directory(directory) -> list[EnzymeRecord]:
    """Parse every .pdb/.tsv file; an unparseable record is skipped with a
    one-line warning on stderr, and a record id in two read files raises."""
    records, files = [], {}
    for path in sorted(Path(directory).iterdir()):
        reader = {".pdb": parse_pdb, ".tsv": read_tsv}.get(path.suffix)
        try:
            rec = reader(path) if reader else None
        except ValueError as exc:  # DataError, UnknownResidueError, undecodable text
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        if rec:
            claim(files, f"record {rec.id!r}", path.name)
            records.append(rec)
    return records


# ---- substrate files ----

def _substrate_atom(feat_field, x, y, z):
    feats = [float(v) for v in feat_field.split()]
    if len(feats) != SUBSTRATE_FEATURES:
        raise ValueError(f"want {SUBSTRATE_FEATURES} features, got {len(feats)}")
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
    """record_id -> EC tag, one row per record."""
    return read_table(path, 2, lambda rid, tag: (rid, tag), keyed=True)


def _pairing(eid, sid, label):
    y = int(label)
    if y not in (0, 1):
        raise ValueError(f"binding label must be 0 or 1, got {y}")
    return eid, (sid, y)


def read_pairing_manifest(path) -> dict:
    """enzyme_id -> (substrate_id, label 0 or 1), one row per enzyme."""
    return read_table(path, 3, _pairing, keyed=True)


# ---- sequence identity and clustering ----

def global_alignment_identity(a: str, b: str) -> float:
    """Identity = matches / alignment length under match=1, mismatch=0, gap=-1.

    Needleman-Wunsch on shifted scores v[i, j] = score[i, j] + i + j,
    whose borders are 0: v[i, j] = max(v[i-1, j-1] + match + 2, v[i-1, j],
    v[i, j-1]), three numpy calls a row. All values are small integers,
    exact in float64, so ``==`` against the diagonal and up candidates
    recovers the traceback preference (diagonal, then up, then left).
    """
    la, lb = len(a), len(b)
    codes_a = np.fromiter(map(ord, a), dtype=np.int64, count=la)
    codes_b = np.fromiter(map(ord, b), dtype=np.int64, count=lb)
    gain = (codes_a[:, None] == codes_b[None, :]) + 2.0
    v = np.zeros((la + 1, lb + 1))
    for row, cur, up, diag, g in zip(v[1:], v[1:, 1:], v[:-1, 1:],
                                     v[:-1, :-1], gain):
        np.add(diag, g, out=cur)
        np.maximum(cur, up, out=cur)
        np.maximum.accumulate(row, out=row)
    best = v[1:, 1:]
    is_diag = (best == v[:-1, :-1] + gain).tobytes()
    is_up = (best == v[:-1, 1:]).tobytes()
    matches, length = 0, 0
    i, j = la, lb
    while i and j:
        k = (i - 1) * lb + j - 1
        length += 1
        if is_diag[k]:
            matches += a[i - 1] == b[j - 1]
            i, j = i - 1, j - 1
        elif is_up[k]:
            i -= 1
        else:
            j -= 1
    length += i + j  # the rest of the path runs along row or column 0
    return matches / length if length else 0.0


def _may_reach(a: str, b: str, threshold: float) -> bool:
    """False when identity(a, b) < threshold follows from the lengths alone:
    matches <= the shorter length and alignment length >= the longer."""
    short, long = sorted((len(a), len(b)))
    return long == 0 or short / long >= threshold


def cluster_by_identity(records, threshold: float) -> dict:
    """record id -> cluster id, greedy single linkage in id order.

    A pair whose length ratio is below the threshold is never aligned
    (the exact length rule of CD-HIT).
    """
    ordered = sorted(records, key=lambda r: r.id)
    clusters: list[list[EnzymeRecord]] = []
    assignment = {}
    for rec in ordered:
        placed = False
        for cid, members in enumerate(clusters):
            if any(_may_reach(rec.sequence, m.sequence, threshold)
                   and global_alignment_identity(rec.sequence, m.sequence)
                   >= threshold for m in members):
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

    def write(self, path) -> None:
        with open(path, "w") as f:
            for rid in sorted(self.split):
                f.write(f"{rid}\t{self.assignment[rid]}\t{self.split[rid]}\n")


def make_split_manifest(records, seed: int) -> SplitManifest:
    """Cluster-level split: whole clusters go to one side, never both."""
    assignment = cluster_by_identity(records, SPLIT_IDENTITY)
    cluster_ids = sorted(set(assignment.values()))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(cluster_ids))
    n_held = max(1, int(round(HELD_OUT_FRACTION * len(cluster_ids)))) \
        if len(cluster_ids) > 2 else 0
    test_set = {cluster_ids[i] for i in order[:n_held]}
    valid_set = {cluster_ids[i] for i in order[n_held:2 * n_held]}
    split = {}
    for rec in records:
        cid = assignment[rec.id]
        split[rec.id] = ("test" if cid in test_set
                         else "valid" if cid in valid_set else "train")
    return SplitManifest(assignment, split)


# ---- assembly ----

def assemble_dataset(records, sites, substrate_pool, pairings, manifest):
    """Attach sites and substrate pairings, grouped by manifest split.

    A record without a pairing keeps ``substrate_id = binding_label =
    None``; ``training.train`` draws its negatives. Test records must
    arrive with a real substrate pairing.
    """
    if not substrate_pool:
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
        out[which].append(rec)
    return out
