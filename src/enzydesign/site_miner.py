"""Conserved-column mining from multiple sequence alignments.

A column is functionally important when a single residue letter (gaps
excluded) occurs in strictly more than a fraction tau of the family's
rows. Conserved columns map back into each member's ungapped index space
for the members that actually carry the conserved letter.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .data import read_table

GAP_CHARS = {"-", "."}


class AlignmentError(ValueError):
    pass


@dataclass
class AlignedFamily:
    family_tag: str
    rows: list  # (sequence_id, gapped sequence) pairs
    column_count: int = 0

    def __post_init__(self):
        if len(self.rows) < 2:
            raise AlignmentError("an aligned family needs at least 2 rows")
        widths = {len(seq) for _, seq in self.rows}
        if len(widths) != 1:
            raise AlignmentError(f"ragged alignment: row widths {sorted(widths)}")
        self.column_count = widths.pop()
        self.rows = [(rid, seq.upper()) for rid, seq in self.rows]


@dataclass
class SiteAnnotation:
    sequence_id: str
    indices: list = field(default_factory=list)   # into the ungapped sequence
    letters: list = field(default_factory=list)   # conserved letter per index


def map_column_to_residue_index(gapped_row: str, column: int):
    """Ungapped index of an alignment column, or None when the row gaps there."""
    if gapped_row[column] in GAP_CHARS:
        return None
    return sum(1 for ch in gapped_row[:column] if ch not in GAP_CHARS)


def conserved_columns(family: AlignedFamily, tau: float) -> dict:
    """Map column -> majority letter for columns above the tau threshold."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    threshold = tau * len(family.rows)
    out = {}
    for col in range(family.column_count):
        counts = Counter(seq[col] for _, seq in family.rows
                         if seq[col] not in GAP_CHARS)
        if not counts:
            continue
        letter, count = max(counts.items(), key=lambda kv: (kv[1], -ord(kv[0])))
        if count > threshold:
            out[col] = letter
    return out


def mine_sites(family: AlignedFamily, tau: float) -> list[SiteAnnotation]:
    """Per-member important-site annotations for one aligned family."""
    columns = conserved_columns(family, tau)
    annotations = []
    for rid, seq in family.rows:
        ann = SiteAnnotation(rid)
        for col in sorted(columns):
            if seq[col] != columns[col]:
                continue
            idx = map_column_to_residue_index(seq, col)
            if idx is not None:
                ann.indices.append(idx)
                ann.letters.append(columns[col])
        annotations.append(ann)
    return annotations


def read_aligned_fasta(path, family_tag: str = "") -> AlignedFamily:
    rows = []
    current_id, chunks = None, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if current_id is not None:
                    rows.append((current_id, "".join(chunks)))
                current_id = line[1:].split()[0]
                chunks = []
            else:
                chunks.append(line)
    if current_id is not None:
        rows.append((current_id, "".join(chunks)))
    return AlignedFamily(family_tag or str(path), rows)


def write_site_manifest(path, annotations) -> None:
    """One member per line: id, comma-joined indices, comma-joined letters."""
    with open(path, "w") as f:
        for ann in annotations:
            f.write(f"{ann.sequence_id}\t"
                    f"{','.join(str(i) for i in ann.indices)}\t"
                    f"{','.join(ann.letters)}\n")


def read_site_manifest(path) -> dict:
    rows = read_table(path, 3, lambda rid, idx, letters: SiteAnnotation(
        rid, [int(i) for i in idx.split(",")] if idx else [],
        letters.split(",") if letters else []))
    return {ann.sequence_id: ann for ann in rows}
