"""Conserved-column mining from multiple sequence alignments.

A column is functionally important when a single residue letter (gaps
excluded) occurs in strictly more than a fraction tau of the family's
rows. Conserved columns map back into each member's ungapped index space
for the members that actually carry the conserved letter.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import claim, read_table

GAP_CHARS = {"-", "."}
_GAP_CODES = [ord(c) for c in GAP_CHARS]


class AlignmentError(ValueError):
    pass


@dataclass
class AlignedFamily:
    rows: list  # (sequence_id, gapped sequence) pairs
    column_count: int = field(init=False)

    def __post_init__(self):
        if len(self.rows) < 2:
            raise AlignmentError("an aligned family needs at least 2 rows")
        # upper-case first: a letter like 'ß' upper-cases to two
        self.rows = [(rid, seq.upper()) for rid, seq in self.rows]
        widths = {len(seq) for _, seq in self.rows}
        if len(widths) != 1:
            raise AlignmentError(f"ragged alignment: row widths {sorted(widths)}")
        self.column_count = widths.pop()


@dataclass
class SiteAnnotation:
    sequence_id: str
    indices: list = field(default_factory=list)   # into the ungapped sequence
    letters: list = field(default_factory=list)   # conserved letter per index


def _family_columns(family: AlignedFamily, tau: float):
    """A family's (rows, columns) code points, their not-a-gap mask, the
    mask of columns above tau and each column's majority code (ties go to
    the lowest, as counts run over sorted code points)."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    codes = np.array([np.frombuffer(seq.encode("utf-32-le"), dtype="<u4")
                      for _, seq in family.rows])
    residue = ~np.isin(codes, _GAP_CODES)
    width = family.column_count
    if not width:  # no column to count
        return codes, residue, np.zeros(0, dtype=bool), codes[0]
    letters, index = np.unique(codes, return_inverse=True)
    cells = index.reshape(codes.shape) * width + np.arange(width)
    counts = np.bincount(cells[residue],
                         minlength=len(letters) * width).reshape(-1, width)
    return (codes, residue, counts.max(axis=0) > tau * len(family.rows),
            letters[counts.argmax(axis=0)])


def mine_sites(family: AlignedFamily, tau: float) -> list[SiteAnnotation]:
    """Per-member important-site annotations for one aligned family: the
    residues in a conserved column that carry its majority letter, at
    their ungapped index (the row's running residue count, less one)."""
    codes, residue, conserved, majority = _family_columns(family, tau)
    index = np.cumsum(residue, axis=1) - 1
    annotations = []
    for (rid, seq), sites, row_index in zip(
            family.rows, conserved & (codes == majority), index):
        cols = np.flatnonzero(sites).tolist()
        annotations.append(SiteAnnotation(rid, row_index[cols].tolist(),
                                          [seq[c] for c in cols]))
    return annotations


def read_aligned_fasta(path) -> AlignedFamily:
    """One family from aligned FASTA text. A header with no id or with an
    id an earlier header gave, or a sequence line before the first
    header, raises AlignmentError naming the file and line."""
    rows, ids = [], {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith(">"):
                    words = line[1:].split()
                    if not words:
                        raise AlignmentError("header has no sequence id")
                    claim(ids, f"id {words[0]!r}", f"line {lineno}")
                    rows.append((words[0], []))
                elif not rows:
                    raise AlignmentError("sequence before the first header")
                else:
                    rows[-1][1].append(line)
            except ValueError as exc:
                raise AlignmentError(f"{path} line {lineno}: {exc}") from None
    return AlignedFamily([(rid, "".join(chunks)) for rid, chunks in rows])


def write_site_manifest(path, annotations) -> None:
    """One member per line: id, comma-joined indices, comma-joined letters."""
    with open(path, "w") as f:
        for ann in annotations:
            f.write(f"{ann.sequence_id}\t"
                    f"{','.join(str(i) for i in ann.indices)}\t"
                    f"{','.join(ann.letters)}\n")


def read_site_manifest(path) -> dict:
    return read_table(path, 3, lambda rid, idx, letters: (rid, SiteAnnotation(
        rid, [int(i) for i in idx.split(",")] if idx else [],
        letters.split(",") if letters else [])), keyed=True)
