import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enzydesign.data import DataError
from enzydesign.site_miner import (AlignedFamily, AlignmentError,
                                   SiteAnnotation, conserved_columns,
                                   map_column_to_residue_index, mine_sites,
                                   read_aligned_fasta, read_site_manifest,
                                   write_site_manifest)
from helpers import NAME, mostly, read_text_as, table


def egm_family():
    """Family where exactly the E, G and M columns are shared by all rows."""
    return AlignedFamily("1.1.1.1", [
        ("seq1", "AEKG-CMW"),
        ("seq2", "TEQGRSMY"),
        ("seq3", "-EVGNIMH"),
        ("seq4", "PELGD-MF"),
    ])


class TestMineSites:
    def test_conserved_e_g_m_columns(self):
        cols = conserved_columns(egm_family(), 0.30)
        assert cols == {1: "E", 3: "G", 6: "M"}

    def test_member_annotations_map_to_ungapped_indices(self):
        anns = {a.sequence_id: a for a in mine_sites(egm_family(), 0.30)}
        assert anns["seq1"].indices == [1, 3, 5]   # gap before M shifts index
        assert anns["seq1"].letters == ["E", "G", "M"]
        assert anns["seq3"].indices == [0, 2, 5]   # leading gap
        assert anns["seq4"].indices == [1, 3, 5]

    def test_strict_threshold_at_tau_one(self):
        family = AlignedFamily("x", [("a", "AAC"), ("b", "AAC"), ("c", "AGC")])
        cols = conserved_columns(family, 1.0)
        assert 1 not in cols          # one row differs: count == rows, not >
        assert cols == {}             # count > 1.0 * rows is impossible

    def test_all_gap_column_never_conserved(self):
        family = AlignedFamily("x", [("a", "A-C"), ("b", "A-C")])
        assert 1 not in conserved_columns(family, 0.3)

    def test_counting_oracle_random_alignments(self):
        rng = np.random.default_rng(0)
        letters = "ACDEFG-"
        for _ in range(20):
            rows = [("r%d" % i,
                     "".join(rng.choice(list(letters), size=40)))
                    for i in range(6)]
            family = AlignedFamily("x", rows)
            cols = conserved_columns(family, 0.3)
            for col in range(40):
                counts = {}
                for _, seq in rows:
                    ch = seq[col]
                    if ch not in "-.":
                        counts[ch] = counts.get(ch, 0) + 1
                best = max(counts.values()) if counts else 0
                assert (col in cols) == (best > 0.3 * 6)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            mine_sites(egm_family(), 1.5)
        with pytest.raises(ValueError):
            mine_sites(egm_family(), 0.0)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rows = [("r%d" % i, "".join(rng.choice(list("ACD-"), size=25)))
                    for i in range(5)]
            family = AlignedFamily("x", rows)
            previous = None
            for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                selected = set(conserved_columns(family, tau))
                if previous is not None:
                    assert selected <= previous
                previous = selected

    def test_row_order_invariant(self):
        family = egm_family()
        reversed_family = AlignedFamily("1.1.1.1", family.rows[::-1])
        a = conserved_columns(family, 0.3)
        b = conserved_columns(reversed_family, 0.3)
        assert a == b

    def test_annotation_letters_round_trip(self):
        for ann in mine_sites(egm_family(), 0.3):
            seq = dict(egm_family().rows)[ann.sequence_id].replace("-", "")
            for idx, letter in zip(ann.indices, ann.letters):
                assert seq[idx] == letter


class TestColumnMapping:
    def test_one_gap_before(self):
        assert map_column_to_residue_index("A-CD", 2) == 1

    def test_gap_column_is_absent(self):
        assert map_column_to_residue_index("A-CD", 1) is None

    @given(st.text(alphabet="AC-", min_size=1, max_size=30),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_strip_and_scan_oracle(self, gapped, data):
        col = data.draw(st.integers(0, len(gapped) - 1))
        got = map_column_to_residue_index(gapped, col)
        if gapped[col] == "-":
            assert got is None
        else:
            stripped_prefix = gapped[:col].replace("-", "")
            assert got == len(stripped_prefix)


class TestIO:
    def test_ragged_alignment_rejected(self):
        with pytest.raises(AlignmentError):
            AlignedFamily("x", [("a", "ABC"), ("b", "AB")])

    def test_single_row_rejected(self):
        with pytest.raises(AlignmentError):
            AlignedFamily("x", [("a", "ABC")])

    def test_fasta_round_trip(self, tmp_path):
        path = tmp_path / "fam.fasta"
        path.write_text(">s1 desc\nAEK\nGCM\n>s2\nTEQGRC\n")
        family = read_aligned_fasta(path, "1.2.3.4")
        assert family.rows == [("s1", "AEKGCM"), ("s2", "TEQGRC")]
        assert family.column_count == 6

    def test_manifest_round_trip(self, tmp_path):
        anns = [SiteAnnotation("a", [1, 5], ["E", "M"]), SiteAnnotation("b", [], [])]
        path = tmp_path / "sites.tsv"
        write_site_manifest(path, anns)
        back = read_site_manifest(path)
        assert back["a"].indices == [1, 5]
        assert back["a"].letters == ["E", "M"]
        assert back["b"].indices == []

    def test_case_and_dot_gaps(self):
        family = AlignedFamily("x", [("a", "ae.g"), ("b", "AE-G")])
        cols = conserved_columns(family, 0.9)
        assert cols == {0: "A", 1: "E", 3: "G"}


_INDEX_LIST = mostly(st.lists(st.integers(-1, 20).map(str), max_size=3)
                     .map(",".join))
_LETTER_LIST = mostly(st.lists(st.sampled_from("AEG"), max_size=3)
                      .map(",".join))


@given(table(NAME, _INDEX_LIST, _LETTER_LIST))
@settings(max_examples=200, deadline=None)
def test_site_manifest_parses_or_raises_data_error(text):
    sites = read_text_as(read_site_manifest, text, DataError)
    for rid, ann in (sites or {}).items():
        assert ann.sequence_id == rid
        assert all(isinstance(i, int) for i in ann.indices)
