import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enzydesign.data import DataError
from enzydesign.site_miner import (AlignedFamily, AlignmentError,
                                   SiteAnnotation, mine_sites,
                                   read_aligned_fasta, read_site_manifest,
                                   write_site_manifest)
from helpers import (NAME, conserved_columns, counter_conserved_columns,
                     map_column_to_residue_index, mostly, read_text_as, table)


def egm_family():
    """Family where exactly the E, G and M columns are shared by all rows."""
    return AlignedFamily([
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
        family = AlignedFamily([("a", "AAC"), ("b", "AAC"), ("c", "AGC")])
        cols = conserved_columns(family, 1.0)
        assert 1 not in cols          # one row differs: count == rows, not >
        assert cols == {}             # count > 1.0 * rows is impossible

    def test_all_gap_column_never_conserved(self):
        family = AlignedFamily([("a", "A-C"), ("b", "A-C")])
        assert 1 not in conserved_columns(family, 0.3)

    def test_counting_oracle_random_alignments(self):
        rng = np.random.default_rng(0)
        letters = "ACDEFG-"
        for _ in range(20):
            rows = [("r%d" % i,
                     "".join(rng.choice(list(letters), size=40)))
                    for i in range(6)]
            family = AlignedFamily(rows)
            cols = conserved_columns(family, 0.3)
            for col in range(40):
                counts = {}
                for _, seq in rows:
                    ch = seq[col]
                    if ch not in "-.":
                        counts[ch] = counts.get(ch, 0) + 1
                best = max(counts.values()) if counts else 0
                assert (col in cols) == (best > 0.3 * 6)

    @given(st.sampled_from(["AB-", "ACac-.", "-.", "é𝔸Жa-"]).flatmap(
        lambda letters: st.integers(0, 12).flatmap(lambda width: st.lists(
            st.text(letters, min_size=width, max_size=width),
            min_size=2, max_size=7))),
        st.sampled_from([0.01, 0.2, 0.3, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_columns_equal_counter_oracle(self, rows, tau):
        """Exact equality with one Counter per column, ties included, over
        all-gap columns, zero-width families and non-ASCII letters."""
        family = AlignedFamily([(f"s{k}", r) for k, r in enumerate(rows)])
        assert conserved_columns(family, tau) == counter_conserved_columns(
            family, tau)

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
            family = AlignedFamily(rows)
            previous = None
            for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                selected = set(conserved_columns(family, tau))
                if previous is not None:
                    assert selected <= previous
                previous = selected

    def test_row_order_invariant(self):
        family = egm_family()
        reversed_family = AlignedFamily(family.rows[::-1])
        a = conserved_columns(family, 0.3)
        b = conserved_columns(reversed_family, 0.3)
        assert a == b

    @pytest.mark.parametrize("rows", [
        [("a", "AC-"), ("b", "CA-"), ("c", "-GA")], [("a", ""), ("b", "")]],
        ids=["no-column-above-tau", "zero-width"])
    def test_no_conserved_column_gives_empty_annotations(self, rows):
        family = AlignedFamily(rows)
        assert conserved_columns(family, 0.5) == {}
        assert [(a.sequence_id, a.indices, a.letters)
                for a in mine_sites(family, 0.5)] == [
            (rid, [], []) for rid, _ in rows]

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

    @given(st.integers(1, 30).flatmap(lambda width: st.lists(
        st.text("ACac-.\x00\U0001F600", min_size=width, max_size=width),
        min_size=2, max_size=6)), st.sampled_from([0.2, 0.3, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_mine_sites_equals_per_column_oracle(self, rows, tau):
        """Code 0 and a letter beyond 16 bits are letters like any other,
        so neither a sentinel code nor a narrow dtype can pass."""
        family = AlignedFamily([(f"s{k}", r) for k, r in enumerate(rows)])
        columns = conserved_columns(family, tau)
        for (rid, seq), ann in zip(family.rows, mine_sites(family, tau)):
            want = [(map_column_to_residue_index(seq, col), letter)
                    for col, letter in sorted(columns.items())
                    if seq[col] == letter]
            assert ann.sequence_id == rid
            assert list(zip(ann.indices, ann.letters)) == want


class TestIO:
    def test_ragged_alignment_rejected(self):
        with pytest.raises(AlignmentError):
            AlignedFamily([("a", "ABC"), ("b", "AB")])

    def test_row_ragged_after_upper_case_rejected(self):
        """'ß' upper-cases to 'SS', so its row no longer fits the columns."""
        with pytest.raises(AlignmentError):
            AlignedFamily([("a", "ßA"), ("b", "CA")])

    def test_single_row_rejected(self):
        with pytest.raises(AlignmentError):
            AlignedFamily([("a", "ABC")])

    def test_fasta_round_trip(self, tmp_path):
        path = tmp_path / "fam.fasta"
        path.write_text(">s1 desc\nAEK\nGCM\n>s2\nTEQGRC\n")
        family = read_aligned_fasta(path)
        assert family.rows == [("s1", "AEKGCM"), ("s2", "TEQGRC")]
        assert family.column_count == 6

    @pytest.mark.parametrize("text,where", [
        (">a\nACDE\n>a\nACDF\n>b\nACDE\n",
         "line 3: id 'a' is given in both line 1 and line 3"),
        ("ACDEF\n>a\nACDE\n>b\nACDE\n",
         "line 1: sequence before the first header"),
    ], ids=["repeated-id", "sequence-before-header"])
    def test_fasta_error_names_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "fam.fasta"
        path.write_text(text)
        with pytest.raises(AlignmentError) as err:
            read_aligned_fasta(path)
        assert str(err.value) == f"{path} {where}"

    def test_manifest_round_trip(self, tmp_path):
        anns = [SiteAnnotation("a", [1, 5], ["E", "M"]), SiteAnnotation("b", [], [])]
        path = tmp_path / "sites.tsv"
        write_site_manifest(path, anns)
        back = read_site_manifest(path)
        assert back["a"].indices == [1, 5]
        assert back["a"].letters == ["E", "M"]
        assert back["b"].indices == []

    def test_case_and_dot_gaps(self):
        family = AlignedFamily([("a", "ae.g"), ("b", "AE-G")])
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


_FASTA_LINE = (st.sampled_from([">", "> ", ">s1", ">s2 desc"])
               | st.text("AC-.", max_size=5) | st.text(max_size=4))


@given(st.lists(_FASTA_LINE, max_size=6).map("\n".join))
@settings(max_examples=200, deadline=None)
def test_aligned_fasta_parses_or_raises_value_error(text):
    """Near-FASTA text gives a family of equal-width rows with ids, or
    raises AlignmentError or another ValueError."""
    family = read_text_as(read_aligned_fasta, text, ValueError)
    if family is not None:
        assert len(family.rows) >= 2
        assert all(rid and rid == rid.split()[0] for rid, _ in family.rows)
        assert len({rid for rid, _ in family.rows}) == len(family.rows)
        assert {len(seq) for _, seq in family.rows} == {family.column_count}
