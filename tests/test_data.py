import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enzydesign.data import (DataError, EnzymeRecord, SplitManifest,
                             SubstrateRecord, assemble_dataset,
                             cluster_by_identity,
                             global_alignment_identity, ingest_directory,
                             make_split_manifest, parse_pdb,
                             read_pairing_manifest, read_substrate, read_tags,
                             read_tsv, write_substrate, write_tsv)
from enzydesign.residues import UnknownResidueError
from fixtures import make_toy_corpus
from helpers import COORD, NAME, integer, mostly, read_text_as, table


def pdb_line(serial, resname, chain, resseq, x, y, z, altloc=" ", icode=" ",
             atom="CA"):
    return (f"ATOM  {serial:>5} {atom:^4}{altloc}{resname:<3} {chain}"
            f"{resseq:>4}{icode}   {x:8.3f}{y:8.3f}{z:8.3f}"
            f"  1.00  0.00           C\n")


class TestRecordValidation:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            EnzymeRecord("r", "AC", np.zeros((3, 3)))

    def test_non_standard_residue(self):
        with pytest.raises(UnknownResidueError):
            EnzymeRecord("r", "AX", np.zeros((2, 3)))

    def test_site_out_of_range(self):
        with pytest.raises(DataError):
            EnzymeRecord("r", "AC", np.zeros((2, 3)), sites=[2])

    def test_non_finite_coords(self):
        coords = np.zeros((2, 3))
        coords[0, 0] = np.nan
        with pytest.raises(DataError):
            EnzymeRecord("r", "AC", coords)

    def test_site_mask_and_indices(self):
        rec = EnzymeRecord("r", "ACD", np.zeros((3, 3)), sites=[0, 2])
        np.testing.assert_array_equal(rec.site_mask, [True, False, True])
        np.testing.assert_array_equal(rec.seq_indices, [0, 1, 2])

    def test_substrate_shape_checks(self):
        with pytest.raises(DataError):
            SubstrateRecord("s", np.zeros((2, 4)), np.zeros((2, 3)))
        with pytest.raises(DataError):
            SubstrateRecord("s", np.zeros((2, 5)), np.zeros((3, 3)))


class TestPDB:
    def test_one_residue(self, tmp_path):
        path = tmp_path / "one.pdb"
        path.write_text(pdb_line(1, "GLY", "A", 1, 1.0, 2.0, 3.0))
        rec = parse_pdb(path)
        assert rec.sequence == "G"
        np.testing.assert_allclose(rec.coords, [[1.0, 2.0, 3.0]])

    def test_first_chain_only(self, tmp_path):
        lines = [pdb_line(1, "ALA", "A", 1, 0, 0, 0),
                 pdb_line(2, "CYS", "A", 2, 1, 0, 0),
                 pdb_line(3, "GLY", "B", 1, 9, 9, 9)]
        path = tmp_path / "two.pdb"
        path.write_text("".join(lines))
        rec = parse_pdb(path)
        assert rec.sequence == "AC"           # chain B line dropped

    def test_altloc_and_duplicate_resseq(self, tmp_path):
        lines = [pdb_line(1, "ALA", "A", 1, 0, 0, 0, altloc="A"),
                 pdb_line(2, "ALA", "A", 1, 5, 5, 5, altloc="B"),
                 pdb_line(3, "CYS", "A", 2, 1, 0, 0)]
        path = tmp_path / "alt.pdb"
        path.write_text("".join(lines))
        rec = parse_pdb(path)
        assert rec.sequence == "AC"
        np.testing.assert_allclose(rec.coords[0], [0, 0, 0])

    def test_unknown_residue_aborts(self, tmp_path):
        path = tmp_path / "bad.pdb"
        path.write_text(pdb_line(1, "XYZ", "A", 1, 0, 0, 0))
        with pytest.raises(UnknownResidueError):
            parse_pdb(path)

    def test_no_ca_atoms(self, tmp_path):
        path = tmp_path / "empty.pdb"
        path.write_text("HEADER nothing\n")
        with pytest.raises(DataError):
            parse_pdb(path)


class TestRoundTrips:
    def test_tsv_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = EnzymeRecord("r1", "ACDEFG", rng.normal(size=(6, 3)))
        path = tmp_path / "r1.tsv"
        write_tsv(path, rec)
        back = read_tsv(path)
        assert back.id == "r1" and back.sequence == "ACDEFG"
        np.testing.assert_allclose(back.coords, rec.coords, atol=1e-6)

    def test_substrate_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        sub = SubstrateRecord("s1", rng.normal(size=(3, 5)),
                              rng.normal(size=(3, 3)))
        path = tmp_path / "s1.tsv"
        write_substrate(path, sub)
        back = read_substrate(path)
        assert back.id == "s1"
        np.testing.assert_allclose(back.features, sub.features, atol=1e-6)
        np.testing.assert_allclose(back.coords, sub.coords, atol=1e-6)

    def test_substrate_header_count_checked(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("s\t2\n1 2 3 4 5\t0\t0\t0\n")
        with pytest.raises(DataError):
            read_substrate(path)

    def test_ingest_skips_bad_files(self, tmp_path):
        write_tsv(tmp_path / "good.tsv",
                  EnzymeRecord("good", "ACD", np.zeros((3, 3))))
        (tmp_path / "bad.pdb").write_text(pdb_line(1, "XYZ", "A", 1, 0, 0, 0))
        (tmp_path / "ignored.txt").write_text("not a record\n")
        with pytest.warns(UserWarning, match="bad.pdb"):
            records = ingest_directory(tmp_path)
        assert [r.id for r in records] == ["good"]

    def test_pairing_manifest(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("e1\ts1\t1\ne2\ts2\t0\n")
        pairs = read_pairing_manifest(path)
        assert pairs == {"e1": ("s1", 1), "e2": ("s2", 0)}


class TestIdentityAndClustering:
    def test_identical_sequences(self):
        assert global_alignment_identity("ACDEFG", "ACDEFG") == 1.0

    def test_disjoint_sequences(self):
        assert global_alignment_identity("AAAA", "CCCC") == 0.0

    def test_one_substitution(self):
        # 5 matches over alignment length 6
        assert abs(global_alignment_identity("ACDEFG", "ACDQFG") - 5 / 6) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        from enzydesign.residues import AMINO_ACIDS
        for _ in range(10):
            a = "".join(rng.choice(list(AMINO_ACIDS), size=int(rng.integers(3, 12))))
            b = "".join(rng.choice(list(AMINO_ACIDS), size=int(rng.integers(3, 12))))
            assert abs(global_alignment_identity(a, b)
                       - global_alignment_identity(b, a)) < 1e-12

    def test_clusters_match_connected_components(self):
        """Greedy single linkage equals the exact transitive closure here."""
        seqs = {
            "a1": "ACDEFGHIKL",
            "a2": "ACDEFGHIKV",     # 90% identical to a1
            "a3": "ACDEFGHMNV",     # chains to a2
            "b1": "WWYYPPGGSS",
            "b2": "WWYYPPGGST",
            "c1": "MNQRTVHKDE",
        }
        records = [EnzymeRecord(k, s, np.zeros((len(s), 3)))
                   for k, s in seqs.items()]
        assignment = cluster_by_identity(records, 0.5)

        ids = sorted(seqs)
        parent = {i: i for i in ids}

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in ids:
            for j in ids:
                if i < j and global_alignment_identity(seqs[i], seqs[j]) >= 0.5:
                    parent[find(i)] = find(j)
        for i in ids:
            for j in ids:
                same_oracle = find(i) == find(j)
                same_greedy = assignment[i] == assignment[j]
                assert same_oracle == same_greedy, (i, j)


class TestSplits:
    def planted_corpus(self, n=50, seed=3):
        """Random records plus planted >=50%-identity pairs."""
        rng = np.random.default_rng(seed)
        from enzydesign.residues import AMINO_ACIDS
        records = []
        for i in range(n // 2):
            seq = "".join(rng.choice(list(AMINO_ACIDS), size=12))
            twin = list(seq)
            for pos in rng.choice(12, size=3, replace=False):
                twin[pos] = AMINO_ACIDS[int(rng.integers(20))]
            records.append(EnzymeRecord(f"p{i}a", seq, np.zeros((12, 3))))
            records.append(EnzymeRecord(f"p{i}b", "".join(twin),
                                        np.zeros((12, 3))))
        return records

    def test_planted_pairs_never_straddle_splits(self):
        records = self.planted_corpus()
        manifest = make_split_manifest(records, seed=0)
        seqs = {r.id: r.sequence for r in records}
        ids = sorted(seqs)
        for i in ids:
            for j in ids:
                if i < j and global_alignment_identity(seqs[i], seqs[j]) >= 0.5:
                    assert manifest.split[i] == manifest.split[j], (i, j)

    def test_all_three_splits_nonempty(self):
        records = self.planted_corpus()
        manifest = make_split_manifest(records, seed=0)
        kinds = set(manifest.split.values())
        assert kinds == {"train", "valid", "test"}

    def test_manifest_round_trip(self, tmp_path):
        records, _ = make_toy_corpus()
        manifest = make_split_manifest(records, seed=1)
        path = tmp_path / "splits.tsv"
        manifest.write(path)
        back = SplitManifest.read(path)
        assert back.split == manifest.split
        assert back.assignment == manifest.assignment

    def test_tiny_corpus_all_train(self):
        records, _ = make_toy_corpus()
        manifest = make_split_manifest(records[:2], seed=0)
        assert set(manifest.split.values()) == {"train"}


class TestAssembly:
    def setup_corpus(self):
        records, pool = make_toy_corpus()
        for rec in records:     # arrive unpaired; pairings attach below
            rec.substrate_id, rec.binding_label = None, None
        pairings = {f"rec{i}": (f"sub{i % 3}", 1) for i in range(8)}
        manifest = make_split_manifest(records, seed=0)
        return records, pool, pairings, manifest

    def test_positive_pairings_attached(self):
        records, pool, pairings, manifest = self.setup_corpus()
        splits = assemble_dataset(records, {}, pool, pairings, manifest, 0)
        for split in splits.values():
            for rec in split:
                assert rec.binding_label == 1
                assert rec.substrate_id == pairings[rec.id][0]

    def test_negative_never_own_positive(self):
        records, pool, pairings, manifest = self.setup_corpus()
        # drop explicit pairings for train records: they get sampled negatives
        test_ids = set(manifest.ids("test"))
        partial = {k: v for k, v in pairings.items() if k in test_ids}
        for seed in range(20):
            for rec in records:
                rec.substrate_id, rec.binding_label = None, None
            splits = assemble_dataset(records, {}, pool, partial, manifest, seed)
            for split in splits.values():
                for rec in split:
                    assert rec.substrate_id in pool
                    if rec.id not in partial:
                        assert rec.binding_label == 0

    def test_test_record_without_pairing_rejected(self):
        records, pool, pairings, manifest = self.setup_corpus()
        test_ids = manifest.ids("test")
        assert test_ids
        del pairings[test_ids[0]]
        with pytest.raises(DataError):
            assemble_dataset(records, {}, pool, pairings, manifest, 0)

    def test_empty_pool_rejected(self):
        records, pool, pairings, manifest = self.setup_corpus()
        with pytest.raises(DataError):
            assemble_dataset(records, {}, {}, pairings, manifest, 0)

    def test_sites_attached_from_manifest(self):
        from enzydesign.site_miner import SiteAnnotation
        records, pool, pairings, manifest = self.setup_corpus()
        sites = {"rec0": SiteAnnotation("rec0", [2, 5], ["X", "X"])}
        for rec in records:
            rec.sites = []
        splits = assemble_dataset(records, sites, pool, pairings, manifest, 0)
        by_id = {r.id: r for split in splits.values() for r in split}
        assert by_id["rec0"].sites == [2, 5]


_FEATURES = mostly(st.lists(st.floats().map(str), min_size=5, max_size=5)
                   .map(" ".join))
_SUBSTRATE_HEADER = mostly(st.integers(0, 4).map(lambda k: f"s\t{k}"))
_RESIDUE = mostly(st.sampled_from("ACWX"))


def _spliced(line, at, text, cut):
    """``text`` written over ``line`` from column ``at``; with ``cut``, the
    rest of the line dropped."""
    return line[:at] + text + ("\n" if cut else line[at + len(text):])


# A well-formed Cα line with free text written over some of its columns.
_PDB_LINE = st.builds(_spliced,
                      st.builds(pdb_line, st.integers(1, 9),
                                st.sampled_from(["ALA", "GLY", "XYZ"]),
                                st.sampled_from("AB"), st.integers(1, 3),
                                st.floats(-999, 999), st.floats(-999, 999),
                                st.floats(-999, 999), st.sampled_from(" AB")),
                      st.integers(0, 80), st.text(max_size=8), st.booleans())


class TestReadersOnNearMissText:
    """Any text either parses or raises DataError (read_tsv and parse_pdb
    may also reject a residue code)."""

    @given(table(NAME, _RESIDUE, COORD, COORD, COORD))
    @settings(max_examples=200, deadline=None)
    def test_tsv(self, text):
        rec = read_text_as(read_tsv, text, DataError, UnknownResidueError)
        assert rec is None or len(rec.sequence) == len(rec.coords) > 0

    @given(st.lists(_PDB_LINE | st.text(), max_size=4).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_pdb(self, text):
        rec = read_text_as(parse_pdb, text, DataError, UnknownResidueError)
        assert rec is None or len(rec.sequence) == len(rec.coords) > 0

    @given(_SUBSTRATE_HEADER, table(_FEATURES, COORD, COORD, COORD))
    @settings(max_examples=200, deadline=None)
    def test_substrate(self, header, body):
        sub = read_text_as(read_substrate, header + "\n" + body, DataError)
        assert sub is None or sub.features.shape == (len(sub.coords), 5)

    @given(table(NAME, mostly(st.sampled_from(["1.1.1.1", "2.7.1.1"]))))
    @settings(max_examples=200, deadline=None)
    def test_tags(self, text):
        tags = read_text_as(read_tags, text, DataError)
        assert tags is None or all(isinstance(t, str) for t in tags.values())

    @given(table(NAME, NAME, integer(0, 1)))
    @settings(max_examples=200, deadline=None)
    def test_pairing_manifest(self, text):
        pairs = read_text_as(read_pairing_manifest, text, DataError)
        assert pairs is None or all(isinstance(label, int)
                                    for _, label in pairs.values())

    @given(table(NAME, integer(0, 3),
                 mostly(st.sampled_from(["train", "valid", "test"]))))
    @settings(max_examples=200, deadline=None)
    def test_split_manifest(self, text):
        manifest = read_text_as(SplitManifest.read, text, DataError)
        assert manifest is None or set(manifest.split) == set(manifest.assignment)
