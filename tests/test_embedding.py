import tracemalloc

import numpy as np
import pytest

from odse.alignment import dissimilarity_table
from odse.embedding import (
    _BLOCK,
    EXPANSION_MEDOID,
    INITIAL,
    RepresentationSet,
    compute_matrix,
    embed_one,
    euclidean_distances,
    matrix_to_csv,
)
from odse.errors import OdseError
from odse.sequences import Sequence

from conftest import pair_dissimilarity, parse_matrix_csv, random_sequences


@pytest.fixture
def sample_sets(toy_cm):
    rng = np.random.default_rng(101)
    data = random_sequences(rng, 15, lo=2, hi=9, prefix="d")
    protos = random_sequences(rng, 6, lo=2, hi=7, prefix="r")
    return data, protos


def initial_set(protos):
    """The prototype set of protos, each tagged initial."""
    return RepresentationSet(tuple(protos), (INITIAL,) * len(protos))


class TestRepresentationSet:
    def test_ids_and_length_follow_the_prototypes(self):
        r = RepresentationSet(
            (Sequence("a", "AR"), Sequence("b", "ND")), (INITIAL, EXPANSION_MEDOID)
        )
        assert r.ids == ("a", "b")
        assert len(r) == 2

    def test_explicit_provenance_kept(self):
        r = RepresentationSet(
            (Sequence("a", "AR"),), provenance=(EXPANSION_MEDOID,)
        )
        assert r.provenance == (EXPANSION_MEDOID,)

    def test_empty_rejected(self):
        with pytest.raises(OdseError, match="at least one"):
            RepresentationSet((), ())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(OdseError, match="duplicate prototype ids"):
            RepresentationSet(
                (Sequence("a", "AR"), Sequence("a", "ND")), (INITIAL, INITIAL)
            )

    def test_provenance_length_mismatch_rejected(self):
        with pytest.raises(OdseError, match="provenance"):
            RepresentationSet(
                (Sequence("a", "AR"), Sequence("b", "ND")),
                provenance=(INITIAL,),
            )


    @pytest.mark.parametrize("tag", ["bogus", 5, None])
    def test_unknown_provenance_tag_rejected(self, tag):
        with pytest.raises(OdseError, match="unknown provenance tag"):
            RepresentationSet((Sequence("a", "AR"),), provenance=(tag,))


class TestEmbedding:
    def test_embed_one_matches_pairwise_distance(self, toy_cm, sample_sets):
        data, protos = sample_sets
        vec = embed_one(data[0], initial_set(protos), toy_cm)
        assert vec.shape == (len(protos),)
        for j, p in enumerate(protos):
            assert vec[j] == pair_dissimilarity(data[0], p, toy_cm)

    def test_matrix_rows_and_ids(self, toy_cm, sample_sets):
        data, protos = sample_sets
        d = compute_matrix(data, protos, toy_cm)
        assert d.values.shape == (len(data), len(protos))
        assert d.row_ids == tuple(s.id for s in data)
        assert d.col_ids == tuple(p.id for p in protos)
        for i, s in enumerate(data):
            assert np.array_equal(d.values[i], embed_one(s, initial_set(protos), toy_cm))

    def test_empty_dataset_rejected(self, toy_cm, sample_sets):
        _, protos = sample_sets
        with pytest.raises(OdseError, match="empty dataset"):
            compute_matrix([], protos, toy_cm)

    def test_columns_are_plain_sequences(self, toy_cm, sample_sets):
        # the columns are read as sequences, as the rows are: ids in
        # column order, values those of the table under it
        data, protos = sample_sets
        columns = protos[::-1] + data[:2]
        d = compute_matrix(data, columns, toy_cm)
        assert d.col_ids == tuple(s.id for s in columns)
        assert np.array_equal(d.values, dissimilarity_table(data, columns, toy_cm))

    def test_empty_columns_rejected(self, toy_cm, sample_sets):
        data, _ = sample_sets
        with pytest.raises(OdseError, match="empty column set"):
            compute_matrix(data, [], toy_cm)

    def test_thread_count_never_changes_values(self, toy_cm, sample_sets):
        data, protos = sample_sets
        base = compute_matrix(data, protos, toy_cm, threads=1)
        for threads in (2, 4, 8):
            other = compute_matrix(data, protos, toy_cm, threads=threads)
            assert np.array_equal(base.values, other.values)
            assert other.row_ids == base.row_ids
            assert other.col_ids == base.col_ids

    def test_self_matrix_zero_diagonal(self, toy_cm):
        rng = np.random.default_rng(103)
        seqs = random_sequences(rng, 8, prefix="z")
        d = compute_matrix(seqs, seqs, toy_cm)
        assert np.all(np.diagonal(d.values) == 0.0)


class TestCsv:
    def test_round_trip_is_bit_exact(self, toy_cm, sample_sets):
        data, protos = sample_sets
        d = compute_matrix(data, protos, toy_cm)
        back = parse_matrix_csv(matrix_to_csv(d))
        assert np.array_equal(back.values, d.values)
        assert back.row_ids == d.row_ids
        assert back.col_ids == d.col_ids

    def test_round_trip_exact_for_awkward_floats(self):
        # values with no short decimal form survive repr round-tripping
        from odse.embedding import DissimilarityMatrix

        values = np.array([[0.1 + 0.2, 1e-17], [np.pi, 2.0 / 3.0]])
        d = DissimilarityMatrix(values, ("r1", "r2"), ("c1", "c2"))
        back = parse_matrix_csv(matrix_to_csv(d))
        assert np.array_equal(back.values, values)


class TestEuclideanDistances:
    """The one Euclidean helper equals, bit for bit, both einsum forms it
    replaced: the per-query row form of the inner kNN and SVM and the
    pairwise form of SVM training and the MST vector score."""

    @staticmethod
    def row_form(x, q):
        d = x - q
        return np.einsum("ij,ij->i", d, d)

    @staticmethod
    def pairwise_form(x):
        diff = x[:, None, :] - x[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    def test_equals_both_einsum_forms(self):
        rng = np.random.default_rng(5)
        shapes = [(1, 1), (1, 7), (9, 1), (2, 3)] + [
            (int(rng.integers(1, 40)), int(rng.integers(1, 160))) for _ in range(60)
        ]
        for n, d in shapes:
            x = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 300.0])
            q = rng.normal(size=d) * rng.choice([1e-3, 1.0, 300.0])
            row = self.row_form(x, q)
            assert np.array_equal(euclidean_distances([q], x)[0], np.sqrt(row))
            assert np.array_equal(euclidean_distances(x, [q])[:, 0], np.sqrt(row))
            pair = self.pairwise_form(x)
            assert np.array_equal(euclidean_distances(x, x), np.sqrt(np.maximum(pair, 0.0)))

    def test_blocks_equal_the_whole_table(self):
        # (x rows, y rows, width): one block, two blocks, many blocks, one
        # row per block (a row of differences wider than a block), empty
        # x, empty y and zero width
        shapes = [(5, 4, 3), (40, 40, 20), (600, 33, 50), (3, 400, 50),
                  (4, 20, _BLOCK // 16), (0, 6, 4), (6, 0, 4), (0, 0, 2), (4, 5, 0)]
        rng = np.random.default_rng(9)
        for n, m, d in shapes:
            x = rng.normal(size=(n, d)) * 300.0
            y = rng.normal(size=(m, d))
            diff = x[:, None, :] - y[None, :, :]
            whole = np.einsum("ijk,ijk->ij", diff, diff)
            got = euclidean_distances(x, y)
            assert got.shape == (n, m)
            assert np.array_equal(got, np.sqrt(whole))

    def test_memory_bounded_by_the_block(self):
        # the whole difference table of these inputs is 600 x 33 x 50
        # doubles, 7.9 MB; the distances themselves are 0.16 MB
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(600, 50)), rng.normal(size=(33, 50))
        tracemalloc.start()
        try:
            euclidean_distances(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_widths_must_agree(self):
        with pytest.raises(OdseError, match="dimension"):
            euclidean_distances(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(OdseError, match="dimension"):
            euclidean_distances(np.zeros(3), np.zeros((4, 3)))
