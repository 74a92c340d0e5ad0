import numpy as np
import pytest

from odse.datasets import (
    DS200,
    DS1811,
    DS1811_2,
    LabeledSequence,
    SplitSpec,
    class_members,
    k_medoids,
    load_dataset,
    make_ds200,
    make_ds1811,
    make_ds1811_2,
    make_split,
    read_solubility_table,
    solubility_histogram_csv,
)
from odse.errors import DatasetError
from odse.sequences import Sequence, csv_text

from conftest import synthetic_proteins


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(2024)
    return synthetic_proteins(rng)


class TestLabeledSequence:
    @pytest.mark.parametrize(
        "sol,label",
        [
            (0.0, 0),
            (0.25, 0),
            (0.3, 0),
            (0.30000001, None),
            (0.5, None),
            (0.69999999, None),
            (0.7, 1),
            (0.9, 1),
            (1.0, 1),
        ],
    )
    def test_class_intervals(self, sol, label):
        item = LabeledSequence(Sequence("x", "AR"), sol)
        assert item.label == label

    def test_solubility_out_of_range_rejected(self):
        with pytest.raises(DatasetError, match="outside"):
            LabeledSequence(Sequence("x", "AR"), 1.2)
        with pytest.raises(DatasetError, match="outside"):
            LabeledSequence(Sequence("x", "AR"), -0.1)


class TestSplitSpec:
    def test_valid_names(self):
        for name in (DS200, DS1811, DS1811_2):
            spec = SplitSpec(name, seed=7)
            assert spec.resamples == 10

    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError, match="unknown split"):
            SplitSpec("DS-42", seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="seed"):
            SplitSpec(DS200, seed=-3)

    def test_resamples_positive(self):
        with pytest.raises(DatasetError, match="resamples"):
            SplitSpec(DS200, seed=0, resamples=0)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("resamples", 2.5), ("resamples", True)])
    def test_seed_and_resamples_are_integers(self, field, value):
        # each once ended in a TypeError inside run_experiment
        with pytest.raises(DatasetError, match=f"^split {field} must be an integer, got {value}$"):
            SplitSpec(DS200, **{field: value})

    def test_defaults(self):
        assert SplitSpec() == SplitSpec(DS200, 0, 10)


class TestSolubilityTable:
    def test_comma_separated(self):
        table = read_solubility_table("a,0.25\nb,0.8\n")
        assert table == {"a": 0.25, "b": 0.8}

    def test_tab_separated(self):
        table = read_solubility_table("a\t0.25\nb\t0.8\n")
        assert table == {"a": 0.25, "b": 0.8}

    def test_comments_and_blank_lines_skipped(self):
        table = read_solubility_table("# c\n\na,0.5\n\n# tail\n")
        assert table == {"a": 0.5}

    def test_header_line_tolerated(self):
        table = read_solubility_table("id,solubility\na,0.5\n")
        assert table == {"a": 0.5}

    def test_only_the_first_line_may_be_a_header(self):
        with pytest.raises(DatasetError, match="^line 2: solubility 'bar' is not a number$"):
            read_solubility_table("id,sol\nfoo,bar\nbaz,qux\na,0.5\n")
        with pytest.raises(DatasetError, match="^line 4: solubility 'bar' is not a number$"):
            read_solubility_table("# c\n\nid,sol\nfoo,bar\na,0.5\n")

    def test_non_numeric_after_data_rejected(self):
        with pytest.raises(DatasetError, match="line 2.*not a number"):
            read_solubility_table("a,0.5\nb,oops\n")

    def test_out_of_range_rejected_with_line(self):
        with pytest.raises(DatasetError, match="line 2.*outside"):
            read_solubility_table("a,0.5\nb,1.5\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(DatasetError, match="duplicate id 'a'"):
            read_solubility_table("a,0.5\na,0.6\n")

    def test_missing_field_rejected(self):
        with pytest.raises(DatasetError, match="expected"):
            read_solubility_table("justanid\n")

    @pytest.mark.parametrize(
        "text", ["a,0.5,extra\n", "b,0.2\na,0.5,\n", "a\t0.5\textra\n", "id,solubility,note\n"]
    )
    def test_extra_field_rejected_with_line(self, text):
        lineno = text.count("\n")
        with pytest.raises(DatasetError, match=f"line {lineno}: expected 2 fields .*, got 3$"):
            read_solubility_table(text)

    @pytest.mark.parametrize("text", [",0.3\n", "a,0.5\n,0.3\n", " ,0.3\n"])
    def test_empty_id_rejected_with_line(self, text):
        lineno = text.count("\n")
        with pytest.raises(DatasetError, match=f"line {lineno}: empty id"):
            read_solubility_table(text)

    def test_empty_table_rejected(self):
        with pytest.raises(DatasetError, match="no rows"):
            read_solubility_table("# nothing\n")

    def test_reads_the_csv_the_package_writes(self):
        # a comma or a quote in an id is quoted, as csv_text writes it
        text = csv_text(["id", "solubility"], [["q,1", 0.2], ['"q2', 0.9], ["plain", 0.5]])
        assert read_solubility_table(text) == {"q,1": 0.2, '"q2': 0.9, "plain": 0.5}

    @pytest.mark.parametrize("text", ['"a,0.5\n', 'b,0.2\n"a"x,0.5\n'])
    def test_bad_quoting_rejected_with_line(self, text):
        lineno = text.count("\n")
        with pytest.raises(DatasetError, match=f"^line {lineno}: "):
            read_solubility_table(text)


class TestLoadDataset:
    def write_pair(self, tmp_path, fasta_text, table_text):
        fasta = tmp_path / "seqs.fasta"
        table = tmp_path / "sol.csv"
        fasta.write_text(fasta_text, encoding="utf-8")
        table.write_text(table_text, encoding="utf-8")
        return fasta, table

    def test_join_in_fasta_order(self, tmp_path):
        fasta, table = self.write_pair(
            tmp_path, ">b\nAR\n>a\nND\n", "a,0.9\nb,0.1\n"
        )
        data = load_dataset(fasta, table)
        assert [d.sequence.id for d in data] == ["b", "a"]
        assert [d.label for d in data] == [0, 1]

    def test_quoted_id_joined(self, tmp_path):
        table_text = csv_text(["id", "solubility"], [["q,1", 0.9], ["b", 0.1]])
        fasta, table = self.write_pair(tmp_path, ">q,1\nAR\n>b\nND\n", table_text)
        data = load_dataset(fasta, table)
        assert [(d.sequence.id, d.label) for d in data] == [("q,1", 1), ("b", 0)]

    def test_fasta_id_without_solubility_rejected(self, tmp_path):
        fasta, table = self.write_pair(tmp_path, ">a\nAR\n>b\nND\n", "a,0.5\n")
        with pytest.raises(DatasetError, match="lack a solubility"):
            load_dataset(fasta, table)

    def test_table_id_without_fasta_rejected(self, tmp_path):
        fasta, table = self.write_pair(tmp_path, ">a\nAR\n", "a,0.5\nzz,0.1\n")
        with pytest.raises(DatasetError, match="lack a FASTA"):
            load_dataset(fasta, table)


class TestKMedoids:
    def pairwise(self, pts):
        d = pts[:, None, :] - pts[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", d, d))

    def test_single_medoid_is_global_minimizer(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(12, 2))
        dist = self.pairwise(pts)
        got = k_medoids(dist, 1, np.random.default_rng(0))
        want = int(np.argmin(dist.sum(axis=0)))
        assert got == [want]

    def test_k_equals_n_returns_everything(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 2))
        got = k_medoids(self.pairwise(pts), 6, np.random.default_rng(1))
        assert sorted(got) == list(range(6))

    def test_deterministic_for_fixed_rng_seed(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 2))
        dist = self.pairwise(pts)
        a = k_medoids(dist, 5, np.random.default_rng(11))
        b = k_medoids(dist, 5, np.random.default_rng(11))
        assert a == b

    def test_two_tight_clusters_get_one_medoid_each(self):
        rng = np.random.default_rng(13)
        pts = np.vstack(
            [rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 50.0]
        )
        dist = self.pairwise(pts)
        got = k_medoids(dist, 2, np.random.default_rng(17))
        sides = sorted(int(i >= 10) for i in got)
        assert sides == [0, 1]

    def test_identical_points_topped_up_distinct(self):
        dist = np.zeros((4, 4))
        got = k_medoids(dist, 2, np.random.default_rng(19))
        assert len(got) == len(set(got)) == 2

    def test_bad_k_rejected(self):
        dist = np.zeros((3, 3))
        with pytest.raises(DatasetError, match="medoids"):
            k_medoids(dist, 0, np.random.default_rng(0))
        with pytest.raises(DatasetError, match="medoids"):
            k_medoids(dist, 4, np.random.default_rng(0))


class TestDs200(object):
    def test_composition(self, corpus):
        train, test = make_ds200(corpus, seed=0)
        assert len(train) == 140 and len(test) == 60
        assert sum(1 for _, lab in train if lab == 0) == 70
        assert sum(1 for _, lab in train if lab == 1) == 70
        assert sum(1 for _, lab in test if lab == 0) == 30
        assert sum(1 for _, lab in test if lab == 1) == 30

    def test_train_test_disjoint(self, corpus):
        train, test = make_ds200(corpus, seed=1)
        ids_train = {s.id for s, _ in train}
        ids_test = {s.id for s, _ in test}
        assert not ids_train & ids_test

    def test_groups_are_solubility_extremes(self, corpus):
        train, test = make_ds200(corpus, seed=2)
        sol = {d.sequence.id: d.solubility for d in corpus}
        group0 = [sol[s.id] for s, lab in train + test if lab == 0]
        group1 = [sol[s.id] for s, lab in train + test if lab == 1]
        assert max(group0) < min(group1)
        # the least soluble 100 and most soluble 100 by construction
        ordered = sorted(sol.values())
        assert max(group0) <= ordered[99]
        assert min(group1) >= ordered[-100]

    def test_same_seed_reproduces(self, corpus):
        a = make_ds200(corpus, seed=9)
        b = make_ds200(corpus, seed=9)
        assert [(s.id, lab) for s, lab in a[0]] == [(s.id, lab) for s, lab in b[0]]
        assert [(s.id, lab) for s, lab in a[1]] == [(s.id, lab) for s, lab in b[1]]

    def test_different_seeds_differ(self, corpus):
        a = make_ds200(corpus, seed=0)
        b = make_ds200(corpus, seed=1)
        assert [(s.id) for s, _ in a[0]] != [(s.id) for s, _ in b[0]]

    def test_too_small_dataset_rejected(self, corpus):
        with pytest.raises(DatasetError, match="at least 200"):
            make_ds200(corpus[:150], seed=0)

    def test_tied_extremes_rejected(self):
        rng = np.random.default_rng(23)
        data = [
            LabeledSequence(Sequence(f"p{i}", "ARND"), 0.5) for i in range(220)
        ]
        with pytest.raises(DatasetError, match="overlap"):
            make_ds200(data, seed=0)


class TestDs1811(object):
    def test_composition_and_membership(self, corpus, toy_cm):
        train, test = make_ds1811(corpus, seed=0, cm=toy_cm)
        assert sum(1 for _, lab in train if lab == 0) == 110
        assert sum(1 for _, lab in train if lab == 1) == 70
        ids_train = {s.id for s, _ in train}
        ids_test = {s.id for s, _ in test}
        assert not ids_train & ids_test
        # every class-assigned protein lands on exactly one side
        assigned = [d for d in corpus if d.label is not None]
        assert len(ids_train) + len(ids_test) == len(assigned)
        # the middle band is excluded entirely
        middle = {d.sequence.id for d in corpus if d.label is None}
        assert not middle & (ids_train | ids_test)

    def test_train_members_carry_their_class(self, corpus, toy_cm):
        train, _ = make_ds1811(corpus, seed=3, cm=toy_cm)
        by_id = {d.sequence.id: d for d in corpus}
        for s, lab in train:
            assert by_id[s.id].label == lab

    def test_reproducible(self, corpus, toy_cm):
        a = make_ds1811(corpus, seed=5, cm=toy_cm)
        b = make_ds1811(corpus, seed=5, cm=toy_cm)
        assert [(s.id, lab) for s, lab in a[0]] == [(s.id, lab) for s, lab in b[0]]

    def test_thread_count_does_not_change_split(self, corpus, toy_cm):
        a = make_ds1811(corpus, seed=6, cm=toy_cm, threads=1)
        b = make_ds1811(corpus, seed=6, cm=toy_cm, threads=4)
        assert [(s.id, lab) for s, lab in a[0]] == [(s.id, lab) for s, lab in b[0]]

    def test_insufficient_class_rejected(self, corpus, toy_cm):
        small = [d for d in corpus if d.label != 1][:150] + class_members(
            corpus, 1
        )[:30]
        with pytest.raises(DatasetError, match="class 1"):
            make_ds1811(small, seed=0, cm=toy_cm)


class TestDs1811_2(object):
    def test_composition(self, corpus):
        train, test = make_ds1811_2(corpus, seed=0)
        assert sum(1 for _, lab in train if lab == 0) == 100
        assert sum(1 for _, lab in train if lab == 1) == 100
        ids_train = {s.id for s, _ in train}
        ids_test = {s.id for s, _ in test}
        assert not ids_train & ids_test
        assigned = [d for d in corpus if d.label is not None]
        assert len(ids_train) + len(ids_test) == len(assigned)

    def test_reproducible_and_seed_sensitive(self, corpus):
        a = make_ds1811_2(corpus, seed=4)
        b = make_ds1811_2(corpus, seed=4)
        c = make_ds1811_2(corpus, seed=5)
        assert [(s.id, lab) for s, lab in a[0]] == [(s.id, lab) for s, lab in b[0]]
        assert [(s.id, lab) for s, lab in a[0]] != [(s.id, lab) for s, lab in c[0]]

    def test_insufficient_class_rejected(self, corpus):
        with pytest.raises(DatasetError, match="need 100"):
            make_ds1811_2(corpus[:180], seed=0)


class TestMakeSplit:
    def test_dispatch(self, corpus, toy_cm):
        for name in (DS200, DS1811_2):
            train, test = make_split(name, corpus, seed=0)
            assert train and test
        train, test = make_split(DS1811, corpus, seed=0, cm=toy_cm)
        assert train and test

    def test_ds1811_requires_cost_model(self, corpus):
        with pytest.raises(DatasetError, match="cost model"):
            make_split(DS1811, corpus, seed=0)

    def test_unknown_name_rejected(self, corpus):
        with pytest.raises(DatasetError, match="unknown split"):
            make_split("DS-0", corpus, seed=0)


class TestHistogram:
    def test_counts_sum_to_dataset_size(self, corpus):
        text = solubility_histogram_csv(corpus)
        lines = text.strip().splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 21
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == len(corpus)

    def test_gap_between_bands_is_empty(self, corpus):
        # the synthetic corpus draws no solubility inside [0.3, 0.35)
        text = solubility_histogram_csv(corpus)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        gap = [
            int(count)
            for low, high, count in rows
            if float(low) >= 0.3 - 1e-9 and float(high) <= 0.35 + 1e-9
        ]
        assert gap and all(c == 0 for c in gap)
