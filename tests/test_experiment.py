import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import odse
from odse.alignment import build_cost_model
from odse.classifiers import (
    KnnConfig,
    SvmConfig,
    knn_label_from_distances,
    svm_predict,
    svm_train,
)
from odse.datasets import DS200, DS1811, DS1811_2, SplitSpec, make_split
from odse.errors import OdseError
from odse.experiment import (
    ALL_SYSTEMS,
    INPUT_KNN,
    INPUT_SVM,
    ODSE_KNN,
    SIGNIFICANCE_ALPHA,
    ExperimentConfig,
    ResampleOutcome,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_experiment,
    welch_t_test,
)
from odse.model import GaConfig

from conftest import pair_dissimilarity, synthetic_proteins


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(555)
    return synthetic_proteins(rng)


def fast_input_cfg(split, systems=(INPUT_KNN, INPUT_SVM)):
    # a low pass cap keeps the non-separable reference SVM snappy;
    # the outcome invariants under test do not require convergence
    return ExperimentConfig(
        split=split,
        systems=systems,
        svm=SvmConfig(max_passes=25),
    )


class TestWelch:
    def oracle(self, a, b):
        """Two-sided p by numeric quadrature of the Student t density."""
        x = np.asarray(a, dtype=np.float64)
        y = np.asarray(b, dtype=np.float64)
        sx = x.var(ddof=1) / x.size
        sy = y.var(ddof=1) / y.size
        tstat = abs((x.mean() - y.mean()) / math.sqrt(sx + sy))
        df = (sx + sy) ** 2 / (sx**2 / (x.size - 1) + sy**2 / (y.size - 1))

        def pdf(u):
            return (
                math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2))
                / math.sqrt(df * math.pi)
                * (1 + u * u / df) ** (-(df + 1) / 2)
            )

        tail, _ = quad(pdf, tstat, np.inf)
        return 2.0 * tail

    def test_identical_samples_give_one(self):
        assert welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_matches_quadrature_on_shifted_ranges(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [2.0, 3.0, 4.0, 5.0, 6.0]
        p = welch_t_test(a, b)
        assert abs(p - self.oracle(a, b)) < 1e-6
        assert 0.0 < p < 1.0

    def test_matches_quadrature_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            na = int(rng.integers(3, 12))
            nb = int(rng.integers(3, 12))
            a = rng.normal(0.0, 1.0, size=na)
            b = rng.normal(0.5, 1.3, size=nb)
            assert abs(welch_t_test(a, b) - self.oracle(a, b)) < 1e-6

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6)
        b = rng.normal(0.4, size=9)
        assert welch_t_test(a, b) == welch_t_test(b, a)

    def test_zero_variance_degenerate_cases(self):
        assert welch_t_test([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert welch_t_test([2.0, 2.0], [3.0, 3.0]) == 0.0

    def test_needs_two_samples_per_side(self):
        with pytest.raises(OdseError, match="two samples"):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(OdseError, match="two samples"):
            welch_t_test([1.0, 2.0], [])

    def test_equals_scipy_stats_two_sided_tail_exactly(self):
        from scipy.stats import t as student_t

        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(0.0, 1.0, size=int(rng.integers(2, 15)))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 3), size=int(rng.integers(2, 15)))
            sx, sy = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
            tstat = (a.mean() - b.mean()) / math.sqrt(sx + sy)
            df = (sx + sy) ** 2 / (sx**2 / (a.size - 1) + sy**2 / (b.size - 1))
            assert welch_t_test(a, b) == float(2.0 * student_t.sf(abs(tstat), df))

    def test_import_and_welch_test_leave_scipy_stats_unloaded(self):
        # scipy.stats takes about a second and some 60 MB to import, at
        # start-up or, when the Welch test loads it, at the end of an
        # evaluation; only the tests need it
        src = str(Path(odse.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import odse; "
            "assert 'scipy.stats' not in sys.modules; "
            "odse.experiment.welch_t_test([0.9, 0.8, 0.95], [0.7, 0.75, 0.6]); "
            "assert 'scipy.stats' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class TestExperimentConfig:
    def test_defaults_cover_all_systems(self):
        cfg = ExperimentConfig(split=SplitSpec(DS200, seed=0))
        assert cfg.systems == ALL_SYSTEMS

    def test_empty_systems_rejected(self):
        with pytest.raises(OdseError, match="at least one system"):
            ExperimentConfig(split=SplitSpec(DS200, seed=0), systems=())

    def test_unknown_system_rejected(self):
        with pytest.raises(OdseError, match="unknown systems"):
            ExperimentConfig(split=SplitSpec(DS200, seed=0), systems=("svm",))

    def test_duplicate_systems_rejected(self):
        with pytest.raises(OdseError, match="once"):
            ExperimentConfig(split=SplitSpec(DS200, seed=0), systems=(INPUT_KNN, INPUT_KNN))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("input_gap_weight", 0.0, r"gap_weight must be in \(0, 4\], got 0.0$"),
            ("input_gap_weight", math.nan, r"gap_weight must be in \(0, 4\], got nan$"),
            ("input_gap_weight", 4.5, r"gap_weight must be in \(0, 4\], got 4.5$"),
            ("normalization", "bogus", "unknown normalization 'bogus'"),
            ("threads", 0, "threads must be at least 1, got 0$"),
            ("threads", -2, "threads must be at least 1, got -2$"),
            ("threads", 1.5, "threads must be an integer, got 1.5$"),
            ("threads", True, "threads must be an integer, got True$"),
        ],
        ids=["gap-0", "gap-nan", "gap-above", "normalization", "threads-0", "threads-neg",
             "threads-float", "threads-bool"],
    )
    def test_out_of_range_rejected(self, field, value, message):
        with pytest.raises(OdseError, match=message):
            ExperimentConfig(split=SplitSpec(), **{field: value})



class TestAccuracyBookkeeping:
    def test_accuracy_from_error_counts(self):
        o = ResampleOutcome("input-knn", 0, 1, errors0=3, errors1=2, n0=30, n1=30)
        assert o.accuracy == (60 - 5) / 60


@pytest.fixture(scope="module")
def ds200_report(corpus, toy_sim):
    cfg = fast_input_cfg(SplitSpec(DS200, seed=11, resamples=9))
    return run_experiment(corpus, toy_sim, cfg)


@pytest.fixture(scope="module")
def resampled_report(corpus, toy_sim):
    cfg = fast_input_cfg(SplitSpec(DS1811_2, seed=3, resamples=2))
    return run_experiment(corpus, toy_sim, cfg)


class TestRunExperimentDs200(object):
    def test_single_resample_forced(self, ds200_report):
        assert ds200_report.resamples == 1
        assert {o.resample for o in ds200_report.outcomes} == {0}

    def test_no_pairwise_without_variance(self, ds200_report):
        assert ds200_report.pairwise == ()

    def test_outcome_counts_match_split(self, ds200_report):
        assert len(ds200_report.outcomes) == 2
        for o in ds200_report.outcomes:
            assert (o.n0, o.n1) == (30, 30)
            assert 0 <= o.errors0 <= o.n0
            assert 0 <= o.errors1 <= o.n1
            assert o.accuracy == (60 - o.errors0 - o.errors1) / 60

    def test_rows_follow_system_order(self, ds200_report):
        assert [r.system_id for r in ds200_report.rows] == [INPUT_KNN, INPUT_SVM]
        assert ds200_report.rows[0].params == "k=5"
        assert ds200_report.rows[1].params == "C=2"

    def test_single_run_has_zero_spread(self, ds200_report):
        for row in ds200_report.rows:
            assert row.std_accuracy == 0.0
            assert row.std_errors0 == 0.0

    def test_csv_shape(self, ds200_report):
        lines = report_to_csv(ds200_report).strip().splitlines()
        assert lines[0].startswith("system,params,resamples")
        assert len(lines) == 3

    def test_json_round_structure(self, ds200_report):
        doc = json.loads(report_to_json(ds200_report))
        assert doc["split"] == DS200
        assert doc["resamples"] == 1
        assert doc["significance_alpha"] == SIGNIFICANCE_ALPHA
        assert len(doc["systems"]) == 2
        assert len(doc["outcomes"]) == 2
        assert doc["pairwise"] == []
        for o in doc["outcomes"]:
            assert 0.0 <= o["accuracy"] <= 1.0

    def test_text_notes_skipped_tests(self, ds200_report):
        text = report_to_text(ds200_report)
        assert "pairwise tests skipped" in text
        assert INPUT_KNN in text


class TestRunExperimentResampled(object):
    def test_outcomes_per_system_and_resample(self, resampled_report):
        assert resampled_report.resamples == 2
        assert len(resampled_report.outcomes) == 4
        seen = {(o.system_id, o.resample) for o in resampled_report.outcomes}
        assert seen == {
            (INPUT_KNN, 0), (INPUT_KNN, 1), (INPUT_SVM, 0), (INPUT_SVM, 1),
        }

    def test_test_sets_are_the_class_remainders(self, resampled_report):
        # 130/110 class members minus 100 training each leaves 30 + 10
        for o in resampled_report.outcomes:
            assert (o.n0, o.n1) == (30, 10)

    def test_derived_seeds_match_master_sequence(self, resampled_report):
        want = [
            int(s)
            for s in np.random.SeedSequence(3).generate_state(2, dtype=np.uint64)
        ]
        assert want[0] != want[1]
        for o in resampled_report.outcomes:
            assert o.seed == want[o.resample]

    def test_one_pairwise_entry_bounded(self, resampled_report):
        assert len(resampled_report.pairwise) == 1
        p = resampled_report.pairwise[0]
        assert {p.system_a, p.system_b} == {INPUT_KNN, INPUT_SVM}
        assert 0.0 <= p.p_value <= 1.0
        assert p.significant == (p.p_value < SIGNIFICANCE_ALPHA)

    def test_repeat_run_reproduces_outcomes(self, resampled_report, corpus, toy_sim):
        again = run_experiment(
            corpus, toy_sim, fast_input_cfg(SplitSpec(DS1811_2, seed=3, resamples=2))
        )
        assert again.outcomes == resampled_report.outcomes

    def test_text_report_lists_pairwise(self, resampled_report):
        text = report_to_text(resampled_report)
        assert "Welch" in text
        assert f"{INPUT_KNN} vs {INPUT_SVM}" in text
        lines = text.splitlines()
        for p in resampled_report.pairwise:
            mark = "significant" if p.p_value < SIGNIFICANCE_ALPHA else "not significant"
            assert f"  {p.system_a} vs {p.system_b}: p = {p.p_value:.3e} ({mark})" in lines

    def test_json_pairwise_mirrors_the_report(self, resampled_report):
        doc = json.loads(report_to_json(resampled_report))
        assert doc["resamples"] == 2
        assert doc["pairwise"] == [
            {
                "system_a": p.system_a,
                "system_b": p.system_b,
                "p_value": p.p_value,
                "significant": p.p_value < SIGNIFICANCE_ALPHA,
            }
            for p in resampled_report.pairwise
        ]


class TestRunExperimentOptimized:
    def test_optimized_knn_system_runs(self, corpus, toy_sim):
        cfg = ExperimentConfig(
            split=SplitSpec(DS200, seed=2),
            systems=(ODSE_KNN,),
            ga=GaConfig(population_size=4, max_generations=2, rng_seed=0),
            knn=KnnConfig(3),
        )
        report = run_experiment(corpus, toy_sim, cfg)
        (outcome,) = report.outcomes
        assert outcome.system_id == ODSE_KNN
        assert (outcome.n0, outcome.n1) == (30, 30)
        assert 0.0 <= outcome.accuracy <= 1.0
        assert report.rows[0].params == "k=3"


class TestThreadCount:
    def test_report_equal_at_any_thread_count(self, corpus, toy_sim):
        # the k-medoids tables, the input-space table and the GA pool
        # all take the one thread count
        cfg = ExperimentConfig(
            split=SplitSpec(DS1811, seed=4, resamples=2),
            systems=(ODSE_KNN, INPUT_KNN, INPUT_SVM),
            ga=GaConfig(population_size=4, max_generations=1),
            knn=KnnConfig(1),
        )
        one = run_experiment(corpus, toy_sim, cfg)
        two = run_experiment(corpus, toy_sim, dataclasses.replace(cfg, threads=2))
        assert one.resamples == 2 and len(one.outcomes) == 6
        assert two == one


class TestFailingResample:
    def test_error_names_resample_and_seed(self, corpus, toy_sim):
        # 130 insoluble + 30 soluble cannot satisfy the 110/70 design
        data = corpus[:160]
        cfg = ExperimentConfig(
            split=SplitSpec(DS1811, seed=6, resamples=1),
            systems=(INPUT_KNN,),
        )
        seed0 = int(
            np.random.SeedSequence(6).generate_state(1, dtype=np.uint64)[0]
        )
        with pytest.raises(OdseError) as err:
            run_experiment(data, toy_sim, cfg)
        msg = str(err.value)
        assert "resample 0" in msg
        assert f"derived seed {seed0}" in msg
        assert "class 1" in msg


class TestInputSpaceReferences:
    """The input-space references decide each test protein from its
    alignment dissimilarities to the training proteins alone."""

    def test_error_counts_match_direct_predictions(self, corpus, toy_sim, resampled_report):
        cfg = fast_input_cfg(SplitSpec(DS1811_2, seed=3, resamples=2))
        cm = build_cost_model(
            toy_sim, gap_weight=cfg.input_gap_weight, normalization=cfg.normalization
        )
        outcomes = {(o.system_id, o.resample): o for o in resampled_report.outcomes}
        for r in range(2):
            train, test = make_split(DS1811_2, corpus, outcomes[INPUT_KNN, r].seed)
            d_train = np.array(
                [[pair_dissimilarity(s, t, cm) for t, _ in train] for s, _ in train]
            )
            d_test = np.array(
                [[pair_dissimilarity(s, t, cm) for t, _ in train] for s, _ in test]
            )
            labels = np.array([lab for _, lab in train])
            svm = svm_train(d_train, labels, cfg.svm)
            preds = {
                INPUT_KNN: [
                    knn_label_from_distances(row, labels, cfg.input_knn.k) for row in d_test
                ],
                INPUT_SVM: [svm_predict(svm, row[svm.support]) for row in d_test],
            }
            for system, got in preds.items():
                errors = [
                    sum(1 for (_, lab), p in zip(test, got) if lab == c and p != c)
                    for c in (0, 1)
                ]
                o = outcomes[system, r]
                assert [o.errors0, o.errors1] == errors, (system, r)


class TestOneInputTablePerResample:
    """Both input-space references read one alignment table per resample:
    the training rows, then the test rows, against the training columns."""

    @pytest.mark.parametrize(
        "systems, per_resample",
        [((INPUT_KNN,), 1), ((INPUT_SVM,), 1), ((INPUT_KNN, INPUT_SVM), 1), ((ODSE_KNN,), 0)],
    )
    def test_table_calls(self, systems, per_resample, corpus, toy_sim, monkeypatch):
        calls = []
        compute_matrix = odse.experiment.compute_matrix

        def counting(rows, columns, cm, *args, **kwargs):
            calls.append(([s.id for s in rows], [s.id for s in columns]))
            return compute_matrix(rows, columns, cm, *args, **kwargs)

        monkeypatch.setattr(odse.experiment, "compute_matrix", counting)
        cfg = dataclasses.replace(
            fast_input_cfg(SplitSpec(DS1811_2, seed=3, resamples=2), systems),
            ga=GaConfig(population_size=4, max_generations=1),
        )
        report = run_experiment(corpus, toy_sim, cfg)
        assert len(calls) == 2 * per_resample
        seeds = sorted({(o.resample, o.seed) for o in report.outcomes})
        for (rows, cols), (_, seed) in zip(calls, seeds):
            train, test = make_split(DS1811_2, corpus, seed)
            assert cols == [s.id for s, _ in train]
            assert rows == cols + [s.id for s, _ in test]

    @pytest.mark.parametrize("system", [INPUT_KNN, INPUT_SVM, ODSE_KNN])
    def test_empty_test_set_refused(self, system, toy_sim):
        # exactly 100 + 100 labelled proteins: DS-1811-2 trains on all of them
        data = synthetic_proteins(np.random.default_rng(8), n_insoluble=100, n_soluble=100)
        cfg = ExperimentConfig(
            split=SplitSpec(DS1811_2, seed=4, resamples=1),
            systems=(system,),
            ga=GaConfig(population_size=4, max_generations=1),
        )
        seed0 = int(np.random.SeedSequence(4).generate_state(1, dtype=np.uint64)[0])
        with pytest.raises(OdseError) as err:
            run_experiment(data, toy_sim, cfg)
        assert str(err.value).startswith(f"resample 0 (derived seed {seed0}) failed: ")
