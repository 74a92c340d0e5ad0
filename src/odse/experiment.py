"""Resampled evaluation protocol, significance testing and reporting.

Four systems can be compared: the optimized embedding with an inner kNN
or C-SVM, and two references working directly on sequences (kNN under
the alignment distance, C-SVM with the uncorrected alignment kernel).
Each resample draws its own seed from the master seed, so any single
resample can be reproduced in isolation.
"""

from __future__ import annotations

import dataclasses
import io
import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .alignment import RAW, AlignmentCostModel, SimilarityMatrix, build_cost_model
from .classifiers import (
    KnnConfig,
    SvmConfig,
    knn_label_from_distances,
    svm_predict,
    svm_train,
)
from .datasets import DS200, SplitSpec, make_split
from .embedding import RepresentationSet, compute_matrix
from .errors import OdseError
from .model import (
    EstimatorConfig,
    FitnessWeights,
    GaConfig,
    classify_all,
    ga_optimize,
)

ODSE_KNN = "odse-knn"
ODSE_SVM = "odse-svm"
INPUT_KNN = "input-knn"
INPUT_SVM = "input-svm"
ALL_SYSTEMS = (ODSE_KNN, ODSE_SVM, INPUT_KNN, INPUT_SVM)

SIGNIFICANCE_ALPHA = 1e-4


def welch_t_test(a, b) -> float:
    """Two-sided Welch t-test p-value for unequal-variance samples.

    Degrees of freedom follow Welch-Satterthwaite.  When both samples
    have zero variance the p-value degenerates to 1 for equal means and
    0 otherwise.
    """
    # imported here, not at start-up: only evaluation needs the Student-t
    # tail.  scipy.special's stdtr is what scipy.stats.t.sf computes, at
    # a third of the import time and memory of scipy.stats.
    from scipy.special import stdtr

    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise OdseError("welch_t_test needs at least two samples per side")
    vx = float(x.var(ddof=1))
    vy = float(y.var(ddof=1))
    mx, my = float(x.mean()), float(y.mean())
    if vx == 0.0 and vy == 0.0:
        return 1.0 if mx == my else 0.0
    sx, sy = vx / x.size, vy / y.size
    tstat = (mx - my) / math.sqrt(sx + sy)
    df = (sx + sy) ** 2 / (sx**2 / (x.size - 1) + sy**2 / (y.size - 1))
    return float(2.0 * stdtr(df, -abs(tstat)))


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one run, from the split to the compared systems.

    split names the split, its master seed and resample count; systems
    the compared systems, in report order.  ga, fitness and estimator
    configure the GA of the optimized systems; optimize_model seeds each
    GA run, so ga.rng_seed is not read.  knn and svm are the inner
    classifiers of odse-knn and odse-svm, and svm is also input-svm's;
    input_knn is input-knn's.  input_gap_weight and normalization make
    the reference cost model of the splits and the input-space tables
    (normalization is also the GA's).  threads is the worker count of
    every table.  Each field is checked by its own type.
    """

    split: SplitSpec
    systems: tuple[str, ...] = ALL_SYSTEMS
    ga: GaConfig = GaConfig()
    fitness: FitnessWeights = FitnessWeights()
    estimator: EstimatorConfig = EstimatorConfig()
    knn: KnnConfig = KnnConfig()
    svm: SvmConfig = SvmConfig()
    input_knn: KnnConfig = KnnConfig()
    input_gap_weight: float = 1.0
    normalization: str = RAW
    threads: int = 1

    def __post_init__(self):
        if not self.systems:
            raise OdseError("at least one system must be evaluated")
        unknown = [s for s in self.systems if s not in ALL_SYSTEMS]
        if unknown:
            raise OdseError(f"unknown systems {unknown}; choose from {ALL_SYSTEMS}")
        if len(set(self.systems)) != len(self.systems):
            raise OdseError(f"each system may be named once, got {list(self.systems)}")


def reference_cost_model(sim: SimilarityMatrix, cfg: ExperimentConfig) -> AlignmentCostModel:
    """The alignment cost model of the splits and the input-space systems."""
    return build_cost_model(sim, gap_weight=cfg.input_gap_weight, normalization=cfg.normalization)


def optimize_model(train, sim: SimilarityMatrix, cfg: ExperimentConfig, inner, seed: int):
    """The GA's model of one training set, with inner (cfg.knn or cfg.svm)
    as its classifier and seed as the GA's seed."""
    ga = dataclasses.replace(cfg.ga, rng_seed=seed)
    return ga_optimize(train, None, sim, inner, cfg.fitness, cfg.estimator, ga,
                       threads=cfg.threads, normalization=cfg.normalization)


@dataclass(frozen=True)
class ResampleOutcome:
    system_id: str
    resample: int
    seed: int
    errors0: int
    errors1: int
    n0: int
    n1: int

    @property
    def accuracy(self) -> float:
        total = self.n0 + self.n1
        return (total - self.errors0 - self.errors1) / total


@dataclass(frozen=True)
class SystemSummary:
    system_id: str
    params: str
    mean_errors0: float
    std_errors0: float
    mean_errors1: float
    std_errors1: float
    mean_accuracy: float
    std_accuracy: float


@dataclass(frozen=True)
class PairwiseTest:
    system_a: str
    system_b: str
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < SIGNIFICANCE_ALPHA


@dataclass(frozen=True)
class EvaluationReport:
    split_name: str
    master_seed: int
    resamples: int
    rows: tuple[SystemSummary, ...]
    outcomes: tuple[ResampleOutcome, ...]
    pairwise: tuple[PairwiseTest, ...]


def _system_params(system: str, cfg: ExperimentConfig) -> str:
    if system == ODSE_KNN:
        return f"k={cfg.knn.k}"
    if system == INPUT_KNN:
        return f"k={cfg.input_knn.k}"
    return f"C={cfg.svm.c:g}"


def _run_system(system, train, test, sim, cfg, d_train, d_test, seed):
    """Predicted labels for the test set under one system.

    The input-space references read their distances from d_train and
    d_test, the alignment tables of the split under the reference cost
    model.
    """
    train_labels = np.array([lab for _, lab in train])
    if system in (ODSE_KNN, ODSE_SVM):
        inner = cfg.knn if system == ODSE_KNN else cfg.svm
        model = optimize_model(train, sim, cfg, inner, seed)
        return classify_all(model, [s for s, _ in test], threads=cfg.threads)
    if system == INPUT_KNN:
        return [
            knn_label_from_distances(row, train_labels, cfg.input_knn.k) for row in d_test
        ]
    svm = svm_train(d_train, train_labels, cfg.svm)
    return [svm_predict(svm, row[svm.support]) for row in d_test]


def run_experiment(data, sim: SimilarityMatrix, cfg: ExperimentConfig) -> EvaluationReport:
    """Evaluate the configured systems over resampled splits.

    The DS-200 split runs once whatever the resample count says; the
    other splits run cfg.split.resamples times with seeds derived from
    the master seed.  A failing resample aborts the experiment and names
    the derived seed so the case can be replayed alone.
    """
    n_resamples = 1 if cfg.split.name == DS200 else cfg.split.resamples
    seeds = [
        int(s)
        for s in np.random.SeedSequence(cfg.split.seed).generate_state(
            n_resamples, dtype=np.uint64
        )
    ]
    cm_ref = reference_cost_model(sim, cfg)
    need_input = any(s in (INPUT_KNN, INPUT_SVM) for s in cfg.systems)

    outcomes: list[ResampleOutcome] = []
    for r, seed in enumerate(seeds):
        try:
            train, test = make_split(
                cfg.split.name, data, seed, cm=cm_ref, threads=cfg.threads
            )
            train_seqs = [s for s, _ in train]
            test_seqs = [s for s, _ in test]
            d_train = d_test = None
            if need_input:
                proto = RepresentationSet(tuple(train_seqs))
                d_train = compute_matrix(train_seqs, proto, cm_ref, cfg.threads).values
                d_test = compute_matrix(test_seqs, proto, cm_ref, cfg.threads).values
            for system in cfg.systems:
                preds = _run_system(
                    system, train, test, sim, cfg, d_train, d_test, seed
                )
                err0 = sum(
                    1 for (_, lab), p in zip(test, preds) if lab == 0 and p != 0
                )
                err1 = sum(
                    1 for (_, lab), p in zip(test, preds) if lab == 1 and p != 1
                )
                n0 = sum(1 for _, lab in test if lab == 0)
                n1 = len(test) - n0
                outcomes.append(
                    ResampleOutcome(system, r, seed, err0, err1, n0, n1)
                )
        except OdseError as exc:
            raise OdseError(
                f"resample {r} (derived seed {seed}) failed: {exc}"
            ) from exc

    def summarize(system: str) -> SystemSummary:
        runs = [o for o in outcomes if o.system_id == system]

        def agg(values):
            arr = np.array(values, dtype=np.float64)
            std = float(arr.std(ddof=1)) if len(arr) >= 2 else 0.0
            return float(arr.mean()), std

        m0, s0 = agg([o.errors0 for o in runs])
        m1, s1 = agg([o.errors1 for o in runs])
        ma, sa = agg([o.accuracy for o in runs])
        return SystemSummary(system, _system_params(system, cfg), m0, s0, m1, s1, ma, sa)

    rows = tuple(summarize(s) for s in cfg.systems)

    pairwise = []
    if n_resamples >= 2:
        for i, sa in enumerate(cfg.systems):
            acc_a = [o.accuracy for o in outcomes if o.system_id == sa]
            for sb in cfg.systems[i + 1 :]:
                acc_b = [o.accuracy for o in outcomes if o.system_id == sb]
                pairwise.append(PairwiseTest(sa, sb, welch_t_test(acc_a, acc_b)))

    return EvaluationReport(
        split_name=cfg.split.name,
        master_seed=cfg.split.seed,
        resamples=n_resamples,
        rows=rows,
        outcomes=tuple(outcomes),
        pairwise=tuple(pairwise),
    )


# --------------------------------------------------------------------------
# report output


def report_to_csv(report: EvaluationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "system", "params", "resamples",
            "mean_errors0", "std_errors0",
            "mean_errors1", "std_errors1",
            "mean_accuracy", "std_accuracy",
        ]
    )
    for row in report.rows:
        writer.writerow(
            [
                row.system_id, row.params, report.resamples,
                repr(row.mean_errors0), repr(row.std_errors0),
                repr(row.mean_errors1), repr(row.std_errors1),
                repr(row.mean_accuracy), repr(row.std_accuracy),
            ]
        )
    return buf.getvalue()


def report_to_json(report: EvaluationReport) -> str:
    doc = {
        "split": report.split_name,
        "master_seed": report.master_seed,
        "resamples": report.resamples,
        "significance_alpha": SIGNIFICANCE_ALPHA,
        "systems": [dataclasses.asdict(r) for r in report.rows],
        "outcomes": [
            {**dataclasses.asdict(o), "accuracy": o.accuracy}
            for o in report.outcomes
        ],
        "pairwise": [
            {**dataclasses.asdict(p), "significant": p.significant}
            for p in report.pairwise
        ],
    }
    return json.dumps(doc, indent=1)


def report_to_text(report: EvaluationReport) -> str:
    lines = [
        f"split {report.split_name}  seed {report.master_seed}  "
        f"resamples {report.resamples}",
        "",
        f"{'system':<12}{'params':<10}{'err0':<16}{'err1':<16}{'accuracy':<18}",
    ]
    for r in report.rows:
        lines.append(
            f"{r.system_id:<12}{r.params:<10}"
            f"{f'{r.mean_errors0:.2f}+-{r.std_errors0:.2f}':<16}"
            f"{f'{r.mean_errors1:.2f}+-{r.std_errors1:.2f}':<16}"
            f"{f'{r.mean_accuracy:.4f}+-{r.std_accuracy:.4f}':<18}"
        )
    lines.append("")
    if report.pairwise:
        lines.append(f"pairwise Welch t-tests (significant at p < {SIGNIFICANCE_ALPHA:g}):")
        for p in report.pairwise:
            mark = "significant" if p.significant else "not significant"
            lines.append(
                f"  {p.system_a} vs {p.system_b}: p = {p.p_value:.3e} ({mark})"
            )
    else:
        lines.append("pairwise tests skipped: a single run gives no variance")
    lines.append("")
    return "\n".join(lines)
