"""Resampled evaluation protocol, significance testing and reporting.

Four systems can be compared: the optimized embedding with an inner kNN
or C-SVM, and two references working directly on sequences (kNN under
the alignment distance, C-SVM with the uncorrected alignment kernel).
Each resample draws its own seed from the master seed, so any single
resample can be reproduced in isolation.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .alignment import (
    RAW,
    AlignmentCostModel,
    SimilarityMatrix,
    build_cost_model,
    check_gap_weight,
    check_normalization,
)
from .classifiers import (
    KnnConfig,
    SvmConfig,
    knn_label_from_distances,
    svm_predict,
    svm_train,
)
from .datasets import DS200, SplitSpec, make_split
from .embedding import compute_matrix
from .entropy import EstimatorConfig
from .errors import OdseError, check_threads
from .model import FitnessWeights, GaConfig, classify_all, ga_optimize
from .sequences import csv_text

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
    every table.  The config fields check themselves; input_gap_weight,
    normalization and threads are checked here.
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
        check_gap_weight(self.input_gap_weight)
        check_normalization(self.normalization)
        check_threads(self.threads)


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


def _run_system(system, train, test, sim, cfg, d_train, d_test, seed) -> np.ndarray:
    """Predicted labels for the test set under one system.

    The input-space references read their distances from d_train and
    d_test, the training and test rows of the split's alignment table
    under the reference cost model.
    """
    train_labels = np.array([lab for _, lab in train])
    if system in (ODSE_KNN, ODSE_SVM):
        inner = cfg.knn if system == ODSE_KNN else cfg.svm
        model = optimize_model(train, sim, cfg, inner, seed)
        preds = classify_all(model, [s for s, _ in test], threads=cfg.threads)
    elif system == INPUT_KNN:
        preds = [knn_label_from_distances(row, train_labels, cfg.input_knn.k) for row in d_test]
    else:
        svm = svm_train(d_train, train_labels, cfg.svm)
        preds = [svm_predict(svm, row[svm.support]) for row in d_test]
    return np.array(preds)


def _summarize(system: str, params: str, runs) -> SystemSummary:
    """Mean and sample spread of one system's outcomes (none for one run)."""
    stats = []
    for field in ("errors0", "errors1", "accuracy"):
        arr = np.array([getattr(o, field) for o in runs], dtype=np.float64)
        stats += [float(arr.mean()), float(arr.std(ddof=1)) if len(arr) >= 2 else 0.0]
    return SystemSummary(system, params, *stats)


def run_experiment(data, sim: SimilarityMatrix, cfg: ExperimentConfig) -> EvaluationReport:
    """Evaluate the configured systems over resampled splits.

    The DS-200 split runs once whatever the resample count says; the
    other splits run cfg.split.resamples times with seeds derived from
    the master seed.  A split with no test protein is refused before any
    table is built.  A failing resample aborts the experiment and names
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
            if not test:
                raise OdseError("the split leaves no test protein")
            seqs = [s for s, _ in train + test]
            d_train = d_test = None
            if need_input:
                table = compute_matrix(seqs, seqs[: len(train)], cm_ref, cfg.threads).values
                d_train, d_test = table[: len(train)], table[len(train) :]
            truth = np.array([lab for _, lab in test])
            n0 = int(np.sum(truth == 0))
            n1 = len(test) - n0
            for system in cfg.systems:
                preds = _run_system(
                    system, train, test, sim, cfg, d_train, d_test, seed
                )
                wrong = preds != truth
                err0 = int(np.sum(wrong & (truth == 0)))
                err1 = int(np.sum(wrong & (truth == 1)))
                outcomes.append(
                    ResampleOutcome(system, r, seed, err0, err1, n0, n1)
                )
        except OdseError as exc:
            raise OdseError(
                f"resample {r} (derived seed {seed}) failed: {exc}"
            ) from exc

    runs = {s: [o for o in outcomes if o.system_id == s] for s in cfg.systems}
    accuracy = {s: [o.accuracy for o in runs[s]] for s in cfg.systems}
    pairwise = []
    if n_resamples >= 2:
        for sa, sb in itertools.combinations(cfg.systems, 2):
            pairwise.append(PairwiseTest(sa, sb, welch_t_test(accuracy[sa], accuracy[sb])))

    return EvaluationReport(
        split_name=cfg.split.name,
        master_seed=cfg.split.seed,
        resamples=n_resamples,
        rows=tuple(_summarize(s, _system_params(s, cfg), runs[s]) for s in cfg.systems),
        outcomes=tuple(outcomes),
        pairwise=tuple(pairwise),
    )


# --------------------------------------------------------------------------
# report output


def report_to_csv(report: EvaluationReport) -> str:
    """One row per system: its id, params, the resample count and the
    stat fields of its SystemSummary, each float by repr."""
    stats = [f.name for f in dataclasses.fields(SystemSummary)][2:]
    rows = (
        [row.system_id, row.params, report.resamples, *(repr(getattr(row, f)) for f in stats)]
        for row in report.rows
    )
    return csv_text(["system", "params", "resamples", *stats], rows)


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
