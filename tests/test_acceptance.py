"""Acceptance checks for the whole toolkit, one numbered test each.

Every test prints an `[acceptance NN]` line with the measured quantity,
so `pytest -v -s tests/test_acceptance.py` doubles as a short report.
No external data is needed; everything runs on synthetic corpora.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from odse.alignment import (
    build_cost_model,
    load_similarity_matrix,
    pam120_path,
    parse_similarity_matrix,
)
from odse.classifiers import (
    KnnConfig,
    SvmConfig,
    svm_decision,
    svm_predict,
    svm_train,
)
from odse.datasets import make_ds200, make_ds1811
from odse.embedding import (
    EXPANSION_MEDOID,
    INITIAL,
    compute_matrix,
    euclidean_distances,
)
from odse.entropy import (
    EstimatorConfig,
    mst_entropy,
    normalized_column_entropy,
)
from odse.errors import MatrixFormatError
from odse.experiment import welch_t_test
from odse.model import (
    FitnessWeights,
    GaConfig,
    OdseGenome,
    classify_all,
    compress,
    expand,
    ga_optimize,
    model_to_json,
    synthesize_instance,
)
from odse.sequences import Sequence

from conftest import (
    TOY_MATRIX_TEXT,
    alignment_oracle,
    motif_dataset,
    mst_power_sum,
    pair_dissimilarity,
    qre_entropy,
    random_sequences,
    spanning_tree_oracle,
    synthetic_proteins,
)


def test_criterion_01_alignment_matches_exhaustive_edit_minimum(toy_cm):
    """The DP alignment cost equals the brute-force minimum over every
    edit script, exactly, for short random pairs."""
    rng = np.random.default_rng(11)
    letters = list("ARND")
    for trial in range(200):
        la, lb = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        s = Sequence("s", "".join(rng.choice(letters, size=la)))
        t = Sequence("t", "".join(rng.choice(letters, size=lb)))
        got = pair_dissimilarity(s, t, toy_cm)
        want = alignment_oracle(s, t, toy_cm)
        assert got == want, (trial, s.symbols, t.symbols, got, want)
    print("[acceptance 01] PASS: 200/200 random pairs (lengths <= 4) "
          "match the exhaustive edit-script minimum exactly")


def test_criterion_02_substitution_cost_model_invariants():
    """PAM120-derived costs are zero on the diagonal, symmetric and inside
    [0,1]; an asymmetric score table is rejected outright."""
    sim = load_similarity_matrix(pam120_path())
    cm = build_cost_model(sim, gap_weight=1.0)
    c = cm.sub_cost
    assert np.all(c.diagonal() == 0.0)
    assert np.array_equal(c, c.T)
    assert c.min() >= 0.0 and c.max() <= 1.0
    asymmetric = "   A  R\nA  4  1\nR  0  4\n"
    with pytest.raises(MatrixFormatError, match="asymmetric"):
        parse_similarity_matrix(asymmetric)
    print(f"[acceptance 02] PASS: {len(cm.alphabet)}-symbol PAM120 cost "
          f"table has zero diagonal, symmetry, range "
          f"[{c.min():.3f}, {c.max():.3f}]; asymmetric table rejected")


def test_criterion_03_parzen_entropy_analytic_cases():
    """The Parzen estimator hits its closed form on degenerate data and
    approaches the order-2 entropy of a unit Gaussian."""
    target = math.log(2.0 * math.sqrt(math.pi))
    identical = np.full((40, 1), 3.7)
    got = qre_entropy(identical, sigma=1.0)
    assert abs(got - target) < 1e-9
    rng = np.random.default_rng(12)
    sample = rng.normal(0.0, 1.0, size=(1000, 1))
    est = qre_entropy(sample, sigma=0.3)
    assert abs(est - target) < 0.15
    print(f"[acceptance 03] PASS: identical points give ln(2*sqrt(pi)) "
          f"within {abs(got - target):.1e}; unit-Gaussian estimate off by "
          f"{abs(est - target):.3f} nats (< 0.15)")


def test_criterion_04_spanning_tree_length_oracle():
    """The power-weighted tree length inside `mst_entropy` equals the
    brute-force minimum over all spanning trees; the two-point entropy
    case lands on zero."""
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.3, 2.0))
        pts = rng.normal(size=(n, d))
        got = mst_power_sum(pts, gamma)
        want = spanning_tree_oracle(pts, gamma)
        assert got == want, (trial, n, d, gamma)
    two = mst_entropy(np.array([[0.0], [2.0]]), 0.5)
    assert abs(two) < 1e-12
    print("[acceptance 04] PASS: 100/100 point sets (n <= 6) match the "
          f"spanning-tree oracle exactly; two-point entropy = {two:.1e}")


def test_criterion_05_prototype_compression_expansion_contracts(toy_cm):
    """Constant columns always fall to compression; the slack/strict
    threshold pair leaves a generic set untouched; expansion appends the
    true per-class medoids."""
    est = EstimatorConfig()

    # a) a constant column scores zero, so any threshold >= 0 removes it
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 3.0, size=(6, 4))
    values[:, 2] = 1.25
    scores = [normalized_column_entropy(values[:, j], est, 0.5).normalized for j in range(4)]
    for tau_c in (0.0, 0.25, 0.7, 1.0):
        kept = compress(scores, tau_c)
        assert 2 not in kept, tau_c

    # b) identity thresholds keep the initial prototype set when every
    # column scores strictly between the thresholds
    rng = np.random.default_rng(0)
    seqs = random_sequences(rng, 16, lo=2, hi=16)
    train = [(s, i % 2) for i, s in enumerate(seqs[:12])]
    val = [(s, i % 2) for i, s in enumerate(seqs[12:])]
    sim = parse_similarity_matrix(TOY_MATRIX_TEXT)
    cm = build_cost_model(sim, gap_weight=1.0)
    d0 = compute_matrix([s for s, _ in train], [s for s, _ in train], cm)
    scores = [
        normalized_column_entropy(d0.values[:, j], est, 0.5).normalized
        for j in range(12)
    ]
    assert all(0.0 < s < 1.0 for s in scores), "dataset must stay interior"
    g = OdseGenome(sigma=0.5, tau_c=0.0, tau_e=1.0, gap_weight=1.0)
    model, _ = synthesize_instance(
        g, train, val, sim, KnnConfig(k=1), FitnessWeights(), est
    )
    assert model.representation.ids == tuple(s.id for s, _ in train)
    assert all(tag == INITIAL for tag in model.representation.provenance)

    # c) expansion medoids equal the brute-force summed-distance minimizers
    rng = np.random.default_rng(29)
    members = random_sequences(rng, 20, lo=3, hi=8, prefix="m")
    train2 = [(s, i % 2) for i, s in enumerate(members)]
    train_seqs = [s for s, _ in train2]
    d2 = compute_matrix(train_seqs, train_seqs, toy_cm)
    scores = [
        normalized_column_entropy(d2.values[:, j], est, 0.5).normalized for j in range(20)
    ]
    columns, provenance = expand(
        scores, tuple(range(20)), 0.0, [lab for _, lab in train2], d2.values
    )
    assert provenance == (EXPANSION_MEDOID, EXPANSION_MEDOID)
    for label in (0, 1):
        group = [s for s, lab in train2 if lab == label]
        sums = [
            (math.fsum(pair_dissimilarity(s, t, toy_cm) for t in group), i)
            for i, s in enumerate(group)
        ]
        want = group[min(sums)[1]]
        assert train_seqs[columns[label]].id == want.id
    print("[acceptance 05] PASS: constant column removed at 4 thresholds; "
          "identity thresholds preserved all 12 prototypes; both "
          "expansion medoids match brute force")


def _ga_corpus():
    rng = np.random.default_rng(1)
    seqs = random_sequences(rng, 14, lo=3, hi=10)
    train = [(s, i % 2) for i, s in enumerate(seqs[:10])]
    val = [(s, i % 2) for i, s in enumerate(seqs[10:])]
    return train, val


def test_criterion_06_ga_elitism_and_thread_reproducibility(toy_sim):
    """The elite survives unchanged, so per-generation best fitness never
    drops; one seed gives byte-identical runs at 1, 2 and 8 threads."""
    train, val = _ga_corpus()
    fw, est = FitnessWeights(), EstimatorConfig()
    longest = 0
    for seed in range(10):
        cfg = GaConfig(
            population_size=4, max_generations=50,
            stall_epsilon=1e-12, rng_seed=seed,
        )
        model = ga_optimize(train, val, toy_sim, KnnConfig(k=1), fw, est, cfg)
        trace = [stat.best for stat in model.synthesis_log]
        assert all(b >= a for a, b in zip(trace, trace[1:])), (seed, trace)
        assert model.fitness == max(trace)
        longest = max(longest, len(trace))

    cfg = GaConfig(population_size=6, max_generations=6, rng_seed=3)
    docs = [
        model_to_json(
            ga_optimize(train, val, toy_sim, KnnConfig(k=1), fw, est, cfg,
                        threads=t)
        )
        for t in (1, 2, 8)
    ]
    assert docs[0] == docs[1] == docs[2]
    print(f"[acceptance 06] PASS: best-fitness trace non-decreasing for "
          f"10 seeds (longest run {longest} generations); 1/2/8-thread "
          f"runs byte-identical")


def test_criterion_07_svm_dual_constraints_and_oracle(toy_cm):
    """SMO honors the dual box and equality constraints, matches the
    two-point analytic solution, and survives an indefinite kernel."""
    # a) box and sum constraints on separable blobs
    worst_sum = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = np.vstack([
            rng.normal(-3.0, 1.0, size=(20, 2)),
            rng.normal(3.0, 1.0, size=(20, 2)),
        ])
        y = np.array([0] * 20 + [1] * 20)
        svm = svm_train(euclidean_distances(x, x), y, SvmConfig())
        assert np.all(svm.alphas >= -1e-3)
        assert np.all(svm.alphas <= 2.0 + 1e-3)
        balance = abs(float(np.dot(svm.alphas, svm.targets)))
        assert balance <= 1e-3
        worst_sum = max(worst_sum, balance)

    # b) two points, one per class: alpha = 1/(1 - k(x1,x2)), zero bias
    r, gamma = 1.2, 0.8
    q = math.exp(-gamma * r * r)
    want_alpha = 1.0 / (1.0 - q)
    x = np.array([[0.0], [r]])
    svm = svm_train(
        euclidean_distances(x, x), np.array([1, 0]),
        SvmConfig(c=10.0, kernel_gamma=gamma),
    )
    assert np.allclose(np.sort(svm.alphas), [want_alpha, want_alpha],
                       rtol=0.0, atol=1e-12)
    assert abs(svm.bias) < 1e-12
    # the midpoint decision is analytically 0; the two squared distances
    # round differently, so allow ulp-level residue and demand class 0
    mid = euclidean_distances([[r / 2.0]], x[svm.support])[0]
    assert abs(svm_decision(svm, mid)) < 1e-12
    assert svm_predict(svm, mid) == 0

    # c) indefinite input-space kernel still terminates and predicts
    rng = np.random.default_rng(31)
    seqs = random_sequences(rng, 50, lo=3, hi=10)
    labels = np.array([i % 2 for i in range(50)])
    t0 = time.perf_counter()
    table = compute_matrix(seqs, seqs, toy_cm).values
    model = svm_train(table, labels, SvmConfig(max_passes=50))
    elapsed = time.perf_counter() - t0
    assert np.all(np.isfinite(model.alphas)) and math.isfinite(model.bias)
    preds = {svm_predict(model, row[model.support]) for row in table[:8]}
    assert preds <= {0, 1}
    print(f"[acceptance 07] PASS: worst |sum(alpha*y)| = {worst_sum:.2e}; "
          f"two-point duals match within 1e-12; indefinite-kernel fit on "
          f"50 sequences finished in {elapsed:.2f}s")


def test_criterion_08_end_to_end_motif_classification():
    """On two template-derived sequence classes the full pipeline reaches
    high test accuracy quickly with either inner classifier."""
    rng = np.random.default_rng(5)
    data = motif_dataset(rng, n_per_class=50)
    train = data[:30] + data[50:80]
    test = data[30:50] + data[80:100]
    test_seqs = [s for s, _ in test]
    test_labels = [lab for _, lab in test]
    sim = load_similarity_matrix(pam120_path())
    cfg = GaConfig(population_size=8, max_generations=5, rng_seed=1)

    results = {}
    for name, inner, floor in (
        ("svm", SvmConfig(), 0.95),
        ("knn", KnnConfig(k=5), 0.90),
    ):
        t0 = time.perf_counter()
        model = ga_optimize(
            train, None, sim, inner, FitnessWeights(), EstimatorConfig(),
            cfg, threads=2,
        )
        preds = classify_all(model, test_seqs, threads=2)
        elapsed = time.perf_counter() - t0
        acc = sum(p == lab for p, lab in zip(preds, test_labels)) / len(test)
        assert acc >= floor, (name, acc)
        assert elapsed < 60.0, (name, elapsed)
        results[name] = (acc, elapsed)
    print(f"[acceptance 08] PASS: 60-train/40-test motif task, "
          f"svm {results['svm'][0]:.1%} in {results['svm'][1]:.1f}s, "
          f"5-nn {results['knn'][0]:.1%} in {results['knn'][1]:.1f}s")


def test_criterion_09_split_composition_and_determinism(toy_cm):
    """The two split designs hit their pinned train/test strata and replay
    identically from one seed."""
    rng = np.random.default_rng(2024)
    corpus = synthetic_proteins(rng)

    train, test = make_ds200(corpus, seed=4)
    assert len(train) == 140 and len(test) == 60
    assert sum(1 for _, lab in train if lab == 0) == 70
    assert sum(1 for _, lab in train if lab == 1) == 70
    assert sum(1 for _, lab in test if lab == 0) == 30
    assert sum(1 for _, lab in test if lab == 1) == 30
    again = make_ds200(corpus, seed=4)
    assert [(s.id, lab) for s, lab in train] == [
        (s.id, lab) for s, lab in again[0]
    ]

    train2, _ = make_ds1811(corpus, seed=4, cm=toy_cm)
    assert sum(1 for _, lab in train2 if lab == 0) == 110
    assert sum(1 for _, lab in train2 if lab == 1) == 70
    again2, _ = make_ds1811(corpus, seed=4, cm=toy_cm)
    assert [(s.id, lab) for s, lab in train2] == [
        (s.id, lab) for s, lab in again2
    ]
    print("[acceptance 09] PASS: extreme split 140/60 with 70/70 and "
          "30/30 strata; medoid split trains on 110/70; both replay "
          "exactly from their seed")


def test_criterion_10_welch_test_matches_quadrature():
    """The closed-form Welch p-value agrees with numeric integration of
    the Student t density; identical samples score p = 1."""

    def oracle(a, b):
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

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(0.0, 1.0, size=int(rng.integers(3, 15)))
        b = rng.normal(rng.uniform(0.0, 1.0), 1.2, size=int(rng.integers(3, 15)))
        diff = abs(welch_t_test(a, b) - oracle(a, b))
        assert diff < 1e-6
        worst = max(worst, diff)
    assert welch_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7]) == 1.0
    print(f"[acceptance 10] PASS: 20/20 pairs within 1e-6 of quadrature "
          f"(worst {worst:.1e}); identical samples give p = 1")
