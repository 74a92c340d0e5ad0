import math

import numpy as np
import pytest

from odse.classifiers import (
    KnnConfig,
    SvmConfig,
    TrainedSvm,
    knn_label_from_distances,
    median_heuristic_gamma,
    smo_solve,
    svm_decision,
    svm_predict,
    svm_train,
)
import odse.classifiers
from odse import _dp
from odse.embedding import compute_matrix, euclidean_distances
from odse.entropy import EstimatorConfig
from odse.errors import OdseError, TrainingError
from odse.model import FitnessWeights, GaConfig, ga_optimize, train_inner
from odse.sequences import Sequence

from conftest import pair_dissimilarity, random_sequences


def blobs(rng, n_per_class=20, sep=6.0, dim=2):
    a = rng.normal(size=(n_per_class, dim))
    b = rng.normal(size=(n_per_class, dim)) + sep
    x = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y


def fit(x, y, cfg):
    """SVM on vectors, trained from their Euclidean distance table."""
    return svm_train(euclidean_distances(x, x), y, cfg)


def decision(model, x, q):
    """Decision value of query vector q for a model fit on the rows of x."""
    return svm_decision(model, euclidean_distances([q], x[model.support])[0])


def single_support(gamma):
    return TrainedSvm(
        support=np.array([0]),
        alphas=np.array([1.0]),
        targets=np.array([1.0]),
        bias=0.0,
        gamma=gamma,
    )


class TestKnnConfig:
    def test_defaults(self):
        assert KnnConfig().k == 5

    @pytest.mark.parametrize("k", [0, -1, 2, 4])
    def test_k_must_be_positive_odd(self, k):
        with pytest.raises(OdseError, match=f"odd integer, got {k}$"):
            KnnConfig(k=k)

    @pytest.mark.parametrize("k", [3.0, 2.5, True])
    def test_k_must_be_an_integer(self, k):
        # an archive's k of 3.0 once reached a slice and raised TypeError,
        # and true ran as k = 1
        with pytest.raises(OdseError, match=f"odd integer, got {k}$"):
            KnnConfig(k=k)

    def test_numpy_integer_k_accepted(self):
        assert KnnConfig(k=np.int64(3)).k == 3


class TestKnnTieRules:
    def test_distance_tie_at_rank_k_goes_to_lower_index(self):
        # indices 1 and 2 are equally close; index 1 must be the neighbor
        label = knn_label_from_distances([2.0, 0.5, 0.5], [0, 1, 0], k=1)
        assert label == 1

    def test_vote_tie_broken_by_mean_distance(self):
        # three singleton classes: the closest one wins
        assert knn_label_from_distances([1.0, 2.0, 3.0], [0, 1, 2], k=3) == 0
        assert knn_label_from_distances([3.0, 2.0, 1.0], [0, 1, 2], k=3) == 2

    def test_full_tie_goes_to_lower_label(self):
        assert knn_label_from_distances([2.0, 2.0, 2.0], [2, 0, 1], k=3) == 0

    def test_majority_beats_distance(self):
        # class 1 holds two of three votes even though class 0 is closest
        label = knn_label_from_distances([0.1, 5.0, 6.0], [0, 1, 1], k=3)
        assert label == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(61)
        for trial in range(40):
            n = int(rng.integers(5, 20))
            # quantized coordinates force frequent exact distance ties
            x = rng.integers(0, 4, size=(n, 2)).astype(float)
            labels = rng.integers(0, 3, size=n)
            q = rng.integers(0, 4, size=2).astype(float)
            dist = np.sqrt(((x - q) ** 2).sum(axis=1))
            k = int(rng.choice([1, 3, 5]))
            if k > n:
                k = 1
            got = knn_label_from_distances(dist, labels, k)

            order = sorted(range(n), key=lambda i: (dist[i], i))[:k]
            by_class = {}
            for i in order:
                by_class.setdefault(int(labels[i]), []).append(dist[i])
            top = max(len(v) for v in by_class.values())
            cands = sorted(
                lab
                for lab, v in by_class.items()
                if len(v) == top
            )
            want = min(
                cands,
                key=lambda lab: (
                    math.fsum(by_class[lab]) / len(by_class[lab]),
                    lab,
                ),
            )
            assert got == want, f"trial {trial}"

    def test_too_few_training_items_rejected(self):
        with pytest.raises(TrainingError, match="k=5"):
            knn_label_from_distances([1.0, 2.0], [0, 1], k=5)
        with pytest.raises(TrainingError, match="non-empty"):
            knn_label_from_distances([], [], k=1)

    @pytest.mark.parametrize("k", [0, -1, -2])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(TrainingError, match=f"k >= 1, got {k}$"):
            knn_label_from_distances([1.0, 2.0, 3.0], [0, 1, 1], k=k)


class TestKnnPredict:
    def test_embedded_space_separable(self):
        rng = np.random.default_rng(67)
        x, y = blobs(rng)
        inner = train_inner(x, y, KnnConfig(k=3))
        assert np.array_equal(inner.predict(x), y)

    def test_dimension_mismatch_rejected(self):
        inner = train_inner(np.zeros((4, 3)), [0, 0, 1, 1], KnnConfig(k=1))
        with pytest.raises(OdseError, match="dimension"):
            inner.predict(np.zeros((1, 2)))

    def test_input_space_exact_match_wins(self, toy_cm):
        rng = np.random.default_rng(71)
        seqs = random_sequences(rng, 8, lo=4, hi=8)
        labels = [i % 2 for i in range(8)]
        table = compute_matrix(seqs, seqs, toy_cm).values
        for row, lab in zip(table, labels):
            assert knn_label_from_distances(row, labels, k=1) == lab


class TestKernels:
    """The kernel exp(-gamma * d^2) as the SVM applies it to the
    distances of either space."""

    def test_gaussian_kernel_values(self):
        cases = (
            ([1.0, 2.0], [1.0, 2.0], 3.0, 1.0, 0.0),
            ([0.0], [1.0], 1.0, math.exp(-1.0), 1e-15),
            ([0.0, 0.0], [3.0, 4.0], 0.1, math.exp(-2.5), 1e-12),
        )
        for a, b, gamma, want, tol in cases:
            d = euclidean_distances([a], [b])[0]
            assert svm_decision(single_support(gamma), d) == pytest.approx(want, abs=tol)

    def test_gaussian_kernel_shape_mismatch(self):
        with pytest.raises(OdseError, match="dimension"):
            euclidean_distances([[1.0]], [[1.0, 2.0]])

    def test_gaussian_gram_is_positive_semidefinite(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=(15, 3))
        gram = np.exp(-0.7 * euclidean_distances(x, x) ** 2)
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-10

    def test_levenshtein_kernel_diag_and_symmetry(self, toy_cm):
        rng = np.random.default_rng(79)
        seqs = random_sequences(rng, 5, lo=2, hi=7)
        table = compute_matrix(seqs, seqs, toy_cm).values
        gram = np.exp(-0.5 * table * table)
        assert np.all(np.diag(gram) == 1.0)
        assert np.allclose(gram, gram.T, rtol=0.0, atol=1e-15)

    def test_levenshtein_kernel_matches_distance(self, toy_cm):
        s, t = Sequence("a", "ARND"), Sequence("b", "ARD")
        d = pair_dissimilarity(s, t, toy_cm)
        row = compute_matrix([s], [t], toy_cm).values[0]
        assert svm_decision(single_support(2.0), row) == pytest.approx(
            math.exp(-2.0 * d * d), abs=1e-15
        )


class TestMedianHeuristic:
    def test_two_points(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert median_heuristic_gamma(dist) == 1.0 / 8.0

    def test_degenerate_fallback(self):
        assert median_heuristic_gamma(np.zeros((3, 3))) == 1.0
        assert median_heuristic_gamma(np.zeros((1, 1))) == 1.0

    def test_equals_numpy_median_bit_for_bit(self):
        # an odd and an even count of pairs, ties, and values whose two
        # middle ones differ by many orders of magnitude
        rng = np.random.default_rng(53)
        for t in range(600):
            n = int(rng.integers(2, 30))
            table = (rng.uniform(0.0, 5.0, size=(n, n)), rng.integers(0, 4, size=(n, n)) * 0.5,
                     np.exp(rng.normal(0.0, 30.0, size=(n, n))))[t % 3]
            med = float(np.median(table[np.triu_indices(n, k=1)]))
            want = 1.0 if med <= 0.0 else 1.0 / (2.0 * med * med)
            assert np.float64(median_heuristic_gamma(table)).tobytes() == np.float64(want).tobytes()


class TestSvmConfig:
    def test_validation(self):
        with pytest.raises(OdseError, match="c must"):
            SvmConfig(c=0.0)
        with pytest.raises(OdseError, match="kernel_gamma"):
            SvmConfig(kernel_gamma=-1.0)
        with pytest.raises(OdseError, match="kernel_gamma"):
            SvmConfig(kernel_gamma="auto")
        with pytest.raises(OdseError, match="kkt_tolerance"):
            SvmConfig(kkt_tolerance=0.0)
        # an infinite tolerance once trained an SVM with no support vector
        with pytest.raises(OdseError, match="kkt_tolerance must be finite"):
            SvmConfig(kkt_tolerance=float("inf"))
        with pytest.raises(OdseError, match="max_passes"):
            SvmConfig(max_passes=0)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_c_must_be_finite(self, c):
        # an infinite C trained and was saved as the non-JSON token Infinity
        with pytest.raises(OdseError, match="c must be positive"):
            SvmConfig(c=c)

    @pytest.mark.parametrize("passes", [200.0, 2.5, True])
    def test_max_passes_must_be_an_integer(self, passes):
        with pytest.raises(OdseError, match=f"max_passes must be an integer of at least 1, got {passes}$"):
            SvmConfig(max_passes=passes)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(OdseError, match=f"kernel_gamma must be finite.*got {gamma}"):
            SvmConfig(kernel_gamma=gamma)

    def test_finite_gamma_accepted(self):
        assert SvmConfig(kernel_gamma=1e300).kernel_gamma == 1e300


class TestSmoTwoPointOracle:
    def test_matches_analytic_dual_solution(self):
        # two 1-D points at 0 and 2, labels 1/0.  The dual has the closed
        # form alpha = 1/(1 - q) with q = exp(-gamma * r^2), bias 0.
        gamma, r, c = 0.5, 2.0, 10.0
        q = math.exp(-gamma * r * r)
        expected_alpha = 1.0 / (1.0 - q)

        x = np.array([[0.0], [r]])
        cfg = SvmConfig(c=c, kernel_gamma=gamma)
        model = fit(x, [1, 0], cfg)

        assert list(model.support) == [0, 1]
        assert model.alphas.shape == (2,)
        assert model.alphas[0] == pytest.approx(expected_alpha, abs=1e-12)
        assert model.alphas[1] == pytest.approx(expected_alpha, abs=1e-12)
        assert list(model.targets) == [1.0, -1.0]
        assert model.bias == pytest.approx(0.0, abs=1e-12)

        # midpoint is exactly on the boundary: resolves to class 0
        assert decision(model, x, [1.0]) == pytest.approx(0.0, abs=1e-12)
        assert decision(model, x, [0.1]) > 0.0
        assert decision(model, x, [1.9]) < 0.0

    def test_alpha_clipped_at_c(self):
        gamma, r, c = 0.5, 2.0, 0.5  # analytic optimum 1.156... exceeds C
        x = np.array([[0.0], [r]])
        model = fit(x, [1, 0], SvmConfig(c=c, kernel_gamma=gamma))
        assert np.all(model.alphas <= c + 1e-15)


@pytest.fixture(scope="module")
def trained_blobs():
    rng = np.random.default_rng(83)
    x, y = blobs(rng, n_per_class=20)
    cfg = SvmConfig(c=5.0)
    return x, y, cfg, fit(x, y, cfg)


class TestSvmOnBlobs:
    def test_alphas_respect_box(self, trained_blobs):
        _, _, cfg, model = trained_blobs
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= cfg.c + 1e-12)

    def test_equality_constraint_holds(self, trained_blobs):
        _, _, _, model = trained_blobs
        assert abs(float(np.dot(model.alphas, model.targets))) <= 1e-6

    def test_kkt_conditions_within_tolerance(self, trained_blobs):
        x, y, cfg, _ = trained_blobs
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        gamma = median_heuristic_gamma(dist)
        gram = np.exp(-gamma * dist * dist)
        t = np.where(y == 1, 1.0, -1.0)
        alphas, bias = smo_solve(
            gram, t, cfg.c, cfg.kkt_tolerance, cfg.max_passes
        )
        margins = t * (gram @ (alphas * t) + bias)
        # screening tolerance plus the final bias re-estimate, which can
        # shift every margin by at most the same tolerance
        slack = 2 * cfg.kkt_tolerance
        for a, m in zip(alphas, margins):
            if a <= 1e-10:
                assert m >= 1.0 - slack
            elif a >= cfg.c - 1e-10:
                assert m <= 1.0 + slack
            else:
                assert abs(m - 1.0) <= slack

    def test_separable_training_set_classified_perfectly(self, trained_blobs):
        x, y, _, model = trained_blobs
        preds = [1 if decision(model, x, xi) > 0.0 else 0 for xi in x]
        assert preds == list(y)

    def test_precomputed_distances_give_identical_model(self, trained_blobs):
        x, y, cfg, model = trained_blobs
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        again = svm_train(dist, y, cfg)
        assert np.array_equal(again.support, model.support)
        assert np.array_equal(again.alphas, model.alphas)
        assert again.bias == model.bias
        assert again.gamma == model.gamma

    def test_label_flip_flips_predictions(self):
        rng = np.random.default_rng(89)
        x, y = blobs(rng, n_per_class=12)
        cfg = SvmConfig(c=3.0, kernel_gamma=0.2)
        m_pos = fit(x, y, cfg)
        m_neg = fit(x, 1 - y, cfg)
        queries = rng.normal(size=(20, 2)) * 3.0 + 3.0
        for q in queries:
            f = decision(m_pos, x, q)
            g = decision(m_neg, x, q)
            assert g == pytest.approx(-f, abs=1e-9)
            if abs(f) > 1e-9:
                assert (g > 0.0) == (f <= 0.0)


class TestSvmDegenerateInputs:
    def test_contradictory_duplicates_terminate(self):
        # identical points with opposite labels: the pair has zero
        # curvature and must be skipped, not divided by
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = [0, 1, 0, 1]
        model = fit(x, y, SvmConfig(c=1.0, kernel_gamma=1.0))
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= 1.0 + 1e-12)

    def test_indefinite_input_space_kernel_terminates(self, toy_cm):
        rng = np.random.default_rng(97)
        seqs = random_sequences(rng, 30, lo=3, hi=9)
        labels = [i % 2 for i in range(30)]
        table = compute_matrix(seqs, seqs, toy_cm).values
        model = svm_train(table, labels, SvmConfig(c=2.0, max_passes=50))
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= 2.0 + 1e-12)
        # a sequence is decided on its table row at the support columns
        assert svm_predict(model, table[0][model.support]) in (0, 1)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="both classes"):
            svm_train(np.zeros((3, 3)), [1, 1, 1], SvmConfig())

    def test_foreign_labels_rejected(self):
        with pytest.raises(TrainingError, match="0/1"):
            svm_train(np.zeros((2, 2)), [0, 2], SvmConfig())

    def test_wrong_pairwise_shape_rejected(self):
        with pytest.raises(TrainingError, match="shape"):
            svm_train(np.zeros((3, 3)), [0, 1], SvmConfig())

    def test_zero_decision_resolves_to_class_zero(self):
        model = TrainedSvm(
            support=np.zeros(0, dtype=np.int64),
            alphas=np.zeros(0),
            targets=np.zeros(0),
            bias=0.0,
            gamma=1.0,
        )
        assert svm_decision(model, np.zeros(0)) == 0.0
        assert svm_predict(model, np.zeros(0)) == 0

    def test_decision_from_distances_shape_checked(self):
        model = TrainedSvm(
            support=np.arange(2),
            alphas=np.array([0.5, 0.5]),
            targets=np.array([1.0, -1.0]),
            bias=0.0,
            gamma=1.0,
        )
        with pytest.raises(OdseError, match="one distance per support"):
            svm_decision(model, np.zeros(3))


class TestSmoDirect:
    def test_deterministic_given_same_inputs(self):
        rng = np.random.default_rng(101)
        x, y = blobs(rng, n_per_class=10)
        diff = x[:, None, :] - x[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        gram = np.exp(-0.1 * dist2)
        t = np.where(y == 1, 1.0, -1.0)
        a1, b1 = smo_solve(gram, t, 2.0, 1e-3, 100)
        a2, b2 = smo_solve(gram, t, 2.0, 1e-3, 100)
        assert np.array_equal(a1, a2)
        assert b1 == b2


def sorted_partner_smo(gram, targets, c, tol, max_passes):
    """The SMO loop that tried partners one by one in sorted order of
    decreasing |E_i - E_j| (ties toward the lower index) until one made a
    step.  smo_solve must reproduce it bit for bit."""
    k = np.asarray(gram, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    n = y.shape[0]
    alphas = np.zeros(n, dtype=np.float64)
    b = 0.0
    for _ in range(max_passes):
        errors = k @ (alphas * y) + b - y
        changed = 0
        for i in range(n):
            e_i = errors[i]
            r_i = e_i * y[i]
            if not ((r_i < -tol and alphas[i] < c) or (r_i > tol and alphas[i] > 0)):
                continue
            gap = np.abs(errors - e_i)
            for j in np.lexsort((np.arange(n), -gap)):
                j = int(j)
                if j == i:
                    continue
                a_i, a_j = alphas[i], alphas[j]
                if y[i] != y[j]:
                    lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
                else:
                    lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
                if lo >= hi:
                    continue
                eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
                if eta <= 0.0:
                    continue
                a_j_new = min(max(a_j + y[j] * (e_i - errors[j]) / eta, lo), hi)
                if abs(a_j_new - a_j) < 1e-7:
                    continue
                a_i_new = a_i + y[i] * y[j] * (a_j - a_j_new)
                d_i = y[i] * (a_i_new - a_i)
                d_j = y[j] * (a_j_new - a_j)
                b1 = b - e_i - d_i * k[i, i] - d_j * k[i, j]
                b2 = b - errors[j] - d_i * k[i, j] - d_j * k[j, j]
                if 0.0 < a_i_new < c:
                    b_new = b1
                elif 0.0 < a_j_new < c:
                    b_new = b2
                else:
                    b_new = 0.5 * (b1 + b2)
                errors += d_i * k[:, i] + d_j * k[:, j] + (b_new - b)
                alphas[i], alphas[j] = a_i_new, a_j_new
                b = b_new
                changed += 1
                break
        if changed == 0:
            break
    free = (alphas > 1e-10) & (alphas < c - 1e-10)
    if np.any(free):
        f_wo_b = k[free] @ (alphas * y)
        b = float(np.mean(y[free] - f_wo_b))
    return alphas, b


def random_gram(rng, n, kind):
    """A Gram matrix of one of three kinds: "psd" (Gaussian kernel of
    points, some repeated), "ulps" (the same with entries nudged a few
    ulps apart from their mirror) or "indefinite" (Gaussian kernel of a
    symmetric non-metric distance table, as the input space gives)."""
    if kind == "indefinite":
        d = rng.uniform(0.0, 3.0, size=(n, n))
        d = np.triu(d, 1) + np.triu(d, 1).T
    else:
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        x[rng.random(n) < 0.1] = x[0]
        d = euclidean_distances(x, x)
    gram = np.exp(-float(rng.uniform(0.05, 2.0)) * d * d)
    if kind == "ulps":
        nudge = rng.integers(-3, 4, size=(n, n))
        direction = np.where(nudge > 0, np.inf, -np.inf)
        for step in range(1, 4):
            toward = np.where(np.abs(nudge) >= step, direction, gram)
            gram = np.nextafter(gram, toward)
    return gram


def assert_same_solve(gram, y, c, tol, max_passes):
    alphas, bias = smo_solve(gram, y, c, tol, max_passes)
    want_alphas, want_bias = sorted_partner_smo(gram, y, c, tol, max_passes)
    assert np.array_equal(alphas, want_alphas)
    assert bias == want_bias
    return alphas


class TestSmoPartnerRule:
    """smo_solve picks each partner with one masked argmax; the sorted
    per-partner loop it replaced is the oracle.  These run the sweep in
    use, the compiled kernel wherever a C compiler is found;
    TestSmoPartnerRuleNumpy runs them on the numpy sweep."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_grams_match_sorted_loop(self, seed):
        rng = np.random.default_rng(700 + seed)
        cases = [
            (kind, c, passes)
            for kind in ("psd", "ulps", "indefinite")
            for c in (0.1, 1.0, 2.0, 100.0)
            for passes in (1, 200)
        ]
        at_zero = at_c = 0
        for _ in range(4):
            for kind, c, passes in cases:
                # mostly small, so that the scalar oracle stays quick
                n = int(rng.integers(2, 101 if rng.random() < 0.2 else 31))
                y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
                y[int(rng.integers(n))] *= -1.0
                gram = random_gram(rng, n, kind)
                alphas = assert_same_solve(gram, y, c, 1e-3, passes)
                at_zero += bool(np.any(alphas == 0.0))
                at_c += bool(np.any(alphas == c))
        # the sweep reaches partners stuck at either bound of the box
        assert at_zero > 0 and at_c > 0

    def test_first_partner_tie_goes_to_lower_index(self):
        # at the start every error is -y, so every opposite-class partner
        # ties at |E_i - E_j| = 2: the lowest such index is taken
        gram = np.exp(-np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        alphas = assert_same_solve(gram, y, 1.0, 1e-3, 1)
        assert alphas[2] > 0.0

    def test_step_of_exactly_step_eps_counts(self):
        # with C = 1e-7 the first step is clipped to exactly 1e-7; a step
        # is skipped only when strictly smaller
        gram = np.eye(2)
        y = np.array([1.0, -1.0])
        alphas = assert_same_solve(gram, y, 1e-7, 1e-3, 200)
        assert list(alphas) == [1e-7, 1e-7]

    def test_ga_grams_match_sorted_loop(self, toy_sim, monkeypatch):
        solves = []

        def recording(gram, targets, c, tol, max_passes):
            solves.append((np.array(gram), np.array(targets), c, tol, max_passes))
            return smo_solve(gram, targets, c, tol, max_passes)

        monkeypatch.setattr(odse.classifiers, "smo_solve", recording)
        rng = np.random.default_rng(711)
        seqs = random_sequences(rng, 40, lo=4, hi=10)
        train = [(s, int(rng.random() < 0.5)) for s in seqs]
        ga_optimize(
            train, None, toy_sim, SvmConfig(c=2.0), FitnessWeights(),
            EstimatorConfig(),
            GaConfig(population_size=4, max_generations=2, rng_seed=3),
        )
        assert len(solves) >= 4
        for gram, y, c, tol, max_passes in solves:
            assert_same_solve(gram, y, c, tol, max_passes)


class TestSmoPartnerRuleNumpy(TestSmoPartnerRule):
    """The oracle checks above on `numpy_smo_sweep`, the sweep that runs
    where no C compiler is found."""

    @pytest.fixture(autouse=True)
    def numpy_sweep(self, monkeypatch):
        monkeypatch.setattr(_dp, "load", lambda: _dp.NUMPY)
