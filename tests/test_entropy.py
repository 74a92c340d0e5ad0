import math
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odse import _dp
from odse.entropy import (
    MST,
    QRE,
    EstimatorConfig,
    column_scores,
    mst_entropy,
    normalized_column_entropy,
    normalized_vector_entropy,
)
from odse.errors import OdseError

from conftest import mst_power_sum, qre_entropy, qre_vector_score, spanning_tree_oracle


class TestConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.kind == QRE
        assert cfg.alpha == 0.5

    def test_invalid_kind(self):
        with pytest.raises(OdseError, match="kind"):
            EstimatorConfig(kind="histogram")

    def test_invalid_sigma(self):
        table, cfg = np.arange(6.0).reshape(3, 2), EstimatorConfig(kind=QRE)
        with pytest.raises(OdseError, match="sigma"):
            column_scores(table, cfg, 0.0)
        with pytest.raises(OdseError, match="sigma"):
            column_scores(table, cfg, -1.0)
        # an infinite width once scored any spread as 1.0
        with pytest.raises(OdseError, match="sigma must be finite"):
            column_scores(table, cfg, float("inf"))
        # QRE has no default width
        for sigma in (None, math.nan):
            with pytest.raises(OdseError, match="sigma must be finite and positive"):
                column_scores(table, cfg, sigma)

    def test_mst_does_not_read_sigma(self):
        table, cfg = np.arange(6.0).reshape(3, 2), EstimatorConfig(kind=MST)
        assert column_scores(table, cfg) == column_scores(table, cfg, math.nan)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
    def test_vector_scores_refuse_alpha(self, alpha):
        with pytest.raises(OdseError, match=r"alpha must lie in \(0, 1\)"):
            mst_entropy(np.arange(4.0), alpha)
        # a constant set, which scores 0 without the estimator, too
        with pytest.raises(OdseError, match=r"alpha must lie in \(0, 1\)"):
            normalized_vector_entropy(np.ones(4), alpha)

    def test_invalid_alpha(self):
        with pytest.raises(OdseError, match="alpha"):
            EstimatorConfig(alpha=0.0)
        with pytest.raises(OdseError, match="alpha"):
            EstimatorConfig(alpha=1.0)


class TestQre:
    def test_identical_points_closed_form(self):
        # all pairwise distances zero: value is 0.5*d*ln(4*pi*sigma^2)
        for sigma, n, d in ((1.0, 5, 1), (0.5, 3, 2), (2.0, 7, 3)):
            samples = np.tile(np.arange(d, dtype=float), (n, 1))
            expected = 0.5 * d * math.log(4 * math.pi * sigma * sigma)
            assert qre_entropy(samples, sigma) == pytest.approx(expected, abs=1e-9)

    def test_two_points_closed_form(self):
        # n=2, 1-D, separation r: -ln( (2 + 2 e^{-r^2/4s^2}) G0 / 4 )
        sigma, r = 0.7, 1.3
        g0 = (4 * math.pi * sigma * sigma) ** -0.5
        kernel_mean = g0 * (2 + 2 * math.exp(-(r * r) / (4 * sigma * sigma))) / 4
        expected = -math.log(kernel_mean)
        got = qre_entropy(np.array([[0.0], [r]]), sigma)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_spreading_points_increases_entropy(self):
        sigma = 0.5
        values = [
            qre_entropy(np.array([[0.0], [r]]), sigma) for r in (0.1, 0.5, 1.0, 2.0)
        ]
        assert values == sorted(values)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(40, 3))
        base = qre_entropy(samples, 0.4)
        shifted = qre_entropy(samples + 17.25, 0.4)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(30, 2))
        base = qre_entropy(samples, 0.6)
        perm = qre_entropy(samples[rng.permutation(30)], 0.6)
        assert perm == pytest.approx(base, abs=1e-12)

    def test_one_dimensional_input_accepted_flat(self):
        flat = np.array([0.0, 1.0, 2.0])
        tall = flat[:, None]
        assert qre_entropy(flat, 0.5) == qre_entropy(tall, 0.5)

    def test_gaussian_sample_near_true_renyi2(self):
        # quadratic Renyi entropy of N(0,1) is ln(2*sqrt(pi))
        rng = np.random.default_rng(12345)
        samples = rng.normal(size=(1500, 1))
        est = qre_entropy(samples, 0.05)
        assert est == pytest.approx(math.log(2 * math.sqrt(math.pi)), abs=0.15)

    def test_single_sample_is_kernel_constant(self):
        # one sample: mean kernel is G(0), so only the normalizer remains
        sigma = 0.8
        expected = 0.5 * math.log(4 * math.pi * sigma * sigma)
        assert qre_entropy(np.array([[1.0]]), sigma) == pytest.approx(
            expected, abs=1e-12
        )

    def test_empty_sample_set_rejected(self):
        with pytest.raises(OdseError):
            qre_entropy(np.empty((0, 2)), 0.5)


class TestMstLength:
    """The power-weighted tree length inside `mst_entropy`: its Prim
    step and its sorted power sum."""

    def test_two_points(self):
        pts = np.array([[0.0], [3.0]])
        assert mst_power_sum(pts, 1.0) == 3.0
        assert mst_power_sum(pts, 0.5) == pytest.approx(math.sqrt(3.0))

    def test_collinear_chain(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        assert mst_power_sum(pts, 1.0) == 2.0

    def test_matches_spanning_tree_enumeration(self):
        rng = np.random.default_rng(99)
        for n in (2, 3, 4, 5, 6):
            for _ in range(4):
                pts = rng.uniform(0.0, 5.0, size=(n, 2))
                gamma = float(rng.uniform(0.3, 2.0))
                assert mst_power_sum(pts, gamma) == spanning_tree_oracle(pts, gamma)

    def test_needs_two_samples(self):
        with pytest.raises(OdseError, match="two samples"):
            mst_entropy(np.array([[0.0]]), 0.5)


class TestMstEntropy:
    def test_two_point_zero_entropy(self):
        # alpha=0.5, d=1: gamma=0.5, H = ln(L / sqrt(2)) / 0.5; L=sqrt(2)
        alpha = 0.5
        pts = np.array([[0.0], [2.0]])
        assert mst_entropy(pts, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_shifts_by_d_log_c(self):
        rng = np.random.default_rng(21)
        for d in (1, 2):
            alpha = 0.5
            pts = rng.uniform(size=(25, d))
            c = 3.7
            base = mst_entropy(pts, alpha)
            scaled = mst_entropy(pts * c, alpha)
            assert scaled - base == pytest.approx(d * math.log(c), abs=1e-9)

    def test_overflowing_tree_length_taken_in_log_space(self):
        # 200 points in [0,1]^400 at gamma 200 keep the powered sum
        # finite; scaled by 300 the sum exceeds the float range
        rng = np.random.default_rng(23)
        alpha = 0.5
        pts = rng.uniform(size=(200, 400))
        pts[-3:] = pts[:3]  # zero-length edges add nothing in log space
        s = 300.0
        assert math.isfinite(mst_power_sum(pts, 200.0))
        with np.errstate(over="ignore"):
            assert mst_power_sum(pts * s, 200.0) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = mst_entropy(pts, alpha)
            scaled = mst_entropy(pts * s, alpha)
            raw = normalized_vector_entropy(pts * s, alpha).raw
        assert scaled == pytest.approx(base + 400 * math.log(s), rel=1e-9)
        assert raw == scaled

    def test_underflowing_tree_length_taken_in_log_space(self):
        # two points 1e-3 apart in each of 400 coordinates: the one edge
        # is 0.02, and 0.02**200 is below the smallest float
        alpha = 0.5
        pts = np.zeros((2, 400))
        pts[1] = 1e-3
        edge = float(np.linalg.norm(pts[1]))
        assert edge**200 == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = normalized_vector_entropy(pts, alpha)
        want = (200 * math.log(edge) - 0.5 * math.log(2)) / 0.5
        assert value.raw == pytest.approx(want, rel=1e-12)
        assert value.raw == pytest.approx(-1565.50, abs=0.01)
        assert value.normalized == 1.0
        assert mst_entropy(pts, alpha) == value.raw

    def test_identical_points_give_minus_infinity(self):
        alpha = 0.5
        pts = np.zeros((4, 2))
        assert mst_entropy(pts, alpha) == -math.inf

    def test_stable_across_seeds(self):
        alpha = 0.5
        values = []
        for seed in (1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(size=(500, 2))
            values.append(mst_entropy(pts, alpha))
        assert max(values) - min(values) < 0.2

    def test_three_dimensional_samples_rejected(self):
        with pytest.raises(OdseError, match=r"samples must have shape \(N,\) or \(N, d\)"):
            mst_entropy(np.zeros((3, 2, 2)), 0.5)


class TestNormalizedColumn:
    def test_constant_column_is_zero(self):
        for kind in (QRE, MST):
            cfg = EstimatorConfig(kind=kind)
            v = normalized_column_entropy(np.full(10, 3.25), cfg, 0.5)
            assert v.normalized == 0.0

    def test_unit_range_with_positive_raw_clamps_to_one(self):
        # spread exactly 1 makes ln(range)=0; raw > 0 here
        cfg = EstimatorConfig(kind=QRE)
        v = normalized_column_entropy(np.array([0.0, 1.0]), cfg, 0.5)
        assert v.raw > 0.0
        assert v.normalized == 1.0

    def test_result_always_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for kind in (QRE, MST):
            cfg = EstimatorConfig(kind=kind, alpha=0.5)
            for _ in range(10):
                col = rng.uniform(0.0, float(rng.uniform(0.5, 20.0)), size=12)
                v = normalized_column_entropy(col, cfg, 0.3)
                assert 0.0 <= v.normalized <= 1.0

    def test_wide_uniform_column_scores_high(self):
        cfg = EstimatorConfig(kind=MST, alpha=0.5)
        rng = np.random.default_rng(33)
        col = rng.uniform(0.0, 10.0, size=200)
        v = normalized_column_entropy(col, cfg)
        assert 0.7 <= v.normalized <= 1.0

    def test_tight_cluster_in_wide_range_scores_low(self):
        # nearly-coincident points plus one far outlier: little entropy
        # relative to the log-range reference
        cfg = EstimatorConfig(kind=MST, alpha=0.5)
        col = np.concatenate([np.linspace(0.0, 1e-4, 30), [100.0]])
        v = normalized_column_entropy(col, cfg)
        assert v.normalized < 0.3

    def test_needs_two_samples(self):
        cfg = EstimatorConfig()
        with pytest.raises(OdseError):
            normalized_column_entropy(np.array([1.0]), cfg, 0.5)


class TestNormalizedVector:
    def test_three_dimensional_samples_rejected(self):
        with pytest.raises(OdseError, match=r"samples must have shape \(N,\) or \(N, d\)"):
            normalized_vector_entropy(np.zeros((3, 2, 2)), 0.5)

    def test_all_constant_columns_zero(self):
        alpha = 0.5
        samples = np.ones((6, 3))
        v = normalized_vector_entropy(samples, alpha)
        assert v.normalized == 0.0

    def test_unit_interval(self):
        rng = np.random.default_rng(41)
        alpha = 0.5
        for _ in range(8):
            scale = float(rng.uniform(0.5, 30.0))
            samples = rng.uniform(0.0, scale, size=(25, 3))
            v = normalized_vector_entropy(samples, alpha)
            assert 0.0 <= v.normalized <= 1.0

    def test_reference_ratio_when_box_is_large(self):
        # with ln(box volume) > 0 the score is raw / sum(ln range_j)
        rng = np.random.default_rng(47)
        alpha = 0.5
        samples = rng.uniform(0.0, 8.0, size=(30, 2))
        ranges = samples.max(axis=0) - samples.min(axis=0)
        ref = float(np.sum(np.log(ranges)))
        raw = mst_entropy(samples, alpha)
        v = normalized_vector_entropy(samples, alpha)
        assert v.raw == raw
        assert v.normalized == min(max(raw / ref, 0.0), 1.0)

    def test_small_box_with_nonnegative_raw_scores_one(self):
        # a range below 1 gives a negative reference; a large kernel
        # width keeps the QRE estimate non-negative, so the score
        # saturates at 1.  Only a column has a QRE score, and a column is
        # a one-dimensional sample set
        rng = np.random.default_rng(53)
        column = rng.uniform(0.0, 0.5, size=(12, 1))
        (v,) = column_scores(column, EstimatorConfig(kind=QRE), 1.0)
        assert v.raw >= 0.0
        assert v.normalized == 1.0

    def test_small_box_with_negative_raw_uses_inverted_ratio(self):
        rng = np.random.default_rng(59)
        alpha = 0.5
        samples = rng.uniform(0.0, 0.05, size=(20, 1))
        ranges = samples.max(axis=0) - samples.min(axis=0)
        ref = float(np.sum(np.log(ranges)))
        raw = mst_entropy(samples, alpha)
        assert raw < 0.0 and ref < 0.0
        v = normalized_vector_entropy(samples, alpha)
        assert v.normalized == min(max(ref / raw, 0.0), 1.0)
        assert 0.0 <= v.normalized <= 1.0


def vector_score(samples, cfg, sigma):
    """The score of a sample set under cfg.kind: the conftest QRE
    reference of width sigma, or the library's MST score."""
    if cfg.kind == QRE:
        return qre_vector_score(samples, sigma)
    return normalized_vector_entropy(samples, cfg.alpha)


class TestColumnIsOneDimensionalVector:
    """A column's score is the vector score of its samples as (N, 1)."""

    @pytest.mark.parametrize(
        "cfg, sigma",
        [(EstimatorConfig(kind=QRE), s) for s in (0.05, 0.5, 2.0)]
        + [(EstimatorConfig(kind=MST, alpha=a), None) for a in (0.3, 0.5)],
        ids=["qre-0.05", "qre-0.5", "qre-2", "mst-0.3", "mst-0.5"],
    )
    @pytest.mark.parametrize("spread", [0.01, 0.4, 1.0, 2.5, 40.0])
    def test_equals_vector_score(self, cfg, sigma, spread):
        rng = np.random.default_rng(61)
        for n in (2, 7, 40):
            # 0 and 1 among the draws: the spread is exactly `spread`
            unit = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=n - 2)])
            col = rng.permutation(unit) * spread
            got = normalized_column_entropy(col, cfg, sigma)
            want = vector_score(col.reshape(-1, 1), cfg, sigma)
            assert got.raw == want.raw
            assert got.normalized == want.normalized

    @pytest.mark.parametrize("kind", [QRE, MST])
    def test_constant_column_equals_vector_score(self, kind):
        cfg = EstimatorConfig(kind=kind)
        col = np.full(9, 0.375)
        assert normalized_column_entropy(col, cfg, 0.5) == vector_score(
            col.reshape(-1, 1), cfg, 0.5
        )


def bits(v):
    return v.raw.hex(), v.normalized.hex()


@st.composite
def scored_tables(draw):
    """An (N, M) table, an estimator and its Parzen width: real,
    integer-valued or tied cells, some columns constant, spreads from
    0.01 to 300."""
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    style = draw(st.sampled_from(["real", "integer", "ties"]))
    cells = {
        "real": st.floats(0.0, 1.0),
        "integer": st.integers(0, 60).map(float),
        "ties": st.sampled_from([0.0, 0.25, 1.0]),
    }[style]
    table = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m))).reshape(n, m)
    table *= draw(st.sampled_from([0.01, 0.4, 1.0, 7.0, 300.0]))
    if style == "integer":
        table = np.round(table)
    for j in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        table[:, j] = table[0, j]
    if draw(st.booleans()):
        return table, EstimatorConfig(kind=QRE), draw(st.floats(0.01, 5.0))
    return table, EstimatorConfig(kind=MST, alpha=draw(st.floats(0.01, 0.99))), None


def numpy_path():
    """Score columns without the compiled kernels, as where no C
    compiler exists."""
    return mock.patch.object(_dp, "load", lambda: _dp.NUMPY)


class TestColumnScores:
    """`column_scores` scores each column of a table exactly as the
    vector score scores that column alone, with the compiled Parzen
    exponents and with the numpy ones."""

    @settings(max_examples=300, deadline=None)
    @given(scored_tables(), st.booleans())
    def test_equals_vector_score_of_each_column(self, case, compiled):
        table, cfg, sigma = case
        with nullcontext() if compiled else numpy_path():
            got = column_scores(table, cfg, sigma)
        assert len(got) == table.shape[1]
        for j, v in enumerate(got):
            assert bits(v) == bits(vector_score(table[:, j], cfg, sigma))

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    @pytest.mark.parametrize("kind", [QRE, MST])
    @pytest.mark.parametrize(
        "table",
        [
            np.array([[0.0], [3.5]]),
            np.array([[2.0, 2.0], [2.0, 7.0]]),
            np.array([[1.0, 4.0, 4.0], [1.0, 4.0, 9.0], [1.0, 0.0, 4.0], [1.0, 9.0, 0.0]]),
            np.round(np.random.default_rng(71).uniform(0.0, 40.0, size=(98, 5))),
        ],
        ids=["two-samples", "constant-and-pair", "ties", "integer-98"],
    )
    def test_edge_tables(self, kind, table, compiled):
        for sigma in (0.01, 0.5, 5.0):
            cfg = EstimatorConfig(kind=kind)
            with nullcontext() if compiled else numpy_path():
                got = column_scores(table, cfg, sigma)
            want = [vector_score(table[:, j], cfg, sigma) for j in range(table.shape[1])]
            assert list(map(bits, got)) == list(map(bits, want))

    def test_underflowing_terms(self):
        # at sigma 0.01 every pair further apart than about 0.55 has a
        # kernel term of exactly 0
        table = np.random.default_rng(73).uniform(0.0, 300.0, size=(60, 3))
        cfg, sigma = EstimatorConfig(kind=QRE), 0.01
        assert np.exp(-(0.6**2) / (4.0 * sigma**2)) == 0.0
        got = column_scores(table, cfg, sigma)
        for j, v in enumerate(got):
            assert bits(v) == bits(vector_score(table[:, j], cfg, sigma))
            assert math.isfinite(v.raw)

    def test_column_entropy_is_the_one_column_case(self):
        col = np.array([0.5, 3.0, 3.0, 9.25, 1.0])
        for kind in (QRE, MST):
            cfg = EstimatorConfig(kind=kind)
            assert normalized_column_entropy(col, cfg, 0.5) == column_scores(col[:, None], cfg, 0.5)[0]

    def test_no_columns(self):
        assert column_scores(np.empty((4, 0)), EstimatorConfig(), 0.5) == []

    def test_needs_two_samples(self):
        with pytest.raises(OdseError, match="two samples"):
            column_scores(np.ones((1, 3)), EstimatorConfig(), 0.5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
class TestNonFiniteSamples:
    """A non-finite cell is refused: an inf would score nan, which every
    comparison with a threshold reads as false, and a nan would score 0."""

    @pytest.mark.parametrize("kind", [QRE, MST])
    def test_column_scores_refuse(self, bad, kind):
        table = np.arange(12.0).reshape(4, 3)
        table[2, 1] = bad
        with pytest.raises(OdseError, match="finite"):
            column_scores(table, EstimatorConfig(kind=kind), 0.5)

    def test_vector_score_refuses(self, bad):
        samples = np.arange(12.0).reshape(6, 2)
        samples[5, 0] = bad
        with pytest.raises(OdseError, match="finite"):
            normalized_vector_entropy(samples, EstimatorConfig().alpha)
