import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odse._dp import numpy_cost_rows
from odse.alignment import (
    BY_MAX_LENGTH,
    GAP_WEIGHT_MAX,
    RAW,
    AlignmentCostModel,
    SimilarityMatrix,
    alignment_cost_rows,
    build_cost_model,
    dissimilarities_to_targets,
    dissimilarity_table,
    load_similarity_matrix,
    pam120_path,
    parse_similarity_matrix,
)
from odse.embedding import compute_matrix, embed_one
from odse.errors import CostModelError, MatrixFormatError, SymbolError
from odse.sequences import Sequence

from conftest import (
    RESIDUES,
    TOY_MATRIX_TEXT,
    alignment_oracle,
    pair_dissimilarity,
    random_sequences,
    sub_cost,
)


def seq(symbols, sid="q"):
    return Sequence(sid, symbols)


class TestMatrixParsing:
    def test_toy_matrix_shape_and_scores(self, toy_sim):
        assert toy_sim.alphabet == ("A", "R", "N", "D")
        assert toy_sim.scores[0, 0] == 4
        assert toy_sim.scores[0, 3] == 2
        assert toy_sim.scores[3, 0] == 2

    def test_comment_and_blank_lines_skipped(self):
        m = parse_similarity_matrix("# c\n\n A R\nA 2 0\n# mid\nR 0 2\n")
        assert m.alphabet == ("A", "R")

    def test_multichar_header_symbol_rejected(self):
        with pytest.raises(MatrixFormatError, match="not a single character"):
            parse_similarity_matrix(" AB R\nAB 1 0\nR 0 1\n")

    def test_duplicate_header_symbol_rejected(self):
        with pytest.raises(MatrixFormatError, match="duplicate header"):
            parse_similarity_matrix(" A A\nA 1 1\n")

    def test_unknown_row_symbol_rejected(self):
        err = None
        with pytest.raises(MatrixFormatError, match="unknown row symbol") as err:
            parse_similarity_matrix(" A R\nA 2 0\nQ 0 2\n")
        assert err.value.line == 3

    def test_duplicate_row_rejected(self):
        with pytest.raises(MatrixFormatError, match="duplicate row"):
            parse_similarity_matrix(" A R\nA 2 0\nA 2 0\nR 0 2\n")

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(MatrixFormatError, match="expected 2"):
            parse_similarity_matrix(" A R\nA 2 0 1\nR 0 2\n")

    def test_non_integer_entry_rejected(self):
        exc = None
        with pytest.raises(MatrixFormatError) as exc:
            parse_similarity_matrix(" A R\nA 2 x\nR 0 2\n")
        assert exc.value.line == 2

    def test_missing_row_rejected(self):
        with pytest.raises(MatrixFormatError, match="not square"):
            parse_similarity_matrix(" A R\nA 2 0\n")

    def test_empty_text_rejected(self):
        with pytest.raises(MatrixFormatError, match="no header row"):
            parse_similarity_matrix("# only comments\n")

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(MatrixFormatError, match="asymmetric"):
            parse_similarity_matrix(" A R\nA 2 1\nR 0 2\n")

    def test_empty_alphabet_rejected(self):
        # the parser refuses a file without a header row first; a matrix
        # built in Python meets the same rule
        with pytest.raises(MatrixFormatError, match="empty alphabet"):
            SimilarityMatrix((), np.zeros((0, 0), dtype=np.int64))

    def test_table_of_another_size_rejected(self):
        with pytest.raises(MatrixFormatError, match=r"score table is \(3, 3\), expected \(2, 2\)"):
            SimilarityMatrix(("A", "B"), np.zeros((3, 3), dtype=np.int64))


class TestCostModel:
    def test_toy_costs_are_exact(self, toy_cm):
        # numerators over max 4: AR 4, AN 3, AD 2, RN/RD/ND 1
        assert sub_cost(toy_cm, "A", "R") == 1.0
        assert sub_cost(toy_cm, "A", "N") == 0.75
        assert sub_cost(toy_cm, "A", "D") == 0.5
        assert sub_cost(toy_cm, "R", "N") == 0.25
        assert sub_cost(toy_cm, "R", "D") == 0.25
        assert sub_cost(toy_cm, "N", "D") == 0.25
        for a in toy_cm.alphabet:
            assert sub_cost(toy_cm, a, a) == 0.0

    def test_toy_gap_cost(self, toy_sim, toy_cm):
        # mean off-diagonal cost = 2*(1+0.75+0.5+0.25*3)/12 = 0.5
        assert toy_cm.gap_cost == 0.5
        assert build_cost_model(toy_sim, gap_weight=2.0).gap_cost == 1.0
        assert build_cost_model(toy_sim, gap_weight=0.5).gap_cost == 0.25

    def test_gap_weight_bounds(self, toy_sim):
        with pytest.raises(CostModelError, match="gap_weight"):
            build_cost_model(toy_sim, gap_weight=0.0)
        with pytest.raises(CostModelError, match="gap_weight"):
            build_cost_model(toy_sim, gap_weight=4.5)
        build_cost_model(toy_sim, gap_weight=4.0)  # boundary allowed

    def test_unknown_normalization_rejected(self, toy_sim):
        with pytest.raises(CostModelError, match="normalization"):
            build_cost_model(toy_sim, normalization="per-residue")

    def test_non_dominant_matrix_rejected(self):
        # S(A,R) exceeds both self-similarities: negative cost numerator
        m = parse_similarity_matrix(" A R\nA 1 3\nR 3 1\n")
        with pytest.raises(CostModelError, match="not diagonally dominant"):
            build_cost_model(m)

    def test_empty_alphabet_rejected(self):
        with pytest.raises(CostModelError, match="empty alphabet"):
            AlignmentCostModel(alphabet=(), sub_cost=np.zeros((0, 0)), gap_cost=1.0)

    def test_constant_matrix_rejected(self):
        m = parse_similarity_matrix(" A R\nA 2 2\nR 2 2\n")
        with pytest.raises(CostModelError, match="all costs are zero"):
            build_cost_model(m)

    def test_pam120_costs_well_formed(self):
        cm = build_cost_model(load_similarity_matrix(pam120_path()))
        c = cm.sub_cost
        assert len(cm.alphabet) == 24
        assert np.array_equal(c, c.T)
        assert np.all(np.diagonal(c) == 0.0)
        assert c.min() >= 0.0
        assert c.max() == 1.0  # the normalizer is attained
        assert cm.gap_cost > 0.0

    def test_foreign_symbol_reported_with_position(self, toy_cm):
        with pytest.raises(SymbolError) as exc:
            pair_dissimilarity(seq("ARQ", "bad"), seq("A", "t"), toy_cm)
        assert exc.value.sequence_id == "bad"
        assert exc.value.position == 2
        assert exc.value.symbol == "Q"


class TestLevenshtein:
    def test_identical_sequences_cost_zero(self, toy_cm):
        rng = np.random.default_rng(7)
        for s in random_sequences(rng, 10, lo=0, hi=9):
            assert pair_dissimilarity(s, s, toy_cm) == 0.0

    def test_empty_versus_nonempty_is_gap_times_length(self, toy_cm):
        assert pair_dissimilarity(seq(""), seq("ARND", "t"), toy_cm) == 4 * 0.5
        assert pair_dissimilarity(seq("ARN"), seq("", "t"), toy_cm) == 3 * 0.5
        assert pair_dissimilarity(seq(""), seq("", "t"), toy_cm) == 0.0

    def test_single_substitution(self, toy_cm):
        assert pair_dissimilarity(seq("AR"), seq("AN", "t"), toy_cm) == 0.25

    def test_substitution_beats_double_gap_when_cheaper(self, toy_cm):
        # c(A,R)=1.0 equals two gaps; DP takes the minimum either way
        assert pair_dissimilarity(seq("A"), seq("R", "t"), toy_cm) == 1.0
        # c(A,D)=0.5 < 1.0, must substitute
        assert pair_dissimilarity(seq("A"), seq("D", "t"), toy_cm) == 0.5

    def test_matches_edit_script_oracle_exactly(self, toy_cm):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a, b = random_sequences(rng, 2, lo=0, hi=4)
            assert pair_dissimilarity(a, b, toy_cm) == alignment_oracle(a, b, toy_cm)

    def test_symmetry_exact_on_dyadic_costs(self, toy_cm):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a, b = random_sequences(rng, 2, lo=0, hi=8)
            assert pair_dissimilarity(a, b, toy_cm) == pair_dissimilarity(b, a, toy_cm)

    def test_symmetry_close_on_pam120(self):
        cm = build_cost_model(load_similarity_matrix(pam120_path()))
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b = random_sequences(rng, 2, lo=0, hi=12, alphabet="ARNDCQEGHILK")
            assert pair_dissimilarity(a, b, cm) == pytest.approx(
                pair_dissimilarity(b, a, cm), abs=1e-12
            )

    def test_triangle_inequality_on_toy_metric(self, toy_cm):
        rng = np.random.default_rng(19)
        for _ in range(60):
            a, b, c = random_sequences(rng, 3, lo=0, hi=6)
            dab = pair_dissimilarity(a, b, toy_cm)
            dbc = pair_dissimilarity(b, c, toy_cm)
            dac = pair_dissimilarity(a, c, toy_cm)
            assert dac <= dab + dbc + 1e-12

    def test_nonnegative_random(self, toy_cm):
        rng = np.random.default_rng(23)
        for _ in range(30):
            a, b = random_sequences(rng, 2, lo=0, hi=8)
            assert pair_dissimilarity(a, b, toy_cm) >= 0.0


SIMILARITY_TABLES = (
    parse_similarity_matrix(TOY_MATRIX_TEXT),
    load_similarity_matrix(pam120_path()),
)


@st.composite
def dp_pairs(draw):
    """A cost model (toy or PAM120, any gap weight, either
    normalization) and two sequences over its alphabet."""
    sim = draw(st.sampled_from(SIMILARITY_TABLES))
    cm = build_cost_model(
        sim,
        gap_weight=draw(st.floats(1e-3, GAP_WEIGHT_MAX)),
        normalization=draw(st.sampled_from((RAW, BY_MAX_LENGTH))),
    )
    words = st.text(alphabet=sim.alphabet, max_size=40)
    return cm, seq(draw(words), "a"), seq(draw(words), "b")


class TestDpProperties:
    @settings(max_examples=200, deadline=None)
    @given(dp_pairs())
    def test_zero_on_identity(self, case):
        cm, a, _ = case
        assert pair_dissimilarity(a, a, cm) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(dp_pairs())
    def test_gap_times_length_bounds(self, case):
        # at least | |a| - |b| | gaps and at most every symbol gapped; the
        # DP adds its gaps one at a time, so the bounds hold to rounding
        cm, a, b = case
        scale = max(len(a), len(b), 1) if cm.normalization == BY_MAX_LENGTH else 1
        lo = cm.gap_cost * abs(len(a) - len(b)) / scale
        hi = cm.gap_cost * (len(a) + len(b)) / scale
        d = pair_dissimilarity(a, b, cm)
        assert lo - 1e-12 * max(1.0, lo) <= d <= hi + 1e-12 * max(1.0, hi)

    @settings(max_examples=200, deadline=None)
    @given(dp_pairs())
    def test_symmetric_to_rounding(self, case):
        # the prefix-min recurrence rounds through c - j*gap, so the
        # transposed alignment can differ in the last bits
        cm, a, b = case
        d = pair_dissimilarity(a, b, cm)
        assert abs(d - pair_dissimilarity(b, a, cm)) <= 1e-12 * max(1.0, d)


class TestBatch:
    @pytest.mark.parametrize("part", ["lengths", "cost-table"])
    def test_batch_that_does_not_fit_rejected(self, part, toy_cm):
        mat, lens, sub = np.zeros((2, 3), dtype=np.intp), np.array([3, 1]), toy_cm.sub_cost
        if part == "lengths":
            lens = np.array([3, 1, 2])
        else:
            sub = sub[:, :-1]
        with pytest.raises(ValueError, match="cost table or target lengths do not match the batch"):
            alignment_cost_rows(np.array([0, 1]), mat, lens, sub, toy_cm.gap_cost)

    def test_batch_equals_scalar_calls(self, toy_cm):
        rng = np.random.default_rng(29)
        targets = random_sequences(rng, 12, lo=0, hi=9, prefix="t")
        query = random_sequences(rng, 1, lo=3, hi=7, prefix="q")[0]
        batch = dissimilarities_to_targets(query, targets, toy_cm)
        for j, t in enumerate(targets):
            assert batch[j] == pair_dissimilarity(query, t, toy_cm)

    def test_batch_equals_scalar_calls_pam120(self):
        cm = build_cost_model(load_similarity_matrix(pam120_path()))
        rng = np.random.default_rng(31)
        targets = random_sequences(rng, 8, lo=1, hi=15, alphabet="ACDEFGHIKL")
        query = Sequence("q", "ACDKLH")
        batch = dissimilarities_to_targets(query, targets, cm)
        for j, t in enumerate(targets):
            assert batch[j] == pair_dissimilarity(query, t, cm)

    def test_padding_never_leaks_between_targets(self, toy_cm):
        # mixing very long and very short targets in one batch must give
        # the same numbers as singleton batches
        targets = [
            Sequence("long", "ARNDARNDARND"),
            Sequence("short", "D"),
            Sequence("empty", ""),
        ]
        query = seq("RNA")
        batch = dissimilarities_to_targets(query, targets, toy_cm)
        singles = [pair_dissimilarity(query, t, toy_cm) for t in targets]
        assert list(batch) == singles


def per_row_reference(queries, targets, cm):
    """The table from one `numpy_cost_rows` call per query on a batch
    padded here, each cell divided by the longer length (0 when both are
    empty) under by-max-length."""
    codes = [cm.encode(t) for t in targets]
    lens = np.array([len(c) for c in codes], dtype=np.intp)
    mat = np.zeros((len(codes), max(lens, default=0) + 2), dtype=np.intp)
    for j, c in enumerate(codes):
        mat[j, : len(c)] = c
    out = np.empty((len(queries), len(targets)))
    for i, q in enumerate(queries):
        out[i] = numpy_cost_rows(cm.encode(q), mat, lens, cm.sub_cost, cm.gap_cost)
        if cm.normalization == BY_MAX_LENGTH:
            for j, t in enumerate(targets):
                longer = max(len(q), len(t))
                out[i, j] = out[i, j] / longer if longer else 0.0
    return out


class TestDissimilarityTable:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("normalization", [RAW, BY_MAX_LENGTH])
    @pytest.mark.parametrize("table", ["toy", "pam120"])
    def test_equals_per_row_numpy_reference(self, table, normalization, threads, toy_sim):
        sim, alphabet = (toy_sim, "ARND") if table == "toy" else (
            load_similarity_matrix(pam120_path()), RESIDUES
        )
        rng = np.random.default_rng(43)
        empty = [Sequence("e", "")]
        queries = empty + random_sequences(rng, 9, lo=0, hi=30, alphabet=alphabet, prefix="q")
        targets = random_sequences(rng, 7, lo=0, hi=30, alphabet=alphabet, prefix="t") + empty
        cm = build_cost_model(sim, gap_weight=0.7, normalization=normalization)
        got = dissimilarity_table(queries, targets, cm, threads)
        assert got.shape == (10, 8)
        assert np.array_equal(got, per_row_reference(queries, targets, cm))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("normalization", [RAW, BY_MAX_LENGTH])
    def test_columns_keep_the_callers_order(self, normalization, threads):
        # dissimilarity_table orders targets by length for the kernel's lanes and
        # writes every cell back under its caller's column
        cm = build_cost_model(
            load_similarity_matrix(pam120_path()), gap_weight=1.3, normalization=normalization
        )
        rng = np.random.default_rng(59)
        lengths = (17, 3, 40, 0, 9, 3, 28, 1, 12, 35, 3)
        targets = [
            Sequence(f"t{j}", "".join(rng.choice(list(RESIDUES), size=n)))
            for j, n in enumerate(lengths)
        ]
        queries = random_sequences(rng, 5, lo=0, hi=30, alphabet=RESIDUES, prefix="q")
        table = dissimilarity_table(queries, targets, cm, threads)
        pairs = np.array([[pair_dissimilarity(q, t, cm) for t in targets] for q in queries])
        assert np.array_equal(table, pairs)
        perm = rng.permutation(len(targets))
        permuted = dissimilarity_table(queries, [targets[k] for k in perm], cm, threads)
        assert np.array_equal(permuted, table[:, perm])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_zero_targets_or_queries(self, threads, toy_cm):
        seqs = random_sequences(np.random.default_rng(47), 5)
        assert dissimilarity_table(seqs, [], toy_cm, threads).shape == (5, 0)
        assert dissimilarity_table([], seqs, toy_cm, threads).shape == (0, 5)

    @pytest.mark.parametrize("normalization", [RAW, BY_MAX_LENGTH])
    def test_every_view_returns_the_table_cells(self, normalization, toy_sim):
        cm = build_cost_model(toy_sim, normalization=normalization)
        seqs = random_sequences(np.random.default_rng(53), 8, lo=0, hi=9)
        protos = seqs[3:]
        table = dissimilarity_table(seqs, protos, cm)
        assert np.array_equal(compute_matrix(seqs, protos, cm).values, table)
        for s, row in zip(seqs, table):
            assert np.array_equal(dissimilarities_to_targets(s, protos, cm), row)
            assert np.array_equal(embed_one(s, protos, cm), row)
            assert [pair_dissimilarity(s, t, cm) for t in protos] == row.tolist()


class TestNormalization:
    def test_by_max_length_divides_raw(self, toy_sim):
        raw_cm = build_cost_model(toy_sim)
        norm_cm = build_cost_model(toy_sim, normalization=BY_MAX_LENGTH)
        rng = np.random.default_rng(37)
        for _ in range(30):
            a, b = random_sequences(rng, 2, lo=0, hi=8)
            raw = pair_dissimilarity(a, b, raw_cm)
            expected = raw / max(len(a), len(b)) if max(len(a), len(b)) else 0.0
            assert pair_dissimilarity(a, b, norm_cm) == expected

    def test_by_max_length_bounded_when_costs_allow(self, toy_sim):
        # max substitution cost 1 and gap 0.5 bound the per-column cost by 1
        norm_cm = build_cost_model(toy_sim, normalization=BY_MAX_LENGTH)
        rng = np.random.default_rng(41)
        for _ in range(30):
            a, b = random_sequences(rng, 2, lo=1, hi=8)
            assert pair_dissimilarity(a, b, norm_cm) <= 1.0 + 1e-12

    def test_both_empty_normalized_zero(self, toy_sim):
        norm_cm = build_cost_model(toy_sim, normalization=BY_MAX_LENGTH)
        assert pair_dissimilarity(seq(""), seq("", "t"), norm_cm) == 0.0


def test_cost_model_validation_catches_bad_tables(toy_cm):
    good = toy_cm.sub_cost.copy()
    with pytest.raises(CostModelError, match="diagonal"):
        bad = good.copy()
        bad[0, 0] = 0.1
        AlignmentCostModel(toy_cm.alphabet, bad, 0.5)
    with pytest.raises(CostModelError, match=r"\[0, 1\]"):
        bad = good.copy()
        bad[0, 1] = 1.5
        bad[1, 0] = 1.5
        AlignmentCostModel(toy_cm.alphabet, bad, 0.5)
    with pytest.raises(CostModelError, match="symmetric"):
        bad = good.copy()
        bad[0, 1] = 0.3
        AlignmentCostModel(toy_cm.alphabet, bad, 0.5)
    for gap in (-0.1, np.nextafter(GAP_WEIGHT_MAX, np.inf), 1e308, np.inf, np.nan):
        with pytest.raises(CostModelError, match="gap"):
            AlignmentCostModel(toy_cm.alphabet, good, gap)
    assert AlignmentCostModel(toy_cm.alphabet, good, GAP_WEIGHT_MAX).gap_cost == GAP_WEIGHT_MAX
    assert math.isfinite(toy_cm.gap_cost)


@pytest.mark.parametrize(
    "alphabet, message",
    [
        (("A", "R", "N", "A"), "got 'A'$"),
        (("A", "RN", "N", "D"), "got 'RN'$"),
        (("A", "", "N", "D"), "got ''$"),
        (("A", 1, "N", "D"), "distinct characters, got 1$"),
    ],
    ids=["repeated", "two-characters", "empty", "not-text"],
)
def test_cost_model_alphabet_symbols_must_be_unique_characters(alphabet, message, toy_cm):
    # a repeated symbol would silently align with its last place's costs
    with pytest.raises(CostModelError, match=message):
        AlignmentCostModel(alphabet, toy_cm.sub_cost, toy_cm.gap_cost)
