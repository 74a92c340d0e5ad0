import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odse.classifiers import (
    KnnConfig,
    SvmConfig,
    TrainedSvm,
    knn_label_from_distances,
    svm_predict,
)
from odse.embedding import (
    EXPANSION_MEDOID,
    INITIAL,
    DissimilarityMatrix,
    RepresentationSet,
    compute_matrix,
)
from odse.entropy import MST, QRE, EstimatorConfig, normalized_column_entropy
from odse.errors import OdseError, SynthesisError, TrainingError
from odse.alignment import BY_MAX_LENGTH, build_cost_model, dissimilarity_table
from odse.model import (
    FitnessWeights,
    GaConfig,
    GenerationStat,
    KnnInner,
    OdseGenome,
    SvmInner,
    OdseModel,
    _crossover,
    _select_index,
    classify_all,
    compress,
    expand,
    ga_optimize,
    model_from_json,
    model_to_json,
    load_model,
    repair_genome,
    save_model,
    synthesize_instance,
    train_inner,
)
import odse.model
from odse.sequences import Sequence

from conftest import pair_dissimilarity, random_sequences

MST_EST = EstimatorConfig(kind=MST, alpha=0.5)


def genome(sigma=0.5, tau_c=0.0, tau_e=1.0, gap_weight=1.0):
    return OdseGenome(sigma=sigma, tau_c=tau_c, tau_e=tau_e, gap_weight=gap_weight)


def labeled(seqs, labels):
    return list(zip(seqs, labels))


def separable_data():
    """Two tight clusters: A-rich class 0, D-rich class 1."""
    base0, base1 = "AAAAAA", "DDDDDD"
    train, val = [], []
    for i in range(4):
        s0 = base0[:i] + "R" + base0[i + 1 :]
        s1 = base1[:i] + "N" + base1[i + 1 :]
        train.append((Sequence(f"t0_{i}", s0), 0))
        train.append((Sequence(f"t1_{i}", s1), 1))
    for i in range(4, 6):
        s0 = base0[:i] + "R" + base0[i + 1 :]
        s1 = base1[:i] + "N" + base1[i + 1 :]
        val.append((Sequence(f"v0_{i}", s0), 0))
        val.append((Sequence(f"v1_{i}", s1), 1))
    return train, val


class TestGenome:
    def test_valid_genome(self):
        g = genome(sigma=1.0, tau_c=0.2, tau_e=0.8, gap_weight=2.0)
        assert list(g.as_vector()) == [1.0, 0.2, 0.8, 2.0]

    def test_bounds_checked(self):
        with pytest.raises(OdseError, match="sigma"):
            genome(sigma=0.001)
        with pytest.raises(OdseError, match="sigma"):
            genome(sigma=6.0)
        with pytest.raises(OdseError, match="thresholds"):
            genome(tau_c=-0.1)
        with pytest.raises(OdseError, match="thresholds"):
            genome(tau_e=1.1)
        with pytest.raises(OdseError, match="tau_c"):
            genome(tau_c=0.8, tau_e=0.2)
        with pytest.raises(OdseError, match="gap_weight"):
            genome(gap_weight=0.0)
        with pytest.raises(OdseError, match="gap_weight"):
            genome(gap_weight=5.0)

    def test_repair_clamps_and_swaps(self):
        g = repair_genome(99.0, 0.9, 0.1, -3.0)
        assert g.sigma == 5.0
        assert (g.tau_c, g.tau_e) == (0.1, 0.9)
        assert g.gap_weight == 1e-3
        g2 = repair_genome(0.5, 1.7, 2.4, 10.0)
        assert (g2.tau_c, g2.tau_e) == (1.0, 1.0)
        assert g2.gap_weight == 4.0

    def test_repair_keeps_valid_genome(self):
        g = repair_genome(0.7, 0.3, 0.6, 1.5)
        assert (g.sigma, g.tau_c, g.tau_e, g.gap_weight) == (0.7, 0.3, 0.6, 1.5)


class TestCrossover:
    class _CutsRng:
        def __init__(self, cuts):
            self._cuts = np.array(cuts)

        def choice(self, arr, size=None, replace=True, p=None):
            return self._cuts

    def test_two_point_mixing_at_cuts_1_and_3(self):
        a = genome(sigma=0.5, tau_c=0.2, tau_e=0.6, gap_weight=1.0)
        b = genome(sigma=1.5, tau_c=0.3, tau_e=0.8, gap_weight=2.0)
        c1, c2 = _crossover(a, b, self._CutsRng([1, 3]))
        assert (c1.sigma, c1.tau_c, c1.tau_e, c1.gap_weight) == (0.5, 0.3, 0.8, 1.0)
        assert (c2.sigma, c2.tau_c, c2.tau_e, c2.gap_weight) == (1.5, 0.2, 0.6, 2.0)

    def test_children_always_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = repair_genome(*rng.uniform([0.01, 0, 0, 1e-3], [5, 1, 1, 4]))
            b = repair_genome(*rng.uniform([0.01, 0, 0, 1e-3], [5, 1, 1, 4]))
            c1, c2 = _crossover(a, b, rng)
            assert c1.tau_c <= c1.tau_e
            assert c2.tau_c <= c2.tau_e


class TestFitnessWeights:
    def test_default_sums_to_one(self):
        fw = FitnessWeights()
        assert (fw.w_acc, fw.w_card, fw.w_ent) == (0.8, 0.1, 0.1)

    def test_validation(self):
        with pytest.raises(OdseError, match="sum to 1"):
            FitnessWeights(0.5, 0.1, 0.1)
        with pytest.raises(OdseError, match="nonnegative"):
            FitnessWeights(1.2, -0.1, -0.1)
        with pytest.raises(OdseError, match="nonnegative"):
            FitnessWeights(float("nan"), 0.1, 0.1)


class TestGaConfig:
    def test_validation(self):
        with pytest.raises(OdseError, match="population_size"):
            GaConfig(population_size=3)
        with pytest.raises(OdseError, match="population_size"):
            GaConfig(population_size=5)
        with pytest.raises(OdseError, match="crossover_prob"):
            GaConfig(crossover_prob=1.5)
        with pytest.raises(OdseError, match="mutation_prob"):
            GaConfig(mutation_prob=-0.1)
        with pytest.raises(OdseError, match="max_generations"):
            GaConfig(max_generations=0)
        with pytest.raises(OdseError, match="stall_epsilon"):
            GaConfig(stall_epsilon=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("population_size", 4.0),
            ("population_size", True),
            ("max_generations", 2.5),
            ("max_generations", True),
            ("rng_seed", 1.5),
            ("stall_epsilon", float("inf")),
            ("stall_epsilon", float("nan")),
        ],
    )
    def test_counts_are_integers_and_tolerance_finite(self, field, value):
        # each of these once failed inside ga_optimize with a TypeError,
        # ran max_generations=True as one generation, or let the stall
        # rule fire at every check
        with pytest.raises(OdseError, match=f"^{field} must be"):
            GaConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(OdseError, match="rng_seed"):
            GaConfig(rng_seed=-3)


def column_scores(columns):
    """Normalized MST entropy of each crafted dissimilarity column."""
    return [normalized_column_entropy(c, MST_EST).normalized for c in columns]


def test_by_max_length_columns_score_in_between(toy_sim):
    # every column of a by-max-length table spreads less than 1; the
    # scores still vary with the column instead of saturating at 0 or 1
    seqs = random_sequences(np.random.default_rng(67), 24, lo=4, hi=12)
    cm = build_cost_model(toy_sim, normalization=BY_MAX_LENGTH)
    d0 = compute_matrix(seqs, seqs, cm).values
    assert float(np.ptp(d0, axis=0).max()) < 1.0
    scores = [normalized_column_entropy(d0[:, j], MST_EST).normalized for j in range(len(seqs))]
    assert len(set(scores)) > 2
    assert all(0.0 <= v <= 1.0 for v in scores)


class TestCompress:
    def test_threshold_semantics_drop_at_or_below(self):
        rng = np.random.default_rng(11)
        n = 40
        const = np.full(n, 5.0)
        tight = np.concatenate([np.linspace(0.0, 1e-4, n - 1), [100.0]])
        wide = rng.uniform(0.0, 10.0, size=n)
        scores = column_scores([const, tight, wide])
        s_tight, s_wide = scores[1], scores[2]
        assert 0.0 < s_tight < s_wide

        # tau equal to the middle score: boundary column is dropped too
        assert compress(scores, s_tight) == (2,)

        # tau just below: boundary column survives
        assert compress(scores, s_tight * 0.999999) == (1, 2)

    def test_constant_column_dropped_even_at_tau_zero(self):
        rng = np.random.default_rng(13)
        n = 30
        const = np.full(n, 2.0)
        wide = rng.uniform(0.0, 8.0, size=n)
        assert compress(column_scores([const, wide]), 0.0) == (1,)

    def test_nothing_dropped_when_all_informative(self):
        rng = np.random.default_rng(17)
        n = 30
        cols = [rng.uniform(0.0, 9.0, size=n) for _ in range(3)]
        assert compress(column_scores(cols), 0.0) == (0, 1, 2)

    def test_all_dropped_keeps_single_best(self):
        rng = np.random.default_rng(19)
        n = 30
        const = np.full(n, 1.0)
        wide = rng.uniform(0.0, 9.0, size=n)
        assert compress(column_scores([const, wide]), 1.0) == (1,)

    def test_argmax_fallback_ties_to_lowest_index(self):
        rng = np.random.default_rng(23)
        n = 30
        wide = rng.uniform(0.0, 9.0, size=n)
        const = np.full(n, 1.0)
        assert compress(column_scores([const, wide, wide.copy()]), 1.0) == (1,)


class TestExpand:
    """Columns index the training set; scores are crafted per column."""

    def make_train(self, rng, n_per_class=5):
        seqs0 = random_sequences(rng, n_per_class, lo=4, hi=8, prefix="a")
        seqs1 = random_sequences(rng, n_per_class, lo=4, hi=8, prefix="b")
        return labeled(seqs0, [0] * n_per_class) + labeled(seqs1, [1] * n_per_class)

    def medoid_oracle(self, train, label, toy_cm):
        """Training-set index of the class medoid, from direct alignments."""
        members = [i for i, (_, lab) in enumerate(train) if lab == label]
        sums = [
            sum(pair_dissimilarity(train[i][0], train[j][0], toy_cm) for j in members)
            for i in members
        ]
        best = min(range(len(members)), key=lambda k: (sums[k], k))
        return members[best]

    def table(self, train, toy_cm):
        seqs = [s for s, _ in train]
        return compute_matrix(seqs, seqs, toy_cm).values

    def labels(self, train):
        return [lab for _, lab in train]

    def test_unchanged_when_no_column_reaches_tau(self, toy_cm):
        rng = np.random.default_rng(29)
        train = self.make_train(rng)
        scores = [0.0] * len(train)
        scores[2], scores[6] = column_scores(
            [rng.uniform(0.0, 9.0, size=30) for _ in range(2)]
        )
        out = expand(scores, (2, 6), 1.0, self.labels(train), self.table(train, toy_cm))
        assert out == ((2, 6), (INITIAL, INITIAL))

    def test_removed_columns_replaced_by_class_medoids(self, toy_cm):
        rng = np.random.default_rng(31)
        train = self.make_train(rng)
        n = 30
        wide = rng.uniform(0.0, 9.0, size=n)  # scores high: removed
        tight = np.concatenate([np.linspace(0.0, 1e-4, n - 1), [50.0]])
        s_wide, s_tight = column_scores([wide, tight])
        assert s_tight < s_wide
        medoids = [self.medoid_oracle(train, lab, toy_cm) for lab in (0, 1)]
        removed, survivor = [j for j in range(len(train)) if j not in medoids][:2]
        scores = [0.0] * len(train)
        scores[removed], scores[survivor] = s_wide, s_tight

        columns, provenance = expand(
            scores, (removed, survivor), s_wide, self.labels(train),
            self.table(train, toy_cm),
        )
        # survivor first, then one medoid per class in label order
        assert columns == (survivor, *medoids)
        assert provenance == (INITIAL, EXPANSION_MEDOID, EXPANSION_MEDOID)

    def test_medoid_already_surviving_not_duplicated(self, toy_cm):
        rng = np.random.default_rng(37)
        train = self.make_train(rng)
        med0, med1 = (self.medoid_oracle(train, lab, toy_cm) for lab in (0, 1))
        other = next(j for j in range(len(train)) if j not in (med0, med1))

        n = 30
        tight = np.concatenate([np.linspace(0.0, 1e-4, n - 1), [50.0]])
        wide = rng.uniform(0.0, 9.0, size=n)
        s_tight, s_wide = column_scores([tight, wide])
        scores = [0.0] * len(train)
        scores[med0], scores[other] = s_tight, s_wide
        columns, provenance = expand(
            scores, (med0, other), s_wide, self.labels(train),
            self.table(train, toy_cm),
        )
        assert columns.count(med0) == 1
        assert columns[0] == med0 and provenance[0] == INITIAL
        # class 1 medoid still appended
        assert columns[1:] == (med1,)
        assert provenance[1:] == (EXPANSION_MEDOID,)

    def test_pairwise_shortcut_matches_direct_computation(self, toy_cm):
        rng = np.random.default_rng(41)
        train = self.make_train(rng, n_per_class=6)
        full = self.table(train, toy_cm)

        scores = [0.0] * len(train)
        scores[3] = column_scores([rng.uniform(0.0, 9.0, size=30)])[0]
        columns, provenance = expand(scores, (3,), 0.0, self.labels(train), full)
        # medoids read off the table equal the ones from pairwise alignments
        assert columns == tuple(self.medoid_oracle(train, lab, toy_cm) for lab in (0, 1))
        assert provenance == (EXPANSION_MEDOID, EXPANSION_MEDOID)

    def test_empty_train_rejected(self):
        with pytest.raises(SynthesisError, match="non-empty"):
            expand([0.5], (0,), 0.5, [], np.zeros((0, 0)))

    def test_table_must_cover_the_training_set(self, toy_cm):
        rng = np.random.default_rng(43)
        train = self.make_train(rng)
        with pytest.raises(SynthesisError, match="train-by-train"):
            expand(
                [0.5] * len(train), (0,), 0.5, self.labels(train),
                self.table(train[1:], toy_cm),
            )


def oracle_synthesis(g, train, sim, est):
    """Prototype set and embedded training matrix of the former two-pass,
    id-based synthesis: compress scores every column of the train x train
    table and returns a reduced set, expand re-scores the surviving
    columns, adds medoid sequences by id, and the final columns are
    looked up by prototype id."""
    from odse.alignment import build_cost_model

    cm = build_cost_model(sim, gap_weight=g.gap_weight)
    train_seqs = [s for s, _ in train]
    r0 = RepresentationSet(tuple(train_seqs), (INITIAL,) * len(train_seqs))
    d0 = compute_matrix(train_seqs, train_seqs, cm)

    def score(d, j):
        return normalized_column_entropy(d.values[:, j], est, g.sigma).normalized

    # compress
    scores = np.array([score(d0, j) for j in range(len(r0))])
    kept = [j for j in range(len(r0)) if scores[j] > g.tau_c]
    if not kept:
        kept = [int(np.argmax(scores))]
    rc = RepresentationSet(
        tuple(r0.prototypes[j] for j in kept), tuple(r0.provenance[j] for j in kept)
    )
    dc = DissimilarityMatrix(d0.values[:, kept], d0.row_ids, rc.ids)

    # expand
    removed = np.array([score(dc, j) for j in range(len(rc))]) >= g.tau_e
    r1 = rc
    if removed.any():
        protos = [p for j, p in enumerate(rc.prototypes) if not removed[j]]
        tags = [t for j, t in enumerate(rc.provenance) if not removed[j]]
        present = {p.id for p in protos}
        by_class = {}
        for i, (_, label) in enumerate(train):
            by_class.setdefault(int(label), []).append(i)
        for label in sorted(by_class):
            idx = by_class[label]
            sums = d0.values[np.ix_(idx, idx)].sum(axis=0)
            medoid = train[idx[int(np.argmin(sums))]][0]
            if medoid.id in present:
                continue
            present.add(medoid.id)
            protos.append(medoid)
            tags.append(EXPANSION_MEDOID)
        r1 = RepresentationSet(tuple(protos), tuple(tags))

    col_of = {pid: j for j, pid in enumerate(r0.ids)}
    return r1, d0.values[:, [col_of[pid] for pid in r1.ids]]


class TestColumnSelection:
    """Synthesis selects columns of one train x train table."""

    def corpus(self):
        rng = np.random.default_rng(59)
        seqs = random_sequences(rng, 30, lo=2, hi=14)
        train = labeled(seqs[:22], [i % 3 % 2 for i in range(22)])
        val = labeled(seqs[22:], [i % 2 for i in range(8)])
        return train, val

    def genomes(self, count, seed):
        rng = np.random.default_rng(seed)
        return [
            repair_genome(
                rng.uniform(0.01, 2.0), rng.uniform(), rng.uniform(),
                rng.uniform(1e-3, 4.0),
            )
            for _ in range(count)
        ]

    @pytest.mark.parametrize("est", [EstimatorConfig(), MST_EST], ids=["QRE", "MST"])
    def test_matches_two_pass_id_based_oracle(self, est, toy_sim):
        train, val = self.corpus()
        compressed = expanded = 0
        for g in self.genomes(24, seed=61):
            model, _ = synthesize_instance(
                g, train, val, toy_sim, KnnConfig(k=1), FitnessWeights(), est
            )
            want_r, want_d = oracle_synthesis(g, train, toy_sim, est)
            assert model.representation.ids == want_r.ids, g
            assert model.representation.provenance == want_r.provenance, g
            assert model.inner.vectors.tobytes() == want_d.tobytes(), g
            compressed += INITIAL in want_r.provenance and len(want_r) < len(train)
            expanded += EXPANSION_MEDOID in want_r.provenance
        # the genomes exercise both transformations
        assert compressed > 0 and expanded > 0

    def test_each_column_scored_once_per_genome(self, toy_sim, monkeypatch):
        import odse.model

        calls = []
        scorer = odse.model.column_scores

        def counting(table, cfg, sigma):
            n, m = table.shape
            calls.extend([n] * m)
            return scorer(table, cfg, sigma)

        monkeypatch.setattr(odse.model, "column_scores", counting)
        train, val = self.corpus()
        genomes = self.genomes(8, seed=67)
        provenance = set()
        for g in genomes:
            model, _ = synthesize_instance(
                g, train, val, toy_sim, KnnConfig(k=1), FitnessWeights(),
                EstimatorConfig(),
            )
            provenance.update(model.representation.provenance)
        assert provenance == {INITIAL, EXPANSION_MEDOID}
        assert calls == [len(train)] * (len(train) * len(genomes))


@st.composite
def selection_cases(draw):
    n = draw(st.integers(1, 12))
    scores = draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cells = draw(st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n))
    tau_c, tau_e = draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))
    return scores, labels, np.array(cells, dtype=np.float64).reshape(n, n), tau_c, tau_e


@settings(max_examples=300, deadline=None)
@given(selection_cases())
def test_compress_expand_properties(case):
    scores, labels, pairwise, tau_c, tau_e = case
    kept = compress(scores, tau_c)
    assert kept and list(kept) == sorted(set(kept))
    columns, provenance = expand(scores, kept, tau_e, labels, pairwise)
    assert len(columns) == len(set(columns)) == len(provenance)
    assert set(columns) <= set(range(len(scores)))
    # kept columns under tau_e come first, in their order
    low = tuple(j for j in kept if scores[j] < tau_e)
    assert columns[: len(low)] == low
    assert provenance[: len(low)] == (INITIAL,) * len(low)
    # the rest are medoids, at most one per class
    medoids = [j for j, tag in zip(columns, provenance) if tag == EXPANSION_MEDOID]
    assert len(low) + len(medoids) == len(columns)
    assert len({labels[j] for j in medoids}) == len(medoids)


def built_model(toy_sim, inner_cfg):
    train, val = separable_data()
    model, _ = synthesize_instance(
        genome(), train, val, toy_sim, inner_cfg, FitnessWeights(), EstimatorConfig()
    )
    return model


class TestTrainInner:
    def test_knn_inner_predicts_like_knn(self):
        rng = np.random.default_rng(47)
        vectors = rng.normal(size=(12, 3))
        labels = rng.integers(0, 2, size=12)
        inner = train_inner(vectors, labels, KnnConfig(k=3))
        assert isinstance(inner, KnnInner)
        queries = rng.normal(size=(40, 3))
        want = []
        for q in queries:
            d = vectors - q
            dist = np.sqrt(np.einsum("ij,ij->i", d, d))
            want.append(knn_label_from_distances(dist, labels, 3))
        assert inner.predict(queries).tolist() == want
        assert inner.predict(queries[:0]).shape == (0,)

    def test_svm_inner_keeps_its_support_rows(self):
        rng = np.random.default_rng(53)
        vectors = rng.normal(size=(16, 3))
        labels = np.array([0, 1] * 8)
        inner = train_inner(vectors, labels, SvmConfig(c=1.0))
        assert isinstance(inner, SvmInner)
        assert len(inner.model.support) > 0
        assert np.array_equal(inner.support, vectors[inner.model.support])
        queries = rng.normal(size=(40, 3))
        want = []
        for q in queries:
            d = inner.support - q
            dist = np.sqrt(np.einsum("ij,ij->i", d, d))
            want.append(svm_predict(inner.model, dist))
        assert inner.predict(queries).tolist() == want

    @pytest.mark.parametrize("bias, label", [(0.5, 1), (-0.5, 0), (0.0, 0)])
    def test_svm_inner_without_support_rows_labels_by_its_bias(self, bias, label):
        empty = np.zeros(0)
        svm = TrainedSvm(np.arange(0), empty, empty, bias, 1.0)
        inner = SvmInner(model=svm, support=np.zeros((0, 3)), config=SvmConfig())
        queries = np.random.default_rng(61).normal(size=(5, 3))
        assert inner.predict(queries).tolist() == [svm_predict(svm, empty)] * 5 == [label] * 5

    def test_knn_space_enforced(self, toy_sim):
        # an inner kNN works on embedded vectors only; a model file that
        # names another space is rejected when read
        doc = json.loads(model_to_json(built_model(toy_sim, KnnConfig(k=1))))
        doc["inner"]["config"]["space"] = "input-levenshtein"
        with pytest.raises(OdseError, match="space"):
            model_from_json(json.dumps(doc))

    def test_knn_needs_k_vectors(self):
        with pytest.raises(TrainingError, match="fewer"):
            train_inner(np.zeros((2, 2)), [0, 1], KnnConfig(k=5))

    def test_svm_space_enforced(self, toy_sim):
        text = model_to_json(built_model(toy_sim, SvmConfig(c=2.0)))
        for outer in (False, True):
            doc = json.loads(text)
            rec = doc["inner"] if outer else doc["inner"]["config"]
            rec["space"] = "input-levenshtein-kernel"
            with pytest.raises(OdseError, match="space"):
                model_from_json(json.dumps(doc))

    def test_unknown_config_rejected(self):
        with pytest.raises(TrainingError, match="unknown inner"):
            train_inner(np.zeros((2, 2)), [0, 1], "svm")


def interior_score_data(toy_sim):
    """Training data whose dissimilarity columns all score strictly
    inside (0,1), the precondition of the identity pipeline."""
    rng = np.random.default_rng(0)
    seqs = random_sequences(rng, 16, lo=2, hi=16)
    train = labeled(seqs[:12], [i % 2 for i in range(12)])
    val = labeled(seqs[12:], [i % 2 for i in range(4)])

    from odse.alignment import build_cost_model

    cm = build_cost_model(toy_sim, gap_weight=1.0)
    train_seqs = [s for s, _ in train]
    d = compute_matrix(train_seqs, train_seqs, cm)
    est = EstimatorConfig()
    scores = [
        normalized_column_entropy(d.values[:, j], est, 0.5).normalized
        for j in range(len(train_seqs))
    ]
    assert all(0.0 < s < 1.0 for s in scores), "dataset must stay interior"
    return train, val


class TestSynthesize:
    def test_identity_genome_keeps_whole_training_set(self, toy_sim):
        train, val = interior_score_data(toy_sim)
        model, fitness = synthesize_instance(
            genome(tau_c=0.0, tau_e=1.0),
            train,
            val,
            toy_sim,
            KnnConfig(k=1),
            FitnessWeights(),
            EstimatorConfig(),
        )
        assert model.representation.ids == tuple(s.id for s, _ in train)
        assert all(tag == INITIAL for tag in model.representation.provenance)
        assert 0.0 <= fitness <= 1.0
        assert model.fitness == fitness

    def test_perfect_accuracy_with_accuracy_only_weights(self, toy_sim):
        train, val = separable_data()
        model, fitness = synthesize_instance(
            genome(),
            train,
            val,
            toy_sim,
            KnnConfig(k=1),
            FitnessWeights(1.0, 0.0, 0.0),
            EstimatorConfig(),
        )
        assert fitness == 1.0

    def test_identity_genome_zero_cardinality_reward(self, toy_sim):
        train, val = interior_score_data(toy_sim)
        _, fitness = synthesize_instance(
            genome(tau_c=0.0, tau_e=1.0),
            train,
            val,
            toy_sim,
            KnnConfig(k=1),
            FitnessWeights(0.0, 1.0, 0.0),
            EstimatorConfig(),
        )
        assert fitness == 0.0

    def test_embedded_vectors_match_fresh_computation(self, toy_sim):
        # the synthesis path selects columns of the initial matrix; that
        # must be bit-identical to embedding the training set from scratch
        # against the final prototypes
        rng = np.random.default_rng(53)
        seqs = random_sequences(rng, 14, lo=4, hi=9)
        train = labeled(seqs[:10], [i % 2 for i in range(10)])
        val = labeled(seqs[10:], [i % 2 for i in range(4)])
        g = genome(tau_c=0.3, tau_e=0.9)
        model, _ = synthesize_instance(
            g, train, val, toy_sim, KnnConfig(k=1), FitnessWeights(),
            EstimatorConfig(kind=MST),
        )
        fresh = compute_matrix(
            [s for s, _ in train], model.representation.prototypes, model.cost_model
        )
        assert np.array_equal(model.inner.vectors, fresh.values)

    def test_gap_weight_gene_drives_cost_model(self, toy_sim):
        train, val = separable_data()
        model, _ = synthesize_instance(
            genome(gap_weight=2.0), train, val, toy_sim, KnnConfig(k=1),
            FitnessWeights(), EstimatorConfig(),
        )
        assert model.cost_model.gap_cost == 1.0  # toy mean off-diag 0.5 times 2

    def test_empty_sets_rejected(self, toy_sim):
        train, val = separable_data()
        with pytest.raises(SynthesisError, match="non-empty"):
            synthesize_instance(
                genome(), [], val, toy_sim, KnnConfig(k=1), FitnessWeights(),
                EstimatorConfig(),
            )
        with pytest.raises(SynthesisError, match="non-empty"):
            synthesize_instance(
                genome(), train, [], toy_sim, KnnConfig(k=1), FitnessWeights(),
                EstimatorConfig(),
            )

    def test_overlapping_ids_rejected(self, toy_sim):
        train, _ = separable_data()
        with pytest.raises(SynthesisError, match="overlap"):
            synthesize_instance(
                genome(), train, train[:2], toy_sim, KnnConfig(k=1),
                FitnessWeights(), EstimatorConfig(),
            )

    def test_validation_class_must_exist_in_train(self, toy_sim):
        train, val = separable_data()
        train0 = [(s, lab) for s, lab in train if lab == 0]
        with pytest.raises(SynthesisError, match="absent"):
            synthesize_instance(
                genome(), train0, val, toy_sim, KnnConfig(k=1),
                FitnessWeights(), EstimatorConfig(),
            )

    def test_inner_training_failure_is_a_training_error(self, toy_sim):
        # a one-class training set passes the split rules, but no SVM
        # trains on it, whatever the genome; the error is the trainer's own
        train, val = separable_data()
        train0 = [(s, lab) for s, lab in train if lab == 0]
        val0 = [(s, lab) for s, lab in val if lab == 0]
        runs = (
            lambda: synthesize_instance(
                genome(), train0, val0, toy_sim, SvmConfig(), FitnessWeights(),
                EstimatorConfig(),
            ),
            lambda: ga_optimize(
                train0, val0, toy_sim, SvmConfig(), FitnessWeights(), EstimatorConfig(),
                GaConfig(population_size=4, max_generations=1),
            ),
        )
        for run in runs:
            with pytest.raises(TrainingError, match="both classes") as exc:
                run()
            assert not isinstance(exc.value, SynthesisError)
            assert not hasattr(exc.value, "genome")


def _relabel(pairs, change):
    return [(s, change(i, lab)) for i, (s, lab) in enumerate(pairs)]


class TestSplitRules:
    """Every rule of a labelled split is checked before any table is
    built, for either inner classifier and either entry point."""

    CASES = {
        "one-training-item": (lambda t, v: (t[:1], v), "two items"),
        "repeated-training-id": (lambda t, v: (t + t[:1], v), "overlap or repeat"),
        "repeated-validation-id": (lambda t, v: (t, v + v[-1:]), "overlap or repeat"),
        "labels-1-2": (
            lambda t, v: (_relabel(t, lambda i, lab: lab + 1), _relabel(v, lambda i, lab: lab + 1)),
            "integers 0 and 1, got 2",
        ),
        "label-0.9": (
            lambda t, v: (_relabel(t, lambda i, lab: 0.9 if i == 0 else lab), v),
            "integers 0 and 1, got 0.9",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("inner", [KnnConfig(k=1), SvmConfig()], ids=["knn", "svm"])
    @pytest.mark.parametrize("entry", ["synthesize_instance", "ga_optimize"])
    def test_refused_before_any_table(self, case, inner, entry, toy_sim, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(odse.model, "compute_matrix", no_table)
        split, message = self.CASES[case]
        train, val = split(*separable_data())
        with pytest.raises(SynthesisError, match=message):
            if entry == "synthesize_instance":
                synthesize_instance(
                    genome(), train, val, toy_sim, inner, FitnessWeights(), EstimatorConfig()
                )
            else:
                ga_optimize(
                    train, val, toy_sim, inner, FitnessWeights(), EstimatorConfig(),
                    GaConfig(population_size=4, max_generations=1),
                )

    @pytest.mark.parametrize("bad", ["a", None, 0.5, True])
    def test_labels_checked_before_the_holdout(self, bad, toy_sim):
        # the holdout groups by label, so with validation=None the label
        # rule runs first and raises what an explicit validation set does
        train, val = separable_data()
        train = _relabel(train, lambda i, lab: bad)
        messages = []
        for validation in (None, val):
            with pytest.raises(SynthesisError, match="integers 0 and 1") as err:
                ga_optimize(
                    train, validation, toy_sim, KnnConfig(k=1), FitnessWeights(),
                    EstimatorConfig(), GaConfig(population_size=4, max_generations=1),
                )
            messages.append(str(err.value))
        assert messages[0] == messages[1] == f"labels must be the integers 0 and 1, got {bad!r}"


class TestGaOptimize:
    def micro(self, seed=0, **overrides):
        defaults = dict(
            population_size=4,
            crossover_prob=0.9,
            mutation_prob=0.2,
            max_generations=3,
            stall_epsilon=1e-12,
            rng_seed=seed,
        )
        defaults.update(overrides)
        return GaConfig(**defaults)

    def run(self, cfg, threads=1, inner=None, with_validation=True):
        train, val = separable_data()
        from odse.alignment import parse_similarity_matrix

        from conftest import TOY_MATRIX_TEXT

        sim = parse_similarity_matrix(TOY_MATRIX_TEXT)
        return ga_optimize(
            train,
            val if with_validation else None,
            sim,
            inner or KnnConfig(k=1),
            FitnessWeights(),
            EstimatorConfig(),
            cfg,
            threads=threads,
        )

    def test_same_seed_replays_identically(self):
        m1 = self.run(self.micro(seed=42))
        m2 = self.run(self.micro(seed=42))
        assert model_to_json(m1) == model_to_json(m2)
        assert m1.synthesis_log == m2.synthesis_log

    def test_log_structure_and_best_ever(self):
        model = self.run(self.micro(seed=1))
        log = model.synthesis_log
        assert [s.generation for s in log] == list(range(len(log)))
        for stat in log:
            assert 0.0 <= stat.mean <= stat.best <= 1.0
        assert model.fitness == max(s.best for s in log)

    def test_stall_stops_after_five_flat_generations(self):
        # a stall threshold larger than any possible spread forces the
        # 5-generation window to trigger immediately
        model = self.run(self.micro(max_generations=50, stall_epsilon=2.0))
        assert len(model.synthesis_log) == 5

    def test_thread_count_does_not_change_result(self):
        m1 = self.run(self.micro(seed=9), threads=1)
        m2 = self.run(self.micro(seed=9), threads=4)
        assert model_to_json(m1) == model_to_json(m2)

    def test_holdout_validation_when_none_given(self):
        model = self.run(self.micro(seed=3), with_validation=False)
        assert 0.0 <= model.fitness <= 1.0

    def test_holdout_impossible_with_singleton_classes(self, toy_sim):
        train = [(Sequence("a", "ARND"), 0), (Sequence("b", "DNRA"), 1)]
        with pytest.raises(SynthesisError, match="hold out"):
            ga_optimize(
                train, None, toy_sim, KnnConfig(k=1), FitnessWeights(),
                EstimatorConfig(), self.micro(),
            )

    def test_classification_of_training_data(self, toy_sim):
        model = self.run(self.micro(seed=5))
        train, _ = separable_data()
        for s, label in train:
            assert classify_all(model, [s]) == [label]

    def test_classify_all_matches_classify(self):
        # one batch labels every query as a one-query call does
        model = self.run(self.micro(seed=7))
        _, val = separable_data()
        seqs = [s for s, _ in val]
        batch = classify_all(model, seqs)
        assert batch == [classify_all(model, [s])[0] for s in seqs]
        assert classify_all(model, seqs, threads=3) == batch

    @pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1)])
    def test_one_thread_pool_per_run(self, threads, pools, monkeypatch):
        made = []

        class CountingExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(odse.model, "ThreadPoolExecutor", CountingExecutor)
        model = self.run(self.micro(seed=9), threads=threads)
        assert len(model.synthesis_log) == 4
        assert len(made) == pools


@pytest.mark.parametrize("threads", [0, -1, 1.5, True])
@pytest.mark.parametrize(
    "entry", ["dissimilarity_table", "compute_matrix", "classify_all", "ga_optimize"]
)
def test_thread_count_checked(entry, threads, toy_sim, toy_cm):
    # a count below 1, a float or a bool is refused, not run on one
    # thread or failed with a ZeroDivisionError or TypeError
    train, val = separable_data()
    seqs = [s for s, _ in train]
    calls = {
        "dissimilarity_table": lambda: dissimilarity_table(seqs, seqs, toy_cm, threads),
        "compute_matrix": lambda: compute_matrix(seqs, seqs, toy_cm, threads),
        "classify_all": lambda: classify_all(
            built_model(toy_sim, KnnConfig(k=1)), seqs, threads=threads
        ),
        "ga_optimize": lambda: ga_optimize(
            train, val, toy_sim, KnnConfig(k=1), FitnessWeights(), EstimatorConfig(),
            GaConfig(population_size=4, max_generations=1), threads=threads,
        ),
    }
    with pytest.raises(OdseError, match="^threads must be"):
        calls[entry]()


class TestGaReuse:
    """ga_optimize builds one table per gap weight, scores its columns
    once per (gap weight, sigma), or once per gap weight under MST, and
    synthesizes each genome once."""

    CFG = GaConfig(
        population_size=6, mutation_prob=0.3, max_generations=4,
        stall_epsilon=1e-12, rng_seed=13,
    )

    def run(self, toy_sim, inner, monkeypatch, threads=1, est=EstimatorConfig()):
        """The run's sets and every (genome, model) it synthesized."""
        train, val = TestColumnSelection().corpus()
        made = []
        synthesize = odse.model._synthesize

        def recording(g, *args):
            model = synthesize(g, *args)
            made.append((g, model))
            return model

        monkeypatch.setattr(odse.model, "_synthesize", recording)
        model = ga_optimize(
            train, val, toy_sim, inner, FitnessWeights(), est, self.CFG, threads=threads
        )
        assert len(model.synthesis_log) == self.CFG.max_generations + 1
        # elites and unchanged copies are not synthesized again
        assert len(made) < self.CFG.population_size * len(model.synthesis_log)
        return train, val, made

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "inner", [KnnConfig(k=1), SvmConfig(max_passes=25)], ids=["knn", "svm"]
    )
    def test_each_genome_equals_a_fresh_synthesis(self, toy_sim, inner, threads, monkeypatch):
        train, val, made = self.run(toy_sim, inner, monkeypatch, threads)
        gaps = {g.gap_weight for g, _ in made}
        pairs = {(g.gap_weight, g.sigma) for g, _ in made}
        # genomes share gap weights, and some share a gap weight but not sigma
        assert len(gaps) < len(pairs) < len(made)
        monkeypatch.undo()
        for g, model in made:
            fresh, fresh_fitness = synthesize_instance(
                g, train, val, toy_sim, inner, FitnessWeights(), EstimatorConfig()
            )
            assert model_to_json(model) == model_to_json(fresh), g
            assert model.fitness == fresh_fitness == fresh.fitness

    def count_work(self, monkeypatch):
        """Lists that collect the gap cost of each train x train table
        and the length of each scored column."""
        tables, columns = [], []
        compute, scorer = odse.model.compute_matrix, odse.model.column_scores

        def counting_compute(rows, cols, cm, *args, **kwargs):
            if [s.id for s in cols] == [s.id for s in rows]:
                tables.append(cm.gap_cost)
            return compute(rows, cols, cm, *args, **kwargs)

        def counting_scorer(table, cfg, sigma):
            n, m = table.shape
            columns.extend([n] * m)
            return scorer(table, cfg, sigma)

        monkeypatch.setattr(odse.model, "compute_matrix", counting_compute)
        monkeypatch.setattr(odse.model, "column_scores", counting_scorer)
        return tables, columns

    def test_one_table_per_gap_weight_and_one_score_per_column_and_sigma(
        self, toy_sim, monkeypatch
    ):
        tables, columns = self.count_work(monkeypatch)
        train, _, made = self.run(toy_sim, KnnConfig(k=1), monkeypatch)
        gaps = {g.gap_weight for g, _ in made}
        pairs = {(g.gap_weight, g.sigma) for g, _ in made}
        assert len(tables) == len(set(tables)) == len(gaps)
        assert columns == [len(train)] * (len(train) * len(pairs))

    def test_mst_scores_each_table_once_whatever_sigma(self, toy_sim, monkeypatch):
        tables, columns = self.count_work(monkeypatch)
        train, _, made = self.run(toy_sim, KnnConfig(k=1), monkeypatch, est=MST_EST)
        gaps = {g.gap_weight for g, _ in made}
        # some gap weight is used with more than one sigma
        assert len(gaps) < len({(g.gap_weight, g.sigma) for g, _ in made})
        assert columns == [len(train)] * (len(train) * len(tables))


class TestBestModel:
    """ga_optimize reads its model off the final population, which is
    the first model the run synthesized with the run's best fitness."""

    @pytest.mark.parametrize(
        "inner", [KnnConfig(k=1), SvmConfig(max_passes=25)], ids=["knn", "svm"]
    )
    def test_first_model_to_reach_the_best_fitness(self, toy_sim, inner, monkeypatch):
        train, val = TestColumnSelection().corpus()
        synthesize = odse.model._synthesize
        made = []

        def recording(g, *args):
            made.append(synthesize(g, *args))
            return made[-1]

        def run(seed, threads):
            cfg = dataclasses.replace(TestGaReuse.CFG, rng_seed=seed)
            return ga_optimize(
                train, val, toy_sim, inner, FitnessWeights(), EstimatorConfig(), cfg,
                threads=threads,
            )

        improved = tied = 0
        for seed in range(4):
            made.clear()
            monkeypatch.setattr(odse.model, "_synthesize", recording)
            model = run(seed, threads=1)
            monkeypatch.undo()
            bests = [stat.best for stat in model.synthesis_log]
            assert bests == sorted(bests), seed
            top = max(m.fitness for m in made)
            first = next(m for m in made if m.fitness == top)
            assert model.genome == first.genome, seed
            assert model_to_json(model) == model_to_json(
                dataclasses.replace(first, synthesis_log=model.synthesis_log)
            ), seed
            assert model_to_json(run(seed, threads=2)) == model_to_json(model), seed
            improved += bests[-1] > bests[0]
            tied += sum(m.fitness == top for m in made) > 1
        # the seeds reach their best after the first generation, and
        # reach it with more than one model
        assert improved and tied


class TestSelection:
    def test_zero_fitness_falls_back_to_uniform(self):
        rng = np.random.default_rng(61)
        fits = np.zeros(4)
        hits = {_select_index(fits, rng) for _ in range(200)}
        assert hits == {0, 1, 2, 3}

    def test_roulette_is_fitness_proportional(self):
        rng = np.random.default_rng(67)
        fits = np.array([1.0, 3.0])
        draws = np.array([_select_index(fits, rng) for _ in range(4000)])
        assert abs(draws.mean() - 0.75) < 0.03


class TestPersistence:
    def build_knn_model(self):
        train, val = separable_data()
        from odse.alignment import parse_similarity_matrix

        from conftest import TOY_MATRIX_TEXT

        sim = parse_similarity_matrix(TOY_MATRIX_TEXT)
        return ga_optimize(
            train, val, sim, KnnConfig(k=1), FitnessWeights(),
            EstimatorConfig(),
            GaConfig(population_size=4, max_generations=2, rng_seed=11),
        )

    def build_svm_model(self, toy_sim):
        train, val = separable_data()
        model, _ = synthesize_instance(
            genome(), train, val, toy_sim, SvmConfig(c=2.0),
            FitnessWeights(), EstimatorConfig(),
        )
        return model

    def test_knn_round_trip_preserves_classification(self, tmp_path):
        model = self.build_knn_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        _, val = separable_data()
        for s, _ in val:
            assert classify_all(loaded, [s]) == classify_all(model, [s])
        assert loaded.fitness == model.fitness
        assert loaded.genome == model.genome
        assert loaded.synthesis_log == model.synthesis_log
        assert loaded.representation.ids == model.representation.ids
        assert loaded.representation.provenance == model.representation.provenance

    def test_json_round_trip_is_idempotent(self):
        model = self.build_knn_model()
        text = model_to_json(model)
        assert model_to_json(model_from_json(text)) == text

    def test_svm_inner_round_trip_bit_exact(self, toy_sim, tmp_path):
        model = self.build_svm_model(toy_sim)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.inner.model.alphas, model.inner.model.alphas)
        assert loaded.inner.model.bias == model.inner.model.bias
        assert loaded.inner.model.gamma == model.inner.model.gamma
        rng = np.random.default_rng(71)
        for s in random_sequences(rng, 6, lo=4, hi=8, prefix="q"):
            assert classify_all(loaded, [s]) == classify_all(model, [s])

    def test_svm_without_support_round_trips(self, toy_sim):
        model = self.build_svm_model(toy_sim)
        empty = SvmInner(
            model=TrainedSvm(
                support=np.zeros(0, dtype=np.int64),
                alphas=np.zeros(0),
                targets=np.zeros(0),
                bias=0.0,
                gamma=1.0,
            ),
            support=np.zeros((0, len(model.representation))),
            config=SvmConfig(),
        )
        model = OdseModel(
            model.genome, model.representation, model.cost_model, empty, model.fitness
        )
        loaded = model_from_json(model_to_json(model))
        assert loaded.inner.support.shape == (0, len(model.representation))
        _, val = separable_data()
        assert [classify_all(loaded, [s])[0] for s, _ in val] == [0] * len(val)

    def test_cost_model_round_trip_bit_exact(self, toy_sim):
        model = self.build_svm_model(toy_sim)
        loaded = model_from_json(model_to_json(model))
        assert np.array_equal(loaded.cost_model.sub_cost, model.cost_model.sub_cost)
        assert loaded.cost_model.gap_cost == model.cost_model.gap_cost
        assert loaded.cost_model.alphabet == model.cost_model.alphabet

    def test_archive_key_order(self):
        doc = json.loads(model_to_json(self.build_knn_model()))
        assert list(doc) == [
            "format", "genome", "fitness", "representation", "cost_model", "inner",
            "synthesis_log",
        ]
        assert list(doc["genome"]) == ["sigma", "tau_c", "tau_e", "gap_weight"]
        assert len(doc["synthesis_log"]) == 3
        for rec in doc["synthesis_log"]:
            assert list(rec) == ["generation", "best", "mean"]

    @pytest.mark.parametrize("change", [
        lambda rec: rec.pop("mean"),
        lambda rec: rec.update(worst=0.0),
    ], ids=["missing", "unknown"])
    def test_log_record_keys_checked(self, change):
        doc = json.loads(model_to_json(self.build_knn_model()))
        change(doc["synthesis_log"][0])
        with pytest.raises(OdseError, match="malformed model archive"):
            model_from_json(json.dumps(doc))

    def test_unknown_format_rejected(self):
        with pytest.raises(OdseError, match="format"):
            model_from_json(json.dumps({"format": "odse-model/99"}))


class TestGenerationStat:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ((-1, 0.5, 0.5), "generation"),
            ((1.0, 0.5, 0.5), "generation"),
            ((True, 0.5, 0.5), "generation"),
            ((1, 1.5, 0.5), "best fitness"),
            ((1, 0.5, -0.1), "mean fitness"),
            ((1, float("nan"), 0.5), "best fitness"),
            ((1, 0.5, float("inf")), "mean fitness"),
        ],
    )
    def test_fields_checked(self, fields, message):
        with pytest.raises(OdseError, match=message):
            GenerationStat(*fields)


class TestOdseModelValidation:
    def test_fitness_range_checked(self, toy_sim):
        train, val = separable_data()
        model, _ = synthesize_instance(
            genome(), train, val, toy_sim, KnnConfig(k=1), FitnessWeights(),
            EstimatorConfig(),
        )
        with pytest.raises(OdseError, match="fitness"):
            OdseModel(
                genome=model.genome,
                representation=model.representation,
                cost_model=model.cost_model,
                inner=model.inner,
                fitness=1.5,
            )
