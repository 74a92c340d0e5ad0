"""Dissimilarity-space classification model.

A model is synthesized from a 4-gene genome (Parzen width, two entropy
thresholds, gap weight): the training set seeds the prototype set, columns
of the training dissimilarity matrix are scored by normalized entropy,
low-entropy prototypes are compressed away, high-entropy ones are replaced
by per-class medoids, and an inner feature-space classifier is trained on
the embedded vectors.  A genetic algorithm searches the genome space for
the fittest model.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .alignment import (
    GAP_WEIGHT_MAX,
    RAW,
    AlignmentCostModel,
    SimilarityMatrix,
    build_cost_model,
    check_gap_weight,
)
from .classifiers import (
    KnnConfig,
    SvmConfig,
    TrainedSvm,
    knn_label_from_distances,
    svm_predict,
    svm_train,
)
from .datasets import medoid
from .embedding import compute_matrix, euclidean_distances
from .entropy import (
    MST,
    EstimatorConfig,
    column_scores,
    normalized_vector_entropy,
)
from .errors import OdseError, SynthesisError, TrainingError, check_threads, is_integer
from .sequences import Sequence, read_text

SIGMA_BOUNDS = (0.01, 5.0)
# gap_weight is bounded below by an open interval at 0; sampling and
# repair use this floor so the bound is never violated
GAP_WEIGHT_FLOOR = 1e-3
# sampling, mutation and repair ranges of (sigma, tau_c, tau_e, gap_weight)
_GENE_BOUNDS = (
    SIGMA_BOUNDS,
    (0.0, 1.0),
    (0.0, 1.0),
    (GAP_WEIGHT_FLOOR, GAP_WEIGHT_MAX),
)
# provenance tags of a model's prototypes: a training sequence of the
# initial set, or a per-class medoid that expansion added
INITIAL = "initial"
EXPANSION_MEDOID = "expansion-medoid"


@dataclass(frozen=True)
class OdseGenome:
    """Model parameters the genetic search optimizes."""

    sigma: float
    tau_c: float
    tau_e: float
    gap_weight: float

    def __post_init__(self):
        if not SIGMA_BOUNDS[0] <= self.sigma <= SIGMA_BOUNDS[1]:
            raise OdseError(f"sigma {self.sigma} outside {SIGMA_BOUNDS}")
        if not 0.0 <= self.tau_c <= 1.0 or not 0.0 <= self.tau_e <= 1.0:
            raise OdseError("entropy thresholds must lie in [0, 1]")
        if self.tau_c > self.tau_e:
            raise OdseError("tau_c must not exceed tau_e")
        check_gap_weight(self.gap_weight)

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.sigma, self.tau_c, self.tau_e, self.gap_weight], dtype=np.float64
        )


def repair_genome(sigma, tau_c, tau_e, gap_weight) -> OdseGenome:
    """Clamp genes into bounds and swap the thresholds when inverted."""
    sigma, tau_c, tau_e, gap_weight = (
        min(max(float(v), lo), hi)
        for v, (lo, hi) in zip((sigma, tau_c, tau_e, gap_weight), _GENE_BOUNDS)
    )
    if tau_c > tau_e:
        tau_c, tau_e = tau_e, tau_c
    return OdseGenome(sigma, tau_c, tau_e, gap_weight)


@dataclass(frozen=True)
class FitnessWeights:
    w_acc: float = 0.8
    w_card: float = 0.1
    w_ent: float = 0.1

    def __post_init__(self):
        if not all(w >= 0.0 for w in (self.w_acc, self.w_card, self.w_ent)):
            raise OdseError("fitness weights must be nonnegative")
        if abs(self.w_acc + self.w_card + self.w_ent - 1.0) > 1e-9:
            raise OdseError("fitness weights must sum to 1")


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 20
    crossover_prob: float = 0.9
    mutation_prob: float = 0.2
    max_generations: int = 50
    stall_epsilon: float = 1e-4
    rng_seed: int = 0

    def __post_init__(self):
        size = self.population_size
        if not is_integer(size) or size < 4 or size % 2 != 0:
            raise OdseError(f"population_size must be an even integer >= 4, got {size}")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise OdseError("crossover_prob must lie in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise OdseError("mutation_prob must lie in [0, 1]")
        if not is_integer(self.max_generations) or self.max_generations < 1:
            raise OdseError(f"max_generations must be an integer >= 1, got {self.max_generations}")
        if not (math.isfinite(self.stall_epsilon) and self.stall_epsilon > 0.0):
            raise OdseError(f"stall_epsilon must be finite and positive, got {self.stall_epsilon}")
        if not is_integer(self.rng_seed) or self.rng_seed < 0:
            raise OdseError(f"rng_seed must be a non-negative integer, got {self.rng_seed}")


def _check_fitness(value, what: str) -> None:
    """Every fitness lies in [0, 1], up to the rounding of its weighted sum."""
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise OdseError(f"{what} {value} outside [0, 1]")


@dataclass(frozen=True)
class GenerationStat:
    generation: int
    best: float
    mean: float

    def __post_init__(self):
        if not is_integer(self.generation) or self.generation < 0:
            raise OdseError(f"generation must be a non-negative integer, got {self.generation!r}")
        _check_fitness(self.best, "best fitness")
        _check_fitness(self.mean, "mean fitness")


@dataclass(frozen=True, eq=False)
class KnnInner:
    """Inner kNN over embedded vectors; keeps the whole training embedding."""

    vectors: np.ndarray
    labels: np.ndarray
    config: KnnConfig

    def predict(self, rows) -> np.ndarray:
        """One label per row of rows, an (m, |R|) array of embedded vectors."""
        dist = euclidean_distances(rows, self.vectors)
        return np.array(
            [knn_label_from_distances(d, self.labels, self.config.k) for d in dist],
            dtype=np.int64,
        )


@dataclass(frozen=True, eq=False)
class SvmInner:
    """Inner SVM over embedded vectors; keeps its support vectors, one
    row per support item of the model."""

    model: TrainedSvm
    support: np.ndarray
    config: SvmConfig

    def predict(self, rows) -> np.ndarray:
        """One label per row of rows, an (m, |R|) array of embedded vectors."""
        dist = euclidean_distances(rows, self.support)
        return np.array([svm_predict(self.model, d) for d in dist], dtype=np.int64)


def train_inner(vectors: np.ndarray, labels, cfg):
    """Train the configured inner classifier on embedded vectors."""
    labels = np.asarray(labels)
    if isinstance(cfg, KnnConfig):
        if vectors.shape[0] < cfg.k:
            raise TrainingError(f"kNN has {vectors.shape[0]} vectors, fewer than k={cfg.k}")
        return KnnInner(vectors=np.array(vectors), labels=labels, config=cfg)
    if isinstance(cfg, SvmConfig):
        svm = svm_train(euclidean_distances(vectors, vectors), labels, cfg)
        return SvmInner(model=svm, support=vectors[svm.support], config=cfg)
    raise TrainingError(f"unknown inner classifier config {type(cfg).__name__}")


def _check_representation(prototypes, provenance) -> None:
    """Refuse a prototype set that is empty, whose tags do not pair one
    known tag with each prototype, or whose ids repeat."""
    if len(prototypes) < 1:
        raise OdseError("representation set must hold at least one prototype")
    if len(provenance) != len(prototypes):
        raise OdseError("provenance tags must match prototype count")
    for tag in provenance:
        if tag not in (INITIAL, EXPANSION_MEDOID):
            raise OdseError(f"unknown provenance tag {tag!r}")
    ids = [p.id for p in prototypes]
    if len(set(ids)) != len(ids):
        raise OdseError("duplicate prototype ids in representation set")


@dataclass(frozen=True, eq=False)
class OdseModel:
    """A synthesized classifier: its genome, its prototypes (the
    representation set, in column order) with one provenance tag each,
    the cost model that embeds a sequence against them, the inner
    classifier of the embedded vectors and its fitness."""

    genome: OdseGenome
    representation: tuple[Sequence, ...]
    provenance: tuple[str, ...]
    cost_model: AlignmentCostModel
    inner: object
    fitness: float
    synthesis_log: tuple[GenerationStat, ...] = ()

    def __post_init__(self):
        _check_representation(self.representation, self.provenance)
        _check_fitness(self.fitness, "fitness")


# --------------------------------------------------------------------------
# prototype set transformations


def compress(scores, tau_c: float) -> tuple[int, ...]:
    """Indices of the columns scoring above tau_c, in column order.

    If no column passes, the single best-scoring column is kept (ties to
    the lowest index).
    """
    kept = tuple(int(j) for j in np.flatnonzero(np.asarray(scores) > tau_c))
    return kept or (int(np.argmax(scores)),)


def _per_class_medoids(labels, pairwise: np.ndarray) -> list[int]:
    """Index of one medoid per class on pairwise, in label order."""
    labels = np.asarray(labels)
    # sorted(set()), not np.unique, whose first call imports numpy.ma
    classes = sorted(set(labels.tolist()))
    return [medoid(pairwise, np.flatnonzero(labels == label)) for label in classes]


def expand(
    scores, kept, tau_e: float, labels, pairwise: np.ndarray
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """Replace the kept columns scoring at or above tau_e.

    Columns index the training set, whose class labels are labels and
    whose train-by-train dissimilarity matrix is pairwise.  The removed
    columns are replaced collectively by one medoid column per class;
    a medoid that is already kept is not added again.  When no kept
    column reaches tau_e the kept columns come back unchanged.  Returns
    the columns and their provenance tags.
    """
    if len(labels) == 0:
        raise SynthesisError("expansion needs a non-empty training set")
    if np.shape(pairwise) != (len(labels), len(labels)):
        raise SynthesisError("expansion needs the train-by-train dissimilarity matrix")
    removed = np.asarray(scores) >= tau_e
    columns = [j for j in kept if not removed[j]]
    if len(columns) == len(kept):
        return tuple(kept), (INITIAL,) * len(kept)
    medoids = [m for m in _per_class_medoids(labels, pairwise) if m not in columns]
    return (
        tuple(columns + medoids),
        (INITIAL,) * len(columns) + (EXPANSION_MEDOID,) * len(medoids),
    )


# --------------------------------------------------------------------------
# synthesis


@dataclass(frozen=True, eq=False)
class _Sets:
    """The checked training and validation sets of a synthesis."""

    train: list
    train_labels: np.ndarray
    val: list
    val_labels: np.ndarray


def _split_labeled(pairs):
    seqs = [s for s, _ in pairs]
    labels = np.array([int(lab) for _, lab in pairs])
    return seqs, labels


def _check_labels(pairs) -> None:
    # checked on the values given: int() would turn 0.9 into 0
    bad = [lab for _, lab in pairs if not (is_integer(lab) and lab in (0, 1))]
    if bad:
        raise SynthesisError(f"labels must be the integers 0 and 1, got {bad[0]!r}")


def _checked_sets(train, validation) -> _Sets:
    """Split (Sequence, label) pairs once every rule of a labelled split
    holds: at least two training items and a non-empty validation set,
    no id repeated anywhere across the two, labels that are the integers
    0 and 1, and no validation class absent from training."""
    if len(train) < 2 or not validation:
        raise SynthesisError("train needs two items or more and validation must be non-empty")
    pairs = [*train, *validation]
    repeated = sorted(i for i, n in Counter(s.id for s, _ in pairs).items() if n > 1)
    if repeated:
        raise SynthesisError(f"train/validation ids overlap or repeat: {repeated[:5]}")
    _check_labels(pairs)
    sets = _Sets(*_split_labeled(train), *_split_labeled(validation))
    if not set(sets.val_labels) <= set(sets.train_labels):
        raise SynthesisError("validation contains a class absent from training")
    return sets


def _synthesize(
    g: OdseGenome,
    sets: _Sets,
    cm: AlignmentCostModel,
    d0: np.ndarray,
    scores,
    inner_cfg,
    fw: FitnessWeights,
    est: EstimatorConfig,
) -> OdseModel:
    """Synthesize and score the model of g from the cost model of its gap
    weight, that cost model's train x train table d0 and the column
    scores of d0 under g's sigma."""
    kept = compress(scores, g.tau_c)
    # with the initial prototypes equal to the training set, d0 doubles as
    # the input-space pairwise matrix the medoid search needs
    columns, provenance = expand(scores, kept, g.tau_e, sets.train_labels, d0)
    prototypes = tuple(sets.train[j] for j in columns)
    # every prototype is a training sequence, so the embedded
    # training matrix is a column selection of d0 (bit-identical to a
    # fresh computation; lanes of the batch kernel are independent)
    d1 = d0[:, list(columns)]
    inner = train_inner(d1, sets.train_labels, inner_cfg)
    d_val = compute_matrix(sets.val, prototypes, cm)
    hits = int(np.count_nonzero(inner.predict(d_val.values) == sets.val_labels))
    pi = hits / len(sets.val)
    # the columns are distinct training items, so |R'| <= |train|
    card = 1.0 - len(prototypes) / len(sets.train)
    h_norm = normalized_vector_entropy(d1, est.alpha).normalized
    return OdseModel(
        genome=g,
        representation=prototypes,
        provenance=provenance,
        cost_model=cm,
        inner=inner,
        fitness=fw.w_acc * pi + fw.w_card * card + fw.w_ent * h_norm,
    )


def _evaluator(sets: _Sets, sim: SimilarityMatrix, inner_cfg, fw, est, normalization):
    """`evaluate(pop, pool) -> (models, fits)`: the model and fitness of
    each genome of pop, through one work cache kept across calls.

    The cache holds one train x train table per gap weight, one list of
    column scores per (gap weight, sigma), or per gap weight under MST,
    which never reads sigma, and one model per genome.  Each part is
    refreshed in one step: every missing key is computed once, in order
    of first use (on pool's threads when pool is given), then every key
    no genome of pop uses is dropped.
    """
    tables: dict[float, tuple[AlignmentCostModel, np.ndarray]] = {}
    scores: dict[tuple[float, float | None], list[float]] = {}
    models: dict[OdseGenome, OdseModel] = {}

    def table(w):
        cm = build_cost_model(sim, gap_weight=w, normalization=normalization)
        return cm, compute_matrix(sets.train, sets.train, cm).values

    def score_key(g):
        return g.gap_weight, None if est.kind == MST else g.sigma

    def table_scores(key):
        w, sigma = key
        return [v.normalized for v in column_scores(tables[w][1], est, sigma)]

    def synthesize(g):
        cm, d0 = tables[g.gap_weight]
        return _synthesize(g, sets, cm, d0, scores[score_key(g)], inner_cfg, fw, est)

    def refresh(cache, fn, keys, pool):
        live = dict.fromkeys(keys)
        missing = [k for k in live if k not in cache]
        cache.update(zip(missing, pool.map(fn, missing) if pool else map(fn, missing)))
        for key in cache.keys() - live.keys():
            del cache[key]

    def evaluate(pop, pool):
        refresh(tables, table, (g.gap_weight for g in pop), pool)
        refresh(scores, table_scores, map(score_key, pop), pool)
        refresh(models, synthesize, pop, pool)
        out = [models[g] for g in pop]
        return out, np.array([m.fitness for m in out], dtype=np.float64)

    return evaluate


def synthesize_instance(
    g: OdseGenome,
    train,
    validation,
    sim: SimilarityMatrix,
    inner_cfg,
    fw: FitnessWeights,
    est: EstimatorConfig,
) -> tuple[OdseModel, float]:
    """Build and score one model for a fixed genome.

    train and validation are lists of (Sequence, label) pairs forming a
    labelled split: at least two training items, a non-empty validation
    set, no id repeated anywhere, labels the integers 0 and 1 and no
    validation class absent from training; otherwise `SynthesisError`
    is raised before any alignment.  An inner classifier that cannot
    train on the sets raises its `TrainingError`.  Fitness combines
    validation accuracy, prototype-set shrinkage and the normalized
    spread of the embedded training vectors, always under the MST
    estimator of order est.alpha.  Alignment costs are raw, as
    `ga_optimize`'s are by default.  The genome goes through the same
    evaluation path as each generation of `ga_optimize`, as a population
    of one.
    """
    evaluate = _evaluator(_checked_sets(train, validation), sim, inner_cfg, fw, est, RAW)
    (model,), _ = evaluate([g], None)
    return model, model.fitness


# --------------------------------------------------------------------------
# genetic optimization


def _random_genome(rng: np.random.Generator) -> OdseGenome:
    return repair_genome(*(rng.uniform(lo, hi) for lo, hi in _GENE_BOUNDS))


def _crossover(a: OdseGenome, b: OdseGenome, rng: np.random.Generator):
    va, vb = a.as_vector(), b.as_vector()
    p1, p2 = sorted(rng.choice(np.array([1, 2, 3]), size=2, replace=False))
    ca, cb = va.copy(), vb.copy()
    ca[p1:p2], cb[p1:p2] = vb[p1:p2], va[p1:p2]
    return repair_genome(*ca), repair_genome(*cb)


def _mutate(g: OdseGenome, rng: np.random.Generator, prob: float) -> OdseGenome:
    v = g.as_vector()
    for gene, (lo, hi) in enumerate(_GENE_BOUNDS):
        if rng.random() < prob:
            v[gene] = rng.uniform(lo, hi)
    return repair_genome(*v)


def _select_index(fits: np.ndarray, rng: np.random.Generator) -> int:
    total = float(fits.sum())
    if total <= 0.0:
        return int(rng.integers(len(fits)))
    return int(rng.choice(len(fits), p=fits / total))


def _next_population(pop, fits: np.ndarray, rng: np.random.Generator, cfg: GaConfig):
    children = [pop[int(np.argmax(fits))]]  # elite passes unchanged
    while len(children) < cfg.population_size:
        g1 = pop[_select_index(fits, rng)]
        g2 = pop[_select_index(fits, rng)]
        if rng.random() < cfg.crossover_prob:
            g1, g2 = _crossover(g1, g2, rng)
        g1 = _mutate(g1, rng, cfg.mutation_prob)
        g2 = _mutate(g2, rng, cfg.mutation_prob)
        children.append(g1)
        if len(children) < cfg.population_size:
            children.append(g2)
    return children


def _stratified_holdout(train, fraction: float, rng: np.random.Generator):
    """Split labeled pairs into (train, validation), keeping at least one
    member of every class on the training side."""
    _check_labels(train)
    by_class: dict[int, list[int]] = {}
    for i, (_, label) in enumerate(train):
        by_class.setdefault(int(label), []).append(i)
    val_idx: set[int] = set()
    for label in sorted(by_class):
        idx = by_class[label]
        n_val = min(int(round(fraction * len(idx))), len(idx) - 1)
        if n_val > 0:
            pick = rng.choice(len(idx), size=n_val, replace=False)
            val_idx.update(idx[int(p)] for p in pick)
    if not val_idx:
        raise SynthesisError(
            "could not hold out a validation set; provide one explicitly"
        )
    train_part = [train[i] for i in range(len(train)) if i not in val_idx]
    val_part = [train[i] for i in sorted(val_idx)]
    return train_part, val_part


def ga_optimize(
    train,
    validation,
    sim: SimilarityMatrix,
    inner_cfg,
    fw: FitnessWeights,
    est: EstimatorConfig,
    cfg: GaConfig,
    threads: int = 1,
    normalization: str = RAW,
) -> OdseModel:
    """Genetic search over genomes; returns the best model ever evaluated.

    validation may be None, in which case a stratified 30% of train is
    held out (drawn from the run's seed).  The sets must form a labelled
    split, and each genome is scored, as in `synthesize_instance`:
    est.alpha is the order of the fitness's MST entropy term under
    either estimator kind.  Fitness evaluation is a pure function of the
    genome, so results are identical for any thread count (an integer of
    at least 1), and the whole run replays exactly from rng_seed.

    Each generation is one call of an `_evaluator`, whose cache keeps a
    table, a score list or a model while a genome of the population uses
    it.  Crossover hands gap weight and sigma down together and the
    elite passes unchanged, so most of a generation's work comes from
    the one before.  The elite, a generation's first best genome, leads
    the next population with its cached model, so no generation's best
    falls, and the final population's first best model is the first to
    reach the run's best fitness.
    """
    check_threads(threads)
    rng = np.random.default_rng(cfg.rng_seed)
    if validation is None:
        train, validation = _stratified_holdout(train, 0.3, rng)
    evaluate = _evaluator(
        _checked_sets(train, validation), sim, inner_cfg, fw, est, normalization
    )

    # one pool serves every generation of the run
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        pop = [_random_genome(rng) for _ in range(cfg.population_size)]
        models, fits = evaluate(pop, pool)
        log = [GenerationStat(0, float(fits.max()), float(fits.mean()))]

        for gen in range(1, cfg.max_generations + 1):
            recent = [stat.best for stat in log[-5:]]
            if len(recent) == 5 and max(recent) - min(recent) < cfg.stall_epsilon:
                break
            pop = _next_population(pop, fits, rng, cfg)
            models, fits = evaluate(pop, pool)
            log.append(GenerationStat(gen, float(fits.max()), float(fits.mean())))

    return dataclasses.replace(models[int(np.argmax(fits))], synthesis_log=tuple(log))


# --------------------------------------------------------------------------
# classification


def classify_all(model: OdseModel, seqs, threads: int = 1) -> list[int]:
    d = compute_matrix(list(seqs), model.representation, model.cost_model, threads)
    return model.inner.predict(d.values).tolist()


# --------------------------------------------------------------------------
# persistence

_FORMAT = "odse-model/1"
# the space tags the format has always carried; an inner classifier only
# ever works on embedded vectors, so these are the only values accepted
_KNN_SPACE = "embedded-euclidean"
_SVM_SPACE = "embedded-gaussian"
# the keys whose values are numbers or arrays of them, wherever they are
# (kernel_gamma is not one: it may be the text median-heuristic)
_NUMERIC = frozenset(
    "sigma tau_c tau_e gap_weight fitness sub_cost gap_cost k c kkt_tolerance max_passes"
    " vectors labels support alphas targets bias gamma generation best mean".split()
)


def _inner_to_dict(inner) -> dict:
    if isinstance(inner, KnnInner):
        return {
            "kind": "knn",
            "config": {**dataclasses.asdict(inner.config), "space": _KNN_SPACE},
            "vectors": inner.vectors.tolist(),
            "labels": [int(v) for v in inner.labels],
        }
    if isinstance(inner, SvmInner):
        svm = inner.model
        return {
            "kind": "svm",
            "config": {**dataclasses.asdict(inner.config), "space": _SVM_SPACE},
            "space": _SVM_SPACE,
            "support": inner.support.tolist(),
            "alphas": svm.alphas.tolist(),
            "targets": svm.targets.tolist(),
            "bias": svm.bias,
            "gamma": svm.gamma,
        }
    raise OdseError(f"cannot serialize inner classifier {type(inner).__name__}")


def _check_space(found, want: str) -> None:
    if found != want:
        raise OdseError(f"inner classifier space {found!r} is not {want!r}")


def _rows(values, width: int, what: str) -> np.ndarray:
    """Stored embedded vectors, one row per item, each as wide as the
    model's representation."""
    rows = np.array(values, dtype=np.float64)
    if rows.shape == (0,):
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise OdseError(f"inner classifier {what} must be rows of {width} numbers")
    if not np.isfinite(rows).all():
        raise OdseError(f"inner classifier {what} must be finite numbers")
    return rows


def _inner_from_dict(rec: dict, width: int):
    if rec["kind"] == "knn":
        _check_space(rec["config"]["space"], _KNN_SPACE)
        cfg = KnnConfig(k=rec["config"]["k"])
        vectors = _rows(rec["vectors"], width, "vectors")
        labels = np.array(rec["labels"], dtype=np.int64)
        if labels.shape != (len(vectors),):
            raise OdseError(f"kNN has {labels.size} labels for {len(vectors)} vectors")
        # checked on the stored values: the int64 cast truncates 0.9 to 0
        if not np.isin(rec["labels"], (0, 1)).all():
            raise OdseError("kNN labels must be the classes 0 and 1")
        return train_inner(vectors, labels, cfg)
    if rec["kind"] == "svm":
        c = rec["config"]
        _check_space(c["space"], _SVM_SPACE)
        _check_space(rec["space"], _SVM_SPACE)
        cfg = SvmConfig(**{f.name: c[f.name] for f in dataclasses.fields(SvmConfig)})
        support = _rows(rec["support"], width, "support")
        alphas = np.array(rec["alphas"], dtype=np.float64)
        targets = np.array(rec["targets"], dtype=np.float64)
        if not alphas.shape == targets.shape == (len(support),):
            raise OdseError(
                f"SVM has {alphas.size} alphas and {targets.size} targets "
                f"for {len(support)} support rows"
            )
        if not (np.isfinite(alphas).all() and (alphas >= 0.0).all()):
            raise OdseError("SVM alphas must be finite and non-negative")
        if not np.isin(targets, (-1.0, 1.0)).all():
            raise OdseError("SVM targets must be -1 or +1")
        gamma, bias = float(rec["gamma"]), float(rec["bias"])
        if not (np.isfinite(bias) and np.isfinite(gamma) and gamma > 0.0):
            raise OdseError(f"SVM needs a finite bias and a finite gamma > 0, got {bias}, {gamma}")
        # the stored support vectors are the whole training set a loaded
        # model knows, so its support indices are 0..n-1
        svm = TrainedSvm(np.arange(len(support)), alphas, targets, bias, gamma)
        return SvmInner(model=svm, support=support, config=cfg)
    raise OdseError(f"unknown inner classifier kind {rec.get('kind')!r}")


def model_to_json(model: OdseModel) -> str:
    doc = {
        "format": _FORMAT,
        "genome": dataclasses.asdict(model.genome),
        "fitness": model.fitness,
        "representation": [
            {"id": p.id, "symbols": p.symbols, "provenance": tag}
            for p, tag in zip(model.representation, model.provenance)
        ],
        "cost_model": {
            "alphabet": "".join(model.cost_model.alphabet),
            "sub_cost": model.cost_model.sub_cost.tolist(),
            "gap_cost": model.cost_model.gap_cost,
            "normalization": model.cost_model.normalization,
        },
        "inner": _inner_to_dict(model.inner),
        "synthesis_log": [dataclasses.asdict(s) for s in model.synthesis_log],
    }
    return json.dumps(doc, indent=1)


def model_from_json(text: str) -> OdseModel:
    """Rebuild a model from `model_to_json` output; a malformed archive
    raises `OdseError`."""
    try:
        doc = json.loads(text)
        model = _model_from_doc(doc)
        # no field takes true or false, and a numeric one takes only numbers:
        # float() and float64 arrays read true as 1 and "0.5" as 0.5.
        # Checked last, so a field's own check names what is wrong
        values = [(None, doc)]
        while values:
            key, v = values.pop()
            if isinstance(v, dict):
                values.extend(v.items())
            elif isinstance(v, list):
                values.extend((key, item) for item in v)
            elif isinstance(v, bool):
                raise OdseError(f"model archive holds {json.dumps(v)}, which no field takes")
            elif key in _NUMERIC and not isinstance(v, (int, float)):
                raise OdseError(f"model archive holds {json.dumps(v)} in {key!r}, not a number")
        return model
    except json.JSONDecodeError as exc:
        raise OdseError(f"model archive is not JSON: {exc}") from None
    except RecursionError:
        raise OdseError("model archive is nested too deeply") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise OdseError(
            f"malformed model archive: {type(exc).__name__}: {exc}"
        ) from None


def _model_from_doc(doc) -> OdseModel:
    if not isinstance(doc, dict):
        raise OdseError("model archive must be a JSON object")
    if doc.get("format") != _FORMAT:
        raise OdseError(f"unsupported model archive format {doc.get('format')!r}")
    genome = OdseGenome(**doc["genome"])
    prototypes = tuple(Sequence(r["id"], r["symbols"]) for r in doc["representation"])
    provenance = tuple(r["provenance"] for r in doc["representation"])
    # checked before the duplicate-id set hashes the ids, and the set before
    # the inner classifier is read against its count, so each defect is named
    for p in prototypes:
        if not (isinstance(p.id, str) and p.id):
            raise OdseError(f"prototype id {p.id!r} must be non-empty text")
    _check_representation(prototypes, provenance)
    cmrec = doc["cost_model"]
    cm = AlignmentCostModel(
        alphabet=tuple(cmrec["alphabet"]),
        sub_cost=np.array(cmrec["sub_cost"], dtype=np.float64),
        gap_cost=float(cmrec["gap_cost"]),
        normalization=cmrec["normalization"],
    )
    for p in prototypes:
        if not (isinstance(p.symbols, str) and set(p.symbols) <= set(cm.alphabet)):
            raise OdseError(f"prototype {p.id!r}: symbols must be text over the alphabet")
    log = tuple(GenerationStat(**s) for s in doc["synthesis_log"])
    return OdseModel(
        genome=genome,
        representation=prototypes,
        provenance=provenance,
        cost_model=cm,
        inner=_inner_from_dict(doc["inner"], len(prototypes)),
        fitness=float(doc["fitness"]),
        synthesis_log=log,
    )


def save_model(model: OdseModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> OdseModel:
    return model_from_json(read_text(path))
