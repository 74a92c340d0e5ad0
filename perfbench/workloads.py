"""Settings of the three benchmark workloads.

Each workload is one batch job run in a fresh interpreter with one
caller.  Its corpus comes from `corpus.make_corpus(seed, spec)`; every
other setting is fixed here, so the benchmark seed changes only the
generated files the program reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from corpus import CorpusSpec

SYNTHESIZE = "synthesize-ds200"
CLASSIFY = "classify-batch"
EVALUATE = "evaluate-ds1811"

# GA settings shared by every workload: the seed of the GA's own draws,
# and one generation after the initial population, so the stall rule
# (five flat generations) never fires and every run evaluates the same
# number of genomes
GA_SEED = 0
GENERATIONS = 1

# classify-batch: the fixed genome (sigma, tau_c, tau_e, gap_weight) its
# model is built from
CLASSIFY_GENOME = (0.05, 0.0, 1.0, 1.0)

# evaluate-ds1811: the fewest resamples that give Welch tests
RESAMPLES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    threads: int
    population: int = 4  # GA population
    # classify-batch: sizes of the model's training and validation sets,
    # and the unseen queries it labels
    model_train: int = 0
    model_validation: int = 0
    queries: int = 0
    # evaluate-ds1811
    systems: tuple[str, ...] = field(default=())

    @property
    def genomes(self) -> int:
        return self.population * (GENERATIONS + 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name=SYNTHESIZE,
            corpus=CorpusSpec(n_insoluble=110, n_soluble=110, n_middle=30, length=(20, 50)),
            threads=1,
            population=8,
        ),
        Workload(
            name=CLASSIFY,
            corpus=CorpusSpec(n_insoluble=35, n_soluble=35, n_middle=10, length=(30, 80)),
            threads=1,
            model_train=50,
            model_validation=20,
            queries=600,
        ),
        Workload(
            name=EVALUATE,
            corpus=CorpusSpec(
                n_insoluble=130, n_soluble=90, n_middle=30, length=(12, 32), substitution_rate=0.1
            ),
            threads=2,
            systems=("odse-knn", "input-knn", "input-svm"),
        ),
    )
}
