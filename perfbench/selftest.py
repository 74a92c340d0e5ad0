"""Self-tests of the benchmark's own reference code.

Run before every benchmark run, and on their own with

    python3 perfbench/selftest.py

They check the reference dynamic program against brute-force
enumeration of every alignment on tiny inputs, and that the corpus
generator is a pure function of its seed.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import oracle
from corpus import RESIDUES, fasta_text, make_corpus, make_queries, solubility_text
from workloads import WORKLOADS

PAM120 = Path(__file__).resolve().parent.parent / "src" / "odse" / "data" / "PAM120"


def check_dp_against_brute_force() -> None:
    alphabet, scores = oracle.read_scores(PAM120)
    rng = random.Random("perfbench-selftest")
    for weight in (0.3, 1.0, 2.5):
        costs = oracle.costs_from_scores(alphabet, scores, weight)
        words = ["", "A", "W", "AR", "RA", "WWC", "KDE", "LIVM"]
        words += ["".join(rng.choice(RESIDUES) for _ in range(rng.randint(1, 4))) for _ in range(12)]
        for a, b in itertools.product(words, repeat=2):
            dp = oracle.dissimilarity(a, b, costs)
            brute = oracle.brute_force_dissimilarity(a, b, costs)
            if not oracle.close(dp, brute, 1e-12):
                raise AssertionError(f"DP {dp!r} != brute force {brute!r} on {a!r}, {b!r}")
            if a == b and dp != 0.0:
                raise AssertionError(f"DP of identical {a!r} is {dp!r}, not 0")
            if len(a) == 0 and not oracle.close(dp, costs.gap * len(b), 1e-12):
                raise AssertionError(f"empty versus {b!r} is not gap times length")


def check_cost_formula() -> None:
    alphabet, scores = oracle.read_scores(PAM120)
    costs = oracle.costs_from_scores(alphabet, scores, 1.0)
    flat = [c for row in costs.table for c in row]
    if min(flat) != 0.0 or max(flat) != 1.0:
        raise AssertionError("costs do not span [0, 1]")
    n = len(alphabet)
    for i in range(n):
        if costs.table[i][i] != 0.0:
            raise AssertionError("diagonal cost is not 0")
        for j in range(n):
            if costs.table[i][j] != costs.table[j][i]:
                raise AssertionError("cost table is not symmetric")


def check_corpus_deterministic() -> None:
    for w in WORKLOADS.values():
        for seed in (1, 2):
            first = make_corpus(seed, w.corpus)
            again = make_corpus(seed, w.corpus)
            if fasta_text(first) != fasta_text(again) or solubility_text(first) != solubility_text(again):
                raise AssertionError(f"{w.name}: corpus of seed {seed} is not reproducible")
            if make_queries(seed, w.corpus, 20) != make_queries(seed, w.corpus, 20):
                raise AssertionError(f"{w.name}: queries of seed {seed} are not reproducible")
        if fasta_text(make_corpus(1, w.corpus)) == fasta_text(make_corpus(2, w.corpus)):
            raise AssertionError(f"{w.name}: seeds 1 and 2 give the same corpus")
        counts = {0: 0, 1: 0, None: 0}
        for p in make_corpus(1, w.corpus):
            counts[p.label] += 1
            band = (
                p.solubility <= 0.3 if p.label == 0
                else p.solubility >= 0.7 if p.label == 1
                else 0.3 < p.solubility < 0.7
            )
            if not band or set(p.symbols) - set(RESIDUES):
                raise AssertionError(f"{w.name}: protein {p.id} is malformed")
        spec = w.corpus
        if counts != {0: spec.n_insoluble, 1: spec.n_soluble, None: spec.n_middle}:
            raise AssertionError(f"{w.name}: class counts {counts} do not match the spec")


def run_all() -> None:
    check_dp_against_brute_force()
    check_cost_formula()
    check_corpus_deterministic()


if __name__ == "__main__":
    run_all()
    print("selftest: ok")
    sys.exit(0)
