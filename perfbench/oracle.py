"""Reference alignment dissimilarity, written apart from the program.

Costs come straight from a substitution-matrix file with the documented
formula

    c(a, b) = [(S(a,a) + S(b,b)) / 2 - S(a,b)] / Z

where Z is the largest numerator over all symbol pairs of the file, and
the gap cost is the gap weight times the mean off-diagonal cost.  The
dynamic program is the textbook global alignment in plain Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Costs:
    index: dict
    table: list  # table[i][j] = c(alphabet[i], alphabet[j])
    gap: float


def read_scores(path) -> tuple[list[str], list[list[int]]]:
    """Alphabet and integer score rows of an NCBI-layout matrix file."""
    alphabet: list[str] = []
    rows: dict[str, list[int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if not alphabet:
                alphabet = tokens
            else:
                rows[tokens[0]] = [int(v) for v in tokens[1:]]
    return alphabet, [rows[a] for a in alphabet]


def costs_from_scores(alphabet, scores, gap_weight: float) -> Costs:
    n = len(alphabet)
    numer = [
        [(scores[i][i] + scores[j][j]) / 2.0 - scores[i][j] for j in range(n)]
        for i in range(n)
    ]
    z = max(max(row) for row in numer)
    table = [[numer[i][j] / z if i != j else 0.0 for j in range(n)] for i in range(n)]
    off_mean = math.fsum(table[i][j] for i in range(n) for j in range(n) if i != j) / (
        n * n - n
    )
    return Costs({a: i for i, a in enumerate(alphabet)}, table, gap_weight * off_mean)


def dissimilarity(a: str, b: str, costs: Costs) -> float:
    """Raw global-alignment cost of turning `a` into `b`."""
    idx, table, gap = costs.index, costs.table, costs.gap
    bi = [idx[ch] for ch in b]
    prev = [j * gap for j in range(len(b) + 1)]
    for i, ch in enumerate(a, start=1):
        row = table[idx[ch]]
        cur = [i * gap]
        for j, y in enumerate(bi, start=1):
            cur.append(min(prev[j - 1] + row[y], prev[j] + gap, cur[j - 1] + gap))
        prev = cur
    return prev[-1]


def brute_force_dissimilarity(a: str, b: str, costs: Costs) -> float:
    """Minimum cost over every alignment of `a` and `b`, enumerated in
    full as strings of match (M), delete (D) and insert (I) steps.  Only
    for tiny inputs: the count of alignments grows exponentially."""
    idx, table, gap = costs.index, costs.table, costs.gap
    best = math.inf

    def walk(i: int, j: int, cost: float) -> None:
        nonlocal best
        if i == len(a) and j == len(b):
            best = min(best, cost)
            return
        if i < len(a) and j < len(b):
            walk(i + 1, j + 1, cost + table[idx[a[i]]][idx[b[j]]])
        if i < len(a):
            walk(i + 1, j, cost + gap)
        if j < len(b):
            walk(i, j + 1, cost + gap)

    walk(0, 0, 0.0)
    return best


def close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))
