"""Seeded synthetic protein corpus for the benchmark.

Proteins use the 20 standard residues.  Each class owns a few template
families; members are templates varied by substitutions and indels.
Residue draws depend on the class: insoluble proteins are rich in
hydrophobic residues, soluble ones in charged residues.  A third group
has solubility in the unassigned middle band (0.3, 0.7), which every
split must drop.

Everything is drawn from `random.Random` seeded with a string, so a seed
gives the same corpus on every platform and Python version, and the
generator shares no code with the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
HYDROPHOBIC = "AILMFVWC"
CHARGED = "DEKR"

INSOLUBLE, SOLUBLE, MIDDLE = 0, 1, None

FAMILIES = 6  # template families per class
INDEL_RATE = 0.06  # per-position chance of an insertion or a deletion
QUERY_STRETCH = 0.4  # queries are cropped or extended by up to this share


@dataclass(frozen=True)
class Protein:
    id: str
    symbols: str
    solubility: float
    label: int | None


@dataclass(frozen=True)
class CorpusSpec:
    n_insoluble: int
    n_soluble: int
    n_middle: int
    length: tuple[int, int]
    substitution_rate: float = 0.2


def _weights(label) -> list[float]:
    rich = {INSOLUBLE: HYDROPHOBIC, SOLUBLE: CHARGED}.get(label, "")
    return [3.0 if r in rich else 1.0 for r in RESIDUES]


class _Draw:
    """Residue and number draws built on `random()` alone."""

    def __init__(self, key: str):
        self.rng = random.Random(key)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.rng.random()

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + min(int(self.rng.random() * (hi - lo + 1)), hi - lo)

    def residue(self, weights: list[float]) -> str:
        x = self.rng.random() * sum(weights)
        for r, w in zip(RESIDUES, weights):
            x -= w
            if x < 0.0:
                return r
        return RESIDUES[-1]

    def residues(self, n: int, weights: list[float]) -> str:
        return "".join(self.residue(weights) for _ in range(n))

    def vary(self, template: str, weights: list[float], sub: float, indel: float) -> str:
        """Apply substitutions, deletions and insertions position by position."""
        out = []
        for ch in template:
            x = self.rng.random()
            if x < indel / 2:
                continue  # deletion
            out.append(self.residue(weights) if x < indel / 2 + sub else ch)
            if self.rng.random() < indel / 2:
                out.append(self.residue(weights))  # insertion
        return "".join(out) or template[:1]


def _templates(draw: _Draw, spec: CorpusSpec) -> dict:
    """Template families per class.

    Template lengths are spaced evenly over the length range, and members
    are dealt to families in turn, so every seed gives the same length
    mix and about the same amount of alignment work.
    """
    lo, hi = spec.length
    n = FAMILIES
    lengths = [lo + round((hi - lo) * (i + 0.5) / n) for i in range(n)]
    return {
        label: [draw.residues(length, _weights(label)) for length in lengths]
        for label in (INSOLUBLE, SOLUBLE)
    }


def make_corpus(seed: int, spec: CorpusSpec) -> list[Protein]:
    """Proteins of all three groups, interleaved in a seeded order."""
    draw = _Draw(f"perfbench-corpus:{seed}")
    templates = _templates(draw, spec)
    groups = (
        (INSOLUBLE, spec.n_insoluble, (0.02, 0.28)),
        (SOLUBLE, spec.n_soluble, (0.72, 0.98)),
        (MIDDLE, spec.n_middle, (0.35, 0.65)),
    )
    proteins = []
    for label, count, (s_lo, s_hi) in groups:
        for k in range(count):
            # middle-band proteins come from both classes' families
            family = templates[label if label is not None else k % 2]
            template = family[k % len(family)]
            symbols = draw.vary(
                template, _weights(label), spec.substitution_rate, INDEL_RATE
            )
            proteins.append((symbols, draw.uniform(s_lo, s_hi), label))
    order = sorted(range(len(proteins)), key=lambda _: draw.rng.random())
    return [
        Protein(f"P{n:05d}", *proteins[i]) for n, i in enumerate(order)
    ]


def make_queries(seed: int, spec: CorpusSpec, count: int) -> list[Protein]:
    """Unseen class-labelled proteins from the corpus's own families.

    Each query is a varied family member cropped or extended by up to
    QUERY_STRETCH of its length, so query lengths spread wider than the
    corpus's.
    """
    templates = _templates(_Draw(f"perfbench-corpus:{seed}"), spec)
    draw = _Draw(f"perfbench-queries:{seed}")
    out = []
    for n in range(count):
        label = n % 2
        family = templates[label]
        weights = _weights(label)
        symbols = draw.vary(
            family[(n // 2) % len(family)],
            weights,
            spec.substitution_rate,
            INDEL_RATE,
        )
        change = int(round(draw.uniform(-QUERY_STRETCH, QUERY_STRETCH) * len(symbols)))
        if change < 0:
            start = draw.integer(0, -change)
            symbols = symbols[start : len(symbols) + change + start]
        else:
            symbols += draw.residues(change, weights)
        out.append(Protein(f"Q{n:05d}", symbols, 0.1 if label == 0 else 0.9, label))
    return out


def fasta_text(proteins) -> str:
    lines = []
    for p in proteins:
        lines.append(f">{p.id}")
        lines.extend(p.symbols[i : i + 60] for i in range(0, len(p.symbols), 60))
    return "\n".join(lines) + "\n"


def solubility_text(proteins) -> str:
    return "id,solubility\n" + "".join(f"{p.id},{p.solubility!r}\n" for p in proteins)
